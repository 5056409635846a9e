"""Time one cold set-up: import trajsplit, then load and validate scenario files.

Usage: python3 benchmark/setup_probe.py SRC_DIR SCENARIO.yaml...
Prints the seconds taken.  ``run.py`` starts this in a fresh interpreter
several times per run, since an import can only be timed cold once per
process.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import trajsplit  # noqa: E402
from trajsplit.scenario_io import load_scenario  # noqa: E402

for path in sys.argv[2:]:
    load_scenario(path)
elapsed = time.perf_counter() - start
if not trajsplit.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported trajsplit from {trajsplit.__file__}, not from {sys.argv[1]}")
print(repr(elapsed))
