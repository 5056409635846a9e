"""The benchmark's tracing hooks install on the package and come off cleanly.

``benchmark/tracing.py`` replaces module attributes by name, some of which
(``admm.ThreadPoolExecutor``, ``nlp.linearize_collision_constraint``,
``nlp.pair_distance``, ``collision.point_jacobian``) the package keeps only
for it; deleting one breaks the traced benchmark run, and this test.  A
traced run must also reach the solver layers the per-layer metrics read.
"""

import importlib
from pathlib import Path

from trajsplit import admm, collision, geometry, kinematics, nlp, scenario_io
from trajsplit.cli import bundled_scenario_dir

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
MODULES = (admm, collision, geometry, kinematics, nlp, scenario_io)


def test_trace_layers_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracing = importlib.import_module("tracing")
    before = [dict(vars(module)) for module in MODULES]

    tracer = tracing.Tracer()
    tracing.trace_layers(tracer)
    replaced = [
        (module.__name__, name)
        for module, snapshot in zip(MODULES, before)
        for name, value in vars(module).items()
        if snapshot.get(name) is not value
    ]
    assert ("trajsplit.nlp", "solve_qp") in replaced
    tracer.uninstall()

    for module, snapshot in zip(MODULES, before):
        assert vars(module).keys() == snapshot.keys(), module.__name__
        moved = [name for name, value in snapshot.items() if vars(module)[name] is not value]
        assert moved == [], module.__name__


def test_traced_run_counts_solves_and_qps(monkeypatch):
    # on_qp reads solve_qp's gradient and a_in positionally (args[1], args[4]);
    # a solve that passed them by keyword would break the traced pass here
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracing = importlib.import_module("tracing")
    scenario = scenario_io.load_scenario(bundled_scenario_dir() / "circle_blocked.yaml")
    tracer = tracing.Tracer()
    tracing.trace_layers(tracer)
    try:
        report = admm.run(scenario, admm.SplitConfig(num_splits=2))
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert report.converged
    assert totals["nlp.solve.calls"] >= report.iterations * report.num_segments
    assert totals["nlp.solve_qp.calls"] >= totals["nlp.solve.calls"]
    assert totals["nlp.qp_size"] > 0
