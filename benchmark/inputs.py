"""Seeded input generator for the trajsplit benchmark workloads.

Each workload is a list of problems, one scenario YAML file each, plus the
planners every problem runs under.  The files are derived from the bundled
scenarios of the checkout, which are read here as plain YAML; the program
itself only ever sees the written files, through ``scenario_io.load_scenario``.

Workloads (names are fixed and cited elsewhere):

* ``point-horizon``: ``circle_blocked`` stretched to N = 40, 80, 160 waypoints
  with dt scaled so the 9.75 s horizon stays the same; mono, split4, split8
  at rho 2, eps 0.05.  The seed does not change these inputs: the solves
  that fail today (N = 80 and 160) must fail on every seed alike.
* ``arm-suite``: the bundled 25-problem ``arm_suite`` copied byte for byte;
  mono, split2, split3, split5 at default settings.  Seed-independent too.
* ``arm-polygon``: ``arm_three_link`` with every disc replaced by a convex
  polygon of 5 to 8 vertices inscribed in it, drawn from the seed, in three
  independent worlds; N = 30, 60, 120 with dt scaled to keep the 5.8 s
  horizon; mono and split3 at default settings.

Run ``python3 benchmark/inputs.py --workload arm-polygon --seed 3 --out DIR``
to write one workload's files without running anything.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import yaml

WORKLOADS = ("point-horizon", "arm-suite", "arm-polygon")

# Digest of the bundled scenario files the workloads are derived from.  A
# change to any of them would silently change the benchmark's inputs, so the
# generator refuses to run until the benchmark itself is revised.
SOURCE_DIGEST = "812fab79eee771287c8053806103cac5ff91e6bcf980b23a76459e0af03a0b90"

POINT_HORIZON_SECONDS = 9.75
POINT_HORIZON_N = (40, 80, 160)
ARM_POLYGON_N = (30, 60, 120)
POLYGON_VERTICES = (5, 8)
# Solve time depends on the drawn shapes by about 10% (one standard
# deviation over seeds); independent worlds per pass average that out, so
# runs with different seeds measure about the same amount of work.
POLYGON_WORLDS = 3
# each vertex angle moves at most this share of the even spacing, so the
# angular order (hence convexity and counterclockwise winding) is kept
POLYGON_JITTER = 0.3


@dataclass(frozen=True)
class Planner:
    """One solver setting: ``num_splits`` cut points give num_splits+1 segments."""

    name: str
    num_splits: int
    rho: float = 50.0
    eps: float = 0.1745


@dataclass(frozen=True)
class Problem:
    """One generated scenario file and the plain data written into it."""

    name: str
    path: Path
    data: dict


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple[Problem, ...]
    planners: tuple[Planner, ...]

    def solves(self) -> list[tuple[Problem, Planner]]:
        """Every (problem, planner) pair in the order one pass runs them."""
        return [(p, pl) for p in self.problems for pl in self.planners]


def _planner(name: str, **settings) -> Planner:
    splits = 0 if name == "mono" else int(name[len("split"):]) - 1
    return Planner(name=name, num_splits=splits, **settings)


def source_files(scenario_dir: Path) -> list[Path]:
    suite = sorted((scenario_dir / "arm_suite").glob("*.yaml"))
    return [scenario_dir / "circle_blocked.yaml", scenario_dir / "arm_three_link.yaml", *suite]


def check_sources(scenario_dir: Path) -> None:
    """Raise ``RuntimeError`` unless the bundled sources are the pinned ones."""
    digest = hashlib.sha256()
    for path in source_files(scenario_dir):
        if not path.is_file():
            raise RuntimeError(f"bundled scenario {path} is missing")
        digest.update(str(path.relative_to(scenario_dir)).encode())
        digest.update(path.read_bytes())
    if digest.hexdigest() != SOURCE_DIGEST:
        raise RuntimeError(
            f"bundled scenarios under {scenario_dir} differ from the ones the benchmark "
            "inputs are pinned to; revise the benchmark before measuring"
        )


def _write(path: Path, data: dict) -> Problem:
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    return Problem(name=path.stem, path=path, data=data)


def _point_horizon(scenario_dir: Path, out: Path) -> list[Problem]:
    base = yaml.safe_load((scenario_dir / "circle_blocked.yaml").read_text())
    problems = []
    for n in POINT_HORIZON_N:
        data = dict(base, num_waypoints=n, dt=POINT_HORIZON_SECONDS / (n - 1))
        problems.append(_write(out / f"circle_blocked_n{n:03d}.yaml", data))
    return problems


def _arm_suite(scenario_dir: Path, out: Path) -> list[Problem]:
    problems = []
    for src in sorted((scenario_dir / "arm_suite").glob("*.yaml")):
        dst = out / src.name
        shutil.copyfile(src, dst)
        problems.append(Problem(name=src.stem, path=dst, data=yaml.safe_load(dst.read_text())))
    return problems


def inscribed_polygon(rng: random.Random, center, radius: float) -> list[list[float]]:
    """Counterclockwise convex polygon with all vertices on the given circle."""
    k = rng.randint(*POLYGON_VERTICES)
    gap = 2.0 * math.pi / k
    phase = rng.uniform(0.0, 2.0 * math.pi)
    angles = [phase + gap * (i + rng.uniform(-POLYGON_JITTER, POLYGON_JITTER)) for i in range(k)]
    return [[center[0] + radius * math.cos(a), center[1] + radius * math.sin(a)] for a in angles]


def _arm_polygon(scenario_dir: Path, out: Path, seed: int) -> list[Problem]:
    base = yaml.safe_load((scenario_dir / "arm_three_link.yaml").read_text())
    horizon = base["dt"] * (base["num_waypoints"] - 1)
    if any(obstacle["type"] != "circle" for obstacle in base["obstacles"]):
        raise RuntimeError("arm_three_link is expected to hold circles only")
    rng = random.Random(seed)
    problems = []
    for world in range(POLYGON_WORLDS):
        obstacles = [
            {"type": "polygon", "vertices": inscribed_polygon(rng, obstacle["center"], obstacle["radius"])}
            for obstacle in base["obstacles"]
        ]
        for n in ARM_POLYGON_N:
            data = dict(base, obstacles=obstacles, num_waypoints=n, dt=horizon / (n - 1))
            problems.append(_write(out / f"arm_polygon_w{world}_n{n:03d}.yaml", data))
    return problems


def generate(workload: str, seed: int, scenario_dir: Path, out: Path) -> Workload:
    """Write one workload's scenario files under ``out`` and describe them."""
    check_sources(scenario_dir)
    out.mkdir(parents=True, exist_ok=True)
    if workload == "point-horizon":
        problems = _point_horizon(scenario_dir, out)
        planners = [_planner(n, rho=2.0, eps=0.05) for n in ("mono", "split4", "split8")]
    elif workload == "arm-suite":
        problems = _arm_suite(scenario_dir, out)
        planners = [_planner(n) for n in ("mono", "split2", "split3", "split5")]
    elif workload == "arm-polygon":
        problems = _arm_polygon(scenario_dir, out, seed)
        planners = [_planner(n) for n in ("mono", "split3")]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name=workload, problems=tuple(problems), planners=tuple(planners))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--scenarios", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src" / "trajsplit" / "scenarios",
                        help="bundled scenario directory (default: the checkout's)")
    args = parser.parse_args()
    workload = generate(args.workload, args.seed, args.scenarios, args.out)
    for problem in workload.problems:
        print(problem.path)


if __name__ == "__main__":
    main()
