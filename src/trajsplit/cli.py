"""Command line front end: solve one scenario, sweep parameters, or bench.

Exit codes for ``solve``: 0 converged and collision-free, 2 not converged,
3 converged but the assembled trajectory still collides (the first contact is
printed), 1 bad input.
Non-convergence wins over collision since nothing about a non-converged
trajectory is trustworthy.  ``sweep`` and ``bench`` exit 0 once all their
runs completed, 1 on bad input.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from . import admm
from .collision import first_contact
from .errors import TrajsplitError
from .nlp import SolverOptions
from .scenario_io import load_scenario, write_report

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_COLLISION = 3


def bundled_scenario_dir() -> Path:
    return Path(str(resources.files("trajsplit") / "scenarios"))


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _planner_splits(name: str) -> int:
    """Planner names: 'mono' or 'splitK' for K segments (K-1 cut points)."""
    if name == "mono":
        return 0
    if name.startswith("split"):
        try:
            pieces = int(name[5:])
        except ValueError:
            pieces = 0
        if pieces >= 2:
            return pieces - 1
    raise argparse.ArgumentTypeError(f"unknown planner {name!r}; use mono or splitK (K >= 2)")


def _planner_list(text: str) -> list[tuple[str, int]]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError("no planners given")
    return [(name, _planner_splits(name)) for name in names]


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    """The flags every subcommand reads; ``solve`` alone adds ``--splits`` and
    ``--seed``, as ``sweep`` and ``bench`` take their split counts elsewhere."""
    config = admm.SplitConfig()
    parser.add_argument("--rho", type=float, default=config.rho, help="consensus penalty weight (default %(default)s)")
    parser.add_argument("--eps", type=float, default=config.eps, help="splitting tolerance (default %(default)s)")
    parser.add_argument("--max-iters", type=int, default=config.max_admm_iterations, metavar="K",
                        help="consensus iteration cap (default %(default)s)")
    parser.add_argument("--samples-per-edge", type=int, default=config.samples_per_edge, metavar="S",
                        help="interpolated collision checks per edge (default %(default)s)")
    parser.add_argument("--nlp-max-outer", type=int, default=config.nlp_options.max_outer_iterations, metavar="K",
                        help="segment solver outer iteration cap (default %(default)s)")
    parser.add_argument("--nlp-feas-tol", type=float, default=config.nlp_options.feasibility_tolerance, metavar="TOL",
                        help="segment solver feasibility tolerance (default %(default)s)")
    parser.add_argument("--nlp-step-tol", type=float, default=config.nlp_options.step_tolerance, metavar="TOL",
                        help="segment solver step tolerance (default %(default)s)")


def _config_from_args(args: argparse.Namespace, num_splits: int | None = None) -> admm.SplitConfig:
    """The run's config; ``num_splits`` defaults to ``--splits`` where the
    subcommand has it, else to the ``SplitConfig`` default."""
    options = SolverOptions(
        max_outer_iterations=args.nlp_max_outer,
        feasibility_tolerance=args.nlp_feas_tol,
        step_tolerance=args.nlp_step_tol,
    )
    return admm.SplitConfig(
        num_splits=getattr(args, "splits", admm.SplitConfig.num_splits) if num_splits is None else num_splits,
        rho=args.rho,
        eps=args.eps,
        max_admm_iterations=args.max_iters,
        samples_per_edge=args.samples_per_edge,
        nlp_options=options,
    )


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: ``sweep --splits 7`` must not parse as ``--splits-list 7``
    parser = argparse.ArgumentParser(prog="trajsplit", description=__doc__.split("\n")[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one scenario and report the trajectory", allow_abbrev=False)
    solve.add_argument("scenario", help="scenario YAML file")
    solve.add_argument("--splits", type=int, default=admm.SplitConfig.num_splits, metavar="M",
                       help="number of split points (default %(default)s)")
    _add_solver_flags(solve)
    solve.add_argument("--seed", type=int, default=None, help="RNG seed recorded in the report")
    solve.add_argument("--out", metavar="PATH", help="write a YAML report (plus .iters.csv) here")
    solve.set_defaults(handler=cmd_solve)

    sweep = sub.add_parser("sweep", help="grid over split counts and tolerances, one CSV row per run", allow_abbrev=False)
    sweep.add_argument("scenario", help="scenario YAML file")
    _add_solver_flags(sweep)
    sweep.add_argument("--splits-list", type=_int_list, default=[1, 2, 4], metavar="LIST",
                       help="comma-separated split counts (default 1,2,4)")
    sweep.add_argument("--eps-list", type=_float_list, default=[0.05, 0.1, 0.17, 0.26], metavar="LIST",
                       help="comma-separated tolerances (default 0.05,0.1,0.17,0.26)")
    sweep.add_argument("--repeats", type=int, default=1, help="repetitions per cell (default 1)")
    sweep.add_argument("--out", metavar="CSV", help="write rows to this CSV file")
    sweep.set_defaults(handler=cmd_sweep)

    bench = sub.add_parser("bench", help="run planners across a scenario suite under a time limit", allow_abbrev=False)
    bench.add_argument("--suite", metavar="DIR", default=None,
                       help="directory of scenario YAML files (default: bundled arm suite)")
    bench.add_argument("--planners", type=_planner_list, default=_planner_list("mono,split3"),
                       metavar="LIST", help="comma-separated planner names (default mono,split3)")
    bench.add_argument("--time-limit", type=float, default=10.0, metavar="SECONDS",
                       help="wall-clock budget per run (default 10)")
    _add_solver_flags(bench)
    bench.add_argument("--out", metavar="CSV", help="write per-run rows to this CSV file")
    bench.set_defaults(handler=cmd_bench)
    return parser


def cmd_solve(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    config = _config_from_args(args)
    report = admm.run(scenario, config)
    print(f"scenario: {args.scenario}")
    print(f"segments: {report.num_segments}  splits at: {list(report.split_indices)}")
    print(f"converged: {report.converged}  collision_free: {report.collision_free}")
    print(f"iterations: {report.iterations}  residual: {report.residual:.3e}")
    print(f"qp_nonoptimal: {report.qp_nonoptimal}  kkt_fallbacks: {report.kkt_fallbacks}  "
          f"nonconverged_segment_solves: {report.nonconverged_segment_solves}")
    print(f"coarse_waypoints: {report.coarse_waypoints}  coarse_rounds: {report.coarse_rounds}  "
          f"coarse_converged: {report.coarse_converged}  coarse_collision_free: {report.coarse_collision_free}")
    print(f"objective: {report.objective:.6f}  path_length: {report.path_length:.6f}")
    print(f"wall_seconds: {report.wall_seconds_total:.3f} "
          f"(primal {report.wall_seconds_primal:.3f}, consensus {report.wall_seconds_consensus:.3f})")
    if args.out:
        yaml_path, csv_path = write_report(report, args.out, args.scenario, config, args.seed)
        print(f"report: {yaml_path}  iterations: {csv_path}")
    if not report.converged:
        return EXIT_NOT_CONVERGED
    if not report.collision_free:
        contact = first_contact(scenario, report.trajectory, config.samples_per_edge)
        print(f"first contact: {contact} (safety margin {scenario.safety_margin!r})")
        return EXIT_COLLISION
    return EXIT_OK


# the solver flags of ``SolveReport``, last in every sweep and bench row
FLAG_COLUMNS = ["qp_nonoptimal", "kkt_fallbacks", "nonconverged_segment_solves"]
SWEEP_COLUMNS = ["splits", "eps", "repeat", "wall_seconds", "iterations", "path_length", "residual", "collision_free",
                 *FLAG_COLUMNS]


def _flags(report: admm.SolveReport) -> list[int]:
    return [getattr(report, name) for name in FLAG_COLUMNS]


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.repeats < 1:
        print("error: --repeats must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    rows = []
    for num_splits in args.splits_list:
        for eps in args.eps_list:
            for repeat in range(args.repeats):
                config = replace(_config_from_args(args, num_splits=num_splits), eps=eps)
                report = admm.run(scenario, config)
                rows.append([
                    num_splits, repr(float(eps)), repeat,
                    f"{report.wall_seconds_total:.6f}", report.iterations,
                    repr(float(report.path_length)), repr(float(report.residual)),
                    report.collision_free, *_flags(report),
                ])
                print(f"splits={num_splits} eps={eps:g} repeat={repeat}: "
                      f"iters={report.iterations} path={report.path_length:.4f} "
                      f"converged={report.converged} qp_nonoptimal={report.qp_nonoptimal} "
                      f"kkt_fallbacks={report.kkt_fallbacks} "
                      f"nonconverged_segment_solves={report.nonconverged_segment_solves}")
    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(SWEEP_COLUMNS)
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


BENCH_COLUMNS = ["problem", "planner", "converged", "collision_free", "success",
                 "wall_seconds", "iterations", "path_length", "residual", *FLAG_COLUMNS]


def cmd_bench(args: argparse.Namespace) -> int:
    if not args.time_limit > 0.0:
        print("error: --time-limit must be > 0", file=sys.stderr)
        return EXIT_INPUT
    suite_dir = Path(args.suite) if args.suite else bundled_scenario_dir() / "arm_suite"
    problems = sorted(suite_dir.glob("*.yaml"))
    if not problems:
        print(f"error: no scenario files in {suite_dir}", file=sys.stderr)
        return EXIT_INPUT
    rows = []
    summary: dict[str, dict[str, float]] = {}
    for name, _ in args.planners:
        summary[name] = {"runs": 0, "successes": 0, "wall": 0.0, "path": 0.0}
    for problem in problems:
        scenario = load_scenario(problem)
        for name, num_splits in args.planners:
            config = _config_from_args(args, num_splits=num_splits)
            report = admm.run(scenario, config, deadline_seconds=args.time_limit)
            # a run over budget is a failure even if it finished converged
            success = (
                report.converged
                and report.collision_free
                and report.wall_seconds_total <= args.time_limit
            )
            rows.append([
                problem.name, name, report.converged, report.collision_free, success,
                f"{report.wall_seconds_total:.6f}", report.iterations,
                repr(float(report.path_length)), repr(float(report.residual)), *_flags(report),
            ])
            stats = summary[name]
            stats["runs"] += 1
            stats["wall"] += report.wall_seconds_total
            if success:
                stats["successes"] += 1
                stats["path"] += report.path_length
    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(BENCH_COLUMNS)
            writer.writerows(rows)
    print(f"{'planner':<10} {'success':>9} {'avg wall s':>11} {'avg path':>10}")
    for name, _ in args.planners:
        stats = summary[name]
        runs = int(stats["runs"])
        successes = int(stats["successes"])
        avg_wall = stats["wall"] / runs if runs else 0.0
        avg_path = stats["path"] / successes if successes else float("nan")
        print(f"{name:<10} {successes:>4d}/{runs:<4d} {avg_wall:>11.3f} {avg_path:>10.4f}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the input-error code
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except TrajsplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
