"""Command line driver: exit codes, reports, sweep and bench tables."""

import csv
from dataclasses import replace

import numpy as np
import pytest
import yaml

from trajsplit import admm
from trajsplit.admm import SplitConfig
from trajsplit.cli import (
    BENCH_COLUMNS,
    EXIT_COLLISION,
    EXIT_INPUT,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    SWEEP_COLUMNS,
    _config_from_args,
    build_parser,
    bundled_scenario_dir,
    main,
)

CORRIDOR = """\
robot:
  type: point2d
obstacles: []
start:
  position: [0.0, 0.0]
goal:
  position: [2.0, 1.0]
num_waypoints: 10
dt: 0.25
safety_margin: 0.05
dynamics_enabled: true
"""


@pytest.fixture
def corridor_file(tmp_path):
    path = tmp_path / "corridor.yaml"
    path.write_text(CORRIDOR)
    return path


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestSolveExitCodes:
    def test_free_scenario_monolithic(self, tmp_path):
        scenario = bundled_scenario_dir() / "corridor_free.yaml"
        out = tmp_path / "run.yaml"
        code = main(["solve", str(scenario), "--splits", "0", "--out", str(out)])
        assert code == EXIT_OK
        doc = yaml.safe_load(out.read_text())
        # unobstructed optimum is the straight line between the endpoints
        assert doc["result"]["path_length"] == pytest.approx(np.sqrt(5.0), abs=1e-3)
        assert doc["result"]["converged"] is True
        assert doc["result"]["collision_free"] is True

    def test_circle_scenario_default_tolerance(self, tmp_path):
        scenario = bundled_scenario_dir() / "circle.yaml"
        out = tmp_path / "run.yaml"
        code = main(["solve", str(scenario), "--splits", "2", "--out", str(out)])
        assert code == EXIT_OK
        doc = yaml.safe_load(out.read_text())
        assert doc["result"]["residual"] <= 0.1745
        assert doc["result"]["collision_free"] is True
        assert doc["solver"]["rho"] == 50.0

    def test_not_converged(self, corridor_file):
        code = main([
            "solve", str(corridor_file), "--splits", "2", "--rho", "5",
            "--eps", "1e-9", "--max-iters", "3",
        ])
        assert code == EXIT_NOT_CONVERGED

    def test_collision_detected(self):
        scenario = bundled_scenario_dir() / "thin_wall.yaml"
        code = main(["solve", str(scenario), "--eps", "0.5"])
        assert code == EXIT_COLLISION

    @pytest.mark.parametrize("name, splits", [("thin_wall.yaml", "2"), ("arm_two_link.yaml", "2")])
    def test_collision_names_first_contact(self, name, splits, capsys):
        code = main(["solve", str(bundled_scenario_dir() / name), "--splits", splits, "--eps", "0.5"])
        assert code == EXIT_COLLISION
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("first contact: ")
        assert ", link " in line and ", obstacle " in line and ", clearance " in line
        assert line.endswith(" (safety margin 0.05)") == (name == "thin_wall.yaml")

    def test_non_convergence_outranks_collision(self):
        # The same blocked scenario at an impossible tolerance: both flags
        # are bad, the exit code reports the non-convergence.
        scenario = bundled_scenario_dir() / "thin_wall.yaml"
        code = main(["solve", str(scenario), "--eps", "1e-9", "--max-iters", "2"])
        assert code == EXIT_NOT_CONVERGED

    def test_unparseable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("robot: {type: point2d}\nnot a mapping line\n")
        assert main(["solve", str(bad)]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "none.yaml")]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_too_many_splits(self, corridor_file, capsys):
        assert main(["solve", str(corridor_file), "--splits", "999"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error:" in err and "splits" in err

    @pytest.mark.parametrize("flag, value", [
        ("--eps", "nan"), ("--rho", "nan"), ("--eps", "inf"), ("--nlp-feas-tol", "nan"), ("--nlp-step-tol", "inf"),
    ])
    def test_non_finite_setting_rejected(self, corridor_file, flag, value, capsys):
        assert main(["solve", str(corridor_file), flag, value]) == EXIT_INPUT
        assert "must be finite and > 0" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert main(["solve"]) == EXIT_INPUT
        assert main(["frobnicate"]) == EXIT_INPUT

    def test_report_files_written(self, corridor_file, tmp_path):
        out = tmp_path / "report.yaml"
        code = main([
            "solve", str(corridor_file), "--splits", "1", "--rho", "5",
            "--eps", "1e-2", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert out.exists()
        csv_path = out.with_suffix(".iters.csv")
        assert csv_path.exists()
        doc = yaml.safe_load(out.read_text())
        rows = read_rows(csv_path)
        assert len(rows) - 1 == doc["result"]["iterations"]

    def test_summary_line_fields(self, corridor_file, capsys):
        code = main(["solve", str(corridor_file), "--splits", "0"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for token in ("converged:", "collision_free:", "iterations:", "residual:",
                      "path_length:", "wall_seconds:"):
            assert token in out

    def test_summary_line_shows_solver_flags(self, corridor_file, monkeypatch, capsys):
        # one round of 3 segment solves, each flagged: not optimal once,
        # 2 lstsq fallbacks, not converged
        real = admm.solve

        def flagged(problem, options=None):
            return replace(real(problem, options), qp_nonoptimal=1, kkt_fallbacks=2, converged=False)

        monkeypatch.setattr(admm, "solve", flagged)
        code = main(["solve", str(corridor_file), "--splits", "2", "--max-iters", "1"])
        assert code == EXIT_NOT_CONVERGED
        out = capsys.readouterr().out.splitlines()
        assert "qp_nonoptimal: 3  kkt_fallbacks: 6  nonconverged_segment_solves: 3" in out


class TestSweep:
    def test_grid_row_count(self, corridor_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", str(corridor_file), "--rho", "5",
            "--splits-list", "1,2", "--eps-list", "0.3,0.6", "--repeats", "2",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == SWEEP_COLUMNS
        assert len(rows) - 1 == 2 * 2 * 2
        splits_seen = {row[0] for row in rows[1:]}
        assert splits_seen == {"1", "2"}

    def test_deterministic_given_serial_seed(self, corridor_file, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main([
                "sweep", str(corridor_file), "--rho", "5",
                "--splits-list", "1,2", "--eps-list", "0.3", "--out", str(out),
            ])
            assert code == EXIT_OK
            outs.append(read_rows(out))
        wall_column = SWEEP_COLUMNS.index("wall_seconds")
        for row_a, row_b in zip(*outs):
            masked_a = [v for i, v in enumerate(row_a) if i != wall_column]
            masked_b = [v for i, v in enumerate(row_b) if i != wall_column]
            assert masked_a == masked_b

    def test_non_finite_eps_rejected(self, corridor_file, capsys):
        assert main(["sweep", str(corridor_file), "--splits-list", "1", "--eps-list", "nan"]) == EXIT_INPUT
        assert "eps must be finite and > 0" in capsys.readouterr().err

    def test_bad_repeats(self, corridor_file, capsys):
        assert main(["sweep", str(corridor_file), "--repeats", "0"]) == EXIT_INPUT


class TestBench:
    def test_free_scenario_both_planners(self, corridor_file, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "p0.yaml").write_text(CORRIDOR)
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--suite", str(suite), "--planners", "mono,split2",
            "--rho", "5", "--eps", "0.05", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert rows[0] == BENCH_COLUMNS
        assert len(rows) - 1 == 2
        by_planner = {row[1]: row for row in rows[1:]}
        assert set(by_planner) == {"mono", "split2"}
        for row in rows[1:]:
            assert row[4] == "True"
        # convex instance: both planners find the same optimum
        mono_path = float(by_planner["mono"][7])
        split_path = float(by_planner["split2"][7])
        assert split_path == pytest.approx(mono_path, abs=1e-3)
        summary = capsys.readouterr().out
        assert "mono" in summary and "split2" in summary

    def test_forced_timeout_records_failures(self, corridor_file, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "p0.yaml").write_text(CORRIDOR)
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--suite", str(suite), "--planners", "mono,split2",
            "--rho", "5", "--eps", "0.05", "--time-limit", "1e-9", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert len(rows) - 1 == 2
        for row in rows[1:]:
            assert row[4] == "False"

    @pytest.mark.parametrize("limit", ["0", "-1", "nan"])
    def test_time_limit_must_be_positive(self, limit, capsys):
        assert main(["bench", "--time-limit", limit]) == EXIT_INPUT
        assert "--time-limit must be > 0" in capsys.readouterr().err

    def test_empty_suite(self, tmp_path, capsys):
        suite = tmp_path / "empty"
        suite.mkdir()
        assert main(["bench", "--suite", str(suite)]) == EXIT_INPUT
        assert "no scenario files" in capsys.readouterr().err

    def test_unknown_planner_name(self, tmp_path):
        assert main(["bench", "--planners", "warp9"]) == EXIT_INPUT

    def test_bundled_arm_suite(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--planners", "mono,split3", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert len(rows) - 1 == 25 * 2
        successes = {"mono": 0, "split3": 0}
        for row in rows[1:]:
            if row[4] == "True":
                successes[row[1]] += 1
        assert successes["mono"] == 25
        assert successes["split3"] == 25
        summary = capsys.readouterr().out
        assert "25/25" in summary


class TestSolverFlagColumns:
    """Sweep and bench rows carry the report's solver flags, read by column name."""

    @pytest.fixture(autouse=True)
    def flag_every_solve(self, monkeypatch):
        real = admm.solve

        def flagged(problem, options=None):
            return replace(real(problem, options), qp_nonoptimal=1, kkt_fallbacks=2, converged=False)

        monkeypatch.setattr(admm, "solve", flagged)

    def test_sweep_rows_and_lines(self, corridor_file, tmp_path, capsys):
        # one round of 3 segment solves per run
        out = tmp_path / "sweep.csv"
        code = main(["sweep", str(corridor_file), "--splits-list", "2", "--eps-list", "0.3",
                     "--max-iters", "1", "--out", str(out)])
        assert code == EXIT_OK
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [(r["qp_nonoptimal"], r["kkt_fallbacks"], r["nonconverged_segment_solves"]) for r in rows] == [
            ("3", "6", "3")]
        assert "qp_nonoptimal=3 kkt_fallbacks=6 nonconverged_segment_solves=3" in capsys.readouterr().out

    def test_bench_rows(self, corridor_file, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "p0.yaml").write_text(CORRIDOR)
        out = tmp_path / "bench.csv"
        code = main(["bench", "--suite", str(suite), "--planners", "mono,split2", "--max-iters", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        with open(out, newline="") as handle:
            rows = {r["planner"]: r for r in csv.DictReader(handle)}
        flags = {name: (r["qp_nonoptimal"], r["kkt_fallbacks"], r["nonconverged_segment_solves"])
                 for name, r in rows.items()}
        # one solve for mono, one round of 2 segment solves for split2
        assert flags == {"mono": ("1", "2", "1"), "split2": ("2", "4", "2")}


class TestBundledScenarios:
    def test_catalog(self):
        root = bundled_scenario_dir()
        names = {p.name for p in root.glob("*.yaml")}
        assert names == {
            "circle.yaml",
            "circle_blocked.yaml",
            "thin_wall.yaml",
            "corridor_free.yaml",
            "arm_two_link.yaml",
            "arm_three_link.yaml",
        }
        suite = sorted((root / "arm_suite").glob("*.yaml"))
        assert len(suite) == 25
        assert suite[0].name == "prob_00.yaml"
        assert suite[-1].name == "prob_24.yaml"


class TestDefaults:
    @pytest.mark.parametrize("argv", [["solve", "s.yaml"], ["sweep", "s.yaml"], ["bench"]],
                             ids=["solve", "sweep", "bench"])
    def test_no_solver_flags_give_the_config_defaults(self, argv):
        assert _config_from_args(build_parser().parse_args(argv)) == SplitConfig()

    def test_bench_planners_differ_from_the_defaults_in_splits_only(self):
        args = build_parser().parse_args(["bench"])
        for _, num_splits in args.planners:
            assert _config_from_args(args, num_splits=num_splits) == SplitConfig(num_splits=num_splits)


class TestFlagsPerSubcommand:
    """Each subcommand takes only the flags it reads: ``sweep`` gets its split
    counts from ``--splits-list`` and ``bench`` from its planners, and only
    ``solve`` writes a seed into a report."""

    @pytest.mark.parametrize("argv", [
        ["bench", "--splits", "7"],
        ["bench", "--seed", "1"],
        ["sweep", "s.yaml", "--seed", "1"],
        ["sweep", "--splits", "7"],
    ], ids=["bench-splits", "bench-seed", "sweep-seed", "sweep-splits"])
    def test_unread_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert main(argv) == EXIT_INPUT

    def test_solve_reads_splits_and_seed(self, corridor_file, tmp_path):
        args = build_parser().parse_args(["solve", "s.yaml", "--splits", "3", "--seed", "5"])
        assert (args.splits, args.seed) == (3, 5)
        assert _config_from_args(args) == SplitConfig(num_splits=3)
        out = tmp_path / "run.yaml"
        assert main(["solve", str(corridor_file), "--splits", "1", "--rho", "5", "--eps", "1e-2",
                     "--seed", "5", "--out", str(out)]) == EXIT_OK
        doc = yaml.safe_load(out.read_text())
        assert (doc["solver"]["num_splits"], doc["solver"]["seed"]) == (1, 5)
        assert doc["result"]["num_segments"] == 2
