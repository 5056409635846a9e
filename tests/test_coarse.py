"""The coarse level of long split runs: a quarter-length split run of the
same problem whose scaled final duals start the fine run."""

import os
from dataclasses import replace

import numpy as np
import pytest

from trajsplit import admm
from trajsplit.admm import SplitConfig, coarse_scenario, fine_duals, run
from trajsplit.cli import EXIT_OK, bundled_scenario_dir, main
from trajsplit.scenario_io import load_scenario, report_to_dict, save_scenario

HORIZON = {"circle_blocked.yaml": 9.75, "arm_three_link.yaml": 5.8}
POINT = SplitConfig(num_splits=3, rho=2.0, eps=0.05)  # split4, as in the point-horizon benchmark


def stretched(name, n):
    """A bundled scenario at ``n`` waypoints over its own horizon."""
    return replace(load_scenario(bundled_scenario_dir() / name), num_waypoints=n, dt=HORIZON[name] / (n - 1))


def levels(monkeypatch) -> list:
    """Spy on admm.initial_point: the waypoint count of each level a run solves."""
    seen = []
    real = admm.initial_point

    def recording(scenario):
        seen.append(scenario.num_waypoints)
        return real(scenario)

    monkeypatch.setattr(admm, "initial_point", recording)
    return seen


def record_rounds(monkeypatch) -> list:
    """Spy on admm.primal_update: (scenario, consensus, duals and targets as
    sent) per call."""
    calls = []
    real = admm.primal_update

    def recording(scenario, segments, consensus, *args):
        sent = (consensus.dual_end.copy(), consensus.dual_start.copy(), consensus.targets.copy())
        calls.append((scenario, consensus, sent))
        return real(scenario, segments, consensus, *args)

    monkeypatch.setattr(admm, "primal_update", recording)
    return calls


@pytest.mark.parametrize("n, num_splits, coarse", [
    (160, 0, None),  # mono
    (79, 3, None),  # 79 // 4 = 19 waypoints: too short
    (80, 18, 20),
    (80, 19, None),  # 20 waypoints cannot hold 19 splits
    (160, 7, 40),
    (640, 3, 160),
    (161, 3, 40),
])
def test_coarse_grid(n, num_splits, coarse):
    scenario = stretched("circle_blocked.yaml", n)
    grid = coarse_scenario(scenario, num_splits)
    if coarse is None:
        assert grid is None
        return
    assert grid.num_waypoints == coarse
    # the same horizon, world, robot and boundary states on the coarser grid
    assert grid.dt * (coarse - 1) == pytest.approx(scenario.dt * (n - 1), rel=1e-15)
    assert replace(grid, num_waypoints=n, dt=scenario.dt) == scenario


def test_long_runs_recurse_to_the_shortest_grid():
    scenario = stretched("circle_blocked.yaml", 640)
    grids = [scenario]
    while (grid := coarse_scenario(grids[-1], 3)) is not None:
        grids.append(grid)
    assert [g.num_waypoints for g in grids] == [640, 160, 40]


@pytest.mark.parametrize("n, config", [
    (160, SplitConfig(num_splits=0)),
    (79, POINT),
    (80, SplitConfig(num_splits=19, rho=2.0, eps=0.05, max_admm_iterations=2)),
], ids=["mono", "short", "too-many-splits"])
def test_no_coarse_run(monkeypatch, n, config):
    seen = levels(monkeypatch)
    report = run(stretched("circle_blocked.yaml", n), config)
    assert seen == [n]
    assert (report.coarse_waypoints, report.coarse_rounds) == (0, 0)
    assert not report.coarse_converged and not report.coarse_collision_free


def test_long_split_run_converges_in_few_rounds(monkeypatch):
    seen = levels(monkeypatch)
    report = run(stretched("circle_blocked.yaml", 160), POINT)
    assert seen == [40, 160]
    assert report.converged and report.collision_free
    assert report.iterations <= 10
    assert len(report.residual_history) == len(report.iteration_seconds) == report.iterations
    assert report.coarse_waypoints == 40
    assert report.coarse_rounds >= 1
    assert report.coarse_converged and report.coarse_collision_free
    # wall time and the solve counters cover both levels
    assert report.wall_seconds_total >= report.wall_seconds_primal + report.wall_seconds_consensus
    assert report.factorizations > 0


@pytest.mark.parametrize("name, n, config", [
    ("circle_blocked.yaml", 160, POINT),
    ("arm_three_link.yaml", 120, SplitConfig(num_splits=2)),
], ids=["dynamics", "path-only"])
def test_duals_hand_off_scaled_by_the_step_ratio(monkeypatch, one_cpu, name, n, config):
    fine = stretched(name, n)
    calls = record_rounds(monkeypatch)
    run(fine, config)
    coarse_calls = [c for c in calls if c[0].num_waypoints < n]
    fine_calls = [c for c in calls if c[0] is fine]
    assert [c[0] is fine for c in calls] == [False] * len(coarse_calls) + [True] * len(fine_calls)
    coarse, final = coarse_calls[-1][0], coarse_calls[-1][1]
    ratio = (n - 1) / (coarse.num_waypoints - 1)
    d, sd = fine.dim, 2 * fine.dim if fine.dynamics_enabled else fine.dim
    dual_end, dual_start, targets = fine_calls[0][2]
    for coarse_dual, sent in ((final.dual_end, dual_end), (final.dual_start, dual_start)):
        assert sent.shape == (config.num_splits, sd)
        assert np.any(coarse_dual[:, :d] != 0.0)
        np.testing.assert_allclose(sent[:, :d], ratio * coarse_dual[:, :d], rtol=1e-14, atol=0.0)
        # velocities as they are; in path-only mode a state is its position
        np.testing.assert_array_equal(sent[:, d:], coarse_dual[:, d:])
    # the targets still come from the fine initial point
    x = admm.initial_point(fine)
    splits = admm.split_uniform(n, config.num_splits)
    np.testing.assert_array_equal(targets, [x[s * sd : (s + 1) * sd] for s in splits])


def test_fine_duals_scales_positions_only():
    dual = np.arange(12.0).reshape(3, 4)
    out = fine_duals(dual, 2, 4.0)
    np.testing.assert_array_equal(out[:, :2], 4.0 * dual[:, :2])
    np.testing.assert_array_equal(out[:, 2:], dual[:, 2:])
    np.testing.assert_array_equal(dual, np.arange(12.0).reshape(3, 4))  # a copy
    np.testing.assert_array_equal(fine_duals(dual[:, :2], 2, 4.0), 4.0 * dual[:, :2])


def test_zero_deadline_stops_both_levels():
    report = run(stretched("circle_blocked.yaml", 160), POINT, deadline_seconds=0.0)
    assert report.deadline_reached
    assert not report.converged
    assert (report.iterations, report.coarse_waypoints, report.coarse_rounds) == (1, 40, 1)
    assert not report.coarse_converged


def test_worker_and_one_cpu_give_the_same_outcome(monkeypatch, two_cpus):
    scenario = stretched("circle_blocked.yaml", 160)
    pooled = run(scenario, POINT)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    alone = run(scenario, POINT)
    np.testing.assert_array_equal(pooled.trajectory.positions(), alone.trajectory.positions())
    np.testing.assert_array_equal(pooled.trajectory.velocities(), alone.trajectory.velocities())
    assert pooled.objective == alone.objective
    assert pooled.residual_history == alone.residual_history
    for field in ("converged", "collision_free", "iterations", "nonconverged_segment_solves", "qp_nonoptimal",
                  "kkt_fallbacks", "failed_segments", "coarse_waypoints", "coarse_rounds", "coarse_converged",
                  "coarse_collision_free"):
        assert getattr(pooled, field) == getattr(alone, field), field


def test_report_and_cli_show_the_coarse_level(tmp_path, capsys):
    scenario = stretched("circle_blocked.yaml", 160)
    result = report_to_dict(run(scenario, POINT), "s.yaml", POINT)["result"]
    assert result["coarse_waypoints"] == 40
    assert result["coarse_rounds"] >= 1
    assert result["coarse_converged"] is True and result["coarse_collision_free"] is True
    path = tmp_path / "long.yaml"
    save_scenario(scenario, path)
    assert main(["solve", str(path), "--splits", "3", "--rho", "2", "--eps", "0.05"]) == EXIT_OK
    out = capsys.readouterr().out
    assert f"coarse_waypoints: 40  coarse_rounds: {result['coarse_rounds']}  coarse_converged: True" in out
    assert main(["solve", str(path), "--splits", "0"]) != EXIT_OK  # mono N=160 grazes the disc between waypoints
    assert "coarse_waypoints: 0  coarse_rounds: 0  coarse_converged: False" in capsys.readouterr().out
