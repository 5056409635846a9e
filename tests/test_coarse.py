"""The coarse level of split runs of 40 or more waypoints: a mono solve of the
same problem on a grid a quarter as long (20 waypoints at least) whose
trajectory gives the fine run's first duals, targets and segment warm starts."""

from dataclasses import replace

import numpy as np
import pytest

from trajsplit import admm
from trajsplit.admm import (
    ConsensusState,
    SplitConfig,
    assemble_trajectory,
    build_segments,
    coarse_scenario,
    consensus_update,
    fine_duals,
    primal_update,
    run,
    split_duals,
    split_uniform,
)
from trajsplit.cli import EXIT_OK, bundled_scenario_dir, main
from trajsplit.scenario_io import load_scenario, report_to_dict, save_scenario

from conftest import stretched

POINT = SplitConfig(num_splits=3, rho=2.0, eps=0.05)  # split4, as in the point-horizon benchmark


def levels(monkeypatch) -> list:
    """Spy on admm.initial_point: the waypoint count of each level a run solves."""
    seen = []
    real = admm.initial_point

    def recording(scenario, *args):
        seen.append(scenario.num_waypoints)
        return real(scenario, *args)

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
    (39, 3, None),  # 20 waypoints are more than half of 39
    (40, 3, 20),
    (79, 3, 20),
    (40, 19, None),  # 20 waypoints cannot hold 19 splits
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


def test_long_runs_solve_one_coarse_level(monkeypatch):
    seen = levels(monkeypatch)
    report = run(stretched("circle_blocked.yaml", 640), replace(POINT, max_admm_iterations=1))
    assert seen == [160, 640]  # the mono level has no coarse level of its own
    assert (report.coarse_waypoints, report.coarse_rounds) == (160, 1)


@pytest.mark.parametrize("n, config", [
    (160, SplitConfig(num_splits=0)),
    (39, POINT),
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
def test_fine_warm_start_is_the_interpolated_coarse_path(monkeypatch, name, n, config):
    fine = stretched(name, n)
    starts = []
    real = admm.build_segments

    def recording(scenario, splits, x_full):
        starts.append((scenario, x_full.copy()))
        return real(scenario, splits, x_full)

    monkeypatch.setattr(admm, "build_segments", recording)
    run(fine, replace(config, max_admm_iterations=1))
    (coarse, _), (scenario, x) = starts
    assert scenario is fine
    # the coarse mono states interpolated in time, not the straight line, and
    # not projected: each segment solve projects its own slice onto its rows
    mono = run(coarse, replace(config, num_splits=0)).trajectory
    u = np.minimum(fine.dt * np.arange(n) / coarse.dt, coarse.num_waypoints - 1.0)
    states = np.hstack([mono.positions(), mono.velocities()]) if fine.dynamics_enabled else mono.positions()
    np.testing.assert_allclose(x.reshape(n, -1), interpolated(states, u), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n, num_splits, rounds, objective", [
    (80, 3, 5, 33.701543569481196),
    (80, 7, 2, 32.95927182728637),
    (160, 3, 3, 63.28570339948635),
    (160, 7, 1, 62.93348438878146),
])
def test_warm_start_keeps_long_runs_outcomes(n, num_splits, rounds, objective):
    """Rounds and objectives of the runs whose segments started from the
    straight line: the coarse path saves work only."""
    report = run(stretched("circle_blocked.yaml", n), replace(POINT, num_splits=num_splits))
    assert report.iterations == rounds
    assert report.objective == pytest.approx(objective, rel=1e-9)
    assert report.converged and report.collision_free


def interpolated(rows, u):
    """``rows`` (one per coarse waypoint index) at fractional indices ``u``."""
    i = np.minimum(np.floor(u).astype(int), len(rows) - 2)
    w = (u - i)[:, None]
    return (1.0 - w) * rows[i] + w * rows[i + 1]


@pytest.mark.parametrize("name, n, config", [
    ("circle_blocked.yaml", 160, POINT),
    ("arm_three_link.yaml", 120, SplitConfig(num_splits=2)),
], ids=["dynamics", "path-only"])
def test_duals_hand_off_scaled_by_the_step_ratio(monkeypatch, name, n, config):
    fine = stretched(name, n)
    calls = record_rounds(monkeypatch)
    run(fine, config)
    coarse = coarse_scenario(fine, config.num_splits)
    # one mono round on the coarse grid, then the fine rounds
    assert calls[0][0] is not fine and calls[0][0].num_waypoints == coarse.num_waypoints
    assert calls[0][1].split_indices == ()
    assert len(calls) > 1 and all(c[0] is fine for c in calls[1:])
    dual_end, dual_start, targets = calls[1][2]

    mono = run(coarse, replace(config, num_splits=0)).trajectory
    dt_c, d = coarse.dt, fine.dim
    q = mono.positions()
    if fine.dynamics_enabled:
        v = mono.velocities()
        closed = np.hstack([-(v[:-2] + v[1:-1]) / dt_c, -v[1:-1]])  # interior waypoints 1..N_c-2
        states = np.hstack([q, v])
    else:
        closed = -(q[2:] - q[:-2]) / dt_c**2
        states = q
    u = fine.dt * np.array(split_uniform(n, config.num_splits)) / dt_c  # fine split times in coarse steps
    expected = interpolated(closed, np.clip(u - 1.0, 0.0, len(closed) - 1.0))
    expected[:, :d] *= dt_c / fine.dt
    assert dual_end.shape == (config.num_splits, states.shape[1])
    assert np.any(expected[:, :d] != 0.0)
    np.testing.assert_allclose(dual_end, expected, rtol=1e-12, atol=1e-12)
    assert np.all(dual_end + dual_start == 0.0)
    np.testing.assert_allclose(targets, interpolated(states, u), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name, splits, rho", [
    ("circle_blocked.yaml", split_uniform(40, 3), 2.0),
    ("corridor_free.yaml", split_uniform(30, 2), 50.0),
    ("arm_three_link.yaml", split_uniform(30, 2), 50.0),
    ("thin_wall.yaml", (7, 14), 50.0),  # mono touches the wall at waypoint 14
], ids=["circle_blocked", "corridor_free", "arm_three_link", "thin_wall-contact"])
def test_closed_form_duals_keep_a_mono_optimum(name, splits, rho):
    """From a converged mono solution and the closed-form duals at its own
    splits, one round of segment solves and averaging changes nothing."""
    scenario = load_scenario(bundled_scenario_dir() / name)
    n, config = scenario.num_waypoints, SplitConfig(num_splits=len(splits), rho=rho)
    mono = run(scenario, SplitConfig(num_splits=0))
    assert mono.converged
    layout = admm.segment_layout(scenario, 0, n - 1)
    x = layout.pack(mono.trajectory.positions(), mono.trajectory.velocities())
    dual_end = split_duals(scenario, mono.trajectory)[np.array(splits) - 1]
    targets = x.reshape(n, layout.state_dim)[list(splits)]
    consensus = ConsensusState(splits, targets, dual_end, -dual_end)
    segments = build_segments(scenario, splits, x)
    primal_update(scenario, segments, consensus, config)
    consensus_update(segments, consensus, config.rho)
    gap = max(np.max(np.abs(a.end_state() - b.start_state())) for a, b in zip(segments, segments[1:]))
    assert gap <= 1e-9
    split = assemble_trajectory(scenario, segments, consensus)
    np.testing.assert_allclose(split.positions(), mono.trajectory.positions(), rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(split.velocities(), mono.trajectory.velocities(), rtol=0.0, atol=1e-9)


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
