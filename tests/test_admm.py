"""Consensus splitting: segment bookkeeping, the update rules, full runs."""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from trajsplit import admm, nlp
from trajsplit.admm import (
    ConsensusState,
    SolveReport,
    SplitConfig,
    assemble_trajectory,
    build_segments,
    consensus_update,
    initial_point,
    primal_update,
    run,
    split_uniform,
    splitting_residual,
)
from trajsplit.errors import ConfigError
from trajsplit.model import PlanarArm, Point2D, RobotState, Scenario
from trajsplit.nlp import (
    SolverOptions,
    convexify_segment,
    segment_equalities,
    segment_layout,
    solve,
)

from conftest import cold_circle, stretched


def corridor(n=10, dt=0.25, margin=0.05):
    return Scenario(
        robot=Point2D(),
        obstacles=(),
        start=RobotState.resting((0.0, 0.0)),
        goal=RobotState.resting((2.0, 1.0)),
        num_waypoints=n,
        dt=dt,
        safety_margin=margin,
    )


def scalar_path_scenario(a, b, n=3, dt=0.5):
    # 1-link arm in path-only mode: one decision scalar per waypoint.
    return Scenario(
        robot=PlanarArm(link_lengths=(1.0,), link_radius=0.01),
        obstacles=(),
        start=RobotState.resting((a,)),
        goal=RobotState.resting((b,)),
        num_waypoints=n,
        dt=dt,
        safety_margin=0.0,
        dynamics_enabled=False,
    )


def make_split_pair(left_end, right_start):
    """Two path-mode segments around one split, iterates set by hand."""
    left_end = np.atleast_1d(np.asarray(left_end, dtype=float))
    dim = left_end.shape[0]
    if dim == 1:
        scenario = scalar_path_scenario(0.0, 0.0)
    else:
        scenario = Scenario(
            robot=Point2D(), obstacles=(),
            start=RobotState.resting(np.zeros(dim)), goal=RobotState.resting(np.zeros(dim)),
            num_waypoints=3, dt=0.5, safety_margin=0.0, dynamics_enabled=False,
        )
    x0 = initial_point(scenario)
    segments = build_segments(scenario, (1,), x0)
    layout = segment_layout(scenario, 0, 2)
    segments[0].x = segments[0].x.copy()
    segments[1].x = segments[1].x.copy()
    segments[0].x[segments[0].layout.state_slice(1)] = left_end
    segments[1].x[segments[1].layout.state_slice(0)] = np.asarray(right_start, dtype=float)
    consensus = ConsensusState.initial((1,), [x0[layout.state_slice(1)]], layout.state_dim)
    return scenario, segments, consensus


class TestSplitUniform:
    def test_nine_waypoints_two_splits(self):
        assert split_uniform(9, 2) == (3, 5)

    def test_three_waypoints_one_split(self):
        assert split_uniform(3, 1) == (1,)

    def test_no_splits(self):
        assert split_uniform(7, 0) == ()

    def test_too_many_splits(self):
        with pytest.raises(ConfigError):
            split_uniform(5, 4)
        with pytest.raises(ConfigError):
            split_uniform(3, 2)

    def test_negative_splits(self):
        with pytest.raises(ConfigError):
            split_uniform(5, -1)

    def test_indices_interior_distinct_balanced(self):
        for n in (5, 9, 14, 30, 31):
            for m in range(0, min(n - 2, 6) + 1):
                splits = split_uniform(n, m)
                assert len(splits) == m
                assert len(set(splits)) == m
                assert all(0 < s < n - 1 for s in splits)
                edges = [0, *splits, n - 1]
                lengths = np.diff(edges)
                assert lengths.max() - lengths.min() <= 1


class TestSplitConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SplitConfig(num_splits=-1)
        with pytest.raises(ConfigError):
            SplitConfig(rho=0.0)
        with pytest.raises(ConfigError):
            SplitConfig(eps=0.0)
        with pytest.raises(ConfigError):
            SplitConfig(max_admm_iterations=0)
        with pytest.raises(ConfigError):
            SplitConfig(samples_per_edge=-1)

    @pytest.mark.parametrize("name", ["rho", "eps"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            SplitConfig(**{name: value})

    def test_defaults(self):
        cfg = SplitConfig()
        assert cfg.num_splits == 2
        assert cfg.rho == 50.0
        assert cfg.eps == pytest.approx(0.1745)
        assert cfg.max_admm_iterations == 100


class TestBuildSegments:
    def test_ranges_overlap_at_splits(self):
        scenario = corridor(n=9)
        x0 = initial_point(scenario)
        segments = build_segments(scenario, (3, 5), x0)
        assert [(s.first, s.last) for s in segments] == [(0, 3), (3, 5), (5, 8)]

    def test_slices_copy_the_seed(self):
        scenario = corridor(n=9)
        x0 = initial_point(scenario)
        full = segment_layout(scenario, 0, 8)
        segments = build_segments(scenario, (3, 5), x0)
        for seg in segments:
            want = x0[full.state_slice(seg.first).start : full.state_slice(seg.last).stop]
            np.testing.assert_allclose(seg.x, want, atol=0.0)
        segments[0].x[0] = 99.0
        assert x0[0] != 99.0


class TestConsensusUpdate:
    def test_average_and_dual_steps(self):
        scenario, segments, consensus = make_split_pair([1.0], [3.0])
        consensus_update(segments, consensus, rho=2.0)
        assert consensus.targets[0, 0] == pytest.approx(2.0, abs=0.0)
        assert consensus.dual_end[0, 0] == pytest.approx(-2.0, abs=0.0)
        assert consensus.dual_start[0, 0] == pytest.approx(2.0, abs=0.0)

    def test_equal_pair_leaves_duals(self):
        scenario, segments, consensus = make_split_pair([1.7], [1.7])
        consensus_update(segments, consensus, rho=3.0)
        assert consensus.targets[0, 0] == pytest.approx(1.7, abs=0.0)
        assert consensus.dual_end[0, 0] == 0.0
        assert consensus.dual_start[0, 0] == 0.0

    def test_dual_sum_exactly_zero(self, rng):
        scenario, segments, consensus = make_split_pair(
            rng.normal(size=2), rng.normal(size=2)
        )
        for _ in range(7):
            segments[0].x[segments[0].layout.state_slice(1)] = rng.normal(size=2)
            segments[1].x[segments[1].layout.state_slice(0)] = rng.normal(size=2)
            consensus_update(segments, consensus, rho=3.3)
            assert consensus.imbalance() == 0.0
            np.testing.assert_array_equal(
                consensus.dual_end + consensus.dual_start, np.zeros_like(consensus.dual_end)
            )


class TestSplittingResidual:
    def test_zero_when_pairs_agree(self):
        scenario, segments, _ = make_split_pair([0.4, -0.2], [0.4, -0.2])
        assert splitting_residual(segments, scenario) == 0.0

    def test_single_gap(self):
        scenario, segments, _ = make_split_pair([0.3, 0.4], [0.0, 0.0])
        assert splitting_residual(segments, scenario) == pytest.approx(0.5, abs=1e-15)

    def test_two_gaps(self):
        scenario = corridor(n=9)
        x0 = initial_point(scenario)
        segments = build_segments(scenario, (3, 5), x0)
        d = scenario.dim
        for seg_left, seg_right in ((segments[0], segments[1]), (segments[1], segments[2])):
            sl = seg_left.layout.state_slice(seg_left.layout.count - 1)
            sr = seg_right.layout.state_slice(0)
            base = seg_right.x[sr][:d].copy()
            seg_left.x = seg_left.x.copy()
            seg_left.x[sl][:d] = base + np.array([0.1, 0.0])
        got = splitting_residual(segments, scenario)
        assert got == pytest.approx(np.sqrt(0.02) / 2.0, abs=1e-12)

    def test_velocity_gap_ignored(self):
        # Residual is measured on positions; disagreeing velocities are the
        # consensus variables' business, not the stopping rule's.
        scenario = corridor(n=4)
        x0 = initial_point(scenario)
        segments = build_segments(scenario, (1,), x0)
        left = segments[0]
        sl = left.layout.state_slice(left.layout.count - 1)
        right_state = segments[1].x[segments[1].layout.state_slice(0)]
        patched = right_state.copy()
        patched[2:] += 5.0
        left.x = left.x.copy()
        left.x[sl] = patched
        assert splitting_residual(segments, scenario) == 0.0

    def test_monolithic_zero(self):
        scenario = corridor(n=5)
        segments = build_segments(scenario, (), initial_point(scenario))
        assert splitting_residual(segments, scenario) == 0.0


class TestPrimalUpdate:
    def test_monolithic_equals_direct_solve(self):
        scenario = corridor(n=6)
        x0 = initial_point(scenario)
        segments = build_segments(scenario, (), x0)
        consensus = ConsensusState.initial((), [], segment_layout(scenario, 0, 5).state_dim)
        solutions = primal_update(scenario, segments, consensus, SplitConfig(num_splits=0))
        assert len(solutions) == 1
        direct = solve(convexify_segment(scenario, 0, 5, x0), SolverOptions())
        np.testing.assert_array_equal(solutions[0].point, direct.point)

    def test_nonconverged_segment_still_advances(self):
        scenario = corridor(n=8)
        cfg = SplitConfig(num_splits=1, rho=5.0, nlp_options=SolverOptions(max_outer_iterations=1))
        x0 = initial_point(scenario)
        segments = build_segments(scenario, split_uniform(8, 1), x0)
        layout = segment_layout(scenario, 0, 7)
        consensus = ConsensusState.initial(
            (3,), [x0[layout.state_slice(3)]], layout.state_dim
        )
        before = [seg.x.copy() for seg in segments]
        solutions = primal_update(scenario, segments, consensus, cfg)
        assert any(not s.converged for s in solutions)
        for seg, old in zip(segments, before):
            assert seg.last_solution is not None
            assert not np.array_equal(seg.x, old)


class TestScalarToyRecursion:
    def hand_recursion(self, a, b, dt, rho, iterations):
        # One scalar split waypoint between pinned endpoints, path-mode cost
        # (q1-q0)^2/dt^2 per edge: each segment solve is a 1D quadratic with
        # a closed form, followed by the averaging and dual steps.
        s = 1.0 / (dt * dt)
        z = 0.5 * (a + b)
        y_left = 0.0
        y_right = 0.0
        history = []
        for _ in range(iterations):
            q1 = (2.0 * s * a - y_left + rho * z) / (2.0 * s + rho)
            q1p = (2.0 * s * b - y_right + rho * z) / (2.0 * s + rho)
            z = 0.5 * (q1 + q1p)
            y_left += rho * (q1 - z)
            y_right += rho * (q1p - z)
            history.append(abs(q1 - q1p))
        return z, history

    def test_matches_hand_iterates(self):
        a, b, dt, rho = 0.0, 2.0, 0.5, 2.0
        for k in (1, 2, 5, 9):
            scenario = scalar_path_scenario(a, b, n=3, dt=dt)
            cfg = SplitConfig(num_splits=1, rho=rho, eps=1e-300, max_admm_iterations=k)
            report = run(scenario, cfg)
            z_want, res_want = self.hand_recursion(a, b, dt, rho, k)
            assert report.iterations == k
            assert report.trajectory.positions()[1, 0] == pytest.approx(z_want, abs=1e-10)
            np.testing.assert_allclose(report.residual_history, res_want, atol=1e-10)

    def test_residual_decays_geometrically(self):
        a, b, dt, rho = 0.0, 2.0, 0.5, 2.0
        scenario = scalar_path_scenario(a, b, n=3, dt=dt)
        cfg = SplitConfig(num_splits=1, rho=rho, eps=1e-300, max_admm_iterations=12)
        report = run(scenario, cfg)
        h = report.residual_history
        # contraction factor 2s/(2s+rho) with s = 1/dt^2
        want = (2.0 / (dt * dt)) / (2.0 / (dt * dt) + rho)
        for i in range(1, len(h)):
            assert h[i] / h[i - 1] == pytest.approx(want, abs=1e-6)


class TestRun:
    def test_monolithic_matches_split_free_solution(self):
        scenario = corridor()
        cfg = SplitConfig(num_splits=0, eps=1e-6)
        report = run(scenario, cfg)
        assert report.converged
        assert report.num_segments == 1
        assert report.residual == 0.0
        direct = solve(convexify_segment(scenario, 0, 9, initial_point(scenario)), SolverOptions())
        layout = segment_layout(scenario, 0, 9)
        np.testing.assert_array_equal(
            report.trajectory.positions()[1:-1], layout.positions(direct.point)[1:-1]
        )

    def test_split_run_converges_near_monolithic(self):
        scenario = corridor()
        mono = run(scenario, SplitConfig(num_splits=0, eps=1e-6))
        split = run(scenario, SplitConfig(num_splits=2, rho=5.0, eps=1e-4, max_admm_iterations=300))
        assert split.converged
        assert split.residual <= 1e-4
        gap = np.abs(split.trajectory.positions() - mono.trajectory.positions()).max()
        assert gap <= 1e-3

    def test_split_run_projects_segment_rows_only(self, monkeypatch):
        # each segment solve projects its own start onto its own rows and no
        # projection spans the whole trajectory; the segments include the
        # coarse level's one mono solve (40 waypoints, the largest here)
        scenario = stretched("circle_blocked.yaml", 160)
        config = SplitConfig(num_splits=7, rho=2.0, eps=0.05)
        projected = []
        real = nlp.project_to_affine

        def recording(x, a_eq, b_eq, stats=None):
            point = real(x, a_eq, b_eq, stats)
            projected.append((a_eq.shape[0], float(np.max(np.abs(a_eq @ point - b_eq)))))
            return point

        for name, module in list(sys.modules.items()):  # wherever a module of the package holds it
            if name.startswith("trajsplit") and getattr(module, "project_to_affine", None) is real:
                monkeypatch.setattr(module, "project_to_affine", recording)
        report = run(scenario, config)
        coarse = admm.coarse_scenario(scenario, config.num_splits)
        edges = [0, *report.split_indices, scenario.num_waypoints - 1]
        blocks = [(coarse, 0, coarse.num_waypoints - 1)]
        blocks += [(scenario, a, b) for a, b in zip(edges, edges[1:])]
        largest = max(segment_equalities(*block)[0].shape[0] for block in blocks)
        assert projected and largest < segment_equalities(scenario, 0, scenario.num_waypoints - 1)[0].shape[0]
        assert max(rows for rows, _ in projected) <= largest
        assert max(gap for _, gap in projected) <= 1e-12

    def test_boundary_pinning_exact(self):
        scenario = corridor()
        report = run(scenario, SplitConfig(num_splits=2, rho=5.0, eps=1e-2))
        np.testing.assert_array_equal(report.trajectory.positions()[0], scenario.start.position)
        np.testing.assert_array_equal(report.trajectory.positions()[-1], scenario.goal.position)
        np.testing.assert_array_equal(report.trajectory.velocities()[0], scenario.start.velocity)
        np.testing.assert_array_equal(report.trajectory.velocities()[-1], scenario.goal.velocity)

    def test_termination_at_iteration_cap(self):
        scenario = corridor()
        report = run(scenario, SplitConfig(num_splits=2, rho=5.0, eps=1e-300, max_admm_iterations=4))
        assert report.iterations == 4
        assert not report.converged
        assert len(report.residual_history) == 4

    def test_converged_requires_residual_below_eps(self):
        scenario = corridor()
        report = run(scenario, SplitConfig(num_splits=2, rho=5.0, eps=1e-3, max_admm_iterations=300))
        assert report.converged
        assert report.residual <= 1e-3
        assert report.residual_history[-1] == report.residual

    def test_split_jump_bounded_by_residual(self):
        # Stop early on purpose; assembled splits sit at the pair midpoints,
        # half a gap from either side, and every gap is at most r*M.
        scenario = corridor(n=12)
        cfg = SplitConfig(num_splits=2, rho=5.0, eps=0.2, max_admm_iterations=100)
        report = run(scenario, cfg)
        r = report.residual
        assert r > 0.0
        pos = report.trajectory.positions()
        m = len(report.split_indices)
        for s in report.split_indices:
            jump_in = np.linalg.norm(pos[s] - pos[s - 1])
            jump_out = np.linalg.norm(pos[s + 1] - pos[s])
            assert jump_in <= np.linalg.norm(pos[s + 1] - pos[s - 1]) + r * m
            assert jump_out <= np.linalg.norm(pos[s + 1] - pos[s - 1]) + r * m

    def test_eps_sweep_iterations_non_increasing(self):
        scenario = corridor()
        counts = []
        for eps in (1e-4, 1e-3, 1e-2, 1e-1):
            report = run(scenario, SplitConfig(num_splits=2, rho=5.0, eps=eps, max_admm_iterations=300))
            assert report.converged
            counts.append(report.iterations)
        assert counts == sorted(counts, reverse=True)

    def test_dual_imbalance_zero(self):
        scenario = corridor()
        report = run(scenario, SplitConfig(num_splits=2, rho=5.0, eps=1e-3, max_admm_iterations=200))
        assert report.dual_imbalance == 0.0

    def test_deadline_stops_run(self):
        scenario = corridor()
        report = run(
            scenario,
            SplitConfig(num_splits=2, rho=5.0, eps=1e-300, max_admm_iterations=500),
            deadline_seconds=0.0,
        )
        assert report.deadline_reached
        assert not report.converged
        assert report.iterations == 1

    def test_nonconverged_segments_marked(self):
        scenario = corridor()
        cfg = SplitConfig(
            num_splits=2, rho=5.0, eps=10.0, max_admm_iterations=3,
            nlp_options=SolverOptions(max_outer_iterations=1),
        )
        report = run(scenario, cfg)
        assert report.nonconverged_segment_solves > 0
        assert not report.segment_solves_converged
        assert not report.converged

    def test_split_run_starts_no_threads(self, monkeypatch):
        # even with two CPUs to use, every segment is solved in this process
        def refuse(self):
            raise AssertionError(f"thread {self.name!r} started")

        def refuse_fork():
            raise AssertionError("a process was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(os, "fork", refuse_fork, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        report = run(corridor(), SplitConfig(num_splits=2, rho=5.0, eps=1e-2))
        assert report.num_segments == 3
        assert report.iterations >= 1

    def test_runs_load_no_multiprocessing(self):
        # a fresh interpreter that sees two CPUs: neither a mono run nor a
        # split run with a coarse level imports multiprocessing
        src = Path(admm.__file__).resolve().parents[1]
        code = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from trajsplit import SplitConfig, run\n"
            "from trajsplit.cli import bundled_scenario_dir\n"
            "from trajsplit.scenario_io import load_scenario\n"
            "scenario = load_scenario(bundled_scenario_dir() / 'circle_blocked.yaml')\n"
            "for splits in (0, 4):\n"
            "    run(scenario, SplitConfig(num_splits=splits, rho=2.0))\n"
            "print('multiprocessing' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_zero_deadline_cuts_every_segment_solve(self):
        scenario = cold_circle()
        # without a deadline, every segment's first solve converges
        free = run(scenario, SplitConfig(num_splits=4, rho=2.0, max_admm_iterations=1))
        assert free.failed_segments == ()
        report = run(scenario, SplitConfig(num_splits=4, rho=2.0), deadline_seconds=0.0)
        assert report.deadline_reached and not report.converged
        assert report.iterations == 1
        # each solve stopped after its first SCP iteration
        assert report.failed_segments == (0, 1, 2, 3, 4)
        assert report.nonconverged_segment_solves == 5


class TestAssembleTrajectory:
    def test_zero_residual_keeps_boundary_states(self):
        scenario, segments, consensus = make_split_pair([0.9], [0.9])
        consensus_update(segments, consensus, rho=2.0)
        traj = assemble_trajectory(scenario, segments, consensus)
        assert traj.positions()[1, 0] == pytest.approx(0.9, abs=0.0)

    def test_monolithic_passthrough(self):
        scenario = corridor(n=5)
        x0 = initial_point(scenario)
        segments = build_segments(scenario, (), x0)
        layout = segment_layout(scenario, 0, 4)
        consensus = ConsensusState.initial((), [], layout.state_dim)
        traj = assemble_trajectory(scenario, segments, consensus)
        np.testing.assert_allclose(traj.positions()[1:-1], layout.positions(x0)[1:-1], atol=0.0)

    def test_split_state_is_consensus_target(self):
        scenario, segments, consensus = make_split_pair([1.0], [3.0])
        consensus_update(segments, consensus, rho=2.0)
        traj = assemble_trajectory(scenario, segments, consensus)
        assert traj.positions()[1, 0] == pytest.approx(2.0, abs=0.0)
