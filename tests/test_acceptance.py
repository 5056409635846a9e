"""End-to-end acceptance battery.

One test per shipping criterion, each with its tolerance and time budget
spelled out inline, so ``pytest -v tests/test_acceptance.py`` reads as a
checklist.  Everything here goes through public entry points; unit-level
coverage lives in the other test modules.
"""

import csv
import math
import time

import numpy as np
import pytest
import yaml

from trajsplit.admm import (
    ConsensusState,
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
from trajsplit.cli import EXIT_COLLISION, bundled_scenario_dir, main
from trajsplit.collision import (
    linearize_collision_constraint,
    min_scenario_clearance,
    pair_distance,
)
from trajsplit.geometry import Circle, signed_distance
from trajsplit.kinematics import forward_kinematics
from trajsplit.model import PlanarArm, Point2D, RobotState, Scenario
from trajsplit.nlp import ConsensusCoupling, build_segment_objective, segment_layout
from trajsplit.scenario_io import load_scenario

from conftest import oracle_signed_distance, random_shape


def bundled(name):
    return bundled_scenario_dir() / name


def translate(shape, delta):
    if isinstance(shape, Circle):
        return Circle(shape.center + delta, shape.radius)
    if hasattr(shape, "point_a"):
        return type(shape)(shape.point_a + delta, shape.point_b + delta, shape.radius)
    return type(shape)(shape.vertices + delta)


def test_criterion_01_split_solutions_match_monolithic():
    # Obstacle-free double integrator: every split count must land on the
    # same trajectory the single-piece solve finds, within 1e-3 per waypoint.
    scenario = load_scenario(bundled("corridor_free.yaml"))
    assert scenario.dynamics_enabled and scenario.dim == 2
    assert scenario.num_waypoints == 30

    reference = run(scenario, SplitConfig(num_splits=0, eps=1e-4))
    assert reference.converged
    ref_positions = reference.trajectory.positions()

    for m in (1, 2, 4):
        cfg = SplitConfig(num_splits=m, rho=5.0, eps=1e-4, max_admm_iterations=100)
        t0 = time.perf_counter()
        report = run(scenario, cfg)
        elapsed = time.perf_counter() - t0
        gap = float(np.abs(report.trajectory.positions() - ref_positions).max())
        assert report.converged, f"M={m} did not converge"
        assert report.residual <= 1e-4
        assert report.iterations <= 100
        assert gap <= 1e-3, f"M={m} differs from monolithic by {gap:.2e}"
        assert elapsed <= 5.0, f"M={m} took {elapsed:.2f}s"


def test_criterion_02_three_waypoint_objectives_term_by_term(rng):
    # Smallest nontrivial split: three waypoints, cut at the middle one.
    # Both generated segment objectives must equal the hand-written sum of
    # velocity cost (half weight on the shared waypoint), the dual linear
    # term, and the quadratic consensus term, checked term by term.
    scenario = Scenario(
        robot=Point2D(),
        obstacles=(),
        start=RobotState.resting((0.0, 0.0)),
        goal=RobotState.resting((2.0, 1.0)),
        num_waypoints=3,
        dt=0.5,
        safety_margin=0.05,
        dynamics_enabled=True,
    )
    assert split_uniform(3, 1) == (1,)
    rho = 3.5
    y1 = rng.normal(size=4)
    y2 = rng.normal(size=4)
    z = rng.normal(size=4)

    cases = [
        # (first, last, coupled local waypoint, dual, full-cost local waypoint)
        (0, 1, 1, y1, 0),
        (1, 2, 0, y2, 1),
    ]
    for first, last, split_local, y, owned_local in cases:
        layout = segment_layout(scenario, first, last)
        couple = ConsensusCoupling(waypoint=split_local, dual=y, target=z)
        f_cost = build_segment_objective(
            scenario, first, last, [ConsensusCoupling(split_local, np.zeros(4), z)], 0.0
        )
        f_dual = build_segment_objective(scenario, first, last, [couple], 0.0)
        f_full = build_segment_objective(scenario, first, last, [couple], rho)
        for _ in range(20):
            x = rng.normal(size=layout.size)
            v_owned = x[layout.velocity_slice(owned_local)]
            v_split = x[layout.velocity_slice(split_local)]
            x_split = x[layout.state_slice(split_local)]
            cost = float(v_owned @ v_owned + 0.5 * v_split @ v_split)
            dual = float(y @ (x_split - z))
            quad = float(0.5 * rho * (x_split - z) @ (x_split - z))
            assert f_cost.value(x) == pytest.approx(cost, abs=1e-12)
            assert f_dual.value(x) - f_cost.value(x) == pytest.approx(dual, abs=1e-12)
            assert f_full.value(x) - f_dual.value(x) == pytest.approx(quad, abs=1e-12)
            assert f_full.value(x) == pytest.approx(cost + dual + quad, abs=1e-12)


def test_criterion_03_scalar_consensus_matches_hand_recursion():
    # Two scalar quadratic pieces tied at one waypoint.  Each segment solve
    # has a closed form, so ten iterations can be written out by hand:
    #   q  = (2*s*a - y + rho*z) / (2*s + rho),  s = 1/dt^2
    #   z <- (q + q') / 2,  y <- y + rho*(q - z)
    a, b, dt, rho = 0.0, 2.0, 0.5, 2.0
    scenario = Scenario(
        robot=PlanarArm(link_lengths=(1.0,), link_radius=0.01),
        obstacles=(),
        start=RobotState.resting((a,)),
        goal=RobotState.resting((b,)),
        num_waypoints=3,
        dt=dt,
        safety_margin=0.0,
        dynamics_enabled=False,
    )
    s = 1.0 / (dt * dt)
    z = 0.5 * (a + b)
    y_left = y_right = 0.0
    z_hand = []
    residual_hand = []
    for _ in range(10):
        q = (2.0 * s * a - y_left + rho * z) / (2.0 * s + rho)
        qp = (2.0 * s * b - y_right + rho * z) / (2.0 * s + rho)
        z = 0.5 * (q + qp)
        y_left += rho * (q - z)
        y_right += rho * (qp - z)
        z_hand.append(z)
        residual_hand.append(abs(q - qp))
    for k in range(1, 11):
        cfg = SplitConfig(num_splits=1, rho=rho, eps=1e-300, max_admm_iterations=k)
        report = run(scenario, cfg)
        assert report.iterations == k
        assert report.trajectory.positions()[1, 0] == pytest.approx(z_hand[k - 1], abs=1e-10)
        np.testing.assert_allclose(report.residual_history, residual_hand[:k], atol=1e-10)


def test_criterion_04_blocked_circle_solved_collision_free():
    # Start and goal on opposite sides of a disc that blocks the straight
    # line.  The assembled trajectory must clear it at 5 samples per edge.
    scenario = load_scenario(bundled("circle_blocked.yaml"))
    cfg = SplitConfig(
        num_splits=2, rho=2.0, eps=0.05, max_admm_iterations=200, samples_per_edge=5
    )
    t0 = time.perf_counter()
    report = run(scenario, cfg)
    elapsed = time.perf_counter() - t0
    assert report.converged
    assert report.residual <= 0.05
    assert report.collision_free
    assert report.iterations <= 200
    assert elapsed <= 10.0, f"took {elapsed:.2f}s"


def test_criterion_05_signed_distance_engine(rng):
    t0 = time.perf_counter()
    for _ in range(500):
        a, b = random_shape(rng), random_shape(rng)
        result = signed_distance(a, b)
        assert result.value == pytest.approx(oracle_signed_distance(a, b), abs=1e-3)
        assert signed_distance(b, a).value == pytest.approx(result.value, abs=1e-9)
        shift = rng.uniform(-4.0, 4.0, size=2)
        moved = signed_distance(translate(a, shift), translate(b, shift))
        assert moved.value == pytest.approx(result.value, abs=1e-9)
    for _ in range(100):
        ca, cb = rng.uniform(-5.0, 5.0, 2), rng.uniform(-5.0, 5.0, 2)
        ra, rb = float(rng.uniform(0.01, 3.0)), float(rng.uniform(0.01, 3.0))
        exact = float(np.linalg.norm(ca - cb) - ra - rb)
        got = signed_distance(Circle(ca, ra), Circle(cb, rb)).value
        assert got == pytest.approx(exact, abs=1e-12)
    assert time.perf_counter() - t0 <= 30.0


def test_criterion_06_collision_gradients_match_finite_differences(rng):
    # The convexified rows use the witness-pair gradient; it must match
    # central differences of the true minimum clearance.  Configurations
    # where the witness is about to switch (closest point at a capsule end,
    # or a near-tie between pairs) are excluded: the minimum is not
    # differentiable there and neither side is wrong.
    obstacles = (Circle((1.1, 0.9), 0.3), Circle((-0.8, -0.9), 0.25))
    scenario = Scenario(
        robot=PlanarArm(link_lengths=(1.0, 0.8), link_radius=0.05),
        obstacles=obstacles,
        start=RobotState.resting((0.0, 0.0)),
        goal=RobotState.resting((0.5, 0.5)),
        num_waypoints=5,
        dt=0.1,
        safety_margin=0.03,
    )
    arm = scenario.robot
    pairs = [(k, j) for k in range(2) for j in range(2)]
    accepted = 0
    step = 1e-6
    while accepted < 100:
        q = rng.uniform(-math.pi, math.pi, size=2)
        distances = sorted(
            (pair_distance(scenario, q, k, j).value, (k, j)) for k, j in pairs
        )
        (best, (link, obs)), (second, _) = distances[0], distances[1]
        if best < 1e-2 or second - best < 1e-3:
            continue
        pose = forward_kinematics(arm, q)[link]
        axis = pose.endpoint - pose.origin
        t = float(
            np.dot(np.asarray(obstacles[obs].center) - pose.origin, axis)
            / np.dot(axis, axis)
        )
        if min(abs(t), abs(t - 1.0)) < 1e-3:
            continue
        accepted += 1

        lin = linearize_collision_constraint(scenario, RobotState.resting(q), (link, obs))
        fd = np.zeros(2)
        for j in range(2):
            hi, lo = q.copy(), q.copy()
            hi[j] += step
            lo[j] -= step
            fd[j] = (
                min_scenario_clearance(scenario, RobotState.resting(hi))
                - min_scenario_clearance(scenario, RobotState.resting(lo))
            ) / (2.0 * step)
        scale = max(1.0, float(np.abs(fd).max()))
        assert np.abs(lin.gradient - fd).max() / scale <= 1e-4


def test_criterion_07_sweep_trends(tmp_path):
    # Looser tolerance stops earlier; more pieces never shorten the path.
    out = tmp_path / "sweep.csv"
    t0 = time.perf_counter()
    code = main(
        [
            "sweep",
            str(bundled("arm_two_link.yaml")),
            "--splits-list", "1,2,4",
            "--eps-list", "0.05,0.1,0.17,0.26",
            "--repeats", "1",
            "--out", str(out),
        ]
    )
    elapsed = time.perf_counter() - t0
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    cells = {
        (int(r["splits"]), float(r["eps"])): (int(r["iterations"]), float(r["path_length"]))
        for r in rows
    }
    eps_grid = (0.05, 0.1, 0.17, 0.26)
    for m in (1, 2, 4):
        iters = [cells[(m, e)][0] for e in eps_grid]
        assert all(a >= b for a, b in zip(iters, iters[1:])), (m, iters)
    for e in eps_grid:
        lengths = [cells[(m, e)][1] for m in (1, 2, 4)]
        assert all(a <= b + 1e-12 for a, b in zip(lengths, lengths[1:])), (e, lengths)
    assert elapsed <= 120.0, f"sweep took {elapsed:.1f}s"


def test_criterion_08_determinism(tmp_path):
    # Wall-clock fields are measurements, not solver outputs; everything
    # else in the report must match bit for bit between repeated runs.
    def strip_seconds(node):
        if isinstance(node, dict):
            return {
                k: strip_seconds(v) for k, v in node.items() if "seconds" not in k
            }
        if isinstance(node, list):
            return [strip_seconds(v) for v in node]
        return node

    reports = []
    curves = []
    for name in ("one", "two"):
        out = tmp_path / f"{name}.yaml"
        code = main(
            [
                "solve", str(bundled("circle.yaml")),
                "--splits", "2", "--seed", "42",
                "--out", str(out),
            ]
        )
        assert code == 0
        reports.append(strip_seconds(yaml.safe_load(out.read_text())))
        with (tmp_path / f"{name}.iters.csv").open() as fh:
            curves.append([(r["iteration"], r["residual"]) for r in csv.DictReader(fh)])
    assert reports[0] == reports[1]
    assert curves[0] == curves[1]


def test_criterion_09_thin_wall_collision_reported():
    # A tolerance loose enough to accept a split gap straddling the wall
    # must surface as the collision exit code, not as success.
    code = main(["solve", str(bundled("thin_wall.yaml")), "--splits", "2", "--eps", "0.5"])
    assert code == EXIT_COLLISION


def test_criterion_10_dual_pairs_stay_balanced():
    # Each split's two duals start at zero and receive exactly opposite
    # corrections, so their sum must hold at zero through every iteration.
    configs = [
        ("corridor_free.yaml", SplitConfig(num_splits=1, rho=5.0, eps=1e-4)),
        ("corridor_free.yaml", SplitConfig(num_splits=2, rho=5.0, eps=1e-4)),
        ("corridor_free.yaml", SplitConfig(num_splits=4, rho=5.0, eps=1e-4)),
        ("circle_blocked.yaml", SplitConfig(num_splits=2, rho=2.0, eps=0.05,
                                            max_admm_iterations=200)),
    ]
    for name, cfg in configs:
        scenario = load_scenario(bundled(name))
        splits = split_uniform(scenario.num_waypoints, cfg.num_splits)
        x_full = initial_point(scenario)
        layout = segment_layout(scenario, 0, scenario.num_waypoints - 1)
        segments = build_segments(scenario, splits, x_full)
        consensus = ConsensusState.initial(
            splits, [x_full[layout.state_slice(s)] for s in splits], layout.state_dim
        )
        assert consensus.imbalance() == 0.0
        residual = math.inf
        for _ in range(cfg.max_admm_iterations):
            primal_update(scenario, segments, consensus, cfg)
            consensus_update(segments, consensus, cfg.rho)
            assert consensus.imbalance() <= 1e-12, name
            residual = splitting_residual(segments, scenario)
            if residual <= cfg.eps:
                break
        assert residual <= cfg.eps, f"{name} manual loop did not converge"
        assemble_trajectory(scenario, segments, consensus)
