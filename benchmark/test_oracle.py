"""Hand-solved cases for the benchmark's independent oracle.

Run with ``python3 -m pytest benchmark/test_oracle.py``.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def seg_poly(a, b, vertices=SQUARE) -> float:
    return float(oracle.segment_polygon_distance(np.array(a, float), np.array(b, float), np.array(vertices)))


def test_point_circle_clearance():
    data = {"robot": {"type": "point2d"}, "obstacles": [{"type": "circle", "center": [0.0, 0.0], "radius": 1.0}]}
    got = oracle.clearance(data, np.array([[3.0, 4.0], [0.5, 0.0]]))
    assert got == pytest.approx([4.0, -0.5])


def test_capsule_circle_clearance():
    # one horizontal link from the origin to (2, 0), radius 0.1
    robot = {"type": "planar_arm", "link_lengths": [2.0], "link_radius": 0.1}
    for center, want in (([1.0, 1.0], 0.4), ([3.0, 0.0], 0.4), ([-1.0, 0.0], 0.4)):
        data = {"robot": robot, "obstacles": [{"type": "circle", "center": center, "radius": 0.5}]}
        assert oracle.clearance(data, np.array([[0.0]]))[0] == pytest.approx(want)


def test_segment_polygon_separated():
    assert seg_poly([2.0, 0.5], [3.0, 0.5]) == pytest.approx(1.0)
    # anti-diagonal x + y = 2.5 passes the corner (1, 1) at distance 0.5 / sqrt 2
    assert seg_poly([2.5, 0.0], [0.0, 2.5]) == pytest.approx(0.5 / math.sqrt(2.0))
    # a polygon vertex is the closest feature to the segment's interior
    assert seg_poly([-1.0, 2.0], [2.0, 2.0]) == pytest.approx(1.0)


def test_segment_polygon_penetration():
    # straight through the middle: pushing up or down by 0.5 separates
    assert seg_poly([-1.0, 0.5], [2.0, 0.5]) == pytest.approx(-0.5)
    # cutting the corner along x + y = 1.5: push out along (1, 1)
    assert seg_poly([1.5, 0.0], [0.0, 1.5]) == pytest.approx(-0.5 / math.sqrt(2.0))
    # a point core inside: the nearest side is 0.25 away
    assert seg_poly([0.25, 0.5], [0.25, 0.5]) == pytest.approx(-0.25)


def test_two_link_arm_kinematics():
    robot = {"type": "planar_arm", "link_lengths": [1.0, 1.0], "link_radius": 0.0,
             "base": {"x": 1.0, "y": 0.0, "angle": 0.0}}
    starts, ends, _ = oracle.link_segments(robot, np.array([[math.pi / 2, -math.pi / 2]]))
    assert np.allclose(starts[0], [[1.0, 0.0], [1.0, 1.0]])
    assert np.allclose(ends[0], [[1.0, 1.0], [2.0, 1.0]])


def _kkt_min_energy(n, dt, q0, v0, qn, vn):
    """Brute-force equality-constrained least squares, one coordinate."""
    # variables [q_0..q_{n-1}, v_0..v_{n-1}], cost sum v^2
    rows, rhs = [], []
    for k in range(n - 1):
        row = np.zeros(2 * n)
        row[k + 1], row[k], row[n + k] = 1.0, -1.0, -dt
        rows.append(row)
        rhs.append(0.0)
    for idx, val in ((0, q0), (n, v0), (n - 1, qn), (2 * n - 1, vn)):
        row = np.zeros(2 * n)
        row[idx] = 1.0
        rows.append(row)
        rhs.append(val)
    a = np.array(rows)
    h = np.diag(np.r_[np.full(n, 1e-12), np.full(n, 2.0)])
    kkt = np.block([[h, a.T], [a, np.zeros((len(rows), len(rows)))]])
    sol = np.linalg.solve(kkt, np.r_[np.zeros(2 * n), rhs])
    return sol[:n], sol[n:2 * n]


def test_min_energy_double_integrator():
    data = {"num_waypoints": 3, "dt": 1.0, "dynamics_enabled": True,
            "start": {"position": [0.0, 0.0]}, "goal": {"position": [1.0, 0.0]}}
    q, v, cost = oracle.min_energy(data)
    assert np.allclose(q, [[0, 0], [0, 0], [1, 0]])
    assert np.allclose(v, [[0, 0], [1, 0], [0, 0]])
    assert cost == pytest.approx(1.0)

    data = {"num_waypoints": 7, "dt": 0.5, "dynamics_enabled": True,
            "start": {"position": [-3.0, 0.0], "velocity": [1.2, 1.2]},
            "goal": {"position": [3.0, 0.0], "velocity": [1.2, -1.2]}}
    q, v, cost = oracle.min_energy(data)
    for axis in range(2):
        kq, kv = _kkt_min_energy(7, 0.5, q[0, axis], v[0, axis], q[-1, axis], v[-1, axis])
        assert q[:, axis] == pytest.approx(kq, abs=1e-9)
        assert v[:, axis] == pytest.approx(kv, abs=1e-9)
    assert cost == pytest.approx(float(np.sum(v ** 2)))
    a = np.vstack([np.diff(v, axis=0) / 0.5, np.zeros((1, 2))])
    assert oracle.integrator_residuals(q, v, a, 0.5).max() < 1e-12


def test_min_energy_joint_path():
    data = {"num_waypoints": 5, "dt": 0.5, "dynamics_enabled": False,
            "start": {"position": [0.0, 1.0]}, "goal": {"position": [2.0, -1.0]}}
    q, v, cost = oracle.min_energy(data)
    assert v is None
    assert q[1] == pytest.approx([0.5, 0.5])
    # four edges, each moving (0.5, -0.5) in 0.5 s: |(1, -1)|^2 = 2 per edge
    assert cost == pytest.approx(8.0)
    assert oracle.objective(data, q, None) == pytest.approx(8.0)


def test_integrator_residuals_and_split_edges():
    dt = 0.5
    q = np.array([[0.0], [1.0], [2.0], [3.0]])
    v = np.array([[2.0], [2.0], [2.0], [2.0]])
    a = np.zeros_like(v)
    assert oracle.integrator_residuals(q, v, a, dt) == pytest.approx([0.0, 0.0, 0.0])
    q[2] += 0.1
    assert oracle.integrator_residuals(q, v, a, dt) == pytest.approx([0.0, 0.1, 0.1])
    assert oracle.split_edges(4, [2]).tolist() == [False, True, True]


def test_edge_samples_include_waypoints_and_interior_points():
    q = np.array([[0.0, 0.0], [3.0, 0.0]])
    got = oracle.edge_samples(q, 2)
    assert got.tolist() == [[0.0, 0.0], [3.0, 0.0], [1.0, 0.0], [2.0, 0.0]]


def test_agrees_with_program_clearance_within_band():
    """The verdict band must cover every difference from the program's GJK/EPA."""
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "trajsplit").is_dir():
        pytest.skip("trajsplit sources not found")
    sys.path.insert(0, str(src))
    from trajsplit.collision import min_scenario_clearance
    from trajsplit.model import RobotState
    from trajsplit.scenario_io import parse_scenario
    import yaml

    rng = np.random.default_rng(0)
    data = {
        "robot": {"type": "planar_arm", "link_lengths": [0.8, 0.7, 0.5], "link_radius": 0.05},
        "obstacles": [
            {"type": "polygon", "vertices": [[1.1, 0.8], [1.4, 0.7], [1.5, 1.0], [1.2, 1.1]]},
            {"type": "circle", "center": [1.0, -0.8], "radius": 0.3},
        ],
        "start": {"position": [0.0, 0.0, 0.0]}, "goal": {"position": [0.1, 0.0, 0.0]},
        "num_waypoints": 2, "dt": 1.0, "safety_margin": 0.03, "dynamics_enabled": False,
    }
    scenario = parse_scenario(yaml.safe_dump(data))
    q = rng.uniform(-np.pi, np.pi, size=(400, 3))
    ours = oracle.clearance(data, q)
    theirs = np.array([min_scenario_clearance(scenario, RobotState.resting(row)) for row in q])
    assert (ours < 0).any() and (ours > 0).any()
    assert np.abs(ours - theirs).max() < oracle.CLEARANCE_BAND
