"""Scenario clearance, constraint linearization, and path checking."""

import itertools
import math

import numpy as np
import pytest

from trajsplit.admm import SplitConfig, run
from trajsplit.cli import bundled_scenario_dir
from trajsplit.collision import (
    ACTIVATION_FACTOR,
    ACTIVATION_OFFSET,
    Contact,
    activation_distance,
    clearances,
    first_contact,
    link_count,
    linearize_collision_constraint,
    min_scenario_clearance,
    pair_distance,
    robot_body_shapes,
    trajectory_collision_free,
)
from trajsplit.geometry import Capsule, Circle, ConvexPolygon, signed_distance
from trajsplit.kinematics import forward_kinematics
from trajsplit.model import (
    PlanarArm,
    Point2D,
    RobotState,
    Scenario,
    Trajectory,
)
from trajsplit.nlp import convexify_segment, segment_layout
from trajsplit.scenario_io import load_scenario

from conftest import oracle_signed_distance


def point_scenario(obstacles, margin=0.05):
    return Scenario(
        robot=Point2D(),
        obstacles=tuple(obstacles),
        start=RobotState.resting((-2.0, 0.0)),
        goal=RobotState.resting((2.0, 0.0)),
        num_waypoints=5,
        dt=0.1,
        safety_margin=margin,
    )


def arm_scenario(obstacles, links=(1.0, 1.0), radius=0.05, margin=0.03):
    dim = len(links)
    return Scenario(
        robot=PlanarArm(link_lengths=links, link_radius=radius),
        obstacles=tuple(obstacles),
        start=RobotState.resting(np.zeros(dim)),
        goal=RobotState.resting(np.full(dim, 0.5)),
        num_waypoints=5,
        dt=0.1,
        safety_margin=margin,
    )


def row_count(scenario, q):
    """Collision rows the segment solver keeps for one waypoint at ``q``."""
    layout = segment_layout(scenario, 0, 0)
    x = layout.pack(np.asarray(q, dtype=float)[None, :], np.zeros((1, layout.dim)))
    vals, _ = convexify_segment(scenario, 0, 0, x).inequalities(x)
    return vals.size


def still_trajectory(positions, dt=0.1):
    pos = np.asarray(positions, dtype=float)
    zeros = np.zeros_like(pos)
    return Trajectory.from_arrays(pos, zeros, zeros, dt)


THIN_WALL = ConvexPolygon(
    np.array([[-0.05, -1.2], [0.05, -1.2], [0.05, 1.2], [-0.05, 1.2]])
)


class TestClearance:
    def test_point_outside_circle(self):
        scenario = point_scenario([Circle((2.0, 0.0), 1.0)])
        assert min_scenario_clearance(scenario, RobotState.resting((0.0, 0.0))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_point_at_circle_center(self):
        scenario = point_scenario([Circle((2.0, 0.0), 1.0)])
        assert min_scenario_clearance(scenario, RobotState.resting((2.0, 0.0))) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_no_obstacles_is_infinite(self):
        scenario = point_scenario([])
        assert min_scenario_clearance(scenario, RobotState.resting((0.0, 0.0))) == math.inf

    def test_capsule_versus_box(self):
        # Flat-side closest approach: capsule surface x=2.1 to box face x=3.
        box = ConvexPolygon(np.array([[3.0, -0.5], [4.0, -0.5], [4.0, 0.5], [3.0, 0.5]]))
        cap = Capsule((0.0, 0.0), (2.0, 0.0), 0.1)
        got = signed_distance(cap, box).value
        assert got == pytest.approx(0.9, abs=1e-9)
        assert got == pytest.approx(oracle_signed_distance(cap, box), abs=1e-3)

    def test_extended_arm_matches_oracle(self):
        disc = Circle((2.6, 0.0), 0.3)
        scenario = arm_scenario([disc])
        state = RobotState.resting((0.0, 0.0))
        got = min_scenario_clearance(scenario, state)
        shapes = robot_body_shapes(scenario, state.position)
        want = min(oracle_signed_distance(s, disc) for s in shapes)
        assert got == pytest.approx(want, abs=1e-3)
        assert got == pytest.approx(0.25, abs=1e-9)

    def test_minimum_over_pairs(self):
        near = Circle((0.5, 1.0), 0.2)
        far = Circle((5.0, 5.0), 0.2)
        scenario = arm_scenario([far, near])
        state = RobotState.resting((math.pi / 2.0, 0.0))
        per_pair = [
            pair_distance(scenario, state.position, k, j).value
            for k, j in itertools.product(range(link_count(scenario)), range(len(scenario.obstacles)))
        ]
        assert min_scenario_clearance(scenario, state) == pytest.approx(min(per_pair), abs=1e-12)


class TestLinearization:
    def test_point_robot_gradient(self):
        scenario = point_scenario([Circle((2.0, 0.0), 1.0)])
        lin = linearize_collision_constraint(scenario, RobotState.resting((0.0, 0.0)), (0, 0))
        assert lin.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(lin.gradient, [-1.0, 0.0], atol=1e-12)

    def test_point_robot_gradient_mirror(self):
        scenario = point_scenario([Circle((2.0, 0.0), 1.0)])
        lin = linearize_collision_constraint(scenario, RobotState.resting((4.0, 0.0)), (0, 0))
        assert lin.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(lin.gradient, [1.0, 0.0], atol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        # Witness pairs are unstable where the capsule's closest point sits at
        # a segment end; keep only configurations safely away from a switch.
        disc = Circle((1.1, 0.9), 0.3)
        scenario = arm_scenario([disc], links=(1.0, 0.8))
        arm = scenario.robot
        accepted = 0
        while accepted < 25:
            q = rng.uniform(-math.pi, math.pi, size=2)
            link = int(rng.integers(0, 2))

            pose = forward_kinematics(arm, q)[link]
            axis = pose.endpoint - pose.origin
            t = float(np.dot(np.asarray(disc.center) - pose.origin, axis) / np.dot(axis, axis))
            if min(abs(t), abs(t - 1.0)) < 1e-3:
                continue
            sd0 = pair_distance(scenario, q, link, 0).value
            if sd0 < 1e-2:
                continue
            accepted += 1

            lin = linearize_collision_constraint(scenario, RobotState.resting(q), (link, 0))
            step = 1e-6
            fd = np.zeros(2)
            for j in range(2):
                hi = q.copy()
                lo = q.copy()
                hi[j] += step
                lo[j] -= step
                fd[j] = (
                    pair_distance(scenario, hi, link, 0).value
                    - pair_distance(scenario, lo, link, 0).value
                ) / (2.0 * step)
            scale = max(1.0, float(np.abs(fd).max()))
            assert np.abs(lin.gradient - fd).max() / scale <= 1e-4

    def test_surrogate_exact_at_expansion_point(self):
        scenario = point_scenario([Circle((2.0, 0.0), 1.0)])
        q0 = np.array([0.3, -0.4])
        lin = linearize_collision_constraint(scenario, RobotState.resting(q0), (0, 0))
        surrogate = lin.value + lin.gradient @ (q0 - q0)
        assert surrogate == lin.value


class TestActivation:
    def test_activation_distance_formula(self):
        assert activation_distance(0.05) == pytest.approx(
            ACTIVATION_FACTOR * 0.05 + ACTIVATION_OFFSET, abs=1e-15
        )
        assert activation_distance(0.0) == pytest.approx(ACTIVATION_OFFSET, abs=1e-15)

    def test_far_pairs_dropped(self):
        scenario = point_scenario([Circle((50.0, 0.0), 1.0)], margin=0.05)
        assert row_count(scenario, np.array([0.0, 0.0])) == 0

    def test_near_pairs_kept(self):
        scenario = point_scenario([Circle((2.0, 0.0), 1.0)], margin=0.05)
        assert row_count(scenario, np.array([1.0, 0.0])) == 1

    def test_band_edge(self):
        margin = 0.05
        band = activation_distance(margin)
        scenario = point_scenario([Circle((2.0, 0.0), 1.0)], margin=margin)
        inside = np.array([2.0 - 1.0 - band + 0.01, 0.0])
        outside = np.array([2.0 - 1.0 - band - 0.01, 0.0])
        assert row_count(scenario, inside) == 1
        assert row_count(scenario, outside) == 0


class TestTrajectoryCollisionFree:
    def test_far_trajectory(self):
        scenario = point_scenario([Circle((0.0, 10.0), 1.0)])
        traj = still_trajectory([[-2.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        assert trajectory_collision_free(scenario, traj, samples_per_edge=3)

    def test_waypoint_inside_obstacle(self):
        scenario = point_scenario([Circle((0.0, 0.0), 1.0)])
        traj = still_trajectory([[-2.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        assert not trajectory_collision_free(scenario, traj, samples_per_edge=3)

    def test_straddling_thin_wall(self):
        # Both waypoints clear the wall; only an interpolated sample catches
        # the edge passing through it.
        scenario = point_scenario([THIN_WALL])
        traj = still_trajectory([[-1.0, 0.0], [1.0, 0.0]])
        for waypoint in traj.positions():
            state = RobotState.resting(waypoint)
            assert min_scenario_clearance(scenario, state) > scenario.safety_margin
        assert not trajectory_collision_free(scenario, traj, samples_per_edge=1)

    def test_margin_is_strict(self):
        scenario = point_scenario([Circle((2.0, 0.0), 1.0)], margin=1.0)
        traj = still_trajectory([[0.0, 0.0]])
        assert not trajectory_collision_free(scenario, traj, samples_per_edge=1)
        relaxed = point_scenario([Circle((2.0, 0.0), 1.0)], margin=0.5)
        assert trajectory_collision_free(relaxed, traj, samples_per_edge=1)


def checked_configuration(trajectory, contact, samples_per_edge):
    pos = trajectory.positions()
    if contact.sample == 0:
        return pos[contact.waypoint]
    t = contact.sample / (samples_per_edge + 1)
    return (1.0 - t) * pos[contact.waypoint] + t * pos[contact.waypoint + 1]


def assert_first_contact(scenario, trajectory, samples_per_edge):
    """The contact is within the margin, is the least clearance of its
    configuration, and every configuration checked before it is clear."""
    contact = first_contact(scenario, trajectory, samples_per_edge)
    assert contact is not None
    assert not trajectory_collision_free(scenario, trajectory, samples_per_edge)
    exact = clearances(scenario, checked_configuration(trajectory, contact, samples_per_edge)[None])[0]
    assert contact.clearance == exact[contact.link, contact.obstacle] == exact.min()
    assert contact.clearance <= scenario.safety_margin
    for k in range(contact.waypoint + 1):
        for sample in range(samples_per_edge + 1 if k < contact.waypoint else contact.sample):
            before = checked_configuration(trajectory, Contact(k, sample, 0, 0, 0.0), samples_per_edge)
            assert clearances(scenario, before[None]).min() > scenario.safety_margin
    return contact


class TestFirstContact:
    def test_none_when_clear(self):
        scenario = point_scenario([Circle((0.0, 10.0), 1.0)])
        traj = still_trajectory([[-2.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        assert first_contact(scenario, traj, samples_per_edge=3) is None

    def test_waypoint_contact(self):
        scenario = point_scenario([Circle((10.0, 0.0), 1.0), Circle((0.0, 0.0), 1.0)])
        traj = still_trajectory([[-2.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        contact = first_contact(scenario, traj, samples_per_edge=0)
        assert contact == Contact(1, 0, 0, 1, -1.0)
        assert str(contact) == "waypoint 1, link 0, obstacle 1, clearance -1.0"

    def test_edge_sample_contact(self):
        # only the second of three samples inside the edge meets the wall
        scenario = point_scenario([THIN_WALL])
        traj = still_trajectory([[-1.0, 0.0], [1.0, 0.0]])
        contact = assert_first_contact(scenario, traj, samples_per_edge=3)
        assert (contact.waypoint, contact.sample, contact.link, contact.obstacle) == (0, 2, 0, 0)
        assert contact.clearance == pytest.approx(-0.05)
        assert str(contact) == f"edge 0-1 sample 2, link 0, obstacle 0, clearance {contact.clearance!r}"

    def test_thin_wall_exhibit(self):
        # the split run of acceptance criterion 09, which exits 3
        scenario = load_scenario(bundled_scenario_dir() / "thin_wall.yaml")
        config = SplitConfig(num_splits=2, eps=0.5)
        report = run(scenario, config)
        assert report.converged and not report.collision_free
        assert_first_contact(scenario, report.trajectory, config.samples_per_edge)

    def test_arm_two_link_exhibit(self):
        scenario = load_scenario(bundled_scenario_dir() / "arm_two_link.yaml")
        config = SplitConfig(num_splits=2)
        report = run(scenario, config)
        assert report.converged and not report.collision_free
        assert_first_contact(scenario, report.trajectory, config.samples_per_edge)
