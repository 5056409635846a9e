"""Domain types and trajectory bookkeeping."""

import math

import numpy as np
import pytest

from trajsplit.admm import trajectory_objective
from trajsplit.errors import ScenarioError, ShapeError
from trajsplit.geometry import Circle, ConvexPolygon
from trajsplit.model import (
    BasePose,
    PlanarArm,
    Point2D,
    RobotState,
    Scenario,
    Trajectory,
    path_length,
    straight_line_init,
)


def point_scenario(start, goal, n, dt=1.0, obstacles=(), margin=0.05):
    return Scenario(
        robot=Point2D(),
        obstacles=tuple(obstacles),
        start=RobotState.resting(start),
        goal=RobotState.resting(goal),
        num_waypoints=n,
        dt=dt,
        safety_margin=margin,
    )


class TestStraightLineInit:
    def test_linear_interpolation(self):
        traj = straight_line_init(point_scenario((0.0, 0.0), (4.0, 0.0), n=5, dt=1.0))
        want = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
        np.testing.assert_allclose(traj.positions(), want, atol=1e-15)
        np.testing.assert_allclose(traj.velocities(), np.tile([1.0, 0.0], (5, 1)), atol=1e-15)
        np.testing.assert_allclose(traj.accelerations(), 0.0, atol=0.0)

    def test_degenerate_start_equals_goal(self):
        traj = straight_line_init(point_scenario((1.5, -2.0), (1.5, -2.0), n=4))
        np.testing.assert_allclose(traj.positions(), np.tile([1.5, -2.0], (4, 1)), atol=0.0)
        np.testing.assert_allclose(traj.velocities(), 0.0, atol=0.0)

    def test_arm_midpoint(self):
        arm = PlanarArm(link_lengths=(1.0, 1.0), link_radius=0.05)
        scenario = Scenario(
            robot=arm,
            obstacles=(),
            start=RobotState.resting((0.0, 0.0)),
            goal=RobotState.resting((math.pi, 0.0)),
            num_waypoints=3,
            dt=1.0,
            safety_margin=0.0,
        )
        traj = straight_line_init(scenario)
        want = np.array([[0.0, 0.0], [math.pi / 2.0, 0.0], [math.pi, 0.0]])
        np.testing.assert_allclose(traj.positions(), want, atol=1e-15)

    def test_endpoints_exact(self, rng):
        # Endpoint equality must be exact, not merely within float tolerance.
        for _ in range(20):
            start = rng.uniform(-5.0, 5.0, size=2)
            goal = rng.uniform(-5.0, 5.0, size=2)
            n = int(rng.integers(2, 40))
            traj = straight_line_init(point_scenario(start, goal, n=n, dt=0.1))
            assert np.array_equal(traj.positions()[0], start)
            assert np.array_equal(traj.positions()[-1], goal)

    def test_waypoint_count_and_dt(self):
        scenario = point_scenario((0.0, 0.0), (1.0, 1.0), n=17, dt=0.25)
        traj = straight_line_init(scenario)
        assert len(traj) == 17
        assert traj.dt == 0.25


class TestPathLength:
    def test_collinear(self):
        traj = straight_line_init(point_scenario((0.0, 0.0), (4.0, 0.0), n=5))
        assert path_length(traj) == pytest.approx(4.0, abs=1e-12)

    def test_constant_trajectory(self):
        traj = straight_line_init(point_scenario((2.0, 3.0), (2.0, 3.0), n=6))
        assert path_length(traj) == 0.0

    def test_square_path(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        traj = Trajectory.from_arrays(pos, np.zeros_like(pos), np.zeros_like(pos), dt=1.0)
        assert path_length(traj) == pytest.approx(3.0, abs=1e-12)

    def test_translation_invariant(self, rng):
        pos = rng.uniform(-2.0, 2.0, size=(12, 2))
        shift = rng.uniform(-10.0, 10.0, size=2)
        base = Trajectory.from_arrays(pos, np.zeros_like(pos), np.zeros_like(pos), dt=1.0)
        moved = Trajectory.from_arrays(pos + shift, np.zeros_like(pos), np.zeros_like(pos), dt=1.0)
        assert path_length(moved) == pytest.approx(path_length(base), abs=1e-12)

    def test_at_least_endpoint_distance(self, rng):
        # Triangle inequality: no path between fixed endpoints beats the chord.
        for _ in range(25):
            pos = rng.uniform(-3.0, 3.0, size=(10, 2))
            traj = Trajectory.from_arrays(pos, np.zeros_like(pos), np.zeros_like(pos), dt=1.0)
            chord = float(np.linalg.norm(pos[-1] - pos[0]))
            assert path_length(traj) >= chord - 1e-12


class TestObjectiveCost:
    # with dynamics the cost is the summed squared velocity states
    dynamic = point_scenario((0.0, 0.0), (4.0, 0.0), n=5, dt=1.0)

    def test_zero_velocities(self):
        pos = np.zeros((4, 2))
        traj = Trajectory.from_arrays(pos, np.zeros_like(pos), np.zeros_like(pos), dt=1.0)
        assert trajectory_objective(self.dynamic, traj) == 0.0

    def test_direct_formula(self):
        vel = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        traj = Trajectory.from_arrays(np.zeros((3, 2)), vel, np.zeros((3, 2)), dt=1.0)
        assert trajectory_objective(self.dynamic, traj) == pytest.approx(4.0, abs=1e-12)

    def test_straight_line_constant_velocity(self):
        traj = straight_line_init(self.dynamic)
        assert trajectory_objective(self.dynamic, traj) == pytest.approx(5.0, abs=1e-12)

    def test_zero_iff_all_velocities_zero(self, rng):
        pos = np.zeros((5, 2))
        for _ in range(20):
            vel = rng.uniform(-1.0, 1.0, size=(5, 2))
            traj = Trajectory.from_arrays(pos, vel, np.zeros_like(pos), dt=1.0)
            if np.any(vel != 0.0):
                assert trajectory_objective(self.dynamic, traj) > 0.0
        still = Trajectory.from_arrays(pos, np.zeros_like(pos), np.zeros_like(pos), dt=1.0)
        assert trajectory_objective(self.dynamic, still) == 0.0

    def test_path_only_finite_differences(self):
        # path-only mode ignores the velocity states: (1/0.5)^2 + (2/0.5)^2 = 20
        scenario = Scenario(
            robot=Point2D(),
            obstacles=(),
            start=RobotState.resting((0.0, 0.0)),
            goal=RobotState.resting((3.0, 0.0)),
            num_waypoints=3,
            dt=0.5,
            safety_margin=0.05,
            dynamics_enabled=False,
        )
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        traj = Trajectory.from_arrays(pos, np.ones_like(pos), np.zeros_like(pos), dt=0.5)
        assert trajectory_objective(scenario, traj) == pytest.approx(20.0, abs=1e-12)


class TestValidation:
    def test_state_dimension_mismatch(self):
        with pytest.raises(ScenarioError):
            RobotState(np.array([1.0, 2.0]), np.array([0.0]), np.zeros(2))

    def test_state_rejects_nan(self):
        with pytest.raises(ScenarioError):
            RobotState.resting((np.nan, 0.0))

    def test_state_arrays_readonly(self):
        state = RobotState.resting((1.0, 2.0))
        with pytest.raises(ValueError):
            state.position[0] = 9.0

    def test_trajectory_mixed_dimensions(self):
        # a 3D velocity row set against 2D positions is a shape mismatch
        with pytest.raises(ScenarioError, match="shape"):
            Trajectory.from_arrays(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)), dt=0.1)

    def test_trajectory_arrays_readonly(self):
        traj = Trajectory.from_arrays(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), dt=0.1)
        for array in (traj.positions(), traj.velocities(), traj.accelerations()):
            with pytest.raises(ValueError):
                array[0, 0] = 9.0

    def test_trajectory_bad_dt(self):
        pos = np.zeros((1, 2))
        with pytest.raises(ScenarioError):
            Trajectory.from_arrays(pos, pos, pos, dt=0.0)
        with pytest.raises(ScenarioError):
            Trajectory.from_arrays(pos, pos, pos, dt=-1.0)

    def test_scenario_dimension_mismatch(self):
        with pytest.raises(ScenarioError):
            Scenario(
                robot=Point2D(),
                obstacles=(),
                start=RobotState.resting((0.0, 0.0, 0.0)),
                goal=RobotState.resting((1.0, 1.0)),
                num_waypoints=5,
                dt=0.1,
                safety_margin=0.0,
            )

    def test_scenario_too_few_waypoints(self):
        with pytest.raises(ScenarioError):
            point_scenario((0.0, 0.0), (1.0, 0.0), n=1)

    def test_scenario_negative_margin(self):
        with pytest.raises(ScenarioError):
            point_scenario((0.0, 0.0), (1.0, 0.0), n=5, margin=-0.01)

    def test_scenario_rejects_degenerate_circle(self):
        with pytest.raises(ShapeError):
            point_scenario((0.0, 0.0), (1.0, 0.0), n=5, obstacles=(Circle((0.0, 0.0), 0.0),))

    def test_scenario_endpoint_outside_joint_limits(self):
        arm = PlanarArm(
            link_lengths=(1.0,),
            link_radius=0.05,
            joint_limits=np.array([[-1.0, 1.0]]),
        )
        with pytest.raises(ScenarioError):
            Scenario(
                robot=arm,
                obstacles=(),
                start=RobotState.resting((2.0,)),
                goal=RobotState.resting((0.0,)),
                num_waypoints=5,
                dt=0.1,
                safety_margin=0.0,
            )

    def test_arm_rejects_bad_links(self):
        with pytest.raises(ScenarioError):
            PlanarArm(link_lengths=(), link_radius=0.05)
        with pytest.raises(ShapeError):
            PlanarArm(link_lengths=(1.0, -0.5), link_radius=0.05)
        with pytest.raises(ShapeError):
            PlanarArm(link_lengths=(1.0,), link_radius=-0.1)

    def test_arm_joint_limit_shape(self):
        with pytest.raises(ScenarioError):
            PlanarArm(
                link_lengths=(1.0, 1.0),
                link_radius=0.05,
                joint_limits=np.array([[-1.0, 1.0]]),
            )

    def test_base_pose_finite(self):
        with pytest.raises(ScenarioError):
            BasePose(x=np.inf)

    def test_polygon_obstacle_accepted(self):
        poly = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
        scenario = point_scenario((-1.0, -1.0), (2.0, 2.0), n=5, obstacles=(poly,))
        assert len(scenario.obstacles) == 1
