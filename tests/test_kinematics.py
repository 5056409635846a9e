"""Forward kinematics, point Jacobians, and the discrete dynamics model."""

import math

import numpy as np
import pytest

from trajsplit.errors import ScenarioError
from trajsplit.kinematics import (
    dynamics_residual,
    dynamics_step,
    forward_kinematics,
    point_jacobian,
)
from trajsplit.model import (
    BasePose,
    PlanarArm,
    Point2D,
    RobotState,
    Trajectory,
    straight_line_init,
)

from conftest import fd_jacobian


def two_link(base=BasePose()):
    return PlanarArm(link_lengths=(1.0, 1.0), link_radius=0.05, base=base)


class TestForwardKinematics:
    def test_fully_extended(self):
        poses = forward_kinematics(two_link(), (0.0, 0.0))
        np.testing.assert_allclose(poses[-1].endpoint, [2.0, 0.0], atol=1e-15)

    def test_rotated_quarter_turn(self):
        poses = forward_kinematics(two_link(), (math.pi / 2.0, 0.0))
        np.testing.assert_allclose(poses[-1].endpoint, [0.0, 2.0], atol=1e-15)

    def test_elbow_bend(self):
        poses = forward_kinematics(two_link(), (math.pi / 2.0, -math.pi / 2.0))
        np.testing.assert_allclose(poses[-1].endpoint, [1.0, 1.0], atol=1e-15)

    def test_links_chain(self):
        poses = forward_kinematics(two_link(), (0.3, -0.7))
        np.testing.assert_allclose(poses[0].origin, [0.0, 0.0], atol=0.0)
        np.testing.assert_allclose(poses[1].origin, poses[0].endpoint, atol=0.0)
        for pose, length in zip(poses, (1.0, 1.0)):
            assert np.linalg.norm(pose.endpoint - pose.origin) == pytest.approx(length, abs=1e-12)

    def test_angles_accumulate(self):
        arm = PlanarArm(link_lengths=(0.5, 0.5, 0.5), link_radius=0.01, base=BasePose(angle=0.1))
        q = (0.2, 0.3, -0.4)
        poses = forward_kinematics(arm, q)
        assert poses[0].angle == pytest.approx(0.3, abs=1e-12)
        assert poses[1].angle == pytest.approx(0.6, abs=1e-12)
        assert poses[2].angle == pytest.approx(0.2, abs=1e-12)

    def test_base_translation_equivariance(self, rng):
        q = rng.uniform(-math.pi, math.pi, size=2)
        shift = np.array([1.7, -2.3])
        at_origin = forward_kinematics(two_link(), q)
        moved = forward_kinematics(two_link(base=BasePose(x=shift[0], y=shift[1])), q)
        for a, b in zip(at_origin, moved):
            np.testing.assert_allclose(b.origin, a.origin + shift, atol=1e-12)
            np.testing.assert_allclose(b.endpoint, a.endpoint + shift, atol=1e-12)

    def test_point_robot_degenerate_link(self):
        poses = forward_kinematics(Point2D(), (1.0, 2.0))
        assert len(poses) == 1
        np.testing.assert_allclose(poses[0].origin, [1.0, 2.0], atol=0.0)
        np.testing.assert_allclose(poses[0].endpoint, [1.0, 2.0], atol=0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ScenarioError):
            forward_kinematics(two_link(), (0.0, 0.0, 0.0))


class TestPointJacobian:
    def test_two_link_tip(self):
        jac = point_jacobian(two_link(), (0.0, 0.0), link_index=1, point=(2.0, 0.0))
        np.testing.assert_allclose(jac, [[0.0, 0.0], [2.0, 1.0]], atol=1e-15)

    def test_distal_joint_ignores_proximal_point(self):
        jac = point_jacobian(two_link(), (0.0, 0.0), link_index=0, point=(1.0, 0.0))
        np.testing.assert_allclose(jac, [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)

    def test_matches_finite_differences(self, rng):
        # Attach the point at a fixed fraction along the link so it moves
        # rigidly with the arm while q varies.
        arm = PlanarArm(link_lengths=(1.0, 0.8, 0.6), link_radius=0.02, base=BasePose(0.2, -0.1, 0.3))
        for _ in range(100):
            q = rng.uniform(-math.pi, math.pi, size=3)
            link = int(rng.integers(0, 3))
            frac = float(rng.uniform(0.0, 1.0))

            def world_point(conf, link=link, frac=frac):
                pose = forward_kinematics(arm, conf)[link]
                return pose.origin + frac * (pose.endpoint - pose.origin)

            point = world_point(q)
            jac = point_jacobian(arm, q, link_index=link, point=point)
            ref = fd_jacobian(world_point, q)
            scale = max(1.0, float(np.abs(ref).max()))
            assert np.abs(jac - ref).max() / scale <= 1e-6

    def test_point_robot_identity(self):
        np.testing.assert_allclose(point_jacobian(Point2D(), (0.5, 0.5), 0, (0.5, 0.5)), np.eye(2), atol=0.0)

    def test_link_index_out_of_range(self):
        with pytest.raises(ScenarioError):
            point_jacobian(two_link(), (0.0, 0.0), link_index=2, point=(2.0, 0.0))
        with pytest.raises(ScenarioError):
            point_jacobian(Point2D(), (0.0, 0.0), link_index=1, point=(0.0, 0.0))


class TestDynamicsStep:
    def test_velocity_advances_position(self):
        state = RobotState(np.array([0.0]), np.array([1.0]), np.array([0.0]))
        pos, vel = dynamics_step(state, dt=0.1)
        np.testing.assert_allclose(pos, [0.1], atol=1e-15)
        np.testing.assert_allclose(vel, [1.0], atol=0.0)

    def test_rest_is_fixed_point(self):
        state = RobotState.resting((0.3, -0.4))
        pos, vel = dynamics_step(state, dt=0.7)
        np.testing.assert_allclose(pos, [0.3, -0.4], atol=0.0)
        np.testing.assert_allclose(vel, [0.0, 0.0], atol=0.0)

    def test_acceleration_advances_velocity(self):
        state = RobotState(np.array([0.0]), np.array([0.0]), np.array([2.0]))
        pos, vel = dynamics_step(state, dt=0.5)
        np.testing.assert_allclose(pos, [0.0], atol=0.0)
        np.testing.assert_allclose(vel, [1.0], atol=1e-15)

    def test_linear_in_state(self, rng):
        # Double integrator is linear: step(a+b) = step(a) + step(b).
        dt = 0.3
        sa = rng.uniform(-1.0, 1.0, size=(3, 2))
        sb = rng.uniform(-1.0, 1.0, size=(3, 2))
        pa, va = dynamics_step(RobotState(*sa), dt)
        pb, vb = dynamics_step(RobotState(*sb), dt)
        ps, vs = dynamics_step(RobotState(*(sa + sb)), dt)
        np.testing.assert_allclose(ps, pa + pb, atol=1e-12)
        np.testing.assert_allclose(vs, va + vb, atol=1e-12)


class TestDynamicsResidual:
    def test_rollout_is_exact(self, rng):
        dt = 0.2
        accelerations = rng.uniform(-1.0, 1.0, size=(8, 2))
        positions, velocities = [np.zeros(2)], [np.array([0.5, -0.2])]
        for k in range(1, 8):
            pos, vel = dynamics_step(RobotState(positions[-1], velocities[-1], accelerations[k - 1]), dt)
            positions.append(pos)
            velocities.append(vel)
        traj = Trajectory.from_arrays(positions, velocities, accelerations, dt)
        assert dynamics_residual(traj) == 0.0

    def test_straight_line_init_is_feasible(self):
        from trajsplit.model import Scenario

        scenario = Scenario(
            robot=Point2D(),
            obstacles=(),
            start=RobotState.resting((0.0, 0.0)),
            goal=RobotState.resting((4.0, 0.0)),
            num_waypoints=5,
            dt=1.0,
            safety_margin=0.0,
        )
        traj = straight_line_init(scenario)
        assert dynamics_residual(traj) == pytest.approx(0.0, abs=1e-15)

    def test_perturbed_waypoint_measured_exactly(self):
        dt = 0.5
        positions = np.zeros((4, 2))
        positions[2] = (0.01, 0.0)
        traj = Trajectory.from_arrays(positions, np.zeros((4, 2)), np.zeros((4, 2)), dt)
        assert dynamics_residual(traj) == pytest.approx(0.01, abs=1e-15)
