"""Forward kinematics, point Jacobians, and discrete dynamics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError
from .model import PlanarArm, Point2D, RobotModel, RobotState, Trajectory


@dataclass(frozen=True)
class LinkPose:
    """World-frame pose of one link: its segment and absolute angle."""

    origin: np.ndarray
    angle: float
    endpoint: np.ndarray

    def __post_init__(self) -> None:
        for name in ("origin", "endpoint"):
            a = np.asarray(getattr(self, name), dtype=float).copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def _check_config(model: RobotModel, q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (model.dim,):
        raise ScenarioError(f"configuration must have shape ({model.dim},), got {q.shape}")
    return q


def link_segments(model: RobotModel, qs) -> tuple[np.ndarray, np.ndarray]:
    """Link origins and endpoints for a stack of configurations.

    ``qs`` is (m, n); both results are (m, links, 2).  Planar arm: joint
    angles accumulate along the chain and each link runs from the previous
    endpoint.  Point robot: one degenerate zero-length link at the point.
    An arm's two results are views of one (m, links + 1, 2) joint array.
    """
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != model.dim:
        raise ScenarioError(f"configurations must have shape (m, {model.dim}), got {qs.shape}")
    if isinstance(model, Point2D):
        return qs[:, None, :], qs[:, None, :]
    assert isinstance(model, PlanarArm)
    # running sums start from the base, in chain order; each step is written in place
    angles = qs.copy()
    angles[:, 0] += model.base.angle
    angles.cumsum(axis=1, out=angles)
    joints = np.empty((len(qs), model.dim + 1, 2))
    joints[:, 0] = model.base.x, model.base.y
    np.cos(angles, out=joints[:, 1:, 0])
    np.sin(angles, out=joints[:, 1:, 1])
    joints[:, 1:] *= model.link_lengths[:, None]
    joints.cumsum(axis=1, out=joints)
    return joints[:, :-1], joints[:, 1:]


def forward_kinematics(model: RobotModel, q) -> list[LinkPose]:
    """Link poses at configuration ``q`` (see ``link_segments``)."""
    q = _check_config(model, q)
    if isinstance(model, Point2D):
        return [LinkPose(origin=q, angle=0.0, endpoint=q)]
    origins, endpoints = link_segments(model, q[None, :])
    angles = np.cumsum(np.concatenate([[model.base.angle], q]))[1:]
    return [
        LinkPose(origin=o, angle=float(a), endpoint=e)
        for o, a, e in zip(origins[0], angles, endpoints[0])
    ]


def point_jacobian(model: RobotModel, q, link_index: int, point) -> np.ndarray:
    """Jacobian of a world point rigidly attached to link ``link_index``.

    Returns a (2, n) matrix mapping configuration velocities to the point's
    planar velocity.  Columns for joints beyond ``link_index`` are zero: a
    point cannot move with joints farther down the chain.
    """
    q = _check_config(model, q)
    point = np.asarray(point, dtype=float)
    if isinstance(model, Point2D):
        if link_index != 0:
            raise ScenarioError(f"point robot has a single link, got link_index {link_index}")
        return np.eye(2)
    assert isinstance(model, PlanarArm)
    n = model.dim
    if not 0 <= link_index < n:
        raise ScenarioError(f"link_index must be in [0, {n}), got {link_index}")
    poses = forward_kinematics(model, q)
    jac = np.zeros((2, n))
    for j in range(link_index + 1):
        r = point - poses[j].origin
        jac[:, j] = (-r[1], r[0])
    return jac


def dynamics_step(state: RobotState, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One explicit-Euler double-integrator step: next (position, velocity)."""
    next_position = state.position + dt * state.velocity
    next_velocity = state.velocity + dt * state.acceleration
    return next_position, next_velocity


def dynamics_residual(trajectory: Trajectory) -> float:
    """Worst dynamics violation along a trajectory.

    Max over consecutive waypoint pairs of the infinity norm of the gap
    between the stored next state and ``dynamics_step`` of the current one.
    Zero for a single-waypoint trajectory.
    """
    q, v, a, dt = trajectory.positions(), trajectory.velocities(), trajectory.accelerations(), trajectory.dt
    gaps = np.maximum(np.abs(q[1:] - (q[:-1] + dt * v[:-1])), np.abs(v[1:] - (v[:-1] + dt * a[:-1])))
    return float(np.max(gaps, initial=0.0))
