"""Scenario-level collision queries built on the shape engine.

The robot body is a set of convex shapes placed by forward kinematics: one
capsule per arm link, or a zero-radius disc for a point robot.  Every
clearance query goes through ``clearances``, which evaluates all
(configuration, link, obstacle) triples of a configuration stack in one call
of the batched signed-distance kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Capsule,
    Circle,
    ConvexShape,
    SignedDistanceResult,
    core_clearance,
    core_signed_distance,
    signed_distance,
    stack_cores,
)
from .kinematics import forward_kinematics, link_segments
from .kinematics import point_jacobian  # noqa: F401  (wrapped here by benchmark/tracing.py)
from .model import PlanarArm, Point2D, RobotState, Scenario, Trajectory

# Pairs farther apart than this are dropped from a convexification round;
# generous enough that anything able to collide within a trust step is kept.
ACTIVATION_OFFSET = 0.2
ACTIVATION_FACTOR = 3.0


def activation_distance(safety_margin: float) -> float:
    """Distance below which a collision pair enters the convex subproblem."""
    return ACTIVATION_FACTOR * safety_margin + ACTIVATION_OFFSET


def robot_body_shapes(scenario: Scenario, q) -> list[ConvexShape]:
    """Collision shapes of the robot at configuration ``q``."""
    model = scenario.robot
    if isinstance(model, Point2D):
        return [Circle(center=np.asarray(q, dtype=float), radius=0.0)]
    assert isinstance(model, PlanarArm)
    poses = forward_kinematics(model, q)
    return [
        Capsule(point_a=p.origin, point_b=p.endpoint, radius=model.link_radius)
        for p in poses
    ]


def pair_distance(scenario: Scenario, q, link_index: int, obstacle_index: int) -> SignedDistanceResult:
    """Signed distance between one robot link and one obstacle."""
    body = robot_body_shapes(scenario, q)
    return signed_distance(body[link_index], scenario.obstacles[obstacle_index])


def link_count(scenario: Scenario) -> int:
    """Number of robot body shapes: one per arm link, one for a point."""
    return 1 if isinstance(scenario.robot, Point2D) else scenario.robot.dim


def clearances(scenario: Scenario, configs, with_gradients: bool = False):
    """Signed distance of every (configuration, link, obstacle) triple.

    ``configs`` is an (m, n) stack of configurations; the values come back
    as (m, links, obstacles).  With ``with_gradients`` the derivatives with
    respect to each configuration, (m, links, obstacles, n), come back too:
    the contact normal pulled back through the Jacobian of the robot-side
    witness, taken as rigidly attached to its link.
    """
    configs = np.asarray(configs, dtype=float)
    model = scenario.robot
    links = link_count(scenario)
    if not scenario.obstacles:
        values = np.zeros((len(configs), links, 0))
        return (values, np.zeros(values.shape + (model.dim,))) if with_gradients else values
    origins, endpoints = link_segments(model, configs)
    if isinstance(model, Point2D):
        body, radius = origins[:, :, None, None, :], 0.0
    else:
        body, radius = np.stack([origins, endpoints], axis=2)[:, :, None], model.link_radius
    obstacles, obstacle_radii = stack_cores(scenario.obstacles)
    if not with_gradients:
        return core_clearance(body, radius, obstacles, obstacle_radii)
    values, witness, _, normal = core_signed_distance(body, radius, obstacles, obstacle_radii)
    if isinstance(model, Point2D):
        return values, normal
    # d sd / d q_j = cross(witness - origin_j, normal) for joints j <= link
    r = witness[:, :, :, None, :] - origins[:, None, None, :, :]
    cross = r[..., 0] * normal[..., None, 1] - r[..., 1] * normal[..., None, 0]
    chain = np.tril(np.ones((links, links)))[None, :, None, :]
    return values, cross * chain


def min_scenario_clearance(scenario: Scenario, state: RobotState) -> float:
    """Smallest signed distance over all (link, obstacle) pairs.

    +inf for an obstacle-free scenario.  Negative values mean penetration.
    """
    if not scenario.obstacles:
        return math.inf
    return float(clearances(scenario, state.position[None, :]).min())


@dataclass(frozen=True)
class CollisionLinearization:
    """Affine surrogate of one pair's signed distance around q0.

    sd(q) is approximated by value + gradient @ (q - q0); the gradient is the
    contact normal pulled back through the witness point Jacobian.
    """

    value: float
    gradient: np.ndarray = field(repr=False)
    link_index: int
    obstacle_index: int

    def __post_init__(self) -> None:
        g = np.asarray(self.gradient, dtype=float).copy()
        g.flags.writeable = False
        object.__setattr__(self, "gradient", g)


def linearize_collision_constraint(
    scenario: Scenario, state: RobotState, pair: tuple[int, int]
) -> CollisionLinearization:
    """Linearize the signed distance of (link, obstacle) at ``state``.

    The witness point on the robot is treated as rigidly attached to its
    link; for separated shapes this gives the exact first-order expansion.
    """
    link_index, obstacle_index = pair
    values, gradients = clearances(scenario, state.position[None, :], with_gradients=True)
    return CollisionLinearization(
        value=float(values[0, link_index, obstacle_index]),
        gradient=gradients[0, link_index, obstacle_index],
        link_index=link_index,
        obstacle_index=obstacle_index,
    )


def trajectory_collision_free(
    scenario: Scenario, trajectory: Trajectory, samples_per_edge: int = 5
) -> bool:
    """Whether clearance exceeds the safety margin along the whole path.

    Checks every waypoint plus ``samples_per_edge`` linearly interpolated
    configurations strictly inside each edge, so a pair of waypoints
    straddling a thin obstacle is still caught.
    """
    pos = trajectory.positions()
    t = (np.arange(1, samples_per_edge + 1) / (samples_per_edge + 1))[None, :, None]
    inner = (1.0 - t) * pos[:-1, None, :] + t * pos[1:, None, :]
    configs = np.concatenate([pos, inner.reshape(-1, trajectory.dim)])
    return not bool(np.any(clearances(scenario, configs) <= scenario.safety_margin))
