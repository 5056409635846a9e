"""Scenario-level collision queries built on the shape engine.

The robot body is a set of convex shapes placed by forward kinematics: one
capsule per arm link, or a zero-radius disc for a point robot.  Every
clearance query evaluates all (configuration, link, obstacle) triples of a
configuration stack.  Each pair is bounded by the distance from the
obstacle's bounding circle to the link, which for a disc is the exact value.
Only polygon pairs, and with a cutoff (the solver's rows, the final check)
only those within it, reach one call of the batched signed-distance kernel.

Gradients come from one gathered pass (``gathered_clearances``), which
the solver's rows read directly and ``clearances`` scatters into dense
arrays; values alone (the final check) need neither normals nor pull-back.
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
)
from .kinematics import forward_kinematics, link_segments
from .kinematics import point_jacobian  # noqa: F401  (wrapped here by benchmark/tracing.py)
from .model import PlanarArm, Point2D, RobotState, Scenario, Trajectory

# Pairs farther apart than this are dropped from a convexification round;
# generous enough that anything able to collide within a trust step is kept.
ACTIVATION_OFFSET = 0.2
ACTIVATION_FACTOR = 3.0
# Broad-phase bounds are compared with a cutoff after this relative slack,
# so that their roundoff can never turn away a pair the kernel would keep.
CUTOFF_SLACK = 1e-9
# the kernel's axis for a centre within 1e-12 of the link core
_FIXED_AXIS = np.array([1.0, 0.0])


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


def _broad_phase(scenario: Scenario, origins, endpoints):
    """``clearance_bounds`` plus the link edges, the link-core parameter t
    closest to each centre and the gap to it."""
    obstacles = scenario.obstacle_cores
    edge = endpoints - origins
    rel = obstacles.centers - origins[:, :, None, :]
    length2 = (edge * edge).sum(axis=-1)[..., None]
    t = np.clip((rel * edge[:, :, None, :]).sum(axis=-1) / np.where(length2 > 0.0, length2, 1.0), 0.0, 1.0)
    gap = rel - t[..., None] * edge[:, :, None, :]
    bounds = np.hypot(gap[..., 0], gap[..., 1]) - obstacles.reach - getattr(scenario.robot, "link_radius", 0.0)
    return bounds, edge, t, gap


def clearance_bounds(scenario: Scenario, origins, endpoints) -> np.ndarray:
    """Lower bounds on the signed distance of every (configuration, link,
    obstacle) triple, given the link segments (m, links, 2) of ``link_segments``.

    Each bound is the signed distance from the link to the obstacle's
    bounding circle, which contains the obstacle: for a disc it is the exact
    signed distance, disjoint or penetrating.
    """
    return _broad_phase(scenario, origins, endpoints)[0]


def _near(bounds: np.ndarray, cutoff: float | None) -> np.ndarray:
    """Mask of the bounds within ``cutoff``, after its slack; all of them without one."""
    if cutoff is None:
        return np.ones(bounds.shape, dtype=bool)
    return bounds <= cutoff + CUTOFF_SLACK * max(1.0, abs(cutoff))


def _kernel_pairs(scenario: Scenario, origins, endpoints, config, link, obstacle) -> tuple:
    """The exact kernel's arguments for gathered (configuration, link, obstacle) triples."""
    model, obstacles = scenario.robot, scenario.obstacle_cores
    body = origins[config, link, None] if isinstance(model, Point2D) else np.stack(
        [origins[config, link], endpoints[config, link]], axis=1)
    return body, getattr(model, "link_radius", 0.0), obstacles.cores[obstacle], obstacles.radii[obstacle]


def _pull_back(model, origins, config, link, witness, normal) -> np.ndarray:
    """Gradients of gathered pairs: cross(witness - origin_j, normal) for arm joints j <= link."""
    if isinstance(model, Point2D):
        return normal
    r = witness[:, None, :] - origins[config]
    cross = r[..., 0] * normal[:, None, 1] - r[..., 1] * normal[:, None, 0]
    return cross * (np.arange(origins.shape[1]) <= link[:, None])


def gathered_clearances(scenario: Scenario, configs, cutoff: float | None = None):
    """The triples whose bound is within ``cutoff`` (all without one),
    gathered with their signed distances and gradients.

    Returns the bounds of every triple, (m, links, obstacles), and for the
    gathered ones, in (configuration, link, obstacle) order, their indices,
    exact values (pairs,) and gradients (pairs, n), from one kinematics pass
    and one broad phase.  Disc pairs take their bound and the closed-form
    normal and witness (see ``clearances``), polygon pairs the kernel's from
    one call, and one pull-back maps them all.  Needs obstacles.
    """
    model = scenario.robot
    origins, endpoints = link_segments(model, configs)
    bounds, edge, t, gap = _broad_phase(scenario, origins, endpoints)
    near = _near(bounds, cutoff)
    config, link, obstacle = np.nonzero(near)
    if not config.size:
        return bounds, (config, link, obstacle), np.zeros(0), np.zeros((0, model.dim))
    value, gap = bounds[near], gap[near]
    length = np.hypot(gap[:, 0], gap[:, 1])[:, None]
    normal = np.where(length <= 1e-12, _FIXED_AXIS, -gap / np.maximum(length, 1e-12))
    witness = origins[config, link] + t[near][:, None] * edge[config, link]
    disc = scenario.obstacle_cores.disc
    polygon = np.arange(value.size) if disc is None else (~disc[obstacle]).nonzero()[0]
    if polygon.size:
        value[polygon], witness[polygon], _, normal[polygon] = core_signed_distance(
            *_kernel_pairs(scenario, origins, endpoints, config[polygon], link[polygon], obstacle[polygon]))
    return bounds, (config, link, obstacle), value, _pull_back(model, origins, config, link, witness, normal)


def clearances(scenario: Scenario, configs, with_gradients: bool = False, cutoff: float | None = None):
    """Signed distance of every (configuration, link, obstacle) triple.

    ``configs`` is an (m, n) stack of configurations; the values come back
    as (m, links, obstacles).  With ``with_gradients`` the derivatives with
    respect to each configuration, (m, links, obstacles, n), come back too,
    with the robot-side witness taken as rigidly attached to its link.

    A disc pair's value is its exact bound from ``clearance_bounds``; its
    normal points from the disc centre to the witness, the closest point of
    the link core (the kernel's fixed axis (1, 0) when they are within 1e-12,
    its own threshold).  Only polygon pairs reach the exact kernel; with a
    ``cutoff``, only those whose bound is within it.  Pairs beyond the cutoff
    read their bound and a zero gradient, so every value up to it is exact.
    The gradients are ``gathered_clearances`` scattered into dense arrays.
    """
    configs = np.asarray(configs, dtype=float)
    model = scenario.robot
    if not scenario.obstacles:
        values = np.zeros((len(configs), link_count(scenario), 0))
        return (values, np.zeros(values.shape + (model.dim,))) if with_gradients else values
    if with_gradients:
        values, index, value, gradient = gathered_clearances(scenario, configs, cutoff)
        gradients = np.zeros(values.shape + (model.dim,))
        values[index], gradients[index] = value, gradient
        return values, gradients
    origins, endpoints = link_segments(model, configs)
    values = _broad_phase(scenario, origins, endpoints)[0]
    polygon = _near(values, cutoff)
    if scenario.obstacle_cores.disc is not None:
        polygon &= ~scenario.obstacle_cores.disc
    config, link, obstacle = np.nonzero(polygon)
    if config.size:
        values[polygon] = core_clearance(*_kernel_pairs(scenario, origins, endpoints, config, link, obstacle))
    return values


def min_scenario_clearance(scenario: Scenario, state: RobotState) -> float:
    """Smallest signed distance over all (link, obstacle) pairs.

    +inf for an obstacle-free scenario.  Negative values mean penetration.
    """
    return float(clearances(scenario, state.position[None, :]).min(initial=math.inf))


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


@dataclass(frozen=True)
class Contact:
    """A checked configuration within the safety margin of an obstacle.

    ``sample`` 0 is waypoint ``waypoint`` itself; ``sample`` s > 0 is the
    s-th interpolated configuration inside the edge that starts there.
    """

    waypoint: int
    sample: int
    link: int
    obstacle: int
    clearance: float

    def __str__(self) -> str:
        where = (f"waypoint {self.waypoint}" if self.sample == 0
                 else f"edge {self.waypoint}-{self.waypoint + 1} sample {self.sample}")
        return f"{where}, link {self.link}, obstacle {self.obstacle}, clearance {self.clearance!r}"


def first_contact(scenario: Scenario, trajectory: Trajectory, samples_per_edge: int = 5) -> Contact | None:
    """First checked configuration along the path within the safety margin.

    Checks every waypoint plus ``samples_per_edge`` linearly interpolated
    configurations strictly inside each edge, so a pair of waypoints
    straddling a thin obstacle is still caught.  The contact is the pair of
    least clearance at the first offending configuration; None if there is
    none.
    """
    pos = trajectory.positions()
    steps = samples_per_edge + 1
    t = (np.arange(steps) / steps)[None, :, None]
    path = ((1.0 - t) * pos[:-1, None, :] + t * pos[1:, None, :]).reshape(-1, trajectory.dim)
    values = clearances(scenario, np.concatenate([path, pos[-1:]]), cutoff=scenario.safety_margin)
    hits = np.flatnonzero(np.any(values <= scenario.safety_margin, axis=(1, 2)))
    if not hits.size:
        return None
    i = hits[0]
    link, obstacle = np.unravel_index(np.argmin(values[i]), values[i].shape)
    return Contact(int(i // steps), int(i % steps), int(link), int(obstacle), float(values[i, link, obstacle]))


def trajectory_collision_free(
    scenario: Scenario, trajectory: Trajectory, samples_per_edge: int = 5
) -> bool:
    """Whether clearance exceeds the safety margin along the whole path
    (see ``first_contact``)."""
    return first_contact(scenario, trajectory, samples_per_edge) is None
