"""Domain types: robots, obstacles, scenarios, trajectories.

All types are immutable after construction; numpy fields are stored as
read-only float64 arrays so a value handed out cannot be changed in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ScenarioError, ShapeError
from .geometry import Circle, ConvexPolygon, bounding_circles, stack_cores

Obstacle = Circle | ConvexPolygon


class ObstacleCores(NamedTuple):
    """A scenario's obstacles as the kernel takes them (``stack_cores``), one
    enclosing circle each (``bounding_circles``) and a disc mask, None without discs."""

    cores: np.ndarray
    radii: np.ndarray
    centers: np.ndarray
    reach: np.ndarray
    disc: np.ndarray | None


def _frozen_array(value, name: str, *, ndim: int = 1, shape: tuple[int, ...] | None = None) -> np.ndarray:
    a = np.asarray(value, dtype=float)
    if shape is not None and a.shape != shape:
        raise ScenarioError(f"{name} must have shape {shape}, got {a.shape}")
    if a.ndim != ndim and shape is None:
        raise ScenarioError(f"{name} must be a {ndim}D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ScenarioError(f"{name} must be finite, got {a}")
    a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RobotState:
    """Configuration-space state: position, velocity, acceleration.

    For a point robot the position is its planar location; for an arm it is
    the joint angle vector.  All three fields share one dimension.  A
    scenario's start and goal are states; a trajectory holds arrays.
    """

    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray

    def __post_init__(self) -> None:
        pos = _frozen_array(self.position, "position")
        vel = _frozen_array(self.velocity, "velocity", shape=pos.shape)
        acc = _frozen_array(self.acceleration, "acceleration", shape=pos.shape)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)
        object.__setattr__(self, "acceleration", acc)

    @property
    def dim(self) -> int:
        return self.position.shape[0]

    @staticmethod
    def resting(position) -> "RobotState":
        """State at ``position`` with zero velocity and acceleration."""
        p = np.asarray(position, dtype=float)
        return RobotState(p, np.zeros_like(p), np.zeros_like(p))


@dataclass(frozen=True)
class Trajectory:
    """Waypoint positions, velocities and accelerations with a fixed timestep.

    ``pos``, ``vel`` and ``acc`` are read-only (N, d) arrays, one row per
    waypoint; ``positions()`` and its siblings hand out those arrays.
    """

    pos: np.ndarray
    vel: np.ndarray
    acc: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        pos = _frozen_array(self.pos, "trajectory positions", ndim=2)
        if pos.shape[0] < 1:
            raise ScenarioError("trajectory needs at least one state")
        object.__setattr__(self, "pos", pos)
        for name, what in (("vel", "velocities"), ("acc", "accelerations")):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), f"trajectory {what}", shape=pos.shape))
        if not np.isfinite(self.dt) or self.dt <= 0.0:
            raise ScenarioError(f"trajectory dt must be > 0, got {self.dt}")

    def __len__(self) -> int:
        return self.pos.shape[0]

    @property
    def dim(self) -> int:
        return self.pos.shape[1]

    def positions(self) -> np.ndarray:
        return self.pos

    def velocities(self) -> np.ndarray:
        return self.vel

    def accelerations(self) -> np.ndarray:
        return self.acc

    @staticmethod
    def from_arrays(positions, velocities, accelerations, dt: float) -> "Trajectory":
        return Trajectory(positions, velocities, accelerations, dt)


@dataclass(frozen=True)
class Point2D:
    """Point robot in the plane; its configuration is its position."""

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class BasePose:
    """Planar pose of an arm base: position plus orientation angle."""

    x: float = 0.0
    y: float = 0.0
    angle: float = 0.0

    def __post_init__(self) -> None:
        if not all(np.isfinite(v) for v in (self.x, self.y, self.angle)):
            raise ScenarioError("base pose fields must be finite")


@dataclass(frozen=True)
class PlanarArm:
    """Serial planar arm with revolute joints.

    ``link_lengths`` gives one segment length per joint; every link carries a
    collision capsule of radius ``link_radius``.  ``joint_limits`` is an
    optional (n, 2) array of per-joint [lower, upper] position bounds.
    """

    link_lengths: np.ndarray
    link_radius: float
    base: BasePose = field(default_factory=BasePose)
    joint_limits: np.ndarray | None = None

    def __post_init__(self) -> None:
        lengths = np.asarray(self.link_lengths, dtype=float)
        if lengths.ndim != 1 or lengths.shape[0] < 1:
            raise ScenarioError("link_lengths must be a non-empty 1D sequence")
        if not np.all(np.isfinite(lengths)) or np.any(lengths <= 0.0):
            raise ShapeError(f"link lengths must be positive, got {lengths}")
        if not np.isfinite(self.link_radius) or self.link_radius < 0.0:
            raise ShapeError(f"link radius must be >= 0, got {self.link_radius}")
        lengths = lengths.copy()
        lengths.flags.writeable = False
        object.__setattr__(self, "link_lengths", lengths)
        if self.joint_limits is not None:
            lim = np.asarray(self.joint_limits, dtype=float)
            if lim.shape != (lengths.shape[0], 2):
                raise ScenarioError(
                    f"joint_limits must have shape ({lengths.shape[0]}, 2), got {lim.shape}"
                )
            if not np.all(np.isfinite(lim)) or np.any(lim[:, 0] >= lim[:, 1]):
                raise ScenarioError("joint_limits rows must be finite [lower, upper] with lower < upper")
            lim = lim.copy()
            lim.flags.writeable = False
            object.__setattr__(self, "joint_limits", lim)

    @property
    def dim(self) -> int:
        return self.link_lengths.shape[0]


RobotModel = Point2D | PlanarArm


def validate_obstacle(obstacle: Obstacle) -> None:
    """Reject obstacle shapes a scenario must not contain."""
    if isinstance(obstacle, Circle):
        if obstacle.radius <= 0.0:
            raise ShapeError(f"obstacle circle radius must be > 0, got {obstacle.radius}")
    elif not isinstance(obstacle, ConvexPolygon):
        raise ShapeError(f"obstacles must be circles or convex polygons, got {type(obstacle).__name__}")


@dataclass(frozen=True)
class Scenario:
    """One planning problem: robot, world, boundary states, discretization."""

    robot: RobotModel
    obstacles: tuple[Obstacle, ...]
    start: RobotState
    goal: RobotState
    num_waypoints: int
    dt: float
    safety_margin: float
    dynamics_enabled: bool = True
    # built once from ``obstacles``; None without obstacles
    obstacle_cores: ObstacleCores | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        obstacles = tuple(self.obstacles)
        for obs in obstacles:
            validate_obstacle(obs)
        object.__setattr__(self, "obstacles", obstacles)
        disc = np.array([isinstance(o, Circle) for o in obstacles])
        cores = ObstacleCores(*stack_cores(obstacles), *bounding_circles(obstacles),
                              disc if disc.any() else None) if obstacles else None
        object.__setattr__(self, "obstacle_cores", cores)
        d = self.robot.dim
        if self.start.dim != d:
            raise ScenarioError(f"start state has dimension {self.start.dim}, robot expects {d}")
        if self.goal.dim != d:
            raise ScenarioError(f"goal state has dimension {self.goal.dim}, robot expects {d}")
        if self.num_waypoints < 2:
            raise ScenarioError(f"num_waypoints must be >= 2, got {self.num_waypoints}")
        if not np.isfinite(self.dt) or self.dt <= 0.0:
            raise ScenarioError(f"dt must be > 0, got {self.dt}")
        if not np.isfinite(self.safety_margin) or self.safety_margin < 0.0:
            raise ScenarioError(f"safety_margin must be >= 0, got {self.safety_margin}")
        limits = getattr(self.robot, "joint_limits", None)
        if limits is not None:
            for name, state in (("start", self.start), ("goal", self.goal)):
                if np.any(state.position < limits[:, 0]) or np.any(state.position > limits[:, 1]):
                    raise ScenarioError(f"{name} position violates joint limits")

    @property
    def dim(self) -> int:
        return self.robot.dim


def straight_line_init(scenario: Scenario) -> Trajectory:
    """Straight-line seed trajectory between the scenario endpoints.

    Positions interpolate linearly from start to goal (endpoints exact),
    every velocity is the constant (goal - start) / ((N-1) dt), and all
    accelerations are zero.
    """
    n = scenario.num_waypoints
    d = scenario.dim
    start = scenario.start.position
    goal = scenario.goal.position
    positions = np.linspace(start, goal, n)
    vel = (goal - start) / ((n - 1) * scenario.dt)
    velocities = np.tile(vel, (n, 1))
    accelerations = np.zeros((n, d))
    return Trajectory.from_arrays(positions, velocities, accelerations, scenario.dt)


def path_length(trajectory: Trajectory) -> float:
    """Sum of Euclidean distances between consecutive waypoint positions."""
    pos = trajectory.positions()
    return float(np.sum(np.linalg.norm(np.diff(pos, axis=0), axis=1)))
