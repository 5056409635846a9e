"""Trajectory optimization by consensus splitting of collision-aware NLPs."""

from .admm import SolveReport, SplitConfig, run, split_uniform
from .errors import ConfigError, EvaluatorError, ScenarioError, ShapeError, TrajsplitError
from .geometry import Capsule, Circle, ConvexPolygon, SignedDistanceResult, signed_distance
from .model import (
    BasePose,
    PlanarArm,
    Point2D,
    RobotState,
    Scenario,
    Trajectory,
    path_length,
    straight_line_init,
)
from .nlp import NlpProblem, NlpSolution, SolverOptions, solve

__version__ = "0.1.0"

__all__ = [
    "BasePose",
    "Capsule",
    "Circle",
    "ConfigError",
    "ConvexPolygon",
    "EvaluatorError",
    "NlpProblem",
    "NlpSolution",
    "PlanarArm",
    "Point2D",
    "RobotState",
    "Scenario",
    "ScenarioError",
    "ShapeError",
    "SignedDistanceResult",
    "SolveReport",
    "SolverOptions",
    "SplitConfig",
    "Trajectory",
    "TrajsplitError",
    "path_length",
    "run",
    "signed_distance",
    "solve",
    "split_uniform",
    "straight_line_init",
    "__version__",
]
