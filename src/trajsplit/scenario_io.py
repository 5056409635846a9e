"""Scenario and report files.

Scenarios are YAML mappings validated against a fixed schema; every
complaint carries a file:line:column location from the parsed node tree, and
unknown keys are rejected rather than ignored.  Reports are written as a
YAML summary plus a flat per-iteration CSV next to it.  Parsing and emitting
go through libyaml when PyYAML was built with it (``CSafeLoader``,
``CSafeDumper``), else through the pure-Python classes; both give the same
nodes, marks and output.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import yaml
from yaml.constructor import SafeConstructor

from .errors import ScenarioError, ShapeError
from .geometry import Circle, ConvexPolygon
from .model import BasePose, PlanarArm, Point2D, RobotState, Scenario, Trajectory

_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

_ROOT_KEYS = {
    "robot", "obstacles", "start", "goal",
    "num_waypoints", "dt", "safety_margin", "dynamics_enabled",
}


class _Node:
    """A YAML node plus enough context to name its file location."""

    def __init__(self, node: yaml.Node, source: str):
        self.node = node
        self.source = source

    @property
    def where(self) -> str:
        mark = self.node.start_mark
        return f"{self.source}:{mark.line + 1}:{mark.column + 1}"

    def fail(self, message: str) -> "ScenarioError":
        return ScenarioError(message, location=self.where)

    def mapping(self) -> dict[str, "_Node"]:
        if not isinstance(self.node, yaml.MappingNode):
            raise self.fail("expected a mapping")
        out: dict[str, _Node] = {}
        for key_node, value_node in self.node.value:
            key = key_node.value
            if not isinstance(key, str):
                raise _Node(key_node, self.source).fail("mapping keys must be strings")
            if key in out:
                raise _Node(key_node, self.source).fail(f"duplicate key '{key}'")
            out[key] = _Node(value_node, self.source)
        return out

    def sequence(self) -> list["_Node"]:
        if not isinstance(self.node, yaml.SequenceNode):
            raise self.fail("expected a list")
        return [_Node(item, self.source) for item in self.node.value]

    def scalar(self):
        if not isinstance(self.node, yaml.ScalarNode):
            raise self.fail("expected a scalar value")
        return SafeConstructor().construct_object(self.node)

    def as_float(self) -> float:
        value = self.scalar()
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise self.fail(f"expected a number, got {value!r}")
        return float(value)

    def as_int(self) -> int:
        value = self.scalar()
        if isinstance(value, bool) or not isinstance(value, int):
            raise self.fail(f"expected an integer, got {value!r}")
        return value

    def as_bool(self) -> bool:
        value = self.scalar()
        if not isinstance(value, bool):
            raise self.fail(f"expected a boolean, got {value!r}")
        return value

    def as_str(self) -> str:
        value = self.scalar()
        if not isinstance(value, str):
            raise self.fail(f"expected a string, got {value!r}")
        return value

    def as_vector(self) -> np.ndarray:
        return np.array([item.as_float() for item in self.sequence()])

    def as_pairs(self) -> np.ndarray:
        rows = []
        for item in self.sequence():
            row = item.as_vector()
            if row.shape != (2,):
                raise item.fail(f"expected a pair of numbers, got {row.shape[0]} entries")
            rows.append(row)
        return np.array(rows).reshape(len(rows), 2)


def _check_keys(fields: dict[str, _Node], allowed: set[str], required: set[str], owner: _Node) -> None:
    for key, node in fields.items():
        if key not in allowed:
            raise node.fail(f"unknown key '{key}'")
    for key in sorted(required):
        if key not in fields:
            raise owner.fail(f"missing required key '{key}'")


def _parse_robot(node: _Node):
    fields = node.mapping()
    if "type" not in fields:
        raise node.fail("missing required key 'type'")
    kind = fields["type"].as_str()
    if kind == "point2d":
        _check_keys(fields, {"type"}, {"type"}, node)
        return Point2D()
    if kind == "planar_arm":
        allowed = {"type", "link_lengths", "link_radius", "base", "joint_limits"}
        _check_keys(fields, allowed, {"type", "link_lengths", "link_radius"}, node)
        base = BasePose(0.0, 0.0, 0.0)
        if "base" in fields:
            base_fields = fields["base"].mapping()
            _check_keys(base_fields, {"x", "y", "angle"}, {"x", "y"}, fields["base"])
            base = BasePose(
                x=base_fields["x"].as_float(),
                y=base_fields["y"].as_float(),
                angle=base_fields["angle"].as_float() if "angle" in base_fields else 0.0,
            )
        limits = fields["joint_limits"].as_pairs() if "joint_limits" in fields else None
        try:
            return PlanarArm(
                link_lengths=fields["link_lengths"].as_vector(),
                link_radius=fields["link_radius"].as_float(),
                base=base,
                joint_limits=limits,
            )
        except (ScenarioError, ShapeError) as exc:
            raise node.fail(str(exc)) from exc
    raise fields["type"].fail(f"unknown robot type '{kind}'")


def _parse_obstacle(node: _Node):
    fields = node.mapping()
    if "type" not in fields:
        raise node.fail("missing required key 'type'")
    kind = fields["type"].as_str()
    try:
        if kind == "circle":
            _check_keys(fields, {"type", "center", "radius"}, {"type", "center", "radius"}, node)
            center = fields["center"].as_vector()
            if center.shape != (2,):
                raise fields["center"].fail("center must be [x, y]")
            return Circle(center=center, radius=fields["radius"].as_float())
        if kind == "polygon":
            _check_keys(fields, {"type", "vertices"}, {"type", "vertices"}, node)
            return ConvexPolygon(vertices=fields["vertices"].as_pairs())
    except ShapeError as exc:
        raise node.fail(str(exc)) from exc
    raise fields["type"].fail(f"unknown obstacle type '{kind}'")


def _parse_state(node: _Node, dim: int, what: str) -> RobotState:
    fields = node.mapping()
    _check_keys(fields, {"position", "velocity"}, {"position"}, node)
    position = fields["position"].as_vector()
    if position.shape != (dim,):
        raise fields["position"].fail(
            f"{what} position has {position.shape[0]} entries, robot has {dim} degrees of freedom"
        )
    if "velocity" in fields:
        velocity = fields["velocity"].as_vector()
        if velocity.shape != (dim,):
            raise fields["velocity"].fail(
                f"{what} velocity has {velocity.shape[0]} entries, robot has {dim} degrees of freedom"
            )
    else:
        velocity = np.zeros(dim)
    return RobotState(position, velocity, np.zeros(dim))


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse and validate scenario YAML, raising located ScenarioError."""
    try:
        node = yaml.compose(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"invalid YAML: {exc}", location=source) from exc
    if node is None:
        raise ScenarioError("empty scenario file", location=source)
    root = _Node(node, source)
    fields = root.mapping()
    _check_keys(fields, _ROOT_KEYS, _ROOT_KEYS, root)

    robot = _parse_robot(fields["robot"])
    dim = 2 if isinstance(robot, Point2D) else len(robot.link_lengths)
    obstacles = tuple(_parse_obstacle(item) for item in fields["obstacles"].sequence())
    try:
        return Scenario(
            robot=robot,
            obstacles=obstacles,
            start=_parse_state(fields["start"], dim, "start"),
            goal=_parse_state(fields["goal"], dim, "goal"),
            num_waypoints=fields["num_waypoints"].as_int(),
            dt=fields["dt"].as_float(),
            safety_margin=fields["safety_margin"].as_float(),
            dynamics_enabled=fields["dynamics_enabled"].as_bool(),
        )
    except ScenarioError as exc:
        if getattr(exc, "location", None):
            raise
        raise root.fail(str(exc)) from exc


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    return parse_scenario(text, source=str(path))


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-type mapping that parses back to an equivalent scenario."""
    if isinstance(scenario.robot, Point2D):
        robot: dict = {"type": "point2d"}
    else:
        arm = scenario.robot
        robot = {
            "type": "planar_arm",
            "link_lengths": [float(v) for v in arm.link_lengths],
            "link_radius": float(arm.link_radius),
            "base": {"x": float(arm.base.x), "y": float(arm.base.y), "angle": float(arm.base.angle)},
        }
        if arm.joint_limits is not None:
            robot["joint_limits"] = [[float(lo), float(hi)] for lo, hi in arm.joint_limits]
    obstacles = []
    for obstacle in scenario.obstacles:
        if isinstance(obstacle, Circle):
            obstacles.append({
                "type": "circle",
                "center": [float(v) for v in obstacle.center],
                "radius": float(obstacle.radius),
            })
        else:
            obstacles.append({
                "type": "polygon",
                "vertices": [[float(x), float(y)] for x, y in obstacle.vertices],
            })
    return {
        "robot": robot,
        "obstacles": obstacles,
        "start": {
            "position": [float(v) for v in scenario.start.position],
            "velocity": [float(v) for v in scenario.start.velocity],
        },
        "goal": {
            "position": [float(v) for v in scenario.goal.position],
            "velocity": [float(v) for v in scenario.goal.velocity],
        },
        "num_waypoints": scenario.num_waypoints,
        "dt": float(scenario.dt),
        "safety_margin": float(scenario.safety_margin),
        "dynamics_enabled": scenario.dynamics_enabled,
    }


def _dump(data: dict) -> str:
    """``yaml.safe_dump(data, sort_keys=False)`` through ``_DUMPER``."""
    return yaml.dump(data, Dumper=_DUMPER, sort_keys=False)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(_dump(scenario_to_dict(scenario)))


def _trajectory_to_dict(trajectory: Trajectory) -> dict:
    return {
        "dt": float(trajectory.dt),
        "waypoints": [
            {"position": q, "velocity": v, "acceleration": a}
            for q, v, a in zip(trajectory.pos.tolist(), trajectory.vel.tolist(), trajectory.acc.tolist())
        ],
    }


def report_to_dict(report, scenario_path: str, config, seed: int | None = None) -> dict:
    """Full solve record with plain types only, ready for yaml.safe_dump."""
    out = {
        "scenario": str(scenario_path),
        "solver": {
            "num_splits": config.num_splits,
            "rho": float(config.rho),
            "eps": float(config.eps),
            "max_admm_iterations": config.max_admm_iterations,
            "samples_per_edge": config.samples_per_edge,
            "seed": seed,
            "nlp": {
                "max_outer_iterations": config.nlp_options.max_outer_iterations,
                "feasibility_tolerance": float(config.nlp_options.feasibility_tolerance),
                "step_tolerance": float(config.nlp_options.step_tolerance),
            },
        },
        "result": {
            "converged": report.converged,
            "collision_free": report.collision_free,
            "objective": float(report.objective),
            "path_length": float(report.path_length),
            "iterations": report.iterations,
            "residual": float(report.residual),
            "dual_imbalance": float(report.dual_imbalance),
            "num_segments": report.num_segments,
            "split_indices": [int(s) for s in report.split_indices],
            "segment_solves_converged": report.segment_solves_converged,
            "nonconverged_segment_solves": report.nonconverged_segment_solves,
            "deadline_reached": report.deadline_reached,
            "qp_nonoptimal": report.qp_nonoptimal,
            "kkt_fallbacks": report.kkt_fallbacks,
            "factorizations": report.factorizations,
            "failed_segments": [int(i) for i in report.failed_segments],
            "coarse_waypoints": report.coarse_waypoints,
            "coarse_rounds": report.coarse_rounds,
            "coarse_converged": report.coarse_converged,
            "coarse_collision_free": report.coarse_collision_free,
        },
        "timing": {
            "wall_seconds_total": float(report.wall_seconds_total),
            "wall_seconds_primal": float(report.wall_seconds_primal),
            "wall_seconds_consensus": float(report.wall_seconds_consensus),
        },
        "residual_history": [float(r) for r in report.residual_history],
        "trajectory": _trajectory_to_dict(report.trajectory),
    }
    return out


def write_report(report, out_path: str | Path, scenario_path: str, config, seed: int | None = None) -> tuple[Path, Path]:
    """Write the YAML report and its .iters.csv companion; returns both paths."""
    out_path = Path(out_path)
    out_path.write_text(_dump(report_to_dict(report, scenario_path, config, seed)))
    csv_path = out_path.with_suffix(".iters.csv")
    with csv_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "residual", "cumulative_seconds"])
        for i, (residual, seconds) in enumerate(zip(report.residual_history, report.iteration_seconds), start=1):
            writer.writerow([i, repr(float(residual)), f"{seconds:.6f}"])
    return out_path, csv_path
