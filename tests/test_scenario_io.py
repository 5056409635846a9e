"""Scenario files and solve reports: parsing, validation, round trips."""

import csv
import math

import numpy as np
import pytest
import yaml

from trajsplit import scenario_io
from trajsplit.admm import SplitConfig, run
from trajsplit.cli import bundled_scenario_dir
from trajsplit.errors import ScenarioError
from trajsplit.geometry import Circle, ConvexPolygon
from trajsplit.model import PlanarArm, Point2D, RobotState, Scenario, Trajectory, path_length
from trajsplit.scenario_io import (
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_to_dict,
    write_report,
)

POINT_SCENARIO = """\
robot:
  type: point2d
obstacles:
  - type: circle
    center: [0.0, -1.0]
    radius: 1.0
  - type: polygon
    vertices: [[2.0, 0.0], [3.0, 0.0], [3.0, 1.0], [2.0, 1.0]]
start:
  position: [-3.0, 0.0]
  velocity: [1.0, 0.5]
goal:
  position: [3.0, 0.0]
num_waypoints: 40
dt: 0.25
safety_margin: 0.05
dynamics_enabled: true
"""

ARM_SCENARIO = """\
robot:
  type: planar_arm
  link_lengths: [1.0, 0.8]
  link_radius: 0.05
  base: {x: 0.1, y: -0.2, angle: 0.3}
  joint_limits: [[-3.0, 3.0], [-3.0, 3.0]]
obstacles: []
start:
  position: [0.2, 0.1]
goal:
  position: [1.0, -0.5]
num_waypoints: 20
dt: 0.2
safety_margin: 0.03
dynamics_enabled: false
"""


def scenarios_equal(a: Scenario, b: Scenario) -> bool:
    if type(a.robot) is not type(b.robot):
        return False
    if isinstance(a.robot, PlanarArm):
        arm_a, arm_b = a.robot, b.robot
        if not np.array_equal(arm_a.link_lengths, arm_b.link_lengths):
            return False
        if arm_a.link_radius != arm_b.link_radius:
            return False
        if (arm_a.base.x, arm_a.base.y, arm_a.base.angle) != (arm_b.base.x, arm_b.base.y, arm_b.base.angle):
            return False
        lim_a, lim_b = arm_a.joint_limits, arm_b.joint_limits
        if (lim_a is None) != (lim_b is None):
            return False
        if lim_a is not None and not np.array_equal(lim_a, lim_b):
            return False
    if len(a.obstacles) != len(b.obstacles):
        return False
    for oa, ob in zip(a.obstacles, b.obstacles):
        if type(oa) is not type(ob):
            return False
        if isinstance(oa, Circle):
            if not np.array_equal(oa.center, ob.center) or oa.radius != ob.radius:
                return False
        else:
            if not np.array_equal(oa.vertices, ob.vertices):
                return False
    return (
        np.array_equal(a.start.position, b.start.position)
        and np.array_equal(a.start.velocity, b.start.velocity)
        and np.array_equal(a.goal.position, b.goal.position)
        and np.array_equal(a.goal.velocity, b.goal.velocity)
        and a.num_waypoints == b.num_waypoints
        and a.dt == b.dt
        and a.safety_margin == b.safety_margin
        and a.dynamics_enabled == b.dynamics_enabled
    )


class TestParse:
    def test_point_scenario_fields(self):
        scenario = parse_scenario(POINT_SCENARIO, source="inline.yaml")
        assert isinstance(scenario.robot, Point2D)
        assert len(scenario.obstacles) == 2
        assert isinstance(scenario.obstacles[0], Circle)
        np.testing.assert_allclose(scenario.obstacles[0].center, [0.0, -1.0], atol=0.0)
        assert scenario.obstacles[0].radius == 1.0
        assert isinstance(scenario.obstacles[1], ConvexPolygon)
        np.testing.assert_allclose(scenario.start.position, [-3.0, 0.0], atol=0.0)
        np.testing.assert_allclose(scenario.start.velocity, [1.0, 0.5], atol=0.0)
        np.testing.assert_allclose(scenario.goal.velocity, [0.0, 0.0], atol=0.0)
        assert scenario.num_waypoints == 40
        assert scenario.dt == 0.25
        assert scenario.safety_margin == 0.05
        assert scenario.dynamics_enabled

    def test_arm_scenario_fields(self):
        scenario = parse_scenario(ARM_SCENARIO)
        arm = scenario.robot
        assert isinstance(arm, PlanarArm)
        np.testing.assert_allclose(arm.link_lengths, [1.0, 0.8], atol=0.0)
        assert arm.link_radius == 0.05
        assert (arm.base.x, arm.base.y, arm.base.angle) == (0.1, -0.2, 0.3)
        np.testing.assert_allclose(arm.joint_limits, [[-3.0, 3.0], [-3.0, 3.0]], atol=0.0)
        assert not scenario.dynamics_enabled

    def test_unknown_key_location(self):
        bad = POINT_SCENARIO.replace("safety_margin: 0.05", "safety_margin: 0.05\nbogus_key: 1")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad, source="case.yaml")
        assert "bogus_key" in str(err.value)
        assert "case.yaml:17:1" in str(err.value)

    def test_duplicate_key_rejected(self):
        bad = POINT_SCENARIO + "dt: 0.5\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad, source="dup.yaml")
        assert "duplicate key 'dt'" in str(err.value)
        assert "dup.yaml:" in str(err.value)

    def test_missing_required_key(self):
        bad = POINT_SCENARIO.replace("dt: 0.25\n", "")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert "missing required key 'dt'" in str(err.value)

    def test_unknown_robot_type(self):
        bad = POINT_SCENARIO.replace("type: point2d", "type: quadrotor")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert "quadrotor" in str(err.value)

    def test_unknown_obstacle_type(self):
        bad = POINT_SCENARIO.replace("type: circle", "type: ellipse")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert "ellipse" in str(err.value)

    def test_dimension_mismatch_names_field(self):
        bad = POINT_SCENARIO.replace("position: [-3.0, 0.0]", "position: [-3.0, 0.0, 1.0]")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert "start position" in str(err.value)

    def test_non_numeric_entry(self):
        bad = POINT_SCENARIO.replace("radius: 1.0", "radius: big")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert "expected a number" in str(err.value)

    def test_invalid_yaml(self):
        with pytest.raises(ScenarioError):
            parse_scenario("robot: [unclosed")

    def test_empty_document(self):
        with pytest.raises(ScenarioError):
            parse_scenario("")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "nope.yaml")


class TestRoundTrip:
    def test_inline_scenarios(self, tmp_path):
        for text in (POINT_SCENARIO, ARM_SCENARIO):
            first = parse_scenario(text)
            path = tmp_path / "again.yaml"
            save_scenario(first, path)
            second = load_scenario(path)
            assert scenarios_equal(first, second)
            # serializing the reparsed scenario changes nothing
            assert scenario_to_dict(first) == scenario_to_dict(second)

    def test_bundled_scenarios(self, tmp_path):
        files = sorted(bundled_scenario_dir().rglob("*.yaml"))
        assert len(files) >= 31  # six named cases plus the 25-problem suite
        for file in files:
            first = load_scenario(file)
            path = tmp_path / file.name
            save_scenario(first, path)
            assert scenarios_equal(first, load_scenario(path))


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    scenario_path = bundled_scenario_dir() / "corridor_free.yaml"
    scenario = load_scenario(scenario_path)
    config = SplitConfig(num_splits=2, rho=5.0, eps=1e-3, max_admm_iterations=200)
    report = run(scenario, config)
    out = tmp_path_factory.mktemp("report") / "run.yaml"
    yaml_path, csv_path = write_report(report, out, str(scenario_path), config, seed=7)
    return report, yaml_path, csv_path


class TestReports:
    def test_path_length_recomputes(self, solved):
        report, yaml_path, _ = solved
        doc = yaml.safe_load(yaml_path.read_text())
        states = doc["trajectory"]["waypoints"]
        pos = np.array([w["position"] for w in states])
        vel = np.array([w["velocity"] for w in states])
        acc = np.array([w["acceleration"] for w in states])
        rebuilt = Trajectory.from_arrays(pos, vel, acc, doc["trajectory"]["dt"])
        assert doc["result"]["path_length"] == pytest.approx(path_length(rebuilt), abs=1e-9)
        assert doc["result"]["converged"] is True
        assert doc["solver"]["seed"] == 7

    def test_iteration_table(self, solved):
        report, _, csv_path = solved
        with csv_path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["iteration", "residual", "cumulative_seconds"]
        assert len(rows) - 1 == report.iterations
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i + 1
            # residuals are printed with repr so they reload losslessly
            assert float(row[1]) == report.residual_history[i]
        seconds = [float(row[2]) for row in rows[1:]]
        assert seconds == sorted(seconds)

    def test_residual_history_round_trips(self, solved):
        report, yaml_path, _ = solved
        doc = yaml.safe_load(yaml_path.read_text())
        assert doc["residual_history"] == [float(r) for r in report.residual_history]
        assert doc["result"]["residual"] == report.residual_history[-1]


BAD_SCENARIOS = {
    "unknown key": POINT_SCENARIO.replace("safety_margin: 0.05", "safety_margin: 0.05\nbogus_key: 1"),
    "duplicate key": POINT_SCENARIO + "dt: 0.5\n",
    "missing key": POINT_SCENARIO.replace("dt: 0.25\n", ""),
    "robot type": POINT_SCENARIO.replace("type: point2d", "type: quadrotor"),
    "dimension": POINT_SCENARIO.replace("position: [-3.0, 0.0]", "position: [-3.0, 0.0, 1.0]"),
    "not a number": POINT_SCENARIO.replace("radius: 1.0", "radius: big"),
    "not a pair": ARM_SCENARIO.replace("[-3.0, 3.0]]", "[-3.0, 3.0, 1.0]]"),
    "flow mapping": ARM_SCENARIO.replace("angle: 0.3}", "angle: [0.3]}"),
    "limits": ARM_SCENARIO.replace("position: [0.2, 0.1]", "position: [3.2, 0.1]"),
}


class TestPurePythonYaml:
    """libyaml (``CSafeLoader``, ``CSafeDumper``) and the pure-Python classes
    give the same scenarios, the same located errors and the same files."""

    def both(self, monkeypatch, action):
        first = action()
        monkeypatch.setattr(scenario_io, "_LOADER", yaml.SafeLoader)
        monkeypatch.setattr(scenario_io, "_DUMPER", yaml.SafeDumper)
        second = action()
        monkeypatch.undo()
        return first, second

    def test_libyaml_is_used_where_built(self):
        assert scenario_io._LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        assert scenario_io._DUMPER is getattr(yaml, "CSafeDumper", yaml.SafeDumper)

    def test_same_scenarios(self, monkeypatch):
        files = sorted(bundled_scenario_dir().rglob("*.yaml"))
        for text, source in [(POINT_SCENARIO, "p.yaml"), (ARM_SCENARIO, "a.yaml")] + [
            (f.read_text(), str(f)) for f in files
        ]:
            first, second = self.both(monkeypatch, lambda: parse_scenario(text, source))
            assert scenarios_equal(first, second)
            assert scenario_to_dict(first) == scenario_to_dict(second)

    @pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
    def test_same_located_errors(self, monkeypatch, case):
        def message():
            with pytest.raises(ScenarioError) as err:
                parse_scenario(BAD_SCENARIOS[case], source="bad.yaml")
            return str(err.value)

        first, second = self.both(monkeypatch, message)
        assert first == second
        assert first.startswith("bad.yaml:")

    def test_same_location_for_invalid_yaml(self, monkeypatch):
        def location():
            with pytest.raises(ScenarioError) as err:
                parse_scenario("robot: [unclosed", source="broken.yaml")
            return err.value.location

        assert self.both(monkeypatch, location) == ("broken.yaml", "broken.yaml")

    def test_same_dumps(self, monkeypatch, tmp_path, solved):
        report, _, _ = solved
        scenario = parse_scenario(ARM_SCENARIO)
        config = SplitConfig(num_splits=2, rho=5.0, eps=1e-3, max_admm_iterations=200)

        def dumps():
            save_scenario(scenario, tmp_path / "s.yaml")
            write_report(report, tmp_path / "r.yaml", "corridor_free.yaml", config, seed=7)
            return (tmp_path / "s.yaml").read_bytes(), (tmp_path / "r.yaml").read_bytes()

        first, second = self.both(monkeypatch, dumps)
        assert first == second
