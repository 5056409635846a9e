"""The broad phase keeps pairs away from the exact kernel: a disc pair never
reaches it, since the disc's bound is its exact signed distance, so solves
among discs make no kernel call; a solve that never comes near an obstacle
makes none either; one near polygon pair is one kernel pair; and polygon
outcomes stay those of the solver that sent every pair."""

import math
from dataclasses import replace

import numpy as np
import pytest

from trajsplit import collision
from trajsplit.admm import SplitConfig, run
from trajsplit.cli import bundled_scenario_dir
from trajsplit.collision import activation_distance, clearances
from trajsplit.geometry import Circle, ConvexPolygon
from trajsplit.scenario_io import load_scenario


def bundled(name):
    return load_scenario(bundled_scenario_dir() / name)


def count_kernel_pairs(monkeypatch) -> list:
    """Spy on both exact-kernel entry points as collision calls them; the
    list holds the number of pairs of each call."""
    batches = []
    for name in ("core_signed_distance", "core_clearance"):
        real = getattr(collision, name)

        def counting(*args, _real=real, **kwargs):
            out = _real(*args, **kwargs)
            batches.append((out[0] if isinstance(out, tuple) else out).size)
            return out

        monkeypatch.setattr(collision, name, counting)
    return batches


def test_far_obstacles_make_no_kernel_call(monkeypatch):
    scenario = bundled("arm_two_link.yaml")
    # the arm reaches at most the sum of its link lengths from its base
    reach = float(np.sum(scenario.robot.link_lengths))
    far = tuple(Circle(np.array([reach + 1.0 + k, 0.0]), 0.2) for k in range(2))
    scenario = replace(scenario, obstacles=far)
    batches = count_kernel_pairs(monkeypatch)
    for splits in (0, 2):
        report = run(scenario, SplitConfig(num_splits=splits))
        assert report.converged and report.collision_free
    assert batches == []


def assert_one_near_pair(monkeypatch, near, kernel_batches):
    scenario = bundled("arm_three_link.yaml")
    margin = scenario.safety_margin
    far = Circle(np.array([-5.0, 5.0]), 0.2)
    scenario = replace(scenario, obstacles=(near(margin), far))
    q = np.zeros((1, 3))
    batches = count_kernel_pairs(monkeypatch)
    values, gradients = clearances(scenario, q, with_gradients=True, cutoff=activation_distance(margin))
    assert batches == kernel_batches
    exact, exact_gradients = clearances(scenario, q, with_gradients=True)
    assert values[0, 2, 0] == exact[0, 2, 0] == pytest.approx(margin + 0.1)
    np.testing.assert_array_equal(gradients[0, 2, 0], exact_gradients[0, 2, 0])
    assert np.count_nonzero(gradients) == np.count_nonzero(exact_gradients[0, 2, 0])


def near_disc(margin):
    # fully stretched along +x: only the last link comes near this disc
    return Circle(np.array([2.0 + 0.05 + 0.05 + margin + 0.1, 0.0]), 0.05)


def test_one_near_disc_pair_makes_no_kernel_call(monkeypatch):
    # a disc's bound is its exact value, gradient included
    assert_one_near_pair(monkeypatch, near_disc, [])


def test_one_near_polygon_pair_is_one_kernel_pair(monkeypatch):
    # phase 0 puts a vertex of the hexagon where the disc is nearest the arm
    assert_one_near_pair(monkeypatch, lambda margin: inscribed_hexagon(near_disc(margin), 0.0), [1])


def inscribed_hexagon(circle, phase):
    angles = phase + np.arange(6) * math.pi / 3.0
    return ConvexPolygon(circle.center + circle.radius * np.stack([np.cos(angles), np.sin(angles)], axis=1))


# values of the solver that sent every pair to the exact kernel; the split
# run's were taken again when the segment KKT inverse became its structured
# parts, which moved its objective and residual in their last digits (4.2e-16
# and 6.1e-16 relative)
POLYGON_PINS = {
    0: ("15.131551724137934", 1, "0.0"),
    3: ("16.7560234869995", 1, "0.13643302447923641"),
}


@pytest.mark.parametrize("splits", sorted(POLYGON_PINS))
def test_polygon_arm_outcomes_pinned(splits):
    scenario = bundled("arm_three_link.yaml")
    hexagons = tuple(inscribed_hexagon(o, phase) for o, phase in zip(scenario.obstacles, (0.2, 0.9)))
    report = run(replace(scenario, obstacles=hexagons), SplitConfig(num_splits=splits))
    assert (repr(report.objective), report.iterations, repr(report.residual)) == POLYGON_PINS[splits]
    assert report.converged and report.collision_free
    assert (report.nonconverged_segment_solves, report.qp_nonoptimal, report.kkt_fallbacks) == (0, 0, 0)


@pytest.mark.parametrize("name, splits, rho", [
    ("circle_blocked.yaml", 4, 2.0),
    ("arm_suite/prob_00.yaml", 0, 50.0),
    ("arm_suite/prob_00.yaml", 3, 50.0),
])
def test_disc_solves_make_no_kernel_call(monkeypatch, name, splits, rho):
    batches = count_kernel_pairs(monkeypatch)
    run(bundled(name), SplitConfig(num_splits=splits, rho=rho))
    assert batches == []


def test_polygon_solve_still_reaches_the_kernel(monkeypatch):
    scenario = bundled("arm_three_link.yaml")
    hexagons = tuple(inscribed_hexagon(o, phase) for o, phase in zip(scenario.obstacles, (0.2, 0.9)))
    batches = count_kernel_pairs(monkeypatch)
    run(replace(scenario, obstacles=hexagons), SplitConfig(num_splits=3))
    assert batches
