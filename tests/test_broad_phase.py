"""The broad phase keeps far pairs away from the exact kernel: a solve that
never comes near an obstacle makes no kernel call, one near pair is one
kernel pair, and outcomes stay those of the solver that sent every pair."""

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


def test_one_near_pair_is_one_kernel_pair(monkeypatch):
    scenario = bundled("arm_three_link.yaml")
    margin = scenario.safety_margin
    # fully stretched along +x: only the last link comes near the first disc
    near = Circle(np.array([2.0 + 0.05 + 0.05 + margin + 0.1, 0.0]), 0.05)
    far = Circle(np.array([-5.0, 5.0]), 0.2)
    scenario = replace(scenario, obstacles=(near, far))
    q = np.zeros((1, 3))
    batches = count_kernel_pairs(monkeypatch)
    values, gradients = clearances(scenario, q, with_gradients=True, cutoff=activation_distance(margin))
    assert batches == [1]
    exact, exact_gradients = clearances(scenario, q, with_gradients=True)
    assert values[0, 2, 0] == exact[0, 2, 0] == pytest.approx(margin + 0.1)
    np.testing.assert_array_equal(gradients[0, 2, 0], exact_gradients[0, 2, 0])
    assert np.count_nonzero(gradients) == np.count_nonzero(exact_gradients[0, 2, 0])


def inscribed_hexagon(circle, phase):
    angles = phase + np.arange(6) * math.pi / 3.0
    return ConvexPolygon(circle.center + circle.radius * np.stack([np.cos(angles), np.sin(angles)], axis=1))


# values of the solver that sent every pair to the exact kernel
POLYGON_PINS = {
    0: ("15.131551724137934", 1, "0.0"),
    3: ("16.756023486999492", 1, "0.13643302447923633"),
}


@pytest.mark.parametrize("splits", sorted(POLYGON_PINS))
def test_polygon_arm_outcomes_pinned(splits):
    scenario = bundled("arm_three_link.yaml")
    hexagons = tuple(inscribed_hexagon(o, phase) for o, phase in zip(scenario.obstacles, (0.2, 0.9)))
    report = run(replace(scenario, obstacles=hexagons), SplitConfig(num_splits=splits))
    assert (repr(report.objective), report.iterations, repr(report.residual)) == POLYGON_PINS[splits]
    assert report.converged and report.collision_free
    assert (report.nonconverged_segment_solves, report.qp_nonoptimal, report.kkt_fallbacks) == (0, 0, 0)
