"""Signed-distance engine tests: worked cases, witness identities, and
agreement with the dense support-sampling oracle."""

import math

import numpy as np
import pytest

from conftest import oracle_signed_distance, random_shape
from trajsplit.errors import ShapeError
from trajsplit.geometry import (
    Capsule,
    Circle,
    ConvexPolygon,
    signed_distance,
)

UNIT_SQUARE = ConvexPolygon(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))


def test_circle_circle_separated():
    a = Circle(np.array([0.0, 0.0]), 1.0)
    b = Circle(np.array([3.0, 0.0]), 1.0)
    res = signed_distance(a, b)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(res.point_a, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(res.point_b, [2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(res.normal, [-1.0, 0.0], atol=1e-12)


def test_circle_circle_overlapping():
    a = Circle(np.array([0.0, 0.0]), 1.0)
    b = Circle(np.array([0.5, 0.0]), 1.0)
    assert signed_distance(a, b).value == pytest.approx(-1.5, abs=1e-12)


def test_circle_circle_concentric():
    a = Circle(np.array([0.0, 0.0]), 1.0)
    b = Circle(np.array([0.0, 0.0]), 1.0)
    assert signed_distance(a, b).value == pytest.approx(-2.0, abs=1e-12)


def test_capsule_circle_analytic():
    cap = Capsule(np.array([0.0, 0.0]), np.array([2.0, 0.0]), 0.25)
    ball = Circle(np.array([1.0, 1.0]), 0.5)
    res = signed_distance(cap, ball)
    assert res.value == pytest.approx(0.25, abs=1e-12)
    np.testing.assert_allclose(res.point_a, [1.0, 0.25], atol=1e-12)


def test_polygon_circle_gjk():
    ball = Circle(np.array([2.5, 0.0]), 1.0)
    res = signed_distance(UNIT_SQUARE, ball)
    assert res.value == pytest.approx(0.5, abs=1e-9)


def test_polygon_polygon_penetration_epa():
    other = ConvexPolygon(np.array([[0.5, -1.0], [2.5, -1.0], [2.5, 1.0], [0.5, 1.0]]))
    res = signed_distance(UNIT_SQUARE, other)
    assert res.value == pytest.approx(-0.5, abs=1e-9)
    # minimum translation: moving A by |value| along the normal separates them
    np.testing.assert_allclose(res.normal, [-1.0, 0.0], atol=1e-9)


def test_point_inside_rectangle_reports_nearest_face():
    point = Circle(np.array([-0.03, 0.1]), 0.0)
    wall = ConvexPolygon(np.array([[-0.05, -1.2], [0.05, -1.2], [0.05, 1.2], [-0.05, 1.2]]))
    res = signed_distance(point, wall)
    assert res.value == pytest.approx(-0.02, abs=1e-9)
    np.testing.assert_allclose(res.normal, [-1.0, 0.0], atol=1e-9)


def test_parallel_capsules_witness_at_overlap_midpoint():
    a = Capsule(np.array([0.0, 0.0]), np.array([2.0, 0.0]), 0.1)
    b = Capsule(np.array([0.0, 1.0]), np.array([2.0, 1.0]), 0.1)
    res = signed_distance(a, b)
    assert res.value == pytest.approx(0.8, abs=1e-12)
    assert res.point_a[0] == pytest.approx(1.0, abs=1e-9)
    assert res.point_b[0] == pytest.approx(1.0, abs=1e-9)


def test_witness_separation_identity(rng):
    for _ in range(100):
        a, b = random_shape(rng), random_shape(rng)
        res = signed_distance(a, b)
        if res.value > 1e-9:
            assert np.linalg.norm(res.point_a - res.point_b) == pytest.approx(
                res.value, rel=1e-8, abs=1e-9)
            np.testing.assert_allclose(
                res.normal, (res.point_a - res.point_b) / res.value, atol=1e-7)


def test_symmetry(rng):
    for _ in range(100):
        a, b = random_shape(rng), random_shape(rng)
        ab = signed_distance(a, b)
        ba = signed_distance(b, a)
        assert ab.value == pytest.approx(ba.value, abs=1e-9)
        if abs(ab.value) > 1e-6:
            np.testing.assert_allclose(ab.normal, -ba.normal, atol=1e-6)


def test_translation_invariance(rng):
    shift = np.array([3.7, -1.9])
    for _ in range(50):
        a, b = random_shape(rng), random_shape(rng)
        moved = signed_distance(_translate(a, shift), _translate(b, shift))
        assert moved.value == pytest.approx(signed_distance(a, b).value, abs=1e-9)


def _translate(shape, delta):
    if isinstance(shape, Circle):
        return Circle(shape.center + delta, shape.radius)
    if isinstance(shape, Capsule):
        return Capsule(shape.point_a + delta, shape.point_b + delta, shape.radius)
    return ConvexPolygon(shape.vertices + delta)


def test_circle_circle_exact_random(rng):
    for _ in range(200):
        ca, cb = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
        ra, rb = rng.uniform(0.01, 3.0), rng.uniform(0.01, 3.0)
        expected = float(np.linalg.norm(ca - cb) - ra - rb)
        got = signed_distance(Circle(ca, ra), Circle(cb, rb)).value
        assert got == pytest.approx(expected, abs=1e-12)


def test_oracle_agreement_sample(rng):
    # the full 500-pair sweep lives in the acceptance suite; spot-check here
    for _ in range(50):
        a, b = random_shape(rng), random_shape(rng)
        got = signed_distance(a, b).value
        want = oracle_signed_distance(a, b)
        assert got == pytest.approx(want, abs=1e-3)


def test_touching_shapes_near_zero():
    a = Circle(np.array([0.0, 0.0]), 1.0)
    b = Circle(np.array([2.0, 0.0]), 1.0)
    assert abs(signed_distance(a, b).value) < 1e-12


def test_invalid_shapes_rejected():
    with pytest.raises(ShapeError):
        Circle(np.array([0.0, 0.0]), -1.0)
    with pytest.raises(ShapeError):
        ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ShapeError):
        # clockwise winding
        ConvexPolygon(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ShapeError):
        # non-convex chain
        ConvexPolygon(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.1], [1.0, 2.0]]))
