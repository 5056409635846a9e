"""Batched closed-form signed-distance kernel: property tests against the
per-pair query and the sampling oracle, the broad phase ahead of it, the
closed-form disc pairs that bypass it, batched forward kinematics, and
finite-difference checks of the batched collision rows on a polygon world
and on the bundled disc worlds."""

import math
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from conftest import oracle_signed_distance  # noqa: E402
from trajsplit.cli import bundled_scenario_dir  # noqa: E402
from trajsplit.collision import (  # noqa: E402
    activation_distance,
    clearance_bounds,
    clearances,
    gathered_clearances,
    link_count,
    pair_distance,
)
from trajsplit.geometry import (  # noqa: E402
    Capsule,
    Circle,
    ConvexPolygon,
    core_clearance,
    core_signed_distance,
    signed_distance,
    stack_cores,
)
from trajsplit.kinematics import forward_kinematics, link_segments  # noqa: E402
from trajsplit.model import BasePose, PlanarArm, Point2D, RobotState, Scenario  # noqa: E402
from trajsplit.nlp import convexify_segment, segment_layout  # noqa: E402
from trajsplit.scenario_io import load_scenario  # noqa: E402

coord = st.floats(-2.0, 2.0, allow_nan=False)
points = st.tuples(coord, coord).map(np.array)

circles = st.builds(Circle, points, st.floats(0.05, 1.0))
capsules = st.builds(
    lambda center, offset, radius: Capsule(center, center + offset, radius),
    points,
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(np.array),
    st.floats(0.0, 0.6),
)


@st.composite
def polygons(draw):
    """Jittered regular polygon under a rotation and a squash: always
    strictly convex and counterclockwise."""
    k = draw(st.integers(3, 7))
    jitter = draw(st.lists(st.floats(-0.3, 0.3), min_size=k, max_size=k))
    angles = 2.0 * math.pi * (np.arange(k) + np.array(jitter)) / k
    unit = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    radius = draw(st.floats(0.2, 1.2))
    squash = draw(st.floats(0.3, 1.0))
    turn = draw(st.floats(0.0, 2.0 * math.pi))
    rot = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
    return ConvexPolygon(draw(points) + (radius * unit * [1.0, squash]) @ rot.T)


shapes = st.one_of(circles, capsules, polygons())
shape_pairs = st.tuples(shapes, shapes)


def translate(shape, delta):
    if isinstance(shape, Circle):
        return Circle(shape.center + delta, shape.radius)
    if isinstance(shape, Capsule):
        return Capsule(shape.point_a + delta, shape.point_b + delta, shape.radius)
    return ConvexPolygon(shape.vertices + delta)


@given(st.lists(shape_pairs, min_size=1, max_size=8))
def test_batch_equals_per_pair(pairs):
    core_a, radius_a = stack_cores([a for a, _ in pairs])
    core_b, radius_b = stack_cores([b for _, b in pairs])
    value, point_a, point_b, normal = core_signed_distance(core_a, radius_a, core_b, radius_b)
    np.testing.assert_allclose(core_clearance(core_a, radius_a, core_b, radius_b), value, atol=1e-12)
    for i, (a, b) in enumerate(pairs):
        single = signed_distance(a, b)
        assert value[i] == pytest.approx(single.value, abs=1e-9)
        if abs(single.value) > 1e-6:
            np.testing.assert_allclose(normal[i], single.normal, atol=1e-6)
            np.testing.assert_allclose(point_a[i], single.point_a, atol=1e-6)
            np.testing.assert_allclose(point_b[i], single.point_b, atol=1e-6)


@given(shape_pairs)
def test_oracle_agreement(pair):
    a, b = pair
    assert signed_distance(a, b).value == pytest.approx(oracle_signed_distance(a, b), abs=1e-3)


@given(shape_pairs, st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)).map(np.array))
def test_symmetry_and_translation_invariance(pair, shift):
    a, b = pair
    ab, ba = signed_distance(a, b), signed_distance(b, a)
    assert ab.value == pytest.approx(ba.value, abs=1e-9)
    if ab.value > 1e-6:
        # disjoint shapes have a unique separating direction
        np.testing.assert_allclose(ab.normal, -ba.normal, atol=1e-6)
    moved = signed_distance(translate(a, shift), translate(b, shift))
    assert moved.value == pytest.approx(ab.value, abs=1e-9)


@given(shape_pairs)
def test_witnesses_span_the_separation(pair):
    res = signed_distance(*pair)
    assert np.linalg.norm(res.normal) == pytest.approx(1.0, abs=1e-12)
    # point_a - point_b = value * normal holds in both regimes
    np.testing.assert_allclose(res.point_a - res.point_b, res.value * res.normal, atol=1e-9)
    if res.value > 0.0:
        assert np.linalg.norm(res.point_a - res.point_b) == pytest.approx(res.value, rel=1e-8, abs=1e-9)


def test_overlap_cases_are_drawn():
    # the property tests above see penetrating pairs, not only disjoint ones
    seen = []

    @given(shape_pairs)
    def record(pair):
        seen.append(signed_distance(*pair).value < 0.0)

    record()
    assert sum(seen) >= 0.1 * len(seen)


def test_polygon_polygon_touching_and_nested():
    outer = ConvexPolygon(np.array([[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]]))
    inner = ConvexPolygon(np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]))
    # nested: inner must travel 2.5 to clear the outer square
    assert signed_distance(inner, outer).value == pytest.approx(-2.5, abs=1e-12)
    touching = ConvexPolygon(inner.vertices + [2.5, 0.0])
    assert abs(signed_distance(touching, outer).value) < 1e-12


class TestLinkSegments:
    def test_matches_per_configuration_fk(self, rng):
        arm = PlanarArm(link_lengths=(0.8, 0.7, 0.5), link_radius=0.05,
                        base=BasePose(x=0.3, y=-0.2, angle=0.4))
        qs = rng.uniform(-math.pi, math.pi, size=(6, 3))
        origins, endpoints = link_segments(arm, qs)
        assert origins.shape == endpoints.shape == (6, 3, 2)
        for i, q in enumerate(qs):
            for k, pose in enumerate(forward_kinematics(arm, q)):
                np.testing.assert_array_equal(origins[i, k], pose.origin)
                np.testing.assert_array_equal(endpoints[i, k], pose.endpoint)

    def test_point_robot_is_one_zero_length_link(self):
        qs = np.array([[1.0, 2.0], [-3.0, 0.5]])
        origins, endpoints = link_segments(Point2D(), qs)
        np.testing.assert_array_equal(origins[:, 0], qs)
        np.testing.assert_array_equal(endpoints[:, 0], qs)


def hexagon(center, radius, phase):
    angles = phase + np.arange(6) * math.pi / 3.0
    return ConvexPolygon(np.asarray(center) + radius * np.stack([np.cos(angles), np.sin(angles)], axis=1))


def polygon_arm_scenario(num_waypoints):
    # arm_three_link with its discs replaced by hexagons
    return Scenario(
        robot=PlanarArm(link_lengths=(0.8, 0.7, 0.5), link_radius=0.05),
        obstacles=(hexagon((1.3, 0.9), 0.3, 0.2), hexagon((1.5, -0.7), 0.3, 0.9)),
        start=RobotState.resting((-0.28, 1.35, -1.38)),
        goal=RobotState.resting((0.73, -1.55, 1.47)),
        num_waypoints=num_waypoints,
        dt=0.2,
        safety_margin=0.03,
        dynamics_enabled=False,
    )


def margin_values(scenario, layout, x):
    """margin - sd of every (waypoint, link, obstacle) triple, in row order."""
    return scenario.safety_margin - clearances(scenario, layout.positions(x)).ravel()


@given(
    st.one_of(
        st.just(Point2D()),
        st.builds(
            PlanarArm,
            link_lengths=st.lists(st.floats(0.3, 1.0), min_size=1, max_size=3).map(tuple),
            link_radius=st.floats(0.0, 0.2),
        ),
    ),
    st.lists(st.one_of(circles, polygons()), min_size=1, max_size=4),
    st.floats(0.0, 0.5),
    st.booleans(),
    st.data(),
)
def test_rows_carry_every_violated_pair(robot, obstacles, margin, dynamics, data):
    # The solver's merit and feasibility read only the rows at x, so their
    # positive entries must be exactly those of margin - sd over all pairs.
    count = data.draw(st.integers(2, 4))
    scenario = Scenario(
        robot=robot, obstacles=tuple(obstacles),
        start=RobotState.resting(np.zeros(robot.dim)), goal=RobotState.resting(np.zeros(robot.dim)),
        num_waypoints=count, dt=0.2, safety_margin=margin, dynamics_enabled=dynamics,
    )
    layout = segment_layout(scenario, 0, count - 1)
    bound = 2.0 if isinstance(robot, Point2D) else math.pi
    coords = st.floats(-bound, bound, allow_nan=False)
    x = np.array(data.draw(st.lists(coords, min_size=layout.size, max_size=layout.size)))
    rows, _ = convexify_segment(scenario, 0, count - 1, x).inequalities(x)
    full = margin_values(scenario, layout, x)
    np.testing.assert_array_equal(rows[rows > 0.0], full[full > 0.0])


@st.composite
def worlds(draw):
    """A point or arm robot (capsule links) among circles and polygons and a
    stack of configurations; the arm reaches into the obstacles."""
    robot = draw(st.one_of(
        st.just(Point2D()),
        st.builds(
            PlanarArm,
            link_lengths=st.lists(st.floats(0.3, 1.0), min_size=1, max_size=3).map(tuple),
            link_radius=st.floats(0.0, 0.3),
        ),
    ))
    obstacles = tuple(draw(st.lists(st.one_of(circles, polygons()), min_size=1, max_size=4)))
    scenario = Scenario(
        robot=robot, obstacles=obstacles,
        start=RobotState.resting(np.zeros(robot.dim)), goal=RobotState.resting(np.zeros(robot.dim)),
        num_waypoints=2, dt=0.2, safety_margin=0.0,
    )
    bound = 2.0 if isinstance(robot, Point2D) else math.pi
    config = st.lists(st.floats(-bound, bound), min_size=robot.dim, max_size=robot.dim)
    return scenario, np.array(draw(st.lists(config, min_size=1, max_size=5)))


@given(worlds(), st.data())
def test_broad_phase_bounds_and_cutoff(world, data):
    scenario, configs = world
    exact, exact_gradients = clearances(scenario, configs, with_gradients=True)
    # a disc's bound equals its signed distance up to roundoff
    bounds = clearance_bounds(scenario, *link_segments(scenario.robot, configs))
    assert np.all(bounds <= exact + 1e-12)

    # cutoffs at a pair's exact value probe the edge of the near set
    cutoff = data.draw(st.one_of(st.floats(-0.5, 1.0), st.sampled_from(exact.ravel().tolist())))
    values, gradients = clearances(scenario, configs, with_gradients=True, cutoff=cutoff)
    near = exact <= cutoff
    assert values[near].tobytes() == exact[near].tobytes()
    assert gradients[near].tobytes() == exact_gradients[near].tobytes()
    assert np.all(values[~near] > cutoff)
    # a pair left to its bound has no gradient
    assert np.all(gradients[values != exact] == 0.0)
    assert clearances(scenario, configs, cutoff=cutoff).tobytes() == values.tobytes()


@given(worlds(), st.floats(0.0, 0.3), st.booleans(), st.one_of(st.none(), st.floats(-0.5, 1.0)))
def test_gathered_rows_equal_dense_clearances(world, margin, dynamics, cutoff):
    scenario, configs = world
    count = len(configs)
    scenario = replace(scenario, safety_margin=margin, dynamics_enabled=dynamics, num_waypoints=max(count, 2))
    activation = activation_distance(margin)
    layout = segment_layout(scenario, 0, count - 1)
    x = layout.pack(configs, np.ones_like(configs))
    rows, jac = convexify_segment(scenario, 0, count - 1, x).inequalities(x)
    # the solver's rows are margin - sd of exactly the pairs within the
    # activation distance, in (waypoint, link, obstacle) order, each gradient
    # at its waypoint's position block
    exact, exact_gradients = clearances(scenario, configs, with_gradients=True)
    waypoint, link, obstacle = np.nonzero(exact <= activation)
    assert rows.tobytes() == (margin - exact[waypoint, link, obstacle]).tobytes()
    want = np.zeros((waypoint.size, layout.size))
    for r, (k, j, o) in enumerate(zip(waypoint, link, obstacle)):
        want[r, layout.position_slice(k)] = -exact_gradients[k, j, o]
    assert jac.tobytes() == want.tobytes()

    # the gathered pairs at any cutoff are the dense ones; the rest read their bound and no gradient
    for limit in (activation, cutoff):
        bounds, index, value, gradient = gathered_clearances(scenario, configs, limit)
        values, gradients = clearances(scenario, configs, with_gradients=True, cutoff=limit)
        assert value.tobytes() == values[index].tobytes() == exact[index].tobytes()
        assert gradient.tobytes() == gradients[index].tobytes() == exact_gradients[index].tobytes()
        beyond = np.ones(values.shape, dtype=bool)
        beyond[index] = False
        assert values[beyond].tobytes() == bounds[beyond].tobytes()
        assert not gradients[beyond].any()
        if limit is not None:
            assert np.all(bounds[beyond] > limit)


def test_broad_phase_worlds_draw_overlaps():
    # the property test above sees penetrating pairs, not only disjoint ones
    pairs, overlapping = [], []

    @given(worlds())
    def record(world):
        scenario, configs = world
        exact = clearances(scenario, configs)
        pairs.append(exact.size)
        overlapping.append(int(np.sum(exact < 0.0)))

    record()
    assert sum(overlapping) >= 0.05 * sum(pairs)


@st.composite
def disc_worlds(draw):
    """A point robot or a 1-3 link arm (link radius 0-0.3, base anywhere)
    and a stack of configurations among discs, some of them centred on a
    link core; the discs reach into the links as often as not."""
    robot = draw(st.one_of(
        st.just(Point2D()),
        st.builds(
            PlanarArm,
            link_lengths=st.lists(st.floats(0.3, 1.0), min_size=1, max_size=3).map(tuple),
            link_radius=st.floats(0.0, 0.3),
            base=st.builds(BasePose, x=coord, y=coord, angle=st.floats(-math.pi, math.pi)),
        ),
    ))
    bound = 2.0 if isinstance(robot, Point2D) else math.pi
    config = st.lists(st.floats(-bound, bound), min_size=robot.dim, max_size=robot.dim)
    configs = np.array(draw(st.lists(config, min_size=1, max_size=4)))
    origins, endpoints = link_segments(robot, configs)
    discs = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            i = draw(st.integers(0, len(configs) - 1))
            k = draw(st.integers(0, origins.shape[1] - 1))
            center = origins[i, k] + draw(st.floats(0.0, 1.0)) * (endpoints[i, k] - origins[i, k])
        else:
            center = draw(points)
        discs.append(Circle(center, draw(st.floats(0.05, 1.0))))
    scenario = Scenario(
        robot=robot, obstacles=tuple(discs),
        start=RobotState.resting(np.zeros(robot.dim)), goal=RobotState.resting(np.zeros(robot.dim)),
        num_waypoints=2, dt=0.2, safety_margin=0.0,
    )
    return scenario, configs


def kernel_clearances(scenario, configs):
    """Values and gradients of every pair through the general kernel."""
    robot = scenario.robot
    origins, endpoints = link_segments(robot, configs)
    body = origins[:, :, None, None] if isinstance(robot, Point2D) else np.stack([origins, endpoints], axis=2)[:, :, None]
    cores, radii = stack_cores(scenario.obstacles)
    link_radius = getattr(robot, "link_radius", 0.0)
    values, witness, _, normal = core_signed_distance(body, link_radius, cores, radii)
    core_gap, _, _, _ = core_signed_distance(body, 0.0, cores[:, :1], 0.0)
    if isinstance(robot, Point2D):
        return values, normal, core_gap
    links = origins.shape[1]
    r = witness[:, :, :, None, :] - origins[:, None, None, :, :]
    cross = r[..., 0] * normal[..., None, 1] - r[..., 1] * normal[..., None, 0]
    return values, cross * (np.arange(links)[None, :] <= np.arange(links)[:, None])[:, None], core_gap


@given(disc_worlds())
def test_disc_pairs_match_the_kernel(world):
    scenario, configs = world
    values, gradients = clearances(scenario, configs, with_gradients=True)
    kernel_values, kernel_gradients, core_gap = kernel_clearances(scenario, configs)
    # the kernel reads a core gap within its 1e-12 threshold as contact,
    # the closed form keeps it: 1e-12 plus the roundoff of the values
    np.testing.assert_allclose(values, kernel_values, rtol=0.0, atol=1e-12 + 1e-15)
    # Closer than about 1e-6, the kernel's own witness can slip: its axis
    # turns by roundoff over the gap, its 1e-9 face tolerance then drops
    # the far vertex of the link, and the witness moves half way to the
    # foot of the centre (a 2e-8 gap at a link's base gave half the true
    # gradient, which central differences confirm for the closed form).
    apart = core_gap > 1e-6
    np.testing.assert_allclose(gradients[apart], kernel_gradients[apart], rtol=0.0, atol=1e-9)
    # a centre on the core takes the fixed axis (1, 0): finite and unit length
    # (well inside the 1e-12 threshold, where roundoff cannot flip a side)
    on_core = core_gap <= 1e-13
    assert np.all(np.isfinite(gradients))
    if isinstance(scenario.robot, Point2D):
        np.testing.assert_array_equal(gradients[on_core], np.broadcast_to([1.0, 0.0], gradients[on_core].shape))
    else:
        config, link, obstacle = np.nonzero(on_core)
        origins, _ = link_segments(scenario.robot, configs)
        center = scenario.obstacle_cores.centers[obstacle]
        r = center[:, None, :] - origins[config]
        expected = -r[..., 1] * (np.arange(origins.shape[1]) <= link[:, None])
        np.testing.assert_allclose(gradients[on_core], expected, rtol=0.0, atol=1e-9)


def test_disc_worlds_draw_every_regime():
    # the property test above sees disjoint, penetrating and centre-on-core pairs
    seen = {"disjoint": 0, "penetrating": 0, "on core": 0}

    @given(disc_worlds())
    def record(world):
        values, _, core_gap = kernel_clearances(*world)
        seen["disjoint"] += int(np.sum(values > 0.0))
        seen["penetrating"] += int(np.sum((values < 0.0) & (core_gap > 1e-12)))
        seen["on core"] += int(np.sum(core_gap <= 1e-13))

    record()
    assert min(seen.values()) >= 10, seen


def test_clearances_match_per_pair_queries(rng):
    scenario = polygon_arm_scenario(4)
    qs = rng.uniform(-math.pi, math.pi, size=(5, 3))
    values, gradients = clearances(scenario, qs, with_gradients=True)
    assert values.shape == (5, link_count(scenario), 2)
    assert gradients.shape == (5, link_count(scenario), 2, 3)
    np.testing.assert_array_equal(clearances(scenario, qs), values)
    for i, q in enumerate(qs):
        for k in range(3):
            for j in range(2):
                assert values[i, k, j] == pytest.approx(pair_distance(scenario, q, k, j).value, abs=1e-12)
        # joints beyond a link cannot move it
        assert np.all(gradients[i, 0, :, 1:] == 0.0)
        assert np.all(gradients[i, 1, :, 2:] == 0.0)


def one_sided_jacobians(func, x, step):
    base = func(x)
    forward = np.zeros((base.size, x.size))
    backward = np.zeros((base.size, x.size))
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        forward[:, i] = (func(hi) - base) / step
        backward[:, i] = (base - func(lo)) / step
    return forward, backward


def assert_rows_match_finite_differences(scenario, rng, draws=200):
    # The convexified rows must be the derivatives of the merit values.  A
    # row whose one-sided differences disagree sits where its witness
    # switches features; the value is not differentiable there and such
    # rows are skipped, as in criterion 06.
    layout = segment_layout(scenario, 0, 3)
    activation = activation_distance(scenario.safety_margin)
    checked = 0
    for _ in range(draws):
        x = rng.uniform(-math.pi, math.pi, size=layout.size)
        problem = convexify_segment(scenario, 0, 3, x)
        row_vals, row_jac = problem.inequalities(x)
        full = margin_values(scenario, layout, x)
        active = np.nonzero(scenario.safety_margin - full <= activation)[0]
        np.testing.assert_array_equal(row_vals, full[active])
        if not active.size:
            continue
        forward, backward = one_sided_jacobians(lambda y: margin_values(scenario, layout, y)[active], x, 1e-7)
        central = 0.5 * (forward + backward)
        for r in range(active.size):
            scale = max(1.0, float(np.abs(central[r]).max()))
            if np.abs(forward[r] - backward[r]).max() / scale > 1e-3:
                continue
            assert np.abs(row_jac[r] - central[r]).max() / scale <= 1e-5
            checked += 1
        if checked >= 100:
            break
    assert checked >= 100


def test_batched_rows_match_finite_differences_on_polygons(rng):
    assert_rows_match_finite_differences(polygon_arm_scenario(4), rng)


@pytest.mark.parametrize("name", ["arm_three_link.yaml", "arm_two_link.yaml"])
def test_batched_rows_match_finite_differences_on_discs(rng, name):
    # the bundled arms among discs: every row comes from a disc's closed form;
    # random poses come near a disc less often than near the hexagons above
    scenario = load_scenario(bundled_scenario_dir() / name)
    assert scenario.obstacle_cores.disc.all()
    assert_rows_match_finite_differences(replace(scenario, num_waypoints=4), rng, draws=1000)
