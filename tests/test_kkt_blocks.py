"""The base KKT inverse of one coordinate's blocks.

A segment's cost, dynamics and pins act on each coordinate alone and alike,
so its Hessian and equalities are one coordinate's blocks B and A_1 of
H = kron(B, I_d) and A_eq = kron(A_1, I_d), held as a ``Band`` and
``DynamicsRows`` (``np.asarray`` expands them).  ``kkt_inverse`` holds the
inverse of [[B + prox I, A_1'], [A_1, 0]] as P + Q T^-1 Q': the velocities,
Euler rows and pins eliminated in closed form, and the free positions'
tridiagonal T inverted through its generators; below ``DENSE_SIZE`` rows
those parts are multiplied out once, dense.  Its answers must be those of
the dense inverse of the expanded matrix (``conftest.dense``), and a solve of
the block problem must be that of the expanded one.
"""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from trajsplit import nlp  # noqa: E402
from trajsplit.admm import SplitConfig, run, split_uniform  # noqa: E402
from trajsplit.cli import bundled_scenario_dir  # noqa: E402
from trajsplit.errors import ConfigError  # noqa: E402
from trajsplit.nlp import (  # noqa: E402
    ConsensusCoupling,
    NlpProblem,
    SolverOptions,
    build_segment_objective,
    kkt_inverse,
    project_to_affine,
    segment_equalities,
    solve,
    solve_qp,
)
from trajsplit.scenario_io import load_scenario  # noqa: E402

from conftest import LU_CONDENSED_RESIDUAL, dense, kkt_matrix, one_coordinate, stretched  # noqa: E402

SCENARIOS = {name: load_scenario(bundled_scenario_dir() / name)
             for name in ("circle_blocked.yaml", "arm_two_link.yaml", "arm_three_link.yaml")}
SHIFT = 1e-10


def dense_inverse(hessian, a_eq, shift=SHIFT):
    return np.linalg.inv(kkt_matrix(hessian, a_eq, shift))


def both_forms(hessian, a_eq, d):
    """``kkt_inverse`` held as its parts (``DENSE_SIZE`` 0), then as it is held by default."""
    for dense_size in (0, nlp.DENSE_SIZE):
        with mock.patch.object(nlp, "DENSE_SIZE", dense_size):
            inverse = kkt_inverse(hessian, a_eq, d, SHIFT)
        assert (inverse.dense is None) == (inverse.size >= dense_size) and not inverse.pseudo
        yield inverse


def assert_same_inverse(inverse, want, rng):
    scale = np.abs(want).max()
    size = want.shape[0]
    rhs = rng.normal(size=size)
    np.testing.assert_allclose(inverse.solve(rhs), want @ rhs, rtol=1e-10, atol=1e-10 * scale * np.abs(rhs).max())
    idx = rng.choice(size, size=min(size, 5), replace=False)
    np.testing.assert_allclose(inverse.rows(idx), want[idx], rtol=1e-10, atol=1e-10 * scale)
    for i in (*idx, size - 1):
        np.testing.assert_allclose(inverse.rows(int(i)), want[i], rtol=1e-10, atol=1e-10 * scale)
        assert inverse.entry(int(i)) == pytest.approx(want[i, i], rel=1e-10, abs=1e-10 * scale)


@st.composite
def segments(draw):
    """A segment's Hessian and equality blocks: point or arm, with or without dynamics, pins and couplings.

    Long ones run from 30 to 64 waypoints, anywhere on a longer grid, so
    that both pinned ends, one or none occur.
    """
    scenario = SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))]
    long = draw(st.booleans())
    length = draw(st.integers(30, 64) if long else st.integers(2, 12))
    count = draw(st.integers(max(length, 4), length + 10))
    scenario = replace(scenario, num_waypoints=count, dynamics_enabled=draw(st.booleans()))
    first = draw(st.integers(0, count - length))
    last = first + length - 1
    sd = 2 * scenario.dim if scenario.dynamics_enabled else scenario.dim
    # as in a split run, every unpinned end is coupled at rho > 0, which keeps
    # the KKT matrix well conditioned enough to compare two inverses at 1e-10
    coupled = [k for k, pinned in ((0, first == 0), (last - first, last == count - 1)) if not pinned]
    couplings = [ConsensusCoupling(k, np.zeros(sd), np.zeros(sd)) for k in coupled]
    rho = draw(st.sampled_from([2.0, 50.0]))
    hessian = build_segment_objective(scenario, first, last, couplings, rho).hessian_matrix
    a_eq, b_eq = segment_equalities(scenario, first, last)
    return scenario.dim, hessian, a_eq, b_eq, draw(st.integers(0, 2**32 - 1))


@given(segments())
def test_block_inverse_matches_dense_inverse(segment):
    d, hessian, a_eq, _, seed = segment
    want = dense_inverse(dense(hessian, d), dense(a_eq, d))
    for inverse in both_forms(hessian, a_eq, d):
        assert inverse.coordinates == d
        assert inverse.size * d == want.shape[0]
        assert_same_inverse(inverse, want, np.random.default_rng(seed))


@given(segments())
def test_block_problem_matches_expanded_problem(segment):
    # the block objective and a solve of the block problem are those of the
    # kron-expanded problem, solved as one coordinate (d = 1)
    d, hessian, a_eq, b_eq, seed = segment
    rng = np.random.default_rng(seed)
    n = hessian.shape[0] * d
    linear = rng.normal(size=n)
    block = nlp.QuadraticFunction(hessian_matrix=hessian, linear=linear, constant=0.5)
    expanded = nlp.QuadraticFunction(hessian_matrix=dense(hessian, d), linear=linear, constant=0.5)
    x = rng.normal(size=n)
    (got, got_grad), (want, want_grad) = block.value_and_grad(x), expanded.value_and_grad(x)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(got_grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())
    assert block.value(x) == got

    def keepout(x):
        return np.array([0.5 - x[n // 2]]), -np.eye(1, x.size, n // 2)

    problems = [NlpProblem(dim=n, objective=objective, a_eq=a, b_eq=b_eq, inequalities=keepout)
                for objective, a in ((block, a_eq), (expanded, dense(a_eq, d)))]
    blocks, whole = (solve(p, SolverOptions(max_outer_iterations=100)) for p in problems)
    assert blocks.converged == whole.converged
    assert blocks.iterations == whole.iterations
    # the expanded solve's dense inverse can leave its equalities 1e-10 off
    # (a pinned start of 2 waypoints), where the blocks hold them exactly: its
    # point is projected onto them, which moves it no farther from the true
    # optimum, a point that holds them
    expanded_a = dense(a_eq, d)
    assert whole.max_equality_violation < 1e-9
    want = whole.point + np.linalg.lstsq(expanded_a, b_eq - expanded_a @ whole.point, rcond=None)[0]
    np.testing.assert_allclose(blocks.point, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("count, which", [(40, "mono"), (160, "mono"), (320, "mono"),
                                          (640, "first"), (640, "middle"), (640, "last")])
def test_projection_matches_dense_least_norm(count, which):
    # a dynamics block of any size has its pins applied and its Euler rows'
    # Gram matrix swept, which gives the dense least-norm step (segments of a
    # split4 run)
    scenario = stretched("circle_blocked.yaml", count)
    edges = [0, *split_uniform(count, 3), count - 1]
    first, last = {"mono": (0, count - 1), "first": edges[:2], "middle": edges[1:3], "last": edges[-2:]}[which]
    a_eq, b_eq = segment_equalities(scenario, first, last)
    x = np.random.default_rng(count).normal(size=a_eq.shape[1] * scenario.dim)
    pinned_step, steps = nlp._pinned_step, []
    with mock.patch.object(nlp, "_pinned_step", lambda *args: steps.append(pinned_step(*args)) or steps[-1]):
        got = project_to_affine(x, a_eq, b_eq)
    assert steps[0] is not None
    expanded = dense(a_eq, scenario.dim)
    want = x + np.linalg.lstsq(expanded, b_eq - expanded @ x, rcond=None)[0]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    np.testing.assert_allclose(expanded @ got, b_eq, rtol=0, atol=1e-12 * (1 + np.abs(b_eq).max()))


def test_one_coordinate_matches_the_dense_inverse():
    hessian = build_segment_objective(SCENARIOS["circle_blocked.yaml"], 0, 9).hessian_matrix
    a_eq, _ = segment_equalities(SCENARIOS["circle_blocked.yaml"], 0, 9)
    want = dense_inverse(hessian, a_eq)
    for inverse in both_forms(hessian, a_eq, 1):
        np.testing.assert_allclose(one_coordinate(inverse), want, rtol=0, atol=1e-12 * np.abs(want).max())


# --- the condensed factor on blocks that runs build ----------------------------


def coordinate_block(hessian, a_eq, d):
    """The rows and columns of coordinate 0: the block ``kkt_inverse`` inverts."""
    return hessian[::d, ::d], a_eq[::d, ::d]


def assert_condensed_matches_dense(hessian, a_eq, d, tolerance):
    """The inverse, as its parts and as held by default, agrees with the dense inverse to ``tolerance`` of its
    largest entry; a block held dense is symmetric."""
    want = dense_inverse(*coordinate_block(dense(hessian, d), dense(a_eq, d), d))
    for inverse in both_forms(hessian, a_eq, d):
        assert inverse.coordinates == d
        got = one_coordinate(inverse)
        np.testing.assert_allclose(got, want, rtol=0, atol=tolerance * np.abs(want).max())
        if inverse.dense is not None:
            np.testing.assert_array_equal(got, got.T)


@pytest.mark.parametrize("count", [40, 160, 640])
def test_mono_block_is_condensed_and_matches_dense_inverse(count):
    scenario = stretched("circle_blocked.yaml", count)
    hessian = build_segment_objective(scenario, 0, count - 1).hessian_matrix
    a_eq, _ = segment_equalities(scenario, 0, count - 1)
    assert_condensed_matches_dense(hessian, a_eq, scenario.dim, 1e-9)


@pytest.mark.parametrize("which", ["first", "middle", "last"])
def test_split_segment_block_is_condensed_and_matches_dense_inverse(which):
    # segments of a split4 run (4 segments) at N = 160, coupled at every split end at rho 2
    scenario = stretched("circle_blocked.yaml", 160)
    edges = [0, *split_uniform(160, 3), 159]
    first, last = {"first": edges[:2], "middle": edges[1:3], "last": edges[-2:]}[which]
    sd = 2 * scenario.dim
    coupled = [k for k, pinned in ((0, first == 0), (last - first, last == 159)) if not pinned]
    couplings = [ConsensusCoupling(k, np.ones(sd), np.zeros(sd)) for k in coupled]
    hessian = build_segment_objective(scenario, first, last, couplings, 2.0).hessian_matrix
    a_eq, _ = segment_equalities(scenario, first, last)
    assert_condensed_matches_dense(hessian, a_eq, scenario.dim, 1e-9)


def test_path_only_block_matches_the_dense_inverse():
    # a path graph's Laplacian couples every variable: no velocities, the pins
    # eliminated, and T is the Laplacian on the free positions
    scenario = stretched("arm_three_link.yaml", 120)
    hessian = build_segment_objective(scenario, 0, 119).hessian_matrix
    a_eq, _ = segment_equalities(scenario, 0, 119)
    assert_condensed_matches_dense(hessian, a_eq, scenario.dim, 1e-12)


@pytest.mark.parametrize("extra", ["hessian", "row"])
def test_block_of_another_shape_is_the_dense_inverse_bit_for_bit(extra):
    # a Hessian entry between positions 5 and 9, or a row p_3 - p_7 = 0, is no
    # segment's structure: the arrays are inverted whole
    scenario = stretched("circle_blocked.yaml", 40)
    hessian = build_segment_objective(scenario, 0, 39).hessian_matrix
    a_eq, _ = segment_equalities(scenario, 0, 39)
    if extra == "hessian":
        hessian = np.array(hessian)
        hessian[10, 18] = hessian[18, 10] = 0.1
    else:
        a_eq = np.vstack([a_eq, np.eye(1, a_eq.shape[1], 6) - np.eye(1, a_eq.shape[1], 14)])
    inverse = kkt_inverse(hessian, a_eq, scenario.dim, SHIFT)
    assert inverse.dense is not None and not inverse.pseudo
    want = dense_inverse(hessian, a_eq)
    np.testing.assert_array_equal(inverse.dense, 0.5 * (want + want.T))


def test_singular_condensed_block_is_a_pseudo_inverse():
    # the start's position pins twice: the second pin repeats the first, so
    # the block is singular and answered whole by its pseudo-inverse
    scenario = stretched("circle_blocked.yaml", 40)
    hessian = build_segment_objective(scenario, 0, 39).hessian_matrix
    a_eq, _ = segment_equalities(scenario, 0, 39)
    pins = 39  # the first pin row: the start's position
    a_eq = np.asarray(a_eq)
    a_eq = np.vstack([a_eq, a_eq[pins : pins + 1]])
    inverse = kkt_inverse(hessian, a_eq, scenario.dim, SHIFT)
    assert inverse.pseudo and inverse.coordinates == scenario.dim
    h, a = coordinate_block(dense(hessian, scenario.dim), dense(a_eq, scenario.dim), scenario.dim)
    kkt = kkt_matrix(h, a, SHIFT)
    np.testing.assert_allclose(kkt @ inverse.dense @ kkt, kkt, atol=1e-9)


@pytest.mark.parametrize("d", [1, 2])
def test_violated_elastic_row_of_zeros_changes_nothing(d):
    # a violated row with a zero Jacobian (a collision gradient can be zero)
    # ties at once: it adds a constant penalty and reads no row of the inverse
    # d = 1 factors the expanded matrices as one coordinate, d = 2 the blocks
    scenario = SCENARIOS["circle_blocked.yaml"]
    hessian = build_segment_objective(scenario, 0, 9).hessian_matrix
    a_eq, b_eq = segment_equalities(scenario, 0, 9)
    n = hessian.shape[0] * scenario.dim
    if d == 1:
        hessian, a_eq = dense(hessian, scenario.dim), dense(a_eq, scenario.dim)
    gradient = np.linspace(-1.0, 1.0, n)
    keepout = -np.eye(1, n, 4)
    inverse = kkt_inverse(hessian, a_eq, d, SHIFT)
    assert inverse.rows(np.zeros(0, dtype=int)).shape == (0, inverse.size * d)
    args = dict(lower=np.full(n, -5.0), upper=np.full(n, 5.0), base_inverse=inverse)
    want, want_optimal = solve_qp(hessian, gradient, a_eq, b_eq, keepout, np.array([-0.5]),
                                  penalty=np.array([10.0]), **args)
    got, optimal = solve_qp(hessian, gradient, a_eq, b_eq, np.vstack([np.zeros(n), keepout]),
                            np.array([-1.0, -0.5]), penalty=np.array([10.0, 10.0]), **args)
    assert optimal and want_optimal
    np.testing.assert_array_equal(got, want)


def test_solve_from_a_zero_gradient_row():
    # stay outside the unit ball, starting at its centre, where the row's gradient is zero
    target = np.array([2.0, 0.5, 1.0, 1.0])
    objective = nlp.QuadraticFunction(hessian_matrix=np.eye(2), linear=-target)  # the block of 2 coordinates

    def outside(x):
        return np.array([1.0 - x @ x]), -2.0 * x[None, :]

    base = kkt_inverse(np.eye(2), np.zeros((0, 2)), 2, nlp.PROX_REGULARIZATION)
    assert base.coordinates == 2
    problem = NlpProblem(dim=4, objective=objective, inequalities=outside, base_inverse=base)
    sol = solve(problem, SolverOptions(max_outer_iterations=200))
    assert sol.converged
    np.testing.assert_allclose(sol.point, target, atol=1e-6)


def test_base_inverse_of_another_size_rejected():
    objective = nlp.QuadraticFunction(hessian_matrix=np.eye(4), linear=np.zeros(4))
    base = kkt_inverse(np.eye(4), np.eye(1, 4), 1, nlp.PROX_REGULARIZATION)
    with pytest.raises(ConfigError, match="size 4"):
        solve(NlpProblem(dim=4, objective=objective, base_inverse=base))


# --- the mono point-horizon solve at N=160 -------------------------------------


def mono_n160():
    base = SCENARIOS["circle_blocked.yaml"]
    return replace(base, num_waypoints=160, dt=9.75 / 159), SplitConfig(num_splits=0, rho=2.0, eps=0.05)


def test_mono_inverts_one_coordinate_block(monkeypatch):
    factored, made = [], []

    def spying(real):
        def spy(matrix, *args, **kwargs):
            factored.append(matrix.shape[0])
            return real(matrix, *args, **kwargs)
        return spy

    # every dense factorization, whether taken as an inverse or a solve
    for name in ("inv", "solve"):
        monkeypatch.setattr(np.linalg, name, spying(getattr(np.linalg, name)))
    real = nlp.kkt_inverse
    monkeypatch.setattr(nlp, "kkt_inverse", lambda *args: made.append((args, real(*args))) or made[-1][1])
    report = run(*mono_n160())
    assert report.converged
    # 160 waypoints of (x, y, vx, vy): 640 variables and 159 * 2 + 8 rows,
    # 966 in all, 483 per coordinate, held as its parts: no dense
    # factorization of the block, nor of the projection's Gram matrix
    assert factored and max(factored) < 163
    ((hessian, a_eq, d, shift), inverse), = made
    assert inverse.dense is None and inverse.size == 483 and d == 2
    want = np.linalg.inv(kkt_matrix(hessian, a_eq, shift))
    np.testing.assert_allclose(one_coordinate(inverse), want, rtol=0,
                               atol=10 * LU_CONDENSED_RESIDUAL["mono"] * np.abs(want).max())


def traced_peak(call, *args):
    tracemalloc.start()
    try:
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_mono_transient_memory():
    # the dense inverse was 483^2 doubles, 1.87 MB; its parts take O(483)
    # entries, the Hessian band and the equality rows 5 KB, and the SCP's
    # rows and iterates make up most of the rest
    report, peak = traced_peak(run, *mono_n160())
    assert report.converged
    assert peak < 1.2e6


def test_long_mono_memory():
    # mono N=1280: the factor peaked at 120 MB with its dense inverse (3843^2
    # doubles) and the run at 168 MB.  Beyond the parts' 3.0 MB the run holds
    # the dense collision Jacobian: 376-408 rows of 5120 columns, 15-17 MB each
    scenario = stretched("circle_blocked.yaml", 1280)
    hessian = build_segment_objective(scenario, 0, 1279).hessian_matrix
    a_eq, _ = segment_equalities(scenario, 0, 1279)
    inverse, peak = traced_peak(kkt_inverse, hessian, a_eq, scenario.dim, SHIFT)
    assert inverse.dense is None and peak < 10e6
    report, peak = traced_peak(run, scenario, SplitConfig(num_splits=0))
    assert report.converged and peak < 60e6


@pytest.mark.parametrize("which", ["mono", "middle"])
def test_condensed_residual(which):
    # the mono N=160 block, and the middle segment of a split4 run at N = 160, coupled at both ends at rho 2
    scenario = stretched("circle_blocked.yaml", 160)
    first, last = (0, 159) if which == "mono" else [0, *split_uniform(160, 3), 159][1:3]
    sd = 2 * scenario.dim
    couplings = [] if which == "mono" else [ConsensusCoupling(k, np.ones(sd), np.zeros(sd)) for k in (0, last - first)]
    hessian = build_segment_objective(scenario, first, last, couplings, 2.0).hessian_matrix
    a_eq, _ = segment_equalities(scenario, first, last)
    inverse = kkt_inverse(hessian, a_eq, scenario.dim, SHIFT)
    assert not inverse.pseudo and (inverse.dense is None) == (which == "mono")
    residual = np.abs(kkt_matrix(hessian, a_eq, SHIFT) @ one_coordinate(inverse) - np.eye(inverse.size)).sum(axis=1).max()
    assert residual <= 10 * LU_CONDENSED_RESIDUAL[which]
