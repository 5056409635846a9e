"""Property tests of the factor-once Schur-complement dual active-set QP:
random strictly convex QPs with equalities, finite and infinite bounds,
general rows (duplicated and linearly dependent ones among them) and
elastic rows; the returned point must satisfy the KKT conditions of the
equivalent QP with explicit slacks, whatever the order of the rows."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import full_columns, qp_kkt_residuals  # noqa: E402
from trajsplit.nlp import QpStats, solve_qp  # noqa: E402

KKT_TOL = 1e-8


@st.composite
def convex_qps(draw):
    """A strictly convex QP and a point that meets its hard rows, bounds and equalities."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    n_eq = draw(st.integers(0, n - 1))
    n_rows = draw(st.integers(0, 12))
    n_duplicates = draw(st.integers(0, 2)) if n_rows else 0
    n_combined = draw(st.integers(0, 2)) if n_rows >= 2 else 0
    n_elastic = draw(st.integers(0, 3))
    # a bound is absent, at the start point, or some way off
    bound_kind = st.sampled_from(["inf", "tight", "loose"])
    lower_kinds = draw(st.lists(bound_kind, min_size=n, max_size=n))
    upper_kinds = draw(st.lists(bound_kind, min_size=n, max_size=n))

    b = rng.normal(size=(n, n))
    hessian = b @ b.T + 0.1 * np.eye(n)
    gradient = 3.0 * rng.normal(size=n)
    x0 = rng.normal(size=n)
    a_eq = rng.normal(size=(n_eq, n))
    b_eq = a_eq @ x0

    def bound(kinds, sign):
        offsets = {"inf": np.inf, "tight": 0.0}
        return x0 + sign * np.array([offsets.get(k, rng.uniform(0.1, 1.0)) for k in kinds])

    lower, upper = bound(lower_kinds, -1.0), bound(upper_kinds, 1.0)

    a_in = rng.normal(size=(n_rows, n))
    gap = np.where(rng.random(n_rows) < 0.3, 0.0, rng.uniform(0.0, 1.0, size=n_rows))
    b_in = a_in @ x0 + gap
    picks = rng.integers(0, max(n_rows, 1), size=n_duplicates)
    a_in, b_in = np.vstack([a_in, a_in[picks]]), np.concatenate([b_in, b_in[picks]])
    for _ in range(n_combined):
        w = np.zeros(len(a_in))
        w[rng.choice(n_rows, size=2, replace=False)] = rng.uniform(0.2, 2.0, size=2)
        a_in, b_in = np.vstack([a_in, w @ a_in]), np.append(b_in, w @ b_in)

    # elastic rows a x <= b at l1 weight w, violated or not at x0
    rows = rng.normal(size=(n_elastic, n))
    a_in = np.vstack([a_in, rows])
    b_in = np.concatenate([b_in, rows @ x0 + rng.uniform(-1.0, 1.0, size=n_elastic)])
    penalty = np.concatenate([np.full(len(a_in) - n_elastic, np.inf), rng.uniform(0.1, 5.0, size=n_elastic)])
    return hessian, gradient, a_eq, b_eq, a_in, b_in, lower, upper, penalty, x0


def slack_form(hessian, gradient, a_eq, a_in, b_in, lower, upper, penalty, x):
    """The same QP with one explicit slack s >= 0 per elastic row, and its point."""
    soft = np.flatnonzero(penalty < np.inf)
    n, k = len(gradient), soft.size
    lift = np.zeros((len(a_in), k))
    lift[soft, np.arange(k)] = -1.0
    return (
        np.block([[hessian, np.zeros((n, k))], [np.zeros((k, n)), np.zeros((k, k))]]),
        np.concatenate([gradient, penalty[soft]]),
        np.hstack([a_eq, np.zeros((len(a_eq), k))]),
        np.hstack([a_in, lift]),
        b_in,
        np.concatenate([lower, np.zeros(k)]),
        np.concatenate([upper, np.full(k, np.inf)]),
        np.concatenate([x, np.maximum(a_in[soft] @ x - b_in[soft], 0.0)]),
    )


@settings(max_examples=300)
@given(convex_qps())
def test_solution_satisfies_kkt(qp):
    hessian, gradient, a_eq, b_eq, a_in, b_in, lower, upper, penalty, x0 = qp
    stats = QpStats()
    x, ok = solve_qp(hessian, gradient, a_eq, b_eq, a_in, b_in, columns=full_columns(a_in),
                     lower=lower, upper=upper, penalty=penalty, stats=stats)
    assert ok
    assert (stats.nonoptimal, stats.kkt_fallbacks) == (0, 0)
    h, g, e, a, b, lo, hi, z = slack_form(hessian, gradient, a_eq, a_in, b_in, lower, upper, penalty, x)
    stationarity, feasibility = qp_kkt_residuals(h, g, e, b_eq, a, b, lo, hi, z)
    assert feasibility <= KKT_TOL
    assert stationarity <= KKT_TOL


def test_working_set_outgrows_its_buffers_and_loses_entries():
    # minimize |x - c|^2 / 2 with c_i from 5.5 to 15, so every upper bound x_i <= 1
    # is violated first: all 20 join, past the 8 and 16 entries the buffers
    # first hold; a hard row 0.01 sum(x) <= 0.15 then pushes coordinates back
    # off their bounds, which leave, and four light elastic rows x_i <= 0.5 tie
    n, soft = 20, [2, 7, 11, 19]
    hessian, gradient = np.eye(n), -(5.0 + 10.0 * np.arange(1, n + 1) / n)
    a_in = np.vstack([np.full((1, n), 0.01), np.eye(n)[soft]])
    b_in = np.concatenate([[0.15], np.full(len(soft), 0.5)])
    penalty = np.concatenate([[np.inf], np.full(len(soft), 0.3)])
    lower, upper, a_eq, b_eq = np.full(n, -np.inf), np.ones(n), np.zeros((0, n)), np.zeros(0)
    stats = QpStats()
    x, ok = solve_qp(hessian, gradient, a_eq, b_eq, a_in, b_in, columns=full_columns(a_in),
                     lower=lower, upper=upper, penalty=penalty, stats=stats)
    assert ok
    assert (stats.nonoptimal, stats.kkt_fallbacks) == (0, 0)
    assert stats.steps > n and np.count_nonzero(x < 1.0) >= 3
    h, g, e, a, b, lo, hi, z = slack_form(hessian, gradient, a_eq, a_in, b_in, lower, upper, penalty, x)
    stationarity, feasibility = qp_kkt_residuals(h, g, e, b_eq, a, b, lo, hi, z)
    assert feasibility <= KKT_TOL
    assert stationarity <= KKT_TOL


def test_bounds_snap_exactly():
    # both optimum coordinates lie beyond their bounds: the answer is the
    # bound values themselves, not values within rounding of them
    x, ok = solve_qp(np.eye(2), np.array([-5.0, 5.0]), np.zeros((0, 2)), np.zeros(0),
                     np.zeros((0, 2)), np.zeros(0), columns=np.zeros((0, 2), dtype=int),
                     lower=np.array([-0.3, -0.7]), upper=np.array([0.1, 0.9]))
    assert ok
    assert x.tolist() == [0.1, -0.7]


@pytest.mark.parametrize("weight, want", [(10.0, 1.0), (0.5, 1.5)])
def test_elastic_row_is_fixed_or_tied(weight, want):
    # minimize (x - 2)^2 / 2 + weight * max(0, x - 1): a heavy weight holds x
    # at the kink (slack fixed at 0), a light one lets it through (tied)
    x, ok = solve_qp(np.eye(1), np.array([-2.0]), np.zeros((0, 1)), np.zeros(0), np.array([[1.0]]),
                     np.array([1.0]), columns=np.array([[0]]), penalty=np.array([weight]))
    assert ok
    assert x[0] == pytest.approx(want, abs=1e-12)


@settings(max_examples=200)
@given(convex_qps(), st.integers(0, 2**32 - 1))
def test_row_order_changes_nothing(qp, seed):
    # the optimum of a strictly convex QP is unique, so the order in which
    # the rows are met must not move it
    hessian, gradient, a_eq, b_eq, a_in, b_in, lower, upper, penalty, _ = qp
    order = np.random.default_rng(seed).permutation(len(b_in))
    args = dict(columns=full_columns(a_in), lower=lower, upper=upper)
    x, ok = solve_qp(hessian, gradient, a_eq, b_eq, a_in, b_in, penalty=penalty, **args)
    y, ok_permuted = solve_qp(hessian, gradient, a_eq, b_eq, a_in[order], b_in[order], penalty=penalty[order], **args)
    assert ok and ok_permuted
    np.testing.assert_allclose(y, x, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("a_in, b_in", [
    (np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), np.array([0.0, 0.0, -1.0])),
    (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([0.0, -1.0])),
])
def test_infeasible_hard_rows_are_not_optimal(a_in, b_in):
    # x_0 <= 0 and x_0 >= 1 admit no point, and neither does 0 <= -1: the
    # dual step grows without bound
    stats = QpStats()
    _, ok = solve_qp(np.eye(2), np.array([-1.0, 1.0]), np.zeros((0, 2)), np.zeros(0), a_in, b_in,
                     columns=full_columns(a_in), stats=stats)
    assert not ok
    assert (stats.nonoptimal, stats.kkt_fallbacks) == (1, 0)


@pytest.mark.parametrize("hard, bound, want", [
    # the hard row then holds x_0 + x_1 at 0.5 and the elastic row tight, at multiplier 0.5 of its 0.8
    (np.array([0.5, 0.5]), 0.25, [1.0, -0.5]),
    # the hard row then holds x_0 at 0.9, and the elastic row's multiplier falls to 0: it goes free
    (np.array([0.5, 0.0]), 0.45, [0.9, 0.0]),
])
def test_tied_row_reenters_from_the_tied_side(hard, bound, want):
    # minimize |x - (2, 0)|^2 / 2 + 0.8 max(0, x_0 - 1) with a hard row:
    # from (2, 0), the elastic row is the most violated and ties at (1.2, 0);
    # the hard row, violated there, then pulls x_0 below 1, so the tied row
    # is satisfied and re-enters from the tied side: three steps
    stats = QpStats()
    x, ok = solve_qp(np.eye(2), np.array([-2.0, 0.0]), np.zeros((0, 2)), np.zeros(0),
                     np.vstack([[1.0, 0.0], hard]), np.array([1.0, bound]), columns=full_columns(np.zeros((2, 2))),
                     penalty=np.array([0.8, np.inf]), stats=stats)
    assert ok
    np.testing.assert_allclose(x, want, rtol=0.0, atol=1e-12)
    assert stats.steps == 3
