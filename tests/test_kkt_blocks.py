"""The base KKT inverse held as one per-coordinate block.

A segment's KKT matrix [[H + prox I, A_eq'], [A_eq, 0]] splits into one
equal block per coordinate; ``kkt_inverse`` checks that and inverts one
block.  Its answers must be those of the dense inverse of the assembled
matrix, and a matrix that does not split is inverted whole.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from trajsplit import nlp  # noqa: E402
from trajsplit.admm import SplitConfig, run  # noqa: E402
from trajsplit.cli import bundled_scenario_dir  # noqa: E402
from trajsplit.errors import ConfigError  # noqa: E402
from trajsplit.nlp import (  # noqa: E402
    ConsensusCoupling,
    NlpProblem,
    SolverOptions,
    build_segment_objective,
    kkt_inverse,
    segment_equalities,
    solve,
    solve_qp,
)
from trajsplit.scenario_io import load_scenario  # noqa: E402

SCENARIOS = {name: load_scenario(bundled_scenario_dir() / name)
             for name in ("circle_blocked.yaml", "arm_two_link.yaml", "arm_three_link.yaml")}
SHIFT = 1e-10


def dense_inverse(hessian, a_eq, shift=SHIFT):
    n, m = hessian.shape[0], a_eq.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = hessian + shift * np.eye(n)
    kkt[:n, n:] = a_eq.T
    kkt[n:, :n] = a_eq
    return np.linalg.inv(kkt)


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
    """A segment's Hessian and equalities: point or arm, with or without dynamics, pins and couplings."""
    scenario = SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))]
    count = draw(st.integers(4, 12))
    scenario = replace(scenario, num_waypoints=count, dynamics_enabled=draw(st.booleans()))
    first = draw(st.integers(0, count - 2))
    last = draw(st.integers(first + 1, count - 1))
    sd = 2 * scenario.dim if scenario.dynamics_enabled else scenario.dim
    # as in a split run, every unpinned end is coupled at rho > 0, which keeps
    # the KKT matrix well conditioned enough to compare two inverses at 1e-10
    coupled = [k for k, pinned in ((0, first == 0), (last - first, last == count - 1)) if not pinned]
    couplings = [ConsensusCoupling(k, np.zeros(sd), np.zeros(sd)) for k in coupled]
    rho = draw(st.sampled_from([2.0, 50.0]))
    hessian = build_segment_objective(scenario, first, last, couplings, rho).hessian_matrix
    a_eq, _ = segment_equalities(scenario, first, last)
    return scenario.dim, hessian, a_eq, draw(st.integers(0, 2**32 - 1))


@given(segments())
def test_block_inverse_matches_dense_inverse(segment):
    d, hessian, a_eq, seed = segment
    inverse = kkt_inverse(hessian, a_eq, d, SHIFT)
    assert inverse.coordinates == d
    assert inverse.block.shape[0] * d == hessian.shape[0] + a_eq.shape[0]
    assert_same_inverse(inverse, dense_inverse(hessian, a_eq), np.random.default_rng(seed))


@given(segments(), st.sampled_from(["cross", "unequal", "equality"]))
def test_matrix_that_does_not_split_is_one_block(segment, defect):
    d, hessian, a_eq, seed = segment
    rng = np.random.default_rng(seed)
    hessian = hessian.copy()
    if defect == "cross":
        # one entry between coordinates 0 and 1 of two variables
        i, j = d * rng.integers(hessian.shape[0] // d, size=2)
        hessian[i, j + 1] = hessian[j + 1, i] = 0.125
    elif defect == "unequal":
        # every block keeps its pattern, one of them its values no more
        hessian[d - 1, d - 1] += 1.0
    elif a_eq.shape[0]:
        # an equality row of coordinate 0 that also reads coordinate 1
        a_eq = a_eq.copy()
        a_eq[0, 1] += 0.5
    else:
        a_eq = np.eye(hessian.shape[0])[:1] + np.eye(hessian.shape[0])[1:2]
    inverse = kkt_inverse(hessian, a_eq, d, SHIFT)
    assert inverse.coordinates == 1
    assert_same_inverse(inverse, dense_inverse(hessian, a_eq), rng)


def test_one_coordinate_is_the_dense_inverse_bit_for_bit():
    hessian = build_segment_objective(SCENARIOS["circle_blocked.yaml"], 0, 9).hessian_matrix
    a_eq, _ = segment_equalities(SCENARIOS["circle_blocked.yaml"], 0, 9)
    inverse = kkt_inverse(hessian, a_eq, 1, SHIFT)
    want = dense_inverse(hessian, a_eq)
    np.testing.assert_array_equal(inverse.block, 0.5 * (want + want.T))


def test_solve_with_block_claim_matches_solve_without():
    # a base inverted as 3 blocks, handed in, changes only how it is factored
    hessian = build_segment_objective(SCENARIOS["arm_three_link.yaml"], 0, 29).hessian_matrix
    a_eq, b_eq = segment_equalities(SCENARIOS["arm_three_link.yaml"], 0, 29)
    objective = nlp.QuadraticFunction(hessian_matrix=hessian, linear=np.linspace(-1.0, 1.0, hessian.shape[0]))

    def keepout(x):
        return np.array([0.5 - x[3]]), -np.eye(1, x.size, 3)

    problems = [NlpProblem(dim=hessian.shape[0], objective=objective, a_eq=a_eq, b_eq=b_eq,
                           inequalities=keepout, base_inverse=base)
                for base in (None, kkt_inverse(hessian, a_eq, 3, nlp.PROX_REGULARIZATION))]
    whole, blocks = (solve(p, SolverOptions(max_outer_iterations=100)) for p in problems)
    assert whole.converged and blocks.converged
    assert whole.iterations == blocks.iterations
    assert blocks.objective == pytest.approx(whole.objective, rel=1e-12)
    np.testing.assert_allclose(blocks.point, whole.point, rtol=0, atol=1e-10)


@pytest.mark.parametrize("d", [1, 2])
def test_violated_elastic_row_of_zeros_changes_nothing(d):
    # a violated row with a zero Jacobian (a collision gradient can be zero)
    # ties at once: it adds a constant penalty and reads no row of the inverse
    scenario = SCENARIOS["circle_blocked.yaml"]
    hessian = build_segment_objective(scenario, 0, 9).hessian_matrix
    a_eq, b_eq = segment_equalities(scenario, 0, 9)
    n = hessian.shape[0]
    gradient = np.linspace(-1.0, 1.0, n)
    keepout = -np.eye(1, n, 4)
    inverse = kkt_inverse(hessian, a_eq, d, SHIFT)
    assert inverse.rows(np.zeros(0, dtype=int)).shape == (0, inverse.block.shape[0] * d)
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
    objective = nlp.QuadraticFunction(hessian_matrix=np.eye(4), linear=-target)

    def outside(x):
        return np.array([1.0 - x @ x]), -2.0 * x[None, :]

    base = kkt_inverse(np.eye(4), np.zeros((0, 4)), 2, nlp.PROX_REGULARIZATION)
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
    inverted = []
    real = np.linalg.inv

    def spy(matrix, *args, **kwargs):
        inverted.append(matrix.shape[0])
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", spy)
    report = run(*mono_n160())
    assert report.converged
    # 160 waypoints of (x, y, vx, vy): 640 variables and 159 * 2 + 8 rows,
    # 966 in all, 483 per coordinate
    assert inverted and max(inverted) == 483


def test_mono_transient_memory():
    scenario, config = mono_n160()
    tracemalloc.start()
    try:
        report = run(scenario, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak < 20e6
