"""Trajectory NLP solver: sequential convexification over a factor-once QP.

The nonlinear program  min f(x)  s.t.  A x = b,  g(x) <= 0,  lo <= x <= hi,
f quadratic, is solved by repeatedly minimizing a convex model: f itself,
exact affine equalities, linearized inequalities with an l1 exact penalty on
their violation, all inside an infinity-norm trust region.  The convex
subproblems are solved by a Schur-complement dual active-set method, which
starts at the unconstrained optimum and adds only violated constraints.  The
objective is quadratic and the equalities affine, so the KKT matrix of the
Hessian and the equalities is fixed: a solve factors it once, and a run
factors it once per segment shape (a ``FactorCache`` keeps it), since only
the consensus linear term changes between rounds.  A segment's cost,
dynamics and pins act on each coordinate alone and alike, so that matrix is
one equal block per coordinate and only one block is inverted; the
collision rows, the only ones that mix coordinates, enter through the Schur
complement.  The trust region and joint limits are bounds, held at their
values while active, and the linearized rows are elastic: a row's multiplier
is capped at its penalty weight, and a row at the cap is tied (its weight
moves into the gradient), so no slack is ever a variable.

Collision constraints enter as the inequality evaluator; dynamics and
boundary pins are affine equalities and stay exactly satisfied at every
iterate, so the penalty only ever acts on collision violation.  The
trust-region and penalty schedule is fixed (``INITIAL_TRUST_RADIUS`` and the
constants after it); ``SolverOptions`` sets only the iteration cap and the
feasibility and step tolerances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .collision import activation_distance, clearances
from .collision import linearize_collision_constraint, pair_distance  # noqa: F401  (wrapped by benchmark/tracing.py)
from .errors import ConfigError, EvaluatorError
from .model import Scenario

# --- convex QP: factor-once Schur-complement active set ----------------------


@dataclass
class QpStats:
    """Tallies of QP work and of outcomes that are not a clean optimum.

    ``steps`` counts ``solve_qp``'s active-set steps; ``nonoptimal`` counts
    its returns that hit the iteration cap or found the hard rows
    infeasible; ``kkt_fallbacks`` counts singular systems answered by least
    squares: a base KKT matrix, a Schur system, or the Gram matrix of a
    projection.
    """

    steps: int = 0
    nonoptimal: int = 0
    kkt_fallbacks: int = 0


class KktInverse:
    """Inverse of a base KKT matrix [[H, A'], [A, 0]] held as equal diagonal blocks.

    KKT index t, a variable or an equality row, lies in block t mod
    ``coordinates`` at position t // ``coordinates``; every block's inverse
    is ``block``, and the entries between blocks are zero.  ``block`` is
    symmetric, so a row of the inverse is also its column.  ``pseudo`` is
    True when the matrix was singular and ``block`` is a pseudo-inverse.
    """

    def __init__(self, block: np.ndarray, coordinates: int, pseudo: bool) -> None:
        self.block, self.coordinates, self.pseudo = block, coordinates, pseudo

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """K^-1 rhs: one product of the block with a column per coordinate."""
        return (self.block @ rhs.reshape(-1, self.coordinates)).reshape(-1)

    def rows(self, idx) -> np.ndarray:
        """K^-1[idx] for an index or an index array."""
        d, flat = self.coordinates, np.ravel(idx)
        out = np.zeros((flat.size, self.block.shape[0], d))
        out[np.arange(flat.size), :, flat % d] = self.block[flat // d]
        return out.reshape(np.shape(idx) + (self.block.shape[0] * d,))

    def entry(self, i: int) -> float:
        """K^-1[i, i]."""
        return self.block[i // self.coordinates, i // self.coordinates]


def _diagonal_blocks(matrix: np.ndarray, d: int) -> np.ndarray:
    """View of the d blocks of ``matrix`` taking rows and columns t mod d = c, stacked last."""
    rows, cols = matrix.shape
    return matrix.reshape(rows // d, d, cols // d, d).diagonal(0, 1, 3)


def _coordinate_block(hessian: np.ndarray, a_eq: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Block 0 of H and A if [[H, A'], [A, 0]] is d equal blocks, index t in
    block t mod d, with zeros between them; else None."""
    if hessian.shape[0] % d or a_eq.shape[0] % d:
        return None
    hb, ab = _diagonal_blocks(hessian, d), _diagonal_blocks(a_eq, d)
    h, a = hb[..., 0], ab[..., 0]
    if (
        np.count_nonzero(hessian) == d * np.count_nonzero(h)
        and np.count_nonzero(a_eq) == d * np.count_nonzero(a)
        and not np.count_nonzero(hb != h[..., None])
        and not np.count_nonzero(ab != a[..., None])
    ):
        return h, a
    return None


def kkt_inverse(hessian: np.ndarray, a_eq: np.ndarray, coordinates: int = 1, shift: float = 0.0) -> KktInverse:
    """Inverse of the base KKT matrix [[H + shift I, A'], [A, 0]] of a QP, symmetrized.

    Every active-set step of ``solve_qp`` reuses it: the dual method's start,
    the optimum of the base problem, is one product with it, and a
    constraint c entering the working set needs only the column K^-1 [c; 0]
    (for a bound, a column of the inverse itself).  ``coordinates`` claims
    that the matrix splits into that many equal blocks, index t in block
    t mod ``coordinates``, as a segment's waypoint-major packing does; the
    claim is checked exactly, and a matrix it does not hold for is inverted
    as one block.  A singular block is answered by the pseudo-inverse,
    marked ``pseudo``.
    """
    block = _coordinate_block(hessian, a_eq, coordinates) if coordinates > 1 else None
    h, a = (hessian, a_eq) if block is None else block
    n, m = h.shape[0], a.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = h
    kkt[:n, n:] = a.T
    kkt[n:, :n] = a
    kkt.reshape(-1)[: n * (n + m) : n + m + 1] += shift  # the diagonal of H
    try:
        inverse, pseudo = np.linalg.inv(kkt), False
    except np.linalg.LinAlgError:
        inverse, pseudo = np.linalg.pinv(kkt), True
    # symmetrized, so that row i is column i; kkt's buffer takes the result
    np.add(inverse, inverse.T, out=kkt)
    kkt *= 0.5
    return KktInverse(kkt, 1 if block is None else coordinates, pseudo)


class FactorCache:
    """The fixed parts of ``scenario``'s segment NLPs, shared by the solves of one run.

    ``segments`` maps a segment shape (waypoint count, pinned start, pinned
    goal, coupled waypoints, rho) to its read-only Hessian, equalities,
    bounds, row evaluator and base ``KktInverse`` (see ``convexify_segment``):
    a segment's KKT matrix depends on nothing else, so each shape is
    factored once per run, as one per-coordinate block.
    """

    def __init__(self, scenario: Scenario | None = None) -> None:
        self.scenario, self.segments = scenario, {}


QP_TOLERANCE = 1e-11  # violations, multiplier rates and Schur pivots this small count as zero


def solve_qp(
    hessian: np.ndarray,
    gradient: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    a_in: np.ndarray,
    b_in: np.ndarray,
    *,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    penalty: np.ndarray | None = None,
    base_inverse: KktInverse | None = None,
    max_iterations: int | None = None,
    stats: QpStats | None = None,
) -> tuple[np.ndarray, bool]:
    """Minimize 1/2 x'Hx + g'x + sum_r penalty_r max(0, a_r x - b_r)
    s.t. A_eq x = b_eq, a_r x <= b_r for the hard rows, lower <= x <= upper.

    ``penalty`` gives each row of A_in an l1 weight >= 0, or inf for a hard
    row (the default for every row).  A finite weight makes the row elastic,
    as in Fletcher's Sl1QP: its multiplier is capped at the weight, and a
    row whose multiplier reaches the cap is tied: its slack a_r x - b_r may
    grow, and the weight moves into the gradient.

    Dual active set (Goldfarb & Idnani, 1983) over one inverted base KKT
    matrix [[H, A_eq'], [A_eq, 0]] (``base_inverse`` from ``kkt_inverse``, or
    built here from ``hessian``, which is read for nothing else).  It starts
    at the base problem's optimum K^-1 [-g; b_eq] with an empty working set,
    whose entries are bounds held at their value and rows held tight.  Each
    step takes the most violated constraint (a bound, a free row, or a tied
    row now satisfied, which re-enters from the tied side with multiplier
    weight - lambda') and moves x and the working-set multipliers together
    until the constraint holds (it joins the working set), a working-set
    multiplier reaches 0 (that entry leaves), or an elastic multiplier
    reaches its weight (that row ties, or a row entered from the tied side
    goes free).  Only the Schur system of the working set is solved.  H
    must be positive definite on the nullspace of A_eq.

    Returns (x, optimal), with the working set's bounds exactly at their
    values.  optimal=False when the iteration cap is hit (the iterate
    reached so far is returned) or the dual step is unbounded: the hard rows
    and bounds admit no point.  ``stats``, when given, tallies steps,
    non-optimal returns and least-squares fallbacks; a pseudo-inverse
    ``base_inverse`` is left to the caller to count.
    """
    n, m = gradient.shape[0], a_in.shape[0]
    lo = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    hi = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    weight = np.full(m, np.inf) if penalty is None else np.asarray(penalty, dtype=float)
    if max_iterations is None:
        max_iterations = 3 * (n + m + np.count_nonzero(np.isfinite(lo)) + np.count_nonzero(np.isfinite(hi))) + 100
    kinv = kkt_inverse(hessian, a_eq) if base_inverse is None else base_inverse
    stats = QpStats() if stats is None else stats
    if base_inverse is None:
        stats.kkt_fallbacks += kinv.pseudo
    b = np.asarray(b_in, dtype=float)
    # what counts as a violation of upper bounds, lower bounds and rows
    slack = QP_TOLERANCE * (1.0 + np.abs(np.concatenate([hi, lo, b])))
    row_columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # working set: entries (variable j for a bound, n + r for row r), their
    # sides (-1 for a lower bound or a row entered from the tied side), caps
    # and values (c'x is held at the value), their columns K^-1 [c; 0] and
    # the Schur matrix; the multipliers lam of c keep side * lam in [0, cap]
    entries: list[int] = []
    side, cap, values, lam = np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0)
    cols = np.zeros((n + a_eq.shape[0], 0))
    schur = np.zeros((0, 0))
    held = np.zeros(2 * n + m, dtype=bool)  # upper bounds, lower bounds and rows in the working set
    tied = np.zeros(m, dtype=bool)  # the row's weight is in the gradient

    def column(e: int) -> tuple[np.ndarray, np.ndarray, float]:
        """K^-1 [c; 0] of entry e, its Schur row against the working set, and its pivot."""
        if e < n:
            return kinv.rows(e), cols[e], kinv.entry(e)
        if e not in row_columns:
            nz = np.flatnonzero(a_in[e - n])
            row_columns[e] = nz, a_in[e - n, nz] @ kinv.rows(nz)
        nz, col = row_columns[e]
        a = a_in[e - n, nz]
        return col, a @ cols[nz], a @ col[nz]

    def finish(optimal: bool) -> tuple[np.ndarray, bool]:
        index = np.array(entries, dtype=int)
        x[index[index < n]] = values[index < n]
        stats.steps += steps
        stats.nonoptimal += not optimal
        return x, optimal

    x = kinv.solve(np.concatenate([-gradient, b_eq]))[:n]
    steps = 0
    while True:
        ax = a_in @ x - b
        over = np.concatenate([x - hi, lo - x, np.where(tied, -ax, ax)])
        over[held | (over <= slack)] = 0.0
        i = int(np.argmax(over)) if over.size else 0
        if not over.size or over[i] == 0.0:
            return finish(True)
        # p: entry e, entered from side s, with value, multiplier cap and the multiplier taken so far
        e = i if i < n else i - n
        s = -1.0 if n <= i < 2 * n or (e >= n and tied[e - n]) else 1.0
        value = b[e - n] if e >= n else hi[e] if s > 0 else lo[e]
        limit, taken = (weight[e - n] if e >= n else np.inf), 0.0
        while True:
            if steps == max_iterations:
                return finish(False)
            steps += 1
            col, cross, pivot = column(e)
            # raising p's multiplier by t moves x by -s t z and lam by s t dlam;
            # p's violation falls at rate sigma, zero when c is dependent on the set
            dlam, z, sigma, drop, ratio = -cross, col[:n], pivot, 0, [np.inf]
            if entries:
                try:
                    dlam = -np.linalg.solve(schur, cross)
                except np.linalg.LinAlgError:
                    dlam = -np.linalg.lstsq(schur, cross, rcond=None)[0]
                    stats.kkt_fallbacks += 1
                z = z + cols[:n] @ dlam
                sigma += cross @ dlam
                # the step at which each entry's multiplier reaches 0, or its cap
                rate, held_lam = side * s * dlam, side * lam
                ratio = np.full(len(entries), np.inf)
                np.divide(held_lam, -rate, out=ratio, where=rate < -QP_TOLERANCE)
                np.divide(cap - held_lam, rate, out=ratio, where=(rate > QP_TOLERANCE) & (cap < np.inf))
                drop = int(np.argmin(ratio))
            violation = s * ((x[e] if e < n else a_in[e - n] @ x) - value)
            bounds = (max(violation, 0.0) / sigma if sigma > QP_TOLERANCE * pivot else np.inf, limit - taken, ratio[drop])
            event = min(range(3), key=bounds.__getitem__)
            if bounds[event] == np.inf:
                # p is the working set's combination with weights -dlam: its violation
                # is round-off of that combination, or no point meets the hard rows
                return finish(violation <= QP_TOLERANCE * (1.0 + abs(value) + np.abs(dlam) @ (1.0 + np.abs(values))))
            t = max(bounds[event], 0.0)
            x -= (s * t) * z
            lam += (s * t) * dlam
            taken += t
            if event == 0:  # p holds: it joins the working set
                k = len(entries)
                grown = np.empty((k + 1, k + 1))
                grown[:k, :k] = schur
                grown[k, :k] = grown[:k, k] = cross
                grown[k, k] = pivot
                schur, cols = grown, np.column_stack([cols, col])
                side, cap, values = np.append(side, s), np.append(cap, limit), np.append(values, value)
                lam = np.append(lam, s * taken)
                entries.append(e)
                held[e + n] = held[e if e < n else e + n] = True
            elif event == 1:  # p's multiplier reached its weight: p ties, or goes free from the tied side
                tied[e - n] = s > 0
            else:  # an entry's multiplier reached 0, or its weight: it leaves, free or tied
                gone = entries.pop(drop)
                held[gone + n] = held[gone if gone < n else gone + n] = False
                keep = np.arange(len(side)) != drop
                schur, cols = schur[np.ix_(keep, keep)], cols[:, keep]
                if gone >= n and rate[drop] > 0:
                    tied[gone - n] = side[drop] > 0
                side, cap, values, lam = side[keep], cap[keep], values[keep], lam[keep]
                continue
            break


# --- problem description ------------------------------------------------------


@dataclass(frozen=True)
class QuadraticFunction:
    """f(x) = 1/2 x'Hx + g'x + c with exact derivatives."""

    hessian_matrix: np.ndarray = field(repr=False)
    linear: np.ndarray = field(repr=False)
    constant: float = 0.0

    def value(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.hessian_matrix @ x + self.linear @ x + self.constant)

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        hx = self.hessian_matrix @ x
        return float(0.5 * x @ hx + self.linear @ x + self.constant), hx + self.linear


# inequality rows g(x) <= 0: rows(x) -> (values, jacobian)
InequalityFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class NlpProblem:
    """One NLP in the form the convexification loop consumes: a quadratic
    ``objective``, affine equalities, bounds and smooth inequality rows.

    ``inequalities`` is evaluated once at every point the solver visits and
    its rows serve both the convex model and the merit and feasibility
    accounting.  It may return a different number of rows each time: rows
    may omit constraints that are satisfied at x (e.g. collision pairs far
    from contact), never violated ones.  ``base_inverse``, when given, must
    be ``kkt_inverse`` of the objective's Hessian and ``a_eq`` with shift
    ``PROX_REGULARIZATION``; without it ``solve`` factors that matrix as one
    block.  ``deadline`` is a ``time.perf_counter`` value.
    """

    dim: int
    objective: QuadraticFunction
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    inequalities: InequalityFn | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    x0: np.ndarray | None = None
    deadline: float | None = None
    base_inverse: KktInverse | None = None


# the fixed SCP schedule: trust region, l1 penalty and the proximal term
INITIAL_TRUST_RADIUS, MIN_TRUST_RADIUS, MAX_TRUST_RADIUS = 0.1, 1e-10, 16.0
TRUST_EXPAND, TRUST_SHRINK, RATIO_GOOD, RATIO_BAD = 1.5, 0.25, 0.75, 0.25  # radius factors, merit-ratio thresholds
INITIAL_PENALTY, PENALTY_GROWTH, PENALTY_CAP = 10.0, 10.0, 1e6
PROX_REGULARIZATION = 1e-10  # added to the Hessian's diagonal in every QP


def check_schedule() -> None:
    """Raise ConfigError if a schedule constant leaves the range the loop relies on; NaN fails every test."""
    for name in ("INITIAL_TRUST_RADIUS", "INITIAL_PENALTY", "PENALTY_CAP", "PROX_REGULARIZATION"):
        if not 0.0 < globals()[name] < np.inf:
            raise ConfigError(f"{name} must be finite and > 0")
    if not TRUST_EXPAND >= 1.0:
        raise ConfigError("TRUST_EXPAND must be >= 1")
    if not 0.0 < TRUST_SHRINK < 1.0:
        raise ConfigError("TRUST_SHRINK must be in (0, 1)")
    if not 0.0 < RATIO_BAD <= RATIO_GOOD < 1.0:
        raise ConfigError("need 0 < RATIO_BAD <= RATIO_GOOD < 1")
    if not 0.0 < MIN_TRUST_RADIUS <= MAX_TRUST_RADIUS < np.inf:
        raise ConfigError("need 0 < MIN_TRUST_RADIUS <= MAX_TRUST_RADIUS < inf")
    if not PENALTY_GROWTH > 1.0:
        raise ConfigError("PENALTY_GROWTH must be > 1")


check_schedule()


@dataclass(frozen=True)
class SolverOptions:
    """Convexification loop limits; the schedule above is fixed."""

    max_outer_iterations: int = 50
    feasibility_tolerance: float = 1e-4
    step_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_outer_iterations < 1:
            raise ConfigError("max_outer_iterations must be >= 1")
        for name in ("feasibility_tolerance", "step_tolerance"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and > 0")


@dataclass(frozen=True)
class NlpSolution:
    """An NLP solve's iterate and outcome."""

    point: np.ndarray
    objective: float
    max_equality_violation: float
    max_inequality_violation: float
    iterations: int
    converged: bool
    qp_steps: int = 0
    qp_nonoptimal: int = 0
    kkt_fallbacks: int = 0


def _check_finite(value, what: str) -> None:
    if not np.all(np.isfinite(value)):
        raise EvaluatorError(f"{what} produced a non-finite value")


def project_to_affine(
    x: np.ndarray, a_eq: np.ndarray, b_eq: np.ndarray, stats: QpStats | None = None
) -> np.ndarray:
    """Least-norm correction onto the affine set A x = b.

    Redundant rows make the Gram matrix singular; the correction is then
    taken by least squares and counted in ``stats.kkt_fallbacks``.
    """
    r = b_eq - a_eq @ x
    if float(np.max(np.abs(r), initial=0.0)) <= 1e-12:
        return x
    gram = a_eq @ a_eq.T
    try:
        w = np.linalg.solve(gram, r)
    except np.linalg.LinAlgError:
        if stats is not None:
            stats.kkt_fallbacks += 1
        return x + np.linalg.lstsq(a_eq, r, rcond=None)[0]
    return x + a_eq.T @ w


def solve(problem: NlpProblem, options: SolverOptions | None = None) -> NlpSolution:
    """Solve an NLP by sequential convexification with an l1 exact penalty.

    Every point visited (``x0`` and each trial step) is evaluated exactly
    once; an accepted trial's evaluation is the next iteration's model.
    Never raises on non-convergence: the iteration limit, or the problem's
    ``deadline`` reached first, returns the iterate reached with
    ``converged=False``.  A non-finite objective array or evaluator output
    raises ``EvaluatorError``, an asymmetric Hessian ``ConfigError``; the
    Hessian is checked once, since it is the same at every point.
    """
    opts = options or SolverOptions()
    n = problem.dim
    x = np.array(problem.x0 if problem.x0 is not None else np.zeros(n), dtype=float)
    if x.shape != (n,):
        raise ConfigError(f"x0 must have shape ({n},), got {x.shape}")

    a_eq = problem.a_eq if problem.a_eq is not None else np.zeros((0, n))
    b_eq = problem.b_eq if problem.b_eq is not None else np.zeros(0)
    lower = problem.lower if problem.lower is not None else np.full(n, -np.inf)
    upper = problem.upper if problem.upper is not None else np.full(n, np.inf)

    h = problem.objective.hessian_matrix
    _check_finite(h, "objective hessian")
    _check_finite(problem.objective.linear, "objective linear term")
    if h.shape != (n, n) or np.count_nonzero(h != h.T):
        raise ConfigError(f"objective hessian must be a symmetric ({n}, {n}) matrix")

    qp_stats = QpStats()
    # kkt_inverse of H + prox I and A_eq, the base of every QP of this solve
    base = problem.base_inverse
    if base is None:
        base = kkt_inverse(h, a_eq, shift=PROX_REGULARIZATION)
    elif base.block.shape[0] * base.coordinates != n + a_eq.shape[0]:
        raise ConfigError(f"base_inverse must be of a KKT matrix of size {n + a_eq.shape[0]}")
    qp_stats.kkt_fallbacks += base.pseudo
    if a_eq.shape[0]:
        x = project_to_affine(x, a_eq, b_eq, qp_stats)
    x = np.clip(x, lower, upper)

    def evaluate(point: np.ndarray):
        """Objective value, gradient, inequality rows."""
        f, g = problem.objective.value_and_grad(point)
        _check_finite(f, "objective")
        _check_finite(g, "objective gradient")
        if problem.inequalities is not None:
            vals, jac = problem.inequalities(point)
            vals = np.asarray(vals, dtype=float)
            jac = np.asarray(jac, dtype=float).reshape(len(vals), n)
            _check_finite(vals, "inequality evaluator")
            _check_finite(jac, "inequality jacobian")
        else:
            vals, jac = np.zeros(0), np.zeros((0, n))
        return f, g, vals, jac

    def penalty(vals: np.ndarray) -> float:
        return float(np.sum(np.maximum(vals, 0.0)))

    def eq_violation(point: np.ndarray) -> float:
        return float(np.max(np.abs(a_eq @ point - b_eq), initial=0.0)) if a_eq.shape[0] else 0.0

    mu, delta = INITIAL_PENALTY, INITIAL_TRUST_RADIUS

    fx, gx, rows_vals, rows_jac = evaluate(x)
    merit = fx + mu * penalty(rows_vals)

    converged = False
    iterations = 0
    for _ in range(opts.max_outer_iterations):
        iterations += 1
        # convex subproblem: the quadratic model, the linearized rows as
        # elastic rows at weight mu, the trust region as bounds
        lo_eff = np.maximum(lower, x - delta)
        hi_eff = np.minimum(upper, x + delta)
        sol, _ = solve_qp(
            h, gx - h @ x - PROX_REGULARIZATION * x, a_eq, b_eq, rows_jac, rows_jac @ x - rows_vals,
            lower=lo_eff, upper=hi_eff, penalty=np.full(len(rows_vals), mu), base_inverse=base, stats=qp_stats,
        )
        x_new = np.clip(sol, lo_eff, hi_eff)

        dx = x_new - x
        model_obj = fx + gx @ dx + 0.5 * dx @ h @ dx
        lin_vals = rows_vals + rows_jac @ dx
        model_merit = model_obj + mu * penalty(lin_vals)
        predicted = merit - model_merit

        # stalled: the model is stationary inside the trust region, or an
        # accepted step is below the step tolerance
        stalled = predicted <= 1e-12 * max(1.0, abs(merit))
        if not stalled:
            trial = evaluate(x_new)
            f_new, _, vals_new, _ = trial
            merit_new = f_new + mu * penalty(vals_new)
            ratio = (merit - merit_new) / predicted

            if ratio > RATIO_GOOD:
                delta = min(delta * TRUST_EXPAND, MAX_TRUST_RADIUS)
            elif ratio < RATIO_BAD:
                delta = max(delta * TRUST_SHRINK, MIN_TRUST_RADIUS)

            if merit_new < merit:
                stalled = float(np.max(np.abs(dx), initial=0.0)) <= opts.step_tolerance
                x, merit = x_new, merit_new
                fx, gx, rows_vals, rows_jac = trial
            elif delta <= MIN_TRUST_RADIUS * 1.01:
                break
        if stalled:
            if max(float(np.max(rows_vals, initial=0.0)), eq_violation(x)) <= opts.feasibility_tolerance:
                converged = True
                break
            if mu >= PENALTY_CAP:
                break
            mu = min(mu * PENALTY_GROWTH, PENALTY_CAP)
            delta = max(delta, INITIAL_TRUST_RADIUS)
            merit = fx + mu * penalty(rows_vals)
        if problem.deadline is not None and time.perf_counter() >= problem.deadline:
            break

    return NlpSolution(
        point=x,
        objective=fx,
        max_equality_violation=eq_violation(x),
        max_inequality_violation=float(np.max(rows_vals, initial=0.0)),
        iterations=iterations,
        converged=converged,
        qp_steps=qp_stats.steps,
        qp_nonoptimal=qp_stats.nonoptimal,
        kkt_fallbacks=qp_stats.kkt_fallbacks,
    )


# --- trajectory segment subproblems -----------------------------------------


@dataclass(frozen=True)
class SegmentLayout:
    """Index arithmetic for a segment's packed decision vector.

    With dynamics each waypoint contributes a (position, velocity) block;
    accelerations are dependent quantities, recovered afterwards from the
    velocity differences the explicit-Euler relation defines.  In path-only
    mode positions are the only decision variables.
    """

    count: int
    dim: int
    dynamics: bool
    dt: float

    @property
    def state_dim(self) -> int:
        return 2 * self.dim if self.dynamics else self.dim

    @property
    def size(self) -> int:
        return self.count * self.state_dim

    def state_slice(self, k: int) -> slice:
        i = k * self.state_dim
        return slice(i, i + self.state_dim)

    def position_slice(self, k: int) -> slice:
        i = k * self.state_dim
        return slice(i, i + self.dim)

    def velocity_slice(self, k: int) -> slice:
        if not self.dynamics:
            raise ConfigError("path-only layout has no velocity block")
        i = k * self.state_dim + self.dim
        return slice(i, i + self.dim)

    def pack(self, positions: np.ndarray, velocities: np.ndarray) -> np.ndarray:
        blocks = [np.asarray(positions, dtype=float)[: self.count]]
        if self.dynamics:
            blocks.append(np.asarray(velocities, dtype=float)[: self.count])
        return np.hstack(blocks).reshape(-1)

    def positions(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.count, self.state_dim)[:, : self.dim].copy()

    def velocities(self, x: np.ndarray) -> np.ndarray:
        if not self.dynamics:
            raise ConfigError("path-only layout has no velocity block")
        return x.reshape(self.count, self.state_dim)[:, self.dim :].copy()


def segment_layout(scenario: Scenario, first_index: int, last_index: int) -> SegmentLayout:
    if not 0 <= first_index <= last_index < scenario.num_waypoints:
        raise ConfigError(
            f"segment [{first_index}, {last_index}] out of range for {scenario.num_waypoints} waypoints"
        )
    return SegmentLayout(last_index - first_index + 1, scenario.dim, scenario.dynamics_enabled, scenario.dt)


@dataclass(frozen=True)
class ConsensusCoupling:
    """Consensus attachment of one local waypoint to a shared target.

    Adds  dual'(x_k - target) + (rho/2)|x_k - target|^2  to the segment
    objective and marks waypoint ``k`` as a split variable (half cost).
    """

    waypoint: int
    dual: np.ndarray
    target: np.ndarray


def _consensus_linear(layout: SegmentLayout, couplings, rho: float) -> tuple[np.ndarray, float]:
    """Linear term and constant of the consensus terms; checks each coupling."""
    g = np.zeros(layout.size)
    c = 0.0
    for cp in couplings:
        if not 0 <= cp.waypoint < layout.count:
            raise ConfigError(f"coupling waypoint {cp.waypoint} outside segment")
        y = np.asarray(cp.dual, dtype=float)
        z = np.asarray(cp.target, dtype=float)
        if y.shape != (layout.state_dim,) or z.shape != (layout.state_dim,):
            raise ConfigError("coupling dual/target must match the state dimension")
        g[layout.state_slice(cp.waypoint)] += y - rho * z
        c += float(-y @ z + 0.5 * rho * z @ z)
    return g, c


def build_segment_objective(
    scenario: Scenario,
    first_index: int,
    last_index: int,
    couplings: Sequence[ConsensusCoupling] = (),
    rho: float = 0.0,
) -> QuadraticFunction:
    """Quadratic segment objective: trajectory cost plus consensus terms.

    With dynamics the cost is the summed squared velocity of each waypoint;
    split waypoints (the coupled ones) carry half weight since both segments
    sharing the split account for that waypoint.  In path-only mode the cost
    is the squared finite-difference velocity of each edge; edges are owned
    by exactly one segment so no halving is needed.
    """
    layout = segment_layout(scenario, first_index, last_index)
    n, d, count = layout.size, layout.dim, layout.count
    g, c = _consensus_linear(layout, couplings, rho)
    h = np.zeros((n, n))
    if layout.dynamics:
        weight = np.ones(count)
        weight[[cp.waypoint for cp in couplings]] = 0.5
        velocity = layout.state_dim * np.arange(count)[:, None] + d + np.arange(d)
        h[velocity, velocity] = 2.0 * weight[:, None]
    else:
        # squared edge differences: a path-graph Laplacian on each coordinate
        scale = 2.0 / (layout.dt * layout.dt)
        degree = (np.arange(count) > 0).astype(float) + (np.arange(count) < count - 1)
        np.fill_diagonal(h, scale * np.repeat(degree, d))
        edge = np.arange(n - d)
        h[edge, edge + d] = h[edge + d, edge] = -scale
    for cp in couplings:
        diagonal = np.arange(n)[layout.state_slice(cp.waypoint)]
        h[diagonal, diagonal] += rho
    return QuadraticFunction(hessian_matrix=h, linear=g, constant=c)


def segment_equalities(
    scenario: Scenario, first_index: int, last_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Affine rows: dynamics between consecutive waypoints plus endpoint pins.

    The global start pins position (and velocity, with dynamics) of the first
    waypoint; the global goal pins the last.  Split-point waypoints are never
    pinned, consensus terms steer them instead.
    """
    layout = segment_layout(scenario, first_index, last_index)
    n, d, sd = layout.size, layout.dim, layout.state_dim
    # q_{k+1} - q_k - dt v_k = 0 per waypoint pair and coordinate; q holds the q_k columns
    edges = layout.count - 1 if layout.dynamics else 0
    q = (sd * np.arange(edges)[:, None] + np.arange(d)).reshape(-1)
    pins = [(0, scenario.start)] if first_index == 0 else []
    if last_index == scenario.num_waypoints - 1:
        pins.append((layout.count - 1, scenario.goal))
    pinned = (sd * np.array([k for k, _ in pins], dtype=int)[:, None] + np.arange(sd)).reshape(-1)
    rows = np.arange(q.size)
    a_eq = np.zeros((q.size + pinned.size, n))
    a_eq[rows, q + sd] = 1.0
    a_eq[rows, q] = -1.0
    a_eq[rows, q + d] = -layout.dt
    a_eq[q.size + np.arange(pinned.size), pinned] = 1.0
    values = [np.concatenate([state.position, state.velocity])[:sd] for _, state in pins]
    return a_eq, np.concatenate([np.zeros(q.size), *values])


def segment_bounds(scenario: Scenario, layout: SegmentLayout) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Joint-limit box on position blocks; None when the robot has no limits."""
    limits = getattr(scenario.robot, "joint_limits", None)
    if limits is None:
        return None, None
    lo = np.full(layout.size, -np.inf)
    hi = np.full(layout.size, np.inf)
    lo.reshape(layout.count, layout.state_dim)[:, : layout.dim] = limits[:, 0]
    hi.reshape(layout.count, layout.state_dim)[:, : layout.dim] = limits[:, 1]
    return lo, hi


def _collision_rows(scenario: Scenario, layout: SegmentLayout) -> InequalityFn | None:
    """Row evaluator: activation-filtered linearizations of the clearances.

    Rows encode  margin - sd(q_k) <= 0  for each near-contact pair at each
    waypoint, ordered by waypoint, then link, then obstacle.  The activation
    distance exceeds the margin, so every violated pair is among the rows;
    it is also the cutoff of ``clearances``, so only pairs that can become
    rows reach the exact kernel.
    """
    if not scenario.obstacles:
        return None
    margin = scenario.safety_margin
    activation = activation_distance(margin)
    # packed-vector columns of each waypoint's position block
    columns = layout.state_dim * np.arange(layout.count)[:, None] + np.arange(layout.dim)

    def rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sd, grad = clearances(scenario, layout.positions(x), with_gradients=True, cutoff=activation)
        waypoint, link, obstacle = np.nonzero(sd <= activation)
        jac = np.zeros((waypoint.size, layout.size))
        jac[np.arange(waypoint.size)[:, None], columns[waypoint]] = -grad[waypoint, link, obstacle]
        return margin - sd[waypoint, link, obstacle], jac

    return rows


def convexify_segment(
    scenario: Scenario,
    first_index: int,
    last_index: int,
    x0: np.ndarray,
    couplings: Sequence[ConsensusCoupling] = (),
    rho: float = 0.0,
    factors: FactorCache | None = None,
    deadline: float | None = None,
) -> NlpProblem:
    """Assemble the NLP for one trajectory segment.

    ``x0`` is the packed warm-start vector (see SegmentLayout).  With an
    empty coupling list and the full waypoint range this is exactly the
    monolithic problem.  The segment's Hessian, equalities, bounds, row
    evaluator and base KKT inverse depend only on its shape; a ``factors``
    cache built for this scenario keeps them, so later calls build only the
    consensus term.  ``deadline`` goes to ``solve``.
    """
    layout = segment_layout(scenario, first_index, last_index)
    g, c = _consensus_linear(layout, couplings, rho)
    held = factors.segments if factors is not None and factors.scenario is scenario else {}
    coupled = tuple(cp.waypoint for cp in couplings)
    key = (layout.count, first_index == 0, last_index == scenario.num_waypoints - 1, coupled, rho)
    if key not in held:
        hessian = build_segment_objective(scenario, first_index, last_index, couplings, rho).hessian_matrix
        a_eq, b_eq = segment_equalities(scenario, first_index, last_index)
        lower, upper = segment_bounds(scenario, layout)
        base = kkt_inverse(hessian, a_eq, layout.dim, PROX_REGULARIZATION)
        for array in (hessian, a_eq, b_eq, lower, upper, base.block):
            if array is not None:
                array.flags.writeable = False
        held[key] = (hessian, a_eq, b_eq, lower, upper, _collision_rows(scenario, layout), base)
    hessian, a_eq, b_eq, lower, upper, rows, base = held[key]
    return NlpProblem(
        dim=layout.size,
        objective=QuadraticFunction(hessian_matrix=hessian, linear=g, constant=c),
        a_eq=a_eq,
        b_eq=b_eq,
        inequalities=rows,
        lower=lower,
        upper=upper,
        x0=np.array(x0, dtype=float),
        deadline=deadline,
        base_inverse=base,
    )
