"""Trajectory NLP solver: sequential convexification over a factor-once QP.

The nonlinear program  min f(x)  s.t.  A x = b,  g(x) <= 0,  lo <= x <= hi
is solved by repeatedly minimizing a convex model: quadratic expansion of f,
exact affine equalities, linearized inequalities with an l1 exact penalty on
their violation, all inside an infinity-norm trust region.  The convex
subproblems are solved by a Schur-complement primal active-set method.  The
KKT matrix of the Hessian and the equalities is factored once per run per
segment shape (a ``FactorCache`` keeps it), and again only if the Hessian
changes: for a trajectory segment it never does, since the objective is
quadratic and the dynamics affine.  The trust region and joint limits are
bounds that fix variables, and the linearized rows are elastic: each row's
penalty slack is fixed at zero or tied to the row, never a variable.

Collision constraints enter as the inequality evaluator; dynamics and
boundary pins are affine equalities and stay exactly satisfied at every
iterate, so the penalty only ever acts on collision violation.
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
    """Tallies of QP outcomes that are not a clean optimum.

    ``nonoptimal`` counts ``solve_qp`` returns that hit the iteration cap;
    ``kkt_fallbacks`` counts singular systems answered by least squares: a
    base KKT matrix, a Schur system, or the Gram matrix of a projection.
    """

    nonoptimal: int = 0
    kkt_fallbacks: int = 0


def kkt_inverse(hessian: np.ndarray, a_eq: np.ndarray, stats: QpStats | None = None) -> np.ndarray:
    """Inverse of the base KKT matrix [[H, A'], [A, 0]] of a QP, symmetrized.

    Every active-set step of ``solve_qp`` reuses it: the optimum of the base
    problem is one product with it, and a constraint row c entering the
    working set needs only the column K^-1 [c; 0] (for a bound, a column of
    the inverse itself).  A singular base is answered by the pseudo-inverse
    and counted in ``stats.kkt_fallbacks``.
    """
    n, m = hessian.shape[0], a_eq.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = hessian
    kkt[:n, n:] = a_eq.T
    kkt[n:, :n] = a_eq
    try:
        inverse = np.linalg.inv(kkt)
    except np.linalg.LinAlgError:
        inverse = np.linalg.pinv(kkt)
        if stats is not None:
            stats.kkt_fallbacks += 1
    # symmetrized, so that row i is column i
    return 0.5 * (inverse + inverse.T)


class FactorCache:
    """Base KKT inverses and segment parts shared by the NLP solves of one run.

    ``inverse`` finds a base by its exact matrices, so equal segments share
    one factorization and no hand-in can change an answer; a shared
    pseudo-inverse counts one ``kkt_fallbacks`` in each solve that uses it.
    ``segments`` keeps the fixed parts of ``scenario``'s segment NLPs;
    ``factorizations`` counts the bases inverted so far.
    """

    def __init__(self, scenario: Scenario | None = None) -> None:
        self.scenario, self.segments, self._bases = scenario, {}, []
        self.factorizations = 0

    def inverse(self, hessian: np.ndarray, a_eq: np.ndarray, stats: QpStats) -> np.ndarray:
        """``kkt_inverse`` of a base, factored on first use; ``hessian`` is kept uncopied."""
        for h, a, inverse, fallbacks in self._bases:
            if np.array_equal(h, hessian) and np.array_equal(a, a_eq):
                break
        else:
            own = QpStats()
            inverse = kkt_inverse(hessian, a_eq, own)
            fallbacks = own.kkt_fallbacks
            self._bases.append((hessian, a_eq.copy(), inverse, fallbacks))
            self.factorizations += 1
        stats.kkt_fallbacks += fallbacks
        return inverse


_FREE, _TIGHT, _TIED = 0, 1, 2  # row states; only elastic rows are ever tied


def solve_qp(
    hessian: np.ndarray,
    gradient: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    a_in: np.ndarray,
    b_in: np.ndarray,
    x0: np.ndarray,
    *,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    penalty: np.ndarray | None = None,
    base_inverse: np.ndarray | None = None,
    tol: float = 1e-11,
    max_iterations: int | None = None,
    stats: QpStats | None = None,
) -> tuple[np.ndarray, bool]:
    """Minimize 1/2 x'Hx + g'x + sum_r penalty_r max(0, a_r x - b_r)
    s.t. A_eq x = b_eq, a_r x <= b_r for the hard rows, lower <= x <= upper.

    ``penalty`` gives each row of A_in an l1 weight >= 0, or inf for a hard
    row (the default for every row).  A finite weight makes the row elastic,
    as in Fletcher's Sl1QP: it stands for a slack s_r >= 0 with
    a_r x - s_r <= b_r at cost penalty_r s_r, but the slack is never a
    variable.  It is either fixed at 0 (the row acts as a hard inequality)
    or tied to its row (s_r = a_r x - b_r > 0, and the weight moves into the
    gradient).

    Primal active set over one inverted base KKT matrix [[H, A_eq'], [A_eq,
    0]] (``base_inverse`` from ``kkt_inverse``, or built here): each step
    solves only the Schur system of the working set, whose entries are
    active bounds (the variable is fixed exactly at the bound value) and
    tight rows.  H must be positive definite on the nullspace of A_eq.  ``x0`` must satisfy the hard rows
    and the bounds (the equalities are restored by the first full step if
    slightly violated).  Returns (x, optimal); when the iteration cap is hit
    the iterate reached so far is returned with optimal=False.  ``stats``,
    when given, tallies non-optimal returns and least-squares fallbacks.
    """
    n, m = gradient.shape[0], a_in.shape[0]
    lo = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    hi = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    weight = np.full(m, np.inf) if penalty is None else np.asarray(penalty, dtype=float)
    elastic = weight < np.inf
    if max_iterations is None:
        max_iterations = 3 * (n + m + np.count_nonzero(np.isfinite(lo)) + np.count_nonzero(np.isfinite(hi))) + 100
    kinv = kkt_inverse(hessian, a_eq, stats) if base_inverse is None else base_inverse
    b = np.asarray(b_in, dtype=float)
    row_norms = np.sqrt(np.einsum("ij,ij->i", a_in, a_in))

    # optimum of the base problem, K^-1 rhs; tying a row subtracts weight * [a_r; 0] from rhs
    rhs = np.concatenate([-gradient, b_eq])
    free_opt = kinv @ rhs
    columns: dict[int, np.ndarray] = {}

    def row_column(r: int) -> np.ndarray:
        if r not in columns:
            nz = np.flatnonzero(a_in[r])
            columns[r] = a_in[r, nz] @ kinv[nz]
        return columns[r]

    # working set: entries (variable j for a bound, n + r for row r), their
    # columns K^-1 [c; 0], the Schur matrix and the right-hand sides
    entries: list[int] = []
    cols = np.zeros((kinv.shape[0], 0))
    schur = np.zeros((0, 0))
    values = np.zeros(0)

    def add(e: int) -> None:
        nonlocal cols, schur, values
        if e < n:
            col, cross, value, pivot = kinv[e], cols[e], fixed_at[e], kinv[e, e]
        else:
            r = e - n
            nz = np.flatnonzero(a_in[r])
            col = row_column(r)
            cross = a_in[r, nz] @ cols[nz]
            value = b[r]
            pivot = a_in[r, nz] @ col[nz]
        k = len(entries)
        grown = np.empty((k + 1, k + 1))
        grown[:k, :k] = schur
        grown[k, :k] = grown[:k, k] = cross
        grown[k, k] = pivot
        cols, schur, values = np.column_stack([cols, col]), grown, np.append(values, value)
        entries.append(e)

    def remove(pos: int) -> None:
        nonlocal cols, schur, values
        keep = np.arange(len(entries)) != pos
        cols, schur, values = cols[:, keep], schur[np.ix_(keep, keep)], values[keep]
        entries.pop(pos)

    def tie(r: int, sign: float) -> None:
        """Tie (sign=1) or untie (sign=-1, the row turns tight) elastic row r's slack."""
        state[r] = _TIED if sign > 0 else _TIGHT
        rhs[:n] -= sign * weight[r] * a_in[r]
        free_opt[:] -= sign * weight[r] * row_column(r)

    x = np.array(x0, dtype=float)
    fixed = np.zeros(n, dtype=bool)
    fixed_at = np.zeros(n)
    upper_side = np.zeros(n, dtype=bool)
    state = np.full(m, _FREE)
    for r in np.flatnonzero(elastic & (a_in @ x > b)):
        tie(int(r), 1.0)

    for _ in range(max_iterations):
        if entries:
            lhs = cols.T @ rhs - values
            try:
                lam = np.linalg.solve(schur, lhs)
            except np.linalg.LinAlgError:
                lam = np.linalg.lstsq(schur, lhs, rcond=None)[0]
                if stats is not None:
                    stats.kkt_fallbacks += 1
            target = free_opt[:n] - cols[:n] @ lam
            np.copyto(target, fixed_at, where=fixed)
        else:
            target = free_opt[:n].copy()
        p = target - x
        if not n or np.abs(p).max() <= tol:
            x = target
            if not entries:
                return x, True
            # multipliers signed so that >= 0 is optimal; a tight elastic row
            # also needs weight - lam >= 0, else its slack is released (tied)
            index = np.array(entries)
            bound = index < n
            signed = lam.copy()
            signed[bound] *= np.where(upper_side[index[bound]], 1.0, -1.0)
            release = np.full(lam.size, np.inf)
            row = ~bound
            row[row] = elastic[index[row] - n]
            release[row] = weight[index[row] - n] - lam[row]
            if min(signed.min(), release.min()) >= -1e-9:
                return x, True
            untie = release.min() < signed.min()
            drop = int(np.argmin(release if untie else signed))
            e = entries[drop]
            remove(drop)
            if e < n:
                fixed[e] = False
            elif untie:
                tie(e - n, 1.0)
            else:
                state[e - n] = _FREE
            continue
        # longest feasible step toward the working-set optimum (fixed
        # variables have p = 0 exactly, so no bound of theirs can block)
        pn = float(np.sqrt(p @ p))
        thresh = 1e-12 * max(1.0, pn)
        bound_limit = np.full(n, np.inf)
        np.divide(hi - x, p, out=bound_limit, where=p > thresh)
        np.divide(lo - x, p, out=bound_limit, where=p < -thresh)
        j = int(np.argmin(bound_limit))
        alpha, r = min(float(bound_limit[j]), 1.0), -1
        if m:
            ap = a_in @ p
            row_thresh = 1e-12 * np.maximum(1.0, row_norms * pn)
            # a free row rising to its bound, or a tied slack falling to 0
            blocks = np.where(state == _TIED, -ap, np.where(state == _FREE, ap, 0.0)) > row_thresh
            row_limit = np.full(m, np.inf)
            np.divide(b - a_in @ x, ap, out=row_limit, where=blocks)
            r = int(np.argmin(row_limit))
            if row_limit[r] < alpha:
                alpha = float(row_limit[r])
            else:
                r = -1
        alpha = max(alpha, 0.0)
        x = x + alpha * p
        if r >= 0:
            if state[r] == _TIED:
                tie(r, -1.0)
            state[r] = _TIGHT
            add(n + r)
        elif alpha < 1.0:
            fixed[j], upper_side[j] = True, p[j] > 0
            fixed_at[j] = x[j] = hi[j] if upper_side[j] else lo[j]
            add(j)
    if stats is not None:
        stats.nonoptimal += 1
    return x, False


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

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return self.hessian_matrix


# evaluators: value_and_grad(x) -> (f, grad); inequality rows g(x) <= 0
ObjectiveFn = Callable[[np.ndarray], tuple[float, np.ndarray]]
HessianFn = Callable[[np.ndarray], np.ndarray]
InequalityFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class NlpProblem:
    """One smooth NLP in the form the convexification loop consumes.

    ``inequalities`` is evaluated once at every point the solver visits and
    its rows serve both the convex model and the merit and feasibility
    accounting.  It may return a different number of rows each time: rows
    may omit constraints that are satisfied at x (e.g. collision pairs far
    from contact), never violated ones.  Solves sharing ``factors`` factor
    each base once; ``deadline`` is a ``time.perf_counter`` value.
    """

    dim: int
    objective: ObjectiveFn
    objective_hessian: HessianFn | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    inequalities: InequalityFn | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    x0: np.ndarray | None = None
    factors: FactorCache | None = None
    deadline: float | None = None


@dataclass(frozen=True)
class SolverOptions:
    """Convexification loop parameters."""

    max_outer_iterations: int = 50
    feasibility_tolerance: float = 1e-4
    step_tolerance: float = 1e-6
    initial_trust_radius: float = 0.1
    trust_expand: float = 1.5
    trust_shrink: float = 0.25
    ratio_good: float = 0.75
    ratio_bad: float = 0.25
    max_trust_radius: float = 16.0
    min_trust_radius: float = 1e-10
    initial_penalty: float = 10.0
    penalty_growth: float = 10.0
    penalty_cap: float = 1e6
    prox_regularization: float = 1e-10

    def __post_init__(self) -> None:
        if self.max_outer_iterations < 1:
            raise ConfigError("max_outer_iterations must be >= 1")
        for name in ("feasibility_tolerance", "step_tolerance", "initial_trust_radius",
                     "initial_penalty", "penalty_cap", "prox_regularization"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and > 0")
        # comparisons are written so that NaN fails them
        if not self.trust_expand >= 1.0:
            raise ConfigError("trust_expand must be >= 1")
        if not 0.0 < self.trust_shrink < 1.0:
            raise ConfigError("trust_shrink must be in (0, 1)")
        if not 0.0 < self.ratio_bad <= self.ratio_good < 1.0:
            raise ConfigError("need 0 < ratio_bad <= ratio_good < 1")
        if not 0.0 < self.min_trust_radius <= self.max_trust_radius < np.inf:
            raise ConfigError("need 0 < min_trust_radius <= max_trust_radius < inf")
        if not self.penalty_growth > 1.0:
            raise ConfigError("penalty_growth must be > 1")


@dataclass(frozen=True)
class NlpSolution:
    """An NLP solve's iterate and outcome.

    ``factorizations`` counts the base KKT inverses this solve built; it is 0
    when every base came from a shared ``FactorCache``.
    """

    point: np.ndarray
    objective: float
    max_equality_violation: float
    max_inequality_violation: float
    iterations: int
    converged: bool
    qp_nonoptimal: int = 0
    kkt_fallbacks: int = 0
    factorizations: int = 0


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
    ``converged=False``.  Non-finite evaluator output raises
    ``EvaluatorError``.
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

    qp_stats = QpStats()
    factors = problem.factors if problem.factors is not None else FactorCache()
    factorizations = factors.factorizations
    if a_eq.shape[0]:
        x = project_to_affine(x, a_eq, b_eq, qp_stats)
    x = np.clip(x, lower, upper)

    def evaluate(point: np.ndarray):
        """Objective value, gradient, symmetrized Hessian, inequality rows."""
        f, g = problem.objective(point)
        _check_finite(f, "objective")
        _check_finite(g, "objective gradient")
        if problem.objective_hessian is not None:
            h = np.asarray(problem.objective_hessian(point), dtype=float)
            _check_finite(h, "objective hessian")
        else:
            h = np.eye(n)
        if problem.inequalities is not None:
            vals, jac = problem.inequalities(point)
            vals = np.asarray(vals, dtype=float)
            jac = np.asarray(jac, dtype=float).reshape(len(vals), n)
            _check_finite(vals, "inequality evaluator")
            _check_finite(jac, "inequality jacobian")
        else:
            vals, jac = np.zeros(0), np.zeros((0, n))
        return f, g, 0.5 * (h + h.T), vals, jac

    def penalty(vals: np.ndarray) -> float:
        return float(np.sum(np.maximum(vals, 0.0)))

    def eq_violation(point: np.ndarray) -> float:
        return float(np.max(np.abs(a_eq @ point - b_eq), initial=0.0)) if a_eq.shape[0] else 0.0

    mu = opts.initial_penalty
    delta = opts.initial_trust_radius
    prox = opts.prox_regularization

    fx, gx, h, rows_vals, rows_jac = evaluate(x)
    merit = fx + mu * penalty(rows_vals)

    converged = False
    iterations = 0
    base = base_hessian = None  # kkt_inverse of H + prox I and A_eq, kept while H is unchanged
    for _ in range(opts.max_outer_iterations):
        iterations += 1
        if base is None or not np.array_equal(h, base_hessian):
            base_hessian, hprox = h, h + prox * np.eye(n)
            base = factors.inverse(hprox, a_eq, qp_stats)

        # convex subproblem: the quadratic model, the linearized rows as
        # elastic rows at weight mu, the trust region as bounds
        lo_eff = np.maximum(lower, x - delta)
        hi_eff = np.minimum(upper, x + delta)
        sol, _ = solve_qp(
            hprox, gx - hprox @ x, a_eq, b_eq, rows_jac, rows_jac @ x - rows_vals, x,
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
            f_new, _, _, vals_new, _ = trial
            merit_new = f_new + mu * penalty(vals_new)
            ratio = (merit - merit_new) / predicted

            if ratio > opts.ratio_good:
                delta = min(delta * opts.trust_expand, opts.max_trust_radius)
            elif ratio < opts.ratio_bad:
                delta = max(delta * opts.trust_shrink, opts.min_trust_radius)

            if merit_new < merit:
                stalled = float(np.max(np.abs(dx), initial=0.0)) <= opts.step_tolerance
                x, merit = x_new, merit_new
                fx, gx, h, rows_vals, rows_jac = trial
            elif delta <= opts.min_trust_radius * 1.01:
                break
        if stalled:
            if max(float(np.max(rows_vals, initial=0.0)), eq_violation(x)) <= opts.feasibility_tolerance:
                converged = True
                break
            if mu >= opts.penalty_cap:
                break
            mu = min(mu * opts.penalty_growth, opts.penalty_cap)
            delta = max(delta, opts.initial_trust_radius)
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
        qp_nonoptimal=qp_stats.nonoptimal,
        kkt_fallbacks=qp_stats.kkt_fallbacks,
        factorizations=factors.factorizations - factorizations,
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
    monolithic problem.  A ``factors`` cache built for this scenario keeps
    each segment's Hessian, equalities, bounds and row evaluator, so later
    calls build only the consensus term; it and ``deadline`` go to ``solve``.
    """
    layout = segment_layout(scenario, first_index, last_index)
    g, c = _consensus_linear(layout, couplings, rho)
    held = factors.segments if factors is not None and factors.scenario is scenario else {}
    key = (first_index, last_index, tuple(cp.waypoint for cp in couplings), rho)
    if key not in held:
        held[key] = (
            build_segment_objective(scenario, first_index, last_index, couplings, rho).hessian_matrix,
            *segment_equalities(scenario, first_index, last_index),
            *segment_bounds(scenario, layout),
            _collision_rows(scenario, layout),
        )
    hessian, a_eq, b_eq, lower, upper, rows = held[key]
    objective = QuadraticFunction(hessian_matrix=hessian, linear=g, constant=c)
    return NlpProblem(
        dim=layout.size,
        objective=objective.value_and_grad,
        objective_hessian=objective.hessian,
        a_eq=a_eq,
        b_eq=b_eq,
        inequalities=rows,
        lower=lower,
        upper=upper,
        x0=np.array(x0, dtype=float),
        factors=factors,
        deadline=deadline,
    )
