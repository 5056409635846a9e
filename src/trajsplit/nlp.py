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
dynamics and pins act on each coordinate alone and alike: H = kron(B, I_d)
and A_eq = kron(A_1, I_d) are held as B and A_1, and only their KKT matrix
is inverted.  With dynamics each velocity and its Euler row are an exact
2x2 pivot, and each pin fixes its variable, both eliminated in closed form;
the free positions are left with a tridiagonal, which one LDL' sweep
inverts in place in the output.  Collision rows, the only ones that mix
coordinates, enter through the QP's Schur complement, whose working set is
a count over preallocated buffers that double when full.
Trust region and joint limits are bounds, held while active; linearized rows
are elastic: a row's multiplier is capped at its penalty weight, and a row at
the cap is tied (its weight moves into the gradient), so no slack is a variable.

Collision constraints enter as the inequality evaluator, which a segment's
solve calls at most once per point (``SolveRows``); dynamics and
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

from .collision import activation_distance, gathered_clearances
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
    """Inverse of a base KKT matrix [[H, A'], [A, 0]], H = kron(B, I_d) and A = kron(A_1, I_d).

    ``block`` inverts [[B, A_1'], [A_1, 0]]: KKT index t, a variable or an
    equality row, lies in coordinate t mod d at position t // d, d =
    ``coordinates``, and entries between coordinates are zero.  ``block`` is
    symmetric, so a row of the inverse is also its column.  ``pseudo`` is
    True when the matrix was singular and ``block`` is a pseudo-inverse.
    """

    def __init__(self, block: np.ndarray, coordinates: int, pseudo: bool) -> None:
        self.block, self.coordinates, self.pseudo = block, coordinates, pseudo

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """K^-1 rhs: one product of the block with a column per coordinate."""
        return _per_coordinate(self.block, rhs)

    def rows(self, idx) -> np.ndarray:
        """K^-1[idx] for an index or an index array."""
        d, flat = self.coordinates, np.ravel(idx)
        out = np.zeros((flat.size, self.block.shape[0], d))
        out[np.arange(flat.size), :, flat % d] = self.block[flat // d]
        return out.reshape(np.shape(idx) + (self.block.shape[0] * d,))

    def entry(self, i: int) -> float:
        """K^-1[i, i]."""
        return self.block[i // self.coordinates, i // self.coordinates]


def _per_coordinate(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """kron(matrix, I_d) x: ``matrix`` times each coordinate's column of x.reshape(columns, d)."""
    return (matrix @ x.reshape(matrix.shape[1], -1)).reshape(-1)


# a block with fewer exact 2x2 pivots is inverted whole; np.linalg.inv and the
# structured inverse cost about the same from 32 to 40 pivots (BENCH_28.json)
MIN_PIVOTS = 32


def _pivots(kkt: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact 2x2 pivots of kkt = [[H, A'], [A, 0]], H n x n: variables j whose row of H
    is zero off the diagonal and whose column of A has one nonzero, in row r; one per row."""
    h, a = kkt[:n, :n], kkt[n:, :n] != 0
    lone = (np.count_nonzero(h, axis=1) == (np.diagonal(h) != 0)) & (np.count_nonzero(a, axis=0) == 1)
    lone = np.flatnonzero(lone)
    r, first = np.unique(a[:, lone].argmax(axis=0), return_index=True)
    return lone[first], r


def _ldl(diag: np.ndarray, off: np.ndarray) -> tuple[list[float], list[float]]:
    """Pivots and multipliers of the LDL' factor of the symmetric tridiagonal (``diag``, ``off``).

    Raises ``LinAlgError`` at a pivot that is not positive: the matrix is
    not positive definite.
    """
    pivots: list[float] = []
    multipliers: list[float] = []
    for s, e in zip(diag.tolist(), [0.0, *off.tolist()]):
        if pivots:
            multipliers.append(e / pivots[-1])
            s -= multipliers[-1] * e
        if not s > 0.0:
            raise np.linalg.LinAlgError("tridiagonal matrix is not positive definite")
        pivots.append(s)
    return pivots, multipliers


def _ldl_solve(rows: list, pivots: list[float], multipliers: list[float]) -> None:
    """Replace ``rows`` by T^-1 rows, T = L D L' from ``_ldl``: a forward and a backward sweep.

    ``rows`` holds views of an array's rows, each step then one operation
    on whole rows in place, or floats, which is faster for a single column.
    """
    for i in range(1, len(rows)):
        rows[i] -= multipliers[i - 1] * rows[i - 1]
    for i in reversed(range(len(rows))):
        rows[i] /= pivots[i]
        if i + 1 < len(rows):
            rows[i] -= multipliers[i] * rows[i + 1]


def _symmetrize(x: np.ndarray, tile: int = 128) -> None:
    """Make x symmetric in place, a tile at a time: the upper triangle is copied to the lower,
    and each diagonal tile is averaged with its transpose."""
    for i in range(0, x.shape[0], tile):
        mean = x[i : i + tile, i : i + tile] + x[i : i + tile, i : i + tile].T
        mean *= 0.5
        x[i : i + tile, i : i + tile] = mean
        for j in range(i + tile, x.shape[0], tile):
            x[j : j + tile, i : i + tile] = x[i : i + tile, j : j + tile].T


def _condensed_inverse(kkt: np.ndarray, n: int, j: np.ndarray, r: np.ndarray) -> np.ndarray | None:
    """The symmetric inverse of ``kkt``, written into it, from its structure; None if it has another.

    A pivot pair (variable j, row n + r) has the block [[h, a], [a, 0]], and
    row r meets the other variables C in u; eliminating the pairs leaves
    S = K_CC + sum (h/a^2) u u' over C and the unpaired rows.  There
    1. a row that meets one remaining variable (a pin, or the first Euler
       step once the start is pinned) fixes it: the pair changes no other
       entry.  The fixed variables E and their rows F, in that order, have
       a triangular A_FE = M^-1;
    2. what is left must be a positive definite tridiagonal S_TT over the
       free variables T (``LinAlgError`` if a pivot is not positive).  Rows
       T of K^-1 are S_TT^-1 B_T, one LDL' sweep over rows of the output; B_T
       is I on T, -S_TE M on F, -u/a on j and h u/a^2 on r;
    3. every other row combines rows already written, read off K's rows:
       E is M on F, j = (e_r - u X_C)/a, r = (e_j - h X_j)/a, and
       F = M' (e_E - H_EC X_C - U_E' X_r).
    No array of the output's size is made beside it: the last step makes it
    symmetric a tile at a time.
    """
    size, pairs, rows = kkt.shape[0], j.size, n + r
    h, a = kkt[j, j], kkt[rows, j]
    free = np.ones(size, dtype=bool)
    free[j] = free[rows] = False
    pair = np.full(size, -1)
    pair[rows] = np.arange(pairs)
    # K's entries on the variables of C, by row: H's, the unpaired rows' and u
    ki, kc = np.divmod(np.flatnonzero(kkt[:, :n] != 0), n)
    keep = free[kc]
    ki, kc = ki[keep], kc[keep]
    kv = kkt[ki, kc]
    in_h, in_u = ki < n, pair[ki] >= 0
    meets: dict[int, dict[int, float]] = {row: {} for row in (np.flatnonzero(free[n:]) + n).tolist()}
    unpaired = ~in_h & ~in_u
    for row, var, value in zip(ki[unpaired].tolist(), kc[unpaired].tolist(), kv[unpaired].tolist()):
        meets[row][var] = value
    fixed: dict[int, int] = {}  # variable: the row that fixes it
    left = list(meets)
    while left:
        for row in left:
            live = [var for var in meets[row] if var not in fixed]
            if len(live) < 2:
                break
        else:
            return None  # rows that meet two free variables
        if not live:
            raise np.linalg.LinAlgError("a row meets no free variable")
        fixed[live[0]] = row
        left.remove(row)
    e, f = np.array(list(fixed), dtype=int), np.array(list(fixed.values()), dtype=int)
    a_fe = np.array([[meets[row].get(var, 0.0) for var in e] for row in f]).reshape(e.size, e.size)
    m = np.linalg.inv(a_fe)  # triangular in the order of elimination
    free[e] = False
    t = np.flatnonzero(free[:n])
    where, slot = np.full(size, -1), np.full(size, -1)
    where[t], slot[e] = np.arange(t.size), np.arange(e.size)

    # each pair row's entries u in columns, padded with zeros: variable and -u/a
    up, uc, uv = pair[ki[in_u]], kc[in_u], kv[in_u]
    count = np.bincount(up, minlength=pairs)
    rank = np.arange(up.size) - (np.cumsum(count) - count)[up]
    width = count.max(initial=0)
    u_var, u_coef = np.zeros((pairs, width), dtype=int), np.zeros((pairs, width))
    u_var[up, rank], u_coef[up, rank] = uc, -uv / a[up]
    # S on C's variables: H there plus (h/a^2) u u'
    si, sj, sv = [ki[in_h]], [kc[in_h]], [kv[in_h]]
    for x in range(width):
        for y in range(width):
            si.append(u_var[:, x])
            sj.append(u_var[:, y])
            sv.append(h * u_coef[:, x] * u_coef[:, y])
    si, sj, sv = (np.concatenate(c) for c in (si, sj, sv))
    ti, tj = where[si], where[sj]
    in_t = (ti >= 0) & (tj >= 0)
    if np.any(np.abs(ti[in_t] - tj[in_t]) > 1):
        return None  # not tridiagonal
    diagonal, above = in_t & (ti == tj), in_t & (tj == ti + 1)
    factor = _ldl(np.bincount(ti[diagonal], sv[diagonal], minlength=t.size),
                  np.bincount(ti[above], sv[above], minlength=t.size)[: max(t.size - 1, 0)])
    s_te = np.zeros((t.size, e.size))
    te = (ti >= 0) & (slot[sj] >= 0)
    np.add.at(s_te, (ti[te], slot[sj[te]]), sv[te])

    # rows T: B_T, then the sweep
    kkt[t] = 0.0
    kkt[t, t] = 1.0
    on_t = where[uc] >= 0
    kkt[uc[on_t], j[up[on_t]]] = -uv[on_t] / a[up[on_t]]
    kkt[uc[on_t], rows[up[on_t]]] = uv[on_t] * h[up[on_t]] / a[up[on_t]] ** 2
    for column, values in zip(f, (-s_te @ m).T):
        kkt[t, column] = values
    _ldl_solve([kkt[k] for k in t.tolist()], *factor)
    # rows E
    kkt[e] = 0.0
    for column, values in zip(f, m.T):
        kkt[e, column] = values
    # rows j and r, a block of pairs at a time
    step = max(1, 2**14 // size)  # pairs per block: temporaries of 128 KB
    for lo in range(0, pairs, step):
        p = slice(lo, min(lo + step, pairs))
        block = np.zeros((p.stop - lo, size))
        for var, coef in zip(u_var[p].T, u_coef[p].T):
            block += coef[:, None] * kkt[var]
        q = np.arange(block.shape[0])
        block[q, rows[p]] += 1.0 / a[p]
        kkt[j[p]] = block
        block *= (-h[p] / a[p])[:, None]
        block[q, j[p]] += 1.0 / a[p]
        kkt[rows[p]] = block
    # rows F
    z = np.zeros((e.size, size))
    z[np.arange(e.size), e] = 1.0
    he, ue = in_h & (slot[ki] >= 0), slot[uc] >= 0
    np.subtract.at(z, slot[ki[he]], kv[he, None] * kkt[kc[he]])
    np.subtract.at(z, slot[uc[ue]], uv[ue, None] * kkt[rows[up[ue]]])
    kkt[f] = m.T @ z
    _symmetrize(kkt)
    return kkt


def kkt_inverse(hessian: np.ndarray, a_eq: np.ndarray, coordinates: int = 1, shift: float = 0.0) -> KktInverse:
    """Inverse of the base KKT matrix [[H + shift I, A'], [A, 0]] of a QP, symmetrized.

    Every active-set step of ``solve_qp`` reuses it: the dual method's start,
    the optimum of the base problem, is one product with it, and a
    constraint c entering the working set needs only the column K^-1 [c; 0]
    (for a bound, a column of the inverse itself).  ``hessian`` and ``a_eq``
    are the one-coordinate blocks B and A_1 of H = kron(B, I_d) and
    A = kron(A_1, I_d); ``coordinates`` is d and only labels the result.  A
    block with ``MIN_PIVOTS`` or more exact 2x2 pivots (with dynamics, each
    velocity and its Euler step or the goal's velocity pin) whose rest is
    pins around a tridiagonal (``_condensed_inverse``) is inverted from that
    structure in O(size^2), written into the output; any other block by
    ``np.linalg.inv``.  A singular matrix is answered by the whole block's
    pseudo-inverse, marked ``pseudo``.
    """
    n, m = hessian.shape[0], a_eq.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = hessian
    kkt[:n, n:] = a_eq.T
    kkt[n:, :n] = a_eq
    kkt.reshape(-1)[: n * (n + m) : n + m + 1] += shift  # the diagonal of H
    j, r = _pivots(kkt, n) if m >= MIN_PIVOTS else (np.zeros(0, dtype=int),) * 2
    try:
        if j.size >= MIN_PIVOTS and (condensed := _condensed_inverse(kkt, n, j, r)) is not None:
            return KktInverse(condensed, coordinates, False)
        inverse, pseudo = np.linalg.inv(kkt), False
    except np.linalg.LinAlgError:
        inverse, pseudo = np.linalg.pinv(kkt), True
    # symmetrized, so that row i is column i; kkt's buffer takes the result
    np.add(inverse, inverse.T, out=kkt)
    kkt *= 0.5
    return KktInverse(kkt, coordinates, pseudo)


class FactorCache:
    """The fixed parts of ``scenario``'s segment NLPs, shared by the solves of one run.

    ``segments`` maps a segment shape (waypoint count, pinned start, pinned
    goal, coupled waypoints, rho) to its read-only Hessian, equalities,
    bounds, row evaluator and base ``KktInverse`` (see ``convexify_segment``):
    a segment's KKT matrix depends on nothing else, so each shape is
    factored once per run, from one coordinate's blocks.
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
    built here from ``hessian``, which is read for nothing else; ``hessian``
    and ``a_eq`` are blocks as there, for d = n // len(hessian)).  It starts
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

    The working set is a count k over buffers that double when full (its
    entries, sides, caps, values, multipliers, columns K^-1 [c; 0] and Schur
    matrix); an entry that leaves shifts the later ones left, keeping their
    order.  Each step writes every constraint's violation into one buffer.

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
    kinv = kkt_inverse(hessian, a_eq, n // hessian.shape[0]) if base_inverse is None else base_inverse
    stats = QpStats() if stats is None else stats
    if base_inverse is None:
        stats.kkt_fallbacks += kinv.pseudo
    b = np.asarray(b_in, dtype=float)
    # what counts as a violation of upper bounds, lower bounds and rows
    slack = QP_TOLERANCE * (1.0 + np.abs(np.concatenate([hi, lo, b])))
    x = kinv.solve(np.concatenate([-gradient, b_eq]))[:n]
    over = np.empty(2 * n + m)
    upper_over, lower_over, row_over = over[:n], over[n : 2 * n], over[2 * n :]

    def violations() -> np.ndarray:
        """x - hi, lo - x and a_in x - b, written into ``over``."""
        np.subtract(x, hi, out=upper_over)
        np.subtract(lo, x, out=lower_over)
        np.matmul(a_in, x, out=row_over)
        np.subtract(row_over, b, out=row_over)
        return over

    if (violations() <= slack).all():  # the start violates nothing
        return x, True
    weight = np.full(m, np.inf) if penalty is None else np.asarray(penalty, dtype=float)
    if max_iterations is None:
        max_iterations = 3 * (n + m + np.count_nonzero(np.isfinite(lo)) + np.count_nonzero(np.isfinite(hi))) + 100
    row_columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # working set of k entries (variable j for a bound, n + r for row r),
    # their sides (-1 for a lower bound or a row entered from the tied side),
    # caps and values (c'x is held at the value), multipliers lam (side * lam
    # stays in [0, cap]), columns K^-1 [c; 0] and Schur matrix
    k, entries, table = 0, np.zeros(8, dtype=int), np.zeros((4, 8))
    side, cap, values, lam = table
    cols, schur = np.zeros((n + len(b_eq), 8)), np.zeros((8, 8))
    held = np.zeros(2 * n + m, dtype=bool)  # upper bounds, lower bounds and rows in the working set
    tied = np.zeros(m, dtype=bool)  # the row's weight is in the gradient

    def column(e: int) -> tuple[np.ndarray, np.ndarray, float]:
        """K^-1 [c; 0] of entry e, its Schur row against the working set, and its pivot."""
        if e < n:
            return kinv.rows(e), cols[e, :k], kinv.entry(e)
        if e not in row_columns:
            nz = np.flatnonzero(a_in[e - n])
            row_columns[e] = nz, a_in[e - n, nz] @ kinv.rows(nz)
        nz, col = row_columns[e]
        a = a_in[e - n, nz]
        return col, a @ cols[nz, :k], a @ col[nz]

    def finish(optimal: bool) -> tuple[np.ndarray, bool]:
        index = entries[:k]
        x[index[index < n]] = values[:k][index < n]
        stats.steps += steps
        stats.nonoptimal += not optimal
        return x, optimal

    steps = 0
    while True:
        violations()
        np.negative(row_over, out=row_over, where=tied)
        over[held | (over <= slack)] = 0.0
        i = int(over.argmax()) if over.size else 0
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
            if k:
                try:
                    dlam = -np.linalg.solve(schur[:k, :k], cross)
                except np.linalg.LinAlgError:
                    dlam = -np.linalg.lstsq(schur[:k, :k], cross, rcond=None)[0]
                    stats.kkt_fallbacks += 1
                z = z + cols[:n, :k] @ dlam
                sigma += cross @ dlam
                # the step at which each entry's multiplier reaches 0, or its cap
                rate, held_lam = side[:k] * s * dlam, side[:k] * lam[:k]
                ratio = np.full(k, np.inf)
                np.divide(held_lam, -rate, out=ratio, where=rate < -QP_TOLERANCE)
                np.divide(cap[:k] - held_lam, rate, out=ratio, where=(rate > QP_TOLERANCE) & (cap[:k] < np.inf))
                drop = int(ratio.argmin())
            violation = s * ((x[e] if e < n else a_in[e - n] @ x) - value)
            bounds = (max(violation, 0.0) / sigma if sigma > QP_TOLERANCE * pivot else np.inf, limit - taken, ratio[drop])
            event = min(range(3), key=bounds.__getitem__)
            if bounds[event] == np.inf:
                # p is the working set's combination with weights -dlam: its violation
                # is round-off of that combination, or no point meets the hard rows
                return finish(violation <= QP_TOLERANCE * (1.0 + abs(value) + np.abs(dlam) @ (1.0 + np.abs(values[:k]))))
            t = max(bounds[event], 0.0)
            x -= (s * t) * z
            lam[:k] += (s * t) * dlam
            taken += t
            if event == 0:  # p holds: it joins the working set
                if k == entries.size:
                    entries, table, cols = (np.concatenate([a, np.zeros_like(a)], axis=-1) for a in (entries, table, cols))
                    side, cap, values, lam = table
                    schur = np.pad(schur, (0, k))
                schur[k, :k] = schur[:k, k] = cross
                schur[k, k] = pivot
                cols[:, k], entries[k], table[:, k] = col, e, (s, limit, value, s * taken)
                k += 1
                held[e + n] = held[e if e < n else e + n] = True
            elif event == 1:  # p's multiplier reached its weight: p ties, or goes free from the tied side
                tied[e - n] = s > 0
            else:  # an entry's multiplier reached 0, or its weight: it leaves, free or tied
                gone = entries[drop]
                held[gone + n] = held[gone if gone < n else gone + n] = False
                if gone >= n and rate[drop] > 0:
                    tied[gone - n] = side[drop] > 0
                for a in (entries, table, cols):
                    a[..., drop : k - 1] = a[..., drop + 1 : k]
                schur[drop : k - 1, :k] = schur[drop + 1 : k, :k]
                schur[: k - 1, drop : k - 1] = schur[: k - 1, drop + 1 : k]
                k -= 1
                continue
            break


# --- problem description ------------------------------------------------------


@dataclass(frozen=True)
class QuadraticFunction:
    """f(x) = 1/2 x'Hx + g'x + c with exact derivatives; H = kron(``hessian_matrix``, I_d),
    d = x.size // len(``hessian_matrix``), so a general Hessian is d = 1."""

    hessian_matrix: np.ndarray = field(repr=False)
    linear: np.ndarray = field(repr=False)
    constant: float = 0.0

    def value(self, x: np.ndarray) -> float:
        return self.value_and_grad(x)[0]

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        hx = _per_coordinate(self.hessian_matrix, x)
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
    from contact), never violated ones.  With a (k, k) Hessian, ``a_eq`` is
    (rows, k), A_eq = kron(a_eq, I_d), and ``b_eq`` holds rows * d values,
    row-major.  ``base_inverse``, when given, must be ``kkt_inverse`` of the
    Hessian and ``a_eq`` with shift ``PROX_REGULARIZATION``, that Hessian
    already checked (``convexify_segment`` checks it once per cache entry);
    without it ``solve`` checks the Hessian and factors the KKT matrix.
    ``deadline`` is a ``time.perf_counter`` value.
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


def _check_hessian(h: np.ndarray, n: int, values: bool = True) -> None:
    """Raise unless H is a (k, k) matrix, k dividing n, and, with ``values``, finite and symmetric."""
    if values:
        _check_finite(h, "objective hessian")
    k = h.shape[0] if h.ndim else 0
    t = 256  # symmetry by tiles, each read transposed while in cache: 5x faster than h == h.T at n = 2560
    if h.shape != (k, k) or not k or n % k or (
            values and not all(np.array_equal(h[i : i + t, j : j + t], h[j : j + t, i : i + t].T)
                               for i in range(0, k, t) for j in range(i, k, t))):
        raise ConfigError(f"objective hessian must be a symmetric ({n}, {n}) matrix, or (k, k) with k dividing {n}")


# the start projection's Gram matrix is swept from this many rows; below, the
# dense solve is faster (BENCH_28.json: they cross between 143 and 163 rows)
GRAM_SWEEP_ROWS = 150


def _pinned_step(a_eq: np.ndarray, r: np.ndarray) -> np.ndarray | None:
    """The least-norm s with A_eq s = r, one column per coordinate, when A_eq is pins and a band.

    A pin, a row with one nonzero, fixes its variable's step.  The other
    rows, on the free variables, have a tridiagonal Gram matrix when each
    free variable meets two adjacent rows at most (with dynamics, the Euler
    steps); one LDL' sweep per coordinate solves it.  None for fewer than
    ``GRAM_SWEEP_ROWS`` rows, for pins alone, a variable pinned twice,
    another pattern, or a Gram matrix that is not positive definite.
    """
    if a_eq.shape[0] < GRAM_SWEEP_ROWS:
        return None
    nonzero = a_eq != 0
    pins = np.count_nonzero(nonzero, axis=1) == 1
    pinned = nonzero[pins].argmax(axis=1)
    if pins.all() or np.any(np.bincount(pinned) > 1):
        return None
    step = np.zeros((a_eq.shape[1], r.shape[1]))
    step[pinned] = r[pins] / a_eq[pins, pinned][:, None]
    a, nonzero = a_eq[~pins], nonzero[~pins]
    rhs = r[~pins] - a @ step
    a[:, pinned], nonzero[:, pinned] = 0.0, False
    first, last = nonzero.argmax(axis=0), a.shape[0] - 1 - nonzero[::-1].argmax(axis=0)
    if np.any(nonzero.any(axis=0) & (last - first > 1)):
        return None
    try:
        factor = _ldl(np.einsum("ij,ij->i", a, a), np.einsum("ij,ij->i", a[:-1], a[1:]))
    except np.linalg.LinAlgError:
        return None
    columns = rhs.T.tolist()
    for column in columns:
        _ldl_solve(column, *factor)
    return step + a.T @ np.array(columns).T


def project_to_affine(x: np.ndarray, a_eq: np.ndarray, b_eq: np.ndarray, stats: QpStats | None = None) -> np.ndarray:
    """Least-norm correction onto the affine set kron(A, I_d) x = b, d = x.size // A's columns.

    With pins and banded rows (``_pinned_step``) the pins are applied and the
    rest's tridiagonal Gram matrix is swept; otherwise the Gram matrix of A
    is solved with one right-hand side per coordinate.  Redundant rows make
    it singular; the correction is then taken by least squares and counted
    in ``stats.kkt_fallbacks``.
    """
    r = b_eq - _per_coordinate(a_eq, x)
    if float(np.max(np.abs(r), initial=0.0)) <= 1e-12:
        return x
    r = r.reshape(a_eq.shape[0], -1)
    step = _pinned_step(a_eq, r)
    if step is not None:
        return x + step.reshape(-1)
    try:
        w = np.linalg.solve(a_eq @ a_eq.T, r)
    except np.linalg.LinAlgError:
        if stats is not None:
            stats.kkt_fallbacks += 1
        return x + np.linalg.lstsq(a_eq, r, rcond=None)[0].reshape(-1)
    return x + (a_eq.T @ w).reshape(-1)


def solve(problem: NlpProblem, options: SolverOptions | None = None) -> NlpSolution:
    """Solve an NLP by sequential convexification with an l1 exact penalty.

    Every point visited (``x0`` and each trial step) is evaluated exactly
    once; an accepted trial's evaluation is the next iteration's model.
    Never raises on non-convergence: the iteration limit, or the problem's
    ``deadline`` reached first, returns the iterate reached with
    ``converged=False``.  A non-finite objective array or evaluator output
    raises ``EvaluatorError``; an asymmetric Hessian, an array of the wrong
    shape, or bounds that are NaN or cross raise ``ConfigError``.  The
    Hessian is checked once, and only when no ``base_inverse`` is handed in.
    """
    opts = options or SolverOptions()
    n = problem.dim
    x = np.array(problem.x0 if problem.x0 is not None else np.zeros(n), dtype=float)
    if x.shape != (n,):
        raise ConfigError(f"x0 must have shape ({n},), got {x.shape}")

    h, base = problem.objective.hessian_matrix, problem.base_inverse
    _check_hessian(h, n, values=base is None)
    k, d = h.shape[0], n // h.shape[0]  # the Hessian acts on each of d coordinates alike
    a_eq = np.asarray(problem.a_eq, dtype=float) if problem.a_eq is not None else np.zeros((0, k))
    b_eq = np.asarray(problem.b_eq, dtype=float) if problem.b_eq is not None else np.zeros(0)
    lower = np.asarray(problem.lower, dtype=float) if problem.lower is not None else np.full(n, -np.inf)
    upper = np.asarray(problem.upper, dtype=float) if problem.upper is not None else np.full(n, np.inf)
    if a_eq.ndim != 2 or a_eq.shape[1] != k:
        raise ConfigError(f"a_eq must have shape (rows, {k}), got {a_eq.shape}")
    if b_eq.shape != (a_eq.shape[0] * d,):
        got = "none" if problem.b_eq is None else b_eq.shape
        raise ConfigError(f"b_eq must have shape ({a_eq.shape[0] * d},), one value per row and coordinate, got {got}")
    for name, array in (("linear", problem.objective.linear), ("lower", lower), ("upper", upper)):
        if np.shape(array) != (n,):
            raise ConfigError(f"{name} must have shape ({n},), got {np.shape(array)}")
    if not (lower <= upper).all():
        raise ConfigError("lower must not exceed upper, and neither bound may be NaN")
    _check_finite(problem.objective.linear, "objective linear term")

    qp_stats = QpStats()
    # kkt_inverse of H + prox I and A_eq, the base of every QP of this solve
    if base is None:
        base = kkt_inverse(h, a_eq, d, PROX_REGULARIZATION)
    elif base.block.shape[0] != k + a_eq.shape[0] or base.coordinates != d:
        raise ConfigError(f"base_inverse must be of a KKT matrix of size {n + b_eq.size}")
    qp_stats.kkt_fallbacks += base.pseudo
    if a_eq.shape[0]:
        x = project_to_affine(x, a_eq, b_eq, qp_stats)
    x = np.minimum(np.maximum(x, lower), upper)

    def evaluate(point: np.ndarray):
        """Objective value, gradient, inequality rows."""
        f, g = problem.objective.value_and_grad(point)
        if problem.inequalities is not None:
            vals, jac = problem.inequalities(point)
            vals, jac = np.asarray(vals, dtype=float), np.asarray(jac, dtype=float)
            if vals.ndim != 1 or jac.shape != (vals.shape[0], n):
                raise EvaluatorError(f"inequality evaluator must return values (rows,) and a jacobian "
                                     f"(rows, {n}), got {vals.shape} and {jac.shape}")
        else:
            vals, jac = np.zeros(0), np.zeros((0, n))
        if not np.isfinite(np.concatenate(([f], g, vals, jac.reshape(-1)))).all():  # the checks below name it
            for value, what in ((f, "objective"), (g, "objective gradient"), (vals, "inequality evaluator"),
                                (jac, "inequality jacobian")):
                _check_finite(value, what)
        return f, g, vals, jac

    def penalty(vals: np.ndarray) -> float:
        return float(np.maximum(vals, 0.0).sum())

    def eq_violation(point: np.ndarray) -> float:
        return float(np.abs(_per_coordinate(a_eq, point) - b_eq).max()) if a_eq.shape[0] else 0.0

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
            h, gx - _per_coordinate(h, x) - PROX_REGULARIZATION * x, a_eq, b_eq, rows_jac, rows_jac @ x - rows_vals,
            lower=lo_eff, upper=hi_eff, penalty=np.full(len(rows_vals), mu), base_inverse=base, stats=qp_stats,
        )
        x_new = np.minimum(np.maximum(sol, lo_eff), hi_eff)

        dx = x_new - x
        model_obj = fx + gx @ dx + 0.5 * dx @ _per_coordinate(h, dx)
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
                stalled = float(np.abs(dx).max(initial=0.0)) <= opts.step_tolerance
                x, merit = x_new, merit_new
                fx, gx, rows_vals, rows_jac = trial
            elif delta <= MIN_TRUST_RADIUS * 1.01:
                break
        if stalled:
            if max(float(rows_vals.max(initial=0.0)), eq_violation(x)) <= opts.feasibility_tolerance:
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
        max_inequality_violation=float(rows_vals.max(initial=0.0)),
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
    by exactly one segment so no halving is needed.  The Hessian is one
    coordinate's block (``_segment_hessian``).
    """
    layout = segment_layout(scenario, first_index, last_index)
    g, c = _consensus_linear(layout, couplings, rho)
    h = _segment_hessian(layout, [cp.waypoint for cp in couplings], rho)
    return QuadraticFunction(hessian_matrix=h, linear=g, constant=c)


def _segment_hessian(layout: SegmentLayout, coupled: Sequence[int], rho: float) -> np.ndarray:
    """One coordinate's Hessian block of a segment's cost plus rho on the states of its
    ``coupled`` waypoints: p_k at s k and v_k at s k + 1, s = state_dim // dim."""
    count, s = layout.count, layout.state_dim // layout.dim
    h = np.zeros((count * s, count * s))
    if layout.dynamics:
        weight = np.ones(count)
        weight[list(coupled)] = 0.5
        velocity = s * np.arange(count) + 1
        h[velocity, velocity] = 2.0 * weight
    else:
        # squared edge differences: a path-graph Laplacian
        scale = 2.0 / (layout.dt * layout.dt)
        np.fill_diagonal(h, scale * ((np.arange(count) > 0).astype(float) + (np.arange(count) < count - 1)))
        edge = np.arange(count - 1)
        h[edge, edge + 1] = h[edge + 1, edge] = -scale
    for k in coupled:
        state = s * k + np.arange(s)
        h[state, state] += rho
    return h


def segment_equalities(
    scenario: Scenario, first_index: int, last_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Affine rows: dynamics between consecutive waypoints plus endpoint pins.

    The global start pins position (and velocity, with dynamics) of the first
    waypoint; the global goal pins the last.  Split-point waypoints are never
    pinned, consensus terms steer them instead.  ``a_eq`` is one coordinate's
    block, on the Hessian's columns; the values are per row and coordinate.
    """
    layout = segment_layout(scenario, first_index, last_index)
    count, sd, s = layout.count, layout.state_dim, layout.state_dim // layout.dim
    # q_{k+1} - q_k - dt v_k = 0 per waypoint pair; q holds the q_k columns
    q = s * np.arange(count - 1 if layout.dynamics else 0)
    pins = [(0, scenario.start)] if first_index == 0 else []
    if last_index == scenario.num_waypoints - 1:
        pins.append((count - 1, scenario.goal))
    pinned = (s * np.array([k for k, _ in pins], dtype=int)[:, None] + np.arange(s)).reshape(-1)
    rows = np.arange(q.size)
    a_eq = np.zeros((q.size + pinned.size, count * s))
    a_eq[rows, q + s] = 1.0
    a_eq[rows, q] = -1.0
    a_eq[rows, q + 1] = -layout.dt
    a_eq[q.size + np.arange(pinned.size), pinned] = 1.0
    values = [np.concatenate([state.position, state.velocity])[:sd] for _, state in pins]
    return a_eq, np.concatenate([np.zeros(q.size * layout.dim), *values])


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
        _, (waypoint, _, _), sd, grad = gathered_clearances(scenario, layout.positions(x), activation)
        keep = sd <= activation
        waypoint = waypoint[keep]
        jac = np.zeros((waypoint.size, layout.size))
        jac[np.arange(waypoint.size)[:, None], columns[waypoint]] = -grad[keep]
        return margin - sd[keep], jac

    return rows


# an older evaluation's Jacobian this large is kept as its entries that are not
# +0.0; a smaller one costs less memory than its compaction costs time
COMPACT_BYTES = 2**16


class SolveRows:
    """A segment's row evaluator for one solve: no point is evaluated twice.

    Rows are kept per point, keyed by its bytes, with those handed to
    ``carry`` (the previous solution's), so a solve that starts there,
    unmoved by its projection and clip, does not evaluate its start again.
    ``at`` gives a known point's (point, rows), for the segment to carry on.
    An older evaluation's Jacobian of ``COMPACT_BYTES`` or more (the newest
    stays dense) keeps only its entries that are not +0.0, so a long
    segment's solve does not hold a dense Jacobian per point it visited.
    """

    def __init__(self, rows: InequalityFn) -> None:
        self.rows, self.known, self.newest = rows, {}, None

    def carry(self, x: np.ndarray, rows: tuple[np.ndarray, np.ndarray]) -> None:
        self.known[x.tobytes()] = rows

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        key = x.tobytes()
        if key not in self.known:
            rows = self.rows(x)
            if self.newest is not None and self.known[self.newest][1].nbytes >= COMPACT_BYTES:
                vals, jac = self.known[self.newest]
                kept = np.flatnonzero((jac != 0) | np.signbit(jac))
                self.known[self.newest] = vals, (jac.shape, kept, jac.reshape(-1)[kept])
            self.known[key], self.newest = rows, key
        vals, jac = self.known[key]
        if isinstance(jac, tuple):
            shape, kept, entries = jac
            jac = np.zeros(shape)
            jac.reshape(-1)[kept] = entries
        return vals, jac

    def at(self, x: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        return x, self(x)


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
    consensus term.  ``deadline`` goes to ``solve``.  The problem's rows are
    a fresh ``SolveRows`` over the cached evaluator.
    """
    layout = segment_layout(scenario, first_index, last_index)
    g, c = _consensus_linear(layout, couplings, rho)
    held = factors.segments if factors is not None and factors.scenario is scenario else {}
    coupled = tuple(cp.waypoint for cp in couplings)
    key = (layout.count, first_index == 0, last_index == scenario.num_waypoints - 1, coupled, rho)
    if key not in held:
        hessian = _segment_hessian(layout, coupled, rho)
        _check_hessian(hessian, layout.size)
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
        inequalities=None if rows is None else SolveRows(rows),
        lower=lower,
        upper=upper,
        x0=np.array(x0, dtype=float),
        deadline=deadline,
        base_inverse=base,
    )
