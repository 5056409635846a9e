"""Trajectory NLP solver: sequential convexification over a factor-once QP.

The nonlinear program  min f(x)  s.t.  A x = b,  g(x) <= 0,  lo <= x <= hi, f
quadratic, is solved by repeatedly minimizing a convex model: f itself, exact
affine equalities, linearized inequalities with an l1 exact penalty on their
violation, all inside an infinity-norm trust region.  The convex subproblems
are solved by a Schur-complement dual active-set method, which starts at the
unconstrained optimum and adds only violated constraints.  The objective is
quadratic and the equalities affine, so the KKT matrix of the Hessian and the
equalities is fixed: a solve factors it once, and a run factors it once per
segment shape (a ``FactorCache`` keeps it), since only the consensus linear
term changes between rounds.  A segment's cost, dynamics and pins act on each
coordinate alone and alike: H = kron(B, I_d) and A_eq = kron(A_1, I_d) are held
as B's diagonal and superdiagonal (``Band``) and A_1's Euler rows and pins
(``DynamicsRows``), with O(k) products.  Their KKT block's inverse is held in
O(k) memory as P + Q T^-1 Q' (``KktInverse``): the velocities, Euler rows and
pins eliminated in closed form give the sparse P and Q, and T, the free
positions' tridiagonal, is held as the generators of its LDL' factor.
Collision rows, the only ones that mix coordinates, are held as their
waypoint's d columns and coefficients and enter through the QP's Schur
complement, whose working set is a count over preallocated buffers that
double when full.
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

import math
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

    It inverts the one-coordinate block K = [[B, A_1'], [A_1, 0]] of ``size``
    rows: KKT index t, a variable or an equality row, lies in coordinate
    t mod d at position t // d, d = ``coordinates``, and entries between
    coordinates are zero.  A segment's block of ``DENSE_SIZE`` rows or more
    is held as K^-1 = P + Q T^-1 Q' (``_segment_parts``): ``p`` and ``q`` are
    sparse, each (rows, columns, values) with O(size) entries, and T^-1, the
    inverse of a tridiagonal, is held as the generators ``u`` and ``s`` of its
    factor (``_ldl``): (T^-1)_ij = u_i v_j for i <= j, v_j = u_j sum_{k>=j} s_k^2
    (Meurant, 1992).  Any other block is held ``dense``, a pseudo-inverse if K
    was singular (``pseudo``).  K^-1 is symmetric, so a row is also a column.
    """

    def __init__(self, size: int, coordinates: int, pseudo: bool = False, dense: np.ndarray | None = None,
                 parts: tuple | None = None) -> None:
        self.size, self.coordinates, self.pseudo, self.dense = size, coordinates, pseudo, dense
        self.p, self.q, self.u, self.s = parts or ((), (), None, None)
        self.flat: tuple = ()
        if dense is not None:
            self.diagonal = dense.diagonal()
            return
        # P's diagonal, plus q T^-1 q' over each row q of Q; the entries' flat indices for d columns
        (pi, pj, pv), (qc, qv) = self.p, _padded(*self.q, size)
        low, high = np.minimum(qc[:, :, None], qc[:, None, :]), np.maximum(qc[:, :, None], qc[:, None, :])
        v = self.u * np.cumsum((self.s * self.s)[::-1])[::-1]
        self.diagonal = (np.bincount(pi[pi == pj], pv[pi == pj], minlength=size)
                         + (qv[:, :, None] * qv[:, None, :] * self.u[low] * v[high]).sum((1, 2)))
        self.flat = _flat(*self.p, coordinates), _flat(*self.q, coordinates)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """K^-1 rhs, a column per coordinate: with the parts, Q', two cumulative sums, then P and Q."""
        return self._apply(rhs.reshape(self.size, -1)).reshape(-1)

    def rows(self, idx) -> np.ndarray:
        """K^-1[idx] for an index or an index array."""
        d, flat = self.coordinates, np.ravel(idx)
        if self.dense is not None:
            block = self.dense[flat // d]
        else:  # a collision row asks for the d coordinates of one row of the block: it is taken once
            rows = flat // d
            rows = rows[:1] if rows.size > 1 and rows.min() == rows.max() else rows
            unit = np.zeros((self.size, rows.size))
            unit[rows, np.arange(rows.size)] = 1.0
            block = self._apply(unit).T
        out = np.zeros((flat.size, self.size, d))
        out[np.arange(flat.size), :, flat % d] = block
        return out.reshape(np.shape(idx) + (self.size * d,))

    def entry(self, i: int) -> float:
        """K^-1[i, i]."""
        return self.diagonal[i // self.coordinates]

    def arrays(self) -> list[np.ndarray]:
        """Every array it holds: its dense form, or its parts and their entries for d columns, and its diagonal."""
        flat = [a for part in self.flat for a in part]
        return [a for a in (self.dense, self.u, self.s, self.diagonal, *self.p, *self.q, *flat) if a is not None]

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """The block's inverse times x of shape (size, columns)."""
        if self.dense is not None:
            return self.dense @ x
        c, t, x = x.shape[1], self.u.size, x.reshape(-1)
        (pi, pj, pv), (qi, qj, qv) = self.flat if c == self.coordinates else (_flat(*self.p, c), _flat(*self.q, c))
        y = _tridiagonal_solve(self.u, self.s, np.bincount(qj, qv * x[qi], minlength=t * c).reshape(t, c)).reshape(-1)
        return (np.bincount(pi, pv * x[pj], minlength=self.size * c) + np.bincount(qi, qv * y[qj], minlength=self.size * c)
                ).reshape(-1, c)


def _flat(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries (rows, cols, values) of a sparse S as those of kron(S, I_c): a product with x of c columns is
    then one gather of x's flat entries and one ``np.bincount``."""
    return (rows[:, None] * c + np.arange(c)).reshape(-1), (cols[:, None] * c + np.arange(c)).reshape(-1), np.repeat(values, c)


def _per_coordinate(matrix, x: np.ndarray) -> np.ndarray:
    """kron(matrix, I_d) x: ``matrix`` times each coordinate's column of x.reshape(columns, d)."""
    return (matrix @ x.reshape(matrix.shape[1], -1)).reshape(-1)


class _Block:
    """A one-coordinate block held as its structure; ``np.asarray`` expands it, for tests and oracles."""

    ndim = 2
    __array_ufunc__ = None  # numpy defers to the block's own products rather than expand it

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense, (i, j, v) = np.zeros(self.shape), self.entries()
        dense[i, j] = v
        return dense


@dataclass(frozen=True, eq=False)
class Band(_Block):
    """A symmetric tridiagonal block: ``bands`` are its diagonal, then its superdiagonal and a 0 if any, each (k, 1)
    or (k, d) with d equal columns, as a segment's are held, so that a product with d columns broadcasts nothing."""

    bands: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.bands.shape[1],) * 2

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """B x for x of shape (k, d)."""
        out = self.bands[0] * x
        if len(self.bands) > 1:
            upper = self.bands[1, :-1]
            out[:-1] += upper * x[1:]
            out[1:] += upper * x[:-1]
        return out

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the entries that may be nonzero: the diagonal, then any off-diagonals."""
        k, upper = np.arange(self.shape[0]), self.bands[1:, :-1, 0].reshape(-1)
        u, v = k[: upper.size], k[1 : upper.size + 1]
        return np.concatenate([k, u, v]), np.concatenate([k, v, u]), np.concatenate([self.bands[0, :, 0], upper, upper])


@dataclass(frozen=True, eq=False)
class DynamicsRows(_Block):
    """A segment's equality block A_1: with velocities (s = 2), an Euler row q_{k+1} - q_k - dt v_k = 0 per step,
    then a pin (coefficient 1) on each column in ``pinned``; ``count`` waypoints of ``s`` columns, v_k at s k + 1."""

    count: int
    s: int
    dt: float
    pinned: np.ndarray

    steps = property(lambda self: self.count - 1 if self.s > 1 else 0)  # the Euler rows

    @property
    def shape(self) -> tuple[int, int]:
        return self.steps + self.pinned.size, self.count * self.s

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A_1 x for x of shape (count * s, d): slices of x by waypoint, and a gather."""
        q, e = x.reshape(self.count, self.s, -1), self.steps
        return np.concatenate([q[1 : e + 1, 0] - q[:e, 0] - self.dt * q[:e, -1], x[self.pinned]]) if e else x[self.pinned]

    def rmatmat(self, w: np.ndarray) -> np.ndarray:
        """A_1' w for w of shape (rows, d)."""
        out, e = np.zeros((self.count, self.s, w.shape[1])), self.steps
        out[1 : e + 1, 0], out[:e, -1] = w[:e], -self.dt * w[:e]
        out[:e, 0] -= w[:e]
        out.reshape(self.shape[1], -1)[self.pinned] += w[e:]
        return out.reshape(self.shape[1], -1)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the nonzeros: p_k, v_k and p_{k+1} in Euler row k, then the pins."""
        e, s, p = np.arange(self.steps), self.s, self.pinned
        if not e.size:
            return np.arange(p.size), p, np.ones(p.size)
        return (np.concatenate([e, e, e, e.size + np.arange(p.size)]), np.concatenate([s * e, s * e + 1, s * e + s, p]),
                np.repeat([-1.0, -self.dt, 1.0, 1.0], [e.size] * 3 + [p.size]))


def _ldl(diag: np.ndarray, off: np.ndarray) -> tuple[list[float], list[float]]:
    """u and s with (L^-T D^-1/2)_ij = u_i s_j for i <= j, T = L D L' the symmetric tridiagonal (``diag``, ``off``).

    With T's pivots d_k, u_i is the product of -d_k / off_k over k < i, and
    s_j = 1 / (u_j sqrt(d_j)).  Raises ``LinAlgError`` unless T is positive
    definite with no zero off the diagonal.
    """
    a, b = diag.tolist(), off.tolist()
    if not all(b):
        raise np.linalg.LinAlgError("tridiagonal matrix is reducible")
    pivot, u, s = a[:1], [1.0] * len(a), [0.0] * len(a)
    for k in range(len(a)):
        if not pivot[k] > 0.0:
            raise np.linalg.LinAlgError("tridiagonal matrix is not positive definite")
        s[k] = 1.0 / (u[k] * math.sqrt(pivot[k]))
        if k < len(b):
            pivot.append(a[k + 1] - b[k] / pivot[k] * b[k])
            u[k + 1] = -u[k] * pivot[k] / b[k]
    if not math.isfinite(sum(u) + sum(s)):
        raise np.linalg.LinAlgError("tridiagonal matrix's factor overflows")
    return u, s


def _tridiagonal_solve(u: np.ndarray, s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """T^-1 b for b of shape (t, c), from ``_ldl``'s u and s: T^-1 = M M' with M_ij = u_i s_j for i <= j, so
    (M' b)_j = s_j times the sum of u_i b_i over i <= j, and (M c)_i = u_i times the sum of s_j c_j over j >= i."""
    inner = np.cumsum(u[:, None] * b, axis=0)
    inner *= (s * s)[:, None]
    return u[:, None] * np.cumsum(inner[::-1], axis=0)[::-1]


def _padded(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The sparse matrix of entries (rows, cols, values), ``size`` rows, as each row's columns and values padded
    with zeros to one width; entries of value 0 are dropped."""
    keep = values != 0
    order = np.argsort(rows[keep], kind="stable")
    rows, cols, values = rows[keep][order], cols[keep][order], values[keep][order]
    count = np.bincount(rows, minlength=size)
    slot = np.arange(rows.size) - (np.cumsum(count) - count)[rows]
    padded_cols, padded_values = np.zeros((size, count.max(initial=0)), dtype=int), np.zeros((size, count.max(initial=0)))
    padded_cols[rows, slot], padded_values[rows, slot] = cols, values
    return padded_cols, padded_values


def _join(x: tuple, y: tuple, size: int) -> list[np.ndarray]:
    """Each pair of entries of the sparse x and y, (rows, cols, values) over ``size`` rows, in one row:
    (row, x's column, y's column, product); summed over rows they give x'y."""
    cols, values = _padded(*x, size)
    r, c, v = y
    return [np.concatenate(part) for part in zip(*[(r, cols[r, a], c, values[r, a] * v) for a in range(cols.shape[1])])]


def _segment_parts(hessian: Band, rows: DynamicsRows, coordinates: int, shift: float) -> KktInverse | None:
    """K^-1 = P + Q T^-1 Q' for a segment's block K = [[B + shift I, A_1'], [A_1, 0]], dense below ``DENSE_SIZE``
    rows; None unless its pins are whole states of its first or last waypoint and leave T positive definite.

    The nullspace method: with A_1 Y = I and Z a basis of A_1's nullspace,
    K^-1 = [[0, Y], [Y', -Y'BY]] + [Z; -Y'BZ] (Z'BZ)^-1 [Z; -Y'BZ]'.  Z's
    column moves a free position p_i and the velocities of the steps beside it
    by -+1/dt, so T = Z'BZ is tridiagonal.  Y's column of an Euler row moves
    its velocity by -1/dt, but a pinned start fixes p_1: the first row and
    p_0's and v_0's pins move it (by 1, 1 and dt), v_1 repairing the second
    row; the goal's position pin repairs the last step by v_{c-2}.  A last
    velocity in no row adds 1/h(v) to P.  All have O(size) entries.
    """
    c, s, dt, e, (m, n) = rows.count, rows.s, rows.dt, rows.steps, rows.shape
    pinned, first, last = rows.pinned.tolist(), list(range(s)), list(range(s * c - s, s * c))
    start = pinned[:s] == first
    goal = pinned[s * start :] == last
    lo, hi = min(s, c) * start, c - goal  # the free positions
    if lo > hi or pinned != first * start + last * goal:
        return None
    free, step, size, t = range(lo, hi), 1.0 / dt, n + m, hi - lo
    h, upper = hessian.bands[0, :, 0] + shift, hessian.bands[1, :-1, :1] if len(hessian.bands) > 1 else None
    w: list[list] = [[], [], []]  # [Y Z]'s entries: rows, columns (Y's are A_1's rows, Z's follow) and values

    def add(*entries: list) -> None:
        for part, more in zip(w, entries):
            part += more

    add(pinned, [e + k for k in range(len(pinned))], [1.0] * len(pinned))
    add([s * i for i in free], [m + i - lo for i in free], [1.0] * t)
    if s > 1:
        paired, before, after = range(start, e), range(max(lo, 1), hi), range(lo, min(hi, c - 1))
        add([2 * k + 1 for k in paired], list(paired), [-step] * len(paired))
        add([2 * i - 1 for i in before], [m + i - lo for i in before], [step] * len(before))
        add([2 * i + 1 for i in after], [m + i - lo for i in after], [-step] * len(after))
        if start and c > 1:
            moves = 3 + 3 * (c > 2)
            add([2, 2, 2, 3, 3, 3][:moves], [0, e, e + 1, 0, e, e + 1][:moves], [1.0, 1.0, dt, -step, -step, -1.0][:moves])
        if goal and c > 1:
            add([2 * c - 3], [e + len(pinned) - 2], [step])
    last_velocity = s > 1 and n - 1 not in pinned  # in no row: 1/h to P
    try:
        if size < DENSE_SIZE:
            dense_w = np.zeros((n, m + t))
            dense_w[w[0], w[1]] = w[2]
            bw = h[:, None] * dense_w  # B [Y Z]
            if upper is not None:
                bw[:-1] += upper * dense_w[1:]
                bw[1:] += upper * dense_w[:-1]
            g = dense_w.T @ bw  # [Y Z]' B [Y Z]: Y'BY, Y'BZ and T
            u, scale = map(np.array, _ldl(g[m:, m:].diagonal(), g[m:, m:].diagonal(1)))
            # Q T^-1 Q' = R R', R = Q L^-T D^-1/2: a cumulative sum over each row of Q
            r = np.concatenate([dense_w[:, m:], -g[:m, m:]]) * u
            y, bw, dense_w = dense_w[:, :m].copy(), None, None  # freed before the block is made
            np.cumsum(r, axis=1, out=r)
            r *= scale
            dense = r @ r.T
            dense[:n, n:] += y
            dense[n:, :n] += y.T
            dense[n:, n:] -= g[:m, :m]
            dense[n - 1, n - 1] += last_velocity / h[-1]
            return KktInverse(size, coordinates, dense=dense)
        w = np.array(w[0]), np.array(w[1]), np.array(w[2])
        # as above from the entries: B is symmetric, so its entries paired with
        # [Y Z]'s by row give B [Y Z], and those paired with [Y Z]'s give g
        band = Band(np.concatenate([h[None, :, None], hessian.bands[1:, :, :1]]))
        _, i, j, g = _join(w, _join(band.entries(), w, n)[1:], n)
        diagonal, above = (i >= m) & (i == j), (i >= m) & (j == i + 1)
        u, scale = map(np.array, _ldl(np.bincount(i[diagonal] - m, g[diagonal], minlength=t),
                                      np.bincount(i[above] - m, g[above], minlength=t)[: max(t - 1, 0)]))
    except np.linalg.LinAlgError:
        return None
    (yr, yc, yv), (zr, zc, zv) = [[part[y] for part in w] for y in (w[1] < m, w[1] >= m)]
    yy, yz, fv = (i < m) & (j < m), (i < m) & (j >= m), np.array([n - 1] * last_velocity, dtype=int)
    p = (np.concatenate([yr, n + yc, n + i[yy], fv]), np.concatenate([n + yc, yr, n + j[yy], fv]),
         np.concatenate([yv, yv, -g[yy], [1.0 / h[-1]] * last_velocity]))
    q = np.concatenate([zr, n + i[yz]]), np.concatenate([zc - m, j[yz] - m]), np.concatenate([zv, -g[yz]])
    return KktInverse(size, coordinates, parts=tuple((i[v != 0], j[v != 0], v[v != 0]) for i, j, v in (p, q)) + (u, scale))


# a segment block of fewer rows is multiplied out once and held dense: products
# with it cost less than with its parts (BENCH_31.json)
DENSE_SIZE = 128


def kkt_inverse(hessian, a_eq, coordinates: int = 1, shift: float = 0.0) -> KktInverse:
    """Inverse of the base KKT matrix [[H + shift I, A'], [A, 0]] of a QP.

    Every active-set step of ``solve_qp`` reuses it: the dual method's start,
    the optimum of the base problem, is one product with it, and a constraint c
    entering the working set needs only the column K^-1 [c; 0] (for a bound, a
    column of the inverse itself).  ``hessian`` and ``a_eq`` are the
    one-coordinate blocks B and A_1 of H = kron(B, I_d) and A = kron(A_1, I_d);
    ``coordinates`` is d and only labels the result.  A segment's ``Band`` and
    ``DynamicsRows`` are held as P + Q T^-1 Q' (``_segment_parts``); arrays, and
    a segment block of other pins or left singular by them, are inverted whole
    by ``np.linalg.inv``, a singular one by ``np.linalg.pinv`` (``pseudo``).
    """
    n, m = hessian.shape[0], a_eq.shape[0]
    if isinstance(hessian, Band) and isinstance(a_eq, DynamicsRows) and (inverse := _segment_parts(hessian, a_eq, coordinates, shift)):
        return inverse
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n], kkt[n:, :n], kkt[:n, n:] = hessian, a_eq, np.transpose(a_eq)
    kkt.reshape(-1)[: n * (n + m) : n + m + 1] += shift  # the diagonal of H
    try:
        inverse, pseudo = np.linalg.inv(kkt), False
    except np.linalg.LinAlgError:
        inverse, pseudo = np.linalg.pinv(kkt), True
    # symmetrized, so that row i is column i; kkt's buffer takes the result
    np.add(inverse, inverse.T, out=kkt)
    kkt *= 0.5
    return KktInverse(n + m, coordinates, pseudo, dense=kkt)


class FactorCache:
    """The fixed parts of ``scenario``'s segment NLPs, shared by the solves of one run.

    ``segments`` maps a segment shape (waypoint count, pinned start, pinned
    goal, coupled waypoints, rho) to its read-only ``Band``, ``DynamicsRows``,
    values, bounds, row evaluator and base ``KktInverse`` (see ``convexify_segment``):
    a segment's KKT matrix depends on nothing else, so each shape is
    factored once per run, from one coordinate's blocks.
    """

    def __init__(self, scenario: Scenario | None = None) -> None:
        self.scenario, self.segments = scenario, {}


QP_TOLERANCE = 1e-11  # violations, multiplier rates and Schur pivots this small count as zero


def _row_products(columns: np.ndarray, coefficients: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the rows of A held as their ``coefficients`` on x's ``columns``, both (rows, width)."""
    return (coefficients * x[columns]).sum(1)


def solve_qp(
    hessian: np.ndarray,
    gradient: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    a_in: np.ndarray,
    b_in: np.ndarray,
    *,
    columns: np.ndarray,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    penalty: np.ndarray | None = None,
    base_inverse: KktInverse | None = None,
    max_iterations: int | None = None,
    stats: QpStats | None = None,
) -> tuple[np.ndarray, bool]:
    """Minimize 1/2 x'Hx + g'x + sum_r penalty_r max(0, a_r x - b_r)
    s.t. A_eq x = b_eq, a_r x <= b_r for the hard rows, lower <= x <= upper.

    Row r of A_in is ``a_in[r]`` on the columns ``columns[r]`` of x, both
    (rows, width); a dense (rows, n) matrix lists every column.  ``penalty``
    gives each row an l1 weight >= 0, or inf for a hard row (the default).
    A finite weight makes the row elastic, as in Fletcher's Sl1QP: its
    multiplier is capped at the weight, and a row whose multiplier reaches
    the cap is tied: its slack a_r x - b_r may grow, and the weight moves
    into the gradient.

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
        np.subtract(_row_products(columns, a_in, x), b, out=row_over)
        return over

    if (violations() <= slack).all():  # the start violates nothing
        return x, True
    weight = np.full(m, np.inf) if penalty is None else np.asarray(penalty, dtype=float)
    if max_iterations is None:
        max_iterations = 3 * (n + m + np.count_nonzero(np.isfinite(lo)) + np.count_nonzero(np.isfinite(hi))) + 100
    row_columns: dict[int, np.ndarray] = {}

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
        a, at = a_in[e - n], columns[e - n]
        if e not in row_columns:
            row_columns[e] = a @ kinv.rows(at)
        col = row_columns[e]
        return col, a @ cols[at, :k], a @ col[at]

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
            violation = s * ((x[e] if e < n else a_in[e - n] @ x[columns[e - n]]) - value)
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
    """f(x) = 1/2 x'Hx + g'x + c with exact derivatives; H = kron(``hessian_matrix``, I_d), d = x.size // k
    for a (k, k) array or a segment's ``Band`` (O(k) products), so a general Hessian is d = 1."""

    hessian_matrix: np.ndarray | Band = field(repr=False)
    linear: np.ndarray = field(repr=False)
    constant: float = 0.0

    def value(self, x: np.ndarray) -> float:
        return self.value_and_grad(x)[0]

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        hx = _per_coordinate(self.hessian_matrix, x)
        return float(0.5 * x @ hx + self.linear @ x + self.constant), hx + self.linear


# inequality rows g(x) <= 0: rows(x) -> (values (rows,), columns of x and coefficients, both (rows, width))
InequalityRows = tuple[np.ndarray, np.ndarray, np.ndarray]
InequalityFn = Callable[[np.ndarray], InequalityRows]


@dataclass(frozen=True)
class NlpProblem:
    """One NLP in the form the convexification loop consumes: a quadratic
    ``objective``, affine equalities, bounds and smooth inequality rows.

    ``inequalities`` is evaluated once at every point the solver visits and
    its rows serve both the convex model and the merit and feasibility
    accounting.  It may return a different number of rows each time: rows
    may omit constraints that are satisfied at x (e.g. collision pairs far
    from contact), never violated ones.  Row r of the Jacobian is
    coefficients[r] on columns[r] (``InequalityFn``), a dense one listing
    every column.  With a (k, k) Hessian, ``a_eq`` is
    (rows, k) or ``DynamicsRows``, A_eq = kron(a_eq, I_d), and ``b_eq`` holds
    rows * d values, row-major.  ``base_inverse``, when given, must be
    ``kkt_inverse`` of the Hessian and ``a_eq`` with shift
    ``PROX_REGULARIZATION``, that Hessian already checked (``convexify_segment``
    checks it once per cache entry); without it ``solve`` checks the Hessian
    and factors the KKT matrix.  ``deadline`` is a ``time.perf_counter`` value.
    """

    dim: int
    objective: QuadraticFunction
    a_eq: np.ndarray | DynamicsRows | None = None
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


def _check_hessian(h, n: int, values: bool = True) -> None:
    """Raise unless H is a (k, k) matrix or ``Band``, k dividing n, and, with ``values``, finite and symmetric."""
    if values:
        _check_finite(h.bands if isinstance(h, Band) else h, "objective hessian")
    k = h.shape[0] if h.ndim else 0
    if h.shape != (k, k) or not k or n % k or (values and not isinstance(h, Band) and not np.array_equal(h, h.T)):
        raise ConfigError(f"objective hessian must be a symmetric ({n}, {n}) matrix, or (k, k) with k dividing {n}")


def _pinned_step(rows: DynamicsRows, r: np.ndarray) -> np.ndarray | None:
    """The least-norm s with A_1 s = r, one column per coordinate, for a segment's rows: a pin fixes
    its variable's step, and the Euler rows' Gram matrix on the free variables is a tridiagonal (rows
    k and k + 1 share p_{k+1}), solved through ``_ldl``'s factor for every coordinate at once.  None
    if it is singular (a row all pinned) or reducible.
    """
    free = 1.0 - np.bincount(rows.pinned, minlength=rows.shape[1])  # 0 on pinned columns
    step, e, f = np.zeros((rows.shape[1], r.shape[1])), rows.steps, free.reshape(rows.count, rows.s)
    step[rows.pinned] = r[e:]
    if not e:
        return step
    try:
        u, s = map(np.array, _ldl(f[:e, 0] + rows.dt * rows.dt * f[:e, -1] + f[1 : e + 1, 0], -f[1:e, 0]))
    except np.linalg.LinAlgError:
        return None
    w = _tridiagonal_solve(u, s, r[:e] - (rows @ step)[:e])
    return step + free[:, None] * rows.rmatmat(np.vstack([w, np.zeros_like(r[e:])]))


def project_to_affine(x: np.ndarray, a_eq, b_eq: np.ndarray, stats: QpStats | None = None) -> np.ndarray:
    """Least-norm correction onto the affine set kron(A, I_d) x = b, d = x.size // A's columns.

    A segment's ``DynamicsRows`` take ``_pinned_step``; otherwise, or when
    that Gram matrix is singular, the Gram matrix of A is solved with one
    right-hand side per coordinate.  Redundant rows make it singular; the
    correction is then taken by least squares and counted in
    ``stats.kkt_fallbacks``.
    """
    r = b_eq - _per_coordinate(a_eq, x)
    if float(np.max(np.abs(r), initial=0.0)) <= 1e-12:
        return x
    r = r.reshape(a_eq.shape[0], -1)
    step = _pinned_step(a_eq, r) if isinstance(a_eq, DynamicsRows) else None
    if step is not None:
        return x + step.reshape(-1)
    a_eq = np.asarray(a_eq)
    try:
        w = np.linalg.solve(a_eq @ a_eq.T, r)
    except np.linalg.LinAlgError:
        if stats is not None:
            stats.kkt_fallbacks += 1
        return x + np.linalg.lstsq(a_eq, r, rcond=None)[0].reshape(-1)
    return x + (a_eq.T @ w).reshape(-1)


def solve(problem: NlpProblem, options: SolverOptions | None = None) -> NlpSolution:
    """Solve an NLP by sequential convexification with an l1 exact penalty.

    Every point visited (``x0`` and each QP step) is evaluated exactly once,
    its rows only if it is tried; an accepted trial is the next model.
    Never raises on non-convergence: the iteration limit, or the problem's
    ``deadline`` reached first, returns the iterate reached with
    ``converged=False``.  A non-finite objective array or evaluator output,
    rows of mismatched shapes, or columns that are not integers in [0, n)
    raise ``EvaluatorError``; an asymmetric Hessian, an array of the wrong
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
    a_eq = problem.a_eq if problem.a_eq is not None else np.zeros((0, k))
    a_eq = a_eq if isinstance(a_eq, DynamicsRows) else np.asarray(a_eq, dtype=float)
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
    elif base.size != k + a_eq.shape[0] or base.coordinates != d:
        raise ConfigError(f"base_inverse must be of a KKT matrix of size {n + b_eq.size}")
    qp_stats.kkt_fallbacks += base.pseudo
    if a_eq.shape[0]:
        x = project_to_affine(x, a_eq, b_eq, qp_stats)
    x = np.minimum(np.maximum(x, lower), upper)

    def evaluate(point: np.ndarray, objective: tuple[float, np.ndarray]):
        """The objective's value and gradient at ``point``, from ``value_and_grad``, then the inequality rows."""
        f, g = objective
        if problem.inequalities is not None:
            vals, cols, coef = problem.inequalities(point)
            vals, cols, coef = np.asarray(vals, dtype=float), np.asarray(cols), np.asarray(coef, dtype=float)
            if vals.ndim != 1 or coef.ndim != 2 or cols.shape != coef.shape or len(coef) != len(vals):
                raise EvaluatorError(f"inequality evaluator must return values (rows,), then the jacobian's columns and "
                                     f"coefficients of one shape (rows, width), got {vals.shape}, {cols.shape} and {coef.shape}")
            if cols.dtype.kind not in "iu" or not ((cols >= 0) & (cols < n)).all():
                raise EvaluatorError(f"inequality jacobian's columns must be integers in [0, {n}), got {cols.dtype} "
                                     f"from {cols.min(initial=0)} to {cols.max(initial=0)}")
        else:
            vals, cols, coef = np.zeros(0), np.zeros((0, 0), dtype=int), np.zeros((0, 0))
        if not np.isfinite(np.concatenate(([f], g, vals, coef.reshape(-1)))).all():  # the checks below name it
            for value, what in ((f, "objective"), (g, "objective gradient"), (vals, "inequality evaluator"),
                                (coef, "inequality coefficients")):
                _check_finite(value, what)
        return f, g, vals, cols, coef

    def penalty(vals: np.ndarray) -> float:
        return float(np.maximum(vals, 0.0).sum())

    def eq_violation(point: np.ndarray) -> float:
        return float(np.abs(_per_coordinate(a_eq, point) - b_eq).max()) if a_eq.shape[0] else 0.0

    mu, delta = INITIAL_PENALTY, INITIAL_TRUST_RADIUS

    fx, gx, rows_vals, rows_cols, rows_coef = evaluate(x, problem.objective.value_and_grad(x))
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
            h, problem.objective.linear - PROX_REGULARIZATION * x, a_eq, b_eq, rows_coef,
            _row_products(rows_cols, rows_coef, x) - rows_vals, columns=rows_cols,
            lower=lo_eff, upper=hi_eff, penalty=np.full(len(rows_vals), mu), base_inverse=base, stats=qp_stats,
        )
        x_new = np.minimum(np.maximum(sol, lo_eff), hi_eff)

        dx = x_new - x
        objective_new = problem.objective.value_and_grad(x_new)  # the model's H dx is its change of gradient
        model_obj = fx + gx @ dx + 0.5 * dx @ (objective_new[1] - gx)
        lin_vals = rows_vals + _row_products(rows_cols, rows_coef, dx)
        model_merit = model_obj + mu * penalty(lin_vals)
        predicted = merit - model_merit

        # stalled: the model is stationary inside the trust region, or an
        # accepted step is below the step tolerance
        stalled = predicted <= 1e-12 * max(1.0, abs(merit))
        if not stalled:
            trial = evaluate(x_new, objective_new)
            f_new, _, vals_new, _, _ = trial
            merit_new = f_new + mu * penalty(vals_new)
            ratio = (merit - merit_new) / predicted

            if ratio > RATIO_GOOD:
                delta = min(delta * TRUST_EXPAND, MAX_TRUST_RADIUS)
            elif ratio < RATIO_BAD:
                delta = max(delta * TRUST_SHRINK, MIN_TRUST_RADIUS)

            if merit_new < merit:
                stalled = float(np.abs(dx).max(initial=0.0)) <= opts.step_tolerance
                x, merit = x_new, merit_new
                fx, gx, rows_vals, rows_cols, rows_coef = trial
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
    coordinate's block, held as its bands (``_segment_hessian``).
    """
    layout = segment_layout(scenario, first_index, last_index)
    g, c = _consensus_linear(layout, couplings, rho)
    h = _segment_hessian(layout, [cp.waypoint for cp in couplings], rho)
    return QuadraticFunction(hessian_matrix=h, linear=g, constant=c)


def _segment_hessian(layout: SegmentLayout, coupled: Sequence[int], rho: float) -> Band:
    """One coordinate's Hessian block of a segment's cost plus rho on the states of its ``coupled`` waypoints (p_k
    at s k, v_k at s k + 1): with dynamics a diagonal, else a path Laplacian, each band repeated per coordinate."""
    count, s = layout.count, layout.state_dim // layout.dim
    bands = np.zeros((1 if layout.dynamics else 2, count * s, 1))
    diagonal, *upper = bands[..., 0]
    if layout.dynamics:
        weight = np.ones(count)
        weight[list(coupled)] = 0.5
        diagonal[1::s] = 2.0 * weight
    else:
        # squared edge differences
        scale = 2.0 / (layout.dt * layout.dt)
        diagonal[:] = scale * ((np.arange(count) > 0).astype(float) + (np.arange(count) < count - 1))
        upper[0][:-1] = -scale
    for k in coupled:
        diagonal[s * k : s * k + s] += rho
    return Band(np.repeat(bands, layout.dim, axis=2))


def segment_equalities(
    scenario: Scenario, first_index: int, last_index: int
) -> tuple[DynamicsRows, np.ndarray]:
    """Affine rows: dynamics between consecutive waypoints plus endpoint pins.

    The global start pins position (and velocity, with dynamics) of the first
    waypoint; the global goal pins the last.  Split-point waypoints are never
    pinned, consensus terms steer them instead.  ``DynamicsRows`` hold one coordinate's
    block, on the Hessian's columns; the values are per row and coordinate.
    """
    layout = segment_layout(scenario, first_index, last_index)
    count, sd, s = layout.count, layout.state_dim, layout.state_dim // layout.dim
    pins = [(0, scenario.start)] if first_index == 0 else []
    if last_index == scenario.num_waypoints - 1:
        pins.append((count - 1, scenario.goal))
    pinned = (s * np.array([k for k, _ in pins], dtype=int)[:, None] + np.arange(s)).reshape(-1)
    values = [np.concatenate([state.position, state.velocity])[:sd] for _, state in pins]
    return (rows := DynamicsRows(count, s, layout.dt, pinned)), np.concatenate([np.zeros(rows.steps * layout.dim), *values])


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
    waypoint, ordered by waypoint, then link, then obstacle, as -grad sd on
    the waypoint's d position columns.  The activation distance exceeds the
    margin, so every violated pair is among the rows; it is also the cutoff
    of ``clearances``, so only pairs that can become rows reach the exact
    kernel.
    """
    if not scenario.obstacles:
        return None
    margin = scenario.safety_margin
    activation = activation_distance(margin)
    # packed-vector columns of each waypoint's position block
    columns = layout.state_dim * np.arange(layout.count)[:, None] + np.arange(layout.dim)

    def rows(x: np.ndarray) -> InequalityRows:
        _, (waypoint, _, _), sd, grad = gathered_clearances(scenario, layout.positions(x), activation)
        keep = sd <= activation
        return margin - sd[keep], columns[waypoint[keep]], -grad[keep]

    return rows


class SolveRows:
    """A segment's row evaluator for one solve: no point is evaluated twice.

    Rows are kept per point, keyed by its bytes, with those handed to
    ``carry`` (the previous solution's), so a solve that starts there,
    unmoved by its projection and clip, does not evaluate its start again.
    ``at`` gives a known point's (point, rows), for the segment to carry on.
    A point's rows hold d coefficients each, so a long segment's solve keeps
    O(rows) per point it visited.
    """

    def __init__(self, rows: InequalityFn) -> None:
        self.rows, self.known = rows, {}

    def carry(self, x: np.ndarray, rows: InequalityRows) -> None:
        self.known[x.tobytes()] = rows

    def __call__(self, x: np.ndarray) -> InequalityRows:
        key = x.tobytes()
        if key not in self.known:
            self.known[key] = self.rows(x)
        return self.known[key]

    def at(self, x: np.ndarray) -> tuple[np.ndarray, InequalityRows]:
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
        for array in (hessian.bands, a_eq.pinned, b_eq, lower, upper, *base.arrays()):
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
