"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately avoid the library's own algorithms: signed
distances come from dense support-function sampling with locally written
support functions, Jacobians from central finite differences, and QP
solutions from brute-force working-set enumeration.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from trajsplit.geometry import Capsule, Circle, ConvexPolygon
from trajsplit.model import RobotState

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    pass
else:
    # fixed example sequence and no per-example deadline: reproducible runs
    # whatever the speed of the machine
    settings.register_profile("trajsplit", derandomize=True, deadline=None)
    # CI's longer property run: pytest --hypothesis-profile=ci
    settings.register_profile("ci", settings.get_profile("trajsplit"), max_examples=400)
    settings.load_profile("trajsplit")


def make_state(position, velocity=None, acceleration=None):
    p = np.asarray(position, dtype=float)
    v = np.zeros_like(p) if velocity is None else np.asarray(velocity, dtype=float)
    a = np.zeros_like(p) if acceleration is None else np.asarray(acceleration, dtype=float)
    return RobotState(p, v, a)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# --- bundled scenarios on other grids ----------------------------------------

HORIZON = {"circle_blocked.yaml": 9.75, "arm_three_link.yaml": 5.8}


def stretched(name, n):
    """A bundled scenario at ``n`` waypoints over its own horizon."""
    from trajsplit.cli import bundled_scenario_dir
    from trajsplit.scenario_io import load_scenario

    return replace(load_scenario(bundled_scenario_dir() / name), num_waypoints=n, dt=HORIZON[name] / (n - 1))


def cold_circle():
    """``circle_blocked`` at 39 waypoints over its own horizon: too short for
    a coarse level (``admm.coarse_scenario``), so its split runs take several
    rounds, where the bundled 40 waypoints take one or two."""
    return stretched("circle_blocked.yaml", 39)


# --- signed-distance oracle -------------------------------------------------
#
# For convex A, B the support function of the Minkowski difference D = A - B
# is h(d) = h_A(d) + h_B(-d).  The origin lies outside D exactly when some
# direction gives h(d) < 0; in both regimes the signed distance is
# -min_d h(d): separation distance while the minimum is negative, minus the
# penetration depth once h >= 0 everywhere.  Sampling h on a dense
# unit-direction grid gives a solver-independent estimate.

def _support_values(shape, directions):
    if isinstance(shape, Circle):
        return directions @ shape.center + shape.radius
    if isinstance(shape, Capsule):
        ends = np.maximum(directions @ shape.point_a, directions @ shape.point_b)
        return ends + shape.radius
    return np.max(directions @ shape.vertices.T, axis=1)


def oracle_signed_distance(shape_a, shape_b, directions=8192):
    angles = np.linspace(0.0, 2.0 * math.pi, directions, endpoint=False)
    grid = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    gaps = _support_values(shape_a, grid) + _support_values(shape_b, -grid)
    return float(-gaps.min())


def random_shape(rng, kind=None):
    kind = kind if kind is not None else rng.choice(["circle", "polygon", "capsule"])
    center = rng.uniform(-2.0, 2.0, size=2)
    if kind == "circle":
        return Circle(center=center, radius=float(rng.uniform(0.1, 1.0)))
    if kind == "capsule":
        offset = rng.uniform(-1.0, 1.0, size=2)
        return Capsule(point_a=center, point_b=center + offset,
                       radius=float(rng.uniform(0.05, 0.6)))
    count = int(rng.integers(3, 8))
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=count))
    radii = rng.uniform(0.3, 1.2, size=count)
    pts = center + np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    hull = _convex_hull(pts)
    if len(hull) < 3:
        return random_shape(rng, "polygon")
    return ConvexPolygon(vertices=hull)


def _convex_hull(points):
    pts = sorted(map(tuple, points))
    if len(pts) <= 2:
        return np.asarray(pts, dtype=float)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
                if cross <= 1e-12:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return np.asarray(lower[:-1] + upper[:-1], dtype=float)


# --- finite-difference jacobian -----------------------------------------------

def fd_jacobian(func, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    base = np.asarray(func(x), dtype=float)
    jac = np.zeros((base.size,) + x.shape)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        jac[:, i] = (np.asarray(func(hi)) - np.asarray(func(lo))) / (2.0 * step)
    return jac


# --- segment matrices, expanded ---------------------------------------------------


def dense(block, d):
    """The d-coordinate matrix of a one-coordinate block: kron(block, I_d), index t in coordinate t mod d."""
    return np.kron(block, np.eye(d))


def kkt_matrix(hessian, a_eq, shift):
    """[[H + shift I, A'], [A, 0]] of a Hessian and equality rows, a ``Band`` and ``DynamicsRows`` expanded."""
    hessian, a_eq = np.asarray(hessian), np.asarray(a_eq)
    n, m = hessian.shape[0], a_eq.shape[0]
    return np.block([[hessian + shift * np.eye(n), a_eq.T], [a_eq, np.zeros((m, m))]])


def one_coordinate(inverse, chunk=64):
    """The one-coordinate block of a ``KktInverse``, read through ``rows`` a chunk of rows at a time."""
    block, d = np.zeros((inverse.size, inverse.size)), inverse.coordinates
    for lo in range(0, inverse.size, chunk):
        idx = np.arange(lo, min(lo + chunk, inverse.size))
        block[idx] = inverse.rows(d * idx)[:, ::d]
    return block


# ||K X - I||_inf (the largest row sum) of the LU-condensed factor on the mono
# N=160 block of circle_blocked and on the middle segment of its split4 run
# (BENCH_28.json); 10 times these bound the structured inverse's residual, and
# its distance from the dense inverse relative to the largest entry
LU_CONDENSED_RESIDUAL = {"mono": 7.73e-12, "middle": 3.58e-12}


# --- brute-force QP oracle ------------------------------------------------------
#
# Minimize 1/2 x'Hx + g'x s.t. A_eq x = b_eq, A_in x <= b_in by enumerating
# every working set of inequality rows, solving the KKT system with them as
# equalities, and keeping the best point that is primal feasible with
# non-negative inequality multipliers.

def enumerate_qp(hessian, gradient, a_eq, b_eq, a_in, b_in, tol=1e-9):
    n = hessian.shape[0]
    m = a_in.shape[0]
    n_eq = a_eq.shape[0]
    best = None
    for r in range(m + 1):
        for subset in itertools.combinations(range(m), r):
            rows = [a_eq] if n_eq else []
            rhs = [b_eq] if n_eq else []
            if subset:
                rows.append(a_in[list(subset)])
                rhs.append(b_in[list(subset)])
            a = np.vstack(rows) if rows else np.zeros((0, n))
            b = np.concatenate(rhs) if rhs else np.zeros(0)
            k = a.shape[0]
            kkt = np.zeros((n + k, n + k))
            kkt[:n, :n] = hessian
            kkt[:n, n:] = a.T
            kkt[n:, :n] = a
            try:
                sol = np.linalg.solve(kkt, np.concatenate([-gradient, b]))
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            lam = sol[n + n_eq:]
            if m and np.any(a_in @ x - b_in > tol):
                continue
            if lam.size and np.any(lam < -tol):
                continue
            val = 0.5 * x @ hessian @ x + gradient @ x
            if best is None or val < best[0] - 1e-12:
                best = (val, x)
    return best


def nonnegative_least_squares(a, b, tol=1e-13):
    """min |a x - b| subject to x >= 0, by the Lawson-Hanson active set."""
    n = a.shape[1]
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n + 10):
        w = a.T @ (b - a @ x)
        if passive.all() or np.max(w[~passive]) <= tol:
            break
        passive[np.flatnonzero(~passive)[np.argmax(w[~passive])]] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if np.all(z[passive] > 0.0):
                x = z
                break
            shrink = passive & (z <= 0.0)
            alpha = np.min(x[shrink] / (x[shrink] - z[shrink]))
            x = x + alpha * (z - x)
            passive &= x > tol
            x[~passive] = 0.0
    return x


def qp_kkt_residuals(hessian, gradient, a_eq, b_eq, a_in, b_in, lower, upper, x, active_tol=1e-9):
    """Largest violations of the KKT conditions of a convex QP at x.

    Returns (stationarity, primal feasibility).  Multipliers are supported on
    the constraints active at x (within ``active_tol``, so complementarity
    holds by construction) and found by nonnegative least squares, with the
    equality multipliers free; any nonnegative choice that zeroes the
    Lagrangian gradient certifies optimality.
    """
    grad = hessian @ x + gradient
    ineq = a_in @ x - b_in
    directions = [a_in[ineq >= -active_tol]]
    directions.append(np.eye(x.size)[x >= upper - active_tol])
    directions.append(-np.eye(x.size)[x <= lower + active_tol])
    c = np.vstack(directions).T
    # free equality multipliers: work in the orthogonal complement of range(A_eq')
    if a_eq.shape[0]:
        u, sv, _ = np.linalg.svd(a_eq.T, full_matrices=False)
        basis = u[:, sv > 1e-12 * sv[0]]
        project = np.eye(x.size) - basis @ basis.T
    else:
        project = np.eye(x.size)
    lam = nonnegative_least_squares(project @ c, -project @ grad) if c.shape[1] else np.zeros(0)
    rest = grad + c @ lam
    if a_eq.shape[0]:
        rest = rest - a_eq.T @ np.linalg.lstsq(a_eq.T, rest, rcond=None)[0]
    feasibility = max(
        float(np.max(np.abs(a_eq @ x - b_eq), initial=0.0)),
        float(np.max(ineq, initial=0.0)),
        float(np.max(lower - x, initial=0.0)),
        float(np.max(x - upper, initial=0.0)),
    )
    return float(np.max(np.abs(rest), initial=0.0)), feasibility
