"""Independent checks of solver output.

Everything here works from the plain scenario data the generator wrote and
from the arrays a solve returned; nothing imports trajsplit.  Clearances are
closed forms (point or segment cores against discs and convex polygons, with
the separating-axis depth for overlaps), the obstacle-free minimum-energy
trajectory is solved by hand, and residuals and objectives are recomputed
from the returned states.
"""

from __future__ import annotations

import numpy as np

# The program's and this module's clearances are both exact up to roundoff;
# verdicts are compared only when the smallest clearance lies farther than
# this from the safety margin.
CLEARANCE_BAND = 1e-6
INTEGRATOR_TOL = 1e-9
OBJECTIVE_RTOL = 1e-9
MIN_ENERGY_TOL = 1e-6


class CheckFailed(Exception):
    """A solve's output disagrees with the independent computation."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")


# --- clearance ---------------------------------------------------------------


def link_segments(robot: dict, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Core segments of the robot body at configurations ``q`` of shape (M, d).

    Returns start points and end points, each (M, links, 2), and the sweep
    radius.  A point robot is one zero-length, zero-radius link.
    """
    q = np.asarray(q, dtype=float)
    if robot["type"] == "point2d":
        p = q[:, None, :]
        return p, p, 0.0
    lengths = np.asarray(robot["link_lengths"], dtype=float)
    base = robot.get("base", {})
    origin = np.array([base.get("x", 0.0), base.get("y", 0.0)], dtype=float)
    angles = base.get("angle", 0.0) + np.cumsum(q, axis=1)
    steps = lengths[None, :, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    ends = origin + np.cumsum(steps, axis=1)
    starts = np.concatenate([np.broadcast_to(origin, ends[:, :1].shape), ends[:, :-1]], axis=1)
    return starts, ends, float(robot["link_radius"])


def point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from points ``p`` to segments [a, b]; all broadcast over (..., 2)."""
    ab = b - a
    denom = np.sum(ab * ab, axis=-1)
    safe = np.where(denom > 0.0, denom, 1.0)
    t = np.where(denom > 0.0, np.clip(np.sum((p - a) * ab, axis=-1) / safe, 0.0, 1.0), 0.0)
    return np.linalg.norm(p - (a + t[..., None] * ab), axis=-1)


def _push(lo_a, hi_a, lo_b, hi_b):
    """Smallest shift along one axis that separates two projected intervals."""
    return np.minimum(hi_b - lo_a, hi_a - lo_b)


def segment_polygon_distance(a: np.ndarray, b: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Signed distance between segment cores [a, b] (..., 2) and a convex polygon.

    Disjoint: the separation, attained between a vertex of one and an edge of
    the other.  Overlapping: minus the penetration depth, the smallest push
    over the separating axes (polygon edge normals and the segment normal).
    """
    v0 = np.asarray(vertices, dtype=float)
    v1 = np.roll(v0, -1, axis=0)
    aa, bb = a[..., None, :], b[..., None, :]
    separation = np.minimum.reduce([
        point_segment_distance(aa, v0, v1).min(axis=-1),
        point_segment_distance(bb, v0, v1).min(axis=-1),
        point_segment_distance(v0, aa, bb).min(axis=-1),
    ])

    edge = v1 - v0
    normals = np.stack([edge[:, 1], -edge[:, 0]], axis=-1) / np.linalg.norm(edge, axis=-1)[:, None]
    poly = v0 @ normals.T  # (vertices, axes)
    pa, pb = a @ normals.T, b @ normals.T  # (..., axes)
    depth = _push(np.minimum(pa, pb), np.maximum(pa, pb), poly.min(axis=0), poly.max(axis=0)).min(axis=-1)

    # the segment's own normal; for a point core any axis will do, since no
    # axis gives a smaller push than the polygon's nearest side
    seg = b - a
    length = np.linalg.norm(seg, axis=-1, keepdims=True)
    perp = np.stack([-seg[..., 1], seg[..., 0]], axis=-1) / np.where(length > 0.0, length, 1.0)
    axis = np.where(length > 0.0, perp, np.array([1.0, 0.0]))
    s_proj = np.sum(a * axis, axis=-1)
    v_proj = np.einsum("kj,...j->...k", v0, axis)
    depth = np.minimum(depth, _push(s_proj, s_proj, v_proj.min(axis=-1), v_proj.max(axis=-1)))
    return np.where(depth > 0.0, -depth, separation)


def clearance(data: dict, q: np.ndarray) -> np.ndarray:
    """Smallest signed distance over all (link, obstacle) pairs, per configuration."""
    starts, ends, radius = link_segments(data["robot"], q)
    worst = np.full(starts.shape[0], np.inf)
    for obstacle in data["obstacles"]:
        if obstacle["type"] == "circle":
            center = np.asarray(obstacle["center"], dtype=float)
            d = point_segment_distance(center, starts, ends) - float(obstacle["radius"])
        else:
            d = segment_polygon_distance(starts, ends, np.asarray(obstacle["vertices"], dtype=float))
        worst = np.minimum(worst, (d - radius).min(axis=-1))
    return worst


def edge_samples(positions: np.ndarray, samples_per_edge: int) -> np.ndarray:
    """Waypoints followed by ``samples_per_edge`` interior points of every edge."""
    t = np.arange(1, samples_per_edge + 1) / (samples_per_edge + 1)
    inner = (1.0 - t)[None, :, None] * positions[:-1, None, :] + t[None, :, None] * positions[1:, None, :]
    return np.concatenate([positions, inner.reshape(-1, positions.shape[1])])


# --- closed-form optimum, objective and residuals ----------------------------


def min_energy(data: dict) -> tuple[np.ndarray, np.ndarray | None, float]:
    """Obstacle-free minimum of the solver's cost: (positions, velocities, cost).

    Double integrator (cost sum |v_k|^2, q_{k+1} = q_k + dt v_k, both end
    states pinned): the interior velocities share the displacement left after
    v_0, so they are all equal.  Joint-path mode (cost sum |dq_k/dt|^2): the
    evenly spaced straight line.
    """
    n, dt = int(data["num_waypoints"]), float(data["dt"])
    q0 = np.asarray(data["start"]["position"], dtype=float)
    qn = np.asarray(data["goal"]["position"], dtype=float)
    if not data["dynamics_enabled"]:
        positions = np.linspace(q0, qn, n)
        return positions, None, float(np.sum((qn - q0) ** 2) / ((n - 1) * dt * dt))
    zero = [0.0] * len(q0)
    v0 = np.asarray(data["start"].get("velocity", zero), dtype=float)
    vn = np.asarray(data["goal"].get("velocity", zero), dtype=float)
    inner = ((qn - q0) / dt - v0) / (n - 2)
    velocities = np.vstack([v0, np.tile(inner, (n - 2, 1)), vn])
    positions = q0 + dt * np.vstack([np.zeros_like(q0), np.cumsum(velocities[:-1], axis=0)])
    cost = float(v0 @ v0 + vn @ vn + (n - 2) * inner @ inner)
    return positions, velocities, cost


def objective(data: dict, positions: np.ndarray, velocities: np.ndarray) -> float:
    """The solver's cost recomputed from returned states."""
    if data["dynamics_enabled"]:
        return float(np.sum(velocities ** 2))
    return float(np.sum((np.diff(positions, axis=0) / float(data["dt"])) ** 2))


def integrator_residuals(positions, velocities, accelerations, dt: float) -> np.ndarray:
    """Per-edge infinity norm of the explicit-Euler relations.

    q_{k+1} = q_k + dt v_k and v_{k+1} = v_k + dt a_k.  In joint-path mode the
    velocities and accelerations are finite differences, which obey the same
    relations.
    """
    rq = positions[1:] - positions[:-1] - dt * velocities[:-1]
    rv = velocities[1:] - velocities[:-1] - dt * accelerations[:-1]
    return np.maximum(np.abs(rq).max(axis=1), np.abs(rv).max(axis=1))


def split_edges(num_waypoints: int, split_indices) -> np.ndarray:
    """Boolean mask over edges: True where the edge touches a split waypoint."""
    touch = np.zeros(num_waypoints - 1, dtype=bool)
    for s in split_indices:
        touch[max(s - 1, 0)] = True
        if s < num_waypoints - 1:
            touch[s] = True
    return touch


# --- the per-solve check -------------------------------------------------------


def check_solve(
    data: dict,
    mono: bool,
    positions: np.ndarray,
    velocities: np.ndarray,
    accelerations: np.ndarray,
    reported_objective: float,
    collision_free: bool,
    split_indices,
    samples_per_edge: int,
) -> float:
    """Raise ``CheckFailed`` on the first disagreement; return the split residual.

    The split residual is the largest integrator residual on edges that touch
    a split waypoint, where consensus, not the dynamics rows, ties the
    segments together.
    """
    dt = float(data["dt"])
    n = int(data["num_waypoints"])
    if positions.shape[0] != n:
        raise CheckFailed("shape", f"{positions.shape[0]} waypoints returned, {n} expected")

    ends = [("start", 0), ("goal", -1)]
    for name, i in ends:
        state = data[name]
        if not np.array_equal(positions[i], np.asarray(state["position"], dtype=float)):
            raise CheckFailed("boundary", f"{name} position {positions[i]} != {state['position']}")
        if data["dynamics_enabled"]:
            want = np.asarray(state.get("velocity", [0.0] * positions.shape[1]), dtype=float)
            if not np.array_equal(velocities[i], want):
                raise CheckFailed("boundary", f"{name} velocity {velocities[i]} != {want}")

    residuals = integrator_residuals(positions, velocities, accelerations, dt)
    at_split = split_edges(n, split_indices)
    inner = np.where(at_split, 0.0, residuals)
    if inner.max(initial=0.0) > INTEGRATOR_TOL:
        k = int(np.argmax(inner))
        raise CheckFailed("integrator", f"edge {k}->{k + 1} residual {inner[k]:.3e} > {INTEGRATOR_TOL:g}")

    cost = objective(data, positions, velocities)
    if abs(cost - reported_objective) > OBJECTIVE_RTOL * max(1.0, abs(cost)):
        raise CheckFailed("objective", f"reported {reported_objective!r}, recomputed {cost!r}")

    if mono:
        best_q, _, best_cost = min_energy(data)
        if cost < best_cost - OBJECTIVE_RTOL * max(1.0, best_cost):
            raise CheckFailed("min-energy", f"objective {cost!r} below the obstacle-free minimum {best_cost!r}")
        if clearance(data, edge_samples(best_q, samples_per_edge)).min() > data["safety_margin"] + CLEARANCE_BAND:
            gap = float(np.abs(positions - best_q).max())
            if gap > MIN_ENERGY_TOL or abs(cost - best_cost) > MIN_ENERGY_TOL * max(1.0, best_cost):
                raise CheckFailed(
                    "min-energy",
                    f"obstacle-free optimum is clear but mono returned cost {cost!r} vs {best_cost!r}, "
                    f"position gap {gap:.3e}",
                )

    worst = float(clearance(data, edge_samples(positions, samples_per_edge)).min())
    margin = float(data["safety_margin"])
    if abs(worst - margin) > CLEARANCE_BAND and (worst > margin) != collision_free:
        raise CheckFailed(
            "collision-verdict",
            f"program says collision_free={collision_free}, oracle clearance {worst!r} vs margin {margin!r}",
        )
    return float(residuals[at_split].max(initial=0.0))
