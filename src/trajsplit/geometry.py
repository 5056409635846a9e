"""2D convex shapes and signed distance queries.

Shapes are modeled as a convex core (point, segment, or polygon) swept by a
radius: a circle is a swept point, a capsule a swept segment, a polygon a
core with radius zero.  Signed distance between two shapes is the signed
distance between their cores minus the radii, and between cores it has a
closed form (Ericson, *Real-Time Collision Detection*, 2004):

* disjoint cores: the minimum over vertex-edge distances, taken both ways;
* overlapping cores: minus the smallest overlap over the edge normals of
  both cores (separating-axis theorem).

``core_signed_distance`` evaluates that form for whole batches of core pairs
at once; ``signed_distance`` is its batch-of-one case for shape objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

_EPS = 1e-12


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """z-component of the cross product for 2-vectors (vectorizes over rows)."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _as_point(value, name: str) -> np.ndarray:
    a = np.asarray(value, dtype=float)
    if a.shape != (2,):
        raise ShapeError(f"{name} must be a 2-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ShapeError(f"{name} must be finite, got {a}")
    a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Circle:
    """Disc with center ``center`` and radius ``radius``.

    Radius zero is allowed so a point body can be treated as a degenerate
    disc; obstacle validation separately requires strictly positive radii.
    """

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _as_point(self.center, "circle center"))
        if not np.isfinite(self.radius) or self.radius < 0.0:
            raise ShapeError(f"circle radius must be >= 0, got {self.radius}")


@dataclass(frozen=True)
class Capsule:
    """Segment from ``point_a`` to ``point_b`` swept by ``radius``."""

    point_a: np.ndarray
    point_b: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "point_a", _as_point(self.point_a, "capsule endpoint"))
        object.__setattr__(self, "point_b", _as_point(self.point_b, "capsule endpoint"))
        if not np.isfinite(self.radius) or self.radius < 0.0:
            raise ShapeError(f"capsule radius must be >= 0, got {self.radius}")


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon given as a counterclockwise loop of vertices."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ShapeError(f"polygon needs >= 3 2D vertices, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ShapeError("polygon vertices must be finite")
        scale = max(1.0, float(np.abs(v).max()))
        nxt = np.roll(v, -1, axis=0)
        prv = np.roll(v, 1, axis=0)
        cross = _cross2(v - prv, nxt - v)
        # strict convexity and CCW orientation; collinear triples are degenerate
        if np.any(cross <= _EPS * scale * scale):
            if np.all(cross <= 0.0):
                raise ShapeError("polygon vertices must wind counterclockwise")
            raise ShapeError("polygon must be strictly convex and non-degenerate")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)


ConvexShape = Circle | Capsule | ConvexPolygon


@dataclass(frozen=True)
class SignedDistanceResult:
    """Signed distance between two shapes plus witness data.

    value > 0: shapes are disjoint, value is the separation distance and
    equals ``|point_a - point_b|`` with ``normal = (point_a - point_b)/value``.
    value <= 0: shapes touch or overlap, ``|value|`` is the minimum
    translation of shape A along ``normal`` that separates them.
    ``normal`` is always a unit vector pointing from shape B toward shape A.
    """

    value: float
    point_a: np.ndarray = field(repr=False)
    point_b: np.ndarray = field(repr=False)
    normal: np.ndarray = field(repr=False)


# --- shape cores ------------------------------------------------------------


def _core(shape: ConvexShape) -> tuple[np.ndarray, float]:
    """Return (core vertices (k,2), sweep radius) for a shape."""
    if isinstance(shape, Circle):
        return shape.center[None, :], shape.radius
    if isinstance(shape, Capsule):
        return np.stack([shape.point_a, shape.point_b]), shape.radius
    if isinstance(shape, ConvexPolygon):
        return shape.vertices, 0.0
    raise ShapeError(f"unsupported shape type {type(shape).__name__}")


def stack_cores(shapes) -> tuple[np.ndarray, np.ndarray]:
    """Cores of several shapes as one (count, k, 2) array plus their radii.

    Shorter cores are padded by repeating their last vertex; the repeated
    vertex adds only zero-length edges, which the kernel ignores.
    """
    cores = [_core(shape) for shape in shapes]
    k = max(len(core) for core, _ in cores)
    stacked = np.stack([np.concatenate([core, np.repeat(core[-1:], k - len(core), axis=0)])
                        for core, _ in cores])
    return stacked, np.array([radius for _, radius in cores])


def bounding_circles(shapes) -> tuple[np.ndarray, np.ndarray]:
    """Centres (count, 2) and radii (count,) of circles enclosing swept shapes.

    Each circle is centred at the mean of its core's vertices and reaches the
    farthest vertex plus the sweep radius: exact for a circle.
    """
    cores = [_core(shape) for shape in shapes]
    centers = np.array([core.mean(axis=0) for core, _ in cores]).reshape(-1, 2)
    reach = [np.hypot(*(core - c).T).max() + radius for (core, radius), c in zip(cores, centers)]
    return centers, np.array(reach)


# --- batched closed-form kernel ---------------------------------------------


# Inside the kernel a batch of P core pairs is held as coordinate arrays
# with the vertex index first and the pair index last, (K, P), so every
# reduction over vertices or candidate axes runs across whole rows.


def _edge_vectors(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge vectors of vertex loops given as coordinate arrays (K, P)."""
    return np.concatenate([x[1:], x[:1]]) - x, np.concatenate([y[1:], y[:1]]) - y


def _vertex_edge_gaps(px, py, qx, qy, ex, ey) -> tuple[np.ndarray, np.ndarray]:
    """Vertices p (V, P) minus their closest point on each edge of loop q
    (K, P) with edge vectors e, flattened to (V*K, P) per coordinate.
    Zero-length edges degrade to their vertex."""
    rx = px[:, None] - qx[None]
    ry = py[:, None] - qy[None]
    length2 = ex * ex + ey * ey
    t = (rx * ex + ry * ey) / np.where(length2 > _EPS * _EPS, length2, 1.0)
    np.clip(t, 0.0, 1.0, out=t)
    count = px.shape[1]
    return (rx - t * ex).reshape(-1, count), (ry - t * ey).reshape(-1, count)


def _outward_normals(ex, ey) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outward unit normals (x and y parts) of the edges e (K, P) of
    counterclockwise loops, plus a mask that drops zero-length edges."""
    length = np.hypot(ex, ey)
    valid = length > _EPS
    length = np.where(valid, length, 1.0)
    return ey / length, -ex / length, valid


def _extreme_projection(reduce, axis_x, axis_y, x, y) -> np.ndarray:
    """``reduce`` (np.minimum or np.maximum) over the vertices of loops
    (K, P) of their projections on axes (C, P), one vertex at a time."""
    out = axis_x * x[0] + axis_y * y[0]
    for k in range(1, len(x)):
        reduce(out, axis_x * x[k] + axis_y * y[k], out=out)
    return out


def _flatten(core, batch: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate arrays (K, P) of a core batch broadcast to ``batch``."""
    core = np.broadcast_to(core, batch + core.shape[-2:]).reshape(-1, *core.shape[-2:])
    return np.ascontiguousarray(core[..., 0].T), np.ascontiguousarray(core[..., 1].T)


def _best_axis(core_a, core_b, radius_a, radius_b):
    """Flatten a broadcast batch of core pairs and find, per pair, the axis
    of largest core separation.

    Every candidate axis n gives the separation min_A n.x - max_B n.x, a
    lower bound on the signed core distance.  Candidates are the direction
    of the closest vertex-edge pair (taken both ways), which makes the bound
    tight for disjoint cores, and the edge normals of the Minkowski
    difference A - B (inward normals of A, outward normals of B), which make
    it tight for overlapping ones; a fixed axis covers coincident points.
    Returns the batch shape, the flattened coordinates and radii of both
    cores, and per pair the separation and the two parts of its axis.
    """
    a = np.asarray(core_a, dtype=float)
    b = np.asarray(core_b, dtype=float)
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2], np.shape(radius_a), np.shape(radius_b))
    ax, ay = _flatten(a, batch)
    bx, by = _flatten(b, batch)
    ra = np.broadcast_to(np.asarray(radius_a, dtype=float), batch).reshape(-1)
    rb = np.broadcast_to(np.asarray(radius_b, dtype=float), batch).reshape(-1)
    pairs = np.arange(ax.shape[1])

    ea_x, ea_y = _edge_vectors(ax, ay)
    eb_x, eb_y = _edge_vectors(bx, by)
    ab_x, ab_y = _vertex_edge_gaps(ax, ay, bx, by, eb_x, eb_y)
    ba_x, ba_y = _vertex_edge_gaps(bx, by, ax, ay, ea_x, ea_y)
    gap_x = np.concatenate([ab_x, -ba_x])
    gap_y = np.concatenate([ab_y, -ba_y])
    closest = np.argmin(gap_x * gap_x + gap_y * gap_y, axis=0)
    cx, cy = gap_x[closest, pairs], gap_y[closest, pairs]
    dist = np.hypot(cx, cy)
    near = dist > _EPS
    dist = np.where(near, dist, 1.0)

    na_x, na_y, valid_a = _outward_normals(ea_x, ea_y)
    nb_x, nb_y, valid_b = _outward_normals(eb_x, eb_y)
    ones = np.ones((1, len(pairs)))
    axis_x = np.concatenate([(cx / dist)[None], -na_x, nb_x, ones])
    axis_y = np.concatenate([(cy / dist)[None], -na_y, nb_y, 0.0 * ones])
    valid = np.concatenate([near[None], valid_a, valid_b, ones > 0.0])
    low_a = _extreme_projection(np.minimum, axis_x, axis_y, ax, ay)
    high_b = _extreme_projection(np.maximum, axis_x, axis_y, bx, by)
    sep = np.where(valid, low_a - high_b, -np.inf)
    best = np.argmax(sep, axis=0)
    return batch, (ax, ay, ra), (bx, by, rb), sep[best, pairs], axis_x[best, pairs], axis_y[best, pairs]


def core_clearance(core_a, radius_a, core_b, radius_b) -> np.ndarray:
    """Signed distance values only (see ``core_signed_distance``)."""
    batch, (_, _, ra), (_, _, rb), sep, _, _ = _best_axis(core_a, core_b, radius_a, radius_b)
    return (sep - ra - rb).reshape(batch)


def core_signed_distance(core_a, radius_a, core_b, radius_b):
    """Signed distance between batches of swept convex cores.

    ``core_a`` (..., Ka, 2) and ``core_b`` (..., Kb, 2) are vertex loops
    (counterclockwise for polygons; one point or two segment ends otherwise)
    whose leading dimensions broadcast, as do the radii.  Returns
    ``(value, point_a, point_b, normal)`` over the broadcast batch with the
    ``SignedDistanceResult`` meaning of each field.  Witnesses sit mid-way
    along the overlap of the two cores' support features, which is the
    unique closest pair unless those features are parallel edges.
    """
    batch, (ax, ay, ra), (bx, by, rb), sep, nx, ny = _best_axis(core_a, core_b, radius_a, radius_b)
    # support features along n, located by their coordinate along (-ny, nx)
    along_a, along_b = nx * ax + ny * ay, nx * bx + ny * by
    across_a, across_b = nx * ay - ny * ax, nx * by - ny * bx
    scale = np.maximum(np.abs(np.concatenate([ax, ay, bx, by])).max(axis=0), 1.0)
    low_a = along_a.min(axis=0)
    high_b = along_b.max(axis=0)
    face_a = along_a <= low_a + 1e-9 * scale
    face_b = along_b >= high_b - 1e-9 * scale
    lo = np.maximum(np.where(face_a, across_a, np.inf).min(axis=0), np.where(face_b, across_b, np.inf).min(axis=0))
    hi = np.minimum(np.where(face_a, across_a, -np.inf).max(axis=0), np.where(face_b, across_b, -np.inf).max(axis=0))
    mid = 0.5 * (lo + hi)
    normal = np.stack([nx, ny], axis=-1)
    tangent = np.stack([-ny, nx], axis=-1)
    point_a = mid[:, None] * tangent + (low_a - ra)[:, None] * normal
    point_b = mid[:, None] * tangent + (high_b + rb)[:, None] * normal
    return ((sep - ra - rb).reshape(batch), point_a.reshape(batch + (2,)),
            point_b.reshape(batch + (2,)), normal.reshape(batch + (2,)))


def signed_distance(shape_a: ConvexShape, shape_b: ConvexShape) -> SignedDistanceResult:
    """Signed distance between two convex shapes with witness points.

    Positive when disjoint (separation distance), negative when overlapping
    (minimum translation magnitude).  The normal points from the witness on B
    toward the witness on A and is the direction along which translating A by
    ``|value|`` resolves contact (away from B when penetrating).
    """
    core_a, ra = _core(shape_a)
    core_b, rb = _core(shape_b)
    value, point_a, point_b, normal = core_signed_distance(core_a, ra, core_b, rb)
    return SignedDistanceResult(value=float(value), point_a=point_a, point_b=point_b, normal=normal)
