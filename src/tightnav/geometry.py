"""Planar convex-polytope primitives for collision avoidance.

Polytopes are halfspace intersections {p in R^2 : A p <= b} that carry their
vertices.  Vehicle bodies are rotated boxes.  The distance between two
polytopes is computed in closed form: a separating-axis test, then the
minimum vertex-to-edge distance in both directions, in the manner of
Gilbert, Johnson & Keerthi (1988).  The face multipliers at the closest pair
are read off the faces active there; they double as warm starts for the dual
collision-avoidance constraints.

Two routines find the closest point of an edge to a vertex:

- `_closest_pair`, in scalar arithmetic on Python floats, for one pair of
  polytopes (`distance_witness`, `min_translation_distance`);
- `_closest_on_edges`, batched in numpy over many points and polygons, for
  everything else: `box_distances` over many vehicle-box pairs,
  `point_polytope_distances` over a horizon's stages, and the candidates of
  `strategy_halfspaces`.

The pair routines stay scalar because at one pair of 4-vertex boxes each
numpy call costs more than the arithmetic it does: run on the batched
routine with one row, traced per-call distance time rose from 60 to 200 ms
per `interaction_bl` pass and from 41 to 149 ms per `guided_sg` pass, and
the separating-axis test from 9.5 to 33 ms per `open_lane` pass.

Beside them, one batched kernel finds where rays leave dilated polygons.
The guided controller's pass-side hyperplanes come from critical regions,
an obstacle dilated by the ego covering radius.  For every stage of a
horizon at once, `point_polytope_distances` measures the point-to-polygon
distance, `project_to_critical_boundary` computes in closed form where each
pass-side ray leaves its region (the largest crossing of the pushed-out
edges and the vertex arcs), and `strategy_halfspaces` supports the
obstacle at each exit point, as arrays of unit normals and offsets that
the NLP reads as they are; a point inside its obstacle raises.  A
grid-sampling oracle, the equivalent distance QP, vertex enumeration by
face intersection, the bisection the exit replaced and the retired
per-edge, per-ray and per-point routines exist only in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A face counts as active at a boundary point within this distance.
_ACTIVE_TOL = 1e-9
# Separating-axis test: projections must be apart by more than this.
_SAT_TOL = 1e-9
# A point within this distance outside every face counts as inside.
_INSIDE_TOL = 1e-9
# Critical-boundary projection: how far outside its region a ray may start.
PROJECTION_TOL = 1e-6


class GeometryError(ValueError):
    pass


def rotation_matrix(psi: float) -> np.ndarray:
    """Counterclockwise rotation by psi."""
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[c, -s], [s, c]])


@dataclass
class Polytope:
    """Convex polygon {p : A p <= b} with its vertices in counterclockwise order."""

    A: np.ndarray
    b: np.ndarray
    vertices: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float).reshape(-1, 2)
        self.b = np.asarray(self.b, dtype=float).ravel()
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        if self.A.shape[0] != self.b.shape[0]:
            raise GeometryError("A and b row counts differ")
        if self.A.shape[0] < 3 or len(self.vertices) < 3:
            raise GeometryError("a bounded planar polytope needs >= 3 faces and vertices")
        # Written so that a NaN norm fails the test too.
        norms = np.linalg.norm(self.A, axis=1)
        if not np.all(norms >= 1e-12):
            raise GeometryError("zero-norm or non-finite face normal")

    @classmethod
    def from_box(cls, center, half_x: float, half_y: float, psi: float = 0.0):
        """Axis-aligned box of half-extents (half_x, half_y) rotated by psi.

        The corners run counterclockwise from the one at the least angle
        about the center.
        """
        if not (half_x > 0 and math.isfinite(half_x) and half_y > 0 and math.isfinite(half_y)):
            raise GeometryError("box half-extents must be positive and finite")
        G = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        g = np.array([half_x, half_y, half_x, half_y])
        R = rotation_matrix(psi)
        c = np.asarray(center, dtype=float)
        (r00, r01), (r10, r11) = R.tolist()
        cx, cy = c.tolist()
        offsets = [(r00 * sx * half_x + r01 * sy * half_y, r10 * sx * half_x + r11 * sy * half_y)
                   for sx, sy in ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))]
        angles = [math.atan2(oy, ox) for ox, oy in offsets]
        first = angles.index(min(angles))
        corners = np.array([(cx + ox, cy + oy) for ox, oy in offsets[first:] + offsets[:first]])
        return cls(G @ R.T, g + G @ (R.T @ c), corners)

    def contains(self, p, tol: float = _INSIDE_TOL) -> bool:
        return bool(np.all(self.A @ np.asarray(p, float) - self.b <= tol))

    def support(self, direction) -> float:
        """Support function max_{p in P} d.p over the vertices."""
        d = np.asarray(direction, float)
        return float(np.max(self.vertices @ d))


def body_polytope(z, length: float, width: float) -> Polytope:
    """Vehicle body box at state z = (x, y, psi, ...)."""
    if not (length > 0 and math.isfinite(length) and width > 0 and math.isfinite(width)):
        raise GeometryError("body dimensions must be positive and finite")
    return Polytope.from_box(np.asarray(z, float)[:2], 0.5 * length, 0.5 * width,
                             float(np.asarray(z, float)[2]))


@dataclass
class DistanceResult:
    """Distance between two polytopes with the face multipliers at its witnesses."""

    distance: float
    mult_p: np.ndarray
    mult_q: np.ndarray


# The routines below run on every control step for pairs of 4-vertex boxes.
# They use scalar arithmetic on Python floats: at that size each numpy call
# costs more than the arithmetic it does.

def _closest_pair(vp, vq):
    """(p, q) minimizing |p - q| over vertex-edge pairs in both directions.

    vp and vq are vertex lists in cyclic order.  For two separated convex
    polygons the pair found is a pair of witness points of their distance.
    """
    best = math.inf
    pair = None
    for verts, ring, flip in ((vp, vq, False), (vq, vp, True)):
        for k in range(len(ring)):
            ax, ay = ring[k - 1]
            ex, ey = ring[k][0] - ax, ring[k][1] - ay
            ee = ex * ex + ey * ey
            for vx, vy in verts:
                t = ((vx - ax) * ex + (vy - ay) * ey) / ee if ee > 0.0 else 0.0
                t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
                cx, cy = ax + t * ex, ay + t * ey
                d2 = (vx - cx) ** 2 + (vy - cy) ** 2
                if d2 < best:
                    best = d2
                    pair = ((cx, cy), (vx, vy)) if flip else ((vx, vy), (cx, cy))
    return pair


def _face_multipliers(poly: Polytope, x, d) -> np.ndarray:
    """Nonnegative face multipliers m with poly.A' m = d at boundary point x.

    d must lie in the normal cone at x.  Among the faces active at x, the
    nearest normals on either side of d span the smallest cone holding it,
    and a 2x2 solve gives their weights.  When every active normal lies on
    one side of d (d is parallel to a face normal), or the two span no cone,
    the most aligned face alone carries d.  Faces not active at x get zero.
    """
    (px, py), (dx, dy) = x, d
    rows = poly.A.tolist()
    norms = [math.hypot(ax, ay) for ax, ay in rows]
    slack = [(ax * px + ay * py - b) / n for (ax, ay), b, n in zip(rows, poly.b.tolist(), norms)]
    floor = min(max(slack), -_ACTIVE_TOL)
    left = right = None  # (angle from d to the normal, face index)
    for i, (ax, ay) in enumerate(rows):
        if slack[i] < floor:
            continue
        rel = math.atan2(dx * ay - dy * ax, dx * ax + dy * ay)
        if rel >= 0.0 and (left is None or rel < left[0]):
            left = (rel, i)
        elif rel < 0.0 and (right is None or rel > right[0]):
            right = (rel, i)
    mult = np.zeros(len(rows))
    if left and right:
        i, j = left[1], right[1]
        (aix, aiy), (ajx, ajy) = rows[i], rows[j]
        det = aix * ajy - aiy * ajx
        if abs(det) > 1e-12 * norms[i] * norms[j]:
            mult[i] = max((dx * ajy - dy * ajx) / det, 0.0)
            mult[j] = max((aix * dy - aiy * dx) / det, 0.0)
            return mult
    if right is None or (left is not None and left[0] <= -right[0]):
        i = left[1]
    else:
        i = right[1]
    ax, ay = rows[i]
    mult[i] = max(ax * dx + ay * dy, 0.0) / norms[i] ** 2
    return mult


def distance_witness(P: Polytope, Q: Polytope) -> DistanceResult:
    """Minimum translation distance with face multipliers.

    Solves min ||p - q|| over p in P, q in Q in closed form.  Polytopes that
    the separating-axis test finds separated get the distance of the closest
    vertex-edge pair (p, q) and face multipliers satisfying
    (p - q) = -P.A' mult_p = Q.A' mult_q: the KKT multipliers of
    min 0.5 ||p - q||^2, which feed the dual warm start of the
    collision-avoidance controller.  Along parallel edges the witness points
    are not unique; the multipliers are.  Intersecting polytopes get
    distance 0 and zero multipliers.
    """
    if polytopes_intersect(P, Q):
        return DistanceResult(0.0, np.zeros(len(P.A)), np.zeros(len(Q.A)))
    p, q = _closest_pair(P.vertices.tolist(), Q.vertices.tolist())
    dx, dy = p[0] - q[0], p[1] - q[1]
    return DistanceResult(math.hypot(dx, dy), _face_multipliers(P, p, (-dx, -dy)),
                          _face_multipliers(Q, q, (dx, dy)))


def min_translation_distance(P: Polytope, Q: Polytope) -> float:
    """Distance between two polytopes; 0 iff they intersect.

    The separating-axis test and the closest vertex-edge pair of
    `distance_witness`, without its face multipliers; the distance is
    bit-identical to `distance_witness(P, Q).distance`.
    """
    if polytopes_intersect(P, Q):
        return 0.0
    return separated_distance(P, Q)


def separated_distance(P: Polytope, Q: Polytope) -> float:
    """`min_translation_distance` of a pair `polytopes_intersect` found apart."""
    p, q = _closest_pair(P.vertices.tolist(), Q.vertices.tolist())
    return math.hypot(p[0] - q[0], p[1] - q[1])


def polytopes_intersect(P: Polytope, Q: Polytope) -> bool:
    """Exact separating-axis test for two convex polygons."""
    vp, vq = P.vertices.tolist(), Q.vertices.tolist()
    for ax, ay in P.A.tolist() + Q.A.tolist():
        proj_p = [ax * x + ay * y for x, y in vp]
        proj_q = [ax * x + ay * y for x, y in vq]
        if max(proj_p) < min(proj_q) - _SAT_TOL or max(proj_q) < min(proj_p) - _SAT_TOL:
            return False
    return True


# The batched routines below take K polygons as stacked vertices (K, V, 2) in
# cyclic order, and where they need them faces {x : A[k] x <= b[k]} with
# A (K, F, 2) and b (K, F).  Every operation is elementwise over the K rows.

def _closest_on_edges(pts, ring):
    """Closest points of the edges of K polygons to points: (cx, cy, d2).

    pts (K, P, 2) holds P points per polygon and ring (K, V, 2) the polygons'
    vertices in cyclic order.  Entry [k, i, e] of each (K, P, V) result is
    the point of edge ring[k, e - 1] -> ring[k, e] closest to pts[k, i], and
    its squared distance: the arithmetic of `_closest_pair`, elementwise.  An
    edge of zero length gives its start.
    """
    a = np.concatenate([ring[:, -1:], ring[:, :-1]], axis=1)
    ax, ay = a[:, None, :, 0], a[:, None, :, 1]
    ex, ey = ring[:, None, :, 0] - ax, ring[:, None, :, 1] - ay
    vx, vy = pts[:, :, None, 0], pts[:, :, None, 1]
    # A zero-length edge has ex = ey = 0, so dividing by 1 there gives t = 0.
    ee = ex * ex + ey * ey
    t = np.clip(((vx - ax) * ex + (vy - ay) * ey) / np.where(ee > 0.0, ee, 1.0), 0.0, 1.0)
    cx, cy = ax + t * ex, ay + t * ey
    return cx, cy, (vx - cx) ** 2 + (vy - cy) ** 2


def _box_corners(z, half_l: float, half_w: float) -> np.ndarray:
    """(T, 4, 2) corners of the boxes at states z (T, >= 3), counterclockwise,
    by the arithmetic of `Polytope.from_box`."""
    c, s = np.cos(z[:, 2]), np.sin(z[:, 2])
    sx = np.array([1.0, -1.0, -1.0, 1.0])
    sy = np.array([1.0, 1.0, -1.0, -1.0])
    ox = (c[:, None] * sx) * half_l + (-s[:, None] * sy) * half_w
    oy = (s[:, None] * sx) * half_l + (c[:, None] * sy) * half_w
    return np.stack([z[:, :1] + ox, z[:, 1:2] + oy], axis=2)


def box_distances(z_a, z_b, length: float, width: float) -> np.ndarray:
    """Distances between T pairs of equal body boxes, (T,) for states (T, >= 3).

    Row t is the distance between the length x width boxes centered at
    z_a[t] and z_b[t] with headings z_a[t, 2] and z_b[t, 2], the batched
    form of `min_translation_distance` on two `body_polytope`s: the same
    separating-axis test on the eight face normals, then the minimum
    vertex-to-edge distance in both directions.  Intersecting boxes get 0.
    Builds no `Polytope`.
    """
    if not (length > 0 and math.isfinite(length) and width > 0 and math.isfinite(width)):
        raise GeometryError("body dimensions must be positive and finite")
    z_a, z_b = np.asarray(z_a, float), np.asarray(z_b, float)
    va = _box_corners(z_a, 0.5 * length, 0.5 * width)
    vb = _box_corners(z_b, 0.5 * length, 0.5 * width)
    separated = np.zeros(len(va), dtype=bool)
    for psi in (z_a[:, 2], z_b[:, 2]):
        c, s = np.cos(psi)[:, None], np.sin(psi)[:, None]
        for nx, ny in ((c, s), (-s, c), (-c, -s), (s, -c)):
            pa = nx * va[..., 0] + ny * va[..., 1]
            pb = nx * vb[..., 0] + ny * vb[..., 1]
            separated |= pa.max(axis=1) < pb.min(axis=1) - _SAT_TOL
            separated |= pb.max(axis=1) < pa.min(axis=1) - _SAT_TOL
    d2 = np.minimum(_closest_on_edges(va, vb)[2], _closest_on_edges(vb, va)[2])
    return np.where(separated, np.sqrt(d2.reshape(len(va), -1).min(axis=1)), 0.0)


def point_polytope_distances(p, verts, A, b) -> np.ndarray:
    """Distances from K points p (K, 2) to K polygons, (K,).

    Row k is exactly 0 when the point passes the face test of
    `Polytope.contains` (A p - b <= 1e-9 on every face), else the least
    distance to the V edges of verts[k], as `_closest_on_edges` measures it.
    """
    p = np.asarray(p, float)
    px, py = p[:, None, 0], p[:, None, 1]
    inside = np.all(A[..., 0] * px + A[..., 1] * py - b <= _INSIDE_TOL, axis=1)
    d2 = _closest_on_edges(p[:, None], verts)[2][:, 0]
    return np.where(inside, 0.0, np.sqrt(d2.min(axis=1)))


def project_to_critical_boundary(p_ref, d, verts, A, b, radius: float, dist) -> np.ndarray:
    """Where K rays leave their critical regions, (K, 2).

    Row k's critical region is polygon k dilated by `radius`; d (K, 2) holds
    unit directions, and dist (K,) the distances of the rays' start points
    p_ref from their polygons, as `point_polytope_distances` measures them
    (the caller has them from screening the points).  The region is convex,
    and its boundary is each edge pushed out by `radius` along its outward
    normal plus an arc of that radius about each vertex.  A ray from a
    point inside crosses every piece it meets at or before its exit, and the
    exit lies on one of them, so the exit is the largest crossing: of each
    pushed-out edge the ray leaves through (d against the edge's outward
    normal positive, the crossing within the edge's span) and of each vertex
    circle the ray meets (its far root).  The row's point is at that t,
    clamped at t >= 0.  A ray parallel to an edge has no crossing of it and
    leaves through the arc at its end.  One numpy pass covers K rows x V
    edges.  Raises GeometryError when a distance puts its point more than
    PROJECTION_TOL outside its region.
    """
    p_ref, d = np.asarray(p_ref, float), np.asarray(d, float)
    if not (radius > 0 and math.isfinite(radius)):
        raise GeometryError("critical region radius must be positive and finite")
    if np.any(np.asarray(dist, float) - radius > PROJECTION_TOL):
        raise GeometryError("reference point is outside the critical region")
    px, py = p_ref[:, None, 0], p_ref[:, None, 1]
    dx, dy = d[:, None, 0], d[:, None, 1]
    # Vertex circles: w = p - v, t^2 + 2 (d.w) t + |w|^2 - r^2 = 0.  The
    # discriminant is r^2 minus the squared distance of v from the ray's
    # line, which the cross product gives without cancellation.
    wx, wy = px - verts[..., 0], py - verts[..., 1]
    beta = dx * wx + dy * wy
    cross = dx * wy - dy * wx
    disc = radius * radius - cross * cross
    t_arc = np.where(disc >= 0.0, np.sqrt(np.maximum(disc, 0.0)) - beta, -np.inf)
    # Edges v_e -> v_(e+1) of a counterclockwise polygon have outward normal
    # (ey, -ex), of the edge's length L: the pushed-out edge is where
    # (x - v_e).n = r L, and the crossing lies in the edge's span when
    # 0 <= (x - v_e).e <= L^2.
    e = np.concatenate([verts[:, 1:], verts[:, :1]], axis=1) - verts
    ex, ey = e[..., 0], e[..., 1]
    dn = dx * ey - dy * ex
    # No point of the region is farther from p than its farthest vertex
    # plus r, so neither is a crossing; testing |num / dn| against twice
    # that before dividing keeps a ray all but parallel to an edge from
    # overflowing t.
    reach = np.hypot(wx, wy).max(axis=1, keepdims=True) + radius
    num = radius * np.hypot(ex, ey) - (wx * ey - wy * ex)
    leaving = (dn > 0.0) & (np.abs(num) <= 2.0 * reach * dn)
    t_edge = num / np.where(leaving, dn, 1.0)
    along = (wx + t_edge * dx) * ex + (wy + t_edge * dy) * ey
    leaving &= (along >= 0.0) & (along <= ex * ex + ey * ey)
    t_edge = np.where(leaving, t_edge, -np.inf)
    t = np.maximum(np.maximum(t_arc.max(axis=1), t_edge.max(axis=1)), 0.0)
    return p_ref + t[:, None] * d


def _norms(v) -> np.ndarray:
    """Euclidean norms of the rows of v (K, 2), rounded as `np.linalg.norm`
    rounds one row."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def strategy_halfspaces(qs, verts, A, b):
    """Supporting halfspaces w . p >= offset of K polygons at K boundary
    points: (w (K, 2), offset (K,)).

    Row k's outward normal is (q - closest polygon point) / distance; when
    q is equidistant (within 1e-9) from several edges the distinct candidate
    normals (taken in edge order v_i -> v_(i+1) from v_0, each kept unless
    within 1e-9 of one kept before it) are averaged and renormalized.  The
    offset is the polygon's support value, so every vertex satisfies
    w . v <= offset and the constraint w . p >= offset keeps the ego vehicle
    on the far side.  The unit normal and its support value are divided once
    more by the normal's computed norm.  Raises GeometryError when any point
    lies inside its polygon or within 1e-9 of it, or when an averaged normal
    is degenerate.  Norms and dot products run as stacked matmuls, which
    round as the 1-D `np.linalg.norm` and `@` do, so each row has the bits
    of its own per-point computation.
    """
    qs = np.asarray(qs, float)
    # Edges v_i -> v_(i+1) from v_0: the ring starts at v_1.
    ring = np.concatenate([verts[:, 1:], verts[:, :1]], axis=1)
    cx, cy, d2 = _closest_on_edges(qs[:, None], ring)
    dists = np.sqrt(d2[:, 0])
    dist = dists.min(axis=1)
    if np.any(np.all((A @ qs[:, :, None])[..., 0] - b <= _INSIDE_TOL, axis=1) | (dist < 1e-9)):
        raise GeometryError("boundary point lies inside the base polytope")
    normals = np.stack([qs[:, None, 0] - cx[:, 0], qs[:, None, 1] - cy[:, 0]], axis=2)
    normals /= dists[..., None]
    n_edges = normals.shape[1]
    gaps = (normals[:, :, None] - normals[:, None, :]).reshape(-1, 2)
    close = (_norms(gaps) < 1e-9).reshape(-1, n_edges, n_edges)
    keep = dists <= dist[:, None] + 1e-9
    total = normals[:, 0].copy()
    for j in range(1, n_edges):
        keep[:, j] &= ~np.any(keep[:, :j] & close[:, j, :j], axis=1)
        # The first kept normal starts the sum, as np.mean's does.
        started = keep[:, :j].any(axis=1)[:, None]
        total = np.where(keep[:, j, None], np.where(started, total + normals[:, j],
                                                    normals[:, j]), total)
    w = total / np.count_nonzero(keep, axis=1)[:, None]
    wn = _norms(w)
    if np.any(wn < 1e-12):
        raise GeometryError("degenerate averaged normal")
    w = w / wn[:, None]
    support = (verts @ w[:, :, None])[..., 0].max(axis=1)
    wn = _norms(w)
    return w / wn[:, None], support / wn
