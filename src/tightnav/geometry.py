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
  `strategy_halfspace`.

The pair routines stay scalar because at one pair of 4-vertex boxes each
numpy call costs more than the arithmetic it does: run on the batched
routine with one row, traced per-call distance time rose from 60 to 200 ms
per `interaction_bl` pass and from 41 to 149 ms per `guided_sg` pass, and
the separating-axis test from 9.5 to 33 ms per `open_lane` pass.

The guided controller's pass-side hyperplanes come from critical regions,
an obstacle dilated by the ego covering radius.  For every stage of a
horizon at once, `point_polytope_distances` measures the point-to-polygon
distance and `project_to_critical_boundary` bisects each pass-side ray to
the region's boundary; `strategy_halfspace` then supports the obstacle at
each boundary point.  A grid-sampling oracle, the equivalent distance QP,
vertex enumeration by face intersection and the retired per-edge and
per-ray routines exist only in the tests.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

# A face counts as active at a boundary point within this distance.
_ACTIVE_TOL = 1e-9
# Separating-axis test: projections must be apart by more than this.
_SAT_TOL = 1e-9
# A point within this distance outside every face counts as inside.
_INSIDE_TOL = 1e-9
# Critical-boundary projection: the initial bracket beyond 4 radii (a lane
# width at desk scale), the most times it doubles, and the bisection
# stopping width.
BRACKET_HINT = 0.9
_MAX_DOUBLINGS = 40
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
        norms = np.linalg.norm(self.A, axis=1)
        if np.any(norms < 1e-12):
            raise GeometryError("zero-norm face normal")

    @classmethod
    def from_box(cls, center, half_x: float, half_y: float, psi: float = 0.0):
        """Axis-aligned box of half-extents (half_x, half_y) rotated by psi.

        The corners run counterclockwise from the one at the least angle
        about the center.
        """
        if half_x <= 0 or half_y <= 0:
            raise GeometryError("box half-extents must be positive")
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


@dataclass
class Halfspace:
    """Constraint w . p >= offset with unit normal w."""

    w: np.ndarray
    offset: float

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float).ravel()
        nrm = np.linalg.norm(self.w)
        if nrm < 1e-12:
            raise GeometryError("halfspace normal must be nonzero")
        self.w = self.w / nrm
        self.offset = float(self.offset) / nrm

    def violation(self, p) -> float:
        """Positive when p is on the wrong side."""
        return self.offset - float(self.w @ np.asarray(p, float))


def body_polytope(z, length: float, width: float) -> Polytope:
    """Vehicle body box at state z = (x, y, psi, ...)."""
    if length <= 0 or width <= 0:
        raise GeometryError("body dimensions must be positive")
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
    a = np.roll(ring, 1, axis=1)
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
    if length <= 0 or width <= 0:
        raise GeometryError("body dimensions must be positive")
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


def project_to_critical_boundary(p_ref, d, verts, A, b, radius: float):
    """Where K rays leave their critical regions: (points (K, 2), ok (K,)).

    Row k finds the smallest t >= 0 with dist(p_ref[k] + t d[k], poly_k) =
    radius by bisection on the sign of g(t) = dist - radius; d (K, 2) holds
    unit directions.  The bracket's upper end starts at 4 radius +
    BRACKET_HINT (a lane width at desk scale) and doubles, at most 40 times,
    until g > 0 there; a row still inside after that gets ok False and a NaN
    point, and the other rows are unaffected.  Bisection keeps the half with
    g(t_lo) <= 0 and stops, row by row, once the bracket is no wider than
    PROJECTION_TOL or its midpoint rounds to one of its ends (a crossing
    beyond about 4e9, where one ulp of t exceeds PROJECTION_TOL); the point
    returned is at the bracket's midpoint.  A row runs exactly the steps it
    would run alone.  Raises GeometryError when a reference point lies
    outside its region.
    """
    p_ref, d = np.asarray(p_ref, float), np.asarray(d, float)
    if radius <= 0:
        raise GeometryError("critical region radius must be positive")

    def g(t):
        return point_polytope_distances(p_ref + t[:, None] * d, verts, A, b) - radius

    t_lo = np.zeros(len(p_ref))
    if np.any(g(t_lo) > PROJECTION_TOL):
        raise GeometryError("reference point is outside the critical region")
    t_hi = np.full(len(p_ref), 4.0 * radius + BRACKET_HINT)
    short = g(t_hi) <= 0.0
    for _ in range(_MAX_DOUBLINGS):
        if not short.any():
            break
        t_hi = np.where(short, 2.0 * t_hi, t_hi)
        short &= g(t_hi) <= 0.0
    ok = ~short
    active = ok & (t_hi - t_lo > PROJECTION_TOL)
    while active.any():
        mid = 0.5 * (t_lo + t_hi)
        active &= (t_lo < mid) & (mid < t_hi)
        below = g(mid) <= 0.0
        t_lo = np.where(active & below, mid, t_lo)
        t_hi = np.where(active & ~below, mid, t_hi)
        active &= t_hi - t_lo > PROJECTION_TOL
    points = p_ref + (0.5 * (t_lo + t_hi))[:, None] * d
    points[~ok] = np.nan
    return points, ok


def strategy_halfspace(q_boundary, base: Polytope) -> Halfspace:
    """Supporting hyperplane of the base polytope at a boundary point.

    The outward normal is (q - closest base point) / distance; when q is
    equidistant (within 1e-9) from several edges the distinct candidate
    normals are averaged and renormalized.  The offset is the base support
    value, so every base vertex satisfies w . v <= offset and the constraint
    w . p >= offset keeps the ego vehicle on the far side.  Raises
    GeometryError when q lies inside the base or within 1e-9 of it.
    """
    q = np.asarray(q_boundary, dtype=float)
    # Edges in the order v_i -> v_(i+1) from v_0, which decides which of two
    # near-equal normals is kept.
    cx, cy, d2 = _closest_on_edges(q[None, None], np.roll(base.vertices, -1, axis=0)[None])
    dists = np.sqrt(d2[0, 0])
    dist = dists.min()
    if base.contains(q) or dist < 1e-9:
        raise GeometryError("boundary point lies inside the base polytope")
    normals = []
    for i in np.flatnonzero(dists <= dist + 1e-9):
        nrm = (q - (cx[0, 0, i], cy[0, 0, i])) / dists[i]
        if not any(np.linalg.norm(nrm - s) < 1e-9 for s in normals):
            normals.append(nrm)
    w = np.mean(normals, axis=0)
    wn = np.linalg.norm(w)
    if wn < 1e-12:
        raise GeometryError("degenerate averaged normal")
    w = w / wn
    return Halfspace(w, base.support(w))
