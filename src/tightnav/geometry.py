"""Planar convex-polytope primitives for collision avoidance.

Polytopes are halfspace intersections {p in R^2 : A p <= b}.  Vehicle bodies
are rotated boxes.  The distance between two polytopes is computed in closed
form: a separating-axis test, then the minimum vertex-to-edge distance in
both directions, in the manner of Gilbert, Johnson & Keerthi (1988).  The
face multipliers at the witness points are read off the faces active there;
they double as warm starts for the dual collision-avoidance constraints.  A
grid-sampling oracle and the equivalent distance QP exist only in the tests.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

# A face counts as active at a boundary point within this distance.
_ACTIVE_TOL = 1e-9


class GeometryError(ValueError):
    pass


def rotation_matrix(psi: float) -> np.ndarray:
    """Counterclockwise rotation by psi."""
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[c, -s], [s, c]])


@dataclass
class Polytope:
    """Halfspace intersection {p : A p <= b} in the plane."""

    A: np.ndarray
    b: np.ndarray
    _vertices: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float).reshape(-1, 2)
        self.b = np.asarray(self.b, dtype=float).ravel()
        if self.A.shape[0] != self.b.shape[0]:
            raise GeometryError("A and b row counts differ")
        if self.A.shape[0] < 3:
            raise GeometryError("a bounded planar polytope needs >= 3 faces")
        norms = np.linalg.norm(self.A, axis=1)
        if np.any(norms < 1e-12):
            raise GeometryError("zero-norm face normal")

    @classmethod
    def from_box(cls, center, half_x: float, half_y: float, psi: float = 0.0):
        """Axis-aligned box of half-extents (half_x, half_y) rotated by psi.

        The corners are stored in the order `vertices` would compute them
        (counterclockwise, by angle from the center), so they cost nothing.
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

    def contains(self, p, tol: float = 1e-9) -> bool:
        return bool(np.all(self.A @ np.asarray(p, float) - self.b <= tol))

    def vertices(self) -> np.ndarray:
        """Vertices by pairwise face intersection, ordered counterclockwise."""
        if self._vertices is not None:
            return self._vertices
        m = self.A.shape[0]
        pts = []
        for i in range(m):
            for j in range(i + 1, m):
                M = self.A[[i, j]]
                det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
                if abs(det) < 1e-12:
                    continue
                p = np.linalg.solve(M, self.b[[i, j]])
                if np.all(self.A @ p - self.b <= 1e-8):
                    pts.append(p)
        if not pts:
            raise GeometryError("polytope has no vertices (empty or degenerate)")
        pts = np.array(pts)
        # Deduplicate.
        keep: list[int] = []
        for i in range(len(pts)):
            if not any(np.linalg.norm(pts[i] - pts[k]) < 1e-9 for k in keep):
                keep.append(i)
        uniq = pts[keep]
        centroid = uniq.mean(axis=0)
        order = np.argsort(np.arctan2(uniq[:, 1] - centroid[1], uniq[:, 0] - centroid[0]))
        self._vertices = uniq[order]
        return self._vertices

    def support(self, direction) -> float:
        """Support function max_{p in P} d.p via vertex enumeration."""
        d = np.asarray(direction, float)
        return float(np.max(self.vertices() @ d))

    def is_bounded(self) -> bool:
        """Whether the face normals positively span the plane.

        They do exactly when no angular gap between consecutive normal
        directions reaches pi.  Emptiness is not checked here; `vertices`
        raises for an empty polytope.
        """
        ang = np.sort(np.arctan2(self.A[:, 1], self.A[:, 0]))
        gaps = np.diff(ang, append=ang[0] + 2.0 * math.pi)
        return bool(np.max(gaps) < math.pi)

    def validate(self) -> None:
        if not self.is_bounded():
            raise GeometryError("polytope is unbounded")


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

    def satisfied(self, p, tol: float = 1e-9) -> bool:
        return self.violation(p) <= tol


def body_polytope(z, length: float, width: float) -> Polytope:
    """Vehicle body box at state z = (x, y, psi, ...)."""
    if length <= 0 or width <= 0:
        raise GeometryError("body dimensions must be positive")
    return Polytope.from_box(np.asarray(z, float)[:2], 0.5 * length, 0.5 * width,
                             float(np.asarray(z, float)[2]))


@dataclass
class DistanceResult:
    """Distance between two polytopes with witness points and face multipliers."""

    distance: float
    point_p: np.ndarray
    point_q: np.ndarray
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


def _common_point(P: Polytope, Q: Polytope) -> np.ndarray:
    """A common point of polytopes the separating-axis test found intersecting.

    It is the vertex mean of P clipped to Q (Sutherland-Hodgman).  When they
    only touch within the test's tolerance the clip can come out empty; then
    the midpoint of the closest boundary pair is returned.
    """
    poly = P.vertices().tolist()
    for (ax, ay), b in zip(Q.A.tolist(), Q.b.tolist()):
        s = [ax * x + ay * y - b - _ACTIVE_TOL for x, y in poly]
        out = []
        for k in range(len(poly)):
            (x0, y0), (x1, y1), s0, s1 = poly[k - 1], poly[k], s[k - 1], s[k]
            if (s0 < 0.0 < s1) or (s1 < 0.0 < s0):
                f = s0 / (s0 - s1)
                out.append((x0 + f * (x1 - x0), y0 + f * (y1 - y0)))
            if s1 <= 0.0:
                out.append((x1, y1))
        if not out:
            p, q = _closest_pair(P.vertices().tolist(), Q.vertices().tolist())
            return 0.5 * (np.array(p) + np.array(q))
        poly = out
    return np.mean(poly, axis=0)


def distance_witness(P: Polytope, Q: Polytope) -> DistanceResult:
    """Minimum translation distance with witness points and multipliers.

    Solves min ||p - q|| over p in P, q in Q in closed form.  Polytopes that
    the separating-axis test finds separated get the closest vertex-edge
    pair and face multipliers satisfying (p - q) = -P.A' mult_p = Q.A' mult_q:
    the KKT multipliers of min 0.5 ||p - q||^2, which feed the dual warm
    start of the collision-avoidance controller.  Along parallel edges the
    witness points are not unique (the multipliers are) and one closest pair
    is returned.  Intersecting polytopes get distance 0, a common point as
    both witnesses, and zero multipliers.  Raises GeometryError for an empty
    polytope.
    """
    vp, vq = P.vertices(), Q.vertices()
    if polytopes_intersect(P, Q):
        c = _common_point(P, Q)
        return DistanceResult(0.0, c, c.copy(), np.zeros(len(P.A)), np.zeros(len(Q.A)))
    p, q = _closest_pair(vp.tolist(), vq.tolist())
    dx, dy = p[0] - q[0], p[1] - q[1]
    return DistanceResult(math.hypot(dx, dy), np.array(p), np.array(q),
                          _face_multipliers(P, p, (-dx, -dy)),
                          _face_multipliers(Q, q, (dx, dy)))


def min_translation_distance(P: Polytope, Q: Polytope) -> float:
    """Distance between two polytopes; 0 iff they intersect."""
    return distance_witness(P, Q).distance


def polytopes_intersect(P: Polytope, Q: Polytope, tol: float = 1e-9) -> bool:
    """Exact separating-axis test for two convex polygons."""
    vp, vq = P.vertices().tolist(), Q.vertices().tolist()
    for ax, ay in P.A.tolist() + Q.A.tolist():
        proj_p = [ax * x + ay * y for x, y in vp]
        proj_q = [ax * x + ay * y for x, y in vq]
        if max(proj_p) < min(proj_q) - tol or max(proj_q) < min(proj_p) - tol:
            return False
    return True


def _point_segment_closest(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom < 1e-16 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return a + t * ab


def point_polytope_projection(p, poly: Polytope):
    """(distance, closest point, per-edge candidates) for a point.

    Inside the polytope the distance is 0 and the point projects to itself;
    candidates are the per-edge closest points used for tie handling.
    """
    p = np.asarray(p, dtype=float)
    if poly.contains(p):
        return 0.0, p.copy(), []
    verts = poly.vertices()
    n = len(verts)
    cands = []
    for i in range(n):
        cp = _point_segment_closest(p, verts[i], verts[(i + 1) % n])
        cands.append((float(np.linalg.norm(p - cp)), cp))
    dmin = min(c[0] for c in cands)
    best = next(c[1] for c in cands if c[0] == dmin)
    return dmin, best, cands


def point_polytope_distance(p, poly: Polytope) -> float:
    return point_polytope_projection(p, poly)[0]


@dataclass
class CriticalRegion:
    """A polytope dilated by a disc: {p : dist(p, base) <= radius}."""

    base: Polytope
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise GeometryError("critical region radius must be positive")

    def contains(self, p, tol: float = 1e-9) -> bool:
        return point_polytope_distance(p, self.base) <= self.radius + tol


def project_to_critical_boundary(
    p_ref,
    region: CriticalRegion,
    direction,
    bracket_hint: float = 0.9,
    tol: float = 1e-6,
) -> np.ndarray:
    """Smallest t >= 0 with dist(p_ref + t*d, base) = radius, via bisection.

    p_ref must lie inside the region.  The initial bracket upper end is
    4*radius + bracket_hint (a lane width at desk scale) and grows
    geometrically until the boundary crossing is bracketed.
    """
    p_ref = np.asarray(p_ref, dtype=float)
    d = np.asarray(direction, dtype=float)
    nd = np.linalg.norm(d)
    if nd < 1e-12:
        raise GeometryError("projection direction must be nonzero")
    d = d / nd

    def g(t):
        return point_polytope_distance(p_ref + t * d, region.base) - region.radius

    if g(0.0) > tol:
        raise GeometryError("reference point is outside the critical region")
    t_hi = 4.0 * region.radius + bracket_hint
    expansions = 0
    while g(t_hi) <= 0.0:
        t_hi *= 2.0
        expansions += 1
        if expansions > 40:
            raise GeometryError("no boundary crossing along projection ray")
    t_lo = 0.0
    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        if g(mid) <= 0.0:
            t_lo = mid
        else:
            t_hi = mid
    return p_ref + 0.5 * (t_lo + t_hi) * d


def strategy_halfspace(q_boundary, region: CriticalRegion) -> Halfspace:
    """Supporting hyperplane of the base polytope at a boundary point.

    The outward normal is (q - closest base point) / radius; when q is
    equidistant from several faces the candidate normals are averaged and
    renormalized.  The offset is the base support value, so every base vertex
    satisfies w . v <= offset and the constraint w . p >= offset keeps the
    ego vehicle on the far side.
    """
    q = np.asarray(q_boundary, dtype=float)
    dist, closest, cands = point_polytope_projection(q, region.base)
    if dist < 1e-9:
        raise GeometryError("boundary point lies inside the base polytope")
    tie = [c for c in cands if c[0] <= dist + 1e-9]
    normals = []
    seen = []
    for cd, cp in tie:
        nrm = (q - cp) / cd
        if not any(np.linalg.norm(nrm - s) < 1e-9 for s in seen):
            seen.append(nrm)
            normals.append(nrm)
    w = np.mean(normals, axis=0)
    wn = np.linalg.norm(w)
    if wn < 1e-12:
        raise GeometryError("degenerate averaged normal")
    w = w / wn
    return Halfspace(w, region.base.support(w))
