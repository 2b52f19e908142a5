"""Geometry tests.

Oracles: grid sampling for polytope distances, the distance as a convex QP
(the formulation the closed-form routine replaced), direct corner
enumeration and vertex enumeration by face intersection for boxes, the
retired per-edge and per-ray routines in `oracles.py`, and analytic results
for axis-aligned and named contact cases.  The closed-form distance must
agree with the sampling oracle to grid resolution, with the QP to 1e-8 in
distance and multipliers, and its multipliers must satisfy the witness
identities at the QP's closest points.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from tightnav.geometry import (
    PROJECTION_TOL,
    GeometryError,
    Polytope,
    body_polytope,
    box_distances,
    distance_witness,
    min_translation_distance,
    point_polytope_distances,
    polytopes_intersect,
    project_to_critical_boundary,
    rotation_matrix,
    strategy_halfspaces,
    _closest_pair,
)
from tightnav.qp import solve_qp

from oracles import (
    BRACKET_HINT,
    face_intersection_vertices,
    point_polytope_distance,
    project_by_bisection,
    project_one,
    strategy_halfspace,
    strategy_halfspace_per_edge,
)


def grid_points(poly: Polytope, n: int = 45) -> np.ndarray:
    verts = poly.vertices
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    pts = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    inside = np.all(pts @ poly.A.T - poly.b <= 1e-9, axis=1)
    return pts[inside]


def oracle_distance(P: Polytope, Q: Polytope, n: int = 45) -> float:
    """Brute-force distance by sampling both polytopes on grids."""
    if polytopes_intersect(P, Q):
        return 0.0
    gp, gq = grid_points(P, n), grid_points(Q, n)
    return float(cdist(gp, gq).min())


def grid_spacing(poly: Polytope, n: int = 45) -> float:
    verts = poly.vertices
    span = verts.max(axis=0) - verts.min(axis=0)
    return float(np.max(span)) / (n - 1)


def corner_oracle(center, half_x, half_y, psi) -> np.ndarray:
    R = rotation_matrix(psi)
    corners = np.array(
        [[half_x, half_y], [-half_x, half_y], [-half_x, -half_y], [half_x, -half_y]]
    )
    return corners @ R.T + np.asarray(center)


def shoelace(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def qp_distance_witness(P: Polytope, Q: Polytope):
    """(distance, p, q, mult_p, mult_q) from min 0.5 |p - q|^2 over p in P, q in Q.

    This is the dense QP the closed-form routine replaced, kept as an
    independent oracle; its inequality multipliers are the face multipliers.
    """
    mp, mq = P.A.shape[0], Q.A.shape[0]
    H = np.block([[np.eye(2), -np.eye(2)], [-np.eye(2), np.eye(2)]])
    A = np.zeros((mp + mq, 4))
    A[:mp, :2] = P.A
    A[mp:, 2:] = Q.A
    sol = solve_qp(H, np.zeros(4), A, np.concatenate([P.b, Q.b]))
    assert sol.ok
    p, q = sol.x[:2], sol.x[2:]
    return float(np.linalg.norm(p - q)), p, q, sol.lam[:mp], sol.lam[mp:]


def assert_witness_identities(P, Q, res, atol=1e-9):
    """(p - q) = -P.A' mult_p = Q.A' mult_q and |p - q| = distance at the QP's
    closest points p, q: p - q is unique even where p and q are not."""
    _, p, q, _, _ = qp_distance_witness(P, Q)
    diff = p - q
    np.testing.assert_allclose(-P.A.T @ res.mult_p, diff, atol=atol)
    np.testing.assert_allclose(Q.A.T @ res.mult_q, diff, atol=atol)
    assert res.distance == pytest.approx(np.linalg.norm(diff), abs=atol)


def test_rotation_matrix_basic():
    np.testing.assert_allclose(rotation_matrix(0.0), np.eye(2), atol=1e-15)
    R = rotation_matrix(math.pi / 2)
    np.testing.assert_allclose(R @ np.array([1.0, 0.0]), [0.0, 1.0], atol=1e-15)
    assert abs(np.linalg.det(R) - 1.0) < 1e-14


def test_body_polytope_corners_match_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(25):
        z = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-4, 4), 0.0])
        L, W = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
        poly = body_polytope(z, L, W)
        expected = corner_oracle(z[:2], L / 2, W / 2, z[2])
        verts = poly.vertices
        assert len(verts) == 4
        for c in expected:
            assert np.min(np.linalg.norm(verts - c, axis=1)) < 1e-9
        assert abs(shoelace(verts) - L * W) < 1e-9
        # The state position is the body center.
        assert poly.contains(z[:2])


def test_body_polytope_rejects_bad_dims():
    with pytest.raises(GeometryError):
        body_polytope(np.zeros(4), -1.0, 0.2)
    with pytest.raises(GeometryError):
        body_polytope(np.zeros(4), 0.3, 0.0)


def test_distance_axis_aligned_boxes():
    P = Polytope.from_box([0.0, 0.0], 0.5, 0.5)
    Q = Polytope.from_box([3.0, 0.0], 0.5, 0.5)
    assert abs(min_translation_distance(P, Q) - 2.0) < 1e-8
    # Overlap -> zero.
    Rb = Polytope.from_box([0.5, 0.0], 0.5, 0.5)
    assert min_translation_distance(P, Rb) < 1e-6


def test_distance_matches_grid_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        P = Polytope.from_box(rng.uniform(-1, 1, 2), *rng.uniform(0.2, 0.8, 2),
                              psi=rng.uniform(-3, 3))
        Q = Polytope.from_box(rng.uniform(-1, 1, 2) + np.array([2.5, 0.0]),
                              *rng.uniform(0.2, 0.8, 2), psi=rng.uniform(-3, 3))
        d_qp = min_translation_distance(P, Q)
        d_or = oracle_distance(P, Q)
        h = max(grid_spacing(P), grid_spacing(Q))
        assert abs(d_qp - d_or) <= 2.0 * h
        assert d_qp <= d_or + 1e-9  # sampling can only overestimate


def test_distance_symmetry_and_translation_invariance():
    rng = np.random.default_rng(9)
    for _ in range(10):
        P = Polytope.from_box(rng.uniform(-1, 1, 2), 0.4, 0.3, rng.uniform(-3, 3))
        Q = Polytope.from_box(rng.uniform(1.5, 3, 2), 0.5, 0.2, rng.uniform(-3, 3))
        d1 = min_translation_distance(P, Q)
        assert abs(d1 - min_translation_distance(Q, P)) < 1e-7
        t = rng.uniform(-5, 5, 2)
        Pt = Polytope(P.A, P.b + P.A @ t, P.vertices + t)
        Qt = Polytope(Q.A, Q.b + Q.A @ t, Q.vertices + t)
        assert abs(min_translation_distance(Pt, Qt) - d1) < 1e-6


def test_distance_witness_identities():
    rng = np.random.default_rng(17)
    for _ in range(15):
        P = Polytope.from_box(rng.uniform(-1, 1, 2), 0.4, 0.3, rng.uniform(-3, 3))
        Q = Polytope.from_box(rng.uniform(-1, 1, 2) + 2.0, 0.3, 0.5, rng.uniform(-3, 3))
        res = distance_witness(P, Q)
        if res.distance < 1e-8:
            continue
        assert_witness_identities(P, Q, res, atol=1e-7)


def test_polytope_rejects_malformed_input():
    box = Polytope.from_box([0, 0], 1, 1)
    for A, b, verts in ((box.A, box.b[:3], box.vertices),
                        (box.A[:2], box.b[:2], box.vertices),
                        (box.A, box.b, box.vertices[:2]),
                        (np.vstack([box.A[:3], [0.0, 0.0]]), box.b, box.vertices)):
        with pytest.raises(GeometryError):
            Polytope(A, b, verts)


def nan_normal_polytope():
    box = Polytope.from_box([0, 0], 1, 1)
    return Polytope(np.vstack([box.A[:3], [np.nan, 1.0]]), box.b, box.vertices)


def far_boxes(length):
    """Two boxes 5 m apart, measured with body length `length`."""
    return box_distances(np.zeros((1, 3)), np.array([[5.0, 0.0, 0.0]]), length, 0.2)


def critical_exit(radius):
    verts = Polytope.from_box([0, 0], 0.5, 0.5).vertices
    box = Polytope.from_box([0, 0], 0.5, 0.5)
    return project_to_critical_boundary(np.zeros((1, 2)), np.array([[1.0, 0.0]]),
                                        verts[None], box.A[None], box.b[None], radius,
                                        np.zeros(1))


@pytest.mark.parametrize("build", [
    lambda: Polytope.from_box([0, 0], np.nan, 1.0),
    lambda: Polytope.from_box([0, 0], 1.0, np.inf),
    lambda: body_polytope(np.zeros(4), np.nan, 0.2),
    lambda: body_polytope(np.zeros(4), 0.3, np.inf),
    lambda: far_boxes(np.nan),
    lambda: far_boxes(np.inf),
    lambda: critical_exit(np.nan),
    lambda: critical_exit(np.inf),
    nan_normal_polytope,
], ids=["from_box-nan", "from_box-inf", "body-nan", "body-inf", "box_distances-nan",
        "box_distances-inf", "critical-radius-nan", "critical-radius-inf", "nan-normal"])
def test_non_finite_sizes_and_normals_are_rejected(build):
    """A NaN fails every comparison, so `x <= 0` let NaN sizes through:
    `box_distances` then read contact (0.0) for boxes 5 m apart."""
    with pytest.raises(GeometryError):
        build()


def test_sat_intersection():
    P = Polytope.from_box([0, 0], 1, 1)
    assert polytopes_intersect(P, Polytope.from_box([1.5, 0], 1, 1))
    assert not polytopes_intersect(P, Polytope.from_box([3.0, 0], 1, 1, psi=0.7))
    # Rotated near-touching case cross-checked against the QP distance.
    Q = Polytope.from_box([2.0, 0.6], 1, 0.4, psi=0.5)
    assert polytopes_intersect(P, Q) == (min_translation_distance(P, Q) < 1e-9)


def test_point_distance_matches_qp():
    rng = np.random.default_rng(23)
    poly = Polytope.from_box([0.3, -0.2], 0.6, 0.4, psi=0.8)
    for _ in range(20):
        p = rng.uniform(-2, 2, 2)
        d_fast = point_polytope_distances([p], *stack([poly]))[0]
        tiny = Polytope.from_box(p, 1e-9, 1e-9)
        d_qp = min_translation_distance(tiny, poly)
        assert abs(d_fast - d_qp) < 1e-6


def stack(polys):
    """(verts, A, b) of polytopes stacked to (K, V, 2), (K, F, 2) and (K, F)."""
    return (np.array([p.vertices for p in polys]), np.array([p.A for p in polys]),
            np.array([p.b for p in polys]))


def exits(p_ref, d, polys, radius):
    """`project_to_critical_boundary` on the rows of `polys`, with the
    rows' distances measured as its callers measure them."""
    p_ref, (verts, A, b) = np.asarray(p_ref, float), stack(polys)
    return project_to_critical_boundary(p_ref, d, verts, A, b, radius,
                                        point_polytope_distances(p_ref, verts, A, b))


def plain_point_polygon_distance(p, poly: Polytope) -> float:
    """The batched distance's documented arithmetic in Python floats.

    Face test A p - b <= 1e-9, then the least distance to the edges
    v_i -> v_(i+1), with the dot products as a plain sum of products in index
    order and t = 0 on an edge of zero length.
    """
    px, py = p
    if all(ax * px + ay * py - b <= 1e-9 for (ax, ay), b in zip(poly.A.tolist(), poly.b.tolist())):
        return 0.0
    verts = poly.vertices.tolist()
    best = math.inf
    for i, (ax, ay) in enumerate(verts):
        bx, by = verts[(i + 1) % len(verts)]
        ex, ey = bx - ax, by - ay
        ee = ex * ex + ey * ey
        t = min(max(((px - ax) * ex + (py - ay) * ey) / ee, 0.0), 1.0) if ee > 0.0 else 0.0
        dx, dy = px - (ax + t * ex), py - (ay + t * ey)
        best = min(best, math.sqrt(dx * dx + dy * dy))
    return best


def random_boxes(rng, k, half_lo=0.05, half_hi=1.0):
    return [Polytope.from_box(rng.uniform(-1, 1, 2), rng.uniform(half_lo, half_hi),
                              rng.uniform(half_lo, half_hi), rng.uniform(-math.pi, math.pi))
            for _ in range(k)]


def assert_distances_match(points, polys, atol=1e-15):
    """Batched distances against the retired per-edge routine and, bit for bit,
    the plain arithmetic."""
    got = point_polytope_distances(np.array(points, float), *stack(polys))
    scalar = np.array([point_polytope_distance(p, poly) for p, poly in zip(points, polys)])
    np.testing.assert_allclose(got, scalar, rtol=0.0, atol=atol)
    assert np.array_equal(got == 0.0, scalar == 0.0)
    plain = [plain_point_polygon_distance(p, poly) for p, poly in zip(points, polys)]
    assert got.tolist() == plain
    return got


def test_batched_distance_matches_scalar_random_boxes():
    rng = np.random.default_rng(211)
    polys = random_boxes(rng, 3000)
    points = rng.uniform(-2.5, 2.5, (3000, 2))
    got = assert_distances_match(points, polys)
    assert np.count_nonzero(got == 0.0) >= 100 and np.count_nonzero(got > 0.0) >= 1000


def test_batched_distance_on_faces_corners_and_tolerance():
    rng = np.random.default_rng(223)
    polys, points, want_zero = [], [], []
    for poly in random_boxes(rng, 200):
        v = poly.vertices
        n = poly.A / np.linalg.norm(poly.A, axis=1)[:, None]
        mid = 0.5 * (v + np.roll(v, -1, axis=0))
        # Which face each edge midpoint lies on.
        face = [int(np.argmin(np.abs(poly.A @ m - poly.b))) for m in mid]
        for i in range(4):
            polys += [poly] * 4
            points += [v[i], mid[i], mid[i] + 5e-10 * n[face[i]], mid[i] + 1e-6 * n[face[i]]]
            want_zero += [True, True, True, False]
    got = assert_distances_match(points, polys)
    assert np.array_equal(got == 0.0, np.array(want_zero))


def test_batched_distance_tiny_boxes():
    # The retired routine projects every point to the start of an edge
    # shorter than 1e-8, which overestimates the distance by up to the edge
    # length; the batched one projects onto it.
    rng = np.random.default_rng(227)
    for half in (1e-9, 1e-7):
        polys = [Polytope.from_box(c, half, half, psi)
                 for c, psi in zip(rng.uniform(-1, 1, (100, 2)), rng.uniform(-3, 3, 100))]
        points = [poly.vertices.mean(axis=0) + rng.uniform(-3 * half, 3 * half, 2)
                  for poly in polys]
        got = assert_distances_match(points, polys, atol=1e-15 if half > 1e-8 else 3 * half)
        retired = [point_polytope_distance(p, poly) for p, poly in zip(points, polys)]
        assert np.all(got <= np.array(retired) + 1e-15)
        assert np.count_nonzero(got == 0.0) >= 10 and np.count_nonzero(got > 0.0) >= 40


def assert_on_boundary(q, polys, radius):
    """Each exit point is at distance radius from its polygon, to 1e-12 of
    its magnitude."""
    for qk, poly in zip(q, polys):
        scale = max(1.0, float(np.max(np.abs(qk))))
        assert abs(point_polytope_distance(qk, poly) - radius) <= 1e-12 * scale


def project_rows(p_ref, d, polys, radius):
    """The closed-form exits of all rows: within PROJECTION_TOL / 2 of the
    batched bisection where it finds a crossing, and at distance r on every
    row.  Returns the exits and the rows the bisection found."""
    q = exits(p_ref, d, polys, radius)
    q_bis, ok = project_by_bisection(p_ref, np.asarray(d, float), *stack(polys), radius)
    assert np.all(np.abs(q - q_bis)[ok] <= 0.5 * PROJECTION_TOL)
    assert_on_boundary(q, polys, radius)
    return q, ok


@pytest.mark.parametrize("radius", [0.3, 1.0])
def test_batched_projection_matches_per_row_bisection(radius):
    rng = np.random.default_rng(233 if radius == 0.3 else 239)
    polys, p_ref, dirs, long_rows = [], [], [], 0
    while len(polys) < 600:
        if rng.random() < 0.25:
            # Longer than 4r + 0.9 along d: the bisection's bracket must double.
            half_l = rng.uniform(2.5 * radius + 0.5, 40.0)
            psi = rng.uniform(-math.pi, math.pi)
            poly = Polytope.from_box(rng.uniform(-1, 1, 2), half_l, rng.uniform(0.05, 0.5), psi)
            theta = psi + rng.choice([0.0, math.pi]) + rng.uniform(-0.02, 0.02)
            long_rows += 1
        else:
            poly = random_boxes(rng, 1)[0]
            theta = rng.uniform(-math.pi, math.pi)
        p = poly.vertices.mean(axis=0) + rng.uniform(-1.0, 1.0, 2)
        if point_polytope_distance(p, poly) > radius:
            continue
        polys.append(poly)
        p_ref.append(p)
        dirs.append([math.cos(theta), math.sin(theta)])
    q, ok = project_rows(np.array(p_ref), dirs, polys, radius)
    assert ok.all()
    for qk, p, d, poly in zip(q, p_ref, dirs, polys):
        assert np.max(np.abs(qk - project_one(p, poly, radius, d))) <= 0.5 * PROJECTION_TOL
    reach = np.linalg.norm(q - np.array(p_ref), axis=1)
    assert long_rows >= 100 and np.count_nonzero(reach > 4 * radius + 0.9) >= 50


def test_batched_projection_keeps_a_tie_in_the_lower_bracket():
    # The bisection's first midpoint lies exactly at distance r from the
    # box's top face, so g(mid) == 0.0 and the midpoint becomes the
    # bracket's lower end; the exit is that midpoint exactly.
    radius = 1.0
    mid = 0.5 * (4.0 * radius + BRACKET_HINT)
    base = Polytope.from_box([0.0, 0.0], 1.0, mid - radius)
    assert point_polytope_distance([0.0, mid], base) == radius
    q, _ = project_rows(np.zeros((1, 2)), [[0.0, 1.0]], [base], radius)
    q_bis, _ = project_by_bisection(np.zeros((1, 2)), np.array([[0.0, 1.0]]),
                                    *stack([base]), radius)
    assert mid <= q_bis[0, 1] <= mid + PROJECTION_TOL
    np.testing.assert_allclose(q[0], [0.0, mid], rtol=0.0, atol=1e-15)


def test_projection_exits_huge_boxes_in_closed_form():
    """Crossings at 1e9, 1e10 and 1e13 among random rows.

    The bisection finds the first two (the second only because it stops
    once its midpoint rounds to a bracket end: one ulp of t there, 1.9e-6,
    exceeds PROJECTION_TOL) and exhausts its doublings on the third, which
    the exit finds like any other.  Each huge row's exit is r beyond the
    box's end, rounded once.
    """
    rng = np.random.default_rng(241)
    radius = 0.3
    polys = random_boxes(rng, 40)
    huge = {7: 1e13, 11: 1e10, 23: 1e9}
    for k, half in huge.items():
        polys[k] = Polytope.from_box([0.0, 0.0], half, 0.5)
    p_ref = np.array([poly.vertices.mean(axis=0) for poly in polys])
    theta = rng.uniform(-math.pi, math.pi, 40)
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    dirs[list(huge)] = [1.0, 0.0]
    q, ok = project_rows(p_ref, dirs, polys, radius)
    assert ok.tolist() == [k != 7 for k in range(40)]
    for k, half in huge.items():
        assert q[k].tolist() == [half + radius, 0.0]


def test_projection_box_example():
    # Box [-2,2]x[-1,1] dilated by 1; from the origin straight up -> (0, 2).
    base = Polytope.from_box([0, 0], 2.0, 1.0)
    q, _ = project_rows(np.zeros((1, 2)), [[0.0, 1.0]], [base], 1.0)
    np.testing.assert_allclose(q[0], [0.0, 2.0], rtol=0.0, atol=1e-15)


def test_projection_random_residuals():
    rng = np.random.default_rng(31)
    base = Polytope.from_box([0.5, 0.2], 0.8, 0.5, psi=0.4)
    p = np.asarray([0.5, 0.2]) + rng.uniform(-0.3, 0.3, (20, 2))
    p = p[point_polytope_distances(p, *stack([base] * 20)) <= 0.35]
    theta = rng.uniform(0, 2 * math.pi, len(p))
    d = np.column_stack([np.cos(theta), np.sin(theta)])
    q, ok = project_rows(p, d, [base] * len(p), 0.35)
    assert len(p) >= 10 and ok.all()


def test_projection_parallel_and_vertex_rays():
    """Rays along an edge's line, along the pushed-out edge, through a
    vertex, starting on the boundary and leaving at once, from a vertex, and
    one ulp of a subnormal off parallel to an edge: exact exits, with no
    floating-point warning on the way."""
    base = Polytope.from_box([0.0, 0.0], 2.0, 1.0)
    s = 1.0 / math.sqrt(2.0)
    rows = [  # (start, direction, exit)
        ([0.0, 1.0], [1.0, 0.0], [3.0, 1.0]),     # along the top edge's line
        ([0.0, 2.0], [1.0, 0.0], [2.0, 2.0]),     # along the pushed-out top edge
        ([0.0, 0.5], [-1.0, 0.0], [-3.0, 0.5]),   # parallel to the top edge
        ([0.0, -1.0], [s, s], None),              # through the corner (2, 1)
        ([2.0, 1.0], [s, s], [2.0 + s, 1.0 + s]),  # from a vertex
        ([0.0, 2.0], [0.0, 1.0], [0.0, 2.0]),     # on the boundary, leaving
        ([3.0, 0.0], [0.0, -1.0], [3.0, -1.0]),   # along the pushed-out right edge
        ([0.0, 0.0], [1.0, 1.3e-308], [3.0, 1.3e-308 * 3.0]),  # all but parallel
    ]
    p_ref = np.array([r[0] for r in rows])
    dirs = np.array([r[1] for r in rows])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        q = exits(p_ref, dirs, [base] * len(rows), 1.0)
    for (_, _, want), got in zip(rows, q):
        if want is not None:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=4e-16)
    assert_on_boundary(q, [base] * len(rows), 1.0)
    q_rows, ok = project_rows(p_ref, dirs, [base] * len(rows), 1.0)
    assert ok.all() and q_rows.tobytes() == q.tobytes()


def test_projection_requires_inside_point():
    base = Polytope.from_box([0, 0], 1, 1)
    with pytest.raises(GeometryError):
        exits([[0.0, 0.0], [5.0, 0.0]], [[0.0, 1.0]] * 2, [base] * 2, 0.5)


def halfspaces_bitwise(qs, polys):
    """`strategy_halfspaces` over all rows, (w, offset), each row checked bit
    for bit against the per-point routine."""
    w, offset = strategy_halfspaces(np.array(qs, float), *stack(polys))
    assert w.shape == (len(qs), 2) and offset.shape == (len(qs),)
    for w_k, offset_k, q, poly in zip(w, offset, qs, polys):
        want_w, want_offset = strategy_halfspace(q, poly)
        assert w_k.tobytes() == want_w.tobytes()
        assert float(offset_k).hex() == float(want_offset).hex()
    return w, offset


def test_strategy_halfspace_flat_face():
    base = Polytope.from_box([0, 0], 1.0, 1.0)
    (w,), (offset,) = halfspaces_bitwise([[0.0, 2.0]], [base])
    np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-9)
    assert abs(offset - 1.0) < 1e-9
    # Supporting property: every base vertex on or below the plane.
    for v in base.vertices:
        assert w @ v <= offset + 1e-9


def test_strategy_halfspace_vertex_tiebreak():
    # Boundary point off the corner: normal is the diagonal direction.
    base = Polytope.from_box([0, 0], 1.0, 1.0)
    s = 1.0 / math.sqrt(2.0)
    (w,), (offset,) = halfspaces_bitwise([[1.0 + s, 1.0 + s]], [base])
    np.testing.assert_allclose(w, [s, s], atol=1e-6)
    assert abs(offset - base.support(w)) < 1e-12
    for v in base.vertices:
        assert w @ v <= offset + 1e-9


def test_strategy_halfspace_averages_near_tied_normals():
    # Above the top face of [-1, 1]^2, dx left of the corner (1, 1): the top
    # edge and the right edge (whose closest point is the corner) tie within
    # 1e-9 while dx^2 / 2 <= 1e-9.  Their normals differ by about dx, so at
    # dx = 1e-6 both are averaged; at dx = 5e-10 the right edge's, first in
    # edge order from v_0 = (-1, -1), is kept and the top's dropped; at
    # dx = 1e-4 the distances no longer tie.
    base = Polytope.from_box([0, 0], 1.0, 1.0)
    qs = [[1.0 - 1e-6, 2.0], [1.0 - 5e-10, 2.0], [1.0 - 1e-4, 2.0]]
    w, _ = halfspaces_bitwise(qs, [base] * len(qs))
    np.testing.assert_allclose(w[0], [-5e-7, 1.0], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(w[1], [-5e-10, 1.0], rtol=0.0, atol=1e-15)
    assert w[2].tolist() == [0.0, 1.0]


def test_strategy_halfspace_supporting_property_random():
    rng = np.random.default_rng(41)
    base = Polytope.from_box([0.2, -0.1], 0.7, 0.45, psi=0.6)
    theta = rng.uniform(0, 2 * math.pi, 25)
    d = np.column_stack([np.cos(theta), np.sin(theta)])
    qs = exits([[0.2, -0.1]] * 25, d, [base] * 25, 0.3)
    for q, w, offset in zip(qs, *halfspaces_bitwise(qs, [base] * 25)):
        support = max(w @ v for v in base.vertices)
        assert abs(offset - support) < 1e-9
        # q itself is on the constraint boundary.
        assert abs(w @ q - offset - 0.3) < 1e-12


def test_strategy_halfspace_matches_per_edge_oracle():
    """`strategy_halfspaces` against the retired per-edge routine, and bit
    for bit against the per-point one.  A batch that holds a point inside
    its box raises; the other rows make up the batch compared.

    Off a corner, both adjacent edges tie at the corner, their closest points
    come out of the same arithmetic in both routines, and the halfspaces
    agree within 4e-16.  Elsewhere the retired routine's numpy dot products
    may fuse multiply-adds: the edge parameter can differ in its last bit,
    which moves the closest point along the edge by about eps |edge| and
    turns the normal by that over the distance.
    """
    eps = np.finfo(float).eps
    rng = np.random.default_rng(257)
    qs, bases, at_corner = [], [], []
    for base in random_boxes(rng, 150, half_hi=0.5):
        v = base.vertices
        edges = np.roll(v, -1, axis=0) - v
        out = np.column_stack([edges[:, 1], -edges[:, 0]]) / np.linalg.norm(edges, axis=1)[:, None]
        for i in range(4):
            r = rng.uniform(0.05, 1.0)
            alpha = rng.uniform(0.05, 0.95)
            corner = alpha * out[i - 1] + (1.0 - alpha) * out[i]
            qs += [v[i] + r * corner / np.linalg.norm(corner),
                   v[i] + rng.uniform(0.05, 0.95) * edges[i] + r * out[i],
                   v[i] + r * out[i],  # the face and the corner tie
                   rng.uniform(-3.0, 3.0, 2)]
            bases += [base] * 4
            at_corner += [True, False, False, False]
    outside = np.array([not base.contains(q) for q, base in zip(qs, bases)])
    assert not outside.all()
    with pytest.raises(GeometryError, match="inside"):
        strategy_halfspaces(np.array(qs), *stack(bases))
    for q, base in zip(np.array(qs)[~outside], np.array(bases)[~outside]):
        for oracle in (strategy_halfspace, strategy_halfspace_per_edge):
            with pytest.raises(GeometryError, match="inside"):
                oracle(q, base)
    qs, bases = np.array(qs)[outside], np.array(bases)[outside]
    corner_rows = other_rows = 0
    for w, offset, q, base, corner in zip(*halfspaces_bitwise(qs, bases), qs, bases,
                                          np.array(at_corner)[outside]):
        want_w, want_offset = strategy_halfspace_per_edge(q, base)
        tol = 4e-16
        if not corner:
            lengths = np.linalg.norm(np.roll(base.vertices, -1, axis=0) - base.vertices, axis=1)
            tol += 4 * eps * lengths.max() / point_polytope_distance(q, base)
        assert np.max(np.abs(w - want_w)) <= tol
        assert abs(offset - want_offset) <= tol
        corner_rows += corner
        other_rows += not corner
    assert corner_rows == 600 and other_rows >= 1500
    with pytest.raises(GeometryError, match="inside"):
        strategy_halfspaces(bases[0].vertices.mean(axis=0)[None], *stack(bases[:1]))


@st.composite
def projection_rows(draw):
    """(bases, reference points, unit directions, radius) of 1-6 rows.

    Each reference point is a convex combination of its base's vertices
    pushed out by at most r/2, so it lies well inside its critical region.
    """
    radius = draw(st.floats(0.05, 1.0))
    n = draw(st.integers(1, 6))
    unit = st.floats(0.0, 1.0)
    bases, p_ref, dirs = [], [], []
    for _ in range(n):
        base = Polytope.from_box([draw(st.floats(-2, 2)), draw(st.floats(-2, 2))],
                                 draw(st.floats(0.02, 1.5)), draw(st.floats(0.02, 1.5)),
                                 draw(st.floats(-math.pi, math.pi)))
        weights = np.array([draw(unit) for _ in range(4)]) + 1e-3
        inner = weights @ base.vertices / weights.sum()
        push = draw(st.floats(-math.pi, math.pi))
        p = inner + draw(st.floats(0.0, 0.5 * radius)) * np.array([math.cos(push), math.sin(push)])
        theta = draw(st.floats(-math.pi, math.pi))
        bases.append(base)
        p_ref.append(p)
        dirs.append([math.cos(theta), math.sin(theta)])
    return bases, np.array(p_ref), np.array(dirs), radius


@settings(max_examples=150)
@given(projection_rows())
def test_strategy_halfspace_properties(rows):
    """The halfspace at each exit point q of a reference point well inside
    its region (distance at most r/2 from the base):

    - supports the base (`strategy_halfspaces`): every vertex has
      w.v <= offset + 1e-9, and offset is support(w) to 1e-12;
    - q is at distance r to 1e-12 of its magnitude, and within
      PROJECTION_TOL / 2 of the bisection's point;
    - w.d >= 0: the distance is convex along the ray and at most r before
      the crossing, so its slope w.d there is at least (r - dist(p)) / t.
    """
    bases, p_ref, dirs, radius = rows
    qs, _ = project_rows(p_ref, dirs, bases, radius)
    for base, w, offset, d in zip(bases, *halfspaces_bitwise(qs, bases), dirs):
        assert np.all(base.vertices @ w <= offset + 1e-9)
        assert abs(offset - base.support(w)) <= 1e-12
        assert w @ d >= 0.0


def random_box_pair(rng):
    P = Polytope.from_box(rng.uniform(-1, 1, 2), *rng.uniform(0.05, 0.8, 2),
                          psi=rng.uniform(-4, 4))
    Q = Polytope.from_box(rng.uniform(-1, 1, 2) + rng.uniform(-2, 2, 2),
                          *rng.uniform(0.05, 0.8, 2), psi=rng.uniform(-4, 4))
    return P, Q


def test_distance_matches_qp_oracle():
    rng = np.random.default_rng(101)
    separated = 0
    for _ in range(250):
        P, Q = random_box_pair(rng)
        res = distance_witness(P, Q)
        d_qp, _, _, mult_p, mult_q = qp_distance_witness(P, Q)
        assert res.distance == pytest.approx(d_qp, abs=1e-8)
        if res.distance > 1e-6:
            separated += 1
            np.testing.assert_allclose(res.mult_p, mult_p, atol=1e-8)
            np.testing.assert_allclose(res.mult_q, mult_q, atol=1e-8)
            assert_witness_identities(P, Q, res)
    assert separated >= 200


def test_distance_only_equals_witness_distance_exactly():
    rng = np.random.default_rng(101)
    for _ in range(250):
        P, Q = random_box_pair(rng)
        assert min_translation_distance(P, Q) == distance_witness(P, Q).distance


def assert_box_distances_match(z_a, z_b, length, width):
    """box_distances against min_translation_distance on body polytopes."""
    z_a, z_b = np.atleast_2d(z_a), np.atleast_2d(z_b)
    got = box_distances(z_a, z_b, length, width)
    assert got.shape == (len(z_a),)
    want = [min_translation_distance(body_polytope(a, length, width),
                                     body_polytope(b, length, width))
            for a, b in zip(z_a, z_b)]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    return got


def test_box_distances_match_pairwise_distance_random():
    rng = np.random.default_rng(109)
    n = 400
    z_a = np.column_stack([rng.uniform(-1, 1, (n, 2)), rng.uniform(-4, 4, n)])
    z_b = np.column_stack([z_a[:, :2] + rng.uniform(-0.6, 0.6, (n, 2)), rng.uniform(-4, 4, n)])
    got = assert_box_distances_match(z_a, z_b, 0.36, 0.22)
    assert np.count_nonzero(got == 0.0) >= 40 and np.count_nonzero(got > 0.0) >= 200


def test_box_distances_contact_cases():
    length, width = 0.36, 0.22
    cases = [
        # Overlap: distance exactly 0.
        ([0.0, 0.0, 0.0], [0.1, 0.05, 0.7]),
        ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
        # Touching end to end, side by side, and corner to corner.
        ([0.0, 0.0, 0.0], [length, 0.0, 0.0]),
        ([0.0, 0.0, 0.0], [0.1, width, 0.0]),
        ([0.0, 0.0, 0.0], [length, width, 0.0]),
        # A corner of a rotated box on the other's end face.
        ([0.0, 0.0, 0.0], [0.5 * length + 0.5 * math.hypot(length, width),
                           0.0, math.atan2(width, length)]),
        # Gaps and overlaps inside the separating-axis tolerance read as contact.
        ([0.0, 0.0, 0.0], [length + 5e-10, 0.0, 0.0]),
        ([0.0, 0.0, 0.0], [length - 5e-10, 0.0, 0.0]),
        # Parallel and antiparallel facing faces, offset sideways.
        ([0.0, 0.0, 0.0], [length + 0.3, 0.05, 0.0]),
        ([0.0, 0.0, 0.0], [length + 0.3, 0.05, math.pi]),
        ([0.2, -0.1, 1.0], [0.2 - 0.5 * math.sin(1.0), -0.1 + 0.5 * math.cos(1.0), 1.0 + math.pi]),
    ]
    z_a = np.array([a for a, _ in cases])
    z_b = np.array([b for _, b in cases])
    got = assert_box_distances_match(z_a, z_b, length, width)
    assert np.all(got[:8] == 0.0)
    assert got[8] == pytest.approx(0.3, abs=1e-12)
    assert got[9] == pytest.approx(0.3, abs=1e-12)
    assert got[10] == pytest.approx(0.5 - width, abs=1e-12)


def test_box_distances_tiny_boxes():
    # Near the separating-axis tolerance (1e-9 m) and well above it.
    rng = np.random.default_rng(113)
    for length in (2e-9, 2e-6):
        z_a = np.column_stack([rng.uniform(-1, 1, (50, 2)), rng.uniform(-4, 4, 50)])
        z_b = np.column_stack([z_a[:, :2] + rng.uniform(-1.5 * length, 1.5 * length, (50, 2)),
                               rng.uniform(-4, 4, 50)])
        got = assert_box_distances_match(z_a, z_b, length, 0.5 * length)
        assert np.count_nonzero(got == 0.0) >= 10 and np.count_nonzero(got > 0.0) >= 10
    with pytest.raises(GeometryError):
        box_distances(z_a, z_b, 0.0, 0.1)


def test_multipliers_nonnegative_and_zero_off_active_faces():
    rng = np.random.default_rng(103)
    for _ in range(200):
        P, Q = random_box_pair(rng)
        res = distance_witness(P, Q)
        # The closest pair the multipliers were read off.
        p, q = _closest_pair(P.vertices.tolist(), Q.vertices.tolist())
        for poly, point, mult in ((P, p, res.mult_p), (Q, q, res.mult_q)):
            assert np.all(mult >= 0.0)
            slack = (poly.A @ point - poly.b) / np.linalg.norm(poly.A, axis=1)
            assert np.all(mult[slack < -1e-9] == 0.0)


def test_distance_parallel_edges():
    # Facing edges x = 0.5 and x = 2.0 overlap in y: the witness points are
    # not unique, the distance and the multipliers are.
    P = Polytope.from_box([0.0, 0.0], 0.5, 0.5)
    Q = Polytope.from_box([2.5, 0.3], 0.5, 0.4)
    res = distance_witness(P, Q)
    assert res.distance == pytest.approx(1.5, abs=1e-12)
    np.testing.assert_allclose(res.mult_p, [1.5, 0.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(res.mult_q, [0.0, 0.0, 1.5, 0.0], atol=1e-12)
    _, _, _, mult_p, mult_q = qp_distance_witness(P, Q)
    np.testing.assert_allclose(res.mult_p, mult_p, atol=1e-8)
    np.testing.assert_allclose(res.mult_q, mult_q, atol=1e-8)
    assert_witness_identities(P, Q, res)


def test_distance_vertex_against_vertex():
    # Corner (0.5, 0.5) faces corner (1.5, 1.5): the direction between them
    # lies strictly inside both corners' normal cones.
    P = Polytope.from_box([0.0, 0.0], 0.5, 0.5)
    Q = Polytope.from_box([2.0, 2.0], 0.5, 0.5)
    res = distance_witness(P, Q)
    assert res.distance == pytest.approx(math.sqrt(2.0), abs=1e-12)
    np.testing.assert_allclose(res.mult_p, [1.0, 1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(res.mult_q, [0.0, 0.0, 1.0, 1.0], atol=1e-12)
    assert_witness_identities(P, Q, res)


def test_distance_touching_boxes():
    P = Polytope.from_box([0.0, 0.0], 1.0, 1.0)
    for Q in (Polytope.from_box([2.0, 0.5], 1.0, 1.0),  # shared edge segment
              Polytope.from_box([2.0, 2.0], 1.0, 1.0)):  # shared corner
        res = distance_witness(P, Q)
        assert res.distance == 0.0
        assert np.all(res.mult_p == 0.0) and np.all(res.mult_q == 0.0)


def test_distance_containment_and_crossing_overlap():
    big = Polytope.from_box([0.1, -0.2], 2.0, 1.5, psi=0.3)
    small = Polytope.from_box([0.3, 0.0], 0.2, 0.1, psi=-1.1)
    bar = Polytope.from_box([0.0, 0.0], 2.0, 0.2)
    post = Polytope.from_box([0.0, 0.0], 0.2, 2.0, psi=0.05)  # no corner inside the bar
    for P, Q in ((big, small), (small, big), (bar, post)):
        res = distance_witness(P, Q)
        assert res.distance == 0.0
        assert np.all(res.mult_p == 0.0) and np.all(res.mult_q == 0.0)


def test_distance_tiny_box():
    # All four faces of a 1e-9 box are active at its witness point, opposite
    # faces included; the multipliers must come from two adjacent ones.
    Q = Polytope.from_box([0.0, 0.0], 1.0, 0.5)
    for center, psi in (([3.0, 0.0], 0.0), ([3.0, 0.4], 0.3), ([2.0, 1.5], 0.0),
                        ([0.2, -1.7], math.pi / 4)):
        P = Polytope.from_box(center, 1e-9, 1e-9, psi=psi)
        res = distance_witness(P, Q)
        assert res.distance == pytest.approx(point_polytope_distance(center, Q), abs=2e-9)
        assert_witness_identities(P, Q, res)
        assert np.all(res.mult_p >= 0.0) and np.count_nonzero(res.mult_p) <= 2


def test_box_corners_match_face_intersection():
    rng = np.random.default_rng(107)
    for _ in range(50):
        P = Polytope.from_box(rng.uniform(-2, 2, 2), *rng.uniform(0.05, 1.0, 2),
                              psi=rng.uniform(-7, 7))
        # The same box from its faces alone: vertices by face intersection.
        np.testing.assert_allclose(P.vertices, face_intersection_vertices(P.A, P.b), atol=1e-12)

