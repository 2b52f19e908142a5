"""Geometry tests.

Oracles: grid sampling for polytope distances, the distance as a convex QP
(the formulation the closed-form routine replaced), direct corner
enumeration for body boxes, and analytic results for axis-aligned and
named contact cases.  The closed-form distance must agree with the sampling
oracle to grid resolution, with the QP to 1e-8 in distance and multipliers,
and satisfy the witness/multiplier identities.
"""

import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from tightnav.geometry import (
    CriticalRegion,
    GeometryError,
    Halfspace,
    Polytope,
    body_polytope,
    box_distances,
    distance_witness,
    min_translation_distance,
    point_polytope_distance,
    polytopes_intersect,
    project_to_critical_boundary,
    rotation_matrix,
    strategy_halfspace,
)
from tightnav.qp import solve_qp


def grid_points(poly: Polytope, n: int = 45) -> np.ndarray:
    verts = poly.vertices()
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
    verts = poly.vertices()
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
    diff = res.point_p - res.point_q
    np.testing.assert_allclose(-P.A.T @ res.mult_p, diff, atol=atol)
    np.testing.assert_allclose(Q.A.T @ res.mult_q, diff, atol=atol)
    assert res.distance == pytest.approx(np.linalg.norm(diff), abs=atol)
    assert P.contains(res.point_p, tol=atol) and Q.contains(res.point_q, tol=atol)


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
        verts = poly.vertices()
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
        Pt = Polytope(P.A, P.b + P.A @ t)
        Qt = Polytope(Q.A, Q.b + Q.A @ t)
        assert abs(min_translation_distance(Pt, Qt) - d1) < 1e-6


def test_distance_witness_identities():
    rng = np.random.default_rng(17)
    for _ in range(15):
        P = Polytope.from_box(rng.uniform(-1, 1, 2), 0.4, 0.3, rng.uniform(-3, 3))
        Q = Polytope.from_box(rng.uniform(-1, 1, 2) + 2.0, 0.3, 0.5, rng.uniform(-3, 3))
        res = distance_witness(P, Q)
        if res.distance < 1e-8:
            continue
        diff = res.point_p - res.point_q
        np.testing.assert_allclose(-P.A.T @ res.mult_p, diff, atol=1e-7)
        np.testing.assert_allclose(Q.A.T @ res.mult_q, diff, atol=1e-7)
        assert P.contains(res.point_p, tol=1e-7)
        assert Q.contains(res.point_q, tol=1e-7)


def test_empty_polytope_raises():
    empty = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                     np.array([-2.0, 1.0, 0.0]))
    box = Polytope.from_box([0, 0], 1, 1)
    with pytest.raises(GeometryError):
        min_translation_distance(empty, box)
    with pytest.raises(GeometryError):
        empty.vertices()


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
        d_fast = point_polytope_distance(p, poly)
        tiny = Polytope.from_box(p, 1e-9, 1e-9)
        d_qp = min_translation_distance(tiny, poly)
        assert abs(d_fast - d_qp) < 1e-6


def test_projection_box_example():
    # Box [-2,2]x[-1,1] dilated by 1; from the origin straight up -> (0, 2).
    base = Polytope.from_box([0, 0], 2.0, 1.0)
    region = CriticalRegion(base, 1.0)
    q = project_to_critical_boundary([0.0, 0.0], region, [0.0, 1.0])
    np.testing.assert_allclose(q, [0.0, 2.0], atol=1e-5)
    # Residual check: the projected point sits on the dilated boundary.
    assert abs(point_polytope_distance(q, base) - region.radius) < 1e-5


def test_projection_random_residuals():
    rng = np.random.default_rng(31)
    base = Polytope.from_box([0.5, 0.2], 0.8, 0.5, psi=0.4)
    region = CriticalRegion(base, 0.35)
    for _ in range(20):
        p = np.asarray([0.5, 0.2]) + rng.uniform(-0.3, 0.3, 2)
        if not region.contains(p):
            continue
        theta = rng.uniform(0, 2 * math.pi)
        q = project_to_critical_boundary(p, region, [math.cos(theta), math.sin(theta)])
        assert abs(point_polytope_distance(q, base) - region.radius) < 1e-5


def test_projection_requires_inside_point():
    region = CriticalRegion(Polytope.from_box([0, 0], 1, 1), 0.5)
    with pytest.raises(GeometryError):
        project_to_critical_boundary([5.0, 0.0], region, [0.0, 1.0])


def test_strategy_halfspace_flat_face():
    base = Polytope.from_box([0, 0], 1.0, 1.0)
    region = CriticalRegion(base, 1.0)
    hs = strategy_halfspace([0.0, 2.0], region)
    np.testing.assert_allclose(hs.w, [0.0, 1.0], atol=1e-9)
    assert abs(hs.offset - 1.0) < 1e-9
    # Supporting property: every base vertex on or below the plane.
    for v in base.vertices():
        assert hs.w @ v <= hs.offset + 1e-9


def test_strategy_halfspace_vertex_tiebreak():
    # Boundary point off the corner: normal is the diagonal direction.
    base = Polytope.from_box([0, 0], 1.0, 1.0)
    region = CriticalRegion(base, 1.0)
    s = 1.0 / math.sqrt(2.0)
    hs = strategy_halfspace([1.0 + s, 1.0 + s], region)
    np.testing.assert_allclose(hs.w, [s, s], atol=1e-6)
    assert abs(hs.offset - base.support(hs.w)) < 1e-12
    for v in base.vertices():
        assert hs.w @ v <= hs.offset + 1e-9


def test_strategy_halfspace_supporting_property_random():
    rng = np.random.default_rng(41)
    base = Polytope.from_box([0.2, -0.1], 0.7, 0.45, psi=0.6)
    region = CriticalRegion(base, 0.3)
    for _ in range(25):
        theta = rng.uniform(0, 2 * math.pi)
        d = np.array([math.cos(theta), math.sin(theta)])
        q = project_to_critical_boundary([0.2, -0.1], region, d)
        hs = strategy_halfspace(q, region)
        support = max(hs.w @ v for v in base.vertices())
        assert abs(hs.offset - support) < 1e-9
        # q itself is on the constraint boundary up to projection tolerance.
        assert abs(hs.w @ q - hs.offset - region.radius) < 2e-5


def test_halfspace_normalization_and_violation():
    hs = Halfspace([0.0, 2.0], 4.0)
    np.testing.assert_allclose(hs.w, [0.0, 1.0])
    assert abs(hs.offset - 2.0) < 1e-15
    assert hs.violation([0.0, 1.0]) == pytest.approx(1.0)
    assert hs.violation([0.0, 3.0]) == pytest.approx(-1.0)


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
        for poly, point, mult in ((P, res.point_p, res.mult_p), (Q, res.point_q, res.mult_q)):
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
    assert res.point_p[0] == pytest.approx(0.5, abs=1e-12)
    assert res.point_q[0] == pytest.approx(2.0, abs=1e-12)
    assert -0.1 - 1e-12 <= res.point_p[1] <= 0.5 + 1e-12
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
    np.testing.assert_allclose(res.point_p, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(res.point_q, [1.5, 1.5], atol=1e-12)
    np.testing.assert_allclose(res.mult_p, [1.0, 1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(res.mult_q, [0.0, 0.0, 1.0, 1.0], atol=1e-12)
    assert_witness_identities(P, Q, res)


def test_distance_touching_boxes():
    P = Polytope.from_box([0.0, 0.0], 1.0, 1.0)
    for Q in (Polytope.from_box([2.0, 0.5], 1.0, 1.0),  # shared edge segment
              Polytope.from_box([2.0, 2.0], 1.0, 1.0)):  # shared corner
        res = distance_witness(P, Q)
        assert res.distance == 0.0
        np.testing.assert_array_equal(res.point_p, res.point_q)
        assert P.contains(res.point_p) and Q.contains(res.point_q)
        assert np.all(res.mult_p == 0.0) and np.all(res.mult_q == 0.0)


def test_distance_containment_and_crossing_overlap():
    big = Polytope.from_box([0.1, -0.2], 2.0, 1.5, psi=0.3)
    small = Polytope.from_box([0.3, 0.0], 0.2, 0.1, psi=-1.1)
    bar = Polytope.from_box([0.0, 0.0], 2.0, 0.2)
    post = Polytope.from_box([0.0, 0.0], 0.2, 2.0, psi=0.05)  # no corner inside the bar
    for P, Q in ((big, small), (small, big), (bar, post)):
        res = distance_witness(P, Q)
        assert res.distance == 0.0
        np.testing.assert_array_equal(res.point_p, res.point_q)
        assert P.contains(res.point_p) and Q.contains(res.point_q)
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
        np.testing.assert_allclose(P.vertices(), Polytope(P.A, P.b).vertices(), atol=1e-12)

