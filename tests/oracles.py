"""Retired routines, kept as oracles for their replacements.

- `face_intersection_vertices` enumerates a polygon's vertices from its faces
  alone; `Polytope.from_box` must supply the same corners.
- `point_polytope_projection` measures a point against each edge with numpy
  dot products, and `strategy_halfspace_per_edge` builds the supporting
  halfspace from those candidates; the batched edge routine behind
  `geometry.point_polytope_distances` and `geometry.strategy_halfspaces`
  must agree with them.
- `project_one` bisects a single ray and `project_by_bisection` bisects many
  at once; `geometry.project_to_critical_boundary`, which computes each
  exit in closed form, must land within PROJECTION_TOL / 2 of them.
- `strategy_halfspace` supports one polygon at one boundary point, as a
  unit normal and offset (`unit_halfspace`);
  `geometry.strategy_halfspaces`, which supports many at once, must return
  the same bits.  `strategy_constraints_per_stage` screens, projects and
  builds the halfspace of one horizon stage at a time, by the closed-form
  exit or by bisection; `obca.generate_strategy_constraints` must return
  the same bits as the former.
- `convexify_whole` tests the Lagrangian Hessian for definiteness and flips
  its eigenvalues as one n x n matrix; `nlp._convexify`, which works per
  declared block, must take the same path and return the same matrix.
  `block_stacks` gathers a matrix's diagonal blocks into the stacks of
  `NlpProblem.lag_hess`, and `scatter_blocks` writes stacks back into an
  n x n matrix.
- `condense_dense` condenses the states out of an SQP subproblem through
  the whole n x n Hessian (S' B[:k], B[:, :k] s0 and B[:k] p as dense
  products); `nlp._solve_subproblem`, which multiplies block by block,
  must hand the QP the same data and recover the same step and state
  multipliers.
- `step_lag_hess_dense` builds a step NLP's Lagrangian Hessian as one
  n x n matrix from the objective's, with the body rotations of
  `rotations_t_stacked`; `obca._StepNlp.lag_hess`, which fills the blocks'
  stacks through flat indices, and `obca._rotations_t` must give the same
  bits.
- `step_eq_dense` evaluates a step NLP's equality rows, the dynamics then
  each pair's dual stationarity rows, as one dense (4N + 2P) x n Jacobian,
  as the step NLP's `eq` once did; `obca._StepNlp.dynamics`, which returns
  the dynamics rows' stage blocks (A_t, B_t), and `_StepNlp.eq`, which
  returns the stationarity rows alone, must give the same bits once the
  blocks are scattered by `dynamics_rows_dense`, the dense form of the
  (A, B) stacks of `nlp.NlpProblem.stages`.
- `drop_row_givens` removes a QP working-set member with one pure-Python
  Givens rotation per column after it; `qp._drop_row`, which leaves the
  rotations to compiled code, must reach the same |R|.
- `continuous_derivative` and `step_rk4_array` are the RK4 step on numpy
  4-vectors, one derivative call per stage; `dynamics.step_rk4`, which runs
  on Python floats, must return the same bytes.
- `nearest_ref_index` finds the reference point nearest the vehicle with
  numpy; `supervisor._pursuit_steering`'s scalar walk must start there.
- `safety_speed_target_every_pose` measures every predicted TV pose;
  `supervisor.safety_speed_target`, which skips a pose equal to the one
  before it, must return the same cap.
- `inverse_dynamics_residual` fits a bounded input to every state pair of a
  trajectory; synthesized target-vehicle maneuvers must score near zero.
- `padded_tv_states` copies a TV trajectory and pads it with its final pose
  to a run's length; `Scenario.tv_window` and `Scenario.tv_from`, which
  clamp the index instead, must read the same states.
- `padded_environment_steps` builds one body polytope per padded TV pose of
  a run plus the walls, `window_steps` pads a slice of those with the last
  step, `stacked_faces` stacks each polytope's faces, and
  `encode_features_per_polytope` flattens the obstacles one by one;
  `Scenario.environment`, whose encoding holds the last TV pose by clamping
  and slices each window from one face stack, must give the same bits.
- `clearance_twice` audits each obstacle with the separating-axis test and
  then `min_translation_distance`, which runs the test again;
  `simulate._clearance` must return the same (hit, distance).
- `face_certificates_full` forms every (stage, obstacle) pair's best-face
  certificate as full (lam, mu) arrays; `obca._face_certificates` returns
  the values and what one pair's certificate needs, and `obca._certificate`
  of a pair must give that pair's (lam, mu) bits.
- `engage_seeding_every_candidate` measures every candidate pair of a step
  with `obca._seed_duals` before it decides the pair's engagement;
  `ObcaController.solve_step`, which engages a carried pair near the
  reference without measuring it, must engage the same pairs from the same
  (lam, mu).
"""

import math

import numpy as np
from scipy.optimize import least_squares

from tightnav.dynamics import (
    A_MAX,
    DELTA_MAX,
    L_R,
    LENGTH,
    WHEELBASE,
    WIDTH,
    slip_angle,
    step_jacobians,
    step_rk4,
)
from tightnav.geometry import (
    PROJECTION_TOL,
    GeometryError,
    Polytope,
    _closest_on_edges,
    body_polytope,
    min_translation_distance,
    point_polytope_distances,
    polytopes_intersect,
    project_to_critical_boundary,
)
from scipy.linalg import solve_triangular

from tightnav.obca import (
    BODY_G,
    BODY_H,
    DUAL_REG,
    ENGAGE_DIST,
    Q_D,
    Q_U,
    Q_Z,
    StrategyLabel,
    _face_certificates,
    _seed_duals,
)
from tightnav.qp import bound_rows, solve_qp
from tightnav.scenario import DT, LOT
from tightnav.supervisor import (
    BRAKE_HEADROOM,
    CORRIDOR_SLACK,
    K_BRAKE,
    MANEUVER_ANGLE,
    MANEUVER_MARGIN,
    _tv_extent_along,
)

# Edges shorter than the square root of this project every point to their start.
DEGENERATE_EDGE = 1e-16
# Bisection to the critical boundary: the initial bracket beyond 4 radii (a
# lane width at desk scale) and the most times it doubles.
BRACKET_HINT = 0.9
MAX_DOUBLINGS = 40


def face_intersection_vertices(A, b) -> np.ndarray:
    """Vertices of {p : A p <= b} by pairwise face intersection, ordered
    counterclockwise by angle about their mean."""
    A, b = np.asarray(A, float), np.asarray(b, float)
    m = A.shape[0]
    pts = []
    for i in range(m):
        for j in range(i + 1, m):
            M = A[[i, j]]
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            if abs(det) < 1e-12:
                continue
            p = np.linalg.solve(M, b[[i, j]])
            if np.all(A @ p - b <= 1e-8):
                pts.append(p)
    if not pts:
        raise GeometryError("polytope has no vertices (empty or degenerate)")
    pts = np.array(pts)
    keep: list[int] = []
    for i in range(len(pts)):
        if not any(np.linalg.norm(pts[i] - pts[k]) < 1e-9 for k in keep):
            keep.append(i)
    uniq = pts[keep]
    centroid = uniq.mean(axis=0)
    order = np.argsort(np.arctan2(uniq[:, 1] - centroid[1], uniq[:, 0] - centroid[0]))
    return uniq[order]


def _point_segment_closest(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom < DEGENERATE_EDGE else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return a + t * ab


def point_polytope_projection(p, poly: Polytope):
    """(distance, closest point, per-edge candidates) for a point.

    Inside the polytope the distance is 0 and the point projects to itself;
    candidates are (distance, closest point) per edge v_i -> v_(i+1).
    """
    p = np.asarray(p, dtype=float)
    if poly.contains(p):
        return 0.0, p.copy(), []
    verts = poly.vertices
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


def unit_halfspace(w, offset):
    """(w, offset) of w . p >= offset divided by the computed norm of w."""
    nrm = np.linalg.norm(w)
    return w / nrm, float(offset) / nrm


def strategy_halfspace_per_edge(q_boundary, base: Polytope):
    """`strategy_halfspace` on `point_polytope_projection`'s candidates."""
    q = np.asarray(q_boundary, dtype=float)
    dist, _, cands = point_polytope_projection(q, base)
    if dist < 1e-9:
        raise GeometryError("boundary point lies inside the base polytope")
    normals = []
    for cd, cp in cands:
        if cd <= dist + 1e-9:
            nrm = (q - cp) / cd
            if not any(np.linalg.norm(nrm - s) < 1e-9 for s in normals):
                normals.append(nrm)
    w = np.mean(normals, axis=0)
    wn = np.linalg.norm(w)
    if wn < 1e-12:
        raise GeometryError("degenerate averaged normal")
    w = w / wn
    return unit_halfspace(w, base.support(w))


def project_one(p_ref, base: Polytope, radius: float, direction) -> np.ndarray:
    """Smallest t >= 0 with dist(p_ref + t*d, base) = radius, via bisection.

    p_ref must lie inside the region.  The initial bracket upper end is
    4*radius + BRACKET_HINT (a lane width at desk scale) and grows
    geometrically until the boundary crossing is bracketed; bisection stops
    once the bracket is narrower than PROJECTION_TOL.
    """
    p_ref = np.asarray(p_ref, dtype=float)
    d = np.asarray(direction, dtype=float)
    nd = np.linalg.norm(d)
    if nd < 1e-12:
        raise GeometryError("projection direction must be nonzero")
    d = d / nd

    def g(t):
        return point_polytope_distance(p_ref + t * d, base) - radius

    if g(0.0) > PROJECTION_TOL:
        raise GeometryError("reference point is outside the critical region")
    t_hi = 4.0 * radius + BRACKET_HINT
    expansions = 0
    while g(t_hi) <= 0.0:
        t_hi *= 2.0
        expansions += 1
        if expansions > MAX_DOUBLINGS:
            raise GeometryError("no boundary crossing along projection ray")
    t_lo = 0.0
    while t_hi - t_lo > PROJECTION_TOL:
        mid = 0.5 * (t_lo + t_hi)
        if g(mid) <= 0.0:
            t_lo = mid
        else:
            t_hi = mid
    return p_ref + 0.5 * (t_lo + t_hi) * d


def project_by_bisection(p_ref, d, verts, A, b, radius: float):
    """Where K rays leave their critical regions, by bisection:
    (points (K, 2), ok (K,)).

    Row k finds the smallest t >= 0 with dist(p_ref[k] + t d[k], poly_k) =
    radius by bisection on the sign of g(t) = dist - radius; d (K, 2) holds
    unit directions.  The bracket's upper end starts at 4 radius +
    BRACKET_HINT and doubles, at most MAX_DOUBLINGS times, until g > 0
    there; a row still inside after that gets ok False and a NaN point.
    Bisection keeps the half with g(t_lo) <= 0 and stops, row by row, once
    the bracket is no wider than PROJECTION_TOL or its midpoint rounds to
    one of its ends (a crossing beyond about 4e9, where one ulp of t exceeds
    PROJECTION_TOL); the point returned is at the bracket's midpoint.
    Raises GeometryError when a reference point lies outside its region.
    """
    p_ref, d = np.asarray(p_ref, float), np.asarray(d, float)

    def g(t):
        return point_polytope_distances(p_ref + t[:, None] * d, verts, A, b) - radius

    t_lo = np.zeros(len(p_ref))
    if np.any(g(t_lo) > PROJECTION_TOL):
        raise GeometryError("reference point is outside the critical region")
    t_hi = np.full(len(p_ref), 4.0 * radius + BRACKET_HINT)
    short = g(t_hi) <= 0.0
    for _ in range(MAX_DOUBLINGS):
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


def strategy_halfspace(q_boundary, base: Polytope):
    """Supporting hyperplane w . p >= offset of the base polytope at one
    boundary point: (w (2,), offset).

    The outward normal is (q - closest base point) / distance; when q is
    equidistant (within 1e-9) from several edges the distinct candidate
    normals are averaged and renormalized.  The offset is the base support
    value; both are divided once more by the normal's computed norm
    (`unit_halfspace`).  Raises GeometryError when q lies inside the base
    or within 1e-9 of it.
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
    return unit_halfspace(w, base.support(w))


def exit_one(p_ref, base: Polytope, radius: float, direction) -> np.ndarray:
    """`geometry.project_to_critical_boundary` on one row."""
    p_ref = np.asarray(p_ref, float)[None]
    verts, A, b = base.vertices[None], base.A[None], base.b[None]
    return project_to_critical_boundary(p_ref, np.asarray(direction, float)[None],
                                        verts, A, b, radius,
                                        point_polytope_distances(p_ref, verts, A, b))[0]


def strategy_constraints_per_stage(strategy, ref, env, r_ev: float, project=exit_one):
    """(stages (S,), w (S, 2), offset (S,)) for a pass strategy, one stage
    at a time.

    Stage t reads the TV at env.tv(t), which holds the last step past the
    end.  `project` finds the boundary point: the closed-form exit or
    `project_one`'s bisection.  A stage whose halfspace raises raises.
    """
    strategy = StrategyLabel(strategy)
    ref = np.asarray(ref, float)
    stages, ws, offsets = [], [], []
    for t in range(len(ref)):
        base = env.tv(t)
        p_ref = ref[t, :2]
        if not point_polytope_distance(p_ref, base) <= r_ev + 1e-9:
            continue
        psi = float(ref[t, 2])
        direction = np.array([-math.sin(psi), math.cos(psi)])
        direction /= np.linalg.norm(direction)
        if strategy == StrategyLabel.PASS_RIGHT:
            direction = -direction
        w, offset = strategy_halfspace(project(p_ref, base, r_ev, direction), base)
        stages.append(t)
        ws.append(w)
        offsets.append(offset)
    return np.array(stages, dtype=int), np.reshape(ws, (-1, 2)), np.array(offsets)


def convexify_whole(h: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    """Positive-definite model of h: h + floor I if an n x n Cholesky
    factorization passes, else h with its eigenvalues replaced by their
    magnitudes, floored at `floor`."""
    h = 0.5 * (h + h.T)
    b = h + floor * np.eye(h.shape[0])
    try:
        np.linalg.cholesky(b)
        return b
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(h)
    w = np.maximum(np.abs(w), floor)
    return (v * w) @ v.T


def block_stacks(h, groups):
    """The stacks of h's diagonal blocks, one (blocks, size, size) array
    per index array of `groups` (`nlp.block_groups`)."""
    return [h[ix[:, :, None], ix[:, None, :]] for ix in groups]


def scatter_blocks(pairs, n):
    """The n x n matrix whose diagonal blocks are the stacks of the
    (index array, stack, ...) tuples, zero elsewhere."""
    h = np.zeros((n, n))
    for ix, part, *_ in pairs:
        h[ix[:, :, None], ix[:, None, :]] = part
    return h


def condense_dense(B, g, Je, ce, Ji, ci, lb, ub, k, warm, solve=solve_qp):
    """The SQP subproblem min 0.5 p'Bp + g'p s.t. Je p = -ce, Ji p <= -ci,
    lb <= p <= ub with the first k components condensed out through the
    first k rows, B a whole n x n matrix; `solve` takes the QP."""
    if not k:
        return solve(B, g, Ji, -ci, Je, -ce, warm_rows=warm, lb=lb, ub=ub)
    e = Je[:k, :k]
    cols = np.flatnonzero(np.any(Je[:k, k:], axis=0))
    s_s0 = -solve_triangular(e, np.column_stack([Je[:k, k + cols], ce[:k]]),
                             lower=True, unit_diagonal=True, check_finite=False)
    S, s0 = s_s0[:, :-1], s_s0[:, -1]
    sb = S.T @ B[:k]
    H = B[k:, k:].copy()
    H[cols] += sb[:, k:]
    H[:, cols] += sb[:, k:].T
    H[np.ix_(cols, cols)] += sb[:, :k] @ S
    v = g + B[:, :k] @ s0
    f = v[k:].copy()
    f[cols] += S.T @ v[:k]

    def eliminate(J, c):
        red, rhs = J[:, k:].copy(), -c
        rows = np.flatnonzero(np.any(J[:, :k], axis=1))
        if len(rows):
            js = J[rows, :k]
            red[np.ix_(rows, cols)] += js @ S
            rhs[rows] -= js @ s0
        return red, rhs

    A, b = eliminate(Ji, ci)
    C, d = eliminate(Je[k:], ce[k:])
    var, sign, rhs = bound_rows(lb, ub)
    state = np.s_[: np.searchsorted(var, k)]
    s_var, s_sign = var[state], sign[state]
    rows = np.zeros((len(s_var), len(f)))
    rows[:, cols] = s_sign[:, None] * S[s_var]
    A = np.vstack([A, rows])
    b = np.concatenate([b, rhs[state] - s_sign * s0[s_var]])
    sol = solve(H, f, A, b, C, d, warm_rows=warm, lb=lb[k:], ub=ub[k:])
    p = np.concatenate([s0 + S @ sol.x[cols], sol.x])
    m_u = len(ci)
    r_s = B[:k] @ p + g[:k] + Ji[:, :k].T @ sol.lam[:m_u] + Je[k:, :k].T @ sol.nu
    r_s += np.bincount(s_var, s_sign * sol.lam[m_u : m_u + len(s_var)], minlength=k)
    nu_s = -solve_triangular(e, r_s, trans="T", lower=True, unit_diagonal=True,
                             check_finite=False)
    sol.x = p
    sol.nu = np.concatenate([nu_s, sol.nu])
    return sol


def rotations_t_stacked(psi):
    """(R', dR'/dpsi), each (P, 2, 2), of the body rotations at headings psi."""
    c, s = np.cos(psi), np.sin(psi)
    rot_t = np.stack([np.stack([c, s], axis=1), np.stack([-s, c], axis=1)], axis=1)
    drot_t = np.stack([np.stack([-s, c], axis=1), np.stack([-c, -s], axis=1)], axis=1)
    return rot_t, drot_t


def step_lag_hess_dense(nlp, x, nu, lam_rows):
    """The Lagrangian Hessian of the step NLP `nlp` (`obca._StepNlp`) as one
    n x n matrix: the exact objective Hessian, the dual block's ridge and
    the pairs' curvature, the dynamics rows Gauss-Newton."""
    n_h, nz, nuv, n = nlp.cfg.horizon, nlp.nz, nlp.nuv, nlp.n
    diag = np.full(n, 2.0 * DUAL_REG)
    diag[:nz] = np.tile(2.0 * Q_Z, n_h)
    u_diag = diag[nz : nz + nuv]
    u_diag[:] = np.tile(2.0 * Q_U + 2.0 * Q_D, n_h)
    u_diag[:-2] += np.tile(2.0 * Q_D, n_h - 1)
    h = np.diag(diag)
    rate = np.arange(nz, nz + nuv - 2)
    h[rate, rate + 2] = h[rate + 2, rate] = np.tile(-2.0 * Q_D, n_h - 1)
    n_pairs = len(nlp.pairs)
    if not n_pairs:
        return h
    a_mat = nlp.obs_a
    a_t = a_mat.transpose(0, 2, 1)
    pos, lam_c, psi_c = nlp.pos_cols, nlp.lam_cols, nlp.psi_cols
    sig = lam_rows[:n_pairs, None, None]
    h[pos[:, :, None], lam_c[:, None, :]] -= sig * a_t
    h[lam_c[:, :, None], pos[:, None, :]] -= sig * a_mat
    eta = lam_rows[n_pairs : 2 * n_pairs, None, None]
    h[lam_c[:, :, None], lam_c[:, None, :]] += 2.0 * eta * (a_mat @ a_t)
    nu_p = nu[nz:].reshape(n_pairs, 1, 2)
    rot_t, drot_t = rotations_t_stacked(x[psi_c])
    atl = a_t @ x[lam_c][:, :, None]
    np.add.at(h, (psi_c, psi_c), (nu_p @ -(rot_t @ atl))[:, 0, 0])
    cross = ((nu_p @ drot_t) @ a_t)[:, 0]
    h[psi_c[:, None], lam_c] += cross
    h[lam_c, psi_c[:, None]] += cross
    return h


def dynamics_rows_dense(stages, A, B, n):
    """The dynamics rows of `nlp.NlpProblem.stages` = (N, nx, nu) with
    stacks A and B as dense (N nx) x n rows: I on z_{t+1}, -A_t on z_t and
    -B_t on u_t, one stage at a time."""
    N, nx, nu = stages
    k = N * nx
    rows = np.zeros((k, n))
    for t in range(N):
        r = slice(nx * t, nx * (t + 1))
        rows[r, nx * t : nx * (t + 1)] = np.eye(nx)
        if t:
            rows[r, nx * (t - 1) : nx * t] = -A[t - 1]
        rows[r, k + nu * t : k + nu * (t + 1)] = -B[t]
    return rows


def step_eq_dense(nlp, x):
    """(values, Jacobian) of the equality rows of the step NLP `nlp`
    (`obca._StepNlp`): the dynamics rows z_{t+1} - f(z_t, u_t), then each
    pair's two dual stationarity rows, the Jacobian one dense matrix."""
    n_h, nz, nuv, n = nlp.cfg.horizon, nlp.nz, nlp.nuv, nlp.n
    n_pairs = len(nlp.pairs)
    zs = x[:nz].reshape(n_h, 4)
    us = x[nz : nz + nuv].reshape(n_h, 2)
    pred, jz, ju = step_jacobians(np.vstack([nlp.z0[None, :], zs[:-1]]), us, DT)
    vals = np.zeros(nz + 2 * n_pairs)
    vals[:nz] = (zs - pred).ravel()
    jac = np.zeros((nz + 2 * n_pairs, n))
    jac[:nz] = dynamics_rows_dense((n_h, 4, 2), jz[1:], ju, n)
    if n_pairs:
        rows = nz + 2 * np.arange(n_pairs)[:, None] + np.arange(2)
        a_t = nlp.obs_a.transpose(0, 2, 1)
        rot_t, drot_t = rotations_t_stacked(x[nlp.psi_cols])
        atl = a_t @ x[nlp.lam_cols][:, :, None]
        vals[rows] = x[nlp.mu_cols] @ BODY_G + (rot_t @ atl)[:, :, 0]
        jac[rows[:, :, None], nlp.mu_cols[:, None, :]] = BODY_G.T
        jac[rows, nlp.psi_cols[:, None]] = (drot_t @ atl)[:, :, 0]
        jac[rows[:, :, None], nlp.lam_cols[:, None, :]] = rot_t @ a_t
    return vals, jac


def drop_row_givens(JT, R, q, pos):
    """Remove working-set member `pos` of q; Givens rotations restore R."""
    R[:, pos : q - 1] = R[:, pos + 1 : q]
    R[:, q - 1] = 0.0
    for jj in range(pos, q - 1):
        r = np.hypot(R[jj, jj], R[jj + 1, jj])
        if r <= 0.0:
            continue
        cs, sn = R[jj, jj] / r, R[jj + 1, jj] / r
        if sn != 0.0:
            rows = R[jj : jj + 2, jj : q - 1].copy()
            R[jj, jj : q - 1] = cs * rows[0] + sn * rows[1]
            R[jj + 1, jj : q - 1] = -sn * rows[0] + cs * rows[1]
            jrows = JT[jj : jj + 2].copy()
            JT[jj] = cs * jrows[0] + sn * jrows[1]
            JT[jj + 1] = -sn * jrows[0] + cs * jrows[1]
    R[q - 1 :, :] = 0.0


def continuous_derivative(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Time derivative of the state under the kinematic bicycle model."""
    psi, v = z[2], z[3]
    beta = slip_angle(u[0])
    c = math.cos(psi + beta)
    s = math.sin(psi + beta)
    return np.array([v * c, v * s, v / L_R * math.sin(beta), u[1]])


def step_rk4_array(z: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of duration dt with zero-order-hold input."""
    k1 = continuous_derivative(z, u)
    k2 = continuous_derivative(z + 0.5 * dt * k1, u)
    k3 = continuous_derivative(z + 0.5 * dt * k2, u)
    k4 = continuous_derivative(z + dt * k3, u)
    return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def nearest_ref_index(ref: np.ndarray, p: np.ndarray) -> int:
    d = ref[:, 0] - p[0]
    e = ref[:, 1] - p[1]
    return int(np.argmin(d * d + e * e))


def safety_speed_target_every_pose(z_ev, tv_prediction, config, v_ref: float) -> float:
    """`supervisor.safety_speed_target` measuring every predicted pose."""
    d_min = config.d_min
    z = np.asarray(z_ev, float).ravel()
    tv = np.asarray(tv_prediction, float)
    tv0 = tv[0]
    c, s = math.cos(z[2]), math.sin(z[2])
    corridor_half = 0.5 * WIDTH + CORRIDOR_SLACK + 2.0 * d_min

    def _pose_geometry(tvt):
        dxt, dyt = float(tvt[0]) - z[0], float(tvt[1]) - z[1]
        longi_t = c * dxt + s * dyt
        lat_t = -s * dxt + c * dyt
        lat_extent_t = _tv_extent_along(z[2] + 0.5 * math.pi, float(tvt[2]))
        in_corridor = longi_t > 0.0 and abs(lat_t) <= corridor_half + lat_extent_t
        return longi_t, in_corridor

    def _standoff(tvt):
        out = 0.5 * LENGTH + _tv_extent_along(z[2], float(tvt[2])) + 3.0 * d_min
        rel = math.atan2(math.sin(float(tvt[2]) - z[2]), math.cos(float(tvt[2]) - z[2]))
        if abs(rel) > MANEUVER_ANGLE:
            out += MANEUVER_MARGIN
        return out

    longi_now, blocked_now = _pose_geometry(tv0)
    if not blocked_now:
        return v_ref
    s_free = longi_now - _standoff(tv0)
    for tvt in tv[1:]:
        longi_t, in_corridor = _pose_geometry(tvt)
        if not in_corridor or longi_t > longi_now + 1e-9:
            continue
        s_free = min(s_free, longi_t - _standoff(tvt))
    s_free = max(0.0, s_free)
    a_eff = BRAKE_HEADROOM * A_MAX
    k = K_BRAKE
    v_allow = (a_eff / k) * (math.sqrt(1.0 + 2.0 * k * k * s_free / a_eff) - 1.0)
    v_long_tv = float(tv0[3]) * math.cos(float(tv0[2]) - z[2])
    return max(0.0, min(v_ref, v_long_tv + v_allow))


def inverse_dynamics_residual(traj: np.ndarray, dt: float = DT) -> float:
    """Worst one-step defect against the best-fitting bounded input.

    For each consecutive state pair the acceleration follows exactly from
    the speed change; the steering angle is recovered from the heading rate
    and then polished by a bounded least-squares fit, so a trajectory
    produced by any bounded-input RK4 integration scores near zero.
    """
    traj = np.asarray(traj, float)
    worst = 0.0
    for t in range(len(traj) - 1):
        z0, z1 = traj[t], traj[t + 1]
        a0 = np.clip((z1[3] - z0[3]) / dt, -A_MAX, A_MAX)
        v_mid = 0.5 * (z0[3] + z1[3])
        if abs(v_mid) > 1e-6:
            sin_b = np.clip((z1[2] - z0[2]) / dt * L_R / v_mid, -0.95, 0.95)
            beta = math.asin(sin_b)
            d0 = np.clip(math.atan(math.tan(beta) * WHEELBASE / L_R), -DELTA_MAX, DELTA_MAX)
        else:
            d0 = 0.0

        def defect(u):
            return step_rk4(z0, u, dt) - z1

        fit = least_squares(defect, x0=np.array([d0, a0]),
                            bounds=([-DELTA_MAX, -A_MAX], [DELTA_MAX, A_MAX]))
        worst = max(worst, float(np.max(np.abs(fit.fun))))
    return worst


def padded_tv_states(scenario, n_steps: int) -> np.ndarray:
    """The first n_steps TV states of a trajectory followed by copies of its
    final pose."""
    tv = scenario.tv_traj
    return np.vstack([tv, np.tile(tv[-1], (max(n_steps - len(tv), 0), 1))])[:n_steps]


def padded_environment_steps(scenario, n_steps: int):
    """Obstacles of n_steps steps: the TV body at each pose of the trajectory
    padded with copies of its final pose, then the two walls."""
    top, bottom = LOT.walls()
    tv = padded_tv_states(scenario, n_steps)
    return [[body_polytope(tv[t], LENGTH, WIDTH), top, bottom] for t in range(n_steps)]


def window_steps(steps, start: int, count: int):
    """count steps starting at `start`, padded with the last step."""
    return [steps[min(t, len(steps) - 1)] for t in range(start, start + count)]


def stacked_faces(steps):
    """Every obstacle's (A, b), stacked to shapes (T, M, 4, 2) and (T, M, 4)."""
    return (np.array([[poly.A for poly in obs] for obs in steps]),
            np.array([[poly.b for poly in obs] for obs in steps]))


def encode_features_per_polytope(z, steps) -> np.ndarray:
    """The state, then each step's obstacles' face normals and offsets."""
    parts = [np.asarray(z, float).ravel()]
    for obs in steps:
        for poly in obs:
            parts.append(poly.A.ravel())
            parts.append(poly.b)
    return np.concatenate(parts)


def clearance_twice(z, obstacles):
    """(intersects, distance) with two separating-axis tests per obstacle."""
    body = body_polytope(z, LENGTH, WIDTH)
    hit = False
    dist = math.inf
    for obs in obstacles:
        if polytopes_intersect(body, obs):
            hit = True
        dist = min(dist, min_translation_distance(body, obs))
    return hit, dist


def face_certificates_full(env, zs):
    """(vals (T, M), lam (T, M, 4), mu (T, M, 4)): every pair's best-face
    separation certificate, for trajectories stacked as (S, T, 4) too."""
    zs = np.asarray(zs, float)
    n = zs.shape[-2]
    a_mat, b_vec = (faces[:n] for faces in env.faces)
    norms = env.norms[:n]
    clear = ((a_mat @ zs[..., None, :2, None])[..., 0] - b_vec) / norms
    c, s = np.cos(zs[..., 2]), np.sin(zs[..., 2])
    rot = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    v = env.unit_normals[:n] @ rot[..., None, :, :]
    face_vals = clear - np.abs(v) @ BODY_H[:2]
    best = np.argmax(face_vals, axis=-1)[..., None]
    vals = np.take_along_axis(face_vals, best, axis=-1)[..., 0]
    lam = np.zeros(face_vals.shape)
    np.put_along_axis(lam, best, 1.0 / np.take_along_axis(
        np.broadcast_to(norms, face_vals.shape), best, axis=-1), axis=-1)
    w2 = -np.take_along_axis(v, best[..., None], axis=-2)[..., 0, :]
    mu = np.maximum(np.concatenate([w2, -w2], axis=-1), 0.0)
    return vals, lam, mu


def engage_seeding_every_candidate(env, zs, ref, carried):
    """(pairs, duals): the pairs a step engages from the guess zs and the
    reference, and each one's starting (lam, mu), its carried duals or else
    its seed.  Every pair that zs or ref brings within ENGAGE_DIST is
    measured, and engaged if its distance or its reference certificate is
    within ENGAGE_DIST."""
    (f_g, f_r), best, normals = _face_certificates(env, np.stack([zs, ref]))
    pairs, duals = [], {}
    for t, m in np.argwhere(np.minimum(f_g, f_r)[1:] < ENGAGE_DIST) + (1, 0):
        t, m = int(t), int(m)
        dist, lam, mu = _seed_duals(env, t, m, zs[t], (best[0], normals[0]))
        if dist < ENGAGE_DIST or f_r[t, m] < ENGAGE_DIST:
            pairs.append((t, m))
            duals[(t, m)] = carried.get((t, m), (lam, mu))
    return pairs, duals
