"""Dense convex QP solver (dual active-set method).

Solves
    minimize    0.5 x'Hx + f'x
    subject to  C x = d,   A x <= b

for symmetric positive-definite H.  The method (Goldfarb & Idnani, Math. Prog.
1983) keeps a working set of linearly independent constraint normals with the
factorization JT @ N = [R; 0], and a point that minimizes the objective with
every working-set row held as an equality.  It starts with the equality
constraints added in one pivoted QR.  An optional warm set of inequality rows,
typically the previous SQP subproblem's active set, is added the same way in a
second batch; members with negative multipliers are then dropped until the
start is dual feasible, in the manner of qpOASES (Ferreau et al., Math. Prog.
Comp. 2014).  From that start, violated inequalities are added one at a time
while dual feasibility is kept.  Infeasible problems are detected through an
unbounded dual ray.  All linear algebra is dense; the target problems are MPC
subproblems with a few hundred variables.

Multiplier conventions at the solution:
    Hx + f + A' lam + C' nu = 0,   lam >= 0,   lam_i (A x - b)_i = 0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, get_lapack_funcs, qr, solve_triangular

logger = logging.getLogger(__name__)

_SLACK_TOL = 1e-10
_DEP_TOL = 1e-11


@dataclass
class QpSolution:
    status: str  # "optimal" | "infeasible" | "max_iterations"
    x: np.ndarray
    lam: np.ndarray  # inequality multipliers, >= 0
    nu: np.ndarray  # equality multipliers, free sign
    iterations: int
    objective: float
    active_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


class QpError(ValueError):
    pass


def _factor_spd(H: np.ndarray) -> np.ndarray:
    """Cholesky factor of H, adding a tiny ridge if H is only semidefinite."""
    scale = max(float(np.trace(H)) / max(H.shape[0], 1), 1.0)
    ridge = 0.0
    for _ in range(8):
        try:
            return cholesky(H + ridge * np.eye(H.shape[0]), lower=True)
        except np.linalg.LinAlgError:
            ridge = scale * 1e-12 if ridge == 0.0 else ridge * 100.0
    raise QpError("Hessian is not positive definite even after regularization")


def _add_rows(JT, R, q, normals, rtol):
    """Append linearly independent rows of `normals` to the working set.

    One pivoted QR of the normals projected onto the complement of the
    current span, JT[q:] @ normals.T, updates JT and R in place; its
    Householder reflectors are applied to JT[q:] directly (LAPACK ormqr),
    without forming the orthogonal factor.  A pivot whose diagonal falls to
    rtol * max(largest diagonal, 1) or below is dependent on the rows before
    it.  Returns (accepted, rejected) positions into `normals`, accepted in
    pivot order.
    """
    k = normals.shape[0]
    if k == 0 or q == JT.shape[0]:
        return np.zeros(0, dtype=int), np.arange(k)
    (refl, tau), Rb, piv = qr(JT[q:] @ normals.T, mode="raw", pivoting=True)
    diag = np.abs(np.diag(Rb))
    rank = int(np.sum(diag > max(diag[0], 1.0) * rtol))
    refl = refl[:, : len(tau)]
    ormqr = get_lapack_funcs("ormqr", (refl,))
    lwork = int(ormqr("L", "T", refl, tau, JT[q:], -1)[1][0])
    JT[q:], _, info = ormqr("L", "T", refl, tau, JT[q:], lwork)
    if info != 0:
        raise QpError(f"ormqr failed with info={info}")
    R[:q, q : q + rank] = JT[:q] @ normals[piv[:rank]].T
    R[q : q + rank, q : q + rank] = Rb[:rank, :rank]
    return piv[:rank], piv[rank:]


def _drop_row(JT, R, q, pos):
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


def _working_set_point(JT, R, x0, normals, rhs):
    """Minimizer with every working-set row held as an equality, and its
    multipliers: (x, u) with normals @ x = rhs and Hx + f = normals' u,
    where x0 is the unconstrained minimizer."""
    q = normals.shape[0]
    if not q:
        return x0, np.zeros(0)
    w = solve_triangular(R[:q, :q].T, rhs - normals @ x0, lower=True)
    return x0 + JT[:q].T @ w, solve_triangular(R[:q, :q], w)


def solve_qp(
    H: np.ndarray,
    f: np.ndarray,
    A: np.ndarray | None = None,
    b: np.ndarray | None = None,
    C: np.ndarray | None = None,
    d: np.ndarray | None = None,
    warm_rows: np.ndarray | None = None,
    max_iter: int | None = None,
) -> QpSolution:
    """Solve the QP; see module docstring for conventions.

    warm_rows: optional inequality-row indices, typically the active rows of
    a previous related solve, used as the initial working set.  They are
    added in one batch after the equalities; rows that are duplicated, out of
    range, zero, or linearly dependent on earlier members are skipped, and
    members whose multiplier comes out negative are dropped before the
    active-set loop starts.  The solution does not depend on the hint; only
    the work to reach it does.
    """
    H = np.asarray(H, dtype=float)
    f = np.asarray(f, dtype=float).ravel()
    n = f.shape[0]
    if H.shape != (n, n):
        raise QpError(f"H shape {H.shape} does not match f length {n}")
    A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float).reshape(-1, n)
    b = np.zeros(0) if b is None else np.asarray(b, dtype=float).ravel()
    C = np.zeros((0, n)) if C is None else np.asarray(C, dtype=float).reshape(-1, n)
    d = np.zeros(0) if d is None else np.asarray(d, dtype=float).ravel()
    if A.shape[0] != b.shape[0] or C.shape[0] != d.shape[0]:
        raise QpError("constraint matrix/vector size mismatch")
    mi, me = A.shape[0], C.shape[0]

    lam_out = np.zeros(mi)
    nu_out = np.zeros(me)

    # Normalize rows; zero rows are resolved immediately.
    def _normalize(M, rhs):
        norms = np.linalg.norm(M, axis=1)
        keep = norms > _DEP_TOL
        return M[keep] / norms[keep, None], rhs[keep] / norms[keep], keep, norms

    Ai, bi, keep_i, norms_i = _normalize(A, b)
    Ce, de, keep_e, norms_e = _normalize(C, d)
    x_dummy = np.zeros(n)
    if np.any(b[~keep_i] < -_SLACK_TOL) or np.any(np.abs(d[~keep_e]) > _SLACK_TOL):
        return QpSolution("infeasible", x_dummy, lam_out, nu_out, 0, 0.0)
    idx_i = np.flatnonzero(keep_i)
    idx_e = np.flatnonzero(keep_e)

    L = _factor_spd(H)
    # JT = inv(L); maintained so that JT rows [0:q] span the active-normal
    # subspace in factored coordinates: JT @ n_active = [R; 0] columns.
    JT = solve_triangular(L, np.eye(n), lower=True)
    x0 = -JT.T @ (JT @ f)
    R = np.zeros((n, n))

    # Internal >= convention: rows stored as (g, h) meaning g'x >= h.
    # Inequalities a'x <= b become (-a, -b).  Equalities keep their sign and
    # an unrestricted multiplier.
    n_eq, n_in = Ce.shape[0], Ai.shape[0]
    G = np.vstack([Ce, -Ai])
    h = np.concatenate([de, -bi])
    m_all = n_eq + n_in

    # --- initial working set: equalities, then the warm rows ---------------
    eq_rows, eq_dependent = _add_rows(JT, R, 0, Ce, 1e-13)
    active = [int(j) for j in eq_rows]
    if warm_rows is not None and n_in:
        _, _, cand = np.intersect1d(
            np.asarray(warm_rows, dtype=int).ravel(), idx_i, return_indices=True
        )
        # Admit a warm row only where the add step below would admit it.
        acc, _ = _add_rows(JT, R, len(active), G[n_eq + cand], np.sqrt(_DEP_TOL))
        active += [n_eq + int(cand[j]) for j in acc]
    q = len(active)
    x, u = _working_set_point(JT, R, x0, G[active], h[active])
    # Dependent equality rows must already be consistent.
    if eq_dependent.size and np.max(np.abs(Ce[eq_dependent] @ x - de[eq_dependent])) > 1e-8:
        return QpSolution("infeasible", x, lam_out, nu_out, 0, _obj(H, f, x))

    # Warm rows pulling the wrong way leave the working set, most negative
    # multiplier first, until (x, active) is dual feasible.  Each drop counts
    # as an iteration.
    iters = 0
    while q > len(eq_rows):
        drop = len(eq_rows) + int(np.argmin(u[len(eq_rows) :]))
        if u[drop] >= 0.0:
            break
        _drop_row(JT, R, q, drop)
        active.pop(drop)
        q -= 1
        iters += 1
        x, u = _working_set_point(JT, R, x0, G[active], h[active])

    limit = max_iter if max_iter is not None else 50 * (m_all + n + 1)
    status = "max_iterations"

    while iters < limit:
        iters += 1
        slack = G[n_eq:] @ x - h[n_eq:] if n_in else np.zeros(0)
        in_set = np.zeros(n_in, dtype=bool)
        for j in active:
            if j >= n_eq:
                in_set[j - n_eq] = True
        violated = (slack < -_SLACK_TOL) & ~in_set
        if not np.any(violated):
            status = "optimal"
            break
        cand = np.flatnonzero(violated)
        pick = cand[np.argmin(slack[cand])]
        row = n_eq + int(pick)
        npl = G[row]
        s_val = slack[pick]
        u_plus = 0.0

        # Inner add/drop loop for the chosen constraint.
        while True:
            dvec = JT @ npl
            d2 = dvec[q:]
            nrm2 = float(d2 @ d2)
            if q:
                r_dir = solve_triangular(R[:q, :q], dvec[:q])
            else:
                r_dir = np.zeros(0)
            # Dual blocking step (only inequality members can hit zero).
            t1 = np.inf
            blocker = -1
            for pos in range(q):
                if active[pos] >= n_eq and r_dir[pos] > _SLACK_TOL:
                    ratio = u[pos] / r_dir[pos]
                    if ratio < t1 - 1e-14:
                        t1, blocker = ratio, pos
            t2 = -s_val / nrm2 if nrm2 > _DEP_TOL else np.inf
            if not np.isfinite(t1) and not np.isfinite(t2):
                return QpSolution(
                    "infeasible", x, lam_out, nu_out, iters, _obj(H, f, x)
                )
            t = min(t1, t2)
            if np.isfinite(t2) and t > 0.0:
                z = d2 @ JT[q:]
                x = x + t * z
                s_val = npl @ x - h[row]
            if q:
                u = u - t * r_dir
            u_plus += t
            if t == t2 and np.isfinite(t2):
                # Add the constraint: one Householder reflection collapses d2.
                nrm = np.sqrt(nrm2)
                v = d2.copy()
                sign = 1.0 if d2[0] >= 0.0 else -1.0
                v[0] += sign * nrm
                vv = float(v @ v)
                if vv > 0.0:
                    w = v @ JT[q:]
                    JT[q:] -= np.outer((2.0 / vv) * v, w)
                R[:q, q] = dvec[:q]
                R[q, q] = -sign * nrm
                active.append(row)
                u = np.append(u, u_plus)
                q += 1
                break
            # Partial step: drop the blocking constraint and continue.
            _drop_row(JT, R, q, blocker)
            active.pop(blocker)
            u = np.delete(u, blocker)
            q -= 1

    # Map internal multipliers back to the caller's convention.
    for pos, j in enumerate(active):
        if j < n_eq:
            nu_out[idx_e[j]] = -u[pos] / norms_e[idx_e[j]]
        else:
            lam_out[idx_i[j - n_eq]] = u[pos] / norms_i[idx_i[j - n_eq]]
    act = np.array(
        sorted(idx_i[j - n_eq] for j in active if j >= n_eq), dtype=int
    )
    return QpSolution(status, x, lam_out, nu_out, iters, _obj(H, f, x), act)


def _obj(H, f, x) -> float:
    return float(0.5 * x @ (H @ x) + f @ x)


def kkt_residuals(H, f, A, b, C, d, sol: QpSolution):
    """Stationarity / feasibility / complementarity residuals (test helper)."""
    x = sol.x
    stat = H @ x + f
    if A is not None and len(A):
        stat = stat + np.asarray(A).T @ sol.lam
    if C is not None and len(C):
        stat = stat + np.asarray(C).T @ sol.nu
    r_stat = float(np.max(np.abs(stat)))
    r_prim = 0.0
    r_comp = 0.0
    if A is not None and len(A):
        s = np.asarray(A) @ x - np.asarray(b)
        r_prim = max(r_prim, float(np.max(s)))
        r_comp = float(np.max(np.abs(sol.lam * s)))
    if C is not None and len(C):
        r_prim = max(r_prim, float(np.max(np.abs(np.asarray(C) @ x - np.asarray(d)))))
    return r_stat, r_prim, r_comp
