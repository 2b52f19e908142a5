"""Dense convex QP solver (dual active-set method).

Solves
    minimize    0.5 x'Hx + f'x
    subject to  C x = d,   A x <= b,   lb <= x <= ub

for symmetric positive-definite H.  The bounds may hold -inf and +inf
entries; only the finite ones constrain.  Every other entry must be finite:
`solve_qp` raises QpError for a NaN bound and for any non-finite entry of
H, f, A, b, C or d.  Inequality multipliers and
working-set members are numbered rows of A first, then the finite bounds
variable by variable (`bound_rows`), so the bounds of a leading block of
variables are a prefix of the bound rows and those of a trailing block a
suffix.

The method (Goldfarb & Idnani, Math. Prog. 1983) keeps a working set of
linearly independent constraint normals with the factorization JT @ N =
[R; 0], where JT H JT' = I, and a point that minimizes the objective with
every working-set row held as an equality.  It starts with the equality
constraints added in one pivoted QR.  An optional warm set of inequality
rows, typically the previous SQP subproblem's active set, is added the same
way in a second batch; members with negative multipliers are then dropped
until the start is dual feasible, in the manner of qpOASES (Ferreau et al.,
Math. Prog. Comp. 2014).  From that start, violated inequalities are added
one at a time while dual feasibility is kept.

The start needs only the Cholesky factor L of H: JT = Q' inv(L), with Q
the two QRs' reflectors, stays implicit while the members' normals are
taken as inv(L) N' by triangular solves and the start's point is lifted
through the reflectors.  A hint that already is the optimal working set,
no member negative and no row violated, ends the solve there, without
inv(L).  JT itself is formed, by LAPACK trtri and the reflectors, only
when the working set has to change.  Infeasible problems are detected through an unbounded
dual ray.  Where rounding hides that ray, or a badly scaled problem grows the
multipliers without bound, the step that would leave the float range ends
the solve as a numerical failure instead.  All linear algebra is dense; the
target problems are MPC subproblems with a few hundred variables.

Bounds are kept apart from the general rows, as in qpOASES and DAQP
(Arnstrom, Bemporad & Axehill, IEEE TAC 2022).  When the warm set's bounds
cover at least a quarter of the variables, they fix their variables, and
the method above runs once on the free variables only, with the free
variables' finite bounds as unit rows.  Each fixed bound's multiplier is
then read off stationarity.  If one is negative, the method continues on
all variables, every finite bound a unit row, from the reduced solve's
factorization: only the Schur complement of the fixed block is factored,
every fixed bound joins the working set ahead of the reduced one, which
reproduces the reduced solution, and the pruning above drops the bounds
with negative multipliers.  That start would leave out an equality row the
reduced solve found dependent; then the method runs on all variables,
factored afresh, from the reduced working set plus the fixed bounds with
nonnegative multipliers.  It runs on all variables from the warm set
itself for a cold start, a warm set whose bounds cover fewer variables
(fixing so few saves less than the reduced problem costs to set up), a
fixed set that leaves an equality row or the whole problem without a free
variable, and a reduced solve that does not end optimal.

Once JT is formed every working-set change is compiled work on O(n) rows
of JT or fewer: a pivoted QR and Householder reflectors
for a batch, one reflection for a single row added, Givens rotations for a
row dropped.

Multiplier conventions at the solution, with lam_lo and lam_hi the bound
parts of lam scattered to their variables:
    Hx + f + A' lam_A - lam_lo + lam_hi + C' nu = 0,   lam >= 0,
    each multiplier times its row's slack = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs, qr_delete

_potrf, _potrs, _trtri, _trtrs, _geqp3, _ormqr = get_lapack_funcs(
    ("potrf", "potrs", "trtri", "trtrs", "geqp3", "ormqr"), dtype=np.float64)

_SLACK_TOL = 1e-10
_DEP_TOL = 1e-11


@dataclass
class QpSolution:
    status: str  # "optimal" | "infeasible" | "max_iterations" | "numerical_failure"
    x: np.ndarray
    lam: np.ndarray  # inequality multipliers, >= 0
    nu: np.ndarray  # equality multipliers, free sign
    iterations: int
    active_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


class QpError(ValueError):
    pass


def _factor_spd(H: np.ndarray) -> np.ndarray:
    """Cholesky factor of H (LAPACK potrf), adding a tiny ridge if H is
    only semidefinite."""
    if not np.isfinite(H).all():
        raise QpError("Hessian has non-finite entries")
    scale = max(float(np.trace(H)) / max(H.shape[0], 1), 1.0)
    ridge = 0.0
    for _ in range(8):
        L, info = _potrf(H + ridge * np.eye(H.shape[0]) if ridge else H, lower=1, clean=1)
        if info == 0:
            return L
        if info < 0:
            raise QpError(f"potrf failed with info={info}")
        ridge = scale * 1e-12 if ridge == 0.0 else ridge * 100.0
    raise QpError("Hessian is not positive definite even after regularization")


def _inverse_factor(L: np.ndarray, reflectors=()) -> np.ndarray:
    """JT = Q' inv(L) for the Cholesky factor L of H and the reflectors
    (q, refl, tau) of `_add_rows`' batches, in the order they were taken.
    inv(L) comes from LAPACK trtri, a third of the flops of solving L X = I,
    and may overwrite L."""
    inv, info = _trtri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise QpError(f"trtri failed with info={info}")
    for batch in reflectors:
        _reflect(inv, *batch)
    return inv


def _reflect(M, q, refl, tau, trans="T"):
    """M[q:] = Q' M[q:] (trans "T") or Q M[q:] (trans "N") for the
    orthogonal factor Q of a QR's Householder reflectors (LAPACK ormqr),
    without forming Q."""
    # Workspace past LAPACK's optimum for any block size up to 64.
    lwork = 64 * max(M.shape[1], 1) + 65 * 64
    M[q:], _, info = _ormqr("L", trans, refl, tau, M[q:], lwork)
    if info != 0:
        raise QpError(f"ormqr failed with info={info}")


def _add_rows(R, q, P, rtol, reflectors):
    """Append linearly independent normals to a working set of q members.

    P holds the normals' coordinates JT @ normals.T under the current
    factors.  One pivoted QR of P[q:] (LAPACK geqp3), their part in the
    complement of the current span, extends R in place; its Householder
    reflectors are appended to `reflectors` as (q, refl, tau), and applied
    to JT[q:] (`_reflect`) they give the new JT.  A pivot whose diagonal
    falls to rtol * max(largest diagonal, 1) or below is dependent on the
    rows before it.  Returns (accepted, rejected) positions into the
    normals, accepted in pivot order.
    """
    k = P.shape[1]
    if k == 0 or q == P.shape[0]:
        return np.zeros(0, dtype=int), np.arange(k)
    # Workspace past LAPACK's optimum, 2k + (k + 1) * block size, for any
    # block size up to 64.
    raw, piv, tau, _, info = _geqp3(P[q:], 2 * k + 64 * (k + 1))
    if info != 0:
        raise QpError(f"geqp3 failed with info={info}")
    piv -= 1
    diag = np.abs(np.diagonal(raw))
    rank = int(np.sum(diag > max(diag[0], 1.0) * rtol))
    reflectors.append((q, raw[:, : len(tau)], tau))
    R[:q, q : q + rank] = P[:q, piv[:rank]]
    R[q : q + rank, q : q + rank] = np.triu(raw[:rank, :rank])
    return piv[:rank], piv[rank:]


def _drop_row(JT, R, q, pos):
    """Remove working-set member `pos` of q.

    Deleting its column from R leaves a Hessenberg block, which Givens
    rotations of neighbouring rows return to upper triangular; the same
    rotations applied to JT's rows keep JT @ N' = [R; 0].  LAPACK-style
    compiled code does both (scipy `qr_delete`, with JT' in the role of the
    orthogonal factor, which it only rotates), at O(q * n) per drop.
    """
    Q, Rq = qr_delete(JT.T, R[:, :q], pos, 1, "col", check_finite=False)
    JT[:] = Q.T
    R[:, : q - 1] = Rq
    R[:, q - 1] = 0.0


def _working_set_point(R, x0, normals, rhs, lift):
    """Minimizer with every working-set row held as an equality, and its
    multipliers: (x, u) with normals @ x = rhs and Hx + f = normals' u,
    where x0 is the unconstrained minimizer and lift(w) = JT[:q]' w."""
    q = normals.shape[0]
    if not q:
        return x0, np.zeros(0)
    Rq = R[:q, :q]
    w = _trtrs(Rq, rhs - normals @ x0, trans=1)[0]
    return x0 + lift(w), _trtrs(Rq, w)[0]


def _lift(L, reflectors, w):
    """JT[:q]' w for JT = Q' inv(L) (`_inverse_factor`) without forming JT:
    the reflectors applied to w padded with zeros, last batch first, then a
    triangular solve with L'.  Through the multipliers instead, as
    inv(L)' inv(L) N' u, the step loses digits to their size wherever it
    is small against them."""
    z = np.zeros((L.shape[0], 1))
    z[: len(w), 0] = w
    for batch in reversed(reflectors):
        _reflect(z, *batch, trans="N")
    return _trtrs(L, z, lower=1, trans=1)[0][:, 0]


def solve_qp(
    H: np.ndarray,
    f: np.ndarray,
    A: np.ndarray | None = None,
    b: np.ndarray | None = None,
    C: np.ndarray | None = None,
    d: np.ndarray | None = None,
    warm_rows: np.ndarray | None = None,
    lb: np.ndarray | None = None,
    ub: np.ndarray | None = None,
) -> QpSolution:
    """Solve the QP; see module docstring for conventions.

    warm_rows: optional inequality-row indices, typically the active rows of
    a previous related solve, used as the initial working set.  Bound
    members may fix their variables (the lower bound where a variable has
    both), as the module docstring sets out; the other members are added in
    one batch after the equalities.  Rows that are duplicated, out of range,
    zero, or linearly dependent on earlier members are skipped, and members
    whose multiplier comes out negative are dropped before the active-set
    loop starts.  The solution does not depend on the hint; only the work to
    reach it does.

    lb, ub: optional variable bounds, None for none.
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
    lb = np.full(n, -np.inf) if lb is None else np.asarray(lb, dtype=float).ravel()
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float).ravel()
    if A.shape[0] != b.shape[0] or C.shape[0] != d.shape[0]:
        raise QpError("constraint matrix/vector size mismatch")
    if lb.shape != (n,) or ub.shape != (n,):
        raise QpError(f"bound shapes {lb.shape}, {ub.shape} do not match n={n}")
    # A NaN would pass as a dropped row or bound, or reach x; the rows of A
    # and C are checked through their norms (`_solve_rows`).
    for name, v in (("f", f), ("b", b), ("d", d)):
        if not np.isfinite(v).all():
            raise QpError(f"{name} has non-finite entries")
    b_var, b_sign, b_rhs = bound_rows(lb, ub)
    if not np.all(lb <= ub):
        if np.isnan(lb).any() or np.isnan(ub).any():
            raise QpError("a bound is NaN")
        return QpSolution("infeasible", np.zeros(n), np.zeros(len(b) + len(b_var)),
                          np.zeros(len(d)), 0)
    warm = None if warm_rows is None else np.asarray(warm_rows, dtype=int).ravel()
    spent = 0
    if warm is not None:
        sol, warm, spent = _solve_fixing(H, f, A, b, C, d, b_var, b_sign, b_rhs, warm)
        if sol is not None:
            return sol
    sol, _ = _solve_rows(H, f, np.vstack([A, unit_rows(b_var, b_sign, n)]),
                         np.concatenate([b, b_rhs]), C, d, warm)
    sol.iterations += spent
    return sol


def bound_rows(lb, ub):
    """(var, sign, rhs): the finite bounds of lb <= x <= ub as the rows
    sign[j] * x[var[j]] <= rhs[j], variable by variable: each variable's
    finite lower bound, then its finite upper bound.  This is the package's
    one numbering of bound rows; `tightnav.nlp` and `tightnav.obca` number
    theirs by it too."""
    j = np.flatnonzero(np.column_stack([np.isfinite(lb), np.isfinite(ub)]))
    rhs = np.column_stack([-lb, ub]).ravel()[j]
    return j // 2, np.where(j % 2, 1.0, -1.0), rhs


def unit_rows(var, sign, n):
    """Rows with entry sign[j] at column var[j] and zeros elsewhere."""
    rows = np.zeros((len(var), n))
    rows[np.arange(len(var)), var] = sign
    return rows


def _solve_fixing(H, f, A, b, C, d, b_var, b_sign, b_rhs, warm):
    """The solve with the warm set's bounds fixing their variables.

    Bound row j holds b_sign[j] * x[b_var[j]] <= b_rhs[j], numbered mi + j.
    Returns (solution, hint, iterations): the QP's solution when the reduced
    solve ends optimal and either every fixed bound's multiplier comes out
    nonnegative or the bounds are released from its factorization;
    otherwise None and the hint the full solve starts from, as the module
    docstring sets out, with the iterations spent here.
    """
    n, mi, me = len(f), len(b), len(d)
    hinted = np.zeros(mi + len(b_var), dtype=bool)
    hinted[warm[(warm >= 0) & (warm < len(hinted))]] = True
    warm = np.flatnonzero(hinted)
    # One bound per variable; the lower bound comes first in the numbering.
    fixed = np.flatnonzero(hinted[mi:])
    var = b_var[fixed]
    first = np.ones(len(var), dtype=bool)
    first[1:] = var[1:] != var[:-1]
    fixed, var = fixed[first], var[first]
    free = np.ones(n, dtype=bool)
    free[var] = False
    # Fewer than a quarter of the variables fixed, no free variable at all,
    # or an equality row with none.
    if 4 * len(fixed) < n or not free.any() or not np.all(np.any(C[:, free], axis=1)):
        return None, warm, 0
    x = np.zeros(n)
    x[var] = b_sign[fixed] * b_rhs[fixed]
    # The reduced rows: A's, then the free variables' bounds.
    rows = np.concatenate([np.arange(mi), mi + np.flatnonzero(free[b_var])])
    col = np.cumsum(free) - 1
    loose = rows[mi:] - mi
    sol, factors = _solve_rows(
        H[np.ix_(free, free)], (f + H @ x)[free],
        np.vstack([A[:, free], unit_rows(col[b_var[loose]], b_sign[loose], col[-1] + 1)]),
        np.concatenate([b - A @ x, b_rhs[loose]]), C[:, free], d - C @ x, warm[warm < mi])
    if not sol.ok:
        return None, warm, sol.iterations
    x[free] = sol.x
    lam = np.zeros(mi + len(b_var))
    lam[rows] = sol.lam
    work = rows[sol.active_rows]
    # Stationarity on a fixed variable: the general rows' terms plus the
    # fixed bound's own; the free variables' bounds do not touch it.
    Hx = H @ x
    mult = -b_sign[fixed] * (Hx + f + lam[:mi] @ A + sol.nu @ C)[var]
    if np.all(mult >= 0.0):
        lam[mi + fixed] = mult
        return QpSolution("optimal", x, lam, sol.nu, sol.iterations,
                          np.sort(np.concatenate([work, mi + fixed]))), None, sol.iterations
    JT, R, members = factors()
    ineq = members >= me
    if np.count_nonzero(~ineq) < me:
        # An equality row the reduced solve found dependent is no member,
        # and the start below would leave it out of the working set.
        return None, np.concatenate([work, mi + fixed[mult >= 0.0]]), sol.iterations
    # Release: go on over all variables from the reduced factorization,
    # every fixed bound a member; the full solve's pruning drops those with
    # negative multipliers.  Members are numbered rows of C, then of A.
    A_all = np.vstack([A, unit_rows(b_var, b_sign, n)])
    members[ineq] = me + rows[members[ineq] - me]
    JT, R = _unfix(H, var, b_sign[fixed], JT, R, np.vstack([C, A_all])[members])
    full, _ = _solve_rows(H, f, A_all, np.concatenate([b, b_rhs]), C, d, None,
                          start=(JT, R, np.concatenate([me + mi + fixed[::-1], members])))
    full.iterations += sol.iterations
    return full, None, full.iterations


def _unfix(H, var, sign, JT_F, R_F, N):
    """The factorization on all variables from one on the free variables.

    var, ascending, are the fixed variables and sign their bound rows'
    signs (sign[j] * x[var[j]] <= rhs[j]).  JT_F and R_F are `_solve_rows`'
    factors over the free variables F: JT_F H[F, F] JT_F' = I and
    JT_F N[:, F]' = [R_F; 0] for the working-set rows N.  With
    P = JT_F H[F, var] and the Schur complement H[var, var] - P'P = L L',
    the rows (columns F, then var)
        JT = [rev(inv(L) [-P' JT_F, I]); [JT_F, 0]]
    (rev reversing the rows) satisfy JT H JT' = I.  For the working set of
    every fixed bound, last variable first, then N's rows, JT @ N' = [R; 0]
    with the upper triangular
        R = [[inv(L) reversed in rows and columns, each column times
              its bound's sign, JT[:nx] N'], [0, R_F]].
    Only the Schur complement is factored.
    """
    n, nx = len(H), len(var)
    free = np.ones(n, dtype=bool)
    free[var] = False
    P = JT_F @ H[np.ix_(free, var)]
    L_inv = _inverse_factor(_factor_spd(H[np.ix_(var, var)] - P.T @ P))
    JT = np.zeros((n, n))
    JT[:nx, free] = -(L_inv @ (P.T @ JT_F))[::-1]
    JT[:nx, var] = L_inv[::-1]
    JT[nx:, free] = JT_F
    q = nx + len(N)
    R = np.zeros((q, q))
    R[:nx, :nx] = L_inv[::-1, ::-1] * sign[::-1]
    R[:nx, nx:] = JT[:nx] @ N.T
    R[nx:, nx:] = R_F
    return JT, R


def _solve_rows(H, f, A, b, C, d, warm_rows, start=None):
    """The method on all variables, every inequality a row of A.

    Working-set members are numbered as the rows of C, then the rows of A
    (row i of A is member len(C) + i).  start: optional (JT, R, members) to
    begin from in place of factoring H and adding the equalities and
    warm_rows.  JT H JT' = I, and JT @ N' = [R; 0] with R upper triangular
    for N the members' rows as given; every row of C must be a member.
    Without it the run factors H once, by Cholesky, and forms JT from that
    factor only when the working set changes (module docstring).
    Returns (solution, factors), where factors() gives (JT, R, members) for
    the final working set in the same terms, forming JT if the run did not;
    or (solution, None) when the solve stops before its loop ends.
    """
    n = f.shape[0]
    mi, me = A.shape[0], C.shape[0]

    lam_out = np.zeros(mi)
    nu_out = np.zeros(me)

    # Row norms; zero rows are resolved immediately.  A non-finite entry
    # makes its row's norm non-finite.
    norms_i = np.sqrt(np.einsum("ij,ij->i", A, A))
    norms_e = np.sqrt(np.einsum("ij,ij->i", C, C))
    if not (np.isfinite(norms_i).all() and np.isfinite(norms_e).all()):
        raise QpError("a row of A or C is not finite")
    keep_i = norms_i > _DEP_TOL
    keep_e = norms_e > _DEP_TOL
    if np.any(b[~keep_i] < -_SLACK_TOL) or np.any(np.abs(d[~keep_e]) > _SLACK_TOL):
        return QpSolution("infeasible", np.zeros(n), lam_out, nu_out, 0), None
    idx_i = np.flatnonzero(keep_i)
    idx_e = np.flatnonzero(keep_e)

    # Internal >= convention: rows stored normalized as (g, h) meaning
    # g'x >= h.  Inequalities a'x <= b become (-a, -b).  Equalities keep
    # their sign and an unrestricted multiplier.
    n_eq, n_in = len(idx_e), len(idx_i)
    m_all = n_eq + n_in
    G = np.empty((m_all, n))
    h = np.empty(m_all)
    np.divide(C if n_eq == me else C[keep_e], norms_e[idx_e, None], out=G[:n_eq])
    np.divide(d[idx_e], norms_e[idx_e], out=h[:n_eq])
    np.divide(A if n_in == mi else A[keep_i], -norms_i[idx_i, None], out=G[n_eq:])
    np.divide(b[idx_i], -norms_i[idx_i], out=h[n_eq:])
    Ce, de = G[:n_eq], h[:n_eq]

    # Internal row j of G is member caller[j]'s row divided by scale[j].
    caller = np.concatenate([idx_e, me + idx_i])
    scale = np.concatenate([norms_e[idx_e], -norms_i[idx_i]])

    # JT rows [0:q] span the active normals in factored coordinates:
    # JT @ n_active = [R; 0] columns.
    R = np.zeros((n, n))
    if start is None:
        # --- initial working set: equalities, then the warm rows -----------
        # JT = Q' inv(L) stays implicit in L and the batches' reflectors
        # until the working set changes.
        JT = None
        L = _factor_spd(H)
        x0 = -_potrs(L, f, lower=1)[0]
        # The internal rows of the hint, ascending.
        cand = np.zeros(0, dtype=int)
        if warm_rows is not None and n_in:
            hint = np.asarray(warm_rows, dtype=int).ravel()
            hinted = np.zeros(mi, dtype=bool)
            hinted[hint[(hint >= 0) & (hint < mi)]] = True
            cand = n_eq + np.flatnonzero(hinted[keep_i])
        # The equalities' and the hint's normals as inv(L) N'.
        P = _trtrs(L, G[np.concatenate([np.arange(n_eq), cand])].T, lower=1)[0]
        reflectors = []
        eq_rows, eq_dependent = _add_rows(R, 0, P[:, :n_eq], 1e-13, reflectors)
        active = eq_rows.tolist()
        if len(cand):
            P = P[:, n_eq:]
            for batch in reflectors:
                _reflect(P, *batch)
            # Admit a warm row only where the add step below would admit it.
            acc, _ = _add_rows(R, len(active), P, np.sqrt(_DEP_TOL), reflectors)
            active += cand[acc].tolist()
        x, u = _working_set_point(R, x0, G[active], h[active],
                                  lambda w: _lift(L, reflectors, w))
    else:
        JT, R_start, members = start
        internal = np.zeros(me + mi, dtype=int)
        internal[caller] = np.arange(m_all)
        active = internal[members].tolist()
        R[: len(active), : len(active)] = R_start / scale[active]
        x0 = -JT.T @ (JT @ f)
        eq_dependent = np.zeros(0, dtype=int)
        x, u = _working_set_point(R, x0, G[active], h[active], lambda w: JT[: len(w)].T @ w)
    q = len(active)
    # Dependent equality rows must already be consistent.
    if eq_dependent.size and np.max(np.abs(Ce[eq_dependent] @ x - de[eq_dependent])) > 1e-8:
        return QpSolution("infeasible", x, lam_out, nu_out, 0), None

    # Inequality members pulling the wrong way leave the working set, most
    # negative multiplier first, until (x, active) is dual feasible;
    # equality members stay wherever they sit.  Each drop counts as an
    # iteration.
    iters = 0
    while q:
        pull = np.where(np.asarray(active) >= n_eq, u, 0.0)
        drop = int(np.argmin(pull))
        if pull[drop] >= 0.0:
            break
        if JT is None:
            JT = _inverse_factor(L, reflectors)
        _drop_row(JT, R, q, drop)
        active.pop(drop)
        q -= 1
        iters += 1
        x, u = _working_set_point(R, x0, G[active], h[active], lambda w: JT[: len(w)].T @ w)

    limit = 50 * (m_all + n + 1)
    status = "max_iterations"

    # The multipliers can grow without bound (see the module docstring): the
    # operation that would form an inf or nan ends the solve.
    try:
        with np.errstate(over="raise", invalid="raise"):
            while iters < limit:
                iters += 1
                slack = G[n_eq:] @ x - h[n_eq:] if n_in else np.zeros(0)
                members = np.asarray(active, dtype=int)
                in_set = np.zeros(n_in, dtype=bool)
                in_set[members[members >= n_eq] - n_eq] = True
                violated = (slack < -_SLACK_TOL) & ~in_set
                if not np.any(violated):
                    status = "optimal"
                    break
                if JT is None:
                    JT = _inverse_factor(L, reflectors)
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
                        # R r = d through R' as a lower factor, the LAPACK
                        # call `scipy.linalg.solve_triangular` makes for a
                        # C-ordered R, without its finiteness check: the
                        # errstate above keeps R and d finite.
                        r_dir, info = _trtrs(R[:q, :q].T, dvec[:q], lower=1, trans=1)
                        if info:
                            raise np.linalg.LinAlgError("singular working-set factor")
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
                        return QpSolution("infeasible", x, lam_out, nu_out, iters), None
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
    except FloatingPointError:
        return QpSolution("numerical_failure", x, lam_out, nu_out, iters), None

    # Map internal multipliers back to the caller's convention.
    members = np.asarray(active, dtype=int)
    eq = members < n_eq
    rows = idx_e[members[eq]]
    nu_out[rows] = -u[eq] / norms_e[rows]
    act = idx_i[members[~eq] - n_eq]
    lam_out[act] = u[~eq] / norms_i[act]
    act.sort()

    def factors():
        return (_inverse_factor(L, reflectors) if JT is None else JT,
                R[:q, :q] * scale[active], caller[active])

    return QpSolution(status, x, lam_out, nu_out, iters, act), factors


def kkt_residuals(H, f, A, b, C, d, sol: QpSolution, lb=None, ub=None):
    """Stationarity / feasibility / complementarity residuals (test helper).

    lb, ub as for `solve_qp`; sol.lam holds the bound multipliers after
    those of A's rows."""
    x = sol.x
    n = len(x)
    A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float).reshape(-1, n)
    b = np.zeros(0) if b is None else np.asarray(b, dtype=float)
    C = np.zeros((0, n)) if C is None else np.asarray(C, dtype=float).reshape(-1, n)
    d = np.zeros(0) if d is None else np.asarray(d, dtype=float)
    lb = np.full(n, -np.inf) if lb is None else np.asarray(lb, dtype=float)
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float)
    var, sign, rhs = bound_rows(lb, ub)
    # Every inequality as (row value - right-hand side) <= 0.
    slack = np.concatenate([A @ x - b, sign * x[var] - rhs])
    stat = H @ x + f + A.T @ sol.lam[: len(A)] + C.T @ sol.nu
    np.add.at(stat, var, sign * sol.lam[len(A) :])
    r_stat = float(np.max(np.abs(stat))) if n else 0.0
    r_prim = max(float(np.max(slack, initial=0.0)),
                 float(np.max(np.abs(C @ x - d), initial=0.0)))
    r_comp = float(np.max(np.abs(sol.lam * slack), initial=0.0))
    return r_stat, r_prim, r_comp
