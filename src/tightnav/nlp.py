"""Line-search SQP solver for smooth constrained NLPs.

Every subproblem uses the problem's exact Lagrangian Hessian at the current
iterate and multipliers, convexified so the QP is strictly convex.  Steps
are globalized by an l1 merit line search with a second-order correction.
Subproblems go to the dense active-set QP in `qp`, warm-started from the
previous subproblem's active rows.  The first subproblem of a solve starts
from the caller's `warm_rows` hint, typically the working set of a related
earlier solve; the solution carries the working set of the last subproblem
as `active_rows`, so a caller can pass it on.  Both count inequality rows the
solver's way: the rows of `problem.ineq` first, then the finite lower bounds
in variable order, then the finite upper bounds in variable order.  A hint
changes only the QP work, never the subproblem's answer: the QP skips rows
that are out of range, repeated or dependent, and drops rows whose
multipliers come out negative.  When a linearization is infeasible the
solver switches to an elastic subproblem that minimizes the constraint
violation, and declares the NLP infeasible when that restoration phase
stalls.  A line search that finds no acceptable step ends the solve: the
next subproblem would be built from the same point and multipliers and fail
the same way.  Identical inputs produce bit-identical iterate sequences.

The solver takes no options.  Its tolerances, iteration cap, line-search
and restoration constants are the module constants below, and every solve
records its per-iteration history.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .qp import solve_qp

logger = logging.getLogger(__name__)

Status = str  # "optimal" | "max_iterations" | "infeasible" | "numerical_failure"

# Convergence: the KKT (stationarity and complementarity) and feasibility
# residuals, both in the max norm, that count as optimal.
TOL_KKT = 1e-4
TOL_FEAS = 1e-6
# SQP iterations per solve.  One OBCA control step runs up to
# `tightnav.obca.MAX_ROUNDS` solves, so this is the cap that a per-step work
# budget would replace.
ITER_MAX = 100
# Merit line search: Armijo sufficient-decrease fraction, step shrink factor
# and trial count.
ARMIJO = 1e-4
BACKTRACK = 0.5
LS_MAX = 30
# Restoration: elastic iterations without a 0.1 % violation reduction before
# the NLP is declared infeasible, and the l1 slack penalty.
RESTORATION_STALL = 10
ELASTIC_PENALTY = 1e4


@dataclass
class NlpProblem:
    """Problem data: min f(x) s.t. c_eq(x) = 0, c_in(x) <= 0, lb <= x <= ub.

    objective(x) -> (value, gradient); eq/ineq(x) -> (values, jacobian).
    lag_hess(x, mult_eq, mult_ineq) -> the n x n Hessian of the Lagrangian
    f + mult_eq . c_eq + mult_ineq . c_in, where mult_ineq covers the rows of
    `ineq` only (bounds are linear and add no curvature).  It may be
    indefinite or a Gauss-Newton approximation; the solver convexifies it
    before each subproblem.  Bounds may be None or contain +-inf entries.
    """

    n: int
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]]
    lag_hess: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    eq: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    ineq: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None


@dataclass
class NlpSolution:
    """Final iterate, multipliers and residuals of one solve.

    active_rows holds the working set of the last subproblem solved, in the
    inequality-row numbering of the module docstring; when no subproblem
    was solved it is the `warm_rows` hint the solve received (empty for
    none).  Pass it as `warm_rows` to a related later solve.

    history holds one tuple per SQP iteration that took or tried a step:
    (iteration, merit before, merit at the last trial, KKT residual,
    feasibility residual, step length, kind), where kind is "qp" or
    "elastic" for an accepted step and "ls-fail" or "elastic-fail" for the
    line search that ended the solve.
    """

    status: Status
    x: np.ndarray
    objective: float
    mult_eq: np.ndarray
    mult_ineq: np.ndarray
    mult_lower: np.ndarray
    mult_upper: np.ndarray
    kkt_residual: float
    feas_residual: float
    iterations: int
    history: list = field(default_factory=list)
    active_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _convexify(h: np.ndarray, j_rows: np.ndarray | None = None,
               floor: float = 1e-6) -> np.ndarray:
    """Positive-definite model that agrees with h on the active manifold.

    Augmenting with rho * J^T J leaves the Hessian untouched on the null
    space of the active constraint rows -- where the subproblem step lives --
    so the Newton rate survives the convexification.  If no modest rho makes
    the matrix definite, fall back to flipping negative eigenvalues.
    """
    h = 0.5 * (h + h.T)
    shift = floor * np.eye(h.shape[0])
    trials = [0.0]
    if j_rows is not None and len(j_rows):
        trials += [1e1, 1e3, 1e5]
    for rho in trials:
        b = h + shift if rho == 0.0 else h + rho * (j_rows.T @ j_rows) + shift
        try:
            np.linalg.cholesky(b)
            return b
        except np.linalg.LinAlgError:
            continue
    w, v = np.linalg.eigh(h)
    w = np.maximum(np.abs(w), floor)
    return (v * w) @ v.T


def _violation_l1(ce, ci):
    v = 0.0
    if ce.size:
        v += float(np.sum(np.abs(ce)))
    if ci.size:
        v += float(np.sum(np.maximum(ci, 0.0)))
    return v


def _violation_inf(ce, ci):
    v = 0.0
    if ce.size:
        v = max(v, float(np.max(np.abs(ce))))
    if ci.size:
        v = max(v, float(np.max(ci)))
    return max(v, 0.0)


def solve_nlp(problem: NlpProblem, x0: np.ndarray,
              warm_rows: np.ndarray | None = None) -> NlpSolution:
    """Solve the NLP from x0.

    warm_rows: optional inequality-row indices (numbered as in the module
    docstring) that seed the first subproblem's QP working set, typically
    the `active_rows` of a related earlier solve.  Later subproblems start
    from their predecessor's working set.
    """
    n = problem.n
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (n,):
        raise ValueError(f"x0 shape {x.shape} does not match n={n}")

    lo = np.full(n, -np.inf) if problem.lower is None else np.asarray(problem.lower, float)
    hi = np.full(n, np.inf) if problem.upper is None else np.asarray(problem.upper, float)
    if np.any(lo > hi):
        raise ValueError("lower bound exceeds upper bound")
    x = np.clip(x, lo, hi)
    i_lo = np.flatnonzero(np.isfinite(lo))
    i_hi = np.flatnonzero(np.isfinite(hi))

    def eval_all(xv):
        fval, g = problem.objective(xv)
        ce, Je = (np.zeros(0), np.zeros((0, n)))
        if problem.eq is not None:
            ce, Je = problem.eq(xv)
            ce = np.asarray(ce, float).ravel()
            Je = np.asarray(Je, float).reshape(len(ce), n)
        ci_u, Ji_u = (np.zeros(0), np.zeros((0, n)))
        if problem.ineq is not None:
            ci_u, Ji_u = problem.ineq(xv)
            ci_u = np.asarray(ci_u, float).ravel()
            Ji_u = np.asarray(Ji_u, float).reshape(len(ci_u), n)
        # Fold finite bounds in as extra inequality rows.
        ci = np.concatenate([ci_u, lo[i_lo] - xv[i_lo], xv[i_hi] - hi[i_hi]])
        Jb_lo = np.zeros((len(i_lo), n))
        Jb_lo[np.arange(len(i_lo)), i_lo] = -1.0
        Jb_hi = np.zeros((len(i_hi), n))
        Jb_hi[np.arange(len(i_hi)), i_hi] = 1.0
        Ji = np.vstack([Ji_u, Jb_lo, Jb_hi])
        return float(fval), np.asarray(g, float).ravel(), ce, Je, ci, Ji

    def viol_only(xv):
        ce = problem.eq(xv)[0] if problem.eq is not None else np.zeros(0)
        ci_u = problem.ineq(xv)[0] if problem.ineq is not None else np.zeros(0)
        ce = np.asarray(ce, float).ravel()
        ci = np.concatenate([np.asarray(ci_u, float).ravel(),
                             lo[i_lo] - xv[i_lo], xv[i_hi] - hi[i_hi]])
        return ce, ci

    mu_pen = 1.0
    fval, g, ce, Je, ci, Ji = eval_all(x)
    m_u = len(ci) - len(i_lo) - len(i_hi)
    lam = np.zeros(len(ci))
    nu = np.zeros(len(ce))
    warm = None if warm_rows is None else np.asarray(warm_rows, dtype=int).ravel()
    stall = 0
    best_viol = np.inf
    status: Status = "max_iterations"
    history: list = []
    it = 0

    def kkt(gv, Jev, Jiv, nuv, lamv, cev, civ):
        stat = gv.copy()
        if len(cev):
            stat += Jev.T @ nuv
        if len(civ):
            stat += Jiv.T @ lamv
        r_stat = float(np.max(np.abs(stat))) if n else 0.0
        r_comp = float(np.max(np.abs(lamv * civ))) if len(civ) else 0.0
        return max(r_stat, r_comp)

    for it in range(1, ITER_MAX + 1):
        r_kkt = kkt(g, Je, Ji, nu, lam, ce, ci)
        r_feas = _violation_inf(ce, ci)
        if r_kkt <= TOL_KKT and r_feas <= TOL_FEAS:
            status = "optimal"
            break

        # Ill-conditioned endgames can overflow the curvature to inf; surface
        # that as a status instead of letting the factorization raise, so
        # callers fall back the same way they do for any failed solve.
        h_lag = problem.lag_hess(x, nu, lam[:m_u])
        if not all(np.all(np.isfinite(a)) for a in (h_lag, g, Ji, ci, Je, ce)):
            status = "numerical_failure"
            break
        # Row augmentation preserves the Newton rate but is only safe in the
        # endgame: it must use rows that are active with teeth (tight and
        # carrying a multiplier), and inflating a row that is about to detach
        # would glue the iterate to it.  Far from feasibility the eigenvalue
        # fallback inside _convexify is the better model.
        j_act = None
        if r_feas <= 1e-5:
            act = np.flatnonzero((ci > -1e-6) & (lam > 1e-6))
            j_act = np.vstack([Je, Ji[act]])
        B = _convexify(h_lag, j_act)
        try:
            qp_sol = solve_qp(B, g, Ji, -ci, Je, -ce, warm_rows=warm)
        except (np.linalg.LinAlgError, ValueError):
            qp_sol = None
        elastic = False
        if qp_sol is None or qp_sol.status != "optimal":
            elastic = True
            try:
                qp_sol = _elastic_qp(B, g, Je, ce, Ji, ci, ELASTIC_PENALTY)
            except (np.linalg.LinAlgError, ValueError):
                status = "numerical_failure"
                break
            if qp_sol is None:
                status = "infeasible"
                break
        p = qp_sol.x[:n]
        lam_new = qp_sol.lam[: len(ci)]
        nu_new = qp_sol.nu[: len(ce)]
        warm = qp_sol.active_rows[qp_sol.active_rows < len(ci)]

        # Penalty tracking: keep mu above the current multipliers (descent
        # guarantee) but let it decay after transients, and never learn it
        # from elastic multipliers, which sit at the relaxation penalty scale.
        if not elastic:
            mult_inf = 0.0
            if len(lam_new):
                mult_inf = max(mult_inf, float(np.max(lam_new)))
            if len(nu_new):
                mult_inf = max(mult_inf, float(np.max(np.abs(nu_new))))
            mu_need = 1.5 * mult_inf + 1.0
            if mu_pen < mu_need:
                mu_pen = mu_need
            elif mu_pen > 10.0 * mu_need:
                mu_pen = 10.0 * mu_need

        viol0 = _violation_l1(ce, ci)
        merit0 = fval + mu_pen * viol0
        # Credit only the violation reduction the linear model actually
        # achieves; an elastic step may leave irreducible residual and the
        # full -mu*viol0 term would then overpromise descent and starve the
        # line search.
        ce_lin = ce + Je @ p if len(ce) else ce
        ci_lin = ci + Ji @ p if len(ci) else ci
        model_red = viol0 - _violation_l1(ce_lin, ci_lin)
        deriv = float(g @ p) - mu_pen * max(model_red, 0.0)
        if deriv > -1e-16:
            deriv = -1e-16

        alpha = 1.0
        accepted = False
        merit_try = merit0
        x_acc = x
        soc_tried = False
        for _ in range(LS_MAX):
            x_try = x + alpha * p
            f_try = problem.objective(x_try)[0]
            ce_t, ci_t = viol_only(x_try)
            merit_try = f_try + mu_pen * _violation_l1(ce_t, ci_t)
            if merit_try <= merit0 + ARMIJO * alpha * deriv + 1e-12:
                accepted = True
                x_acc = x_try
                break
            if not soc_tried and not elastic and alpha == 1.0:
                # Second-order correction: retarget the rows the subproblem
                # held active using their values at the full step, so the
                # merit's quadratic constraint drift cannot veto an otherwise
                # sound Newton step (the Maratos effect).
                soc_tried = True
                j_stack = np.vstack([Je, Ji[warm]])
                r_vec = np.concatenate([ce_t, ci_t[warm]])
                if j_stack.shape[0]:
                    dp = np.linalg.lstsq(j_stack, -r_vec, rcond=None)[0]
                    # The correction is unconstrained, so project it back
                    # into the variable box before touching the model
                    # functions; some of them are undefined outside it.
                    x_soc = np.clip(x + p + dp, lo, hi)
                    f_soc = problem.objective(x_soc)[0]
                    ce_s, ci_s = viol_only(x_soc)
                    m_soc = f_soc + mu_pen * _violation_l1(ce_s, ci_s)
                    if m_soc <= merit0 + ARMIJO * deriv + 1e-12:
                        accepted = True
                        x_acc = x_soc
                        merit_try = m_soc
                        break
            alpha *= BACKTRACK
        if not accepted:
            # The next subproblem would be built from the same x and
            # multipliers, so it would return the same step: stop here.  A
            # restoration step that cannot reduce the violation at all means
            # the constraints are locally inconsistent.
            kind = "elastic-fail" if elastic else "ls-fail"
            history.append((it, merit0, merit_try, r_kkt, r_feas, alpha, kind))
            status = "infeasible" if elastic else "max_iterations"
            break

        # Restoration stall bookkeeping: infeasibility is declared when the
        # elastic phase stops reducing the violation.
        if elastic:
            v_now = _violation_l1(*viol_only(x_acc))
            if v_now < best_viol * (1.0 - 1e-3) - 1e-12:
                best_viol = v_now
                stall = 0
            else:
                stall += 1
        else:
            stall = 0
            best_viol = min(best_viol, viol0)

        x = x_acc
        fval, g, ce, Je, ci, Ji = eval_all(x)
        lam, nu = lam_new, nu_new
        history.append((it, merit0, merit_try, r_kkt, r_feas, alpha,
                        "elastic" if elastic else "qp"))
        if stall >= RESTORATION_STALL:
            status = "infeasible"
            break

    r_kkt = kkt(g, Je, Ji, nu, lam, ce, ci)
    r_feas = _violation_inf(ce, ci)
    if status == "max_iterations" and r_kkt <= TOL_KKT and r_feas <= TOL_FEAS:
        status = "optimal"
    lam_u = lam[:m_u] if len(ci) else np.zeros(0)
    mult_lower = np.zeros(n)
    mult_upper = np.zeros(n)
    if len(i_lo):
        mult_lower[i_lo] = lam[m_u : m_u + len(i_lo)]
    if len(i_hi):
        mult_upper[i_hi] = lam[m_u + len(i_lo) :]
    return NlpSolution(
        status=status,
        x=x,
        objective=fval,
        mult_eq=nu,
        mult_ineq=lam_u,
        mult_lower=mult_lower,
        mult_upper=mult_upper,
        kkt_residual=r_kkt,
        feas_residual=r_feas,
        iterations=it,
        history=history,
        active_rows=np.empty(0, dtype=int) if warm is None else warm,
    )


def _elastic_qp(B, g, Je, ce, Ji, ci, rho):
    """Relaxed subproblem with l1 slacks on every constraint row.

    Returns a QpSolution-like object restricted to the p block, or None when
    even the relaxation fails (numerical breakdown).
    """
    n = B.shape[0]
    me, mi = len(ce), len(ci)
    n_el = n + 2 * me + mi
    H = np.zeros((n_el, n_el))
    H[:n, :n] = B
    H[n:, n:] = 1e-6 * np.eye(2 * me + mi)
    f = np.concatenate([g, rho * np.ones(2 * me + mi)])
    C = np.hstack([Je, np.eye(me), -np.eye(me), np.zeros((me, mi))]) if me else None
    d = -ce if me else None
    rows = []
    rhs = []
    if mi:
        rows.append(np.hstack([Ji, np.zeros((mi, 2 * me)), -np.eye(mi)]))
        rhs.append(-ci)
    slack_rows = np.hstack([np.zeros((2 * me + mi, n)), -np.eye(2 * me + mi)])
    rows.append(slack_rows)
    rhs.append(np.zeros(2 * me + mi))
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    sol = solve_qp(H, f, A, b, C, d)
    if sol.status != "optimal":
        logger.warning("elastic QP failed with status %s", sol.status)
        return None
    sol.lam = sol.lam[:mi]
    sol.active_rows = sol.active_rows[sol.active_rows < mi]
    return sol
