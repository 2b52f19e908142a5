"""Line-search SQP solver for smooth constrained NLPs.

Every subproblem uses the problem's exact Lagrangian Hessian at the current
iterate and multipliers, convexified so the QP is strictly convex: shifted by
a small multiple of the identity when that is positive definite, else with
its negative eigenvalues flipped.  Steps are globalized by an l1 merit line
search with a second-order correction.  When the full step fails the merit
test, the correction solves the step's own subproblem again with only the
rows' constant terms moved to their values at the full step (Nocedal &
Wright, *Numerical Optimization*, 2nd ed., 18.3): the same condensing,
Hessian, gradient, bounds and working-set hint, so it is one more QP call
and needs nothing of its own.  A correction whose QP ends other than
optimal or raises is skipped, and the line search backtracks; the step's
multipliers and working set, not the correction's, go on to the next
iterate.
Subproblems go to the dense active-set QP in `qp`, warm-started from the
previous subproblem's active rows, and each has its state step condensed
out first: the dynamics rows of the horizon (`NlpProblem.stages`; zero
stages for an unstaged problem) fix the states' step as an affine
function of the inputs', so the QP sees only the remaining variables and
equality rows, and the step and the dynamics rows' multipliers are
recovered exactly afterwards.  The QP is the same strictly convex
subproblem either way, so condensing changes its cost, not its answer.

The dynamics rows travel as their stage blocks, the stacks (A_t, B_t)
of the problem's `dynamics` callback, from the problem to the condensing:
the KKT residual and the merit's linearization multiply block by block,
and no dense dynamics row is formed.  Their block on the states is unit
lower block-bidiagonal by construction, so nothing checks it.  What
condensing needs that does not change between a solve's iterates is
planned once, at the solve's first subproblem (`_Condensing`): the state
block's identity and the positions of its blocks, the layout of the state
map's right-hand side, and the split of the states' bound rows from the
others.  After that, each subproblem computes values only.  The products
run over every input, so an input column that happens to be zero (steering
at a standstill) is multiplied through rather than skipped; that changes
the rounding of the condensed QP, not its terms.

The Lagrangian Hessian travels as the stacks of its diagonal blocks
(`hess_blocks`, batched over blocks of one size and state count; see
`block_groups`) from the problem's callback to the QP.  Its curvature is
tested and flipped block by block; the model is the same as on one n x n
matrix up to rounding, and bit for bit whenever no eigenvalue is flipped.
Condensing multiplies each block by the state map over that block's
states only, which lead it, so every product is the sum a dense product
takes over the same terms and exact zeros; the only dense Hessian formed
is the QP's, the reduced one.

Variable bounds reach the QP as bound vectors, never as dense unit rows;
only the bounds of condensed states, which become affine in the remaining
variables, turn into rows.  The solver keeps the bounds' values after the
values of `problem.ineq` for the KKT, violation and merit terms.

The first subproblem of a solve starts from the caller's `warm_rows` hint,
typically the working set of a related earlier solve; the solution carries
the working set of the last subproblem as `active_rows`, so a caller can
pass it on.  Both count inequality rows the QP's way: the rows of
`problem.ineq` first, then the finite bounds variable by variable as
`qp.bound_rows` numbers them.  A hint changes only the QP work, never the
subproblem's answer: the QP skips rows that are out of range, repeated or
dependent, may fix the variables of hinted bounds, and drops rows and
releases bounds whose multipliers come out negative.  The states are the
leading variables, so their bound rows, which condensing turns into
general rows placed right after those of `problem.ineq`, keep their
numbers, and the QP's numbering of a subproblem is the solver's.

A subproblem without a solution ends the solve: `infeasible` when the QP
reports any status but optimal, `numerical_failure` when solving it raises
`LinAlgError` or `ValueError`.  The solver has no restoration phase of its
own; a caller falls back as it does for any failed solve.  A line search
that finds no acceptable step ends the solve too: the next subproblem would
be built from the same point and multipliers and fail the same way.
Identical inputs produce bit-identical iterate sequences.

A solve evaluates at x0 only what its first KKT test reads: the
objective's value and gradient and the constraint values, with the
callbacks' `jacobian` flag off.  The multipliers start at zero, so that
test's residual is max |g| and its complementarity term is 0.  Only when
the test fails, that is when a subproblem is about to be built, is x0
evaluated again with its Jacobians; every later point, each line-search
trial and correction, is evaluated once with its Jacobians, and the
accepted one's evaluation is the next iterate's; most trials are
accepted, so evaluating them for values first would evaluate most twice.
A warm start that is already optimal thus costs no Jacobian at all.

The solver takes no options.  Its tolerances, iteration cap and line-search
constants are the module constants below, and every solve records its
per-iteration history.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .qp import bound_rows, solve_qp

# Imported after `.qp`, which loads scipy.linalg.  Loading it here first made
# the package's set-up measurably slower (0.26 against 0.23 s over 10
# alternating runs of perfbench's set-up timing), although the same modules
# load either way.
from scipy.linalg import get_lapack_funcs

_trtrs, = get_lapack_funcs(("trtrs",), dtype=np.float64)

Status = str  # "optimal" | "max_iterations" | "infeasible" | "numerical_failure"

# Convergence: the KKT (stationarity and complementarity) and feasibility
# residuals, both in the max norm, that count as optimal.
TOL_KKT = 1e-4
TOL_FEAS = 1e-6
# Convexification: the shift added to a definite Lagrangian Hessian, and
# the least eigenvalue that a flipped one keeps.
FLOOR = 1e-6
# SQP iterations per solve.  One OBCA control step runs one solve, so this
# is the cap that a per-step work budget would replace.
ITER_MAX = 100
# Merit line search: Armijo sufficient-decrease fraction, step shrink factor
# and trial count.
ARMIJO = 1e-4
BACKTRACK = 0.5
LS_MAX = 30


@dataclass
class NlpProblem:
    """Problem data: min f(x) s.t. c_eq(x) = 0, c_in(x) <= 0, lb <= x <= ub.

    objective(x) -> (value, gradient).  eq/ineq(x, jacobian) -> (values,
    jacobian matrix): the solver passes jacobian=False where it reads the
    values alone (at x0, for the first KKT test) and ignores the matrix
    then, so the callback may return None for it; the values must not
    depend on the flag.  Every other evaluation passes True.
    lag_hess(x, mult_eq, mult_ineq) -> the Hessian of the Lagrangian
    f + mult_eq . c_eq + mult_ineq . c_in, where mult_ineq covers the rows of
    `ineq` only (bounds are linear and add no curvature), as the stacks of
    its diagonal blocks: one (blocks, size, size) array per index array of
    `blocks`, in that order, whose [b] is the Hessian on the variables of
    that array's row b, in their order.  It may be indefinite or a
    Gauss-Newton approximation; the solver convexifies it before each
    subproblem.  Bounds may be None or contain +-inf entries; `solve_nlp`
    raises ValueError for a bound of another shape than (n,), a NaN bound
    and a lower bound above its upper one.

    stages = (N, nx, nu) declares a horizon of N stages, as in multiple
    shooting: the first N nx variables are the states z_1..z_N, the next
    N nu the inputs u_0..u_{N-1}, and the first N nx equality rows are the
    dynamics z_{t+1} - f_t(z_t, u_t) = 0 (z_0 is data, not a variable).
    Those rows come from `dynamics(x, jacobian) -> (residual, A, B)`: the
    residual (N nx,), stage by stage, and the stacks A (N-1, nx, nx) of
    df_t/dz_t for t = 1..N-1 and B (N, nx, nu) of df_t/du_t, both None
    without `jacobian`, as for `eq`.  `eq` then holds only the other
    equality rows, numbered after the dynamics rows in mult_eq.  The
    solver eliminates the states from every subproblem.  `solve_nlp`
    raises ValueError for stages that are not three positive integers with
    N (nx + nu) <= n, and for a residual or stacks of other shapes.  None,
    with `dynamics` None, is zero stages: no state and no dynamics row, so
    every equality row is a row of `eq`.

    hess_blocks, one integer label per variable, declares that the
    Lagrangian Hessian has no nonzero entry between variables with
    different labels, so `lag_hess` returns the blocks' entries only.
    None is one block holding every variable: `lag_hess` then returns
    [h[None]] for the n x n Hessian h.  `solve_nlp` raises ValueError when
    the stacks' count or shapes do not match the blocks.
    """

    n: int
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]]
    lag_hess: Callable[[np.ndarray, np.ndarray, np.ndarray], list[np.ndarray]]
    eq: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    ineq: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    stages: tuple[int, int, int] | None = None
    dynamics: Callable[[np.ndarray, bool], tuple] | None = None
    hess_blocks: np.ndarray | None = None

    @functools.cached_property
    def blocks(self) -> list[np.ndarray]:
        """The index arrays of `lag_hess`'s stacks: `block_groups` of
        hess_blocks (one label for None) and the state count N nx of
        `stages` (0 for None).  Computed on first use, once per problem, so
        a caller that builds the stacks reads the grouping the solver reads."""
        labels = np.zeros(self.n) if self.hess_blocks is None else np.asarray(self.hess_blocks)
        return block_groups(labels, _check_stages(self.stages, self.n))


@dataclass
class NlpSolution:
    """Final iterate, multipliers and residuals of one solve.

    active_rows holds the working set of the last subproblem solved, in the
    inequality-row numbering of the module docstring; when no subproblem
    was solved it is the `warm_rows` hint the solve received (empty for
    none).  Pass it as `warm_rows` to a related later solve.

    history holds one tuple per SQP iteration that took or tried a step:
    (iteration, merit before, merit at the last trial, KKT residual,
    feasibility residual, step length, kind), where kind is "qp" for an
    accepted step and "ls-fail" for the line search that ended the solve.
    """

    status: Status
    x: np.ndarray
    objective: float
    mult_eq: np.ndarray
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


def block_groups(labels: np.ndarray, k: int) -> list[np.ndarray]:
    """The variables of each labelled block, grouped by block size and by
    the block's count of states (variables below k): one (blocks, size)
    index array per pair, by ascending size, then count, its rows the blocks
    by ascending label, each row ascending, so a block's states lead it."""
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    first = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    size = np.diff(first, append=len(labels))
    below = np.concatenate([[0], np.cumsum(order < k)])
    states = below[first + size] - below[first]
    # One key per block that orders by size, then state count (at most n).
    key = size * (len(labels) + 1) + states
    return [order[first[key == c][:, None] + np.arange(c // (len(labels) + 1))]
            for c in sorted(set(key.tolist()))]


def _definite(b: np.ndarray) -> bool:
    """Whether every matrix of the stack b passes a Cholesky factorization."""
    if b.shape[-1] == 1:
        return bool(np.all(b > 0.0))
    try:
        np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        return False
    return True


def _convexify(stacks: list[np.ndarray]) -> list[np.ndarray]:
    """Positive-definite model of the block-diagonal Hessian whose blocks
    are the stacks (`NlpProblem.lag_hess`), as stacks of the same shapes:
    every block + FLOOR * I when every block passes a Cholesky test, else
    every block with its eigenvalues replaced by their magnitudes, floored
    at FLOOR (Nocedal & Wright, *Numerical Optimization*, 2nd ed., 3.4).
    The flip leaves a block whose eigenvalues all exceed FLOOR as it is, up
    to rounding, so a stack that passes a Cholesky test of s - FLOOR * I is
    kept without an eigendecomposition.  Block by block, the test and the
    flip give the model they give on the whole matrix (the flip up to
    rounding).
    """
    sub = [0.5 * (s + s.transpose(0, 2, 1)) for s in stacks]
    parts = [s + FLOOR * np.eye(s.shape[-1]) for s in sub]
    if all(_definite(s) for s in parts):
        return parts
    parts = []
    for s in sub:
        if _definite(s - FLOOR * np.eye(s.shape[-1])):
            parts.append(s)
            continue
        w, v = np.linalg.eigh(s)
        w = np.maximum(np.abs(w), FLOOR)
        parts.append((v * w[:, None, :]) @ v.transpose(0, 2, 1))
    return parts


def _violation_l1(ce, ci):
    v = 0.0
    if ce.size:
        v += float(np.sum(np.abs(ce)))
    if ci.size:
        v += float(np.sum(np.maximum(ci, 0.0)))
    return v


def _violation_inf(ce, ci):
    """Max-norm violation; NaN when a value is NaN, so that no KKT test
    passes and the finiteness check ends the solve."""
    return float(np.max(np.concatenate([np.abs(ce), ci, [0.0]])))


def _kkt_residual(g, Je, Ji, nu, lam, ci, b_var, b_sign) -> float:
    """Max-norm KKT residual: stationarity of the Lagrangian, whose bound
    terms are numbered as `qp.bound_rows` gives them, and complementarity
    of every inequality row, the bounds' included; NaN when a term is.  Je
    is the equality rows' `_EqJacobian`."""
    stat = g.copy()
    if len(nu):
        stat += Je.tdot(nu)
    m_u = len(Ji)
    if m_u:
        stat += Ji.T @ lam[:m_u]
    np.add.at(stat, b_var, b_sign * lam[m_u:])
    r_stat = float(np.max(np.abs(stat))) if len(g) else 0.0
    r_comp = float(np.max(np.abs(lam * ci))) if len(ci) else 0.0
    return float(np.maximum(r_stat, r_comp))


class _EqJacobian:
    """The equality rows' Jacobian at one point: the dynamics rows of
    `stages` (see `NlpProblem`; zero stages, with empty stacks, for an
    unstaged problem) as their stacks A and B, I on z_{t+1}, -A_t on z_t
    and -B_t on u_t, then the dense rows J of `eq`.  The products read the
    stacks block by block; the whole matrix is never formed."""

    def __init__(self, stages, A, B, J):
        self.stages, self.A, self.B, self.J = stages, A, B, J

    def dot(self, p):
        """The rows' product with p."""
        N, nx, nu = self.stages
        k = N * nx
        pz = p[:k].reshape(N, nx)
        dyn = pz - (self.B @ p[k : k + N * nu].reshape(N, nu, 1))[:, :, 0]
        dyn[1:] -= (self.A @ pz[:-1, :, None])[:, :, 0]
        return np.concatenate([dyn.ravel(), self.J @ p])

    def tdot(self, w):
        """The transposed rows' product with w, one entry per row."""
        N, nx, nu = self.stages
        k = N * nx
        out = self.J.T @ w[k:]
        wd = w[:k].reshape(N, nx)
        z = out[:k].reshape(N, nx)
        z += wd
        z[:-1] -= (self.A.transpose(0, 2, 1) @ wd[1:, :, None])[:, :, 0]
        out[k : k + N * nu] -= (self.B.transpose(0, 2, 1) @ wd[:, :, None]).ravel()
        return out


def _check_stages(stages, n) -> int:
    """The state count N nx of a problem's `stages`, 0 for None; raises
    ValueError unless stages is None or three positive integers with
    N (nx + nu) <= n."""
    if stages is None:
        return 0
    # Concrete types: `numbers.Integral` is an abstract base class, whose
    # isinstance test showed in the per-step time of a clear lane, where
    # most solves end at their first KKT test.
    if len(stages) != 3 or not all(isinstance(v, (int, np.integer)) and type(v) is not bool
                                   for v in stages):
        raise ValueError(f"stages={stages!r} is not three integers (N, nx, nu)")
    N, nx, nu = stages
    if min(stages) < 1:
        raise ValueError(f"stages={stages!r} is not three positive integers (N, nx, nu)")
    if N * (nx + nu) > n:
        raise ValueError(f"stages={stages!r} hold {N * (nx + nu)} variables, more than n={n}")
    return N * nx


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
    k = _check_stages(problem.stages, n)
    if (problem.dynamics is None) != (problem.stages is None):
        raise ValueError("stages and dynamics must be given together")
    # No stages are zero stages: no dynamics row, and empty stacks.
    stages = (0, 0, 0) if problem.stages is None else problem.stages
    N, nx, nu = stages
    shapes = ((N - 1, nx, nx), (N, nx, nu))
    labels = problem.hess_blocks
    if labels is not None and np.shape(labels) != (n,):
        raise ValueError(f"hess_blocks shape {np.shape(labels)} does not match n={n}")
    blocks = None

    lo = np.full(n, -np.inf) if problem.lower is None else np.asarray(problem.lower, float)
    hi = np.full(n, np.inf) if problem.upper is None else np.asarray(problem.upper, float)
    for name, bound in (("lower", lo), ("upper", hi)):
        if bound.shape != (n,):
            raise ValueError(f"{name} shape {bound.shape} does not match n={n}")
    # Written so that a NaN bound fails the test too.
    if not np.all(lo <= hi):
        raise ValueError("a lower bound exceeds its upper bound or a bound is NaN")
    x = np.clip(x, lo, hi)
    b_var, b_sign, b_rhs = bound_rows(lo, hi)

    def evaluate(xv, jacobian):
        """(f, g, ce, Je, ci, Ji) at xv, Je and Ji None unless jacobian.  ce
        holds the dynamics rows' values first, and Je is an `_EqJacobian`;
        ci holds the value of every inequality row, the bounds' included,
        and Ji the Jacobian of the rows of `ineq` only."""
        fval, g = problem.objective(xv)
        rows = []
        for fn in (problem.eq, problem.ineq):
            c, jac = (np.zeros(0), np.zeros((0, n))) if fn is None else fn(xv, jacobian)
            c = np.asarray(c, float).ravel()
            rows += [c, np.asarray(jac, float).reshape(len(c), n) if jacobian else None]
        ce, Je, ci_u, Ji = rows
        A = B = np.zeros((0, 0, 0))  # zero stages' stacks
        if k:
            r, A, B = problem.dynamics(xv, jacobian)
            r = np.asarray(r, float)
            if r.shape != (k,):
                raise ValueError(f"dynamics residual shape {r.shape} does not match stages "
                                 f"{stages}")
            ce = np.concatenate([r, ce])
            if jacobian:
                if (np.shape(A), np.shape(B)) != shapes:
                    raise ValueError(f"dynamics stacks of shapes {np.shape(A)} and "
                                     f"{np.shape(B)} are not {shapes[0]} and {shapes[1]}")
        if jacobian:
            Je = _EqJacobian(stages, A, B, Je)
        ci = np.concatenate([ci_u, b_sign * xv[b_var] - b_rhs])
        return float(fval), np.asarray(g, float).ravel(), ce, Je, ci, Ji

    mu_pen = 1.0
    fval, g, ce, Je, ci, Ji = evaluate(x, False)
    m_u = len(ci) - len(b_var)
    lam = np.zeros(len(ci))
    nu = np.zeros(len(ce))
    warm = None if warm_rows is None else np.asarray(warm_rows, dtype=int).ravel()
    status: Status = "max_iterations"
    history: list = []
    it = 0

    for it in range(1, ITER_MAX + 1):
        if Je is None:
            # x0, whose multipliers are zero: `_kkt_residual`'s multiplier
            # terms add zeros and its complementarity term is 0.
            r_kkt = float(np.max(np.abs(g))) if n else 0.0
        else:
            r_kkt = _kkt_residual(g, Je, Ji, nu, lam, ci, b_var, b_sign)
        r_feas = _violation_inf(ce, ci)
        if r_kkt <= TOL_KKT and r_feas <= TOL_FEAS:
            status = "optimal"
            break
        if Je is None:
            fval, g, ce, Je, ci, Ji = evaluate(x, True)

        stacks = problem.lag_hess(x, nu, lam[:m_u])
        if blocks is None:
            # The solve's plan: what its subproblems share.
            blocks = problem.blocks
            split = _state_split(blocks, k, n)
            plan = _Condensing(stages, b_var, b_sign)
        if [np.shape(s) for s in stacks] != [ix.shape + ix.shape[1:] for ix in blocks]:
            raise ValueError("the Lagrangian Hessian's stacks do not match hess_blocks")
        # Ill-conditioned endgames can overflow the curvature to inf, and a
        # NaN value fails every KKT test above; surface both as a status
        # instead of letting the factorization raise, so callers fall back
        # the same way they do for any failed solve.
        if not all(np.all(np.isfinite(a)) for a in (*stacks, g, Ji, ci, Je.A, Je.B, Je.J, ce)):
            status = "numerical_failure"
            break
        hess = [(ix, part, ns, at) for (ix, ns, at), part in zip(split, _convexify(stacks))]
        try:
            qp_sol = _solve_subproblem(plan, hess, g, Je, ce, Ji, ci[:m_u], lo - x, hi - x,
                                       warm)
        except (np.linalg.LinAlgError, ValueError):
            status = "numerical_failure"
            break
        if qp_sol.status != "optimal":
            status = "infeasible"
            break
        p = qp_sol.x
        lam_new, nu_new, warm = qp_sol.lam, qp_sol.nu, qp_sol.active_rows

        # Penalty tracking: keep mu above the current multipliers (descent
        # guarantee) but let it decay after transients.
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
        # achieves at the step, not the full mu*viol0: the QP meets its
        # rows only to its own tolerance.
        ce_lin = ce + Je.dot(p) if len(ce) else ce
        ci_lin = ci + np.concatenate([Ji @ p, b_sign * p[b_var]])
        model_red = viol0 - _violation_l1(ce_lin, ci_lin)
        deriv = float(g @ p) - mu_pen * max(model_red, 0.0)
        if deriv > -1e-16:
            deriv = -1e-16

        # Each trial point is evaluated once, Jacobians included: the
        # accepted one's evaluation is the next iterate's.
        alpha = 1.0
        accepted = False
        merit_try = merit0
        for _ in range(LS_MAX):
            x_try = x + alpha * p
            ev_try = evaluate(x_try, True)
            f_try, _, ce_t, _, ci_t, _ = ev_try
            merit_try = f_try + mu_pen * _violation_l1(ce_t, ci_t)
            if merit_try <= merit0 + ARMIJO * alpha * deriv + 1e-12:
                accepted = True
                x_acc, ev_acc = x_try, ev_try
                break
            if alpha == 1.0 and (len(ce) or m_u):
                # Second-order correction: the step's subproblem again, its
                # rows' constant terms moved to their values at the full
                # step, so the merit's quadratic constraint drift cannot veto
                # an otherwise sound Newton step (the Maratos effect; Nocedal
                # & Wright, 18.3).  Its bounds keep x + p_soc in the box, and
                # a correction without an optimal QP is skipped.  Without
                # general rows it would be the step itself.
                try:
                    soc = _solve_subproblem(plan, hess, g, Je, ce_t - Je.dot(p), Ji,
                                            ci_t[:m_u] - Ji @ p, lo - x, hi - x, warm)
                except (np.linalg.LinAlgError, ValueError):
                    soc = None
                if soc is not None and soc.status == "optimal":
                    x_soc = x + soc.x
                    ev_soc = evaluate(x_soc, True)
                    f_soc, _, ce_s, _, ci_s, _ = ev_soc
                    m_soc = f_soc + mu_pen * _violation_l1(ce_s, ci_s)
                    if m_soc <= merit0 + ARMIJO * deriv + 1e-12:
                        accepted = True
                        x_acc, ev_acc = x_soc, ev_soc
                        merit_try = m_soc
                        break
            alpha *= BACKTRACK
        if not accepted:
            # The next subproblem would be built from the same x and
            # multipliers, so it would return the same step: stop here.
            history.append((it, merit0, merit_try, r_kkt, r_feas, alpha, "ls-fail"))
            status = "max_iterations"
            break

        x = x_acc
        fval, g, ce, Je, ci, Ji = ev_acc
        lam, nu = lam_new, nu_new
        history.append((it, merit0, merit_try, r_kkt, r_feas, alpha, "qp"))
    else:
        # Every break leaves the point whose residuals it just measured;
        # only the last iteration's step has not been measured yet.
        r_kkt = _kkt_residual(g, Je, Ji, nu, lam, ci, b_var, b_sign)
        r_feas = _violation_inf(ce, ci)
        if r_kkt <= TOL_KKT and r_feas <= TOL_FEAS:
            status = "optimal"
    lower = b_sign < 0.0
    mult_lower = np.zeros(n)
    mult_upper = np.zeros(n)
    mult_lower[b_var[lower]] = lam[m_u:][lower]
    mult_upper[b_var[~lower]] = lam[m_u:][~lower]
    return NlpSolution(
        status=status,
        x=x,
        objective=fval,
        mult_eq=nu,
        mult_lower=mult_lower,
        mult_upper=mult_upper,
        kkt_residual=r_kkt,
        feas_residual=r_feas,
        iterations=it,
        history=history,
        active_rows=np.empty(0, dtype=int) if warm is None else warm,
    )


def _state_split(blocks, k, n):
    """(ix, ns, at) for each index array ix of `block_groups`(labels, k)
    over n variables: the count ns of states (variables below k) that lead
    each of its blocks, and the flat positions at of the blocks' other
    variables' entries in the reduced (n - k) x (n - k) Hessian.  A solve
    splits once."""
    out = []
    for ix in blocks:
        ns = int(np.count_nonzero(ix[0] < k))
        free = ix[:, ns:] - k
        out.append((ix, ns, free[:, :, None] * (n - k) + free[:, None, :]))
    return out


class _Condensing:
    """What condensing a solve's subproblems needs that does not change
    between its iterates, built at its first subproblem.  Zero stages,
    (0, 0, 0), condense nothing: k = nc = 0, and every solve by E is empty.

    With k = N nx states and nc = N nu inputs, the dynamics rows' block on
    the states is E, unit lower block-bidiagonal: I on stage t's diagonal
    block and -A_t left of it.  `e` holds E, its identity written once and
    its -A_t blocks through the flat positions `a_at` per subproblem;
    `rhs_t` holds the transpose of [Je[:k, k:k + nc] | ce[:k]], zero but
    for the -B_t blocks (positions `b_at`) and the residuals in its last
    row.  E is solved by LAPACK trtrs on E', as `solve_triangular` solves
    a C-ordered E.  s_var and s_sign are the states' bound rows, the first
    bound rows (`qp.bound_rows`), whose finite pattern is fixed per solve.
    """

    def __init__(self, stages, b_var, b_sign):
        N, nx, nu = stages
        self.k = k = N * nx
        self.nc = N * nu
        t = np.arange(N)[:, None, None]
        rows = nx * t + np.arange(nx)[:, None]  # (N, nx, 1)
        self.e = np.eye(k)
        self.a_at = rows[1:] * k + nx * t[:-1] + np.arange(nx)  # (N-1, nx, nx)
        self.rhs_t = np.zeros((self.nc + 1, k))
        self.b_at = (nu * t + np.arange(nu)) * k + rows  # (N, nx, nu)
        state = np.searchsorted(b_var, k)
        self.s_var, self.s_sign = b_var[:state], b_sign[:state]

    def state_map(self, A, B, c):
        """(S, s0) with p[:k] = s0 + S p[k:k + nc] on the dynamics rows'
        linearization at blocks A, B and residuals c."""
        self.e.reshape(-1)[self.a_at] = -A
        self.rhs_t.reshape(-1)[self.b_at] = -B
        self.rhs_t[-1] = c
        s_s0 = -self._solve(self.rhs_t.T, trans=1)
        return s_s0[:, :-1], s_s0[:, -1]

    def solve_transposed(self, r):
        """E'^-1 r, E at the last `state_map`'s blocks."""
        return self._solve(r, trans=0)

    def _solve(self, rhs, trans):
        # E' is upper triangular: trans 1 solves E x = rhs, trans 0 E' x = rhs.
        # Zero stages pose an empty system, which LAPACK rejects.
        if not len(rhs):
            return rhs
        x, info = _trtrs(self.e.T, rhs, lower=0, trans=trans, unitdiag=1)
        if info:
            raise np.linalg.LinAlgError(f"trtrs failed with info={info}")
        return x


def _solve_subproblem(plan, hess, g, Je, ce, Ji, ci, lb, ub, warm):
    """QP step min 0.5 p'Bp + g'p s.t. Je p = -ce, Ji p <= -ci, lb <= p <= ub,
    solved with the k states condensed out through the dynamics rows
    (plan, the solve's `_Condensing`; k = 0 for zero stages, whose QP is
    the subproblem itself); Je is the equality rows' `_EqJacobian`.  B is
    block diagonal, given as hess: (ix, part, ns, at) tuples, ix (blocks,
    size) the variables of blocks of one size whose first ns are states
    (below k), each row in ascending order, part (blocks, size, size) their
    entries of B and at the flat positions of the other variables' entries
    in the reduced Hessian (`_state_split`).
    Multipliers and active rows come back numbered as in the module
    docstring.

    The dynamics rows give p[:k] = s0 + S p[k:k + nc], where s0 = -E^-1
    ce[:k] and S = -E^-1 Je[:k, k:k + nc] with E = Je[:k, :k]
    (`_Condensing`), so substituting changes only the inputs' columns of
    the reduced Hessian and of the other rows, and only the rows with a
    state entry.  A block's states are its leading variables, so each
    product of B with S, s0 or p runs per block over those states: S[states]'
    part gives the block's columns of S' B[:k], kept as rows of its
    transpose, and the blocks' state columns and rows give B[:, :k] s0 and
    B[:k] p.  The reduced Hessian,
    the one dense matrix, starts from the blocks' other entries.  The
    bounds on the states, the first bound rows, become rows over the
    remaining variables placed after the rows of Ji, so every row keeps its
    number; every other bound stays a bound.  The dynamics rows'
    multipliers follow from the states' components of stationarity,
    E' nu_s = -r_s.  Returns the solution in the full variables.
    """
    n = len(g)
    m_u = len(Ji)
    # The caller has checked every input for finite values.
    k, nc = plan.k, plan.nc
    S, s0 = plan.state_map(Je.A, Je.B, ce[:k])

    sb_t = np.zeros((n, nc))  # (S' B[:k])'
    bs0 = np.zeros(n)  # B[:, :k] s0
    H = np.zeros((n - k, n - k))
    for ix, part, ns, at in hess:
        H.reshape(-1)[at] = part[:, ns:, ns:]
        if ns:
            st = ix[:, :ns]
            sb_t[ix] = (S[st].transpose(0, 2, 1) @ part[:, :ns]).transpose(0, 2, 1)
            bs0[ix] = (part[:, :, :ns] @ s0[st][:, :, None])[:, :, 0]
    H[:nc] += sb_t[k:].T
    H[:, :nc] += sb_t[k:]
    H[:nc, :nc] += sb_t[:k].T @ S
    v = g + bs0
    f = v[k:].copy()
    f[:nc] += S.T @ v[:k]

    def eliminate(J, c, red, rhs):
        red[:] = J[:, k:]
        np.negative(c, out=rhs)
        rows = np.flatnonzero(np.any(J[:, :k], axis=1))
        if len(rows):
            js = J[rows, :k]
            red[rows, :nc] += js @ S
            rhs[rows] -= js @ s0

    # The states' bound rows, sign * p_i <= rhs (-lb_i or ub_i), become
    # sign * S_i p[k:] <= rhs - sign * s0_i after the rows of Ji.
    s_var, s_sign = plan.s_var, plan.s_sign
    A = np.zeros((m_u + len(s_var), n - k))
    b = np.empty(len(A))
    eliminate(Ji, ci, A[:m_u], b[:m_u])
    A[m_u:, :nc] = s_sign[:, None] * S[s_var]
    b[m_u:] = np.where(s_sign < 0.0, -lb[s_var], ub[s_var]) - s_sign * s0[s_var]
    C = np.empty((len(Je.J), n - k))
    d = np.empty(len(C))
    eliminate(Je.J, ce[k:], C, d)
    sol = solve_qp(H, f, A, b, C, d, warm_rows=warm, lb=lb[k:], ub=ub[k:])
    p = np.concatenate([s0 + S @ sol.x[:nc], sol.x])
    bp = np.zeros(k)  # B[:k] p
    for ix, part, ns, _ in hess:
        if ns:
            bp[ix[:, :ns]] = (part[:, :ns] @ p[ix][:, :, None])[:, :, 0]
    r_s = bp + g[:k] + Ji[:, :k].T @ sol.lam[:m_u] + Je.J[:, :k].T @ sol.nu
    r_s += np.bincount(s_var, s_sign * sol.lam[m_u : len(A)], minlength=k)
    sol.x = p
    sol.nu = np.concatenate([-plan.solve_transposed(r_s), sol.nu])
    return sol
