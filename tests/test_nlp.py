"""SQP solver tests.

Reference problems with known optima (Rosenbrock, circle-constrained linear
objective) plus a 3-step vehicle-tracking problem whose oracle is an
exhaustive input-grid search.  Each problem supplies its Lagrangian Hessian
as the solver requires; the tracking problem uses Gauss-Newton on the
dynamics, as the OBCA controller does.  The condensed subproblem (states
eliminated through the declared state rows) has the dense QP on the full
subproblem as its oracle, the block-by-block condensing has the condensing
through the whole matrix, and the per-block convexification has the
whole-matrix one.  Each toy problem's `lag_hess` returns its
Hessian as one stack of one block unless it declares `hess_blocks`.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightnav.dynamics import A_MAX, DELTA_MAX, DT, step_jacobians, step_rk4
import tightnav.nlp
from tightnav.nlp import BACKTRACK, TOL_FEAS, TOL_KKT, NlpProblem, NlpSolution, solve_nlp
from tightnav.qp import bound_rows, kkt_residuals, solve_qp

from oracles import (
    block_stacks,
    condense_dense,
    convexify_whole,
    dynamics_rows_dense,
    scatter_blocks,
)


def rosenbrock(x):
    f = (1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    g = np.array([
        -2.0 * (1 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
        200.0 * (x[1] - x[0] ** 2),
    ])
    return f, g


def rosenbrock_hess(x, nu, lam):
    return [np.array([
        [2.0 - 400.0 * (x[1] - x[0] ** 2) + 800.0 * x[0] ** 2, -400.0 * x[0]],
        [-400.0 * x[0], 200.0],
    ])[None]]


def constant_hess(h):
    """A Lagrangian Hessian callback without declared blocks: h as the one
    stack of one block."""
    return lambda x, nu, lam: [h[None]]


def whole(B, k):
    """B as the Hessian of `nlp._solve_subproblem` with k states: one block
    of every variable."""
    n = len(B)
    return tightnav.nlp._split_stacks(tightnav.nlp._state_split([np.arange(n)[None]], k, n),
                                      [B[None]])


def dense_eq(J):
    """The dense equality rows J as the solver's `_EqJacobian`."""
    return tightnav.nlp._EqJacobian(None, None, None, J)


def staged_eq(Je, stages):
    """Dense equality rows Je whose first N nx rows are dynamics rows of
    `stages` as the solver's `_EqJacobian`: the stacks read off Je."""
    N, nx, nu = stages
    k = N * nx
    A = np.array([-Je[nx * t : nx * (t + 1), nx * (t - 1) : nx * t] for t in range(1, N)])
    B = np.array([-Je[nx * t : nx * (t + 1), k + nu * t : k + nu * (t + 1)] for t in range(N)])
    A = A.reshape(N - 1, nx, nx)
    assert np.vstack([dynamics_rows_dense(stages, A, B, Je.shape[1]), Je[k:]]).tobytes() \
        == Je.tobytes()
    return tightnav.nlp._EqJacobian(stages, A, B, Je[k:])


def plan(stages, lb, ub):
    """A solve's `_Condensing` for `stages` and the bounds lb <= p <= ub."""
    b_var, b_sign, _ = bound_rows(lb, ub)
    return tightnav.nlp._Condensing(stages, b_var, b_sign)


def test_rosenbrock_unconstrained():
    prob = NlpProblem(n=2, objective=rosenbrock, lag_hess=rosenbrock_hess)
    sol = solve_nlp(prob, np.array([-1.2, 1.0]))
    assert sol.ok
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-5)


def test_circle_constrained_linear_objective():
    # min x0 + x1 s.t. ||x||^2 = 1 -> (-sqrt2/2, -sqrt2/2)
    def obj(x):
        return float(x[0] + x[1]), np.array([1.0, 1.0])

    def eq(x, jacobian=True):
        return np.array([x @ x - 1.0]), (2.0 * x).reshape(1, 2)

    def lag_hess(x, nu, lam):
        return [2.0 * nu[0] * np.eye(2)[None]]

    prob = NlpProblem(n=2, objective=obj, lag_hess=lag_hess, eq=eq)
    sol = solve_nlp(prob, np.array([0.0, -1.0]))
    assert sol.ok
    s = math.sqrt(2.0) / 2.0
    np.testing.assert_allclose(sol.x, [-s, -s], atol=1e-5)


def test_inequality_and_bounds():
    # min (x0-2)^2 + (x1+1)^2 with x0 <= 1, x1 >= 0.
    def obj(x):
        return float((x[0] - 2) ** 2 + (x[1] + 1) ** 2), np.array(
            [2 * (x[0] - 2), 2 * (x[1] + 1)]
        )

    prob = NlpProblem(n=2, objective=obj, lag_hess=constant_hess(2.0 * np.eye(2)),
                      lower=np.array([-np.inf, 0.0]),
                      upper=np.array([1.0, np.inf]))
    sol = solve_nlp(prob, np.array([0.0, 1.0]))
    assert sol.ok
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-6)
    assert sol.mult_upper[0] == pytest.approx(2.0, abs=1e-4)
    assert sol.mult_lower[1] == pytest.approx(2.0, abs=1e-4)


def test_optimal_implies_tolerances():
    prob = NlpProblem(n=2, objective=rosenbrock, lag_hess=rosenbrock_hess)
    sol = solve_nlp(prob, np.array([-1.2, 1.0]))
    assert sol.ok
    assert sol.kkt_residual <= TOL_KKT
    assert sol.feas_residual <= TOL_FEAS


def test_infeasible_subproblem_ends_the_solve():
    def obj(x):
        return float(x @ x), 2.0 * x

    def ineq(x, jacobian=True):
        # x0 >= 1 and x0 <= -1: empty.
        return np.array([1.0 - x[0], x[0] + 1.0]), np.array([[-1.0, 0.0], [1.0, 0.0]])

    prob = NlpProblem(n=2, objective=obj, lag_hess=constant_hess(2.0 * np.eye(2)),
                      ineq=ineq)
    sol = solve_nlp(prob, np.zeros(2))
    # Iteration 1's subproblem has no solution, which ends the solve before
    # any step is taken.
    assert sol.status == "infeasible"
    assert sol.iterations == 1
    assert sol.history == []
    np.testing.assert_array_equal(sol.x, np.zeros(2))


def disc_hess(x, nu, lam):
    # (x0 - 3)^2 + x1^2 plus lam0 * (x . x - 1)
    return [2.0 * (1.0 + lam[0]) * np.eye(2)[None]]


def test_merit_non_increasing_on_accepted_steps():
    def obj(x):
        return float((x[0] - 3) ** 2 + x[1] ** 2), np.array([2 * (x[0] - 3), 2 * x[1]])

    def ineq(x, jacobian=True):
        return np.array([x[0] ** 2 + x[1] ** 2 - 1.0]), (2.0 * x).reshape(1, 2)

    prob = NlpProblem(n=2, objective=obj, lag_hess=disc_hess, ineq=ineq)
    sol = solve_nlp(prob, np.array([-0.5, 0.8]))
    assert sol.ok
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-5)
    assert len(sol.history) > 0
    for rec in sol.history:
        merit_before, merit_after = rec[1], rec[2]
        assert merit_after <= merit_before + 1e-10


def test_determinism_bit_identical():
    def obj(x):
        return float((x[0] - 3) ** 2 + x[1] ** 2), np.array([2 * (x[0] - 3), 2 * x[1]])

    def ineq(x, jacobian=True):
        return np.array([x[0] ** 2 + x[1] ** 2 - 1.0]), (2.0 * x).reshape(1, 2)

    prob = NlpProblem(n=2, objective=obj, lag_hess=disc_hess, ineq=ineq)
    runs = []
    for _ in range(2):
        sol = solve_nlp(prob, np.array([-0.5, 0.8]))
        runs.append(sol)
    assert np.array_equal(runs[0].x, runs[1].x)
    assert runs[0].iterations == runs[1].iterations
    assert runs[0].history == runs[1].history


def maratos_obj(x):
    """2 (x . x - 1) - x0, the objective of Nocedal & Wright's Example 15.4."""
    return float(2.0 * (x @ x - 1.0) - x[0]), np.array([4.0 * x[0] - 1.0, 4.0 * x[1]])


def test_maratos_example_takes_every_full_step():
    """min 2 (x . x - 1) - x0 on the unit circle (Nocedal & Wright,
    *Numerical Optimization*, 2nd ed., Example 15.4): each Newton step
    raises the l1 merit, and the second-order correction lets the solve
    take a unit step every iteration.  Without it this start takes 11
    iterations and backtracks to 0.125."""
    def eq(x, jacobian=True):
        return np.array([x @ x - 1.0]), (2.0 * x).reshape(1, 2)

    def lag_hess(x, nu, lam):
        return [(4.0 + 2.0 * nu[0]) * np.eye(2)[None]]

    prob = NlpProblem(n=2, objective=maratos_obj, lag_hess=lag_hess, eq=eq)
    sol = solve_nlp(prob, np.array([math.cos(0.5), math.sin(0.5)]))
    assert sol.ok and sol.iterations == 6
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(sol.mult_eq, [-1.5], atol=1e-9)
    assert [rec[5] for rec in sol.history] == [1.0] * 5


def test_correction_starts_from_the_steps_working_set(monkeypatch):
    """The Maratos example held outside the disc by an inequality row,
    active from the start.  A subproblem solved right after a rejected full
    step, at the step's iterate (its gradient), is the correction, and its
    hint is the step QP's working set; the next iteration's hint is the
    step's working set too."""
    def ineq(x, jacobian=True):
        return np.array([1.0 - x @ x]), (-2.0 * x).reshape(1, 2)

    def lag_hess(x, nu, lam):
        return [(4.0 - 2.0 * lam[0]) * np.eye(2)[None]]

    log = []
    inner = tightnav.nlp._solve_subproblem

    def recording(*args):
        sol = inner(*args)
        log.append(("qp", args[-1], sol.active_rows, args[2].tobytes()))
        return sol

    def evaluated(x, jacobian=True):
        log.append(("eval",))
        return ineq(x, jacobian)

    monkeypatch.setattr(tightnav.nlp, "_solve_subproblem", recording)
    prob = NlpProblem(n=2, objective=maratos_obj, lag_hess=lag_hess, ineq=evaluated)
    sol = solve_nlp(prob, np.array([math.cos(0.5), math.sin(0.5)]))
    assert sol.ok
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-4)
    qps = [i for i, entry in enumerate(log) if entry[0] == "qp"]
    corrections = [i for i in qps if log[i - 1][0] == "eval" and log[i - 2][0] == "qp"
                   and log[i - 2][3] == log[i][3]]
    assert corrections
    for i in corrections:
        step = log[i - 2]
        assert len(step[2]) and np.array_equal(log[i][1], step[2])
        following = [j for j in qps if j > i]
        if following:
            assert np.array_equal(log[following[0]][1], step[2])


def test_nan_at_the_full_step_skips_the_correction():
    """A constraint whose value is NaN beyond x0 = 1 while the full steps
    overshoot there (the Hessian understates the curvature tenfold): the
    correction's QP refuses the NaN rows, so the line search backtracks
    along the step to a finite point without evaluating a correction."""
    def obj(x):
        return float((x[0] - 0.5) ** 2 + x[1] ** 2), np.array([2.0 * (x[0] - 0.5), 2.0 * x[1]])

    points = []

    def eq(x, jacobian=True):
        points.append(x.copy())
        value = np.nan if x[0] > 1.0 else x[1] - 0.1 * x[0] ** 2
        return np.array([value]), np.array([[-0.2 * x[0], 1.0]])

    prob = NlpProblem(n=2, objective=obj, lag_hess=constant_hess(0.2 * np.eye(2)), eq=eq)
    x0 = np.array([-1.0, 0.1])
    sol = solve_nlp(prob, x0)
    assert sol.ok and sol.x[0] < 1.0
    first = sol.history[0]
    assert first[5] < 1.0 and math.isfinite(first[2])
    # x0 twice, then the first iteration's trials, all on one line.
    trials = np.array(points[2:])
    p = trials[0] - x0
    assert trials[0][0] > 1.0
    n_trials = int(round(math.log(first[5], BACKTRACK))) + 1
    for j, xt in enumerate(trials[:n_trials]):
        np.testing.assert_allclose(xt, x0 + BACKTRACK ** j * p, rtol=0.0, atol=1e-12)
    assert np.all(np.isfinite(trials[n_trials - 1]))


def test_failed_line_search_stops_without_moving():
    # The gradient points uphill, so no step along the subproblem's direction
    # lowers the merit; a retry would rebuild the same subproblem.
    def obj(x):
        return float(x @ x), -2.0 * x

    prob = NlpProblem(n=2, objective=obj, lag_hess=constant_hess(2.0 * np.eye(2)))
    x0 = np.array([1.0, 1.0])
    sol = solve_nlp(prob, x0)
    assert sol.status == "max_iterations"
    assert sol.iterations == 1
    assert np.array_equal(sol.x, x0)
    assert [rec[-1] for rec in sol.history] == ["ls-fail"]


def test_non_finite_hessian_reports_numerical_failure():
    def obj(x):
        return float(x @ x), 2.0 * x

    prob = NlpProblem(n=2, objective=obj, lag_hess=constant_hess(np.full((2, 2), np.inf)))
    x0 = np.array([1.0, -0.5])
    sol = solve_nlp(prob, x0)
    assert sol.status == "numerical_failure"
    assert not sol.ok
    assert np.array_equal(sol.x, x0)


@pytest.mark.parametrize("field, value, match", [
    ("upper", np.ones(4), "upper shape"),
    ("lower", -np.ones((3, 1)), "lower shape"),
    ("lower", np.array([0.0, np.nan, -1.0]), "NaN"),
    ("upper", np.array([1.0, 1.0, np.nan]), "NaN"),
    ("lower", np.array([2.0, -1.0, -1.0]), "exceeds"),
])
def test_bounds_of_another_shape_or_nan_are_refused(field, value, match):
    """A length-4 upper bound for n = 3 used to raise numpy's broadcast
    error, a (3, 1) lower bound a TypeError, and a NaN lower bound ended
    the solve numerical_failure with a NaN x."""
    def obj(x):
        return float(x @ x), 2.0 * x

    prob = NlpProblem(n=3, objective=obj, lag_hess=constant_hess(2.0 * np.eye(3)),
                      lower=-np.ones(3), upper=np.ones(3))
    assert solve_nlp(prob, np.full(3, 0.5)).ok
    with pytest.raises(ValueError, match=match):
        solve_nlp(dataclasses.replace(prob, **{field: value}), np.full(3, 0.5))


@pytest.mark.parametrize("row", ["eq", "ineq"])
def test_nan_constraint_value_ends_in_numerical_failure(row):
    """A NaN constraint value fails every KKT test instead of dropping out
    of the residuals: from x0 = 0, where the gradient vanishes, the solve
    ends numerical_failure, not optimal with a feasibility residual of 0."""
    def obj(x):
        return float(x @ x), 2.0 * x

    def rows(x, jacobian=True):
        return np.array([np.nan]), np.array([[1.0, 0.0]])

    prob = NlpProblem(n=2, objective=obj, lag_hess=constant_hess(2.0 * np.eye(2)),
                      **{row: rows})
    sol = solve_nlp(prob, np.zeros(2))
    assert sol.status == "numerical_failure" and not sol.ok
    assert math.isnan(sol.feas_residual)
    assert np.array_equal(sol.x, np.zeros(2))
    # The complementarity term keeps a NaN too.
    b_var, b_sign, _ = bound_rows(np.zeros(2), np.full(2, np.inf))
    r = tightnav.nlp._kkt_residual(np.zeros(2), dense_eq(np.zeros((0, 2))), np.zeros((1, 2)),
                                   np.zeros(0),
                                   np.ones(3), np.array([np.nan, 0.0, 0.0]), b_var, b_sign)
    assert math.isnan(r)


# --- 3-step tracking problem vs. exhaustive input grid ----------------------

def build_tracking_nlp(z0, z_ref, n_steps, q_z, q_u, staged=False):
    """Tracking NLP over [z_1..z_N, u_0..u_{N-1}] with RK4 dynamics: as
    dense equality rows, or with `staged` as stages (N, 4, 2) and a
    `dynamics` callback, whose stacks are the dense rows' blocks."""
    nz, nu = 4, 2
    n = n_steps * (nz + nu)

    def z_at(x, t):  # t in 1..N
        return x[(t - 1) * nz : t * nz]

    def u_at(x, t):  # t in 0..N-1
        return x[n_steps * nz + t * nu : n_steps * nz + (t + 1) * nu]

    def objective(x):
        val = 0.0
        g = np.zeros(n)
        for t in range(1, n_steps + 1):
            dz = z_at(x, t) - z_ref[t]
            val += float(dz @ (q_z * dz))
            g[(t - 1) * nz : t * nz] = 2.0 * q_z * dz
        for t in range(n_steps):
            ut = u_at(x, t)
            val += float(ut @ (q_u * ut))
            g[n_steps * nz + t * nu : n_steps * nz + (t + 1) * nu] = 2.0 * q_u * ut
        return val, g

    def eq(x, jacobian=True):
        vals = np.zeros(n_steps * nz)
        jac = np.zeros((n_steps * nz, n))
        prev = z0
        for t in range(n_steps):
            ut = u_at(x, t)
            pred, jz, ju = step_jacobians(prev, ut, DT)
            rows = slice(t * nz, (t + 1) * nz)
            vals[rows] = z_at(x, t + 1) - pred
            jac[rows, t * nz : (t + 1) * nz] = np.eye(nz)
            if t > 0:
                jac[rows, (t - 1) * nz : t * nz] = -jz
            jac[rows, n_steps * nz + t * nu : n_steps * nz + (t + 1) * nu] = -ju
            prev = z_at(x, t + 1)
        return vals, jac if jacobian else None

    def dynamics(x, jacobian=True):
        zs = x[: n_steps * nz].reshape(n_steps, nz)
        us = x[n_steps * nz :].reshape(n_steps, nu)
        pred, jz, ju = step_jacobians(np.vstack([z0[None, :], zs[:-1]]), us, DT)
        return (zs - pred).ravel(), *((jz[1:], ju) if jacobian else (None, None))

    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    for t in range(n_steps):
        j = n_steps * nz + t * nu
        lo[j], hi[j] = -DELTA_MAX, DELTA_MAX
        lo[j + 1], hi[j + 1] = -A_MAX, A_MAX
    # Exact objective Hessian; the dynamics rows are Gauss-Newton.
    h_obj = np.diag(np.concatenate([np.tile(2.0 * q_z, n_steps), np.tile(2.0 * q_u, n_steps)]))
    prob = NlpProblem(n=n, objective=objective, lag_hess=constant_hess(h_obj), eq=eq,
                      lower=lo, upper=hi)
    if staged:
        prob = dataclasses.replace(prob, eq=None, stages=(n_steps, nz, nu), dynamics=dynamics)
    return prob, z_at, u_at


def rollout_cost(z0, us, z_ref, q_z, q_u):
    z = z0
    total = 0.0
    for t, u in enumerate(us, start=1):
        z = step_rk4(z, np.asarray(u), DT)
        dz = z - z_ref[t]
        total += float(dz @ (q_z * dz)) + float(np.asarray(u) @ (q_u * np.asarray(u)))
    return total


def test_three_step_mpc_matches_grid_oracle():
    n_steps = 3
    q_z = np.array([1.0, 1.0, 1.0, 10.0])
    q_u = np.array([1.0, 1.0])
    z0 = np.array([0.0, 0.0, 0.0, 0.5])
    # Reference asks for a gentle speed-up along x and a small lateral shift.
    z_ref = np.array([[0.06 * t, 0.01 * t, 0.0, 0.8] for t in range(n_steps + 1)])

    prob, z_at, u_at = build_tracking_nlp(z0, z_ref, n_steps, q_z, q_u)
    x0 = np.zeros(prob.n)
    prev = z0
    for t in range(n_steps):
        x0[t * 4 : (t + 1) * 4] = prev
    sol = solve_nlp(prob, x0)
    assert sol.ok

    deltas = np.linspace(-DELTA_MAX, DELTA_MAX, 5)
    accs = np.linspace(-A_MAX, A_MAX, 5)
    grid = [(d, a) for d in deltas for a in accs]
    best_cost, best_seq = np.inf, None
    for seq in itertools.product(grid, repeat=n_steps):
        c = rollout_cost(z0, seq, z_ref, q_z, q_u)
        if c < best_cost:
            best_cost, best_seq = c, seq

    # The NLP optimum can only improve on the best grid point.
    assert sol.objective <= best_cost + 1e-9
    # And it lies within one grid cell of the best grid sequence.
    d_spacing = deltas[1] - deltas[0]
    a_spacing = accs[1] - accs[0]
    for t in range(n_steps):
        u_nlp = u_at(sol.x, t)
        assert abs(u_nlp[0] - best_seq[t][0]) <= d_spacing + 1e-9
        assert abs(u_nlp[1] - best_seq[t][1]) <= a_spacing + 1e-9


# --- warm-start hints ---------------------------------------------------------

def inequality_row_count(prob: NlpProblem, x) -> int:
    """Rows of `ineq`, then the finite lower bounds, then the finite upper bounds."""
    m = len(prob.ineq(x)[0]) if prob.ineq is not None else 0
    for bound in (prob.lower, prob.upper):
        if bound is not None:
            m += int(np.sum(np.isfinite(bound)))
    return m


def hinted_problems():
    """(problem, x0) for problems above that have inequality rows, each
    with some of them active at the solution."""
    def box_obj(x):
        return float((x[0] - 2) ** 2 + (x[1] + 1) ** 2), np.array(
            [2 * (x[0] - 2), 2 * (x[1] + 1)])

    box = NlpProblem(n=2, objective=box_obj, lag_hess=constant_hess(2.0 * np.eye(2)),
                     lower=np.array([-np.inf, 0.0]), upper=np.array([1.0, np.inf]))

    def disc_obj(x):
        return float((x[0] - 3) ** 2 + x[1] ** 2), np.array([2 * (x[0] - 3), 2 * x[1]])

    def disc_ineq(x, jacobian=True):
        return np.array([x[0] ** 2 + x[1] ** 2 - 1.0]), (2.0 * x).reshape(1, 2)

    disc = NlpProblem(n=2, objective=disc_obj, lag_hess=disc_hess, ineq=disc_ineq)
    # A reference speed out of reach saturates the acceleration bounds.
    z_ref = np.array([[0.06 * t, 0.2 * t, 0.0, 3.0] for t in range(4)])
    tracking, _, _ = build_tracking_nlp(np.array([0.0, 0.0, 0.0, 0.5]), z_ref, 3,
                                        np.array([1.0, 1.0, 1.0, 10.0]), np.ones(2))
    return [(box, np.array([0.0, 1.0])), (disc, np.array([-0.5, 0.8])),
            (tracking, np.zeros(tracking.n))]


@pytest.mark.parametrize("case", range(3))
def test_warm_rows_change_work_not_answer(case):
    prob, x0 = hinted_problems()[case]
    cold = solve_nlp(prob, x0)
    assert cold.ok and len(cold.active_rows) > 0
    m = inequality_row_count(prob, x0)
    garbage = np.concatenate([cold.active_rows, cold.active_rows, [-1, m, m + 7],
                              np.arange(m)])
    for hint in (cold.active_rows, garbage, np.empty(0, dtype=int)):
        warm = solve_nlp(prob, x0, warm_rows=hint)
        assert warm.status == cold.status
        np.testing.assert_allclose(warm.x, cold.x, rtol=0.0, atol=1e-8)
        assert np.all((warm.active_rows >= 0) & (warm.active_rows < m))


def test_first_subproblem_receives_hint(monkeypatch):
    prob, x0 = hinted_problems()[2]
    cold = solve_nlp(prob, x0)
    seen = []
    solve_qp = tightnav.nlp.solve_qp

    def recording(*args, **kwargs):
        seen.append(kwargs.get("warm_rows"))
        return solve_qp(*args, **kwargs)

    monkeypatch.setattr(tightnav.nlp, "solve_qp", recording)
    solve_nlp(prob, x0, warm_rows=cold.active_rows)
    assert np.array_equal(seen[0], cold.active_rows)
    seen.clear()
    solve_nlp(prob, x0)
    assert seen[0] is None


def test_active_rows_echo_hint_when_no_subproblem_runs():
    # Started at the unconstrained optimum inside the box, the solve stops
    # before building a subproblem and hands the hint back unchanged.
    def obj(x):
        return float((x[0] - 0.5) ** 2 + x[1] ** 2), np.array([2 * (x[0] - 0.5), 2 * x[1]])

    prob = NlpProblem(n=2, objective=obj, lag_hess=constant_hess(2.0 * np.eye(2)),
                      lower=np.zeros(2) - 1.0, upper=np.ones(2))
    x0 = np.array([0.5, 0.0])
    sol = solve_nlp(prob, x0, warm_rows=np.array([3, 1]))
    assert sol.ok and sol.iterations == 1
    assert np.array_equal(sol.active_rows, [3, 1])
    assert solve_nlp(prob, x0).active_rows.size == 0


# --- condensing the state rows ------------------------------------------------

def shooting_subproblem(rng, n_steps=5, nx=3, nu=2, n_extra=6):
    """Random multiple-shooting subproblem in the solver's form.

    Variables [x_1..x_N | u_0..u_{N-1} | extra]; the first nx * N equality
    rows are the linearized dynamics x_{t+1} = A_t x_t + B_t u_t + c_t, then
    two pair-like rows that couple one state's entries to the extras.
    Inequalities: general rows on states and extras, then each variable's
    lower and upper bound, numbered as `qp.bound_rows` numbers them.  A
    known point satisfies every row, most inequalities with
    slack, so some rows end up active and others not.
    Returns (B, g, Je, ce, Ji, ci, stages).
    """
    k = nx * n_steps
    n = k + nu * n_steps + n_extra
    p_feas = rng.normal(size=n)
    m = rng.normal(size=(n, n))
    B = m @ m.T / n + np.eye(n)
    g = 3.0 * rng.normal(size=n)
    dyn = np.zeros((k, n))
    for t in range(n_steps):
        rows = slice(t * nx, (t + 1) * nx)
        dyn[rows, t * nx : (t + 1) * nx] = np.eye(nx)
        if t:
            dyn[rows, (t - 1) * nx : t * nx] = -(np.eye(nx) + 0.1 * rng.normal(size=(nx, nx)))
        dyn[rows, k + t * nu : k + (t + 1) * nu] = -rng.normal(size=(nx, nu))
    pair = np.zeros((2, n))
    pair[:, nx * (n_steps // 2) : nx * (n_steps // 2) + nx] = rng.normal(size=(2, nx))
    pair[:, n - n_extra :] = rng.normal(size=(2, n_extra))
    Je = np.vstack([dyn, pair])
    ce = -Je @ p_feas
    general = np.zeros((6, n))
    general[:, :k] = rng.normal(size=(6, k))
    general[3:, n - n_extra :] = rng.normal(size=(3, n_extra))
    Ji = np.vstack([general, -np.eye(n), np.eye(n)])
    slack = rng.uniform(0.0, 0.5, size=len(Ji))
    ci = -Ji @ p_feas - slack
    # Bound row j of `bound_rows` is row var[j] of -eye(n) or of eye(n).
    var, sign, _ = bound_rows(np.zeros(n), np.zeros(n))
    order = np.concatenate([np.arange(6), 6 + np.where(sign < 0.0, var, n + var)])
    return B, g, Je, ce, Ji[order], ci[order], (n_steps, nx, nu)


@pytest.mark.parametrize("seed", range(8))
def test_condensed_subproblem_matches_full_qp(seed):
    B, g, Je, ce, Ji, ci, stages = shooting_subproblem(np.random.default_rng(seed))
    full = solve_qp(B, g, Ji, -ci, Je, -ce)
    # Ji ends with each variable's lower and upper bound rows.
    n = len(g)
    m = len(ci) - 2 * n
    lb, ub = ci[m::2], -ci[m + 1 :: 2]
    k = stages[0] * stages[1]
    assert full.ok and len(full.active_rows) > 0
    for warm in (None, full.active_rows):
        cond = tightnav.nlp._solve_subproblem(plan(stages, lb, ub), whole(B, k), g,
                                              staged_eq(Je, stages), ce, Ji[:m], ci[:m], lb, ub,
                                              warm)
        assert cond.ok
        np.testing.assert_array_equal(cond.active_rows, full.active_rows)
        for got, want in ((cond.x, full.x), (cond.lam, full.lam), (cond.nu, full.nu)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
        assert max(kkt_residuals(B, g, Ji, -ci, Je, -ce, cond)) < 1e-8
        values = [0.5 * sol.x @ (B @ sol.x) + g @ sol.x for sol in (cond, full)]
        assert values[0] == pytest.approx(values[1], rel=1e-12)


def stage_block_subproblem(rng):
    """Random staged subproblem whose Hessian has stage blocks.

    stages (N, nx, nu) of up to 4 stages lead the variables: the N nx
    states, each stage's in one block that also holds some of the other
    variables, and the N nu inputs, which lie in those blocks or in up to
    three more that hold no state, as do the extra variables.  The blocks'
    labels are shuffled, and every block is positive definite.  The
    dynamics stacks A and B are random, and some of B's input columns are
    zero (an input that does not move the state, as steering at a
    standstill).  Other equality and inequality rows touch states and the
    rest; a known point satisfies every row and bound.  Returns (labels,
    B, g, stages, eq, Je, ce, Ji, ci, lb, ub, warm) with B the whole
    matrix, eq the solver's `_EqJacobian` and Je its dense rows.
    """
    stages = N, nx, nu = tuple(int(v) for v in rng.integers(1, [5, 4, 3], endpoint=True))
    k, nc = N * nx, N * nu
    n_rest = nc + int(rng.integers(0, 5))
    n_free = min(int(rng.integers(1, 4)), n_rest)
    names = rng.permutation(N + n_free)
    labels = np.empty(k + n_rest, dtype=int)
    labels[:k] = np.repeat(names[:N], nx)
    # Each remaining variable joins a stage block or a stateless block, and
    # every stateless block gets one at least.
    labels[k:] = rng.choice(names, n_rest)
    labels[k + rng.permutation(n_rest)[:n_free]] = names[N:]
    n = len(labels)
    B = np.zeros((n, n))
    for name in names:
        ix = np.flatnonzero(labels == name)
        a = rng.normal(size=(len(ix), len(ix)))
        B[np.ix_(ix, ix)] = a @ a.T / max(len(ix), 1) + np.eye(len(ix))
    p_feas = rng.normal(size=n)
    me, mi = int(rng.integers(0, 3)), int(rng.integers(0, 5))
    A_st = np.eye(nx) + rng.normal(0.0, 0.5, (N - 1, nx, nx))
    B_st = rng.normal(size=(N, nx, nu)) * (rng.random((N, 1, nu)) < 0.8)
    J_other = rng.normal(size=(me, n)) * (rng.random((me, n)) < 0.7)
    eq = tightnav.nlp._EqJacobian(stages, A_st, B_st, J_other)
    Je = np.vstack([dynamics_rows_dense(stages, A_st, B_st, n), J_other])
    ce = -Je @ p_feas
    Ji = rng.normal(size=(mi, n)) * (rng.random((mi, n)) < 0.7)
    ci = -Ji @ p_feas - rng.uniform(0.0, 0.5, mi)
    lb = np.where(rng.random(n) < 0.5, p_feas - rng.uniform(0.0, 1.0, n), -np.inf)
    ub = np.where(rng.random(n) < 0.5, p_feas + rng.uniform(0.0, 1.0, n), np.inf)
    m = mi + int(np.isfinite(lb).sum() + np.isfinite(ub).sum())
    warm = None if rng.random() < 0.3 else rng.choice(max(m, 1), int(rng.integers(0, m + 1)))
    return labels, B, 3.0 * rng.normal(size=n), stages, eq, Je, ce, Ji, ci, lb, ub, warm


def assert_relatively_close(got, want):
    """got equals want to 1e-13 of want's largest magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0.0,
                               atol=1e-13 * np.abs(want).max(initial=0.0))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_block_condensing_matches_the_dense_oracle(seed):
    """`_solve_subproblem`, fed the dynamics rows as (A, B) stacks, hands
    the QP the data that condensing the same rows scattered into a dense
    Je through the whole matrix gives, and recovers the same step and state
    multipliers from the same QP solution."""
    labels, B, g, stages, eq, Je, ce, Ji, ci, lb, ub, warm = stage_block_subproblem(
        np.random.default_rng(seed))
    k = stages[0] * stages[1]
    groups = tightnav.nlp.block_groups(labels)
    hess = tightnav.nlp._split_stacks(tightnav.nlp._state_split(groups, k, len(g)),
                                      block_stacks(B, groups))
    qps = []

    def recording(*args, **kwargs):
        sol = solve_qp(*args, **kwargs)
        qps.append((args, kwargs, dataclasses.replace(sol)))
        return sol

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tightnav.nlp, "solve_qp", recording)
        got = tightnav.nlp._solve_subproblem(plan(stages, lb, ub), hess, g, eq, ce, Ji, ci,
                                             lb, ub, warm)
    (args, kwargs, raw), = qps

    def replay(*want_args, **want_kwargs):
        qps.append((want_args, want_kwargs, raw))
        return dataclasses.replace(raw)

    want = condense_dense(B, g, Je, ce, Ji, ci, lb, ub, k, warm, solve=replay)
    want_args, want_kwargs, _ = qps[1]
    for a, b in zip(args, want_args, strict=True):
        assert_relatively_close(a, b)
    assert kwargs.keys() == want_kwargs.keys()
    for key in ("lb", "ub"):
        np.testing.assert_array_equal(kwargs[key], want_kwargs[key])
    assert kwargs["warm_rows"] is warm and want_kwargs["warm_rows"] is warm
    assert_relatively_close(got.x, want.x)
    assert_relatively_close(got.nu, want.nu)


def test_condensed_tracking_solve_matches_uncondensed():
    z_ref = np.array([[0.06 * t, 0.2 * t, 0.0, 3.0] for t in range(4)])
    args = (np.array([0.0, 0.0, 0.0, 0.5]), z_ref, 3, np.array([1.0, 1.0, 1.0, 10.0]), np.ones(2))
    plain, _, _ = build_tracking_nlp(*args)
    condensed, _, _ = build_tracking_nlp(*args, staged=True)
    assert plain.stages is None and condensed.stages == (3, 4, 2)
    x0 = np.zeros(plain.n)
    want = solve_nlp(plain, x0)
    got = solve_nlp(condensed, x0)
    assert want.ok
    assert got.status == want.status and got.iterations == want.iterations
    np.testing.assert_allclose(got.x, want.x, rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(got.mult_eq, want.mult_eq, rtol=0.0, atol=1e-6)
    again = solve_nlp(condensed, x0)
    assert np.array_equal(again.x, got.x)
    assert again.history == got.history
    assert np.array_equal(again.mult_eq, got.mult_eq)


def tampered_dynamics(prob, change):
    """prob with its dynamics callback's (residual, A, B) passed through
    change; without Jacobians the stacks stay None."""
    def dynamics(x, jacobian=True):
        r, A, B = change(*prob.dynamics(x, True))
        return (r, A, B) if jacobian else (r, None, None)
    return dataclasses.replace(prob, dynamics=dynamics)


@pytest.mark.parametrize("change", [
    lambda r, A, B: (r, A[1:], B),
    lambda r, A, B: (r, np.concatenate([A, A[:1]]), B),
    lambda r, A, B: (r, A, B[1:]),
    lambda r, A, B: (r, A[:, :3], B),
    lambda r, A, B: (r, A, B[:, :, :1]),
    lambda r, A, B: (r, A.transpose(1, 0, 2), B),
    lambda r, A, B: (r, A, B.transpose(0, 2, 1)),
    lambda r, A, B: (r[1:], A, B),
], ids=["A-short", "A-long", "B-short", "A-size", "B-size", "A-axes", "B-axes", "residual"])
def test_dynamics_stacks_must_match_the_stages(change):
    z_ref = np.array([[0.06 * t, 0.01 * t, 0.0, 0.8] for t in range(4)])
    prob, _, _ = build_tracking_nlp(np.array([0.0, 0.0, 0.0, 0.5]), z_ref, 3,
                                    np.ones(4), np.ones(2), staged=True)
    x0 = np.zeros(prob.n)
    assert solve_nlp(prob, x0).ok
    with pytest.raises(ValueError, match="dynamics"):
        solve_nlp(tampered_dynamics(prob, change), x0)


@pytest.mark.parametrize("stages", [(3, 4, 3), (4, 4, 2), (3, 5, 2), (0, 4, 2), (3, 0, 2),
                                    (3, -4, 2), (3, 4), (3.0, 4, 2), (True, 4, 2)])
def test_stages_must_fit_the_variables(stages):
    z_ref = np.array([[0.06 * t, 0.01 * t, 0.0, 0.8] for t in range(4)])
    prob, _, _ = build_tracking_nlp(np.array([0.0, 0.0, 0.0, 0.5]), z_ref, 3,
                                    np.ones(4), np.ones(2), staged=True)
    # n = 18 holds (3, 4, 2): N (nx + nu) > n and non-positive or
    # non-integer entries are refused before any evaluation.
    with pytest.raises(ValueError, match="stages"):
        solve_nlp(dataclasses.replace(prob, stages=stages), np.zeros(prob.n))


def test_stages_and_dynamics_come_together():
    z_ref = np.array([[0.06 * t, 0.01 * t, 0.0, 0.8] for t in range(4)])
    prob, _, _ = build_tracking_nlp(np.array([0.0, 0.0, 0.0, 0.5]), z_ref, 3,
                                    np.ones(4), np.ones(2), staged=True)
    for broken in (dataclasses.replace(prob, dynamics=None),
                   dataclasses.replace(prob, stages=None)):
        with pytest.raises(ValueError, match="together"):
            solve_nlp(broken, np.zeros(prob.n))


def test_every_condensed_subproblem_reaches_module_solve_qp(monkeypatch):
    z_ref = np.array([[0.06 * t, 0.2 * t, 0.0, 3.0] for t in range(4)])
    prob, _, _ = build_tracking_nlp(np.array([0.0, 0.0, 0.0, 0.5]), z_ref, 3,
                                    np.array([1.0, 1.0, 1.0, 10.0]), np.ones(2), staged=True)
    sizes = []

    def counting(H, *args, **kwargs):
        sizes.append(len(H))
        return solve_qp(H, *args, **kwargs)

    monkeypatch.setattr(tightnav.nlp, "solve_qp", counting)
    sol = solve_nlp(prob, np.zeros(prob.n))
    assert sol.ok
    kinds = [rec[-1] for rec in sol.history]
    assert set(kinds) == {"qp"}
    assert len(sizes) == len(kinds) > 1
    # The QP sees only the inputs.
    assert set(sizes) == {prob.n - 12}


def speed_bounded_tracking():
    """(prob, k): a condensed tracking NLP with speed bounds on its k
    states, input bounds, and one general row per stage keeping the lateral
    position below 0.05."""
    z_ref = np.array([[0.06 * t, 0.2 * t, 0.0, 3.0] for t in range(4)])
    prob, _, _ = build_tracking_nlp(np.array([0.0, 0.0, 0.0, 0.5]), z_ref, 3,
                                    np.array([1.0, 1.0, 1.0, 10.0]), np.ones(2), staged=True)
    k = 12
    lo, hi = prob.lower.copy(), prob.upper.copy()
    lo[3:k:4], hi[3:k:4] = 0.0, 0.7

    def lateral(x, jacobian=True):
        jac = np.zeros((3, prob.n))
        jac[np.arange(3), np.arange(1, k, 4)] = 1.0
        return x[1:k:4] - 0.05, jac

    return dataclasses.replace(prob, lower=lo, upper=hi, ineq=lateral), k


def test_each_point_is_evaluated_once():
    # x0 reaches the constraint callbacks twice: without Jacobians for the
    # first KKT test, then with them for the first subproblem.  The accepted
    # trial's evaluation is the next iterate's, so every other point reaches
    # them once, with Jacobians, and the iterates are those of an unrecorded
    # rerun.  This solve rejects most full steps and accepts their
    # second-order corrections instead.
    n_steps = 8
    z_ref = np.array([[0.1 * t, 0.5 * t, 0.0, 3.0] for t in range(n_steps + 1)])
    prob, _, _ = build_tracking_nlp(np.array([0.0, 0.0, 0.0, 0.5]), z_ref, n_steps,
                                    np.array([1.0, 1.0, 1.0, 10.0]), np.ones(2), staged=True)
    points = []

    def dynamics(x, jacobian=True):
        points.append((x.tobytes(), jacobian))
        return prob.dynamics(x, jacobian)

    x0 = np.zeros(prob.n)
    sol = solve_nlp(dataclasses.replace(prob, dynamics=dynamics), x0)
    assert sol.ok and len(points) > sol.iterations + 5
    assert points[:2] == [(x0.tobytes(), False), (x0.tobytes(), True)]
    assert all(jacobian for _, jacobian in points[1:])
    assert len({x for x, _ in points[1:]}) == len(points) - 1
    again = solve_nlp(prob, x0)
    assert np.array_equal(again.x, sol.x)
    assert again.history == sol.history


def test_first_kkt_test_reads_the_gradient_alone():
    """x0's multipliers are zero, so the first test's residual, the first
    history record's, is `_kkt_residual` with zero multipliers at x0's full
    evaluation, bit for bit: max |g|."""
    prob, _ = speed_bounded_tracking()
    x0 = np.zeros(prob.n)
    sol = solve_nlp(prob, x0)
    assert sol.ok and sol.iterations > 1
    _, g = prob.objective(x0)
    ce, A, B = prob.dynamics(x0)
    Je = tightnav.nlp._EqJacobian(prob.stages, A, B, np.zeros((0, prob.n)))
    ci, Ji = prob.ineq(x0)
    b_var, b_sign, b_rhs = bound_rows(prob.lower, prob.upper)
    ci = np.concatenate([ci, b_sign * x0[b_var] - b_rhs])
    want = tightnav.nlp._kkt_residual(g, Je, Ji, np.zeros(len(ce)), np.zeros(len(ci)), ci,
                                      b_var, b_sign)
    assert want > TOL_KKT
    assert sol.history[0][3].hex() == want.hex() == float(np.max(np.abs(g))).hex()
    rng = np.random.default_rng(4)
    for n, me, mi in ((1, 0, 0), (6, 2, 3), (9, 4, 0), (5, 0, 7)):
        g = rng.normal(size=n) * 10.0 ** rng.integers(-8, 3, n)
        lo = np.where(rng.random(n) < 0.5, -1.0, -np.inf)
        b_var, b_sign, b_rhs = bound_rows(lo, np.where(rng.random(n) < 0.5, 1.0, np.inf))
        ci = rng.normal(size=mi + len(b_var))
        want = tightnav.nlp._kkt_residual(g, dense_eq(rng.normal(size=(me, n))),
                                          rng.normal(size=(mi, n)), np.zeros(me),
                                          np.zeros(len(ci)), ci, b_var, b_sign)
        assert float(np.max(np.abs(g))).hex() == want.hex()


def test_subproblems_pass_bounds_as_bounds(monkeypatch):
    prob, k = speed_bounded_tracking()
    lo, hi = prob.lower, prob.upper
    calls = []

    def recording(H, f, A, b, C, d, warm_rows=None, lb=None, ub=None):
        calls.append((A, lb, ub))
        return solve_qp(H, f, A, b, C, d, warm_rows=warm_rows, lb=lb, ub=ub)

    monkeypatch.setattr(tightnav.nlp, "solve_qp", recording)
    sol = solve_nlp(prob, np.zeros(prob.n))
    assert sol.ok and len(calls) > 1
    # Some speed bound and some input bound end up active.
    bound_vars = bound_rows(lo, hi)[0]
    active_vars = bound_vars[sol.active_rows[sol.active_rows >= 3] - 3]
    assert np.any(active_vars < k) and np.any(active_vars >= k)
    n_speed = 2 * 3
    for A, lb, ub in calls:
        np.testing.assert_array_equal(np.isfinite(lb), np.isfinite(lo[k:]))
        np.testing.assert_array_equal(np.isfinite(ub), np.isfinite(hi[k:]))
        # The general rows, then the condensed speed bounds, and no bound on
        # a remaining variable as a unit row.
        assert A.shape == (3 + n_speed, prob.n - k)
        single = np.count_nonzero(A, axis=1) == 1
        assert not np.any(single & (np.max(np.abs(A), axis=1) == 1.0))


def test_condensed_hints_reach_the_qp_unchanged(monkeypatch):
    prob, k = speed_bounded_tracking()
    # A cold solve's working set, which holds state and input bounds, and
    # one general row.
    hint = np.union1d(solve_nlp(prob, np.zeros(prob.n)).active_rows, [1])
    hinted_vars = bound_rows(prob.lower, prob.upper)[0][hint[hint >= 3] - 3]
    assert np.any(hint < 3) and np.any(hinted_vars < k) and np.any(hinted_vars >= k)
    hints, qp_calls = [], []
    solve_subproblem = tightnav.nlp._solve_subproblem

    def recording_subproblem(*args):
        hints.append(args[-1])
        return solve_subproblem(*args)

    def recording_qp(*args, **kwargs):
        sol = solve_qp(*args, **kwargs)
        qp_calls.append((kwargs["warm_rows"], sol.active_rows))
        return sol

    monkeypatch.setattr(tightnav.nlp, "_solve_subproblem", recording_subproblem)
    monkeypatch.setattr(tightnav.nlp, "solve_qp", recording_qp)
    sol = solve_nlp(prob, np.zeros(prob.n), warm_rows=hint)
    assert sol.ok and {kind for *_, kind in sol.history} == {"qp"}
    np.testing.assert_array_equal(hints[0], hint)
    # Each hint reaches the QP as it is, and each QP working set comes back
    # as it is as the next subproblem's hint (the solution's, for the last).
    for i, (warm, active) in enumerate(qp_calls):
        np.testing.assert_array_equal(warm, hints[i])
        nxt = hints[i + 1] if i + 1 < len(hints) else sol.active_rows
        np.testing.assert_array_equal(nxt, active)


# --- block-diagonal convexification against the whole-matrix oracle ---------

BLOCK_SIZES = (1, 4, 1, 12, 40, 4, 12, 1)


def block_hessian(rng, kind):
    """(h, labels): a random Hessian, block diagonal over shuffled variables
    with sizes BLOCK_SIZES and slightly unsymmetric inside the blocks, built
    for one path of the convexification.

    "definite" passes as it is.  The others need the eigenvalue flip:
    "eigen" has one negative direction that mixes the variables of the
    largest block, "eigen-bare" has negative curvature of depth 5 along
    three bare coordinate axes, "eigen-deep" the same at depth 500 or 5e4,
    and "eigen-1x1" is definite but for one slightly negative 1 x 1 block.
    """
    n = sum(BLOCK_SIZES)
    labels = np.repeat(rng.permutation(len(BLOCK_SIZES)) * 7 - 3, BLOCK_SIZES)
    labels = labels[rng.permutation(n)]
    h = np.zeros((n, n))
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        a = rng.normal(size=(len(idx), len(idx)))
        h[np.ix_(idx, idx)] = a @ a.T / len(idx) + 0.5 * np.eye(len(idx)) + 1e-3 * (a - a.T)
    if kind == "definite":
        return h, labels
    if kind == "eigen-1x1":
        single = np.flatnonzero(np.bincount(labels + 3)[labels + 3] == 1)
        h[single[0], single[0]] = -0.3
        return h, labels
    if kind == "eigen":
        idx = np.flatnonzero(np.bincount(labels + 3)[labels + 3] == max(BLOCK_SIZES))
        u = rng.normal(size=len(idx))
        u /= np.linalg.norm(u)
        h[np.ix_(idx, idx)] -= 10.0 * np.outer(u, u)
        return h, labels
    neg = rng.choice(n, size=3, replace=False)
    h[neg, neg] -= 5.0 if kind == "eigen-bare" else rng.choice([500.0, 5e4])
    return h, labels


def convexify_dense(h, groups):
    """`nlp._convexify` on the stacks of h's blocks `groups` (None for one
    block of every variable), scattered back to an n x n matrix."""
    groups = [np.arange(len(h))[None]] if groups is None else groups
    parts = tightnav.nlp._convexify(block_stacks(h, groups))
    return scatter_blocks(zip(groups, parts), len(h))


def convexify_path(fn, monkeypatch):
    """(matrix, whether an eigendecomposition ran) of fn()."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    out = fn()
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return out, bool(calls)


@pytest.mark.parametrize("kind", ["definite", "eigen-deep", "eigen", "eigen-bare",
                                  "eigen-1x1"])
@pytest.mark.parametrize("seed", range(5))
def test_block_convexify_matches_whole_matrix_oracle(kind, seed, monkeypatch):
    rng = np.random.default_rng(100 + seed)
    h, labels = block_hessian(rng, kind)
    want, want_eigen = convexify_path(lambda: convexify_whole(h), monkeypatch)
    floored = 0.5 * (h + h.T) + 1e-6 * np.eye(len(h))
    # The case reaches the path it was built for.
    assert want_eigen == kind.startswith("eigen")
    assert np.array_equal(want, floored) == (kind == "definite")
    blocks = tightnav.nlp.block_groups(labels)
    assert sorted(ix.shape[1] for ix in blocks for _ in ix) == sorted(BLOCK_SIZES)
    for declared in (blocks, None):
        got, got_eigen = convexify_path(
            lambda: convexify_dense(h, declared), monkeypatch)
        assert got_eigen == want_eigen
        if want_eigen:
            assert np.all(np.linalg.eigvalsh(got) > 0.0)
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=1e-10 * np.linalg.norm(h, 2))
            if declared is not None:
                assert not got[labels[:, None] != labels[None, :]].any()
        else:
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_flip_decomposes_only_the_groups_near_or_below_the_floor(monkeypatch):
    # Three size groups: 2 x 2 blocks well above the floor, 3 x 3 blocks
    # with one negative direction, and 1 x 1 blocks at half the floor,
    # which pass the shifted test but not the kept one.
    rng = np.random.default_rng(7)
    sizes = (2, 2, 3, 3, 1, 1)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    n = len(labels)
    h = np.zeros((n, n))
    for label, size in enumerate(sizes):
        idx = np.flatnonzero(labels == label)
        a = rng.normal(size=(size, size))
        h[np.ix_(idx, idx)] = a @ a.T + 0.5 * np.eye(size)
        if size == 3:
            h[idx[0], idx[0]] = -4.0
        if size == 1:
            h[idx[0], idx[0]] = 0.5 * tightnav.nlp.FLOOR
    perm = rng.permutation(n)
    h, labels = h[np.ix_(perm, perm)], labels[perm]
    want, _ = convexify_path(lambda: convexify_whole(h), monkeypatch)
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    got = convexify_dense(h, tightnav.nlp.block_groups(labels))
    assert sorted(calls) == [(2, 1, 1), (2, 3, 3)]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())
    kept = labels == labels[perm == 0][0]
    np.testing.assert_array_equal(got[np.ix_(kept, kept)], 0.5 * (h + h.T)[np.ix_(kept, kept)])


def test_tangent_definite_hessian_takes_the_eigen_flip(monkeypatch):
    # min -x0 x1 s.t. x0 + x1 = 2: the Hessian [[0, -1], [-1, 0]] is
    # indefinite but positive definite on the constraint's tangent (1, -1).
    # Started feasible, the solver has no curvature rule but the flip, and
    # the flipped model still reaches the optimum (1, 1).
    prob = NlpProblem(
        n=2,
        objective=lambda x: (float(-x[0] * x[1]), np.array([-x[1], -x[0]])),
        lag_hess=constant_hess(np.array([[0.0, -1.0], [-1.0, 0.0]])),
        eq=lambda x, jacobian=True: (np.array([x[0] + x[1] - 2.0]), np.array([[1.0, 1.0]])),
    )
    sol, flipped = convexify_path(lambda: solve_nlp(prob, np.array([0.5, 1.5])),
                                  monkeypatch)
    assert sol.ok and sol.iterations <= 5
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-8)
    assert flipped


def test_block_groups_cover_each_label_once():
    labels = np.array([5, -1, 5, 2, 2, 5, 9, -1])
    groups = tightnav.nlp.block_groups(labels)
    assert [ix.shape for ix in groups] == [(1, 1), (2, 2), (1, 3)]
    blocks = [row.tolist() for ix in groups for row in ix]
    assert sorted(blocks) == [[0, 2, 5], [1, 7], [3, 4], [6]]


def test_entry_outside_declared_blocks_raises():
    """A Hessian with an entry outside the declared blocks can reach the
    solver only as stacks shaped for other blocks, which raise ValueError,
    as do stacks of the wrong count, block count or size."""
    prob = NlpProblem(n=2, objective=rosenbrock, lag_hess=rosenbrock_hess)
    x0 = np.array([-1.2, 1.0])
    # Rosenbrock's Hessian couples its two variables: one 2 x 2 stack where
    # [0, 1] declares two 1 x 1 blocks.
    with pytest.raises(ValueError, match="hess_blocks"):
        solve_nlp(dataclasses.replace(prob, hess_blocks=np.array([0, 1])), x0)
    with pytest.raises(ValueError, match="hess_blocks"):
        solve_nlp(dataclasses.replace(prob, hess_blocks=np.zeros(3, dtype=int)), x0)
    rng = np.random.default_rng(3)
    h, labels = block_hessian(rng, "definite")
    groups = tightnav.nlp.block_groups(labels)
    stacks = block_stacks(h, groups)
    wrong = [stacks[:-1], stacks + stacks[:1], [stacks[0][:-1]] + stacks[1:],
             stacks[:1] + [stacks[1][:, :-1, :-1]] + stacks[2:],
             [s.transpose(1, 0, 2) for s in stacks], [scatter_blocks(zip(groups, stacks), len(h))]]
    sym = 0.5 * (h + h.T)
    right = NlpProblem(n=len(h), objective=lambda x: (0.5 * x @ sym @ x - x.sum(), sym @ x - 1.0),
                       lag_hess=lambda x, nu, lam: stacks, hess_blocks=labels)
    assert solve_nlp(right, np.zeros(len(h))).ok
    for bad in wrong:
        with pytest.raises(ValueError, match="hess_blocks"):
            solve_nlp(dataclasses.replace(right, lag_hess=lambda x, nu, lam, bad=bad: bad),
                      np.zeros(len(h)))
    # One block holding both is the undeclared solve.
    whole_prob = solve_nlp(dataclasses.replace(prob, hess_blocks=np.array([4, 4])), x0)
    plain = solve_nlp(prob, x0)
    assert whole_prob.ok and np.array_equal(whole_prob.x, plain.x)
    assert whole_prob.history == plain.history


def test_blocks_are_grouped_once_and_only_when_a_subproblem_runs(monkeypatch):
    z_ref = np.array([[0.06 * t, 0.2 * t, 0.0, 3.0] for t in range(4)])
    prob, _, _ = build_tracking_nlp(np.array([0.0, 0.0, 0.0, 0.5]), z_ref, 3,
                                    np.array([1.0, 1.0, 1.0, 10.0]), np.ones(2), staged=True)
    # The tracking Hessian is diagonal: one block per stage's state and input.
    labels = np.concatenate([np.repeat(np.arange(3), 4), np.repeat(np.arange(3), 2)])
    group = tightnav.nlp.block_groups
    (h,), = prob.lag_hess(None, None, None)
    stacks = block_stacks(h, group(labels))
    prob = dataclasses.replace(prob, hess_blocks=labels,
                               lag_hess=lambda x, nu, lam: stacks)
    grouped = []

    def counted(labels):
        grouped.append(len(labels))
        return group(labels)

    monkeypatch.setattr(tightnav.nlp, "block_groups", counted)
    sol = solve_nlp(prob, np.zeros(prob.n))
    assert sol.ok and sol.iterations > 2
    assert grouped == [prob.n]
    plain = solve_nlp(dataclasses.replace(prob, hess_blocks=None, lag_hess=constant_hess(h)),
                      np.zeros(prob.n))
    assert np.array_equal(sol.x, plain.x) and sol.history == plain.history
    grouped.clear()
    at_minimum = NlpProblem(n=2, objective=rosenbrock, lag_hess=rosenbrock_hess,
                            hess_blocks=np.array([0, 0]))
    again = solve_nlp(at_minimum, np.ones(2))
    assert again.ok and again.iterations == 1
    assert grouped == []
