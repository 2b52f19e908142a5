"""Tests for the dense QP solver.

The primary oracle enumerates every candidate active set (subsets of the
inequality rows, equalities always active), solves the corresponding KKT
system, filters primal/dual-feasible candidates, and returns the best
objective.  The solver must match it on random strictly convex problems.
"""

import itertools

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from oracles import drop_row_givens
from tightnav.qp import (
    QpError,
    QpSolution,
    _add_rows,
    _drop_row,
    _factor_spd,
    _inverse_factor,
    _reflect,
    _solve_rows,
    _unfix,
    bound_rows,
    kkt_residuals,
    solve_qp,
)


def enumerate_qp(H, f, A=None, b=None, C=None, d=None):
    """Brute-force reference solution by active-set enumeration."""
    n = len(f)
    A = np.zeros((0, n)) if A is None else np.asarray(A, float)
    b = np.zeros(0) if b is None else np.asarray(b, float)
    C = np.zeros((0, n)) if C is None else np.asarray(C, float)
    d = np.zeros(0) if d is None else np.asarray(d, float)
    mi = len(b)
    best = None
    for r in range(mi + 1):
        for subset in itertools.combinations(range(mi), r):
            S = list(subset)
            M = np.vstack([C, A[S]])
            rhs = np.concatenate([d, b[S]])
            k = len(rhs)
            KKT = np.block([[H, M.T], [M, np.zeros((k, k))]])
            full_rhs = np.concatenate([-f, rhs])
            try:
                sol = np.linalg.solve(KKT, full_rhs)
            except np.linalg.LinAlgError:
                continue
            x, mult = sol[:n], sol[n:]
            lam = mult[len(d):]
            if mi and np.any(A @ x - b > 1e-8):
                continue
            if np.any(lam < -1e-8):
                continue
            obj = 0.5 * x @ H @ x + f @ x
            if best is None or obj < best[0] - 1e-12:
                best = (obj, x)
    return best


def random_spd(rng, n, cond=10.0):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.exp(rng.uniform(0, np.log(cond), n))
    return Q @ np.diag(eigs) @ Q.T


def random_feasible_qp(rng, n, mi, me):
    """(H, f, A, b, C, d): strictly convex, feasible by construction."""
    H = random_spd(rng, n)
    f = rng.standard_normal(n)
    A = rng.standard_normal((mi, n))
    x_feas = rng.standard_normal(n)
    b = A @ x_feas + rng.uniform(0.0, 1.0, mi)
    C = rng.standard_normal((me, n))
    d = C @ x_feas
    return H, f, A, b, C, d


def assert_matches_oracle(problem, sol, x_cold):
    """sol agrees with the enumeration oracle and, at 1e-9, with the cold solve."""
    H, f, A, b, C, d = problem
    ref = enumerate_qp(*problem)
    assert sol.ok
    np.testing.assert_allclose(sol.x, ref[1], atol=1e-6)
    np.testing.assert_allclose(sol.x, x_cold, atol=1e-9)
    assert max(kkt_residuals(H, f, A, b, C, d, sol)) < 1e-8


def test_single_lower_bound_active():
    # minimize ||x||^2 subject to x0 >= 1: x = (1, 0, 0), multiplier 2.
    H = 2.0 * np.eye(3)
    f = np.zeros(3)
    A = np.array([[-1.0, 0.0, 0.0]])
    b = np.array([-1.0])
    sol = solve_qp(H, f, A, b)
    assert sol.ok
    np.testing.assert_allclose(sol.x, [1.0, 0.0, 0.0], atol=1e-10)
    np.testing.assert_allclose(sol.lam, [2.0], atol=1e-10)


def test_box_projection_matches_clip():
    rng = np.random.default_rng(3)
    n = 6
    H = 2.0 * np.eye(n)
    lo, hi = -np.ones(n), np.ones(n)
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = np.concatenate([hi, -lo])
    for _ in range(20):
        p = rng.uniform(-3, 3, n)
        sol = solve_qp(H, -2.0 * p, A, b)
        assert sol.ok
        np.testing.assert_allclose(sol.x, np.clip(p, lo, hi), atol=1e-9)


def test_equality_only():
    # minimize ||x||^2 subject to x0 + x1 = 2 -> (1, 1).
    H = 2.0 * np.eye(2)
    sol = solve_qp(H, np.zeros(2), C=np.array([[1.0, 1.0]]), d=np.array([2.0]))
    assert sol.ok
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-10)
    # stationarity: 2x + nu * (1,1) = 0 -> nu = -2
    np.testing.assert_allclose(sol.nu, [-2.0], atol=1e-10)


def test_random_qps_match_enumeration_oracle():
    rng = np.random.default_rng(42)
    for trial in range(60):
        n = int(rng.integers(2, 9))
        mi = int(rng.integers(0, 6))
        me = int(rng.integers(0, min(n - 1, 2) + 1))
        H, f, A, b, C, d = random_feasible_qp(rng, n, mi, me)
        ref = enumerate_qp(H, f, A, b, C, d)
        assert ref is not None
        sol = solve_qp(H, f, A, b, C, d)
        assert sol.ok, f"trial {trial} not solved"
        assert 0.5 * sol.x @ (H @ sol.x) + f @ sol.x <= ref[0] + 1e-7
        np.testing.assert_allclose(sol.x, ref[1], atol=1e-6)
        r_stat, r_prim, r_comp = kkt_residuals(H, f, A, b, C, d, sol)
        assert r_stat < 1e-8
        assert r_prim < 1e-8
        assert r_comp < 1e-8


def test_active_set_heavy_bounds():
    # Many variables pinned at bounds (the structure of the MPC duals).
    rng = np.random.default_rng(7)
    n = 40
    H = random_spd(rng, n, cond=50.0)
    f = rng.standard_normal(n)
    A = -np.eye(n)  # x >= 0
    b = np.zeros(n)
    sol = solve_qp(H, f, A, b)
    assert sol.ok
    assert np.all(sol.x >= -1e-9)
    r_stat, r_prim, r_comp = kkt_residuals(H, f, A, b, None, None, sol)
    assert max(r_stat, r_prim, r_comp) < 1e-8


def test_infeasible_bounds_detected():
    H = np.eye(1)
    A = np.array([[1.0], [-1.0]])  # x <= -1 and x >= 1
    b = np.array([-1.0, -1.0])
    sol = solve_qp(H, np.zeros(1), A, b)
    assert sol.status == "infeasible"


def test_infeasible_with_equalities():
    H = np.eye(2)
    C = np.array([[1.0, 0.0]])
    d = np.array([0.0])
    A = np.array([[-1.0, 0.0]])  # x0 >= 1 contradicts x0 = 0
    b = np.array([-1.0])
    sol = solve_qp(H, np.zeros(2), A, b, C, d)
    assert sol.status == "infeasible"


def small_qp():
    """Keyword arguments of a small feasible QP with every kind of data."""
    return {"H": np.eye(2), "f": np.array([1.0, -1.0]),
            "A": np.array([[1.0, 1.0], [1.0, -1.0]]), "b": np.array([1.0, 2.0]),
            "C": np.array([[1.0, 2.0]]), "d": np.array([0.5]),
            "lb": np.array([-1.0, -np.inf]), "ub": np.array([np.inf, 3.0])}


@pytest.mark.parametrize("name, index", [
    ("f", 0), ("d", 0), ("b", 1), ("lb", 0), ("lb", 1), ("ub", 1), ("A", (0, 1)), ("C", (0, 0)),
])
def test_non_finite_data_is_rejected(name, index):
    """A NaN in f or d used to come back `optimal` with a NaN x, one in b
    or a bound dropped its row or bound, and one in A's rows ended
    `infeasible`."""
    assert solve_qp(**small_qp()).ok
    data = small_qp()
    data[name][index] = np.nan
    with pytest.raises(QpError):
        solve_qp(**data)


def test_infinite_bounds_are_allowed_but_not_infinite_rows():
    H, f = np.eye(2), np.zeros(2)
    sol = solve_qp(H, f, lb=np.array([-np.inf, 1.0]), ub=np.array([np.inf, np.inf]))
    assert sol.ok and np.array_equal(sol.x, [0.0, 1.0])
    with pytest.raises(QpError):
        solve_qp(H, f, np.array([[np.inf, 0.0]]), np.array([1.0]))
    with pytest.raises(QpError):
        solve_qp(H, f, np.array([[1.0, 0.0]]), np.array([np.inf]))


def test_step_past_the_float_range_is_a_numerical_failure():
    # x >= 1e300 against curvature 1e10: the step onto the row is 1e300
    # over the row's squared norm in factored coordinates, 1e-10, which has
    # no float value.  The solve must end before forming it.
    sol = solve_qp(np.array([[1e10]]), np.zeros(1), np.array([[-1.0]]), np.array([-1e300]))
    assert sol.status == "numerical_failure" and not sol.ok
    assert np.all(np.isfinite(sol.x)) and sol.iterations == 1


def test_semidefinite_hessian_regularized():
    # Distance-QP structure: H singular along the joint-translation direction.
    H = np.array([[1.0, -1.0], [-1.0, 1.0]]) * 2.0
    A = np.array([[1.0, 0.0], [0.0, -1.0]])
    b = np.array([-1.0, -2.0])  # x0 <= -1, x1 >= 2
    sol = solve_qp(H, np.zeros(2), A, b)
    assert sol.ok
    np.testing.assert_allclose(sol.x, [-1.0, 2.0], atol=1e-6)


def test_determinism_bitwise():
    rng = np.random.default_rng(11)
    H = random_spd(rng, 12)
    f = rng.standard_normal(12)
    A = rng.standard_normal((20, 12))
    b = A @ rng.standard_normal(12) + 0.1
    s1 = solve_qp(H, f, A, b)
    s2 = solve_qp(H, f, A, b)
    assert s1.ok and s2.ok
    assert np.array_equal(s1.x, s2.x)
    assert s1.iterations == s2.iterations


def test_warm_rows_same_solution():
    # Warm-started from its own optimal active set, the solve only has to
    # confirm optimality: one pass of the active-set loop, no changes.
    rng = np.random.default_rng(13)
    n_active = 0
    for me in (0, 0, 1, 2) * 6:
        problem = random_feasible_qp(rng, int(rng.integers(3, 8)), 6, me)
        cold = solve_qp(*problem)
        warm = solve_qp(*problem, warm_rows=cold.active_rows)
        assert_matches_oracle(problem, warm, cold.x)
        assert warm.iterations == 1
        np.testing.assert_array_equal(warm.active_rows, cold.active_rows)
        n_active += len(cold.active_rows)
    assert n_active > 0


def _start_multipliers(problem, rows):
    """Inequality multipliers with `rows` and every equality held tight."""
    H, f, A, b, C, d = problem
    M = np.vstack([C, A[rows]])
    k = len(M)
    kkt = np.block([[H, M.T], [M, np.zeros((k, k))]])
    sol = np.linalg.solve(kkt, np.concatenate([-f, d, b[rows]]))
    return sol[len(f) + len(C):]


def test_warm_rows_with_negative_start_multipliers():
    # Warm sets that hold rows pulling the wrong way must be pruned to a
    # dual-feasible start; the answer is the oracle's either way.
    rng = np.random.default_rng(21)
    pruned = 0
    for trial in range(30):
        me = trial % 3
        n = int(rng.integers(4, 8))
        problem = random_feasible_qp(rng, n, 5, me)
        mi_warm = min(5, n - me)
        rows = np.sort(rng.choice(5, size=mi_warm, replace=False))
        pruned += bool(np.any(_start_multipliers(problem, rows) < -1e-6))
        warm = solve_qp(*problem, warm_rows=rows)
        assert_matches_oracle(problem, warm, solve_qp(*problem).x)
    assert pruned >= 10


def test_warm_rows_degenerate_indices():
    # Duplicate, dependent, out-of-range and zero-row indices are skipped or
    # resolved; none of them changes the solution.
    rng = np.random.default_rng(5)
    for me in (0, 1, 2, 0, 1, 2):
        H, f, A, b, C, d = random_feasible_qp(rng, 5, 3, me)
        # Pull the unconstrained minimizer across rows 0 and 1.
        f = f - 5.0 * (A[0] + A[1])
        A = np.vstack([A, A[0] + A[1], 2.0 * A[0], np.zeros(5)])
        b = np.concatenate([b, [b[0] + b[1], 2.0 * b[0], 1.0]])
        problem = (H, f, A, b, C, d)
        cold = solve_qp(*problem)
        assert cold.ok
        for warm_rows in ([0, 0, 1, 1, 3, 4], [-1, 6, 7, 100], [3, 4, 5, 0, 1, 2],
                          np.arange(6), [5], []):
            warm = solve_qp(*problem, warm_rows=np.asarray(warm_rows, dtype=int))
            assert warm.ok, warm_rows
            np.testing.assert_allclose(warm.x, cold.x, atol=1e-9)
            assert max(kkt_residuals(H, f, A, b, C, d, warm)) < 1e-8
            # The working set stays linearly independent.
            rows = np.vstack([C, A[warm.active_rows]])
            assert np.linalg.matrix_rank(rows) == len(rows)


def test_warm_rows_infeasible_still_detected():
    H = np.eye(1)
    A = np.array([[1.0], [-1.0]])  # x <= -1 and x >= 1
    b = np.array([-1.0, -1.0])
    for warm_rows in ([0], [1], [0, 1]):
        assert solve_qp(H, np.zeros(1), A, b, warm_rows=warm_rows).status == "infeasible"
    H = np.eye(3)
    C = np.array([[1.0, 0.0, 0.0]])
    d = np.array([0.0])
    A = np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # x0 >= 1 contradicts x0 = 0
    b = np.array([-1.0, 2.0])
    for warm_rows in ([0], [0, 1], [1]):
        sol = solve_qp(H, np.zeros(3), A, b, C, d, warm_rows=warm_rows)
        assert sol.status == "infeasible"


def test_zero_rows_handled():
    H = np.eye(2)
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([1.0, 2.0])
    sol = solve_qp(H, np.array([1.0, 1.0]), A, b)
    assert sol.ok
    bad = solve_qp(H, np.zeros(2), np.array([[0.0, 0.0]]), np.array([-1.0]))
    assert bad.status == "infeasible"


def test_redundant_equalities_consistent():
    H = np.eye(3)
    C = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    d = np.array([1.0, 2.0])  # same plane twice
    sol = solve_qp(H, np.zeros(3), C=C, d=d)
    assert sol.ok
    np.testing.assert_allclose(sol.x, [1.0, 0.0, 0.0], atol=1e-9)
    bad = solve_qp(H, np.zeros(3), C=C, d=np.array([1.0, 3.0]))
    assert bad.status == "infeasible"


# --- the working-set factorization -------------------------------------------

def assert_factorization(JT, R, H, N):
    """JT H JT' = I and JT N' = [R; 0] to 1e-10, R upper triangular, for
    the working-set rows N in order."""
    n, q = len(H), len(N)
    np.testing.assert_allclose(JT @ H @ JT.T, np.eye(n), rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(JT @ N.T, np.vstack([R[:q, :q], np.zeros((n - q, q))]),
                               rtol=0.0, atol=1e-10)
    assert not np.any(np.tril(R[:q, :q], -1))


def test_working_set_updates_keep_the_factorization():
    rng = np.random.default_rng(37)
    for n in (20, 41, 60):
        H = random_spd(rng, n)
        normals = rng.standard_normal((3 * n // 4, n))
        # Two batches, the second added onto the first, each projected by
        # the factors before it; JT formed from both batches' reflectors.
        L, R, reflectors = _factor_spd(H), np.zeros((n, n)), []
        P = solve_triangular(L, normals.T, lower=True)
        first, rejected = _add_rows(R, 0, P[:, : n // 4], 1e-13, reflectors)
        P = P[:, n // 4 :]
        _reflect(P, *reflectors[0])
        second, rejected2 = _add_rows(R, len(first), P, 1e-13, reflectors)
        assert rejected.size == rejected2.size == 0
        JT = _inverse_factor(L, reflectors)
        N = np.vstack([normals[first], normals[n // 4 + second]])
        q = len(N)
        assert_factorization(JT, R, H, N)
        for pos in (0, q // 2, q - 1):
            JT_drop, R_drop = JT.copy(), R.copy()
            _drop_row(JT_drop, R_drop, q, pos)
            assert_factorization(JT_drop, R_drop, H, np.delete(N, pos, axis=0))
            JT_ref, R_ref = JT.copy(), R.copy()
            drop_row_givens(JT_ref, R_ref, q, pos)
            np.testing.assert_allclose(np.abs(R_drop[: q - 1, : q - 1]),
                                       np.abs(R_ref[: q - 1, : q - 1]), rtol=0.0, atol=1e-12)


def test_release_start_factors_all_variables_from_a_reduced_solve():
    rng = np.random.default_rng(38)
    for n in (20, 41, 60):
        H = random_spd(rng, n)
        var = np.sort(rng.choice(n, size=n // 3, replace=False))
        sign = rng.choice([-1.0, 1.0], size=len(var))
        free = np.ones(n, dtype=bool)
        free[var] = False
        # A reduced QP on the free variables with a large working set.
        x_feas = rng.standard_normal(n)
        A = rng.standard_normal((n, n))
        C = rng.standard_normal((2, n))
        H_F, x_F = H[np.ix_(free, free)], x_feas[free]
        f_F = -H_F @ (x_F + 3.0 * rng.standard_normal(len(x_F)))
        sol, factors = _solve_rows(
            H_F, f_F, A[:, free], A[:, free] @ x_F + 0.1, C[:, free], C[:, free] @ x_F, None)
        JT_F, R_F, members = factors()
        assert sol.ok and len(members) > n // 4
        N = np.vstack([C, A])[members]
        JT, R = _unfix(H, var, sign, JT_F, R_F, N)
        # The fixed bounds sign * x[var] <= rhs, last variable first.
        bounds = np.zeros((len(var), n))
        bounds[np.arange(len(var)), var[::-1]] = sign[::-1]
        assert_factorization(JT, R, H, np.vstack([bounds, N]))


# --- variable bounds as vectors against the same bounds as rows ---------------

def random_bounded_qp(rng, n, mi, me):
    """(H, f, A, b, C, d, lb, ub): strictly convex and feasible, with +-inf
    bounds, some lb == ub, and a minimizer pulled out of the box."""
    H = random_spd(rng, n)
    x_feas = rng.standard_normal(n)
    f = -H @ (x_feas + 3.0 * rng.standard_normal(n))
    A = rng.standard_normal((mi, n))
    b = A @ x_feas + rng.uniform(0.0, 1.0, mi)
    C = rng.standard_normal((me, n))
    d = C @ x_feas
    lb = x_feas - rng.uniform(0.0, 0.5, n)
    ub = x_feas + rng.uniform(0.0, 0.5, n)
    lb[rng.random(n) < 0.2] = -np.inf
    ub[rng.random(n) < 0.2] = np.inf
    pinned = rng.random(n) < 0.15
    lb[pinned] = ub[pinned] = x_feas[pinned]
    return H, f, A, b, C, d, lb, ub


def test_bound_rows_number_each_variable_lower_then_upper():
    lb = np.array([0.0, -np.inf, -1.0, -np.inf, 3.0])
    ub = np.array([1.0, 2.0, np.inf, np.inf, 3.0])
    var, sign, rhs = bound_rows(lb, ub)
    np.testing.assert_array_equal(var, [0, 0, 1, 2, 4, 4])
    np.testing.assert_array_equal(sign, [-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
    np.testing.assert_array_equal(rhs, [0.0, 1.0, 2.0, 1.0, -3.0, 3.0])
    rng = np.random.default_rng(37)
    for _ in range(20):
        n, k, ns = (int(v) for v in rng.integers(1, 12, size=3))
        mid = rng.standard_normal(n + k)
        lb = np.where(rng.random(n + k) < 0.4, -np.inf, mid - rng.uniform(0.0, 1.0, n + k))
        ub = np.where(rng.random(n + k) < 0.4, np.inf, mid + rng.uniform(0.0, 1.0, n + k))
        var, sign, rhs = bound_rows(lb, ub)
        # Every finite bound once, variables ascending, and a variable's
        # lower bound before its upper.
        assert len(var) == np.isfinite(lb).sum() + np.isfinite(ub).sum()
        key = 2 * var + (sign > 0.0)
        assert np.all(np.diff(key) > 0)
        np.testing.assert_array_equal(sign * rhs, np.where(sign < 0.0, lb[var], ub[var]))
        # Condensing the first k variables: their bounds are a prefix, and
        # the rest are the bounds of the remaining variables.
        cut = np.searchsorted(var, k)
        assert np.all(var[:cut] < k)
        rest = bound_rows(lb[k:], ub[k:])
        for got, want in zip((var[cut:] - k, sign[cut:], rhs[cut:]), rest):
            np.testing.assert_array_equal(got, want)
        # Variables appended after the others, each bounded below by 0:
        # their bounds are a suffix after the others' own.
        e_var, e_sign, e_rhs = bound_rows(np.concatenate([lb, np.zeros(ns)]),
                                          np.concatenate([ub, np.full(ns, np.inf)]))
        m = len(var)
        for got, want in zip((e_var[:m], e_sign[:m], e_rhs[:m]), (var, sign, rhs)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(e_var[m:], n + k + np.arange(ns))
        assert np.all(e_sign[m:] == -1.0) and np.all(e_rhs[m:] == 0.0)


def bounds_as_rows(A, b, lb, ub):
    """(A, b) with the finite bounds appended as unit rows, numbered as
    `bound_rows` numbers them."""
    var, sign, rhs = bound_rows(lb, ub)
    return (np.vstack([A, sign[:, None] * np.eye(A.shape[1])[var]]),
            np.concatenate([b, rhs]))


def recorded(monkeypatch, name, what=lambda H, out: len(H)):
    """what(first argument, result) for each later call of
    `tightnav.qp.<name>`; by default the first argument's size."""
    import tightnav.qp

    seen = []
    inner = getattr(tightnav.qp, name)

    def recording(H, *args, **kwargs):
        out = inner(H, *args, **kwargs)
        seen.append(what(H, out))
        return out

    monkeypatch.setattr(tightnav.qp, name, recording)
    return seen


def reduced_solves(monkeypatch):
    """Variable counts of the Goldfarb-Idnani runs inside each later solve."""
    return recorded(monkeypatch, "_solve_rows")


def fixed_free(b, lb, ub, hint):
    """The free-variable mask once the hint's bounds fix their variables."""
    bound_var = bound_rows(lb, ub)[0]
    free = np.ones(len(lb), dtype=bool)
    free[bound_var[hint[hint >= len(b)] - len(b)]] = False
    return free


def assert_same_solution(got, want):
    assert got.status == want.status == "optimal"
    np.testing.assert_array_equal(got.active_rows, want.active_rows)
    for a, b in ((got.x, want.x), (got.lam, want.lam), (got.nu, want.nu)):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-9)


def bounded_cases(seed, count=40):
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = int(rng.integers(3, 10))
        me = trial % 3 if n > 3 else 0
        H, f, A, b, C, d, lb, ub = random_bounded_qp(rng, n, int(rng.integers(0, 5)), me)
        Ar, br = bounds_as_rows(A, b, lb, ub)
        rows = solve_qp(H, f, Ar, br, C, d)
        assert rows.ok
        yield rng, (H, f, A, b, C, d, lb, ub), rows


def test_bounds_as_vectors_match_bounds_as_rows_cold_and_exact_hint():
    n_bound_active = 0
    for _, (H, f, A, b, C, d, lb, ub), rows in bounded_cases(31):
        for warm in (None, rows.active_rows):
            sol = solve_qp(H, f, A, b, C, d, warm_rows=warm, lb=lb, ub=ub)
            assert_same_solution(sol, rows)
            assert max(kkt_residuals(H, f, A, b, C, d, sol, lb, ub)) < 1e-8
        n_bound_active += int(np.sum(rows.active_rows >= len(b)))
    assert n_bound_active > 40


def test_bounds_as_vectors_garbage_hint():
    for rng, (H, f, A, b, C, d, lb, ub), rows in bounded_cases(32):
        m = len(rows.lam)
        hint = np.concatenate([rows.active_rows, rows.active_rows, [-1, m, m + 5],
                               rng.integers(0, m, size=3)])
        sol = solve_qp(H, f, A, b, C, d, warm_rows=hint, lb=lb, ub=ub)
        assert_same_solution(sol, rows)


def test_fixed_bounds_with_negative_multipliers_are_released(monkeypatch):
    runs = recorded(monkeypatch, "_solve_rows", lambda H, out: (len(H), out[0].status))
    factored = recorded(monkeypatch, "_factor_spd")
    released = seeded = 0
    for rng, (H, f, A, b, C, d, lb, ub), rows in bounded_cases(33, count=80):
        # Hint the final working set and three inactive bounds.
        inactive = np.setdiff1d(np.arange(len(b), len(rows.lam)), rows.active_rows)
        hint = np.union1d(rows.active_rows, rng.permutation(inactive)[:3])
        runs.clear()
        factored.clear()
        sol = solve_qp(H, f, A, b, C, d, warm_rows=hint, lb=lb, ub=ub)
        assert_same_solution(sol, rows)
        # One reduced solve, and the full solve after it when a fixed bound
        # had to be released; or the full solve alone.
        n = len(f)
        sizes = [size for size, _ in runs]
        assert sizes == [n] or (sizes[0] < n and sizes[1:] in ([], [n]))
        if len(sizes) == 2:
            # One Cholesky factorization per start: a release round factors
            # only the fixed variables' Schur complement.  The full solve
            # starts over after a reduced solve that is not optimal or that
            # found an equality row dependent.
            free = fixed_free(b, lb, ub, hint)
            over = runs[0][1] != "optimal" or np.linalg.matrix_rank(C[:, free]) < len(C)
            n_free = int(free.sum())
            assert factored == [n_free, n if over else n - n_free]
            released += 1
            seeded += not over
    assert released >= 15 and seeded >= 15, (released, seeded)


def test_release_after_a_dependent_reduced_equality_starts_over(monkeypatch):
    # Two equality rows differ only on x0, so once x0 and x1 are fixed the
    # reduced solve finds the second dependent (and consistent).  The hinted
    # bound on x1 is inactive, so its release is needed; the seeded start
    # would leave the second equality out, so the full solve starts over.
    runs = recorded(monkeypatch, "_solve_rows", lambda H, out: (len(H), out[0].status))
    factored = recorded(monkeypatch, "_factor_spd")
    rng = np.random.default_rng(36)
    n = 8
    for _ in range(5):
        H = random_spd(rng, n)
        target = rng.standard_normal(n)
        target[1] = 5.0
        C = rng.standard_normal((2, n))
        C[1] = C[0]
        C[1, 0] += 1.0
        d = np.array([0.3, 0.3 - 1.0])  # forces x0 = -1
        lb = np.full(n, -np.inf)
        lb[:2] = -1.0
        ub = np.full(n, np.inf)
        f = -H @ target
        Ar, br = bounds_as_rows(np.zeros((0, n)), np.zeros(0), lb, ub)
        rows = solve_qp(H, f, Ar, br, C, d)
        assert rows.ok and rows.x[1] > lb[1] + 0.1
        runs.clear()
        factored.clear()
        sol = solve_qp(H, f, None, None, C, d, warm_rows=[0, 1], lb=lb, ub=ub)
        assert runs == [(n - 2, "optimal"), (n, "optimal")] and factored == [n - 2, n]
        assert_same_solution(sol, rows)


def test_hinted_bounds_fix_variables_unless_few(monkeypatch):
    sizes = reduced_solves(monkeypatch)
    reduced = few = 0
    for _, (H, f, A, b, C, d, lb, ub), rows in bounded_cases(35, count=60):
        n = len(f)
        general = rows.active_rows[rows.active_rows < len(b)]
        bounds = rows.active_rows[rows.active_rows >= len(b)]
        # The exact working set, and its general rows with one bound.
        for hint in (rows.active_rows, np.concatenate([general, bounds[:1]])):
            free = fixed_free(b, lb, ub, hint)
            sizes.clear()
            sol = solve_qp(H, f, A, b, C, d, warm_rows=hint, lb=lb, ub=ub)
            assert_same_solution(sol, rows)
            # Bounds fixing under a quarter of the variables are not worth a
            # reduced problem.  Otherwise a hint of active rows takes one
            # reduced solve, unless it leaves no free variable at all or
            # none for an equality row.
            fixes = 4 * np.sum(~free) >= n and free.any() and np.all(np.any(C[:, free], axis=1))
            assert sizes == ([free.sum()] if fixes else [n])
            reduced += fixes
            few += 0 < 4 * np.sum(~free) < n
    assert reduced >= 15 and few >= 15, (reduced, few)


def test_equality_without_free_variable_falls_back(monkeypatch):
    sizes = reduced_solves(monkeypatch)
    rng = np.random.default_rng(34)
    n = 6
    for _ in range(10):
        x_feas = rng.uniform(-0.5, 0.5, n)
        H = random_spd(rng, n)
        f = rng.normal(size=n) * 5.0
        A = rng.normal(size=(3, n))
        b = A @ x_feas + rng.uniform(0.0, 1.0, 3)
        # The first equality touches x0 and x1 only.
        C = rng.normal(size=(2, n))
        C[0, 2:] = 0.0
        d = C @ x_feas
        lb, ub = -np.ones(n), np.ones(n)
        Ar, br = bounds_as_rows(A, b, lb, ub)
        rows = solve_qp(H, f, Ar, br, C, d)
        assert rows.ok
        # Fixing both its variables at their lower bounds leaves that
        # equality none.
        var, sign, _ = bound_rows(lb, ub)
        hint = len(b) + np.flatnonzero((var < 2) & (sign < 0.0))
        sizes.clear()
        sol = solve_qp(H, f, A, b, C, d, warm_rows=hint, lb=lb, ub=ub)
        assert sizes == [n]
        assert_same_solution(sol, rows)


def test_bounded_infeasible_with_hint_still_infeasible():
    # x0 + x1 >= 3 cannot hold with both variables in [0, 1].
    H = np.eye(3)
    A = np.array([[-1.0, -1.0, 0.0]])
    b = np.array([-3.0])
    lb, ub = np.array([0.0, 0.0, -np.inf]), np.array([1.0, 1.0, np.inf])
    for warm in (None, [0], [1], [1, 2], [3, 4], [0, 1, 3, 4]):
        assert solve_qp(H, np.zeros(3), A, b, warm_rows=warm, lb=lb, ub=ub).status == "infeasible"
    # Crossed bounds on x0; fixing x0 at either one leaves x1 free.
    for warm in (None, [0], [1]):
        sol = solve_qp(np.eye(2), np.ones(2), warm_rows=warm,
                       lb=np.array([1.0, -np.inf]), ub=np.array([0.0, np.inf]))
        assert sol.status == "infeasible"


def test_mpc_subproblems_match_bounds_as_rows(monkeypatch):
    # The QPs of a whole turn-in under the unguided MPC (n up to 200,
    # hints carried across SQP iterations and steps, second-order
    # corrections included), each against the same QP with its bounds as
    # rows, solved cold.  The whole run, not its first steps, so that enough
    # of them take the release path.
    import tightnav.nlp
    from tightnav.scenario import benchmark_suite
    from tightnav.simulate import run_closed_loop

    calls = []
    inner = tightnav.nlp.solve_qp

    def capture(*args, **kwargs):
        calls.append((args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(tightnav.nlp, "solve_qp", capture)
    run_closed_loop(benchmark_suite()[1], "bl")
    sizes = reduced_solves(monkeypatch)
    released = 0
    for (H, f, A, b, C, d), kwargs in calls:
        sizes.clear()
        sol = solve_qp(H, f, A, b, C, d, **kwargs)
        released += len(sizes) == 2
        rows = solve_qp(H, f, *bounds_as_rows(A, b, kwargs["lb"], kwargs["ub"]), C, d)
        assert_same_solution(sol, rows)
    assert released >= 10, released


# --- hints certified from one Cholesky factor ---------------------------------

def general_row_cases(seed, count=30):
    """(rng, problem, cold solve) for feasible QPs with general rows only,
    each with at least one active inequality and one inactive one."""
    rng = np.random.default_rng(seed)
    while count:
        n = int(rng.integers(4, 30))
        mi, me = int(rng.integers(n // 2, 2 * n)), int(rng.integers(0, n // 3))
        problem = random_feasible_qp(rng, n, mi, me)
        # A steeper linear term pulls the minimizer onto more rows.
        problem[1][:] *= 10.0
        cold = solve_qp(*problem)
        assert cold.ok
        if 0 < len(cold.active_rows) < mi:
            count -= 1
            yield rng, problem, cold


def test_exact_hint_takes_one_cholesky_and_no_inverse(monkeypatch):
    cholesky = recorded(monkeypatch, "_factor_spd")
    inverse = recorded(monkeypatch, "_inverse_factor")
    for _, problem, cold in general_row_cases(40):
        cholesky.clear()
        inverse.clear()
        sol = solve_qp(*problem, warm_rows=cold.active_rows)
        assert_same_solution(sol, cold)
        assert sol.iterations == 1
        assert cholesky == [len(problem[1])] and inverse == []
    # With bounds: a hint whose bounds fix their variables factors the
    # reduced Hessian only.
    fixing = 0
    for _, (H, f, A, b, C, d, lb, ub), rows in bounded_cases(41):
        cholesky.clear()
        inverse.clear()
        sol = solve_qp(H, f, A, b, C, d, warm_rows=rows.active_rows, lb=lb, ub=ub)
        assert_same_solution(sol, rows)
        assert len(cholesky) == 1 and inverse == []
        fixing += cholesky[0] < len(f)
    assert fixing >= 10, fixing


def test_hint_a_row_short_or_over_forms_the_inverse_once(monkeypatch):
    runs = recorded(monkeypatch, "_solve_rows")
    cholesky = recorded(monkeypatch, "_factor_spd")
    inverse = recorded(monkeypatch, "_inverse_factor")
    for rng, problem, cold in general_row_cases(42):
        n, mi = len(problem[1]), len(problem[3])
        active = cold.active_rows
        inactive = np.setdiff1d(np.arange(mi), active)
        short = np.delete(active, rng.integers(len(active)))
        over = np.union1d(active, rng.choice(inactive, 1))
        for hint in (short, over):
            runs.clear()
            cholesky.clear()
            inverse.clear()
            sol = solve_qp(*problem, warm_rows=hint)
            assert_same_solution(sol, cold)
            # One start, one Cholesky factor, and the inverse factor formed
            # once, when the working set first changes.
            assert runs == cholesky == inverse == [n]
