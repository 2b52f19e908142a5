"""Tests for the dual-constraint MPC: warm starts, strategy rows, solves.

The dual-feasibility oracle is direct substitution into the constraint
system; trajectory safety is audited with the exact polytope distance.
"""

import math

import numpy as np
import pytest

from tightnav.dynamics import VehicleParams, rollout, step_rk4
from tightnav.geometry import Polytope, body_polytope, min_translation_distance, rotation_matrix
from tightnav.obca import (
    BODY_G,
    ControllerConfig,
    EnvironmentEncoding,
    MpcSolution,
    ObcaController,
    StrategyLabel,
    body_g_vector,
    dual_warm_start,
    generate_strategy_constraints,
    lateral_direction,
    _face_certificates,
)

UNIT_PARAMS = VehicleParams(l_f=0.25, l_r=0.25, length=1.0, width=1.0)
DESK = VehicleParams()


def dual_residuals(obs, z, lam, mu, params):
    """(clearance value, stationarity residual, dual-normal magnitude)."""
    z = np.asarray(z, float)
    p, psi = z[:2], float(z[2])
    g = body_g_vector(params)
    val_c = float((obs.A @ p - obs.b) @ lam - g @ mu)
    stat = BODY_G.T @ mu + rotation_matrix(psi).T @ (obs.A.T @ lam)
    return val_c, float(np.max(np.abs(stat))), float(np.linalg.norm(obs.A.T @ lam))


def lane_walls(x_center=1.5, half_x=3.0, y_abs=0.475):
    top = Polytope.from_box((x_center, y_abs), half_x, 0.025)
    bottom = Polytope.from_box((x_center, -y_abs), half_x, 0.025)
    return top, bottom


def static_env(tv, n_steps, with_walls=True):
    if with_walls:
        top, bottom = lane_walls()
        return EnvironmentEncoding([[tv, top, bottom]] * n_steps)
    return EnvironmentEncoding([[tv]] * n_steps)


def straight_ref(z0, n, dt, params):
    return rollout(np.asarray(z0, float), np.zeros((n, 2)), dt, params)


# --- dual warm start --------------------------------------------------------

def test_dual_warm_start_separated_boxes():
    obstacle = Polytope.from_box((3.0, 0.0), 0.5, 0.5)
    env = static_env(obstacle, 1, with_walls=False)
    z = np.array([0.0, 0.0, 0.0, 0.0])
    lam, mu = dual_warm_start([z], env, UNIT_PARAMS)
    val, stat, nrm = dual_residuals(obstacle, z, lam[0, 0], mu[0, 0], UNIT_PARAMS)
    assert val == pytest.approx(2.0, abs=1e-6)
    assert stat <= 1e-8
    assert nrm <= 1.0 + 1e-9
    assert np.all(lam >= 0) and np.all(mu >= 0)


def test_dual_warm_start_overlap_gives_zero():
    obstacle = Polytope.from_box((0.3, 0.0), 0.5, 0.5)
    env = static_env(obstacle, 1, with_walls=False)
    lam, mu = dual_warm_start([[0.0, 0.0, 0.0, 0.0]], env, UNIT_PARAMS)
    assert np.all(lam == 0.0)
    assert np.all(mu == 0.0)


def test_dual_warm_start_random_pairs_feasible():
    rng = np.random.default_rng(7)
    for _ in range(40):
        z = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(-math.pi, math.pi), 0.0])
        center = z[:2] + rng.uniform(0.3, 2.0) * np.array(
            [math.cos(a := rng.uniform(0, 2 * math.pi)), math.sin(a)])
        obstacle = Polytope.from_box(center, rng.uniform(0.1, 0.6),
                                     rng.uniform(0.1, 0.6), rng.uniform(0, math.pi))
        env = static_env(obstacle, 1, with_walls=False)
        lam, mu = dual_warm_start([z], env, DESK)
        val, stat, nrm = dual_residuals(obstacle, z, lam[0, 0], mu[0, 0], DESK)
        assert stat <= 1e-7
        assert nrm <= 1.0 + 1e-9
        dist = min_translation_distance(obstacle, body_polytope(z, DESK.length, DESK.width))
        if dist > 1e-6:
            # Strong duality: the clearance expression equals the distance.
            assert val == pytest.approx(dist, abs=1e-6)


def test_dual_warm_start_rejects_short_environment():
    obstacle = Polytope.from_box((3.0, 0.0), 0.5, 0.5)
    env = static_env(obstacle, 2, with_walls=False)
    with pytest.raises(ValueError):
        dual_warm_start(np.zeros((5, 4)), env, DESK)


def test_face_certificate_lower_bound_and_feasible():
    rng = np.random.default_rng(21)
    for _ in range(60):
        z = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(-math.pi, math.pi), 0.0])
        center = rng.uniform(-2.5, 2.5, size=2)
        obstacle = Polytope.from_box(center, rng.uniform(0.1, 0.8),
                                     rng.uniform(0.1, 0.8), rng.uniform(0, math.pi))
        vals, lams, mus = _face_certificates(static_env(obstacle, 1, with_walls=False),
                                             z[None, :], DESK)
        value, lam, mu = vals[0, 0], lams[0, 0], mus[0, 0]
        dist = min_translation_distance(obstacle, body_polytope(z, DESK.length, DESK.width))
        assert value <= dist + 1e-9
        val_c, stat, nrm = dual_residuals(obstacle, z, lam, mu, DESK)
        assert val_c == pytest.approx(value, abs=1e-9)
        assert stat <= 1e-12
        assert nrm <= 1.0 + 1e-12
        assert np.all(lam >= 0) and np.all(mu >= 0)


def body_corners(z, params):
    """The four ego-body corners at state z, by direct enumeration."""
    half_l, half_w = 0.5 * params.length, 0.5 * params.width
    local = np.array([[half_l, half_w], [-half_l, half_w], [-half_l, -half_w], [half_l, -half_w]])
    return local @ rotation_matrix(float(z[2])).T + np.asarray(z[:2])


def test_face_certificates_batch_matches_corner_enumeration():
    # 21 steps of a 3-obstacle scene: the moving target vehicle and two walls.
    rng = np.random.default_rng(33)
    n_steps = 21
    top, bottom = lane_walls()
    tvs = [Polytope.from_box(rng.uniform(-1, 3, 2) * (1.0, 0.2), 0.2, 0.1, rng.uniform(-3, 3))
           for _ in range(n_steps)]
    env = EnvironmentEncoding([[tv, top, bottom] for tv in tvs])
    zs = np.column_stack([rng.uniform(-1, 3, n_steps), rng.uniform(-0.4, 0.4, n_steps),
                          rng.uniform(-math.pi, math.pi, n_steps), np.zeros(n_steps)])
    vals, lam, mu = _face_certificates(env, zs, DESK)
    assert vals.shape == (n_steps, 3) and lam.shape == mu.shape == (n_steps, 3, 4)
    for t in range(n_steps):
        corners = body_corners(zs[t], DESK)
        for m, obs in enumerate(env.obstacles(t)):
            # Clearance of the body beyond each obstacle face is the smallest
            # signed distance of its corners; the certificate takes the best face.
            norms = np.linalg.norm(obs.A, axis=1)
            per_face = np.min((corners @ obs.A.T - obs.b) / norms, axis=0)
            assert vals[t, m] == pytest.approx(np.max(per_face), abs=1e-12)
            dist = min_translation_distance(obs, body_polytope(zs[t], DESK.length, DESK.width))
            assert vals[t, m] <= dist + 1e-9
            val_c, stat, nrm = dual_residuals(obs, zs[t], lam[t, m], mu[t, m], DESK)
            assert val_c == pytest.approx(vals[t, m], abs=1e-9)
            assert stat <= 1e-12
            assert nrm == pytest.approx(1.0, abs=1e-12)
    assert np.all(lam >= 0) and np.all(mu >= 0)
    assert np.all(np.count_nonzero(lam, axis=2) == 1)


# --- strategy constraints ---------------------------------------------------

def canonical_env(n_steps=3):
    tv = Polytope.from_box((0.0, 0.0), 2.0, 1.0)
    return static_env(tv, n_steps, with_walls=False)


def test_strategy_constraint_pass_left_canonical():
    env = canonical_env()
    ref = np.array([[0.0, 0.0, 0.0, 0.5]] * 3)
    rows = generate_strategy_constraints(StrategyLabel.PASS_LEFT, ref, env, 1.0)
    assert [t for t, _ in rows] == [0, 1, 2]
    for _, hs in rows:
        np.testing.assert_allclose(hs.w, [0.0, 1.0], atol=1e-6)
        assert hs.offset == pytest.approx(1.0, abs=1e-6)


def test_strategy_constraint_pass_right_mirrors():
    env = canonical_env()
    ref = np.array([[0.0, 0.0, 0.0, 0.5]] * 3)
    left = generate_strategy_constraints(StrategyLabel.PASS_LEFT, ref, env, 1.0)
    right = generate_strategy_constraints(StrategyLabel.PASS_RIGHT, ref, env, 1.0)
    for (_, hl), (_, hr) in zip(left, right):
        np.testing.assert_allclose(hr.w, -hl.w, atol=1e-6)
        assert hr.offset == pytest.approx(hl.offset, abs=1e-6)


def test_strategy_constraint_outside_region_empty():
    env = canonical_env()
    ref = np.array([[10.0, 10.0, 0.0, 0.5]] * 3)
    assert generate_strategy_constraints(StrategyLabel.PASS_LEFT, ref, env, 1.0) == []


def test_strategy_constraint_yield_rejected():
    env = canonical_env()
    ref = np.zeros((3, 4))
    with pytest.raises(ValueError):
        generate_strategy_constraints(StrategyLabel.YIELD, ref, env, 1.0)


def test_strategy_constraints_support_tv_polytope():
    rng = np.random.default_rng(11)
    r_ev = DESK.covering_radius
    for _ in range(25):
        tv = Polytope.from_box(rng.uniform(-1, 1, size=2), rng.uniform(0.1, 0.5),
                               rng.uniform(0.1, 0.5), rng.uniform(0, math.pi))
        env = static_env(tv, 4, with_walls=False)
        psi_ref = rng.uniform(-0.3, 0.3)
        base = tv.vertices().mean(axis=0)
        ref = np.array([
            [base[0] + 0.05 * t, base[1] + rng.uniform(-0.1, 0.1), psi_ref, 0.5]
            for t in range(4)
        ])
        strat = StrategyLabel.PASS_LEFT if rng.random() < 0.5 else StrategyLabel.PASS_RIGHT
        for t, hs in generate_strategy_constraints(strat, ref, env, r_ev):
            verts = env.tv(t).vertices()
            assert np.max(verts @ hs.w) <= hs.offset + 1e-9


def test_lateral_direction_orientation():
    np.testing.assert_allclose(lateral_direction(StrategyLabel.PASS_LEFT, 0.0), [0.0, 1.0])
    np.testing.assert_allclose(lateral_direction(StrategyLabel.PASS_RIGHT, 0.0), [0.0, -1.0])
    d = lateral_direction(StrategyLabel.PASS_LEFT, math.pi / 2)
    np.testing.assert_allclose(d, [-1.0, 0.0], atol=1e-12)


# --- environment encoding ---------------------------------------------------

def test_environment_encoding_validation():
    tv = Polytope.from_box((0, 0), 0.3, 0.2)
    with pytest.raises(ValueError):
        EnvironmentEncoding([[tv], [tv, tv]])
    tri = Polytope(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), np.ones(3))
    with pytest.raises(ValueError):
        EnvironmentEncoding([[tri]])
    with pytest.raises(ValueError):
        EnvironmentEncoding([])


def test_environment_window_pads_with_last_step():
    boxes = [Polytope.from_box((float(t), 0.0), 0.3, 0.2) for t in range(3)]
    env = EnvironmentEncoding([[b] for b in boxes])
    win = env.window(1, 4)
    assert win.n_steps == 4
    assert win.tv(0) is boxes[1]
    assert win.tv(1) is boxes[2]
    assert win.tv(3) is boxes[2]


# --- horizon solves ---------------------------------------------------------

def blocking_scene():
    """Obstacle centered on the reference line inside a walled lane.

    Both pass corridors are wide enough for the body even while it is still
    turning, so either strategy admits a comfortably feasible thread.
    """
    tv = Polytope.from_box((1.1, 0.0), 0.28, 0.11)
    env = static_env(tv, 21)
    z0 = np.array([0.0, 0.0, 0.0, 0.6])
    cfg = ControllerConfig(guided=False)
    ref = straight_ref(z0, cfg.horizon, cfg.dt, cfg.params)
    return tv, env, z0, ref


def test_solve_step_far_obstacles_track_reference():
    far = Polytope.from_box((100.0, 100.0), 0.3, 0.2)
    env = static_env(far, 21, with_walls=False)
    cfg = ControllerConfig(guided=False)
    z0 = np.array([0.0, 0.0, 0.0, 0.6])
    ref = straight_ref(z0, cfg.horizon, cfg.dt, cfg.params)
    sol = ObcaController(cfg).solve_step(z0, np.zeros(2), ref, env)
    assert sol.ok
    assert np.max(np.abs(sol.zs - ref)) < 1e-4
    assert np.max(np.abs(sol.us)) < 1e-4
    assert sol.stats["engaged"] == 0


def test_solve_step_avoids_blocking_obstacle():
    tv, env, z0, ref = blocking_scene()
    cfg = ControllerConfig(guided=False)
    sol = ObcaController(cfg).solve_step(z0, np.zeros(2), ref, env)
    assert sol.ok
    assert sol.stats["engaged"] > 0
    for t in range(1, cfg.horizon + 1):
        body = body_polytope(sol.zs[t], cfg.params.length, cfg.params.width)
        for obs in env.obstacles(t):
            assert min_translation_distance(obs, body) >= cfg.d_min - 1e-5
    assert sol.stats["cost"] > 1e-4  # it had to leave the reference


def test_solve_step_strategy_rows_enforced():
    tv, env, z0, ref = blocking_scene()
    cfg = ControllerConfig(guided=True)
    ctrl = ObcaController(cfg)
    sol = ctrl.solve_step(z0, np.zeros(2), ref, env, strategy=StrategyLabel.PASS_LEFT)
    assert sol.ok
    assert len(sol.strategy_rows) > 0
    for t, hs in sol.strategy_rows:
        assert hs.violation(sol.zs[t, :2]) <= 1e-6
    # Passing left of a centered obstacle means clearing its top edge.
    t_close = int(np.argmin(np.abs(sol.zs[:, 0] - 1.1)))
    assert sol.zs[t_close, 1] > 0.055


def test_solve_step_pass_sides_differ():
    tv, env, z0, ref = blocking_scene()
    left = ObcaController(ControllerConfig(guided=True)).solve_step(
        z0, np.zeros(2), ref, env, strategy=StrategyLabel.PASS_LEFT)
    right = ObcaController(ControllerConfig(guided=True)).solve_step(
        z0, np.zeros(2), ref, env, strategy=StrategyLabel.PASS_RIGHT)
    assert left.ok and right.ok
    t_close = int(np.argmin(np.abs(left.zs[:, 0] - 1.1)))
    assert left.zs[t_close, 1] > right.zs[t_close, 1]


def test_baseline_cost_no_higher_than_guided():
    tv, env, z0, ref = blocking_scene()
    bl = ObcaController(ControllerConfig(guided=False)).solve_step(
        z0, np.zeros(2), ref, env)
    sg = ObcaController(ControllerConfig(guided=True)).solve_step(
        z0, np.zeros(2), ref, env, strategy=StrategyLabel.PASS_LEFT)
    assert bl.ok and sg.ok
    assert bl.stats["cost"] <= sg.stats["cost"] + 1e-6


def test_solution_duals_certify_all_pairs():
    tv, env, z0, ref = blocking_scene()
    cfg = ControllerConfig(guided=True)
    sol = ObcaController(cfg).solve_step(z0, np.zeros(2), ref, env,
                                         strategy=StrategyLabel.PASS_LEFT)
    assert sol.ok
    assert np.all(sol.lam >= 0) and np.all(sol.mu >= 0)
    for t in range(1, cfg.horizon + 1):
        for m, obs in enumerate(env.obstacles(t)):
            val, stat, nrm = dual_residuals(obs, sol.zs[t], sol.lam[t, m],
                                            sol.mu[t, m], cfg.params)
            assert stat <= 1e-5
            assert nrm <= 1.0 + 1e-6
            assert val >= cfg.d_min - 1e-5


def test_unreachable_strategy_detected_without_solving():
    env = canonical_env(21)
    cfg = ControllerConfig(guided=True)
    z0 = np.array([0.0, -3.0, 0.0, 0.0])
    ref = np.array([[0.0, 0.0, 0.0, 0.0]] * (cfg.horizon + 1))
    sol = ObcaController(cfg).solve_step(z0, np.zeros(2), ref, env,
                                         strategy=StrategyLabel.PASS_LEFT)
    assert sol.status == "infeasible"
    assert sol.stats["precheck"]
    assert len(sol.strategy_rows) > 0


def test_solve_step_deterministic():
    tv, env, z0, ref = blocking_scene()
    sols = [
        ObcaController(ControllerConfig(guided=False)).solve_step(
            z0, np.zeros(2), ref, env)
        for _ in range(2)
    ]
    assert np.array_equal(sols[0].zs, sols[1].zs)
    assert np.array_equal(sols[0].us, sols[1].us)
    assert sols[0].stats["iterations"] == sols[1].stats["iterations"]


def test_shifted_warm_start_consistency():
    tv, env, z0, ref_unused = blocking_scene()
    cfg = ControllerConfig(guided=False)
    n = cfg.horizon
    global_ref = straight_ref(z0, n + 2, cfg.dt, cfg.params)
    ctrl = ObcaController(cfg)
    sol1 = ctrl.solve_step(z0, np.zeros(2), global_ref[: n + 1], env, step=0)
    assert sol1.ok
    z1 = step_rk4(z0, sol1.us[0], cfg.dt, cfg.params)
    sol2 = ctrl.solve_step(z1, sol1.us[0], global_ref[1 : n + 2], env, step=1)
    assert sol2.ok
    # The shifted plan reproduces the previous one near the applied end; the
    # two windows genuinely disagree toward the horizon tail, where the later
    # one sees an extra step of future, so only boundedness holds there.
    diff = np.abs(sol2.zs[:n] - sol1.zs[1:])
    assert np.max(diff[:4]) < 3e-3
    assert np.max(diff) < 2e-2
    # The shifted warm start leaves little work for the solver.
    assert sol2.stats["iterations"] <= 15


def test_closed_loop_audit_min_distance():
    tv = Polytope.from_box((1.1, 0.26), 0.28, 0.11)
    env = static_env(tv, 30)
    cfg = ControllerConfig(guided=False)
    z = np.array([0.0, 0.0, 0.0, 0.6])
    u_prev = np.zeros(2)
    global_ref = straight_ref(np.array([0.0, 0.0, 0.0, 0.6]), 50, cfg.dt, cfg.params)
    ctrl = ObcaController(cfg)
    for k in range(18):
        ref = global_ref[k : k + cfg.horizon + 1]
        sol = ctrl.solve_step(z, u_prev, ref, env.window(0, cfg.horizon + 1), step=k)
        assert sol.ok, f"step {k} status {sol.status}"
        u_prev = sol.us[0]
        z = step_rk4(z, u_prev, cfg.dt, cfg.params)
        body = body_polytope(z, cfg.params.length, cfg.params.width)
        for obs in env.obstacles(0):
            assert min_translation_distance(obs, body) >= cfg.d_min - 1e-4
    assert z[0] > 0.9  # made real progress down the lane
