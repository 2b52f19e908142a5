"""Tests for the dual-constraint MPC: warm starts, strategy rows, solves.

The dual-feasibility oracle is direct substitution into the constraint
system; trajectory safety is audited with the exact polytope distance.
"""

import dataclasses
import gc
import itertools
import math
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tightnav.dynamics
import tightnav.nlp
import tightnav.obca
from tightnav.dynamics import (
    A_MAX,
    COVERING_RADIUS,
    DELTA_MAX,
    DT,
    LENGTH,
    V_MAX,
    V_MIN,
    WIDTH,
    rollout,
    step_jacobians,
    step_rk4,
)
from tightnav.geometry import (
    Polytope,
    body_polytope,
    min_translation_distance,
    rotation_matrix,
)
from tightnav.obca import (
    BODY_G,
    BODY_H,
    ControllerConfig,
    EnvironmentEncoding,
    MpcSolution,
    ObcaController,
    StrategyLabel,
    generate_strategy_constraints,
    lateral_direction,
    _certificate,
    _face_certificates,
    _HorizonLayout,
    _rotations_t,
    _shift_keys,
    _seed_duals,
    _StepNlp,
)

from tightnav.nlp import solve_nlp
from tightnav.predictor import load_model
from tightnav.qp import bound_rows
from tightnav.scenario import benchmark_suite, parked_tv_scenario
from tightnav.simulate import run_closed_loop

from oracles import (
    dynamics_rows_dense,
    engage_seeding_every_candidate,
    face_certificates_full,
    project_one,
    rotations_t_stacked,
    scatter_blocks,
    step_eq_dense,
    step_lag_hess_dense,
    strategy_constraints_per_stage,
    strategy_halfspace,
)

STRATEGY_MODEL = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "fixtures",
                              "strategy_model.json")

def dual_residuals(obs, z, lam, mu):
    """(clearance value, stationarity residual, dual-normal magnitude)."""
    z = np.asarray(z, float)
    p, psi = z[:2], float(z[2])
    val_c = float((obs.A @ p - obs.b) @ lam - BODY_H @ mu)
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


def straight_ref(z0, n, dt):
    return rollout(np.asarray(z0, float), np.zeros((n, 2)), dt)


# --- dual warm start --------------------------------------------------------

def seed_duals(obstacle, z):
    """`_seed_duals` of the one pair of a one-step, one-obstacle scene."""
    z = np.asarray(z, float)
    env = EnvironmentEncoding([[obstacle]])
    _, *faces = _face_certificates(env, z[None])
    return _seed_duals(env, 0, 0, z, faces)


def count_pair_certificates(monkeypatch):
    """Log the face of every `_certificate` call."""
    calls = []
    certify = tightnav.obca._certificate

    def counting(norms, face, normals):
        calls.append(int(face))
        return certify(norms, face, normals)

    monkeypatch.setattr(tightnav.obca, "_certificate", counting)
    return calls


def test_witness_duals_separated_boxes():
    # The car's nose sits at 0.5 LENGTH = 0.18, the box's near face at 2.5.
    obstacle = Polytope.from_box((3.0, 0.0), 0.5, 0.5)
    z = np.array([0.0, 0.0, 0.0, 0.0])
    dist, lam, mu = seed_duals(obstacle, z)
    assert dist == pytest.approx(2.32, abs=1e-12)
    val, stat, nrm = dual_residuals(obstacle, z, lam, mu)
    assert val == pytest.approx(2.32, abs=1e-6)
    assert stat <= 1e-8
    assert nrm <= 1.0 + 1e-9
    assert np.all(lam >= 0) and np.all(mu >= 0)


def test_seed_duals_overlap_gives_face_certificate(monkeypatch):
    # The witness multipliers vanish at contact; the face certificate keeps
    # an escape direction, and is dual feasible.  It is formed at contact
    # only.
    calls = count_pair_certificates(monkeypatch)
    z = np.zeros(4)
    seed_duals(Polytope.from_box((3.0, 0.0), 0.5, 0.5), z)
    assert calls == []
    obstacle = Polytope.from_box((0.3, 0.0), 0.5, 0.5)
    dist, lam, mu = seed_duals(obstacle, z)
    assert dist == 0.0 and len(calls) == 1
    _, want_lam, want_mu = face_certificates_full(EnvironmentEncoding([[obstacle]]), z[None])
    assert lam.tobytes() == want_lam[0, 0].tobytes()
    assert mu.tobytes() == want_mu[0, 0].tobytes()
    assert np.any(lam > 0.0)
    val, stat, nrm = dual_residuals(obstacle, z, lam, mu)
    assert stat <= 1e-12 and nrm == pytest.approx(1.0, abs=1e-12)


def test_witness_duals_random_pairs_feasible():
    rng = np.random.default_rng(7)
    for _ in range(40):
        z = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(-math.pi, math.pi), 0.0])
        center = z[:2] + rng.uniform(0.3, 2.0) * np.array(
            [math.cos(a := rng.uniform(0, 2 * math.pi)), math.sin(a)])
        obstacle = Polytope.from_box(center, rng.uniform(0.1, 0.6),
                                     rng.uniform(0.1, 0.6), rng.uniform(0, math.pi))
        witness, lam, mu = seed_duals(obstacle, z)
        val, stat, nrm = dual_residuals(obstacle, z, lam, mu)
        assert stat <= 1e-7
        assert nrm <= 1.0 + 1e-9
        dist = min_translation_distance(obstacle, body_polytope(z, LENGTH, WIDTH))
        assert witness == pytest.approx(dist, abs=1e-12)
        if dist > 1e-6:
            # Strong duality: the clearance expression equals the distance.
            assert val == pytest.approx(dist, abs=1e-6)


def test_face_certificate_lower_bound_and_feasible():
    rng = np.random.default_rng(21)
    for _ in range(60):
        z = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(-math.pi, math.pi), 0.0])
        center = rng.uniform(-2.5, 2.5, size=2)
        obstacle = Polytope.from_box(center, rng.uniform(0.1, 0.8),
                                     rng.uniform(0.1, 0.8), rng.uniform(0, math.pi))
        env = static_env(obstacle, 1, with_walls=False)
        vals, best, normals = _face_certificates(env, z[None, :])
        value = vals[0, 0]
        lam, mu = _certificate(env.norms[0, 0], best[0, 0], normals[0, 0])
        dist = min_translation_distance(obstacle, body_polytope(z, LENGTH, WIDTH))
        assert value <= dist + 1e-9
        val_c, stat, nrm = dual_residuals(obstacle, z, lam, mu)
        assert val_c == pytest.approx(value, abs=1e-9)
        assert stat <= 1e-12
        assert nrm <= 1.0 + 1e-12
        assert np.all(lam >= 0) and np.all(mu >= 0)


def body_corners(z):
    """The four ego-body corners at state z, by direct enumeration."""
    half_l, half_w = 0.5 * LENGTH, 0.5 * WIDTH
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
    vals, lam, mu = face_certificates_full(env, zs)
    assert vals.shape == (n_steps, 3) and lam.shape == mu.shape == (n_steps, 3, 4)
    assert _face_certificates(env, zs)[0].tobytes() == vals.tobytes()
    for t in range(n_steps):
        corners = body_corners(zs[t])
        for m, obs in enumerate(env.obstacles(t)):
            # Clearance of the body beyond each obstacle face is the smallest
            # signed distance of its corners; the certificate takes the best face.
            norms = np.linalg.norm(obs.A, axis=1)
            per_face = np.min((corners @ obs.A.T - obs.b) / norms, axis=0)
            assert vals[t, m] == pytest.approx(np.max(per_face), abs=1e-12)
            dist = min_translation_distance(obs, body_polytope(zs[t], LENGTH, WIDTH))
            assert vals[t, m] <= dist + 1e-9
            val_c, stat, nrm = dual_residuals(obs, zs[t], lam[t, m], mu[t, m])
            assert val_c == pytest.approx(vals[t, m], abs=1e-9)
            assert stat <= 1e-12
            assert nrm == pytest.approx(1.0, abs=1e-12)
    assert np.all(lam >= 0) and np.all(mu >= 0)
    assert np.all(np.count_nonzero(lam, axis=2) == 1)


def test_face_certificates_stack_matches_separate_calls():
    """The warm start and the reference certified in one stacked call get the
    bits of two separate calls."""
    rng = np.random.default_rng(35)
    n_steps = 21
    top, bottom = lane_walls()
    tvs = [Polytope.from_box(rng.uniform(-1, 3, 2) * (1.0, 0.2), 0.2, 0.1, rng.uniform(-3, 3))
           for _ in range(n_steps)]
    env = EnvironmentEncoding([[tv, top, bottom] for tv in tvs])
    trajectories = [np.column_stack([rng.uniform(-1, 3, n_steps), rng.uniform(-0.4, 0.4, n_steps),
                                     rng.uniform(-math.pi, math.pi, n_steps),
                                     rng.uniform(-0.5, 0.5, n_steps)]) for _ in range(2)]
    stacked = _face_certificates(env, np.stack(trajectories))
    full = face_certificates_full(env, np.stack(trajectories))
    for k, zs in enumerate(trajectories):
        for got, want in zip(stacked, _face_certificates(env, zs)):
            assert got[k].tobytes() == want.tobytes()
        for got, want in zip(full, face_certificates_full(env, zs)):
            assert got[k].tobytes() == want.tobytes()


def test_pair_certificate_matches_full_arrays():
    """Each pair's certificate, formed from a stacked call's best face and
    normals, has the bits of the full (lam, mu) arrays, at contact too."""
    rng = np.random.default_rng(36)
    n_steps = 21
    top, bottom = lane_walls()
    tvs = [Polytope.from_box(rng.uniform(-1, 3, 2) * (1.0, 0.2), 0.2, 0.1, rng.uniform(-3, 3))
           for _ in range(n_steps)]
    env = EnvironmentEncoding([[tv, top, bottom] for tv in tvs])
    zs = np.stack([np.column_stack([rng.uniform(-1, 3, n_steps), rng.uniform(-0.4, 0.4, n_steps),
                                    rng.uniform(-math.pi, math.pi, n_steps),
                                    rng.uniform(-0.5, 0.5, n_steps)]) for _ in range(2)])
    # The TV's centre: every face certificate there is negative.
    zs[1, ::3, :2] = [tv.vertices.mean(axis=0) for tv in tvs[::3]]
    vals, best, normals = _face_certificates(env, zs)
    want_vals, want_lam, want_mu = face_certificates_full(env, zs)
    assert vals.tobytes() == want_vals.tobytes()
    assert np.any(vals < 0.0) and np.any(vals > 0.0)
    for k, t, m in itertools.product(range(2), range(n_steps), range(3)):
        lam, mu = _certificate(env.norms[t, m], best[k, t, m], normals[k, t, m])
        assert lam.tobytes() == want_lam[k, t, m].tobytes()
        assert mu.tobytes() == want_mu[k, t, m].tobytes()


@st.composite
def moved_states(draw):
    """(env, zs, moved): 3-step trajectories of random states, and the same
    trajectories moved by up to 0.5 m and 1 rad, against a random box
    between the lane walls of `static_env`."""
    coord = st.floats(-2.0, 2.0)
    tv = Polytope.from_box((draw(coord), draw(coord)), draw(st.floats(0.05, 0.6)),
                           draw(st.floats(0.05, 0.6)), draw(st.floats(-math.pi, math.pi)))
    states = [[draw(coord), draw(coord), draw(st.floats(-math.pi, math.pi)), 0.0]
              for _ in range(3)]
    moves = [[draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)),
              draw(st.floats(-1.0, 1.0)), 0.0] for _ in range(3)]
    zs = np.array(states)
    return static_env(tv, 3), zs, zs + np.array(moves)


@settings(max_examples=200, deadline=None)
@given(moved_states())
def test_face_certificates_lipschitz_in_position_and_heading(case):
    """A certificate falls by at most the move |dp| + r |dpsi|, r the body's
    covering radius, as the exact distance does.  With the stage-1 reach
    of `test_stage_one_reach_stays_below_the_engage_margin`, this is why a
    step's one NLP needs no pair that its guess leaves out: no admissible
    input moves stage 1 far enough to bring that pair within d_min."""
    env, zs, moved = case
    before = _face_certificates(env, zs)[0]
    after = _face_certificates(env, moved)[0]
    d = moved - zs
    reach = np.hypot(d[:, 0], d[:, 1]) + COVERING_RADIUS * np.abs(d[:, 2])
    assert np.all(after >= before - reach[:, None] - 1e-12)


def count_certificates(monkeypatch):
    """Log the shape of the trajectories of every `_face_certificates` call."""
    calls = []
    certify = tightnav.obca._face_certificates

    def counting(env, zs):
        calls.append(np.shape(zs))
        return certify(env, zs)

    monkeypatch.setattr(tightnav.obca, "_face_certificates", counting)
    return calls


def test_solve_step_certifies_once_per_step(monkeypatch):
    """One certificate call covers the warm start and the reference, and the
    solve adds none; a warm start that penetrates an obstacle costs one more
    call for its braking replacement."""
    calls = count_certificates(monkeypatch)
    cfg = ControllerConfig()
    z0 = np.array([0.0, 0.0, 0.0, 0.6])
    ref = straight_ref(z0, cfg.horizon, DT)
    # A TV beside the path: close enough to engage, clear of the warm start.
    env = static_env(Polytope.from_box((1.1, 0.3), 0.28, 0.11), 21)
    sol = ObcaController(cfg).solve_step(z0, np.zeros(2), ref, env)
    assert sol.ok and sol.stats["engaged"] > 0 and sol.stats["rounds"] == 1
    assert calls == [(2, 21, 4)]
    calls.clear()
    # The blocking TV sits on the zero-input rollout: the solve starts from
    # the stopped braking guess.
    _, env, z0, ref = blocking_scene()
    sol = ObcaController(cfg).solve_step(z0, np.zeros(2), ref, env,
                                         strategy=StrategyLabel.PASS_LEFT)
    assert sol.ok and sol.stats["rounds"] == 1
    assert calls == [(2, 21, 4), (21, 4)]


def test_stage_one_reach_stays_below_the_engage_margin():
    """One RK4 step from a state under two admissible inputs ends within
    |dp| + r |dpsi| < ENGAGE_DIST - d_min of itself, r the body's covering
    radius, for start speeds from V_MIN to 1.9 m/s.  A pair is left out of
    a step's NLP only when the guess's stage 1 is ENGAGE_DIST from it, and
    the guess's and the solution's stage 1 are both such steps, so the
    applied input keeps d_min from every pair left out."""
    margin = tightnav.obca.ENGAGE_DIST - ControllerConfig().d_min
    inputs = [np.array([delta, a]) for delta in np.linspace(-DELTA_MAX, DELTA_MAX, 15)
              for a in np.linspace(-A_MAX, A_MAX, 9)]
    worst = 0.0
    for v in np.linspace(V_MIN, 1.9, 30):
        z0 = np.array([0.3, -0.2, 0.7, v])
        ends = np.array([step_rk4(z0, u, DT) for u in inputs])
        d = ends[:, None] - ends[None]
        reach = np.hypot(d[..., 0], d[..., 1]) + COVERING_RADIUS * np.abs(d[..., 2])
        worst = max(worst, float(reach.max()))
    # 0.234 m at 1.9 m/s: the grid reaches close to the margin.
    assert 0.2 < worst < margin


def promotion_scene():
    """A box midway between the zero-input rollout and a reference 0.9 m to
    its left, more than ENGAGE_DIST from both: the first solve engages no
    pair, and its plan cuts through the box."""
    cfg = ControllerConfig()
    n = cfg.horizon + 1
    z0 = np.array([0.0, 0.0, 0.0, 0.6])
    ref = np.column_stack([0.06 * np.arange(n), np.full(n, 0.9), np.zeros(n), np.full(n, 0.6)])
    env = EnvironmentEncoding([[Polytope.from_box((0.9, 0.4), 0.1, 0.04)]] * n)
    return env, z0, ref


def test_one_nlp_per_step_keeps_the_applied_clearance(monkeypatch):
    """60 closed-loop steps on `promotion_scene`, the reference moving one
    stage a step: every step solves one NLP, and though the first plan cuts
    through the box, the box is engaged before the applied inputs bring the
    body within d_min of it."""
    env, z, ref0 = promotion_scene()
    cfg = ControllerConfig()
    calls = record_nlp_calls(monkeypatch)
    ctrl = ObcaController(cfg)
    u = np.zeros(2)
    engaged, clearance = [], []
    for k in range(60):
        ref = ref0 + np.array([0.06 * k, 0.0, 0.0, 0.0])
        sol = ctrl.solve_step(z, u, ref, env, step=k)
        assert sol.ok and sol.stats["rounds"] == 1 and len(calls) == k + 1
        if k == 0:
            assert min(min_translation_distance(env.tv(t), body_polytope(sol.zs[t], LENGTH, WIDTH))
                       for t in range(1, cfg.horizon + 1)) < cfg.d_min
        engaged.append(sol.stats["engaged"])
        u = sol.us[0]
        z = step_rk4(z, u, DT)
        clearance.append(min_translation_distance(env.tv(0), body_polytope(z, LENGTH, WIDTH)))
    assert engaged[0] == 0 and max(engaged) > 0
    assert min(clearance) >= cfg.d_min - 1e-5
    assert min(clearance) < 2 * cfg.d_min


# --- strategy constraints ---------------------------------------------------

def canonical_env(n_steps=3):
    tv = Polytope.from_box((0.0, 0.0), 2.0, 1.0)
    return static_env(tv, n_steps, with_walls=False)


def test_strategy_constraint_pass_left_canonical():
    env = canonical_env()
    ref = np.array([[0.0, 0.0, 0.0, 0.5]] * 3)
    stages, w, offset = generate_strategy_constraints(StrategyLabel.PASS_LEFT, ref, env, 1.0)
    assert stages.tolist() == [0, 1, 2]
    np.testing.assert_allclose(w, [[0.0, 1.0]] * 3, atol=1e-6)
    np.testing.assert_allclose(offset, 1.0, atol=1e-6)


def test_strategy_constraint_pass_right_mirrors():
    env = canonical_env()
    ref = np.array([[0.0, 0.0, 0.0, 0.5]] * 3)
    left = generate_strategy_constraints(StrategyLabel.PASS_LEFT, ref, env, 1.0)
    right = generate_strategy_constraints(StrategyLabel.PASS_RIGHT, ref, env, 1.0)
    assert len(left[0]) == 3 and right[0].tolist() == left[0].tolist()
    np.testing.assert_allclose(right[1], -left[1], atol=1e-6)
    np.testing.assert_allclose(right[2], left[2], rtol=0.0, atol=1e-6)


def test_strategy_constraint_outside_region_empty():
    env = canonical_env()
    ref = np.array([[10.0, 10.0, 0.0, 0.5]] * 3)
    stages, w, offset = generate_strategy_constraints(StrategyLabel.PASS_LEFT, ref, env, 1.0)
    assert stages.shape == (0,) and w.shape == (0, 2) and offset.shape == (0,)


def test_strategy_constraint_yield_rejected():
    env = canonical_env()
    ref = np.zeros((3, 4))
    with pytest.raises(ValueError):
        generate_strategy_constraints(StrategyLabel.YIELD, ref, env, 1.0)


def test_strategy_constraints_support_tv_polytope():
    rng = np.random.default_rng(11)
    r_ev = COVERING_RADIUS
    for _ in range(25):
        tv = Polytope.from_box(rng.uniform(-1, 1, size=2), rng.uniform(0.1, 0.5),
                               rng.uniform(0.1, 0.5), rng.uniform(0, math.pi))
        env = static_env(tv, 4, with_walls=False)
        psi_ref = rng.uniform(-0.3, 0.3)
        base = tv.vertices.mean(axis=0)
        ref = np.array([
            [base[0] + 0.05 * t, base[1] + rng.uniform(-0.1, 0.1), psi_ref, 0.5]
            for t in range(4)
        ])
        strat = StrategyLabel.PASS_LEFT if rng.random() < 0.5 else StrategyLabel.PASS_RIGHT
        for t, w, offset in zip(*generate_strategy_constraints(strat, ref, env, r_ev)):
            verts = env.tv(t).vertices
            assert np.max(verts @ w) <= offset + 1e-9


def moving_tv_scene(rng, n_steps=21, dt=0.1):
    """A TV driving and turning past the lane walls, and a reference that
    crosses its critical region at some stages and stays clear at others."""
    c0, v = rng.uniform(-1, 1, 2), rng.uniform(-0.6, 0.6, 2)
    psi0, omega = rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5)
    half_l, half_w = rng.uniform(0.1, 0.3), rng.uniform(0.06, 0.15)
    top, bottom = lane_walls()
    tvs = [Polytope.from_box(c0 + v * t * dt, half_l, half_w, psi0 + omega * t * dt)
           for t in range(n_steps)]
    env = EnvironmentEncoding([[tv, top, bottom] for tv in tvs])
    centers = np.array([tv.vertices.mean(axis=0) for tv in tvs])
    spread = rng.uniform(0.1, 0.6)
    ref = np.column_stack([centers + rng.uniform(-spread, spread, (n_steps, 2)),
                           rng.uniform(-math.pi, math.pi) + rng.uniform(-0.3, 0.3, n_steps),
                           np.full(n_steps, 0.5)])
    return ref, env


def test_strategy_constraints_match_per_stage_oracle():
    rng = np.random.default_rng(307)
    r_ev = COVERING_RADIUS
    rows = skipped = 0
    for _ in range(30):
        ref, env = moving_tv_scene(rng)
        for strat in (StrategyLabel.PASS_LEFT, StrategyLabel.PASS_RIGHT):
            got = generate_strategy_constraints(strat, ref, env, r_ev)
            want = strategy_constraints_per_stage(strat, ref, env, r_ev)
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2].tobytes() == want[2].tobytes()
            rows += len(got[0])
            skipped += env.n_steps - len(got[0])
    assert rows >= 200 and skipped >= 200


def test_strategy_constraints_near_per_stage_bisection():
    """The closed-form exits put each stage's halfspace where the bisection
    puts it, within what PROJECTION_TOL / 2 moves a supporting line."""
    rng = np.random.default_rng(311)
    r_ev = COVERING_RADIUS
    rows = 0
    for _ in range(10):
        ref, env = moving_tv_scene(rng)
        for strat in (StrategyLabel.PASS_LEFT, StrategyLabel.PASS_RIGHT):
            stages, w, offset = generate_strategy_constraints(strat, ref, env, r_ev)
            want = strategy_constraints_per_stage(strat, ref, env, r_ev, project=project_one)
            assert stages.tolist() == want[0].tolist()
            # The normal turns by at most the point's move over its distance
            # r_ev from the TV.
            assert np.max(np.abs(w - want[1]), initial=0.0) <= 1e-6 / r_ev
            reach = 1.0 + np.abs(ref[stages, :2]).max(axis=1)
            assert np.all(np.abs(offset - want[2]) <= 1e-6 / r_ev * reach)
            rows += len(stages)
    assert rows >= 50


def test_strategy_halfspaces_match_per_point_on_guided_stages(monkeypatch):
    """Every batch of halfspaces the guided overtake of the `guided_sg`
    benchmark builds (36 batches, 410 rows), row by row against the
    per-point routine, bit for bit."""
    model = load_model(STRATEGY_MODEL)
    batches = []
    batched = tightnav.obca.strategy_halfspaces

    def recording(qs, verts, A, b):
        out = batched(qs, verts, A, b)
        batches.append((qs, verts, A, b, out))
        return out

    monkeypatch.setattr(tightnav.obca, "strategy_halfspaces", recording)
    run_closed_loop(benchmark_suite()[8], "sg", model=model)
    rows = 0
    for qs, verts, A, b, out in batches:
        for q, v, a_k, b_k, w, offset in zip(qs, verts, A, b, *out):
            want_w, want_offset = strategy_halfspace(q, Polytope(a_k, b_k, v))
            assert w.tobytes() == want_w.tobytes()
            assert float(offset).hex() == float(want_offset).hex()
            rows += 1
    assert len(batches) >= 30 and rows >= 400


def test_solve_step_windows_a_short_encoding():
    """An encoding shorter than the horizon holds its last step: the parked
    TV's 2-step timeline solves as its window covering the horizon does."""
    scenario = parked_tv_scenario()
    cfg = ControllerConfig(horizon=8)
    env = scenario.environment()
    assert env.n_steps == 2
    x0, y_ref, v = 1.2, 0.34, 0.3
    z0 = np.array([x0, 0.3, 0.0, v])
    ref = np.column_stack([x0 + v * DT * np.arange(9), np.full(9, y_ref), np.zeros(9),
                           np.full(9, v)])
    for strategy in (None, StrategyLabel.PASS_RIGHT):
        short = ObcaController(cfg).solve_step(z0, np.zeros(2), ref, env, strategy=strategy)
        full = ObcaController(cfg).solve_step(z0, np.zeros(2), ref, env.window(0, 9),
                                              strategy=strategy)
        assert short.ok and short.status == full.status
        assert short.zs.tobytes() == full.zs.tobytes() and short.us.tobytes() == full.us.tobytes()
        assert short.stats == full.stats
    # The screen reads the clamped timeline at every reference stage.
    rows = generate_strategy_constraints(StrategyLabel.PASS_RIGHT, ref, env,
                                         COVERING_RADIUS)
    assert rows[0].max() > 1
    rows_full = generate_strategy_constraints(StrategyLabel.PASS_RIGHT, ref, env.window(0, 9),
                                              COVERING_RADIUS)
    assert [a.tobytes() for a in rows] == [a.tobytes() for a in rows_full]


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
    tri = Polytope(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), np.ones(3),
                   [[1.0, -2.0], [1.0, 1.0], [-2.0, 1.0]])
    with pytest.raises(ValueError):
        EnvironmentEncoding([[tri]])
    with pytest.raises(ValueError):
        EnvironmentEncoding([[tv, tri], [tv, tv]])
    with pytest.raises(ValueError):
        EnvironmentEncoding([])
    with pytest.raises(ValueError):
        EnvironmentEncoding([[]])


def test_environment_window_pads_with_last_step():
    boxes = [Polytope.from_box((float(t), 0.0), 0.3, 0.2) for t in range(3)]
    env = EnvironmentEncoding([[b] for b in boxes])
    assert env.tv(7) is boxes[2] and env.obstacles(600) == [boxes[2]]
    win = env.window(1, 4)
    assert win.n_steps == 4
    assert win.tv(0) is boxes[1]
    assert win.tv(1) is boxes[2]
    assert win.tv(3) is boxes[2]
    assert win.tv(9) is boxes[2]
    # The window's stacks are rows 1, 2, 2, 2 of the parent's.
    for got, stack in zip(win.faces, env.faces):
        assert np.array_equal(got, stack[[1, 2, 2, 2]])
    for name in ("vertices", "norms", "unit_normals"):
        assert getattr(win, name).tobytes() == getattr(env, name)[[1, 2, 2, 2]].tobytes()
    assert env.window(5, 2).obstacles(0) == [boxes[2]]


# --- horizon solves ---------------------------------------------------------

def blocking_scene(x=1.5):
    """Obstacle centered on the reference line at x inside a walled lane.

    Both pass corridors are wide enough for the body even while it is still
    turning, so either strategy admits a comfortably feasible thread.  The
    zero-input warm start runs into the obstacle, so a cold solve starts from
    the braking guess; at x = 1.1 that guess cannot meet the strategy rows.
    """
    tv = Polytope.from_box((x, 0.0), 0.28, 0.11)
    env = static_env(tv, 21)
    z0 = np.array([0.0, 0.0, 0.0, 0.6])
    cfg = ControllerConfig()
    ref = straight_ref(z0, cfg.horizon, DT)
    return tv, env, z0, ref


def test_solve_step_far_obstacles_track_reference():
    far = Polytope.from_box((100.0, 100.0), 0.3, 0.2)
    env = static_env(far, 21, with_walls=False)
    cfg = ControllerConfig()
    z0 = np.array([0.0, 0.0, 0.0, 0.6])
    ref = straight_ref(z0, cfg.horizon, DT)
    sol = ObcaController(cfg).solve_step(z0, np.zeros(2), ref, env)
    assert sol.ok
    assert np.max(np.abs(sol.zs - ref)) < 1e-4
    assert np.max(np.abs(sol.us)) < 1e-4
    assert sol.stats["engaged"] == 0


def test_solve_step_avoids_blocking_obstacle():
    tv, env, z0, ref = blocking_scene()
    cfg = ControllerConfig()
    sol = ObcaController(cfg).solve_step(z0, np.zeros(2), ref, env)
    assert sol.ok
    assert sol.stats["engaged"] > 0
    for t in range(1, cfg.horizon + 1):
        body = body_polytope(sol.zs[t], LENGTH, WIDTH)
        for obs in env.obstacles(t):
            assert min_translation_distance(obs, body) >= cfg.d_min - 1e-5
    assert sol.stats["cost"] > 1e-4  # it had to leave the reference


def test_solve_step_evaluates_each_point_once(monkeypatch):
    """Each solve evaluates its x0 once without Jacobians, for its first
    KKT test, and once with them when it takes a QP step; every other
    point is evaluated once, with Jacobians."""
    tv, env, z0, ref = blocking_scene()
    cfg = ControllerConfig()
    points = []
    starts = []
    eq = _StepNlp.eq
    solve = tightnav.obca.solve_nlp

    def recording(self, x, jacobian=True):
        points.append((x.tobytes(), jacobian))
        return eq(self, x, jacobian)

    def recording_solve(problem, x0, warm_rows=None):
        first = len(points)
        sol = solve(problem, x0, warm_rows=warm_rows)
        starts.append((points[first:], x0.tobytes(), sol.iterations))
        return sol

    monkeypatch.setattr(_StepNlp, "eq", recording)
    monkeypatch.setattr(tightnav.obca, "solve_nlp", recording_solve)
    sol = ObcaController(cfg).solve_step(z0, np.zeros(2), ref, env)
    assert sol.ok and sol.stats["engaged"] > 0
    assert any(iterations > 1 for *_, iterations in starts)
    for own, x0, iterations in starts:
        assert own[0] == (x0, False)
        assert own.count((x0, True)) == (iterations > 1)
        assert sum(not jacobian for _, jacobian in own) == 1
    full = [x for x, jacobian in points if jacobian]
    assert len(full) > 2 and len(set(full)) == len(full)
    monkeypatch.undo()
    again = ObcaController(cfg).solve_step(z0, np.zeros(2), ref, env)
    assert np.array_equal(again.zs, sol.zs) and np.array_equal(again.us, sol.us)


def test_solve_step_strategy_rows_enforced():
    tv, env, z0, ref = blocking_scene()
    cfg = ControllerConfig()
    ctrl = ObcaController(cfg)
    sol = ctrl.solve_step(z0, np.zeros(2), ref, env, strategy=StrategyLabel.PASS_LEFT)
    assert sol.ok
    # The rows of every stage past the measured state.
    stages, w, offset = generate_strategy_constraints(
        StrategyLabel.PASS_LEFT, ref, env, COVERING_RADIUS)
    later = stages >= 1
    assert later.any()
    assert np.all(offset[later] - np.sum(w * sol.zs[stages, :2], axis=1)[later] <= 1e-6)
    # Passing left of a centered obstacle means clearing its top edge.
    t_close = int(np.argmin(np.abs(sol.zs[:, 0] - 1.5)))
    assert sol.zs[t_close, 1] > 0.055


def test_guided_solve_from_the_braking_guess_ends_infeasible(monkeypatch):
    # The zero-input warm start runs into the TV, so the solve starts from
    # the stopped braking guess.  At v = 0 its linearization has no lateral
    # authority against the strategy rows, so the first subproblem has no
    # solution: the one NLP ends infeasible at iteration 1 without a step,
    # and the step keeps no plan, so the next one starts cold the same way.
    tv, env, z0, ref = blocking_scene(1.1)
    calls = record_nlp_calls(monkeypatch)
    ctrl = ObcaController(ControllerConfig())
    sol = ctrl.solve_step(z0, np.zeros(2), ref, env, strategy=StrategyLabel.PASS_LEFT, step=0)
    assert [(got.status, got.iterations) for _, _, got, _ in calls] == [("infeasible", 1)]
    assert sol.status == "infeasible" and sol.stats["rounds"] == 1
    np.testing.assert_array_equal(sol.zs, ctrl._braking_guess(z0)[0])
    again = ctrl.solve_step(z0, np.zeros(2), ref, env, strategy=StrategyLabel.PASS_LEFT, step=1)
    assert len(calls) == 2 and calls[1][1] is None
    assert again.status == "infeasible" and np.array_equal(again.zs, sol.zs)


def test_solve_step_pass_sides_differ():
    tv, env, z0, ref = blocking_scene()
    left = ObcaController(ControllerConfig()).solve_step(
        z0, np.zeros(2), ref, env, strategy=StrategyLabel.PASS_LEFT)
    right = ObcaController(ControllerConfig()).solve_step(
        z0, np.zeros(2), ref, env, strategy=StrategyLabel.PASS_RIGHT)
    assert left.ok and right.ok
    t_close = int(np.argmin(np.abs(left.zs[:, 0] - 1.5)))
    assert left.zs[t_close, 1] > right.zs[t_close, 1]


def test_baseline_cost_no_higher_than_guided():
    tv, env, z0, ref = blocking_scene()
    bl = ObcaController(ControllerConfig()).solve_step(
        z0, np.zeros(2), ref, env)
    sg = ObcaController(ControllerConfig()).solve_step(
        z0, np.zeros(2), ref, env, strategy=StrategyLabel.PASS_LEFT)
    assert bl.ok and sg.ok
    assert bl.stats["cost"] <= sg.stats["cost"] + 1e-6


def test_unreachable_strategy_ends_the_nlp_infeasible(monkeypatch):
    # The EV stands 3 m below a TV that the strategy rows ask it to pass on
    # the left, farther than a horizon can carry it: the one NLP ends
    # infeasible, and so does the step.
    env = canonical_env(21)
    cfg = ControllerConfig()
    z0 = np.array([0.0, -3.0, 0.0, 0.0])
    ref = np.array([[0.0, 0.0, 0.0, 0.0]] * (cfg.horizon + 1))
    assert len(generate_strategy_constraints(StrategyLabel.PASS_LEFT, ref, env,
                                             COVERING_RADIUS)[0])
    calls = record_nlp_calls(monkeypatch)
    sol = ObcaController(cfg).solve_step(z0, np.zeros(2), ref, env,
                                         strategy=StrategyLabel.PASS_LEFT)
    assert [got.status for _, _, got, _ in calls] == ["infeasible"]
    assert sol.status == "infeasible" and sol.stats["rounds"] == 1


def test_solve_step_deterministic():
    tv, env, z0, ref = blocking_scene()
    sols = [
        ObcaController(ControllerConfig()).solve_step(
            z0, np.zeros(2), ref, env)
        for _ in range(2)
    ]
    assert np.array_equal(sols[0].zs, sols[1].zs)
    assert np.array_equal(sols[0].us, sols[1].us)
    assert sols[0].stats["iterations"] == sols[1].stats["iterations"]


def test_shifted_warm_start_consistency():
    tv, env, z0, ref_unused = blocking_scene(1.1)
    cfg = ControllerConfig()
    n = cfg.horizon
    global_ref = straight_ref(z0, n + 2, DT)
    ctrl = ObcaController(cfg)
    sol1 = ctrl.solve_step(z0, np.zeros(2), global_ref[: n + 1], env, step=0)
    assert sol1.ok
    z1 = step_rk4(z0, sol1.us[0], DT)
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
    cfg = ControllerConfig()
    z = np.array([0.0, 0.0, 0.0, 0.6])
    u_prev = np.zeros(2)
    global_ref = straight_ref(np.array([0.0, 0.0, 0.0, 0.6]), 50, DT)
    ctrl = ObcaController(cfg)
    for k in range(18):
        ref = global_ref[k : k + cfg.horizon + 1]
        sol = ctrl.solve_step(z, u_prev, ref, env.window(0, cfg.horizon + 1), step=k)
        assert sol.ok, f"step {k} status {sol.status}"
        u_prev = sol.us[0]
        z = step_rk4(z, u_prev, DT)
        body = body_polytope(z, LENGTH, WIDTH)
        for obs in env.obstacles(0):
            assert min_translation_distance(obs, body) >= cfg.d_min - 1e-4
    assert z[0] > 0.9  # made real progress down the lane


# --- step NLP callbacks against finite differences ---------------------------

FD_EPS = 1e-6


def central_diff(fun, x):
    """Central differences of fun at x; the last axis indexes the variable."""
    cols = []
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = FD_EPS
        cols.append((np.asarray(fun(x + e)) - np.asarray(fun(x - e))) / (2.0 * FD_EPS))
    return np.stack(cols, axis=-1)


@pytest.fixture(scope="module")
def fd_nlp():
    """(nlp, x): horizon 3, every stage's pairs with two rotated boxes
    engaged, one strategy row, and a point with nonzero headings and duals."""
    cfg = ControllerConfig(horizon=3)
    boxes = [Polytope.from_box((0.9, 0.3), 0.2, 0.1, 0.4),
             Polytope.from_box((1.2, -0.35), 0.25, 0.12, -0.7)]
    env = EnvironmentEncoding([boxes] * 4)
    z0 = np.array([0.0, 0.05, 0.1, 0.5])
    ref = straight_ref(z0, 3, DT)
    pairs = [(t, m) for t in (1, 2, 3) for m in (0, 1)]
    strat = (np.array([2]), np.array([[0.6, 0.8]]), np.array([-0.1]))
    nlp = _StepNlp(cfg, z0, np.array([0.05, -0.1]), ref, env, pairs, strat,
                   _HorizonLayout(cfg))
    rng = np.random.default_rng(7)
    us = rng.uniform(-0.3, 0.3, (3, 2))
    zs = rollout(z0, us, DT) + rng.normal(0.0, 0.05, (4, 4))
    duals = {pair: (rng.uniform(0.1, 1.0, 4), rng.uniform(0.1, 1.0, 4)) for pair in pairs}
    return nlp, nlp.pack(zs, us, duals)


def dense_lag_hess(nlp, x, nu, lam):
    """`nlp.lag_hess`'s stacks scattered to the n x n matrix by the grouping
    they are laid out by, `problem.blocks`."""
    return scatter_blocks(zip(nlp.problem.blocks, nlp.lag_hess(x, nu, lam)), nlp.n)


def test_step_nlp_objective_gradient_and_hessian_match_differences(fd_nlp):
    nlp, x = fd_nlp
    _, grad = nlp.objective(x)
    np.testing.assert_allclose(grad, central_diff(lambda v: nlp.objective(v)[0], x),
                               rtol=0.0, atol=1e-6)
    # With zero multipliers the Lagrangian Hessian is the objective's.
    n_eq = 4 * nlp.cfg.horizon + len(nlp.eq(x)[0])
    h_obj = dense_lag_hess(nlp, x, np.zeros(n_eq), np.zeros(len(nlp.ineq(x)[0])))
    np.testing.assert_allclose(h_obj, central_diff(lambda v: nlp.objective(v)[1], x),
                               rtol=0.0, atol=1e-6)


def dynamics_dense(nlp, x):
    """(residual, dense rows) of the step NLP's dynamics rows."""
    r, A, B = nlp.dynamics(x)
    return r, dynamics_rows_dense(nlp.problem.stages, A, B, nlp.n)


def test_step_nlp_constraint_jacobians_match_differences(fd_nlp):
    nlp, x = fd_nlp
    for rows in (lambda v: dynamics_dense(nlp, v), nlp.eq, nlp.ineq):
        _, jac = rows(x)
        np.testing.assert_allclose(jac, central_diff(lambda v: rows(v)[0], x),
                                   rtol=0.0, atol=1e-7)


def test_step_nlp_dynamics_and_eq_match_the_dense_oracle(fd_nlp):
    """Pairs at every stage and a strategy row engaged: the dynamics
    residuals and the stationarity rows, in that order, are the dense
    equality rows' values bit for bit, and the (A, B) stacks, scattered,
    with `eq`'s rows below them are the dense Jacobian bit for bit; the
    solver's block-wise products with them match the dense ones."""
    nlp, x = fd_nlp
    assert len(nlp.pairs) and len(nlp.strat_w)
    n_h = nlp.cfg.horizon
    assert nlp.problem.stages == (n_h, 4, 2)
    rng = np.random.default_rng(13)
    for v in [x] + [x + rng.normal(0.0, 0.1, nlp.n) for _ in range(5)]:
        want_vals, want_jac = step_eq_dense(nlp, v)
        r, A, B = nlp.dynamics(v)
        assert A.shape == (n_h - 1, 4, 4) and B.shape == (n_h, 4, 2)
        vals, jac = nlp.eq(v)
        assert jac.shape == (2 * len(nlp.pairs), nlp.n)
        assert np.concatenate([r, vals]).tobytes() == want_vals.tobytes()
        dense = np.vstack([dynamics_rows_dense(nlp.problem.stages, A, B, nlp.n), jac])
        assert dense.tobytes() == want_jac.tobytes()
        solver = tightnav.nlp._EqJacobian(nlp.problem.stages, A, B, jac)
        p = rng.normal(size=nlp.n)
        w = rng.normal(size=len(want_vals))
        np.testing.assert_allclose(solver.dot(p), want_jac @ p, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(solver.tdot(w), want_jac.T @ w, rtol=1e-13, atol=1e-13)


def test_step_nlp_dynamics_steps_the_horizon_in_one_call(fd_nlp, monkeypatch):
    nlp, x = fd_nlp
    calls = []

    def counted(z, u, dt):
        calls.append(np.shape(z))
        return tightnav.dynamics.step_jacobians(z, u, dt)

    monkeypatch.setattr(tightnav.obca, "step_jacobians", counted)
    nlp.dynamics(x)
    nlp.eq(x)
    assert calls == [(nlp.cfg.horizon, 4)]


def test_step_nlp_values_without_jacobians_match_full_evaluation(fd_nlp, monkeypatch):
    """With the Jacobians off, the rows' values keep their bits, pairs and
    strategy rows included, and the dynamics values come from one
    `step_rk4` per stage instead of `step_jacobians`."""
    nlp, x = fd_nlp
    assert len(nlp.pairs) and len(nlp.strat_w)
    rng = np.random.default_rng(9)
    points = [x] + [x + rng.normal(0.0, 0.1, nlp.n) for _ in range(20)]
    want = [(nlp.dynamics(v)[0], nlp.eq(v)[0], nlp.ineq(v)[0]) for v in points]
    steps = []

    def counted(z, u, dt):
        steps.append(np.shape(z))
        return tightnav.dynamics.step_rk4(z, u, dt)

    monkeypatch.setattr(tightnav.obca, "step_rk4", counted)
    monkeypatch.setattr(tightnav.obca, "step_jacobians", None)
    for v, (want_dyn, want_eq, want_ineq) in zip(points, want):
        vals, A, B = nlp.dynamics(v, False)
        assert A is None and B is None and vals.tobytes() == want_dyn.tobytes()
        vals, jac = nlp.eq(v, False)
        assert jac is None and vals.tobytes() == want_eq.tobytes()
        vals, jac = nlp.ineq(v, False)
        assert jac is None and vals.tobytes() == want_ineq.tobytes()
    assert steps == [(4,)] * (len(points) * nlp.cfg.horizon)


def test_optimal_warm_start_builds_no_jacobian(monkeypatch):
    """Beside the parked TV every solve ends at its first KKT test, so the
    open-lane closed loop never builds a dynamics Jacobian."""
    jacobians = []
    iterations = []
    solve = tightnav.obca.solve_nlp

    def recording(*args, **kwargs):
        sol = solve(*args, **kwargs)
        iterations.append(sol.iterations)
        return sol

    def counted(z, u, dt):
        jacobians.append(np.shape(z))
        return step_jacobians(z, u, dt)

    monkeypatch.setattr(tightnav.obca, "step_jacobians", counted)
    monkeypatch.setattr(tightnav.obca, "solve_nlp", recording)
    run_closed_loop(parked_tv_scenario(), "bl", max_steps=12)
    assert len(iterations) >= 10 and set(iterations) == {1}
    assert jacobians == []


def test_step_nlp_lagrangian_hessian_matches_differences(fd_nlp):
    nlp, x = fd_nlp
    rng = np.random.default_rng(8)
    n_dyn = 4 * nlp.cfg.horizon
    nu = rng.normal(0.0, 1.0, n_dyn + 2 * len(nlp.pairs))
    lam = rng.uniform(0.5, 2.0, 2 * len(nlp.pairs) + len(nlp.strat_w))
    # The dynamics rows are Gauss-Newton by design: their multipliers add
    # no curvature, so the oracle differentiates the Lagrangian without them,
    # through the stationarity rows of `eq` alone.
    def lagrangian_grad(v):
        return nlp.objective(v)[1] + nlp.eq(v)[1].T @ nu[n_dyn:] + nlp.ineq(v)[1].T @ lam

    np.testing.assert_allclose(dense_lag_hess(nlp, x, nu, lam), central_diff(lagrangian_grad, x),
                               rtol=0.0, atol=1e-6)


def test_step_nlp_hessian_stacks_match_the_dense_oracle(fd_nlp):
    """Two pairs at every stage, so the psi-psi entries accumulate, and a
    strategy row: the stacks, scattered, are the dense Lagrangian Hessian
    bit for bit, their shapes those of the declared blocks, and no call
    changes an earlier call's stacks."""
    nlp, x = fd_nlp
    stages = [t for t, _ in nlp.pairs]
    assert len(stages) > len(set(stages)) and len(nlp.strat_w)
    groups = nlp.problem.blocks
    rng = np.random.default_rng(12)
    first = None
    for scale in (0.0, 1.0, 1e3):
        v = x + scale * rng.normal(0.0, 0.1, nlp.n)
        nu = scale * rng.normal(0.0, 1.0, 4 * nlp.cfg.horizon + 2 * len(nlp.pairs))
        lam = scale * rng.uniform(0.0, 2.0, 2 * len(nlp.pairs) + len(nlp.strat_w))
        stacks = nlp.lag_hess(v, nu, lam)
        assert [s.shape for s in stacks] == [ix.shape + ix.shape[1:] for ix in groups]
        got = scatter_blocks(zip(groups, stacks), nlp.n)
        assert got.tobytes() == step_lag_hess_dense(nlp, v, nu, lam).tobytes()
        if first is None:
            first, first_bytes = stacks, [s.tobytes() for s in stacks]
    assert [s.tobytes() for s in first] == first_bytes


def test_rotations_fill_the_stacked_oracle_bits():
    psi = np.random.default_rng(5).uniform(-4.0, 4.0, 9)
    for got, want in zip(_rotations_t(psi), rotations_t_stacked(psi)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_step_nlp_hessian_blocks_cover_lagrangian_sparsity():
    """Two pairs at stage 2, none at stage 3, strategy rows at stages 1 and 3:
    at random iterates and multipliers every nonzero of the Lagrangian
    Hessian joins two variables with the same label."""
    cfg = ControllerConfig(horizon=4)
    boxes = [Polytope.from_box((0.9, 0.3), 0.2, 0.1, 0.4),
             Polytope.from_box((1.2, -0.35), 0.25, 0.12, -0.7)]
    env = EnvironmentEncoding([boxes] * 5)
    z0 = np.array([0.0, 0.05, 0.1, 0.5])
    ref = straight_ref(z0, 4, DT)
    pairs = [(1, 1), (2, 0), (2, 1), (4, 0)]
    strat = (np.array([1, 3]), np.array([[0.6, 0.8], [0.0, 1.0]]), np.array([-0.1, 0.2]))
    nlp = _StepNlp(cfg, z0, np.zeros(2), ref, env, pairs, strat, _HorizonLayout(cfg))
    labels = nlp.hess_blocks
    assert labels.shape == (nlp.n,)
    assert sorted(np.unique(labels, return_counts=True)[1]) == [4, 8, 12, 12, 20]
    assert "_hess_tables" not in vars(nlp)
    groups = nlp.problem.blocks
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.normal(0.0, 1.0, nlp.n)
        nu = rng.normal(0.0, 1.0, 4 * cfg.horizon + 2 * len(pairs))
        lam = rng.uniform(0.1, 2.0, 2 * len(pairs) + len(strat[0]))
        h = step_lag_hess_dense(nlp, x, nu, lam)
        rows, cols = np.nonzero(h)
        assert np.array_equal(labels[rows], labels[cols])
        # Every pair's curvature shows up, so the check has teeth.
        assert np.count_nonzero(h) > nlp.n + 2 * (cfg.horizon - 1) + 16 * len(pairs)
        stacks = nlp.lag_hess(x, nu, lam)
        assert scatter_blocks(zip(groups, stacks), nlp.n).tobytes() == h.tobytes()
        tightnav.nlp._convexify(stacks)


def test_solve_step_declares_hessian_blocks_and_matches_undeclared(monkeypatch):
    tv, env, z0, ref = blocking_scene()
    cfg = ControllerConfig()
    solve_nlp = tightnav.obca.solve_nlp
    declared = []

    def undeclared(prob, x0, warm_rows=None):
        declared.append(prob.hess_blocks is not None)
        groups = prob.blocks

        def dense(x, nu, lam):
            return [scatter_blocks(zip(groups, prob.lag_hess(x, nu, lam)), prob.n)[None]]

        return solve_nlp(dataclasses.replace(prob, hess_blocks=None, lag_hess=dense), x0,
                         warm_rows)

    want = ObcaController(cfg).solve_step(z0, np.zeros(2), ref, env)
    monkeypatch.setattr(tightnav.obca, "solve_nlp", undeclared)
    got = ObcaController(cfg).solve_step(z0, np.zeros(2), ref, env)
    assert declared and all(declared)
    assert want.ok and got.ok and want.stats["engaged"] > 0
    np.testing.assert_allclose(got.zs, want.zs, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(got.us, want.us, rtol=0.0, atol=1e-9)


def test_equal_size_stage_and_input_blocks_group_apart_and_solve_as_undeclared():
    """Horizon 6 with one pair per stage: each stage block (z_t and its
    pair's duals, 4 + 8 variables) has the input block's size, 2 * 6.  The
    blocks group apart by their state counts, the stacks laid out by that
    grouping are the dense Lagrangian Hessian bit for bit, and the solve
    with the blocks declared matches the one without."""
    cfg = ControllerConfig(horizon=6)
    box = Polytope.from_box((0.75, 0.12), 0.2, 0.1, 0.3)
    env = EnvironmentEncoding([[box]] * 7)
    z0 = np.array([0.0, 0.0, 0.0, 1.0])
    ref = straight_ref(z0, 6, DT)
    pairs = [(t, 0) for t in range(1, 7)]
    nlp = _StepNlp(cfg, z0, np.zeros(2), ref, env, pairs,
                   (np.empty(0, dtype=int), np.empty((0, 2)), np.empty(0)), _HorizonLayout(cfg))
    groups = nlp.problem.blocks
    assert [ix.shape for ix in groups] == [(1, 12), (6, 12)]
    assert [np.count_nonzero(ix < nlp.nz, axis=1).tolist() for ix in groups] == [[0], [4] * 6]
    rng = np.random.default_rng(6)
    us = np.zeros((6, 2))
    zs = rollout(z0, us, DT)
    _, *faces = _face_certificates(env, zs)
    x0 = nlp.pack(zs, us, {(t, m): _seed_duals(env, t, m, zs[t], faces)[1:] for t, m in pairs})
    for scale in (0.0, 1.0):
        v = x0 + scale * rng.normal(0.0, 0.1, nlp.n)
        nu = scale * rng.normal(0.0, 1.0, 4 * 6 + 2 * len(pairs))
        lam = scale * rng.uniform(0.0, 2.0, 2 * len(pairs))
        stacks = nlp.lag_hess(v, nu, lam)
        assert [s.shape for s in stacks] == [ix.shape + ix.shape[1:] for ix in groups]
        got = scatter_blocks(zip(groups, stacks), nlp.n)
        assert got.tobytes() == step_lag_hess_dense(nlp, v, nu, lam).tobytes()

    def dense(x, nu, lam):
        return [scatter_blocks(zip(groups, nlp.lag_hess(x, nu, lam)), nlp.n)[None]]

    want = solve_nlp(dataclasses.replace(nlp.problem, hess_blocks=None, lag_hess=dense), x0)
    got = solve_nlp(nlp.problem, x0)
    assert want.ok and got.ok and {kind for *_, kind in got.history} == {"qp"}
    np.testing.assert_allclose(got.x, want.x, rtol=0.0, atol=1e-9)


def test_each_step_nlp_groups_its_hessian_blocks_once(monkeypatch):
    """`_StepNlp` lays out `lag_hess`'s stacks by the grouping the solver
    reads (`NlpProblem.blocks`), so a step groups each NLP's labels once."""
    tv, env, z0, ref = blocking_scene()
    group = tightnav.nlp.block_groups
    grouped, nlps = [], []
    solve = tightnav.obca.solve_nlp

    def counted(labels, k):
        grouped.append(len(labels))
        return group(labels, k)

    def recording(prob, x0, warm_rows=None):
        sol = solve(prob, x0, warm_rows)
        nlps.append((prob.n, sol.iterations))
        return sol

    monkeypatch.setattr(tightnav.nlp, "block_groups", counted)
    # Counted too wherever `obca` would group labels through a name of its own.
    monkeypatch.setattr(tightnav.obca, "block_groups", counted, raising=False)
    monkeypatch.setattr(tightnav.obca, "solve_nlp", recording)
    sol = ObcaController(ControllerConfig()).solve_step(z0, np.zeros(2), ref, env)
    assert sol.ok and sol.stats["engaged"] > 0
    assert nlps and all(iterations > 1 for _, iterations in nlps)
    assert grouped == [n for n, _ in nlps]


def test_step_nlp_and_its_problem_are_freed_without_the_cycle_collector(fd_nlp):
    """The problem's callbacks hold the builder, so the builder holds the
    problem weakly: once the caller drops both, reference counting frees
    them, tables and all, and a builder hands out one problem while it is
    held."""
    nlp, x = fd_nlp
    fresh = _StepNlp(nlp.cfg, nlp.z0, nlp.u_prev, nlp.ref, EnvironmentEncoding(
        [[Polytope.from_box((0.9, 0.3), 0.2, 0.1, 0.4)]] * 4), [(1, 0)], (
        np.empty(0, dtype=int), np.empty((0, 2)), np.empty(0)), nlp.layout)
    prob = fresh.problem
    assert fresh.problem is prob
    groups = prob.blocks
    prob.lag_hess(fresh.pack(rollout(nlp.z0, np.zeros((3, 2)), DT), np.zeros((3, 2)), {}),
                  np.zeros(12 + 2), np.zeros(2))
    assert "_hess_tables" in vars(fresh) and prob.blocks is groups
    gc_was = gc.isenabled()
    gc.disable()
    try:
        builder = weakref.ref(fresh)
        del fresh, prob
        assert builder() is None
    finally:
        if gc_was:
            gc.enable()


def zsl(t):
    """Columns of z_t in a step NLP's variables [z_1..z_N | u_0..u_{N-1} | duals]."""
    return slice(4 * (t - 1), 4 * t)


def usl(nlp, t):
    """Columns of u_t."""
    return slice(nlp.nz + 2 * t, nlp.nz + 2 * t + 2)


def dsl(nlp, j):
    """Columns of lam and of mu of the j-th engaged pair."""
    base = nlp.nz + nlp.nuv + 8 * j
    return slice(base, base + 4), slice(base + 4, base + 8)


def test_step_nlp_bounds_match_per_stage_definition(fd_nlp):
    nlp, _ = fd_nlp
    lo = np.full(nlp.n, -np.inf)
    hi = np.full(nlp.n, np.inf)
    for t in range(1, nlp.cfg.horizon + 1):
        lo[zsl(t).start + 3], hi[zsl(t).start + 3] = V_MIN, V_MAX
    for t in range(nlp.cfg.horizon):
        sl = usl(nlp, t)
        lo[sl], hi[sl] = [-DELTA_MAX, -A_MAX], [DELTA_MAX, A_MAX]
    for j in range(len(nlp.pairs)):
        lsl, msl = dsl(nlp, j)
        lo[lsl] = lo[msl] = 0.0
    got_lo, got_hi = nlp.bounds()
    assert np.array_equal(got_lo, lo) and np.array_equal(got_hi, hi)


# --- QP working set carried across steps --------------------------------------

def reference_row_keys(nlp):
    """Every inequality row's key, by enumerating the rows in the solver's
    order: the rows of `ineq`, then the bounds as `qp.bound_rows` numbers
    them."""
    n_h = nlp.cfg.horizon
    owners = [("z_{}", t, -1, zsl(t)) for t in range(1, n_h + 1)]
    owners += [("u_{}", t, -1, usl(nlp, t)) for t in range(n_h)]
    for j, (t, m) in enumerate(nlp.pairs):
        lsl, msl = dsl(nlp, j)
        owners.append(("dual_{}", t, m, slice(lsl.start, msl.stop)))

    def var_key(v, side):
        for kind, t, m, sl in owners:
            if sl.start <= v < sl.stop:
                return (kind.format(side), t, m, v - sl.start)
        raise AssertionError(f"variable {v} has no owner")

    var, sign, _ = bound_rows(*nlp.bounds())
    return ([("clear", t, m, 0) for t, m in nlp.pairs]
            + [("normal", t, m, 0) for t, m in nlp.pairs]
            + [("strat", t, -1, 0) for t in nlp.strat_stages.tolist()]
            + [var_key(v, "lo" if s < 0.0 else "hi") for v, s in zip(var, sign)])


def step_nlp(horizon, n_obstacles, pairs, strat_stages):
    """A horizon NLP over a static scene; only its index bookkeeping is used."""
    cfg = ControllerConfig(horizon=horizon)
    boxes = [Polytope.from_box((1.0 + m, 0.0), 0.2, 0.1) for m in range(n_obstacles)]
    env = EnvironmentEncoding([boxes] * (horizon + 1))
    z0 = np.array([0.0, 0.0, 0.0, 0.5])
    ref = straight_ref(z0, horizon, DT)
    stages = np.array(sorted(strat_stages), dtype=int)
    strat = (stages, np.tile([0.0, 1.0], (len(stages), 1)), np.zeros(len(stages)))
    return _StepNlp(cfg, z0, np.zeros(2), ref, env, sorted(pairs), strat, _HorizonLayout(cfg))


@st.composite
def horizon_layouts(draw):
    """(horizon, obstacle count, pairs and strategy stages of two NLPs)."""
    horizon = draw(st.integers(1, 5))
    n_obs = draw(st.integers(1, 3))
    pair_space = [(t, m) for t in range(1, horizon + 1) for m in range(n_obs)]
    stages = list(range(1, horizon + 1))
    layouts = [(draw(st.sets(st.sampled_from(pair_space))),
                draw(st.sets(st.sampled_from(stages)))) for _ in range(2)]
    return horizon, n_obs, layouts


@settings(max_examples=60, deadline=None)
@given(horizon_layouts())
def test_row_keys_round_trip(layout):
    horizon, n_obs, layouts = layout
    for pairs, stages in layouts:
        nlp = step_nlp(horizon, n_obs, pairs, stages)
        ref = reference_row_keys(nlp)
        rows = np.arange(len(ref))
        assert nlp.row_keys(rows) == ref
        assert np.array_equal(nlp.key_rows(ref), rows)


@settings(max_examples=60, deadline=None)
@given(horizon_layouts(), st.data())
def test_shifted_keys_drop_first_stage_and_disengaged_pairs(layout, data):
    horizon, n_obs, ((pairs1, stages1), (pairs2, stages2)) = layout
    before = step_nlp(horizon, n_obs, pairs1, stages1)
    after = step_nlp(horizon, n_obs, pairs2, stages2)
    ref_before, ref_after = reference_row_keys(before), reference_row_keys(after)
    active = sorted(data.draw(st.sets(st.sampled_from(range(len(ref_before))))))
    rows = after.key_rows(_shift_keys(before.row_keys(active), horizon))
    assert len(set(rows.tolist())) == len(rows)
    assert np.all((rows >= 0) & (rows < len(ref_after)))

    def named(kind, t, m, c):
        # Whether `after` has the row (kind, t, m, c).
        first = 0 if kind.startswith("u_") else 1
        if t < first:
            return False  # left the horizon
        if kind in ("clear", "normal") or kind.startswith("dual_"):
            return (t, m) in pairs2  # a pair engaged at that stage
        return kind != "strat" or t in stages2  # a strategy row at that stage

    # Every key one stage earlier, then the last stage's keys where they
    # were: N for the states, pairs, dual bounds and strategy rows, N - 1
    # for the inputs.
    keys = [ref_before[r] for r in active]
    shifted = [(kind, t - 1, m, c) for kind, t, m, c in keys] + entering(keys, horizon)
    assert [ref_after[r] for r in rows] == [key for key in shifted if named(*key)]


def record_nlp_calls(monkeypatch, clear_hints=False, fail_call=None):
    """Log (nlp, warm_rows, solution, x0) for every NLP the controller solves.

    clear_hints withholds every hint.  The solve numbered fail_call (from
    0) is reported as `max_iterations`, which ends its control step.
    """
    calls = []
    solve_nlp = tightnav.obca.solve_nlp

    def recording(prob, x0, warm_rows=None):
        if clear_hints:
            warm_rows = None
        sol = solve_nlp(prob, x0, warm_rows=warm_rows)
        calls.append((prob.ineq.__self__, warm_rows, sol, x0))
        if len(calls) - 1 == fail_call:
            return dataclasses.replace(sol, status="max_iterations")
        return sol

    monkeypatch.setattr(tightnav.obca, "solve_nlp", recording)
    return calls


def record_qp_calls(monkeypatch):
    """Log (warm_rows, solution) for every QP the NLP solver solves."""
    calls = []
    solve_qp = tightnav.nlp.solve_qp

    def recording(*args, **kwargs):
        sol = solve_qp(*args, **kwargs)
        calls.append((kwargs.get("warm_rows"), sol))
        return sol

    monkeypatch.setattr(tightnav.nlp, "solve_qp", recording)
    return calls


def offset_scene():
    """Obstacle beside the reference line: the straight rollout clears it,
    so the first step starts from that rollout, not the braking guess."""
    tv = Polytope.from_box((1.1, 0.26), 0.28, 0.11)
    env = static_env(tv, 21)
    z0 = np.array([0.0, 0.0, 0.0, 0.6])
    cfg = ControllerConfig()
    return tv, env, z0, straight_ref(z0, cfg.horizon, DT)


def consecutive_steps(ctrl, scene=blocking_scene, steps=(0, 1), before=None):
    """Solve the scene at each step number in `steps`, applying each plan's
    first input; before(i), if given, runs ahead of the i-th solve."""
    tv, env, z, _ = scene()
    cfg = ctrl.config
    global_ref = straight_ref(z, cfg.horizon + len(steps), DT)
    u_prev = np.zeros(2)
    sols = []
    for i, k in enumerate(steps):
        if before is not None:
            before(i)
        sol = ctrl.solve_step(z, u_prev, global_ref[i : i + cfg.horizon + 1], env, step=k)
        assert sol.ok
        sols.append(sol)
        u_prev = sol.us[0]
        z = step_rk4(z, u_prev, DT)
    return sols


def hinted_keys(nlp, rows):
    ref = reference_row_keys(nlp)
    return [ref[r] for r in rows]


def entering(keys, horizon):
    """The keys of the last stage: stage N, or N - 1 for an input bound."""
    return [(kind, t, m, c) for kind, t, m, c in keys
            if t == (horizon - 1 if kind.startswith("u_") else horizon)]


def shifted_into(nlp, keys):
    """The keys one stage earlier, and the last stage's keys where they
    were, that name a row of `nlp`."""
    moved = {(kind, t - 1, m, c) for kind, t, m, c in keys} | set(entering(keys, nlp.cfg.horizon))
    return moved & set(reference_row_keys(nlp))


def packed(pair_duals):
    """(lam, mu) as `pack` writes them into x0: clipped at zero."""
    return tuple(np.maximum(d, 0.0) for d in pair_duals)


def seeded_duals(nlp, env, x0):
    """`_seed_duals`' (lam, mu) for each of nlp's pairs at the guess in x0."""
    zs = np.vstack([nlp.z0, x0[: nlp.nz].reshape(-1, 4)])
    _, *faces = _face_certificates(env, zs)
    return {(t, m): packed(_seed_duals(env, t, m, zs[t], faces)[1:]) for t, m in nlp.pairs}


def assert_same_duals(got, want):
    assert got.keys() == want.keys()
    for pair in got:
        np.testing.assert_array_equal(np.concatenate(got[pair]), np.concatenate(want[pair]))


def test_next_step_starts_from_shifted_working_set(monkeypatch):
    calls = record_nlp_calls(monkeypatch)
    qp_calls = record_qp_calls(monkeypatch)
    starts = []
    sols = consecutive_steps(ObcaController(ControllerConfig()),
                             before=lambda i: starts.append((len(calls), len(qp_calls))))
    nlp1, _, last1, _ = calls[starts[1][0] - 1]
    nlp2, hint2, _, _ = calls[starts[1][0]]
    # The first step's last QP working set comes back from the NLP as it
    # is, and the second step's first QP receives the hint, which holds
    # general rows and dual bounds, as it is.
    np.testing.assert_array_equal(qp_calls[starts[1][1] - 1][1].active_rows, last1.active_rows)
    assert hint2 is not None and len(hint2) > 0
    kinds = {kind.split("_")[0] for kind, _, _, _ in hinted_keys(nlp2, hint2)}
    assert "dual" in kinds and kinds & {"clear", "normal"}
    np.testing.assert_array_equal(qp_calls[starts[1][1]][0], hint2)
    # Every hinted row names a constraint the previous step's final working
    # set held one stage later, or at the same last stage, and every such
    # constraint the new NLP has is hinted.
    keys1 = hinted_keys(nlp1, last1.active_rows)
    keys2 = hinted_keys(nlp2, hint2)
    shifted = [(kind, t - 1, m, c) for kind, t, m, c in keys1] + entering(keys1, nlp2.cfg.horizon)
    assert all(key in shifted for key in keys2)
    assert set(keys2) == shifted_into(nlp2, keys1)
    # The hint changes the work, not the answer.
    monkeypatch.undo()
    record_nlp_calls(monkeypatch, clear_hints=True)
    cold = consecutive_steps(ObcaController(ControllerConfig()))
    np.testing.assert_allclose(sols[1].zs, cold[1].zs, rtol=0.0, atol=1e-6)
    np.testing.assert_allclose(sols[1].us, cold[1].us, rtol=0.0, atol=1e-6)


def test_a_step_that_needs_no_subproblem_carries_its_hint_on(monkeypatch):
    """A clear road whose reference runs faster than V_MAX holds the speed
    bounds active.  The next step's reference is its own shifted guess, so
    its NLP ends at its first KKT test without a QP and returns the hint it
    received; the step after that, fast again, starts its first QP from
    those keys, shifted."""
    calls = record_nlp_calls(monkeypatch)
    qp_calls = record_qp_calls(monkeypatch)
    cfg = ControllerConfig()
    env = static_env(Polytope.from_box((40.0, 5.0), 0.3, 0.2), cfg.horizon + 1,
                     with_walls=False)

    def fast(z):
        return straight_ref(np.concatenate([z[:3], [1.5 * V_MAX]]), cfg.horizon, DT)

    ctrl = ObcaController(cfg)
    z = np.array([0.0, 0.0, 0.0, V_MAX])
    first = ctrl.solve_step(z, np.zeros(2), fast(z), env, step=0)
    assert first.ok and qp_calls
    z = first.zs[1]
    guess = np.vstack([z, first.zs[2:], step_rk4(first.zs[-1], first.us[-1], DT)])
    idle = ctrl.solve_step(z, first.us[0], guess, env, step=1)
    n_qp = len(qp_calls)
    nlp, hint, sol, _ = calls[1]
    assert idle.ok and sol.iterations == 1 and n_qp == len(qp_calls)
    assert len(hint) and np.array_equal(sol.active_rows, hint)
    assert {kind for kind, *_ in nlp.row_keys(hint)} == {"z_hi"}
    z = idle.zs[1]
    assert ctrl.solve_step(z, idle.us[0], fast(z), env, step=2).ok
    nxt = calls[2][0]
    # Stage 1's z_hi leaves the horizon and stage N's stays, for the
    # stage that enters repeats it.
    want = nxt.key_rows(_shift_keys(nlp.row_keys(hint), cfg.horizon))
    assert len(want) == len(hint)
    assert ("z_hi", cfg.horizon, -1, 3) in nxt.row_keys(want)
    assert set(nxt.row_keys(want)) == shifted_into(nxt, nlp.row_keys(hint))
    np.testing.assert_array_equal(calls[2][1], want)
    np.testing.assert_array_equal(qp_calls[n_qp][0], want)


def test_the_entering_stage_is_hinted_from_the_last_one(monkeypatch):
    """Over ten steps through the blocking scene, the last stage engages the
    TV at every step.  The shifted plan repeats its last stage, so the
    rows that the previous solve's final working set held for the pair at
    stage N are hinted to the next step's first QP at stage N again."""
    calls = record_nlp_calls(monkeypatch)
    qp_calls = record_qp_calls(monkeypatch)
    starts = []
    consecutive_steps(ObcaController(ControllerConfig()), steps=range(10),
                      before=lambda i: starts.append(len(qp_calls)))
    n_h = ControllerConfig().horizon
    hinted = 0
    for (prev, _, sol, _), (nlp, hint, _, _), first in zip(calls, calls[1:], starts[1:]):
        at_last = [key for key in prev.row_keys(sol.active_rows)
                   if key[1] == n_h and (key[1], key[2]) in nlp.pairs]
        assert set(at_last) <= set(nlp.row_keys(hint))
        np.testing.assert_array_equal(qp_calls[first][0], hint)
        hinted += ("clear", n_h, 0, 0) in at_last
    assert hinted == len(calls) - 1


@pytest.mark.parametrize("interrupt", ["reset", "gap"])
def test_reset_or_step_gap_starts_cold(monkeypatch, interrupt):
    # No hint and no carried duals: every pair starts from its seed.
    calls = record_nlp_calls(monkeypatch)
    ctrl = ObcaController(ControllerConfig())
    starts = []

    def before(i):
        starts.append(len(calls))
        if i == 1 and interrupt == "reset":
            ctrl.reset()

    consecutive_steps(ctrl, steps=(0, 1) if interrupt == "reset" else (0, 5), before=before)
    assert calls[starts[0]][1] is None
    nlp, warm_rows, _, x0 = calls[starts[1]]
    assert warm_rows is None and nlp.pairs
    assert_same_duals(nlp.duals(x0), seeded_duals(nlp, blocking_scene()[1], x0))


def test_failed_solve_ends_the_step(monkeypatch):
    # Report the first solve as failed: the step ends after that one NLP
    # and keeps nothing, so the next step starts cold, though the failed
    # round's working set and duals would have given it a hint and a start.
    calls = record_nlp_calls(monkeypatch, fail_call=0)
    _, env, z0, ref = offset_scene()
    ctrl = ObcaController(ControllerConfig())
    failed = ctrl.solve_step(z0, np.zeros(2), ref, env, step=0)
    assert len(calls) == 1 and len(calls[0][2].active_rows) > 0
    assert failed.status == "max_iterations" and failed.stats["rounds"] == 1
    assert ctrl.solve_step(z0, np.zeros(2), ref, env, step=1).ok
    assert len(calls) == 2 and calls[1][1] is None
    nlp, _, _, x0 = calls[1]
    assert nlp.pairs
    assert_same_duals(nlp.duals(x0), seeded_duals(nlp, env, x0))


def test_persisting_pairs_start_from_the_previous_duals(monkeypatch):
    # Over ten steps through the blocking scene, a pair that step k solved
    # one stage later starts step k + 1 from those duals, which the geometric
    # seed does not give, and a pair new at step k + 1 starts from its seed.
    calls = record_nlp_calls(monkeypatch)
    env = blocking_scene()[1]
    consecutive_steps(ObcaController(ControllerConfig()), steps=range(10))
    persisting = new = reseeded = 0
    for (prev, _, sol, _), (nlp, _, _, x0) in itertools.pairwise(calls):
        solved = prev.duals(sol.x)
        seeds = seeded_duals(nlp, env, x0)
        want = {(t, m): packed(solved[(t + 1, m)]) if (t + 1, m) in solved else seeds[(t, m)]
                for t, m in nlp.pairs}
        assert_same_duals(nlp.duals(x0), want)
        kept = [pair for pair in nlp.pairs if (pair[0] + 1, pair[1]) in solved]
        persisting += len(kept)
        new += len(nlp.pairs) - len(kept)
        reseeded += sum(np.array_equal(np.concatenate(want[pair]), np.concatenate(seeds[pair]))
                        for pair in kept)
    assert persisting > 0 and new > 0 and reseeded < persisting


def test_carried_pairs_near_the_reference_are_engaged_unmeasured(monkeypatch):
    """Over ten steps through the blocking scene, `_seed_duals` measures no
    pair that the step carries from the previous solve and whose reference
    certificate is within ENGAGE_DIST: such a pair is engaged whatever its
    distance, and it starts from its carried duals.  Each step engages the
    pairs, and starts from the x0, of the rule that measures every
    candidate."""
    calls = record_nlp_calls(monkeypatch)
    measured = []
    seed = tightnav.obca._seed_duals

    def recording(env, t, m, z, faces):
        measured.append((len(calls), (t, m)))
        return seed(env, t, m, z, faces)

    monkeypatch.setattr(tightnav.obca, "_seed_duals", recording)
    env = blocking_scene()[1]
    consecutive_steps(ObcaController(ControllerConfig()), steps=range(10))
    carried = {}
    skipped = 0
    for i, (nlp, _, sol, x0) in enumerate(calls):
        f_r = _face_certificates(env, nlp.ref)[0]
        exempt = {pair for pair in carried if pair[0] >= 1
                  and f_r[pair] < tightnav.obca.ENGAGE_DIST}
        assert not exempt & {pair for k, pair in measured if k == i}
        zs, us = nlp.unpack(x0)
        pairs, duals = engage_seeding_every_candidate(env, zs, nlp.ref, carried)
        assert nlp.pairs == pairs
        np.testing.assert_array_equal(x0, nlp.pack(zs, us, duals))
        skipped += len(exempt)
        carried = {(t - 1, m): pair_duals for (t, m), pair_duals in nlp.duals(sol.x).items()}
    assert skipped > 0 and measured
