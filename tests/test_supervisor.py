"""Tests for policy selection, safety control, and the emergency brake.

Closed-loop properties are audited with the exact polytope distance; the
speed-servo behavior is exercised against scripted TV trajectories.
"""

import math

import numpy as np
import pytest

from tightnav.dynamics import step_rk4
from tightnav.geometry import body_polytope, min_translation_distance
from tightnav.obca import ControllerConfig, StrategyLabel
from tightnav.predictor import StrategyPrediction
from tightnav.scenario import V_REF
from tightnav.supervisor import (
    MANEUVER_ANGLE,
    PolicyKind,
    anticipate_collision,
    emergency_brake,
    safety_control,
    safety_speed_target,
    select_policy,
)

CFG = ControllerConfig()


def pred_of(scores):
    scores = np.asarray(scores, float)
    return StrategyPrediction(scores=scores, label=StrategyLabel(int(np.argmax(scores))))


def straight_ref(length=6.0, n=121, v=V_REF):
    xs = np.linspace(0.0, length, n)
    return np.stack([xs, np.zeros(n), np.zeros(n), np.full(n, v)], axis=1)


# --- policy selection -------------------------------------------------------

def test_select_confident_pass_uses_guided_mpc():
    assert select_policy(pred_of([0.9, 0.05, 0.05]), "optimal", False) == (
        PolicyKind.SG_OBCA, "guided")


def test_select_low_confidence_falls_back():
    assert select_policy(pred_of([0.4, 0.3, 0.3]), "optimal", False) == (
        PolicyKind.SAFETY_CONTROL, "low_confidence")


def test_select_confident_yield_falls_back():
    assert select_policy(pred_of([0.05, 0.05, 0.9]), "optimal", False) == (
        PolicyKind.SAFETY_CONTROL, "yield_predicted")


def test_select_collision_overrides_everything():
    assert select_policy(pred_of([0.9, 0.05, 0.05]), "optimal", True) == (
        PolicyKind.EMERGENCY_BRAKE, "collision_anticipated")


def test_select_failed_solve_falls_back():
    for status in ("infeasible", None):
        assert select_policy(pred_of([0.9, 0.05, 0.05]), status, False) == (
            PolicyKind.SAFETY_CONTROL, "solver_not_optimal")


def test_select_is_total():
    preds = [None, pred_of([0.9, 0.05, 0.05]), pred_of([0.05, 0.9, 0.05]),
             pred_of([0.05, 0.05, 0.9]), pred_of([0.34, 0.33, 0.33])]
    for pred in preds:
        for status in ("optimal", "infeasible", "max_iterations", None):
            for flag in (False, True):
                kind, reason = select_policy(pred, status, flag)
                assert kind in PolicyKind
                assert isinstance(reason, str)
                if pred is None:
                    # No prediction is the unguided baseline.
                    assert (kind, reason) == (
                        (PolicyKind.EMERGENCY_BRAKE, "collision_anticipated") if flag
                        else (PolicyKind.SG_OBCA, "nominal") if status == "optimal"
                        else (PolicyKind.SAFETY_CONTROL, "solver_not_optimal"))


def test_config_validates_threshold_and_gains():
    # The brake servo gain K_BRAKE = 8/s is stable for dt <= 1/8 s.
    ControllerConfig(dt=0.125)
    with pytest.raises(ValueError):
        ControllerConfig(dt=0.13)
    # Pairs engage below 0.25 m, so the clearance floor must stay under it.
    ControllerConfig(d_min=0.2)
    with pytest.raises(ValueError):
        ControllerConfig(d_min=0.25)


# --- safety control ---------------------------------------------------------

def test_sc_brakes_for_stationary_tv_ahead():
    tv = np.tile(np.array([0.5, 0.0, 0.0, 0.0]), (21, 1))
    u = safety_control(np.array([0.0, 0.0, 0.0, 0.6]), tv, straight_ref(), CFG, V_REF)
    assert u[1] < 0.0


def test_sc_tracks_reference_when_tv_far():
    tv = np.tile(np.array([10.0, 0.0, 0.0, 0.0]), (21, 1))
    u = safety_control(np.array([0.0, 0.0, 0.0, 0.3]), tv, straight_ref(), CFG, V_REF)
    assert u[1] > 0.0  # speeding back up toward v_ref
    assert abs(u[0]) < 1e-6


def test_sc_ignores_tv_behind():
    tv = np.tile(np.array([-0.5, 0.0, 0.0, 0.0]), (21, 1))
    u = safety_control(np.array([0.0, 0.0, 0.0, 0.3]), tv, straight_ref(), CFG, V_REF)
    assert u[1] > 0.0


def test_sc_ignores_tv_outside_corridor():
    tv = np.tile(np.array([0.5, 0.6, 0.0, 0.0]), (21, 1))
    u = safety_control(np.array([0.0, 0.0, 0.0, 0.3]), tv, straight_ref(), CFG, V_REF)
    assert u[1] > 0.0


def test_sc_steers_back_toward_centerline():
    tv = np.tile(np.array([10.0, 0.0, 0.0, 0.0]), (21, 1))
    above = safety_control(np.array([0.5, 0.2, 0.0, 0.5]), tv, straight_ref(), CFG, V_REF)
    below = safety_control(np.array([0.5, -0.2, 0.0, 0.5]), tv, straight_ref(), CFG, V_REF)
    assert above[0] < 0.0 < below[0]
    assert abs(above[0]) <= CFG.params.delta_max + 1e-12


def test_sc_tracks_the_reference_speed_it_is_given():
    z = np.array([0.0, 0.0, 0.0, 0.3])
    ref = straight_ref(v=0.3)
    # A TV far ahead in the lane, and one beside it outside the corridor.
    for pose in ([10.0, 0.0, 0.0, 0.0], [0.5, 0.6, 0.0, 0.0]):
        tv = np.tile(np.array(pose), (21, 1))
        assert safety_speed_target(z, tv, CFG, 0.3) == 0.3
        assert safety_control(z, tv, ref, CFG, 0.3)[1] == 0.0
        assert safety_speed_target(z, tv, CFG, 0.6) == 0.6
        assert safety_control(z, tv, ref, CFG, 0.6)[1] > 0.0


def test_sc_rejects_empty_tv_prediction():
    with pytest.raises(ValueError):
        safety_control(np.zeros(4), np.zeros((0, 4)), straight_ref(), CFG, V_REF)


def test_sc_stationary_tv_property():
    """50 random recoverable approaches: clearance kept, speed monotone."""
    p = CFG.params
    r = p.covering_radius
    rng = np.random.default_rng(2)
    ref = straight_ref()
    for _ in range(50):
        gap0 = rng.uniform(2.0 * r, 10.0 * r)
        tv = np.array([gap0, 0.0, 0.0, 0.0])
        tv_seq = np.tile(tv, (30, 1))
        v_cap = math.sqrt(max(2.0 * p.a_max * (gap0 - p.length - CFG.d_min), 0.0))
        z = np.array([0.0, 0.0, 0.0, min(0.9 * v_cap, V_REF)])
        prev_v = z[3]
        inside = False
        for _ in range(120):
            u = safety_control(z, tv_seq, ref, CFG, V_REF)
            z = step_rk4(z, u, CFG.dt, p)
            if math.hypot(tv[0] - z[0], tv[1] - z[1]) <= 3.0 * r:
                inside = True
            if inside:
                assert z[3] <= prev_v + 1e-9
            prev_v = z[3]
            d = min_translation_distance(body_polytope(z, p.length, p.width),
                                         body_polytope(tv, p.length, p.width))
            assert d >= CFG.d_min


def test_sc_target_accounts_for_future_backward_sweep():
    """A TV that will back up caps the speed harder than a static one."""
    z = np.array([0.0, 0.0, 0.0, 0.4])
    static = np.tile(np.array([0.62, 0.0, 0.0, 0.0]), (30, 1))
    sweeping = static.copy()
    sweeping[10:, 0] = np.maximum(0.62 - 0.03 * np.arange(20), 0.45)
    v_static = safety_speed_target(z, static, CFG, V_REF)
    v_sweep = safety_speed_target(z, sweeping, CFG, V_REF)
    assert v_sweep < v_static - 0.05
    # Future poses out of the corridor do not constrain the target.
    parked_clear = static.copy()
    parked_clear[10:, 1] = 0.7
    assert safety_speed_target(z, parked_clear, CFG, V_REF) == pytest.approx(v_static)


def test_sc_holds_farther_behind_angled_tv():
    """A TV slewed across the corridor gets a maneuver-margin standoff."""
    z = np.array([0.0, 0.0, 0.0, 0.4])
    gap = 1.1
    straight = np.array([[gap, 0.0, 0.0, 0.0]])
    angled = np.array([[gap, 0.0, -0.3, 0.0]])
    v_straight = safety_speed_target(z, straight, CFG, V_REF)
    v_angled = safety_speed_target(z, angled, CFG, V_REF)
    assert v_angled < v_straight - 0.05
    # Heading differences inside the tolerance band change nothing.
    barely = np.array([[gap, 0.0, 0.5 * MANEUVER_ANGLE, 0.0]])
    assert safety_speed_target(z, barely, CFG, V_REF) == pytest.approx(v_straight, abs=1e-3)


def test_sc_survives_backward_sweep_closed_loop():
    """EV settles behind the swept region, never inside the clearance floor."""
    p = CFG.params
    n = 70
    tv_traj = np.tile(np.array([1.3, 0.0, 0.0, 0.0]), (n, 1))
    for t in range(15, 40):
        tv_traj[t, 0] = max(1.3 - 0.03 * (t - 15), 0.55)
        tv_traj[t, 3] = -0.3
    tv_traj[40:, 0] = 0.55
    ref = straight_ref()
    z = np.array([0.0, 0.0, 0.0, 0.5])
    for t in range(n - 1):
        u = safety_control(z, tv_traj[t:], ref, CFG, V_REF)
        z = step_rk4(z, u, CFG.dt, p)
        d = min_translation_distance(body_polytope(z, p.length, p.width),
                                     body_polytope(tv_traj[t + 1], p.length, p.width))
        assert d >= CFG.d_min
    assert z[3] == pytest.approx(0.0, abs=0.01)


def test_sc_matches_speed_behind_moving_tv():
    p = CFG.params
    v_tv = 0.2
    n = 80
    tv_traj = np.stack([0.8 + v_tv * CFG.dt * np.arange(n), np.zeros(n),
                        np.zeros(n), np.full(n, v_tv)], axis=1)
    ref = straight_ref(length=10.0, n=201)
    z = np.array([0.0, 0.0, 0.0, 0.6])
    settled_at = None
    for t in range(n - 21):
        u = safety_control(z, tv_traj[t : t + 21], ref, CFG, V_REF)
        z = step_rk4(z, u, CFG.dt, p)
        d = min_translation_distance(body_polytope(z, p.length, p.width),
                                     body_polytope(tv_traj[t + 1], p.length, p.width))
        assert d >= CFG.d_min
        if settled_at is None and abs(z[3] - v_tv) < 0.02:
            settled_at = (t + 1) * CFG.dt
    assert settled_at is not None and settled_at <= 3.0


# --- emergency brake --------------------------------------------------------

def test_eb_brakes_against_motion():
    assert emergency_brake(np.array([0, 0, 0, 1.0]), CFG)[1] == -CFG.params.a_max
    assert emergency_brake(np.array([0, 0, 0, -0.5]), CFG)[1] == CFG.params.a_max
    u = emergency_brake(np.array([0, 0, 0, 0.0]), CFG)
    assert u[0] == 0.0 and u[1] == 0.0


def test_eb_lands_exactly_on_zero():
    z = np.array([0.0, 0.0, 0.0, 0.05])
    u = emergency_brake(z, CFG)
    z1 = step_rk4(z, u, CFG.dt, CFG.params)
    assert z1[3] == pytest.approx(0.0, abs=1e-12)


def test_eb_stops_within_step_bound():
    v0 = 0.63
    bound = math.ceil(abs(v0) / (CFG.params.a_max * CFG.dt))
    z = np.array([0.0, 0.0, 0.0, v0])
    steps = 0
    while abs(z[3]) > 1e-12:
        z = step_rk4(z, emergency_brake(z, CFG), CFG.dt, CFG.params)
        steps += 1
        assert steps <= bound
    assert steps == bound


# --- collision anticipation -------------------------------------------------

def test_anticipate_far_tv_false():
    tv = np.tile(np.array([10.0, 0.0, 0.0, 0.0]), (21, 1))
    assert not anticipate_collision(np.zeros(4), tv, straight_ref(), CFG, V_REF)


def test_anticipate_current_overlap_true():
    tv = np.tile(np.array([0.1, 0.0, 0.0, 0.0]), (21, 1))
    assert anticipate_collision(np.zeros(4), tv, straight_ref(), CFG, V_REF)


def test_anticipate_tv_sweeping_over_stopped_ev():
    n = 21
    xs = np.linspace(1.5, -0.5, n)
    tv = np.stack([xs, np.zeros(n), np.full(n, math.pi), np.full(n, 1.0)], axis=1)
    assert anticipate_collision(np.array([0.0, 0.0, 0.0, 0.0]), tv, straight_ref(), CFG, V_REF)


def test_anticipate_audits_the_configured_clearance_floor():
    # Stopped EV 0.03 m behind a parked TV: inside a 0.05 m floor, outside
    # a 0.01 m one.
    gap = 0.03
    tv = np.tile(np.array([CFG.params.length + gap, 0.0, 0.0, 0.0]), (21, 1))
    z = np.zeros(4)
    assert anticipate_collision(z, tv, straight_ref(), ControllerConfig(d_min=0.05), V_REF)
    assert not anticipate_collision(z, tv, straight_ref(), ControllerConfig(d_min=0.01), V_REF)


def test_anticipate_recoverable_approach_false():
    tv = np.tile(np.array([1.2, 0.0, 0.0, 0.0]), (30, 1))
    assert not anticipate_collision(np.array([0.0, 0.0, 0.0, 0.6]), tv, straight_ref(), CFG, V_REF)
