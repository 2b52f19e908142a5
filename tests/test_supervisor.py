"""Tests for policy selection, safety control, and the emergency brake.

Closed-loop properties are audited with the exact polytope distance; the
speed-servo behavior is exercised against scripted TV trajectories.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tightnav.supervisor
from oracles import nearest_ref_index, safety_speed_target_every_pose
from tightnav.dynamics import (
    A_MAX,
    COVERING_RADIUS,
    DELTA_MAX,
    DT,
    LENGTH,
    WHEELBASE,
    WIDTH,
    step_rk4,
)
from tightnav.geometry import Polytope, body_polytope, min_translation_distance
from tightnav.obca import ControllerConfig, StrategyLabel
from tightnav.predictor import StrategyPrediction
from tightnav.scenario import V_REF
from tightnav.supervisor import (
    CORRIDOR_SLACK,
    K_BRAKE,
    MANEUVER_ANGLE,
    PolicyKind,
    _path,
    _pursuit_steering,
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


def test_brake_gain_is_stable_at_the_control_period():
    # Under the brake servo the speed error shrinks by the factor
    # 1 - K_BRAKE DT per step, and changes sign, overshooting, beyond 1/DT.
    assert K_BRAKE * DT <= 1.0


def test_config_validates_threshold_and_gains():
    # Pairs engage below 0.25 m, so the clearance floor must stay under it.
    ControllerConfig(d_min=0.2)
    with pytest.raises(ValueError):
        ControllerConfig(d_min=0.25)
    # A NaN floor fails every comparison and would switch anticipation off.
    for d_min in (float("nan"), float("inf"), -0.01, 0.0):
        with pytest.raises(ValueError, match="d_min"):
            ControllerConfig(d_min=d_min)
    ControllerConfig(horizon=np.int64(5))
    for horizon in (2.5, 20.0, True, 0, -3):
        with pytest.raises(ValueError, match="horizon"):
            ControllerConfig(horizon=horizon)


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
    assert abs(above[0]) <= DELTA_MAX + 1e-12


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
    r = COVERING_RADIUS
    rng = np.random.default_rng(2)
    ref = straight_ref()
    for _ in range(50):
        gap0 = rng.uniform(2.0 * r, 10.0 * r)
        tv = np.array([gap0, 0.0, 0.0, 0.0])
        tv_seq = np.tile(tv, (30, 1))
        v_cap = math.sqrt(max(2.0 * A_MAX * (gap0 - LENGTH - CFG.d_min), 0.0))
        z = np.array([0.0, 0.0, 0.0, min(0.9 * v_cap, V_REF)])
        prev_v = z[3]
        inside = False
        for _ in range(120):
            u = safety_control(z, tv_seq, ref, CFG, V_REF)
            z = step_rk4(z, u, DT)
            if math.hypot(tv[0] - z[0], tv[1] - z[1]) <= 3.0 * r:
                inside = True
            if inside:
                assert z[3] <= prev_v + 1e-9
            prev_v = z[3]
            d = min_translation_distance(body_polytope(z, LENGTH, WIDTH),
                                         body_polytope(tv, LENGTH, WIDTH))
            assert d >= CFG.d_min


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


ev_states = st.tuples(finite(-3, 3), finite(-3, 3), finite(-math.pi, math.pi), finite(-1, 1))
tv_sequences = st.lists(st.tuples(finite(-4, 4), finite(-4, 4), finite(-math.pi, math.pi),
                                  finite(-1, 1)), min_size=1, max_size=25)


def ahead_of(z, longi, lat, tv_psi, tv_v=0.0):
    """A TV pose `longi` along and `lat` across the EV's heading from z."""
    c, s = math.cos(z[2]), math.sin(z[2])
    return [z[0] + longi * c - lat * s, z[1] + longi * s + lat * c, tv_psi, tv_v]


@given(ev_states, tv_sequences, finite(0.0, 2.0))
def test_speed_target_lies_between_zero_and_reference(z, tv, v_ref):
    cap = safety_speed_target(np.array(z), np.array(tv), CFG, v_ref)
    assert 0.0 <= cap <= v_ref


@given(ev_states, tv_sequences, st.booleans(), finite(1e-3, 3.0), finite(-3.0, 3.0),
       finite(0.0, 2.0))
def test_speed_target_ignores_tv_outside_the_corridor(z, tv, behind, gap, offset, v_ref):
    # Behind the EV, or beside the corridor by more than the TV's largest
    # lateral extent (its covering radius).
    corridor_half = 0.5 * WIDTH + CORRIDOR_SLACK + 2.0 * CFG.d_min
    if behind:
        tv[0] = ahead_of(z, -gap, offset, tv[0][2], tv[0][3])
    else:
        lat = math.copysign(corridor_half + COVERING_RADIUS + gap, offset)
        tv[0] = ahead_of(z, offset, lat, tv[0][2], tv[0][3])
    assert safety_speed_target(np.array(z), np.array(tv), CFG, v_ref) == v_ref


@given(ev_states, finite(1e-3, 5.0), finite(1e-3, 5.0), finite(-math.pi, math.pi),
       st.integers(1, 25), finite(0.0, 2.0))
def test_speed_target_grows_with_distance_to_stationary_tv_ahead(z, d1, d2, tv_psi, n, v_ref):
    near, far = sorted((d1, d2))
    caps = [safety_speed_target(np.array(z), np.tile(ahead_of(z, d, 0.0, tv_psi), (n, 1)),
                                CFG, v_ref) for d in (near, far)]
    assert caps[0] <= caps[1]


runs = st.lists(st.tuples(finite(0.05, 3.0), finite(-0.8, 0.8), finite(-math.pi, math.pi),
                          finite(-1, 1), st.integers(1, 6), st.booleans()),
                min_size=1, max_size=8)


@given(ev_states, runs, st.integers(0, 30), finite(0.0, 2.0))
def test_speed_target_skipping_repeats_matches_every_pose(z, poses, pad, v_ref):
    # TV poses ahead of the EV, most inside the corridor, each repeated for a
    # run of steps, then the final pose repeated, as a parked TV repeats it.
    # A run may turn in place: the spot of the run before, a new heading.
    tv = []
    for longi, lat, psi, v, n, turn in poses:
        pose = ahead_of(z, longi, lat, psi, v)
        if turn and tv:
            pose[:2] = tv[-1][:2]
        tv += [pose] * n
    tv = np.vstack([tv, np.tile(tv[-1], (pad, 1))])
    expect = safety_speed_target_every_pose(np.array(z), tv, CFG, v_ref)
    assert safety_speed_target(np.array(z), tv, CFG, v_ref) == expect
    assert safety_speed_target(np.array(z), tv[::-1], CFG, v_ref) == \
        safety_speed_target_every_pose(np.array(z), tv[::-1], CFG, v_ref)


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
        z = step_rk4(z, u, DT)
        d = min_translation_distance(body_polytope(z, LENGTH, WIDTH),
                                     body_polytope(tv_traj[t + 1], LENGTH, WIDTH))
        assert d >= CFG.d_min
    assert z[3] == pytest.approx(0.0, abs=0.01)


def test_sc_matches_speed_behind_moving_tv():
    v_tv = 0.2
    n = 80
    tv_traj = np.stack([0.8 + v_tv * DT * np.arange(n), np.zeros(n),
                        np.zeros(n), np.full(n, v_tv)], axis=1)
    ref = straight_ref(length=10.0, n=201)
    z = np.array([0.0, 0.0, 0.0, 0.6])
    settled_at = None
    for t in range(n - 21):
        u = safety_control(z, tv_traj[t : t + 21], ref, CFG, V_REF)
        z = step_rk4(z, u, DT)
        d = min_translation_distance(body_polytope(z, LENGTH, WIDTH),
                                     body_polytope(tv_traj[t + 1], LENGTH, WIDTH))
        assert d >= CFG.d_min
        if settled_at is None and abs(z[3] - v_tv) < 0.02:
            settled_at = (t + 1) * DT
    assert settled_at is not None and settled_at <= 3.0


def pursuit_steering_loop(z, ref):
    """Reference: pure pursuit walking the reference one segment at a time."""
    lookahead = 3.0 * LENGTH
    i0 = nearest_ref_index(ref, z[:2])
    target = ref[-1, :2]
    dist = 0.0
    for j in range(i0 + 1, len(ref)):
        dist += float(np.hypot(*(ref[j, :2] - ref[j - 1, :2])))
        if dist >= lookahead:
            target = ref[j, :2]
            break
    dx, dy = target - z[:2]
    ld = math.hypot(dx, dy)
    if ld < 1e-9:
        return 0.0
    alpha = math.atan2(dy, dx) - z[2]
    delta = math.atan2(2.0 * WHEELBASE * math.sin(alpha), ld)
    return float(np.clip(delta, -DELTA_MAX, DELTA_MAX))


def test_pursuit_steering_matches_segment_walk():
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(2, 30))
        heading = rng.uniform(-0.6, 0.6, n - 1)
        steps = rng.uniform(0.0, 0.25, n - 1)[:, None] * np.stack(
            [np.cos(heading), np.sin(heading)], axis=1)
        pts = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)]) + rng.uniform(-1, 1, 2)
        ref = np.column_stack([pts, np.zeros((n, 2))])
        z = np.array([*(pts[rng.integers(n)] + rng.normal(0.0, 0.1, 2)),
                      rng.uniform(-0.5, 0.5), 0.4])
        got = _pursuit_steering(z.tolist(), _path(ref))
        assert got == pursuit_steering_loop(z, ref)
    # A point exactly one lookahead along the path is the target, not the next.
    look = 3.0 * LENGTH
    ref = np.array([[0.0, 0.0, 0.0, 0.5], [look, 0.0, 0.0, 0.5], [look, 1.0, 0.0, 0.5]])
    z = np.array([0.0, 0.0, 0.0, 0.5])
    assert _pursuit_steering(z.tolist(), _path(ref)) == pursuit_steering_loop(z, ref) == 0.0


# --- emergency brake --------------------------------------------------------

def test_eb_brakes_against_motion():
    assert emergency_brake(np.array([0, 0, 0, 1.0]))[1] == -A_MAX
    assert emergency_brake(np.array([0, 0, 0, -0.5]))[1] == A_MAX
    u = emergency_brake(np.array([0, 0, 0, 0.0]))
    assert u[0] == 0.0 and u[1] == 0.0


def test_eb_lands_exactly_on_zero():
    z = np.array([0.0, 0.0, 0.0, 0.05])
    u = emergency_brake(z)
    z1 = step_rk4(z, u, DT)
    assert z1[3] == pytest.approx(0.0, abs=1e-12)


def test_eb_stops_within_step_bound():
    v0 = 0.63
    bound = math.ceil(abs(v0) / (A_MAX * DT))
    z = np.array([0.0, 0.0, 0.0, v0])
    steps = 0
    while abs(z[3]) > 1e-12:
        z = step_rk4(z, emergency_brake(z), DT)
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
    tv = np.tile(np.array([LENGTH + gap, 0.0, 0.0, 0.0]), (21, 1))
    z = np.zeros(4)
    assert anticipate_collision(z, tv, straight_ref(), ControllerConfig(d_min=0.05), V_REF)
    assert not anticipate_collision(z, tv, straight_ref(), ControllerConfig(d_min=0.01), V_REF)


def test_anticipate_recoverable_approach_false():
    tv = np.tile(np.array([1.2, 0.0, 0.0, 0.0]), (30, 1))
    assert not anticipate_collision(np.array([0.0, 0.0, 0.0, 0.6]), tv, straight_ref(), CFG, V_REF)


def anticipate_collision_loop(z_ev, tv, ref, config, v_ref):
    """Reference: audit each EV/TV pose pair with the polytope distance as
    the safety law rolls forward, stopping at the first breach."""
    z = np.asarray(z_ev, float).copy()
    for t in range(len(tv)):
        if min_translation_distance(body_polytope(z, LENGTH, WIDTH),
                                    body_polytope(tv[t], LENGTH, WIDTH)) < config.d_min:
            return True
        if t + 1 < len(tv):
            z = step_rk4(z, safety_control(z, tv[t:], ref, config, v_ref), DT)
    return False


def test_anticipate_matches_per_stage_audit():
    # TVs heading roughly at the EV, driving forward or backing away at
    # constant speed and turn rate.
    rng = np.random.default_rng(31)
    ref = straight_ref()
    answers = []
    for _ in range(200):
        z = np.array([0.0, rng.uniform(-0.1, 0.1), rng.uniform(-0.2, 0.2), rng.uniform(0.0, 0.8)])
        n = int(rng.integers(1, 22))
        tv = np.empty((n, 4))
        x0, y0 = rng.uniform(0.3, 2.0), rng.uniform(-0.5, 0.5)
        tv[0] = [x0, y0, math.atan2(-y0, -x0) + rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 1.0)]
        yaw_rate = rng.uniform(-0.8, 0.8)
        for t in range(1, n):
            x, y, psi, v = tv[t - 1]
            tv[t] = [x + v * DT * math.cos(psi), y + v * DT * math.sin(psi),
                     psi + yaw_rate * DT, v]
        got = anticipate_collision(z, tv, ref, CFG, V_REF)
        assert got == anticipate_collision_loop(z, tv, ref, CFG, V_REF)
        answers.append(got)
    assert answers.count(True) >= 20 and answers.count(False) >= 20


def test_anticipate_builds_no_polytope(monkeypatch):
    def refuse(self):
        raise AssertionError("anticipate_collision built a Polytope")

    monkeypatch.setattr(Polytope, "__post_init__", refuse)
    far = np.tile(np.array([10.0, 0.0, 0.0, 0.0]), (21, 1))
    near = np.tile(np.array([0.1, 0.0, 0.0, 0.0]), (21, 1))
    assert not anticipate_collision(np.zeros(4), far, straight_ref(), CFG, V_REF)
    assert anticipate_collision(np.zeros(4), near, straight_ref(), CFG, V_REF)


def test_anticipate_screen_cut_is_exact(monkeypatch):
    # Same-heading boxes corner to corner along their diagonal are D - 2r
    # apart, the least any pair of centres D apart can be, so a pair on the
    # cut clears the floor by 1e-9.  The diagonal is turned onto an axis and
    # the EV sits at the origin, so the centre distance is the TV's
    # coordinate to the bit.  Pairs up to the cut reach box_distances and
    # pairs beyond it do not, with the oracle's answer on both sides.
    cut = 2.0 * COVERING_RADIUS + CFG.d_min + 1e-9
    diag = math.atan2(WIDTH, LENGTH)
    real = tightnav.supervisor.box_distances
    measured = []

    def recording(z_a, z_b, length, width):
        measured.append(len(z_a))
        return real(z_a, z_b, length, width)

    monkeypatch.setattr(tightnav.supervisor, "box_distances", recording)
    for axis, sign in ((0, 1.0), (1, 1.0), (0, -1.0), (1, -1.0)):
        psi = math.atan2(sign * axis, sign * (1 - axis)) - diag
        for shift, reached in ((-1e-12, True), (0.0, True), (1e-12, False)):
            z = np.array([0.0, 0.0, psi, 0.0])
            tv = np.array([[0.0, 0.0, psi, 0.0]])
            tv[0, axis] = sign * (cut + shift)
            assert (np.hypot(tv[0, 0], tv[0, 1]) <= cut) == reached
            measured.clear()
            got = anticipate_collision(z, tv, straight_ref(), CFG, V_REF)
            assert got == anticipate_collision_loop(z, tv, straight_ref(), CFG, V_REF)
            assert not got
            assert measured == ([1] if reached else [])
            gap = min_translation_distance(body_polytope(z, LENGTH, WIDTH),
                                           body_polytope(tv[0], LENGTH, WIDTH))
            assert gap == pytest.approx(CFG.d_min + 1e-9 + shift, abs=1e-13)


def test_anticipate_skips_box_distances_when_every_pair_is_beyond_the_cut(monkeypatch):
    def refuse(*args):
        raise AssertionError("box_distances called with every pair beyond the cut")

    monkeypatch.setattr(tightnav.supervisor, "box_distances", refuse)
    far = np.tile(np.array([10.0, 0.0, 0.0, 0.0]), (21, 1))
    assert not anticipate_collision(np.zeros(4), far, straight_ref(), CFG, V_REF)
    # A TV parked beside the lane while the EV drives past it.
    beside = np.tile(np.array([1.5, 0.75, 0.0, 0.0]), (21, 1))
    z = np.array([0.0, 0.0, 0.0, V_REF])
    assert not anticipate_collision(z, beside, straight_ref(), CFG, V_REF)
