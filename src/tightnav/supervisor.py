"""Policy supervision: guided-MPC gating, safety control, emergency brake.

Per control step exactly one policy acts.  The guided MPC runs only when the
strategy prediction is a confident pass and its NLP solved; the unguided
baseline, which has no prediction, runs the MPC whenever it solved.  A
speed-profile safety controller covers every other regular situation, and
an emergency brake (latched by the simulation loop) fires when even the
safety controller cannot keep the required clearance over the prediction
horizon.

The supervisor has no settings of its own.  It shares the MPC's clearance
floor through the `ControllerConfig` it is given, drives the car of the
`dynamics` constants at the stack's period `dynamics.DT`, and tracks the
scenario's reference speed `v_ref`, passed by the caller.
Its gains, confidence threshold and corridor margins are the module
constants below.  Inputs are returned as (delta_f, a) arrays.

The safety law runs on Python floats: collision anticipation applies it at
every rollout step, to a 4-vector and a 21-point reference, where numpy's
per-call overhead would swamp the arithmetic.  The rollout measures the
reference path once, and its audit skips, by an exact centre-distance
screen, every pose pair too far apart to breach the clearance floor.
"""

from __future__ import annotations

import math
from enum import IntEnum

import numpy as np

from .dynamics import A_MAX, COVERING_RADIUS, DELTA_MAX, DT, LENGTH, WHEELBASE, WIDTH, step_rk4
from .geometry import box_distances
from .obca import ControllerConfig, StrategyLabel


class PolicyKind(IntEnum):
    SG_OBCA = 0
    SAFETY_CONTROL = 1
    EMERGENCY_BRAKE = 2


# Confidence a pass prediction needs before the guided MPC may act.
XI = 0.75
# Speed servo gains, 1/s: gentle toward a higher target, firm toward a lower
# one.  K_BRAKE * DT <= 1 keeps the discrete servo stable.
K_SPEED = 2.0
K_BRAKE = 8.0
# Extra standoff behind a TV pose angled across the corridor by more than
# MANEUVER_ANGLE rad: a turning or gear-changing vehicle sweeps roughly a
# turn radius, so following it at the straight-traffic distance is not safe.
MANEUVER_MARGIN = 0.55
MANEUVER_ANGLE = 0.15
# Lateral reach of the forward corridor beyond the EV's own half-width:
# covers steering drift plus rotating bodies sweeping into the lane.
CORRIDOR_SLACK = 0.22
# Fraction of A_MAX the approach profile plans to brake with.
BRAKE_HEADROOM = 0.5


def select_policy(pred, sg_status, collision_anticipated) -> tuple[PolicyKind, str]:
    """One policy per step, with the reason: brake > MPC > safety control.

    With a prediction (the strategy-guided scheme), the MPC requires a
    pass-side prediction with confidence XI or more and an optimal solve; a
    predicted yield, low confidence, or a failed solve each suffice to fall
    back to safety control.  `pred=None` is the unguided baseline: the MPC
    acts ("nominal") whenever its solve is optimal.
    """
    if collision_anticipated:
        return PolicyKind.EMERGENCY_BRAKE, "collision_anticipated"
    if pred is not None:
        if pred.label == StrategyLabel.YIELD:
            return PolicyKind.SAFETY_CONTROL, "yield_predicted"
        if float(np.max(pred.scores)) < XI:
            return PolicyKind.SAFETY_CONTROL, "low_confidence"
    if sg_status != "optimal":
        return PolicyKind.SAFETY_CONTROL, "solver_not_optimal"
    return PolicyKind.SG_OBCA, "nominal" if pred is None else "guided"


def _path(ref):
    """(points, segment lengths) of a reference path, as Python floats.

    The lengths come from `np.hypot`: `math.hypot` differs from it in the
    last bit on some inputs, which can move a target that sits one
    lookahead along the path and with it the closed-loop runs.
    """
    pts = np.asarray(ref, float)[:, :2]
    seg = np.diff(pts, axis=0)
    return pts.tolist(), np.hypot(seg[:, 0], seg[:, 1]).tolist()


def _pursuit_steering(z, path) -> float:
    """Pure pursuit toward the path point three body lengths ahead.

    z holds the state as floats and path comes from `_path`.  The walk
    starts at the first point nearest to the vehicle, sums segment lengths
    in path order and targets the first point at least one lookahead along,
    or the last point.
    """
    x, y, psi = z[0], z[1], z[2]
    pts, lengths = path
    i0 = 0
    best = math.inf
    for i, (px, py) in enumerate(pts):
        d, e = px - x, py - y
        d2 = d * d + e * e
        if d2 < best:
            i0, best = i, d2
    lookahead = 3.0 * LENGTH
    target = pts[-1]
    travelled = 0.0
    for j in range(i0, len(lengths)):
        travelled += lengths[j]
        if travelled >= lookahead:
            target = pts[j + 1]
            break
    dx, dy = target[0] - x, target[1] - y
    ld = math.hypot(dx, dy)
    if ld < 1e-9:
        return 0.0
    alpha = math.atan2(dy, dx) - psi
    delta = math.atan2(2.0 * WHEELBASE * math.sin(alpha), ld)
    return min(max(delta, -DELTA_MAX), DELTA_MAX)


def _tv_extent_along(heading: float, tv_psi: float) -> float:
    """Half-extent of the TV body along a given axis direction."""
    rel = tv_psi - heading
    return 0.5 * (abs(math.cos(rel)) * LENGTH + abs(math.sin(rel)) * WIDTH)


def _tv_states(tv_prediction) -> np.ndarray:
    tv = np.asarray(tv_prediction, float)
    if tv.ndim != 2 or len(tv) == 0:
        raise ValueError("TV prediction must be a nonempty state sequence")
    return tv


def safety_speed_target(z_ev, tv_prediction, config: ControllerConfig, v_ref: float) -> float:
    """Speed cap that keeps the EV behind the TV's predicted swept region.

    The cap is the scenario's reference speed v_ref except when the TV
    currently sits inside the forward corridor.  Then the free distance is
    measured to the closest point the TV's body will occupy in the corridor
    while closing on the EV, not just its current pose: a reverse-parking
    TV backs up toward its follower, and a standoff computed from the
    current pose alone would be swept through.  Future poses count only
    when they encroach into the gap between the EV and the TV's current
    position; poses beyond it are space the EV will have cleared before the
    TV arrives, and holding for them would deadlock an ordinary overtake.
    Poses angled across the corridor carry an extra maneuver margin, since
    a turning vehicle sweeps roughly a turn radius.  The target is the TV's
    longitudinal speed plus a braking-distance allowance that vanishes at
    the standoff point, so the EV settles at zero relative speed.  The
    clearance floor d_min comes from `config`.

    A predicted state equal to the one before it bounds the free distance
    exactly as that one did, so it is skipped.  A TV idling through a gear
    change repeats its pose, and a parked TV repeats it at every step, so
    a prediction read past the trajectory's end, or a window clamped to
    its final pose, costs no more than the poses that differ.

    For v_ref >= 0 the cap lies in [0, v_ref], and for a stationary TV
    straight ahead it does not decrease as the TV sits farther along the
    corridor.
    """
    z = np.asarray(z_ev, float).ravel().tolist()
    return _speed_target(z, _tv_states(tv_prediction).tolist(), config, v_ref)


def _speed_target(z, tv, config: ControllerConfig, v_ref: float) -> float:
    """`safety_speed_target` of a state z and TV states tv given as floats."""
    d_min = config.d_min
    tv0 = tv[0]
    c, s = math.cos(z[2]), math.sin(z[2])
    corridor_half = 0.5 * WIDTH + CORRIDOR_SLACK + 2.0 * d_min

    # Free distance to the most intrusive predicted pose whose body can
    # reach the corridor, each measured with its own heading-aware extent.
    # The allowance law below is inactive beyond roughly three covering
    # radii for the default gains, so no explicit range gate is needed;
    # poses behind the EV or clear of the corridor never cap it.
    def _pose_geometry(tvt):
        dxt, dyt = tvt[0] - z[0], tvt[1] - z[1]
        longi_t = c * dxt + s * dyt
        lat_t = -s * dxt + c * dyt
        lat_extent_t = _tv_extent_along(z[2] + 0.5 * math.pi, tvt[2])
        in_corridor = longi_t > 0.0 and abs(lat_t) <= corridor_half + lat_extent_t
        return longi_t, in_corridor

    def _standoff(tvt):
        out = 0.5 * LENGTH + _tv_extent_along(z[2], tvt[2]) + 3.0 * d_min
        rel = math.atan2(math.sin(tvt[2] - z[2]), math.cos(tvt[2] - z[2]))
        if abs(rel) > MANEUVER_ANGLE:
            out += MANEUVER_MARGIN
        return out

    longi_now, blocked_now = _pose_geometry(tv0)
    if not blocked_now:
        return v_ref
    s_free = longi_now - _standoff(tv0)
    prev = tv0
    for tvt in tv[1:]:
        if tvt == prev:
            continue
        prev = tvt
        longi_t, in_corridor = _pose_geometry(tvt)
        if not in_corridor or longi_t > longi_now + 1e-9:
            continue
        s_free = min(s_free, longi_t - _standoff(tvt))
    s_free = max(0.0, s_free)
    # Largest approach speed whose braking distance plus first-order servo
    # creep (v/k after the target hits zero) still fits in s_free:
    # v^2 / (2 a) + v / k <= s_free, solved for v.
    a_eff = BRAKE_HEADROOM * A_MAX
    k = K_BRAKE
    v_allow = (a_eff / k) * (math.sqrt(1.0 + 2.0 * k * k * s_free / a_eff) - 1.0)
    v_long_tv = tv0[3] * math.cos(tv0[2] - z[2])
    return max(0.0, min(v_ref, v_long_tv + v_allow))


def safety_control(z_ev, tv_prediction, ref, config: ControllerConfig,
                   v_ref: float) -> np.ndarray:
    """Input (delta_f, a) for centerline tracking with a speed profile that
    yields behind the TV.

    Steering is pure pursuit on the reference path; the speed target comes
    from `safety_speed_target`, so the EV settles behind a slow, stopped, or
    backing TV at zero relative speed instead of overrunning it.
    """
    z = np.asarray(z_ev, float).ravel().tolist()
    tv = _tv_states(tv_prediction).tolist()
    return np.array(_safety_input(z, tv, _path(ref), config, v_ref))


def _safety_input(z, tv, path, config: ControllerConfig, v_ref: float):
    """`safety_control` as a (delta_f, a) tuple, on a state z and TV states
    tv given as floats and a reference path from `_path`."""
    delta = _pursuit_steering(z, path)
    v_tgt = _speed_target(z, tv, config, v_ref)
    # Asymmetric servo: gentle speed-up, firm slow-down, so the vehicle can
    # actually hold the decreasing approach profile instead of lagging it.
    gain = K_BRAKE if z[3] > v_tgt else K_SPEED
    a = min(max(gain * (v_tgt - z[3]), -A_MAX), A_MAX)
    return delta, a


def emergency_brake(z_ev) -> np.ndarray:
    """Input (0, a) for straight-wheel maximal braking that lands exactly on
    v = 0 within one step DT."""
    v = float(np.asarray(z_ev, float).ravel()[3])
    if v == 0.0:
        return np.zeros(2)
    a = -math.copysign(min(A_MAX, abs(v) / DT), v)
    return np.array([0.0, a])


def anticipate_collision(z_ev, tv_prediction, ref, config: ControllerConfig,
                         v_ref: float) -> bool:
    """True when even the safety controller loses the clearance floor.

    Simulates the safety-control law forward against the TV prediction,
    one step per predicted TV pose, on Python floats and with the reference
    path measured once, then audits every EV/TV pose pair against
    config.d_min, the current pair included.

    The audit screens by centre distance first, and the screen is exact.  A
    body lies inside the disc of radius `COVERING_RADIUS` about its centre,
    so two bodies whose centres are D apart are at least D - 2
    COVERING_RADIUS apart.  A pair with D > 2 COVERING_RADIUS + d_min + 1e-9
    thus clears the floor by more than 1e-9, far above the rounding of
    `box_distances`, and is skipped.  The exact
    body-to-body distance of the remaining pairs comes from one batched
    `box_distances` call, which is not made when no pair remains.  The
    answer is that of stopping at the first breach: the states up to it are
    the same either way.
    """
    tv = _tv_states(tv_prediction)
    rows = tv.tolist()
    path = _path(ref)
    z = np.asarray(z_ev, float).ravel()
    ev = [z]
    for t in range(len(rows) - 1):
        u = _safety_input(z.tolist(), rows[t:], path, config, v_ref)
        z = step_rk4(z, u, DT)
        ev.append(z)
    ev = np.array(ev)
    cut = 2.0 * COVERING_RADIUS + config.d_min + 1e-9
    near = np.hypot(ev[:, 0] - tv[:, 0], ev[:, 1] - tv[:, 1]) <= cut
    if not near.any():
        return False
    return bool(np.any(box_distances(ev[near], tv[near], LENGTH, WIDTH) < config.d_min))
