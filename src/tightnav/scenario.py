"""Parking-lot scenes and procedural target-vehicle maneuvers.

The lot is a straight lane flanked by two spot rows at 1/10 scale.  TV
parking maneuvers are synthesized by integrating the bicycle model through a
primitive schedule (straight, arc, exact stop, idle, reverse arc), so every
consecutive state pair is consistent with the dynamics by construction; the
finished trajectory is rigidly translated onto the requested spot.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import VehicleParams, step_rk4
from .fileio import atomic_write
from .geometry import Polytope, body_polytope, min_translation_distance
from .obca import EnvironmentEncoding

DT = 0.1
V_REF = 0.6
SCENARIO_FORMAT = "tightnav-scenario"
SCENARIO_VERSION = 1


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class ParkingLot:
    """Lane with one spot row on each side; all lengths in meters."""

    x_min: float = -1.6
    x_max: float = 3.4
    lane_half_width: float = 0.45
    wall_thickness: float = 0.05
    spot_width: float = 0.3
    spot_depth: float = 0.55
    spots_per_row: int = 6
    spot_x0: float = 0.6  # lane coordinate of the first spot's near edge

    def walls(self) -> tuple[Polytope, Polytope]:
        xc = 0.5 * (self.x_min + self.x_max)
        half_x = 0.5 * (self.x_max - self.x_min)
        yc = self.lane_half_width + 0.5 * self.wall_thickness
        top = Polytope.from_box((xc, yc), half_x, 0.5 * self.wall_thickness)
        bottom = Polytope.from_box((xc, -yc), half_x, 0.5 * self.wall_thickness)
        return top, bottom

    def spot_center(self, row: str, index: int) -> tuple[float, float]:
        if row not in ("top", "bottom"):
            raise ScenarioError(f"row must be 'top' or 'bottom', got {row!r}")
        if not 0 <= index < self.spots_per_row:
            raise ScenarioError(f"spot index {index} outside 0..{self.spots_per_row - 1}")
        x = self.spot_x0 + (index + 0.5) * self.spot_width
        y = self.lane_half_width + 0.5 * self.spot_depth
        return (x, y) if row == "top" else (x, -y)

    def spot_box(self, row: str, index: int) -> Polytope:
        cx, cy = self.spot_center(row, index)
        return Polytope.from_box((cx, cy), 0.5 * self.spot_width, 0.5 * self.spot_depth)

    def contains(self, x: float, y: float) -> bool:
        """Whole-lot bounds: lane plus both spot rows."""
        y_max = self.lane_half_width + self.spot_depth
        return self.x_min <= x <= self.x_max and -y_max <= y <= y_max


DEFAULT_LOT = ParkingLot()


# --- maneuver synthesis -----------------------------------------------------

def _drive(states, delta, a, n, dt, params):
    z = states[-1]
    for _ in range(n):
        z = step_rk4(z, np.array([delta, a]), dt, params)
        states.append(z)
    return states


def _drive_until(states, delta, a, stop, dt, params, cap=400):
    z = states[-1]
    for _ in range(cap):
        if stop(z):
            return states
        z = step_rk4(z, np.array([delta, a]), dt, params)
        states.append(z)
    raise ScenarioError("maneuver primitive failed to reach its stop condition")


def _stop_exact(states, delta, dt, params):
    """Decelerate so the final step lands exactly on v = 0."""
    z = states[-1]
    while abs(z[3]) > 1e-12:
        a = -math.copysign(min(params.a_max, abs(z[3]) / dt), z[3])
        z = step_rk4(z, np.array([delta, a]), dt, params)
        states.append(z)
    return states


def _ramp_to(states, delta, v_target, dt, params):
    z = states[-1]
    while abs(z[3] - v_target) > 1e-12:
        err = v_target - z[3]
        a = math.copysign(min(params.a_max, abs(err) / dt), err)
        z = step_rk4(z, np.array([delta, a]), dt, params)
        states.append(z)
    return states


def _mirror_y(states: np.ndarray) -> np.ndarray:
    out = states.copy()
    out[:, 1] *= -1.0
    out[:, 2] *= -1.0
    return out


def synth_tv_maneuver(row: str, index: int, mode: str, speed_scale: float = 1.0,
                      idle_duration: float = 0.0, seed: int = 0,
                      lot: ParkingLot = DEFAULT_LOT, dt: float = DT,
                      params: VehicleParams | None = None,
                      approach_len: float = 0.8) -> np.ndarray:
    """Kinematically consistent TV trajectory ending centered in the spot.

    `forward` drives `approach_len` along the lane, arcs across it, and
    noses into the spot.  `reverse` overshoots the spot with a small outward
    swing, stops for the gear change (`idle_duration` of identical poses),
    then backs in along a tight arc.  The shape is integrated with the same
    RK4 stepper the rest of the stack uses and then rigidly translated onto
    the spot, so consecutive pairs stay consistent with the vehicle dynamics
    exactly.
    """
    if mode not in ("forward", "reverse"):
        raise ScenarioError(f"mode must be 'forward' or 'reverse', got {mode!r}")
    if idle_duration < 0:
        raise ScenarioError("idle duration must be nonnegative")
    if not 0.5 <= speed_scale <= 1.6:
        raise ScenarioError("speed scale outside the supported range [0.5, 1.6]")
    if not 0.3 <= approach_len <= 3.5:
        raise ScenarioError("approach length outside the supported range [0.3, 3.5]")
    p = params or VehicleParams()
    rng = np.random.default_rng(seed)
    # Build in top-row coordinates and mirror afterwards for the bottom row.
    cx, cy = lot.spot_center("top", index)

    v_cruise = 0.5 * speed_scale * float(rng.uniform(0.95, 1.05))
    v_park = 0.35 * speed_scale
    delta_turn = p.delta_max * float(rng.uniform(0.93, 1.0))
    y_lane = float(rng.uniform(-0.2, -0.12))

    # Build the top-row maneuver starting from rest on the lane; the bottom
    # row is its mirror image.
    z0 = np.array([0.0, y_lane, 0.0, 0.0])
    states = [z0]
    _ramp_to(states, 0.0, v_cruise, dt, p)
    _drive(states, 0.0, 0.0, int(round(approach_len / (v_cruise * dt))), dt, p)

    if mode == "forward":
        _ramp_to(states, 0.0, v_park, dt, p)
        _drive_until(states, delta_turn, 0.0, lambda z: z[2] >= 0.5 * math.pi - 0.02,
                     dt, p)
        y_turn_end = states[-1][1]
        y_stop = y_turn_end + 0.10
        _drive_until(states, 0.0, 0.0, lambda z: z[1] >= y_stop, dt, p, cap=60)
        _stop_exact(states, 0.0, dt, p)
        n_idle = 0
    else:
        # Swing the nose away from the spot while slowing, overrun the spot,
        # and stop in the lane for the gear change.
        _ramp_to(states, 0.0, v_park, dt, p)
        _drive_until(states, -0.6 * delta_turn, 0.0, lambda z: z[2] <= -0.30, dt, p)
        _stop_exact(states, 0.0, dt, p)
        n_idle = math.ceil(idle_duration / dt)
        for _ in range(max(n_idle - 1, 0)):
            states.append(states[-1].copy())
        # Back in: negative speed with left steering swings the tail up into
        # the spot while the heading comes around to face the lane.
        _ramp_to(states, delta_turn, -abs(v_park), dt, p)
        _drive_until(states, delta_turn, 0.0, lambda z: z[2] <= -0.5 * math.pi + 0.02,
                     dt, p)
        y_arc_end = states[-1][1]
        y_stop = y_arc_end + 0.06
        _drive_until(states, 0.0, 0.0, lambda z: z[1] >= y_stop, dt, p, cap=60)
        _stop_exact(states, 0.0, dt, p)

    traj = np.array(states)
    traj[:, :2] += np.array([cx, cy]) - traj[-1, :2]
    if row == "bottom":
        traj = _mirror_y(traj)
    if not (lot.contains(traj[0, 0], traj[0, 1])
            and lot.contains(traj[:, 0].min(), 0.0)
            and lot.contains(traj[:, 0].max(), 0.0)):
        raise ScenarioError("maneuver does not fit the lot for this spot")
    return traj


def inverse_dynamics_residual(traj: np.ndarray, dt: float = DT,
                              params: VehicleParams | None = None) -> float:
    """Worst one-step defect against the best-fitting bounded input.

    For each consecutive state pair the acceleration follows exactly from
    the speed change; the steering angle is recovered from the heading rate
    and then polished by a bounded least-squares fit, so a trajectory
    produced by any bounded-input RK4 integration scores near zero.
    """
    from scipy.optimize import least_squares

    p = params or VehicleParams()
    traj = np.asarray(traj, float)
    worst = 0.0
    for t in range(len(traj) - 1):
        z0, z1 = traj[t], traj[t + 1]
        a0 = np.clip((z1[3] - z0[3]) / dt, -p.a_max, p.a_max)
        v_mid = 0.5 * (z0[3] + z1[3])
        if abs(v_mid) > 1e-6:
            sin_b = np.clip((z1[2] - z0[2]) / dt * p.l_r / v_mid, -0.95, 0.95)
            beta = math.asin(sin_b)
            d0 = np.clip(math.atan(math.tan(beta) * p.wheelbase / p.l_r),
                         -p.delta_max, p.delta_max)
        else:
            d0 = 0.0

        def defect(u):
            return step_rk4(z0, u, dt, p) - z1

        fit = least_squares(defect, x0=np.array([d0, a0]),
                            bounds=([-p.delta_max, -p.a_max], [p.delta_max, p.a_max]))
        worst = max(worst, float(np.max(np.abs(fit.fun))))
    return worst


def idle_window(traj: np.ndarray, tol: float = 1e-12) -> tuple[int, int]:
    """Longest run [start, end) of consecutive identical poses."""
    traj = np.asarray(traj, float)
    best = (0, 0)
    run_start = 0
    for t in range(1, len(traj) + 1):
        if t == len(traj) or np.max(np.abs(traj[t, :3] - traj[run_start, :3])) > tol:
            if t - run_start > best[1] - best[0]:
                best = (run_start, t)
            run_start = t
    return best


# --- scenarios --------------------------------------------------------------

@dataclass
class Scenario:
    """One two-vehicle task: the EV transits the lane while the TV parks."""

    tv_traj: np.ndarray
    ev_init: np.ndarray
    v_ref: float = V_REF
    dt: float = DT
    seed: int = 0
    name: str = "scenario"
    lot: ParkingLot = field(default_factory=ParkingLot)

    def __post_init__(self):
        self.tv_traj = np.asarray(self.tv_traj, float)
        self.ev_init = np.asarray(self.ev_init, float)
        if self.tv_traj.ndim != 2 or self.tv_traj.shape[1] != 4 or len(self.tv_traj) < 2:
            raise ScenarioError("TV trajectory must be a (T, 4) array with T >= 2")
        if self.ev_init.shape != (4,):
            raise ScenarioError("EV initial state must have 4 entries")
        for x, y in self.tv_traj[:, :2]:
            if not self.lot.contains(float(x), float(y)):
                raise ScenarioError("TV trajectory leaves the lot")
        if not self.lot.contains(float(self.ev_init[0]), float(self.ev_init[1])):
            raise ScenarioError("EV start outside the lot")
        p = VehicleParams()
        ev0 = body_polytope(self.ev_init, p.length, p.width)
        tv0 = body_polytope(self.tv_traj[0], p.length, p.width)
        if min_translation_distance(ev0, tv0) <= p.covering_radius:
            raise ScenarioError("EV start inside the TV's critical region")

    def tv_padded(self, n_steps: int) -> np.ndarray:
        """TV states over n_steps, frozen at the final pose once parked."""
        if n_steps <= len(self.tv_traj):
            return self.tv_traj[:n_steps]
        tail = np.tile(self.tv_traj[-1], (n_steps - len(self.tv_traj), 1))
        return np.vstack([self.tv_traj, tail])

    def environment(self, n_steps: int, params: VehicleParams | None = None
                    ) -> EnvironmentEncoding:
        """Per-step obstacle encoding: TV body first, then the two walls."""
        p = params or VehicleParams()
        top, bottom = self.lot.walls()
        tv = self.tv_padded(n_steps)
        return EnvironmentEncoding(
            [[body_polytope(tv[t], p.length, p.width), top, bottom]
             for t in range(n_steps)])


def lane_reference(z, horizon: int, dt: float = DT, v_ref: float = V_REF) -> np.ndarray:
    """Centerline reference advancing at v_ref from the EV's current abscissa."""
    z = np.asarray(z, float)
    n = horizon + 1
    xs = z[0] + v_ref * dt * np.arange(n)
    return np.stack([xs, np.zeros(n), np.zeros(n), np.full(n, v_ref)], axis=1)


def _hold_prefix(traj: np.ndarray, n: int) -> np.ndarray:
    if n <= 0:
        return traj
    return np.vstack([np.tile(traj[0], (n, 1)), traj])


def _assemble(tv_traj, ev_x0, seed, name, lot) -> Scenario:
    ev_init = np.array([ev_x0, 0.0, 0.0, V_REF])
    return Scenario(tv_traj=tv_traj, ev_init=ev_init, seed=seed, name=name, lot=lot)


FAMILIES = ("overtake", "turn_in", "reverse_short", "reverse_long")


def _turn_start(tv: np.ndarray) -> int:
    turning = np.flatnonzero(np.abs(tv[:, 2]) > 0.05)
    return int(turning[0]) if len(turning) else len(tv) // 2


def random_scenario(seed: int, lot: ParkingLot = DEFAULT_LOT,
                    family: str | None = None) -> Scenario:
    """Seeded scenario draw from one of four interaction families.

    `overtake`: a slow TV crawls down a long approach before turning in, so
    the EV catches and passes it while it still drives straight.  `turn_in`:
    the EV arrives just as the TV cuts across the lane.  `reverse_short` /
    `reverse_long`: the EV arrives at the gear-change stop of a reverse
    park with a brief or an extended idle; hesitant (long-idle) drivers
    also move slower throughout.  The EV start is placed so it reaches the
    interaction zone on time; a hold prefix on the TV trajectory absorbs
    timing that the lane length cannot.
    """
    rng = np.random.default_rng(seed)
    if family is None:
        family = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
    if family not in FAMILIES:
        raise ScenarioError(f"unknown scenario family {family!r}")
    row = "top" if rng.random() < 0.5 else "bottom"

    if family == "overtake":
        # The slow TV pulls away from rest just ahead of the EV; no timing
        # alignment is needed because the EV catches it on the straight.
        index = int(rng.integers(4, 6))
        scale = float(rng.uniform(0.5, 0.65))
        tv = synth_tv_maneuver(row, index, "forward", scale, 0.0, seed=seed,
                               lot=lot, approach_len=1.7)
        ev_x0 = tv[0, 0] - float(rng.uniform(0.75, 0.95))
        ev_x0 = min(max(ev_x0, lot.x_min + 0.15), lot.x_min + 0.9)
        return _assemble(tv, ev_x0, seed, f"{family}-{row}{index}-s{seed}", lot)
    if family == "turn_in":
        index = int(rng.integers(1, 5))
        scale = float(rng.uniform(0.9, 1.3))
        tv = synth_tv_maneuver(row, index, "forward", scale, 0.0, seed=seed, lot=lot)
        t_key = _turn_start(tv)
        gap = float(rng.uniform(0.55, 0.85))
    else:
        index = int(rng.integers(1, 5))
        if family == "reverse_short":
            idle = float(rng.uniform(0.4, 1.6))
            scale = float(rng.uniform(1.0, 1.3))
        else:
            # Hesitant drivers idle long and move slowly; the correlation
            # makes the eventual outcome visible early in the encounter.
            idle = float(rng.uniform(4.0, 5.0))
            scale = float(rng.uniform(0.7, 0.85))
        tv = synth_tv_maneuver(row, index, "reverse", scale, idle, seed=seed, lot=lot)
        t_key = idle_window(tv)[0]
        gap = float(rng.uniform(0.55, 0.85))

    # Aim the EV to sit a short gap behind the key point when it happens.
    x_meet = tv[t_key, 0] - gap
    ev_x0 = x_meet - V_REF * DT * t_key
    lo = lot.x_min + 0.15
    if ev_x0 < lo:
        hold = math.ceil((lo - ev_x0) / (V_REF * DT))
        tv = _hold_prefix(tv, hold)
        ev_x0 = lo
    ev_x0 = min(ev_x0, lot.x_min + 0.9)
    return _assemble(tv, ev_x0, seed, f"{family}-{row}{index}-s{seed}", lot)


def _family_plan(n: int, weights: dict[str, float], seed: int) -> list[str]:
    """Deterministic family assignment with counts proportional to weights."""
    total = sum(weights.values())
    counts = {f: int(weights.get(f, 0.0) / total * n) for f in FAMILIES}
    remainders = sorted(FAMILIES,
                        key=lambda f: weights.get(f, 0.0) / total * n - counts[f],
                        reverse=True)
    for f in remainders:
        if sum(counts.values()) == n:
            break
        counts[f] += 1
    plan = [f for f in FAMILIES for _ in range(counts[f])]
    np.random.default_rng(seed).shuffle(plan)
    return plan


def dataset_suite(n: int = 68, seed0: int = 5000,
                  lot: ParkingLot = DEFAULT_LOT) -> list[Scenario]:
    """Scenario set for expert data generation, balanced across families."""
    weights = {"overtake": 0.3, "turn_in": 0.2, "reverse_short": 0.2,
               "reverse_long": 0.3}
    plan = _family_plan(n, weights, seed0)
    return [random_scenario(seed0 + i, lot=lot, family=plan[i]) for i in range(n)]


def benchmark_suite(n: int = 52, seed0: int = 9000,
                    lot: ParkingLot = DEFAULT_LOT) -> list[Scenario]:
    """Held-out evaluation set, weighted toward long-idle reverse parks."""
    weights = {"overtake": 0.25, "turn_in": 0.15, "reverse_short": 0.15,
               "reverse_long": 0.45}
    plan = _family_plan(n, weights, seed0)
    return [random_scenario(seed0 + i, lot=lot, family=plan[i]) for i in range(n)]


def forward_park_case(seed: int = 11, lot: ParkingLot = DEFAULT_LOT) -> Scenario:
    """Case study: TV forward-parks into the top row ahead of the EV."""
    tv = synth_tv_maneuver("top", 2, "forward", 1.0, 0.0, seed=seed, lot=lot)
    turning = np.flatnonzero(np.abs(tv[:, 2]) > 0.05)
    t_key = int(turning[0])
    ev_x0 = max(tv[t_key, 0] - 0.7 - V_REF * DT * t_key, lot.x_min + 0.15)
    return _assemble(tv, ev_x0, seed, "case-forward-park", lot)


def reverse_park_case(seed: int = 12, idle_duration: float = 3.0,
                      lot: ParkingLot = DEFAULT_LOT) -> Scenario:
    """Case study: TV reverse-parks with a gear-change idle mid-task."""
    tv = synth_tv_maneuver("top", 2, "reverse", 1.0, idle_duration, seed=seed, lot=lot)
    t_key = idle_window(tv)[0]
    ev_x0 = tv[t_key, 0] - 0.7 - V_REF * DT * t_key
    lo = lot.x_min + 0.15
    if ev_x0 < lo:
        hold = math.ceil((lo - ev_x0) / (V_REF * DT))
        tv = _hold_prefix(tv, hold)
        ev_x0 = lo
    return _assemble(tv, ev_x0, seed, "case-reverse-park", lot)


def parked_tv_scenario(seed: int = 0, row: str = "top", index: int = 2,
                       lot: ParkingLot = DEFAULT_LOT) -> Scenario:
    """Degenerate task: the TV sits parked for the whole run."""
    cx, cy = lot.spot_center(row, index)
    psi = -0.5 * math.pi if row == "top" else 0.5 * math.pi
    tv = np.tile(np.array([cx, cy, psi, 0.0]), (2, 1))
    return _assemble(tv, lot.x_min + 0.2, seed, "parked-tv", lot)


# --- persistence ------------------------------------------------------------

def scenario_to_dict(sc: Scenario) -> dict:
    lot = sc.lot
    return {
        "format": SCENARIO_FORMAT,
        "version": SCENARIO_VERSION,
        "name": sc.name,
        "seed": sc.seed,
        "dt": sc.dt,
        "v_ref": sc.v_ref,
        "ev_init": [float(v) for v in sc.ev_init],
        "tv_traj": [[float(v) for v in row] for row in sc.tv_traj],
        "lot": {
            "x_min": lot.x_min, "x_max": lot.x_max,
            "lane_half_width": lot.lane_half_width,
            "wall_thickness": lot.wall_thickness,
            "spot_width": lot.spot_width, "spot_depth": lot.spot_depth,
            "spots_per_row": lot.spots_per_row, "spot_x0": lot.spot_x0,
        },
    }


def scenario_from_dict(data: dict) -> Scenario:
    if data.get("format") != SCENARIO_FORMAT:
        raise ScenarioError(f"not a scenario file: format={data.get('format')!r}")
    if data.get("version") != SCENARIO_VERSION:
        raise ScenarioError(f"unsupported scenario version {data.get('version')!r}")
    lot = ParkingLot(**data["lot"])
    return Scenario(tv_traj=np.array(data["tv_traj"], float),
                    ev_init=np.array(data["ev_init"], float),
                    v_ref=float(data["v_ref"]), dt=float(data["dt"]),
                    seed=int(data["seed"]), name=str(data["name"]), lot=lot)


def save_scenario(sc: Scenario, path: str) -> None:
    atomic_write(path, json.dumps(scenario_to_dict(sc), indent=1))


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
