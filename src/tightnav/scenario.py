"""Parking-lot scenes and procedural target-vehicle maneuvers.

The lot is a straight lane flanked by two spot rows at 1/10 scale.  TV
parking maneuvers are synthesized by integrating the bicycle model through a
primitive schedule (straight, arc, exact stop, idle, reverse arc), so every
consecutive state pair is consistent with the dynamics by construction; the
finished trajectory is rigidly translated onto the requested spot.

There is one lot, `LOT`, and every scenario steps at the stack's period
`DT` (defined in `dynamics` and re-exported here); both vehicles are the
car of the `dynamics` constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import A_MAX, COVERING_RADIUS, DELTA_MAX, DT, LENGTH, WIDTH, step_rk4
from .geometry import Polytope, body_polytope, min_translation_distance
from .obca import EnvironmentEncoding

V_REF = 0.6


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


LOT = ParkingLot()


# --- maneuver synthesis -----------------------------------------------------

def _drive(states, delta, a, n):
    z = states[-1]
    for _ in range(n):
        z = step_rk4(z, np.array([delta, a]), DT)
        states.append(z)
    return states


def _drive_until(states, delta, a, stop, cap=400):
    z = states[-1]
    for _ in range(cap):
        if stop(z):
            return states
        z = step_rk4(z, np.array([delta, a]), DT)
        states.append(z)
    raise ScenarioError("maneuver primitive failed to reach its stop condition")


def _ramp_to(states, delta, v_target):
    """Change speed so the final step lands exactly on v_target."""
    z = states[-1]
    while abs(z[3] - v_target) > 1e-12:
        err = v_target - z[3]
        a = math.copysign(min(A_MAX, abs(err) / DT), err)
        z = step_rk4(z, np.array([delta, a]), DT)
        states.append(z)
    return states


def _mirror_y(states: np.ndarray) -> np.ndarray:
    out = states.copy()
    out[:, 1] *= -1.0
    out[:, 2] *= -1.0
    return out


def synth_tv_maneuver(row: str, index: int, mode: str, speed_scale: float = 1.0,
                      idle_duration: float = 0.0, seed: int = 0,
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
    if row not in ("top", "bottom"):
        raise ScenarioError(f"row must be 'top' or 'bottom', got {row!r}")
    if mode not in ("forward", "reverse"):
        raise ScenarioError(f"mode must be 'forward' or 'reverse', got {mode!r}")
    if not (math.isfinite(idle_duration) and idle_duration >= 0):
        raise ScenarioError(f"idle duration must be finite and nonnegative, got {idle_duration!r}")
    if not 0.5 <= speed_scale <= 1.6:
        raise ScenarioError("speed scale outside the supported range [0.5, 1.6]")
    if not 0.3 <= approach_len <= 3.5:
        raise ScenarioError("approach length outside the supported range [0.3, 3.5]")
    rng = np.random.default_rng(seed)
    # Build in top-row coordinates and mirror afterwards for the bottom row.
    cx, cy = LOT.spot_center("top", index)

    v_cruise = 0.5 * speed_scale * float(rng.uniform(0.95, 1.05))
    v_park = 0.35 * speed_scale
    delta_turn = DELTA_MAX * float(rng.uniform(0.93, 1.0))
    y_lane = float(rng.uniform(-0.2, -0.12))

    # Build the top-row maneuver starting from rest on the lane; the bottom
    # row is its mirror image.
    z0 = np.array([0.0, y_lane, 0.0, 0.0])
    states = [z0]
    _ramp_to(states, 0.0, v_cruise)
    _drive(states, 0.0, 0.0, int(round(approach_len / (v_cruise * DT))))

    if mode == "forward":
        _ramp_to(states, 0.0, v_park)
        _drive_until(states, delta_turn, 0.0, lambda z: z[2] >= 0.5 * math.pi - 0.02)
        y_turn_end = states[-1][1]
        y_stop = y_turn_end + 0.10
        _drive_until(states, 0.0, 0.0, lambda z: z[1] >= y_stop, cap=60)
        _ramp_to(states, 0.0, 0.0)
    else:
        # Swing the nose away from the spot while slowing, overrun the spot,
        # and stop in the lane for the gear change.
        _ramp_to(states, 0.0, v_park)
        _drive_until(states, -0.6 * delta_turn, 0.0, lambda z: z[2] <= -0.30)
        _ramp_to(states, 0.0, 0.0)
        n_idle = math.ceil(idle_duration / DT)
        for _ in range(max(n_idle - 1, 0)):
            states.append(states[-1].copy())
        # Back in: negative speed with left steering swings the tail up into
        # the spot while the heading comes around to face the lane.
        _ramp_to(states, delta_turn, -abs(v_park))
        _drive_until(states, delta_turn, 0.0, lambda z: z[2] <= -0.5 * math.pi + 0.02)
        y_arc_end = states[-1][1]
        y_stop = y_arc_end + 0.06
        _drive_until(states, 0.0, 0.0, lambda z: z[1] >= y_stop, cap=60)
        _ramp_to(states, 0.0, 0.0)

    traj = np.array(states)
    traj[:, :2] += np.array([cx, cy]) - traj[-1, :2]
    if row == "bottom":
        traj = _mirror_y(traj)
    if not (LOT.contains(traj[0, 0], traj[0, 1])
            and LOT.contains(traj[:, 0].min(), 0.0)
            and LOT.contains(traj[:, 0].max(), 0.0)):
        raise ScenarioError("maneuver does not fit the lot for this spot")
    return traj


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
    seed: int = 0
    name: str = "scenario"

    def __post_init__(self):
        self.tv_traj = np.asarray(self.tv_traj, float)
        self.ev_init = np.asarray(self.ev_init, float)
        if not (math.isfinite(self.v_ref) and self.v_ref > 0):
            raise ScenarioError(f"reference speed must be finite and positive, got {self.v_ref}")
        if self.tv_traj.ndim != 2 or self.tv_traj.shape[1] != 4 or len(self.tv_traj) < 2:
            raise ScenarioError("TV trajectory must be a (T, 4) array with T >= 2")
        if self.ev_init.shape != (4,):
            raise ScenarioError("EV initial state must have 4 entries")
        if not (np.isfinite(self.tv_traj).all() and np.isfinite(self.ev_init).all()):
            raise ScenarioError("TV trajectory and EV initial state must be finite")
        for x, y in self.tv_traj[:, :2]:
            if not LOT.contains(float(x), float(y)):
                raise ScenarioError("TV trajectory leaves the lot")
        if not LOT.contains(float(self.ev_init[0]), float(self.ev_init[1])):
            raise ScenarioError("EV start outside the lot")
        ev0 = body_polytope(self.ev_init, LENGTH, WIDTH)
        tv0 = body_polytope(self.tv_traj[0], LENGTH, WIDTH)
        if min_translation_distance(ev0, tv0) <= COVERING_RADIUS:
            raise ScenarioError("EV start inside the TV's critical region")

    def tv_window(self, start: int, count: int) -> np.ndarray:
        """TV states of count steps from `start`, each clamped to the last
        step, as `EnvironmentEncoding.window` clamps the obstacles; raises
        ValueError for a negative start or a count below 1."""
        if start < 0 or count < 1:
            raise ValueError(f"window of {count} steps from step {start}")
        return self.tv_traj[np.minimum(np.arange(start, start + count), len(self.tv_traj) - 1)]

    def tv_from(self, start: int) -> np.ndarray:
        """The TV states from `start` on: the rest of the trajectory, or its
        final pose once the trajectory is over; raises ValueError for a
        negative start."""
        if start < 0:
            raise ValueError(f"step {start} is negative")
        return self.tv_traj[min(start, len(self.tv_traj) - 1):]

    def environment(self) -> EnvironmentEncoding:
        """The obstacle timeline: one step per TV pose, TV body first, then
        the two walls.  The encoding holds the parked pose after the
        trajectory ends."""
        top, bottom = LOT.walls()
        return EnvironmentEncoding(
            [[body_polytope(z, LENGTH, WIDTH), top, bottom] for z in self.tv_traj])


def lane_reference(z, horizon: int, v_ref: float = V_REF) -> np.ndarray:
    """Centerline reference advancing at v_ref from the EV's current abscissa."""
    z = np.asarray(z, float)
    n = horizon + 1
    xs = z[0] + v_ref * DT * np.arange(n)
    return np.stack([xs, np.zeros(n), np.zeros(n), np.full(n, v_ref)], axis=1)


def _place_ev(tv: np.ndarray, t_key: int, gap: float) -> tuple[np.ndarray, float]:
    """(TV trajectory, EV start abscissa) that put the EV, driving at V_REF,
    `gap` behind the TV's pose at step t_key when the TV reaches it.

    A start too close to the lot's entry end is moved up to x_min + 0.15 and
    the TV trajectory gets a hold prefix of its first pose that absorbs the
    lost lead time; the start is then capped at x_min + 0.9.
    """
    x_meet = tv[t_key, 0] - gap
    ev_x0 = x_meet - V_REF * DT * t_key
    lo = LOT.x_min + 0.15
    if ev_x0 < lo:
        hold = math.ceil((lo - ev_x0) / (V_REF * DT))
        tv = np.vstack([np.tile(tv[0], (hold, 1)), tv])
        ev_x0 = lo
    return tv, min(ev_x0, LOT.x_min + 0.9)


def _assemble(tv_traj, ev_x0, seed, name) -> Scenario:
    ev_init = np.array([ev_x0, 0.0, 0.0, V_REF])
    return Scenario(tv_traj=tv_traj, ev_init=ev_init, seed=seed, name=name)


FAMILIES = ("overtake", "turn_in", "reverse_short", "reverse_long")


def _turn_start(tv: np.ndarray) -> int:
    turning = np.flatnonzero(np.abs(tv[:, 2]) > 0.05)
    return int(turning[0]) if len(turning) else len(tv) // 2


def random_scenario(seed: int, family: str | None = None) -> Scenario:
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
        tv = synth_tv_maneuver(row, index, "forward", scale, 0.0, seed=seed, approach_len=1.7)
        ev_x0 = tv[0, 0] - float(rng.uniform(0.75, 0.95))
        ev_x0 = min(max(ev_x0, LOT.x_min + 0.15), LOT.x_min + 0.9)
        return _assemble(tv, ev_x0, seed, f"{family}-{row}{index}-s{seed}")
    if family == "turn_in":
        index = int(rng.integers(1, 5))
        scale = float(rng.uniform(0.9, 1.3))
        tv = synth_tv_maneuver(row, index, "forward", scale, 0.0, seed=seed)
        t_key = _turn_start(tv)
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
        tv = synth_tv_maneuver(row, index, "reverse", scale, idle, seed=seed)
        t_key = idle_window(tv)[0]
    # Aim the EV to sit a short gap behind the key point when it happens.
    tv, ev_x0 = _place_ev(tv, t_key, float(rng.uniform(0.55, 0.85)))
    return _assemble(tv, ev_x0, seed, f"{family}-{row}{index}-s{seed}")


def _suite_plan(n: int, seed0: int, weights: dict[str, float]) -> list[tuple[int, str]]:
    """(seed, family) of each scenario of a suite of n, seeds counting up
    from seed0 and family counts proportional to weights, in a shuffled
    order fixed by seed0."""
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
    np.random.default_rng(seed0).shuffle(plan)
    return [(seed0 + i, family) for i, family in enumerate(plan)]


_DATASET_PLAN = _suite_plan(68, 5000, {"overtake": 0.3, "turn_in": 0.2,
                                       "reverse_short": 0.2, "reverse_long": 0.3})
# The held-out suites' family weights, toward long-idle reverse parks.
_HELD_OUT_WEIGHTS = {"overtake": 0.25, "turn_in": 0.15, "reverse_short": 0.15,
                     "reverse_long": 0.45}
_BENCHMARK_PLAN = _suite_plan(52, 9000, _HELD_OUT_WEIGHTS)
_VALIDATION_PLAN = _suite_plan(52, 9100, _HELD_OUT_WEIGHTS)


def dataset_suite() -> list[Scenario]:
    """Scenario set for expert data generation, balanced across families."""
    return [random_scenario(seed, family) for seed, family in _DATASET_PLAN]


def benchmark_suite() -> list[Scenario]:
    """Held-out evaluation set, weighted toward long-idle reverse parks."""
    return [random_scenario(seed, family) for seed, family in _BENCHMARK_PLAN]


def validation_suite() -> list[Scenario]:
    """A second held-out set, drawn as the benchmark suite is from other
    seeds, to check that a change chosen on the benchmark suite does not
    only fit its scenarios."""
    return [random_scenario(seed, family) for seed, family in _VALIDATION_PLAN]


def benchmark_scenario(index: int) -> Scenario:
    """`benchmark_suite()[index]`, built without the others; a negative
    index counts from the end, and one out of range raises IndexError."""
    return random_scenario(*_BENCHMARK_PLAN[index])


def forward_park_case() -> Scenario:
    """Case study: TV forward-parks into the top row ahead of the EV."""
    tv = synth_tv_maneuver("top", 2, "forward", 1.0, 0.0, seed=11)
    tv, ev_x0 = _place_ev(tv, _turn_start(tv), 0.7)
    return _assemble(tv, ev_x0, 11, "case-forward-park")


def reverse_park_case() -> Scenario:
    """Case study: TV reverse-parks with a 3 s gear-change idle mid-task."""
    tv = synth_tv_maneuver("top", 2, "reverse", 1.0, 3.0, seed=12)
    tv, ev_x0 = _place_ev(tv, idle_window(tv)[0], 0.7)
    return _assemble(tv, ev_x0, 12, "case-reverse-park")


def parked_tv_scenario(row: str = "top", index: int = 2) -> Scenario:
    """Degenerate task: the TV sits parked for the whole run."""
    cx, cy = LOT.spot_center(row, index)
    psi = -0.5 * math.pi if row == "top" else 0.5 * math.pi
    tv = np.tile(np.array([cx, cy, psi, 0.0]), (2, 1))
    return _assemble(tv, LOT.x_min + 0.2, 0, "parked-tv")
