"""Tests for lot geometry, TV maneuver synthesis, and scenario plumbing."""

import collections
import hashlib
import math

import numpy as np
import pytest

from tightnav.predictor import encode_features
from tightnav.scenario import (
    DT,
    LOT,
    Scenario,
    ScenarioError,
    benchmark_scenario,
    benchmark_suite,
    dataset_suite,
    forward_park_case,
    idle_window,
    lane_reference,
    parked_tv_scenario,
    random_scenario,
    reverse_park_case,
    synth_tv_maneuver,
    validation_suite,
)

from oracles import (
    encode_features_per_polytope,
    inverse_dynamics_residual,
    padded_environment_steps,
    padded_tv_states,
    stacked_faces,
    window_steps,
)


def inside(poly, p, tol=1e-9):
    return bool(np.all(poly.A @ np.asarray(p, float) <= poly.b + tol))


# --- lot geometry -----------------------------------------------------------

def test_lot_spot_centers_and_walls():
    lot = LOT
    cx, cy = lot.spot_center("top", 0)
    assert cx == pytest.approx(lot.spot_x0 + 0.5 * lot.spot_width)
    assert cy == pytest.approx(lot.lane_half_width + 0.5 * lot.spot_depth)
    assert lot.spot_center("bottom", 0)[1] == pytest.approx(-cy)
    top, bottom = lot.walls()
    # Walls hug the lane edge over the full x-extent.
    assert inside(top, (lot.x_min + 0.01, lot.lane_half_width + 0.01))
    assert inside(bottom, (lot.x_max - 0.01, -lot.lane_half_width - 0.01))
    assert not inside(top, (0.0, 0.0))


def test_lot_rejects_bad_spots():
    with pytest.raises(ScenarioError):
        LOT.spot_center("left", 0)
    with pytest.raises(ScenarioError):
        LOT.spot_center("top", 6)


# --- maneuver synthesis -----------------------------------------------------

def test_forward_park_ends_inside_spot():
    tv = synth_tv_maneuver("top", 2, "forward", 1.0, 0.0, seed=3)
    spot = LOT.spot_box("top", 2)
    assert inside(spot, tv[-1, :2])
    # Heading aligned with the spot axis (vertical) within 5 degrees.
    axis_err = abs(abs(math.degrees(tv[-1, 2])) - 90.0)
    assert axis_err < 5.0
    assert tv[-1, 3] == 0.0


def test_forward_no_idle_is_strictly_monotone():
    tv = synth_tv_maneuver("top", 1, "forward", 1.0, 0.0, seed=0)
    steps = np.hypot(np.diff(tv[:, 0]), np.diff(tv[:, 1]))
    assert np.all(steps > 0.0)


def test_reverse_idle_run_length_exact():
    tv = synth_tv_maneuver("top", 2, "reverse", 1.0, 3.0, seed=3)
    lo, hi = idle_window(tv)
    assert hi - lo == math.ceil(3.0 / DT)
    assert np.all(tv[lo:hi, 3] == 0.0)


def test_reverse_ends_inside_spot_facing_lane():
    tv = synth_tv_maneuver("top", 4, "reverse", 0.9, 2.0, seed=7)
    spot = LOT.spot_box("top", 4)
    assert inside(spot, tv[-1, :2])
    assert abs(math.degrees(tv[-1, 2]) + 90.0) < 5.0  # nose toward the lane


def test_bottom_row_is_mirrored():
    top = synth_tv_maneuver("top", 2, "forward", 1.0, 0.0, seed=3)
    bottom = synth_tv_maneuver("bottom", 2, "forward", 1.0, 0.0, seed=3)
    assert np.allclose(bottom[:, 0], top[:, 0])
    assert np.allclose(bottom[:, 1], -top[:, 1])
    assert np.allclose(bottom[:, 2], -top[:, 2])


def test_maneuvers_are_kinematically_consistent():
    for mode, idle in (("forward", 0.0), ("reverse", 2.5)):
        tv = synth_tv_maneuver("bottom", 3, mode, 1.1, idle, seed=5)
        assert inverse_dynamics_residual(tv) < 1e-3


def test_synth_rejects_bad_arguments():
    with pytest.raises(ScenarioError):
        synth_tv_maneuver("top", 2, "sideways")
    with pytest.raises(ScenarioError):
        synth_tv_maneuver("top", 2, "reverse", idle_duration=-1.0)
    with pytest.raises(ScenarioError):
        synth_tv_maneuver("top", 2, "forward", speed_scale=3.0)
    with pytest.raises(ScenarioError):
        synth_tv_maneuver("left", 2, "forward")


@pytest.mark.parametrize("mode", ["forward", "reverse"])
@pytest.mark.parametrize("idle", [math.inf, math.nan])
def test_synth_rejects_non_finite_idle(mode, idle):
    with pytest.raises(ScenarioError, match="finite"):
        synth_tv_maneuver("top", 2, mode, idle_duration=idle)


# --- scenarios --------------------------------------------------------------

def test_scenario_rejects_ev_start_in_critical_region():
    tv = np.tile(np.array([0.0, 0.0, 0.0, 0.0]), (3, 1))
    with pytest.raises(ScenarioError):
        Scenario(tv_traj=tv, ev_init=np.array([-0.5, 0.0, 0.0, 0.6]))


def test_scenario_rejects_tv_outside_lot():
    tv = np.tile(np.array([9.0, 0.0, 0.0, 0.0]), (3, 1))
    with pytest.raises(ScenarioError):
        Scenario(tv_traj=tv, ev_init=np.array([-1.4, 0.0, 0.0, 0.6]))


@pytest.mark.parametrize("v_ref", [0.0, -0.6, math.nan, math.inf])
def test_scenario_rejects_bad_reference_speed(v_ref):
    tv = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (3, 1))
    with pytest.raises(ScenarioError):
        Scenario(tv_traj=tv, ev_init=np.array([-1.4, 0.0, 0.0, 0.6]), v_ref=v_ref)


@pytest.mark.parametrize("state, index, value", [
    ("tv", (1, 2), math.nan),   # heading
    ("tv", (2, 3), math.inf),   # speed
    ("ev", 3, math.nan),        # speed
    ("ev", 2, -math.inf),       # heading
])
def test_scenario_rejects_non_finite_states(state, index, value):
    tv = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (3, 1))
    ev = np.array([-1.4, 0.0, 0.0, 0.6])
    (tv if state == "tv" else ev)[index] = value
    with pytest.raises(ScenarioError, match="finite"):
        Scenario(tv_traj=tv, ev_init=ev)


def test_random_scenario_deterministic():
    a, b = random_scenario(17), random_scenario(17)
    assert np.array_equal(a.tv_traj, b.tv_traj)
    assert np.array_equal(a.ev_init, b.ev_init)
    c = random_scenario(18)
    assert not np.array_equal(a.tv_traj, c.tv_traj)


def test_benchmark_scenario_builds_each_suite_scenario_alone():
    suite = benchmark_suite()
    for index, want in enumerate(suite):
        got = benchmark_scenario(index)
        assert (got.name, got.seed, got.v_ref) == (want.name, want.seed, want.v_ref)
        assert got.tv_traj.tobytes() == want.tv_traj.tobytes()
        assert got.ev_init.tobytes() == want.ev_init.tobytes()
    assert benchmark_scenario(-1).name == suite[-1].name
    for index in (len(suite), -len(suite) - 1):
        with pytest.raises(IndexError):
            benchmark_scenario(index)


def test_validation_suite_is_disjoint_and_drawn_as_the_benchmark():
    """The validation suite shares no seed with the benchmark suite
    (9000-9051) or the dataset (5000-5067), and holds as many scenarios of
    each family as the benchmark suite."""
    validation, benchmark = validation_suite(), benchmark_suite()
    seeds = {sc.seed for sc in validation}
    assert len(seeds) == len(validation) == 52
    assert not seeds & {sc.seed for sc in benchmark}
    assert not seeds & {sc.seed for sc in dataset_suite()}
    assert {sc.seed for sc in benchmark} == set(range(9000, 9052))
    assert {sc.seed for sc in dataset_suite()} == set(range(5000, 5068))

    def families(suite):
        return collections.Counter(sc.name.split("-")[0] for sc in suite)

    assert families(validation) == families(benchmark)


# sha256 over name, seed, v_ref and the raw bytes of tv_traj and ev_init of
# every scenario the builders make: the benchmark and dataset suites, the two
# case studies and the three parked spots of the benchmark's open-lane
# workload.  The figure was taken with glibc's libm; another libm may round
# the maneuver synthesis differently.
SCENARIO_DIGEST = "1080a9d4397bb4c83750b319f2c03c1d9c7aad40151b78c05e95dc0a28ee11f8"


def test_scenario_builders_are_pinned():
    scenarios = [*benchmark_suite(), *dataset_suite(), forward_park_case(), reverse_park_case(),
                 *(parked_tv_scenario(row=row, index=index)
                   for row, index in (("top", 0), ("bottom", 3), ("top", 5)))]
    assert len(scenarios) == 52 + 68 + 2 + 3
    h = hashlib.sha256()
    for sc in scenarios:
        h.update(f"{sc.name}|{sc.seed}|{sc.v_ref!r}".encode())
        h.update(sc.tv_traj.tobytes())
        h.update(sc.ev_init.tobytes())
    assert h.hexdigest() == SCENARIO_DIGEST


def test_environment_layout_and_padding():
    sc = parked_tv_scenario()
    env = sc.environment()
    # One step per TV pose; later steps hold the last one.
    assert env.n_steps == len(sc.tv_traj) == 2
    assert env.n_obstacles == 3
    assert inside(env.tv(0), sc.tv_traj[-1, :2])
    assert env.tv(39) is env.tv(1)
    w = env.window(35, 10)
    assert w.n_steps == 10
    assert all(w.obstacles(t) is env.obstacles(1) for t in range(10))


@pytest.mark.parametrize("make", [reverse_park_case, parked_tv_scenario])
def test_environment_windows_match_the_padded_build(make):
    """Every window of the pose timeline equals the same window of the
    environment padded to a 600-step run, bit for bit."""
    sc = make()
    horizon = 20
    n_tv = len(sc.tv_traj)
    padded = padded_environment_steps(sc, 600 + horizon + 1)
    env = sc.environment()
    z = np.array([0.1, -0.05, 0.2, 0.5])
    for k in sorted({0, n_tv // 2, n_tv - 1, n_tv + 5, 600}):
        want = window_steps(padded, k, horizon + 1)
        win = env.window(k, horizon + 1)
        assert win.n_steps == horizon + 1
        for got, ref in zip(win.faces, stacked_faces(want)):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        for t in range(horizon + 1):
            for got, ref in zip(win.obstacles(t), want[t]):
                for attr in ("A", "b", "vertices"):
                    assert getattr(got, attr).tobytes() == getattr(ref, attr).tobytes()
        for got, ref in zip(env.obstacles(k), padded[k]):
            assert got.A.tobytes() == ref.A.tobytes() and got.b.tobytes() == ref.b.tobytes()
            assert got.vertices.tobytes() == ref.vertices.tobytes()
        assert (encode_features(z, win).tobytes()
                == encode_features_per_polytope(z, want).tobytes())


@pytest.mark.parametrize("make", [reverse_park_case, parked_tv_scenario])
def test_tv_reads_match_the_padded_trajectory(make):
    """TV windows, read past the trajectory's end by clamping, equal the
    trajectory padded with its final pose; the remaining states are the
    padded ones without the padding's repeats of the final pose."""
    sc = make()
    horizon = 20
    n_tv = len(sc.tv_traj)
    padded = padded_tv_states(sc, 600 + horizon + 1)
    for k in sorted({0, n_tv // 2, n_tv - 1, n_tv, n_tv + 5, 600}):
        win = sc.tv_window(k, horizon + 1)
        assert win.tobytes() == padded[k : k + horizon + 1].tobytes()
        rest = sc.tv_from(k)
        assert len(rest) == max(n_tv - k, 1)
        assert rest.tobytes() == padded[k : k + len(rest)].tobytes()
        assert np.all(padded[k + len(rest):] == sc.tv_traj[-1])


@pytest.mark.parametrize("read", [
    lambda sc, env: env.window(-1, 3),
    lambda sc, env: env.window(0, 0),
    lambda sc, env: env.obstacles(-1),
    lambda sc, env: env.tv(-1),
    lambda sc, env: sc.tv_window(-1, 3),
    lambda sc, env: sc.tv_window(2, 0),
    lambda sc, env: sc.tv_from(-1),
], ids=["window-negative", "window-empty", "obstacles", "tv", "tv_window-negative",
        "tv_window-empty", "tv_from"])
def test_negative_steps_and_empty_windows_are_refused(read):
    """Python's negative indexing would read a negative step from the end of
    the timeline (step -1 as the TV's final pose), and an empty window has
    no obstacle count to report."""
    sc = benchmark_scenario(8)
    with pytest.raises(ValueError):
        read(sc, sc.environment())


def test_lane_reference_tracks_centerline():
    ref = lane_reference(np.array([0.3, 0.2, 0.1, 0.0]), 20)
    assert ref.shape == (21, 4)
    assert ref[0, 0] == pytest.approx(0.3)
    assert np.all(ref[:, 1] == 0.0)
    assert np.all(ref[:, 3] == 0.6)
    assert np.allclose(np.diff(ref[:, 0]), 0.06)


def test_case_presets_are_valid_scenarios():
    fc = forward_park_case()
    rc = reverse_park_case()
    assert fc.name == "case-forward-park"
    lo, hi = idle_window(rc.tv_traj)
    assert hi - lo == math.ceil(3.0 / DT)

