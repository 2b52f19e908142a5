"""Tests for the simulation layer: closed loop, expert data and benchmark.

Each closed-loop run is capped at 30 control steps, except the expert
scheme's runs of a reverse park, which take 40 to reach the expert's hold
behind the TV.  On the overtake the EV reaches its closest approach to the
TV within those steps, so the MPC solves engage obstacle pairs and the SQP
subproblems run warm-started from the previous active set.  The MPC
horizon is shortened to 8 steps to keep the runs fast.  Safety is audited
with the exact body-to-obstacle distance the simulator logs at every step.
The dataset and benchmark tests use even shorter runs: they check
bookkeeping and the CSV writer, not driving.  One yielding reverse park
runs to its end, to compare its first 30 steps with a cut run.  One runs
in a fresh interpreter with BLAS on one thread: 21 steps of a held-out
turn-in under `sg`, whose last step's solve ends infeasible.
"""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tightnav.nlp
import tightnav.simulate
from tightnav.dynamics import A_MAX, DELTA_MAX, DT, LENGTH, WIDTH, step_rk4
from tightnav.obca import ControllerConfig, StrategyLabel
from tightnav.predictor import MlpModel, N_HIDDEN, encode_features
from tightnav.scenario import (
    Scenario,
    benchmark_suite,
    forward_park_case,
    parked_tv_scenario,
    reverse_park_case,
)
from tightnav.simulate import (
    AUDIT_SLACK,
    _clearance,
    OUTCOME_COLLISION,
    OUTCOME_EMERGENCY,
    OUTCOME_TIMEOUT,
    build_dataset,
    generate_dataset,
    run_benchmark,
    run_closed_loop,
    write_benchmark_csv,
)
from tightnav.supervisor import PolicyKind, emergency_brake, safety_control

from oracles import clearance_twice

MAX_STEPS = 30
STRATEGY_MODEL = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "fixtures",
                              "strategy_model.json")
CTRL = ControllerConfig(horizon=8)


def overtake():
    return benchmark_suite()[8]


def step_record(log):
    """Everything a step logs except its wall time."""
    return (log.step, log.z.tobytes(), log.u.tobytes(), log.policy, log.reason,
            log.min_distance, log.sg_status, log.strategy,
            None if log.scores is None else log.scores.tobytes())


def assert_safe_and_actuatable(res, ctrl):
    assert res.outcome != OUTCOME_COLLISION
    assert len(res.logs) == res.iterations
    floor = ctrl.d_min - AUDIT_SLACK
    assert res.min_distance >= floor
    assert all(log.min_distance >= floor for log in res.logs)
    u = np.array([log.u for log in res.logs])
    assert np.all(np.abs(u[:, 0]) <= DELTA_MAX + 1e-9)
    assert np.all(np.abs(u[:, 1]) <= A_MAX + 1e-9)


@pytest.fixture(scope="module")
def overtake_run():
    """The overtake under `bl`, counting the warm-started QP calls."""
    warm_calls = []
    solve_qp = tightnav.nlp.solve_qp

    def counting(*args, **kwargs):
        warm = kwargs.get("warm_rows")
        if warm is not None and len(warm):
            warm_calls.append(len(warm))
        return solve_qp(*args, **kwargs)

    tightnav.nlp.solve_qp = counting
    try:
        res = run_closed_loop(overtake(), "bl", ctrl_config=CTRL, max_steps=MAX_STEPS)
    finally:
        tightnav.nlp.solve_qp = solve_qp
    return res, warm_calls


def test_overtake_safe_and_within_actuator_bounds(overtake_run):
    res, warm_calls = overtake_run
    assert warm_calls
    assert_safe_and_actuatable(res, CTRL)
    assert all(log.policy == PolicyKind.SG_OBCA and log.sg_status == "optimal"
               for log in res.logs)


def test_bl_reasons_are_the_baseline_selection(overtake_run):
    # The baseline passes no prediction: optimal solves act as "nominal",
    # never as "guided", and no step is skipped for want of a prediction.
    res, _ = overtake_run
    assert {log.reason for log in res.logs} == {"nominal"}
    assert all(log.strategy is None and log.scores is None for log in res.logs)
    head_on = run_closed_loop(head_on_scenario(), "bl", ctrl_config=CTRL, max_steps=MAX_STEPS)
    assert {log.reason for log in head_on.logs} <= {"nominal", "solver_not_optimal",
                                                   "collision_anticipated", "latched"}
    assert "collision_anticipated" in {log.reason for log in head_on.logs}
    for log in head_on.logs:
        solved = log.reason in ("nominal", "solver_not_optimal")
        assert (log.sg_status is not None) == solved


def test_overtake_rerun_bit_identical(overtake_run):
    first, _ = overtake_run
    again = run_closed_loop(overtake(), "bl", ctrl_config=CTRL, max_steps=MAX_STEPS)
    assert (again.outcome, again.iterations) == (first.outcome, first.iterations)
    assert again.min_distance == first.min_distance
    assert [step_record(log) for log in again.logs] == [step_record(log) for log in first.logs]


def test_parked_tv_safe_and_within_actuator_bounds():
    res = run_closed_loop(parked_tv_scenario(), "bl", ctrl_config=CTRL, max_steps=MAX_STEPS)
    assert_safe_and_actuatable(res, CTRL)


# Run in a fresh interpreter, whose BLAS is pinned to one thread before numpy
# loads, as the benchmark runs it: the failure below depends on rounding.
QP_OVERFLOW_RUN = """
import sys
from tightnav.predictor import load_model
from tightnav.scenario import benchmark_suite
from tightnav.simulate import run_closed_loop

res = run_closed_loop(benchmark_suite()[37], "sg", model=load_model(sys.argv[1]), max_steps=22)
last = res.logs[-1]
print(res.outcome, len(res.logs), last.sg_status, last.policy.name, last.reason)
"""


def test_qp_overflow_ends_the_qp_not_the_run():
    # This turn-in under `sg` once grew a QP's multipliers past the float
    # range at step 20.  Its first infeasible guided step is step 21: a
    # subproblem has no solution, which ends the NLP `infeasible` and so
    # the step, and the supervisor falls back to safety control.  No
    # RuntimeWarning escapes.
    src = os.path.dirname(os.path.dirname(os.path.abspath(tightnav.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", QP_OVERFLOW_RUN,
                          STRATEGY_MODEL], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    outcome, steps, *last = run.stdout.split()
    assert (outcome, steps) == ("timeout", "22")
    assert last == ["infeasible", "SAFETY_CONTROL", "solver_not_optimal"]


def head_on_scenario():
    """A TV drives down the lane at the EV for 15 steps, then stops.

    The safety controller cannot keep the clearance against the oncoming
    TV, so the supervisor anticipates a collision while the EV still moves.
    """
    xs = 0.6 - 0.06 * np.arange(16)
    tv = np.column_stack([xs, np.zeros(16), np.full(16, math.pi), np.r_[np.full(15, 0.6), 0.0]])
    return Scenario(tv_traj=tv, ev_init=np.array([-1.0, 0.0, 0.0, 0.6]), name="head-on")


def test_emergency_brake_latches_until_stopped():
    res = run_closed_loop(head_on_scenario(), "bl", ctrl_config=CTRL, max_steps=MAX_STEPS)
    assert_safe_and_actuatable(res, CTRL)
    assert res.outcome == OUTCOME_EMERGENCY
    kinds = [log.policy for log in res.logs]
    first = kinds.index(PolicyKind.EMERGENCY_BRAKE)
    assert res.logs[first].reason == "collision_anticipated"
    braking = res.logs[first:]
    assert len(braking) >= 3
    for log in braking[1:]:
        assert (log.policy, log.reason) == (PolicyKind.EMERGENCY_BRAKE, "latched")
    for log in braking:
        assert np.array_equal(log.u, emergency_brake(log.z))
    speeds = [abs(log.z[3]) for log in braking]
    assert all(b <= a for a, b in zip(speeds, speeds[1:]))
    assert speeds[-1] > 0.0
    # The run ends on the first step that finds the EV at rest.
    z_end = step_rk4(braking[-1].z, braking[-1].u, DT)
    assert z_end[3] == 0.0
    assert res.iterations == braking[-1].step + 1


def test_timed_out_run_audits_the_final_state():
    res = run_closed_loop(forward_park_case(), "bl", ctrl_config=CTRL, max_steps=MAX_STEPS)
    assert res.outcome == OUTCOME_TIMEOUT and len(res.logs) == MAX_STEPS
    last = res.logs[-1]
    z_end = step_rk4(last.z, last.u, DT)
    env = forward_park_case().environment()
    _, d_end = _clearance(z_end, env.obstacles(MAX_STEPS))
    # The last input brings the EV closer than any state it started a step in.
    assert d_end < min(log.min_distance for log in res.logs)
    assert res.min_distance == d_end


def test_clearance_matches_two_tests_per_obstacle():
    """One separating-axis test per obstacle gives the audit of the double
    call, bit for bit, on separated, touching and overlapping poses."""
    obstacles = forward_park_case().environment().obstacles(0)
    tv = obstacles[0].vertices
    rng = np.random.default_rng(7)
    poses = [np.array([*rng.uniform([-1.6, -0.5], [3.4, 0.5]), rng.uniform(-math.pi, math.pi),
                       0.0]) for _ in range(300)]
    # An EV box a micron off the TV, flush against the TV's and the walls'
    # faces, and one overlapping.
    poses += [np.array([tv[:, 0].min() - 0.5 * LENGTH - 1e-6, tv[:, 1].mean(), 0.0, 0.0]),
              np.array([tv[:, 0].min() - 0.5 * LENGTH, tv[:, 1].mean(), 0.0, 0.0]),
              np.array([0.0, obstacles[1].vertices[:, 1].min() - 0.5 * WIDTH, 0.0, 0.0]),
              np.array([*tv.mean(axis=0), 0.3, 0.0])]
    hits = 0
    for z in poses:
        got = _clearance(z, obstacles)
        assert got == clearance_twice(z, obstacles)
        hits += got[0]
    assert 0 < hits < len(poses)


def final_hit_scenario():
    """The TV stays far ahead for three steps, then sits where the EV must
    be after its third input, whatever the supervisor chose."""
    far = [2.5, 0.0, math.pi, 0.0]
    tv = np.array([far, far, far] + [[-0.9, 0.0, 0.0, 0.0]] * 2)
    return Scenario(tv_traj=tv, ev_init=np.array([-1.0, 0.0, 0.0, 0.6]), name="final-hit")


def test_final_state_hit_is_a_collision():
    res = run_closed_loop(final_hit_scenario(), "bl", ctrl_config=CTRL, max_steps=3)
    assert len(res.logs) == 3
    assert all(log.min_distance > 0.3 for log in res.logs)
    assert res.outcome == OUTCOME_COLLISION
    assert res.iterations == 3
    assert res.min_distance == 0.0


def test_step_count_must_be_nonnegative():
    """A negative step count is refused; zero steps audit the start state."""
    sc = reverse_park_case()
    with pytest.raises(ValueError, match="max_steps"):
        run_closed_loop(sc, "bl", ctrl_config=CTRL, max_steps=-3)
    res = run_closed_loop(sc, "bl", ctrl_config=CTRL, max_steps=0)
    assert res.outcome == OUTCOME_TIMEOUT and res.iterations == 0 and res.logs == []
    assert res.min_distance == _clearance(sc.ev_init, sc.environment().obstacles(0))[1]


def constant_model(scenario, ctrl, logits):
    """Strategy model whose prediction is softmax(logits) on every input."""
    env = scenario.environment().window(0, ctrl.horizon + 1)
    d_in = len(encode_features(scenario.ev_init, env))
    n_out = len(logits)
    return MlpModel(w1=np.zeros((N_HIDDEN, d_in)), b1=np.zeros(N_HIDDEN),
                    w2=np.zeros((n_out, N_HIDDEN)), b2=np.asarray(logits, float),
                    mean=np.zeros(d_in), scale=np.ones(d_in))


@pytest.mark.parametrize("logits, reasons", [
    ([0.0, 0.0, 5.0], {"yield_predicted"}),
    ([0.1, 0.0, 0.0], {"low_confidence"}),
    ([5.0, 0.0, 0.0], {"guided", "solver_not_optimal"}),
])
def test_sg_policy_and_reason_follow_prediction(logits, reasons):
    sc = parked_tv_scenario()
    ctrl = ControllerConfig(horizon=8)
    res = run_closed_loop(sc, "sg", constant_model(sc, ctrl, logits), ctrl_config=ctrl,
                          max_steps=MAX_STEPS)
    assert_safe_and_actuatable(res, ctrl)
    assert {log.reason for log in res.logs} <= reasons
    for log in res.logs:
        solved = log.reason in ("guided", "solver_not_optimal")
        assert (log.sg_status != "skipped") == solved
        assert log.strategy == (int(StrategyLabel.PASS_LEFT) if solved else None)
        assert (log.policy == PolicyKind.SG_OBCA) == (log.reason == "guided")


def test_safety_control_tracks_the_scenario_reference_speed():
    # A yield prediction hands every step to safety control; with the TV
    # parked beside the lane it must settle on the scenario's v_ref, not
    # on a speed of its own.
    sc = dataclasses.replace(parked_tv_scenario(), v_ref=0.3)
    ctrl = ControllerConfig(horizon=8)
    res = run_closed_loop(sc, "sg", constant_model(sc, ctrl, [0.0, 0.0, 5.0]),
                          ctrl_config=ctrl, max_steps=MAX_STEPS)
    assert {log.reason for log in res.logs} == {"yield_predicted"}
    assert sc.ev_init[3] == 0.6
    assert abs(res.logs[-1].z[3] - 0.3) < 1e-3
    assert max(log.z[3] for log in res.logs[1:]) < 0.6


def test_cut_run_is_a_prefix_of_the_full_run():
    # A yielding reverse park: safety control reads the TV trajectory to its
    # end, so a run cut at 30 steps must drive its steps as the uncut run.
    sc = reverse_park_case()
    model = constant_model(sc, CTRL, [0.0, 0.0, 5.0])
    full = run_closed_loop(sc, "sg", model, ctrl_config=CTRL)
    cut = run_closed_loop(sc, "sg", model, ctrl_config=CTRL, max_steps=MAX_STEPS)
    assert len(full.logs) > MAX_STEPS and len(cut.logs) == MAX_STEPS
    for got, want in zip(cut.logs, full.logs):
        assert step_record(got) == step_record(want), got.step


def test_closed_loop_safety_law_reads_every_remaining_tv_pose(monkeypatch):
    # A run cut far shorter than the TV trajectory: the applied safety law
    # still sees the trajectory to its end.  A yield prediction hands every
    # step to safety control.
    scenario = benchmark_suite()[3]
    seen = []

    def recording(z, tv, ref, ctrl, v_ref):
        seen.append(len(tv))
        return safety_control(z, tv, ref, ctrl, v_ref)

    monkeypatch.setattr(tightnav.simulate, "safety_control", recording)
    res = run_closed_loop(scenario, "sg", constant_model(scenario, CTRL, [0.0, 0.0, 5.0]),
                          ctrl_config=CTRL, max_steps=4)
    assert len(scenario.tv_traj) > 4 + CTRL.horizon + 1
    assert [log.reason for log in res.logs] == ["yield_predicted"] * 4
    assert seen == [len(scenario.tv_traj) - k for k in range(4)]


def test_collision_anticipation_uses_the_controller_clearance_floor(monkeypatch):
    floors = []
    anticipate = tightnav.simulate.anticipate_collision

    def recording(z, tv, ref, config, *rest):
        floors.append(config.d_min)
        return anticipate(z, tv, ref, config, *rest)

    monkeypatch.setattr(tightnav.simulate, "anticipate_collision", recording)
    ctrl = ControllerConfig(horizon=8, d_min=0.02)
    run_closed_loop(parked_tv_scenario(), "bl", ctrl_config=ctrl, max_steps=3)
    assert floors == [0.02] * 3


# --- expert dataset, benchmark summary and writers --------------------------

def test_dataset_counts_generator_inputs():
    x, y, manifest, records = generate_dataset(iter([parked_tv_scenario()]), CTRL,
                                               n_steps=10)
    assert manifest["n_scenarios"] == 1
    assert manifest["n_rollouts"] == 1
    assert manifest["n_discarded"] == 0
    (rec,) = records
    assert rec.n_steps == 10
    x2, y2, again = build_dataset(iter([rec]), horizon=CTRL.horizon)
    assert again["n_rollouts"] == 1
    assert again["n_examples"] == rec.n_steps - CTRL.horizon + 1 == len(y2)
    assert np.array_equal(x2, x) and np.array_equal(y2, y)


def test_expert_hold_rule_reads_every_remaining_tv_pose(monkeypatch):
    # A rollout far shorter than the TV trajectory: the hold rule still sees
    # the trajectory to its end, and the label reads the TV over the
    # rollout's states.  Holding at every step keeps it cheap.
    scenario = benchmark_suite()[3]
    seen = []
    labelled = []

    def hold(z, tv, ctrl, v_ref):
        seen.append(len(tv))
        return 0.0

    def label(ev, tv):
        labelled.append((ev, tv))
        return StrategyLabel.YIELD

    monkeypatch.setattr(tightnav.simulate, "safety_speed_target", hold)
    monkeypatch.setattr(tightnav.simulate, "label_rollout", label)
    rec = tightnav.simulate.generate_expert_rollout(scenario, CTRL, n_steps=4)
    assert len(scenario.tv_traj) > 4 + CTRL.horizon + 1
    assert seen == [len(scenario.tv_traj) - k for k in range(4)]
    assert rec.n_steps == 4
    ((ev, tv),) = labelled
    assert ev is rec.ev_traj
    np.testing.assert_array_equal(tv, scenario.tv_traj[:5])


# The expert at horizon 8 solves this reverse park's first 36 steps and
# holds behind the maneuvering TV from step 36 on.
EXPERT_STEPS = 40


def test_expert_scheme_reasons():
    res = run_closed_loop(benchmark_suite()[3], "expert", ctrl_config=CTRL,
                          max_steps=EXPERT_STEPS)
    reasons = {log.reason for log in res.logs}
    assert reasons <= {"hold", "nominal", "solver_not_optimal"}
    assert {"hold", "nominal"} <= reasons
    for log in res.logs:
        assert log.scores is None and log.strategy is None
        assert (log.policy == PolicyKind.SG_OBCA) == (log.reason == "nominal")
        assert (log.sg_status is None) == (log.reason == "hold")


def test_expert_scheme_never_anticipates_predicts_or_brakes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the expert must not call this")

    for name in ("anticipate_collision", "forward", "emergency_brake"):
        monkeypatch.setattr(tightnav.simulate, name, refuse)
    res = run_closed_loop(benchmark_suite()[3], "expert", ctrl_config=CTRL,
                          max_steps=EXPERT_STEPS)
    assert len(res.logs) == EXPERT_STEPS
    assert all(log.policy != PolicyKind.EMERGENCY_BRAKE for log in res.logs)


@pytest.mark.parametrize("build, steps", [
    (parked_tv_scenario, 10),
    (lambda: benchmark_suite()[3], EXPERT_STEPS),
], ids=["parked-tv", "reverse-short"])
def test_expert_rollout_is_the_expert_scheme_run(build, steps):
    scenario = build()
    res = run_closed_loop(scenario, "expert", ctrl_config=CTRL, max_steps=steps)
    rec = tightnav.simulate.generate_expert_rollout(scenario, CTRL, n_steps=steps)
    assert rec.n_steps == len(res.logs) == steps
    assert rec.ev_traj.tobytes() == np.array(
        [log.z for log in res.logs] + [step_rk4(res.logs[-1].z, res.logs[-1].u, DT)]).tobytes()
    assert rec.inputs.tobytes() == np.array([log.u for log in res.logs]).tobytes()


def test_discard_warning_names_outcome_steps_and_clearance(caplog, monkeypatch):
    # The TV of final_hit_scenario() sits where the EV is after its third
    # input.  On the parked-TV lane the EV keeps 0.34 m, which a negative
    # audit slack puts below the floor.
    with caplog.at_level("WARNING", logger="tightnav.simulate"):
        assert tightnav.simulate.generate_expert_rollout(final_hit_scenario(), CTRL,
                                                         n_steps=3) is None
        monkeypatch.setattr(tightnav.simulate, "AUDIT_SLACK", -1.0)
        assert tightnav.simulate.generate_expert_rollout(parked_tv_scenario(), CTRL,
                                                         n_steps=2) is None
    hit, narrow = [record.getMessage() for record in caplog.records]
    assert hit == "discarding rollout final-hit: collision, 3 steps, minimum clearance 0.0000"
    assert narrow == ("discarding rollout parked-tv: clearance below the floor, 2 steps, "
                      "minimum clearance 0.3400")


def test_unknown_scheme_is_refused():
    sc = parked_tv_scenario()
    assert run_closed_loop(sc, "expert", ctrl_config=CTRL, max_steps=0).outcome == OUTCOME_TIMEOUT
    for scheme in ("EXPERT", "expert ", "baseline"):
        with pytest.raises(ValueError, match="'expert'"):
            run_closed_loop(sc, scheme, ctrl_config=CTRL, max_steps=1)


@pytest.fixture(scope="module")
def short_benchmark():
    """One scheme on one scenario, cut after 5 steps; the scenarios come
    from a generator."""
    return run_benchmark((sc for sc in [parked_tv_scenario()]), None, CTRL,
                         schemes=("bl",), max_steps=5)


def test_benchmark_summary_of_timed_out_run(short_benchmark):
    (row,) = short_benchmark.rows
    assert row["scheme"] == "bl" and row["outcome"] == OUTCOME_TIMEOUT
    assert row["iterations"] == 5
    bl = short_benchmark.summary["bl"]
    assert bl["n"] == 1 and bl["n_completed"] == 0
    assert bl["failure_rate"] == 1.0
    assert math.isnan(bl["iterations_median"])
    joint = short_benchmark.summary["joint"]
    assert joint["n"] == 0
    assert math.isnan(joint["bl_iterations_median"])


def test_benchmark_runs_every_scheme_with_callers_config(monkeypatch):
    configs = []
    strategies = []

    class Recording(tightnav.simulate.ObcaController):
        def __init__(self, config=None):
            super().__init__(config)
            configs.append(self.config)
            strategies.append(set())

        def solve_step(self, *args, strategy=None, **kwargs):
            strategies[-1].add(strategy)
            return super().solve_step(*args, strategy=strategy, **kwargs)

    monkeypatch.setattr(tightnav.simulate, "ObcaController", Recording)
    sc = parked_tv_scenario()
    ctrl = ControllerConfig(horizon=8)
    run_benchmark([sc], constant_model(sc, ctrl, [5.0, 0.0, 0.0]), ctrl, schemes=("sg", "bl"),
                  max_steps=2)
    assert len(configs) == 2 and all(cfg is ctrl for cfg in configs)
    # Only the guided scheme passes a strategy; the baseline solves unguided.
    assert strategies == [{int(StrategyLabel.PASS_LEFT)}, {None}]


def test_benchmark_csv_round_trip(short_benchmark, tmp_path):
    path = tmp_path / "bench.csv"
    write_benchmark_csv(short_benchmark, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "scenario,seed,scheme,outcome,iterations,min_distance"
    assert len(lines) == 2
    row = short_benchmark.rows[0]
    fields = lines[1].split(",")
    assert fields[:5] == [row["scenario"], str(row["seed"]), "bl", OUTCOME_TIMEOUT, "5"]
    assert fields[5] == f"{row['min_distance']:.6f}"
    assert len(fields[5].split(".")[1]) == 6
    assert float(fields[5]) == pytest.approx(row["min_distance"], abs=5e-7)
