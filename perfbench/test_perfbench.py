"""Fast checks of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import env  # noqa: E402

sys.path.insert(0, env.SRC)

import pytest  # noqa: E402

import calib  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_self_times_on_toy_call_tree():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 8.0, 2),
        ("d", 7.0, 9.5, 2),  # overlaps c and sticks out of b: clipped, counted once
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 1.0, 2.0, 2.5])


def test_layer_summary_counts_reentrant_layer_once():
    tree = [
        ("qp", 0.0, 4.0, -1),
        ("qp", 1.0, 3.0, 0),
        ("nlp", 5.0, 6.0, -1),
    ]
    out = spans.layer_summary(tree, {"qp.iters": 7})
    assert out["qp.calls"] == 2
    assert out["qp.busy_ms"] == pytest.approx(4e3)
    assert out["qp.self_ms"] == pytest.approx(4e3)
    assert out["nlp.busy_ms"] == pytest.approx(1e3)
    assert out["predictor.calls"] == 0
    assert out["qp.iters"] == 7


def test_wrappers_restored_after_traced_run():
    originals = [owner.__dict__[attr] for _, owner, attr, _ in spans.TARGETS]
    scheme, scenarios, model, _ = run.setup("open_lane")
    order = list(scenarios)[:1]
    with spans.Tracer() as tracer:
        _, traced = run.run_pass(scheme, scenarios, order, model, max_steps=2)
    n_spans = len(tracer.spans)
    assert n_spans > 0
    assert tracer.summary()["supervisor.anticipate.calls"] == 2
    assert [owner.__dict__[attr] for _, owner, attr, _ in spans.TARGETS] == originals
    _, plain = run.run_pass(scheme, scenarios, order, model, max_steps=2)
    assert len(tracer.spans) == n_spans
    assert run.fingerprint(plain[0][1]) == run.fingerprint(traced[0][1])


def test_installing_twice_is_refused():
    tracer = spans.Tracer()
    with tracer:
        with pytest.raises(RuntimeError):
            tracer.install()


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_each_workload(workload):
    import json

    with open(run.FINGERPRINT_PATH) as fh:
        expected = json.load(fh)[workload]
    scheme, scenarios, model, _ = run.setup(workload)
    assert set(scenarios) == set(expected)
    _, results = run.run_pass(scheme, scenarios, list(scenarios), model, max_steps=3)
    assert run.gate(results, expected, max_steps=3) == []


def test_gate_flags_a_changed_policy_sequence():
    scheme, scenarios, model, _ = run.setup("open_lane")
    key = next(iter(scenarios))
    _, results = run.run_pass(scheme, scenarios, [key], model, max_steps=3)
    wrong = {key: {"outcome": "completed", "steps": 80, "policies": "SSS" + "M" * 77}}
    assert run.gate(results, wrong, max_steps=3)


def test_step_statistics_on_known_data():
    import numpy as np

    x = np.linspace(0.0, 1.0, 2001)
    assert run.hd_quantile(x, 0.5) == pytest.approx(0.5, abs=1e-9)
    assert run.hd_quantile(x, 0.9) == pytest.approx(0.9, abs=2e-3)
    assert run.hd_quantile([3.0, 3.0, 3.0], 0.5) == pytest.approx(3.0)
    runs = [("a", np.array([1.0, 4.0]), 3.0), ("b", np.array([2.0]), 5.0),
            ("a", np.array([3.0, 2.0]), 2.0), ("b", np.array([4.0]), 6.0),
            ("a", np.array([2.0, 9.0]), 7.0), ("b", np.array([6.0]), 1.0)]
    per_step, wall = run.across_passes(runs)
    assert per_step.tolist() == [2.0, 4.0, 4.0]
    assert wall == 3.0 + 5.0


def test_scaling_at_nominal_speed_only_removes_the_probes():
    from types import SimpleNamespace

    logs = [SimpleNamespace(solve_time=t) for t in (0.02, 0.05, 0.03)]
    probes = [calib.NOMINAL_PROBE_S] * 3
    [(key, scaled, wall)] = run.scaled_runs([1.0], [("a", SimpleNamespace(logs=logs))],
                                            [probes])
    assert key == "a"
    assert scaled.tolist() == pytest.approx([0.02, 0.05, 0.03])
    assert wall == pytest.approx(1.0 - sum(probes))


def test_slow_probes_scale_times_down():
    slow = [2 * calib.NOMINAL_PROBE_S] * 5
    assert calib.step_scales(slow) == pytest.approx([0.5 ** calib.SENSITIVITY] * 5)
    # One outlying probe is outvoted by its neighbours.
    bumpy = [calib.NOMINAL_PROBE_S] * 5
    bumpy[2] *= 10
    assert calib.step_scales(bumpy) == pytest.approx([1.0] * 5)


def test_step_probe_records_one_probe_per_step_and_restores():
    import tightnav.simulate

    original = tightnav.simulate.lane_reference
    scheme, scenarios, model, _ = run.setup("open_lane")
    order = list(scenarios)[:1]
    with calib.StepProbe() as step_probe:
        _, probed = run.run_pass(scheme, scenarios, order, model, max_steps=3)
        probes = step_probe.take()
    assert tightnav.simulate.lane_reference is original
    assert len(probes) == len(probed[0][1].logs) == 3
    assert all(p > 0 for p in probes)
    _, plain = run.run_pass(scheme, scenarios, order, model, max_steps=3)
    assert run.fingerprint(plain[0][1]) == run.fingerprint(probed[0][1])
