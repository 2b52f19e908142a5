"""Closed-loop control-step benchmark for `tightnav`.

    python3 perfbench/run.py --workload interaction_bl --seed 1 --seconds 20 --trace 0

One process runs one workload: a closed loop with a single client, where
each control step waits for the previous one, over a fixed list of
scenarios.  The seed only permutes the order the scenarios run in, so every
seed does the same work.  A pass drives every scenario once.  A run makes
as many passes as fit in `--seconds` at the workload's nominal pass time, a
constant, so every version of the program does the same work; at least two
passes always run.

Other tenants of the host slow it in states that change within a second.
Before each control step, outside the step's timed decision, the run times
a fixed probe (`calib.py`) and scales the step's decision time to the
probe's nominal speed.  Repeated passes are identical work, so each step's
scaled time is taken as its median over the passes; the deadline shares
count every step of every pass.  The unscaled figures are printed too.

Every pass is checked against the recorded fingerprint (outcome, step count
and per-step policy sequence of each scenario) and the clearance audit.  A
failed check prints the result with `"correct": false` and exits 1.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one traced
pass instead and prints the per-layer metrics; the spans are written to
`perfbench/out/`.  The last line of standard output is always the JSON
result.

`--record-fingerprint` reruns one pass and rewrites the workload's entry in
`fixtures/fingerprint.json`; use it only for a change meant to alter the
closed-loop behaviour, and say so in that change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time

import calib
import env

HERE = os.path.dirname(os.path.abspath(__file__))

FIXTURES = os.path.join(HERE, "fixtures")
FINGERPRINT_PATH = os.path.join(FIXTURES, "fingerprint.json")
MODEL_PATH = os.path.join(FIXTURES, "strategy_model.json")
MODEL_META_PATH = os.path.join(FIXTURES, "strategy_model.meta.json")
OUT_DIR = os.path.join(HERE, "out")

INTERACTION = ("overtake-top5-s9008", "case-reverse-park")
# The guided reverse park spends 38 s in eleven 2-5 s guided solves, too
# long to repeat within a run, and its single passes spread 0.27.  The
# guided workload keeps the overtake and swaps in a held-out reverse park
# that the model first yields on and then passes with 41 guided solves.
GUIDED = ("overtake-top5-s9008", "reverse_short-bottom4-s9003")
# Three parked-TV spots covering both rows, both lane ends and the middle.
# Each spot gives the same homogeneous traversal, so the budget goes into
# repeated passes instead of more spots.
PARKED = ("parked-tv-top0", "parked-tv-bottom3", "parked-tv-top5")

# Each workload stresses different layers, so a change to one layer has a
# workload that exercises it and one where the prediction is no change.
# (scheme, scenarios, nominal pass seconds).  The nominal times were
# measured on a 2-core x86-64 box with one BLAS thread when the benchmark
# was defined, rounded up.  They are constants, so the number of passes
# never depends on the speed of the code measured.
WORKLOADS = {
    # MPC hot path: dense QP inside the SQP inside OBCA, many deadline misses.
    "interaction_bl": ("bl", INTERACTION, 27.0),
    # Guided by the strategy model: halfspaces, predictor forward every
    # step, predictor-skipped solves, then guided solves.
    "guided_sg": ("sg", GUIDED, 14.0),
    # No interaction: every solve converges without a QP call; collision
    # anticipation and the clearance audit dominate.
    "open_lane": ("bl", PARKED, 7.0),
}

# Fewest passes per run: the per-step minimum needs a repeat to work with.
MIN_PASSES = 2

POLICY_CODE = {"SG_OBCA": "M", "SAFETY_CONTROL": "S", "EMERGENCY_BRAKE": "B"}
SETUP_CHILDREN = 5


def build_scenarios(keys) -> dict:
    """Scenarios by key: a parked-TV spot, the reverse-park case study, or a
    `benchmark_suite()` scenario by name."""
    from tightnav.scenario import benchmark_suite, parked_tv_scenario, reverse_park_case

    out = {}
    suite = None
    for key in keys:
        spot = re.fullmatch(r"parked-tv-(top|bottom)(\d)", key)
        if spot:
            out[key] = parked_tv_scenario(row=spot[1], index=int(spot[2]))
        elif key == "case-reverse-park":
            out[key] = reverse_park_case()
        else:
            suite = suite or {sc.name: sc for sc in benchmark_suite()}
            out[key] = suite[key]
    return out


def load_checked_model():
    """Load the committed strategy model after checking its recorded hash."""
    from tightnav.predictor import load_model

    with open(MODEL_META_PATH) as fh:
        expected = json.load(fh)["sha256"]
    with open(MODEL_PATH, "rb") as fh:
        actual = hashlib.sha256(fh.read()).hexdigest()
    if actual != expected:
        raise RuntimeError(f"strategy model hash {actual} != recorded {expected}; "
                           "regenerate it with perfbench/make_model.py")
    return load_model(MODEL_PATH)


def setup(workload: str):
    """(scheme, {key: scenario}, model, seconds) including the package imports."""
    t0 = time.perf_counter()
    import tightnav.simulate  # noqa: F401

    scheme, keys, _ = WORKLOADS[workload]
    scenarios = build_scenarios(keys)
    model = load_checked_model() if scheme == "sg" else None
    return scheme, scenarios, model, time.perf_counter() - t0


def setup_seconds_in_children(workload: str) -> list:
    """(measured, scaled) set-up seconds of fresh interpreters, imports
    included, each scaled by the probe blocks taken before and after it."""
    out = []
    before = calib.block()
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        after = calib.block()
        out.append((seconds, seconds * calib.between_blocks(before, after)))
        before = after
    return out


# --- one pass and its correctness gate --------------------------------------

def policy_string(res) -> str:
    return "".join(POLICY_CODE[log.policy.name] for log in res.logs)


def fingerprint(res) -> dict:
    return {"outcome": res.outcome, "steps": res.iterations, "policies": policy_string(res)}


def run_pass(scheme, scenarios, order, model, max_steps=600, after_each=None):
    """Drive every scenario once in `order`; returns (seconds per scenario, results).

    `after_each`, if given, is called after each scenario, outside its timing."""
    import tightnav.simulate

    seconds, results = [], []
    for key in order:
        t0 = time.perf_counter()
        res = tightnav.simulate.run_closed_loop(scenarios[key], scheme, model,
                                                max_steps=max_steps)
        seconds.append(time.perf_counter() - t0)
        results.append((key, res))
        if after_each is not None:
            after_each()
    return seconds, results


def gate(results, expected: dict, max_steps: int = 600) -> list:
    """Problems found in one pass: fingerprint mismatch, audit breach, collision.

    A pass cut short by `max_steps` is compared on its policy prefix only.
    That check is loose: `run_closed_loop` previews the TV trajectory only
    up to `max_steps`, so a cut run may drive differently near its end.
    """
    from tightnav.obca import ControllerConfig
    from tightnav.simulate import AUDIT_SLACK, OUTCOME_COLLISION, OUTCOME_TIMEOUT

    floor = ControllerConfig().d_min - AUDIT_SLACK
    problems = []
    for key, res in results:
        want = expected.get(key)
        got = fingerprint(res)
        if res.outcome == OUTCOME_COLLISION:
            problems.append(f"{key}: collision at step {res.iterations}")
        if not res.min_distance >= floor:
            problems.append(f"{key}: audited clearance {res.min_distance!r} < {floor!r}")
        if want is None:
            problems.append(f"{key}: no recorded fingerprint")
        elif max_steps < want["steps"]:
            if res.outcome != OUTCOME_TIMEOUT or not want["policies"].startswith(got["policies"]):
                problems.append(f"{key}: first {max_steps} steps differ from the fingerprint")
        elif got != want:
            problems.append(f"{key}: fingerprint {got} != recorded {want}")
    return problems


# --- metrics -----------------------------------------------------------------

def mpc_statuses(results) -> list:
    """Status of every MPC solve attempted; steps that did not solve are left out."""
    return [log.sg_status for _, res in results for log in res.logs
            if log.sg_status not in (None, "skipped")]


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics, steadier than the single sample at rank p * n."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    return float(np.diff(betainc(a, b, np.arange(n + 1) / n)) @ x)


def scaled_runs(seconds, results, probes) -> list:
    """(key, scaled step times, scaled closed-loop seconds) of each scenario run.

    Each decision time is scaled by the probes around its step.  The
    closed-loop time less its probes is scaled by the run's time-weighted
    mean factor.
    """
    import numpy as np

    out = []
    for sec, (key, res), run_probes in zip(seconds, results, probes):
        t = np.array([log.solve_time for log in res.logs])
        if len(run_probes) != len(t):
            raise RuntimeError(f"{key}: {len(run_probes)} probes for {len(t)} control steps; "
                               "calib.StepProbe no longer runs once per step")
        scaled = t * np.array(calib.step_scales(run_probes))
        out.append((key, scaled, (sec - sum(run_probes)) * scaled.sum() / t.sum()))
    return out


def across_passes(runs):
    """Per-step scaled times, each the median over the passes, and the
    closed-loop time of one pass, each scenario at its median pass."""
    import numpy as np

    steps, walls = {}, {}
    for key, scaled, wall in runs:
        steps.setdefault(key, []).append(scaled)
        walls.setdefault(key, []).append(wall)
    per_step = np.concatenate([np.median(np.stack(v), axis=0) for v in steps.values()])
    return per_step, sum(statistics.median(v) for v in walls.values())


def end_to_end(runs, results, setup_s) -> dict:
    """The user-visible metrics over all passes, with their units; times are
    scaled to the probe's nominal host speed."""
    import numpy as np
    from tightnav.scenario import DT

    step_s, wall = across_passes(runs)
    every_step = np.concatenate([scaled for _, scaled, _ in runs])
    statuses = mpc_statuses(results)
    completed = [res.iterations for _, res in results if res.completed]
    return {
        "wall_s": (float(wall), "s"),
        "step_p50_ms": (1e3 * hd_quantile(step_s, 0.5), "ms"),
        "step_p90_ms": (1e3 * hd_quantile(step_s, 0.9), "ms"),
        "deadline_met_frac": (float(np.mean(every_step <= DT)), "ratio"),
        "solve_optimal_frac": (statuses.count("optimal") / len(statuses), "ratio"),
        "task_completion_rate": (len(completed) / len(results), "ratio"),
        "completion_steps_median": (float(statistics.median(completed)), "steps"),
        "min_clearance_m": (min(res.min_distance for _, res in results), "m"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(summary: dict, overhead_frac: float) -> dict:
    """The per-layer metrics of one traced pass, with their units."""
    s = summary
    out = {}
    for layer in ("qp", "nlp", "obca", "supervisor.anticipate", "supervisor.safety",
                  "geometry.distance", "geometry.intersect", "dynamics.rk4",
                  "dynamics.jac", "predictor"):
        out[f"{layer}.calls"] = (s[f"{layer}.calls"], "count")
        out[f"{layer}.busy_ms"] = (s[f"{layer}.busy_ms"], "ms")
    out["qp.iters"] = (s["qp.iters"], "count")
    out["qp.iters_per_call"] = (s["qp.iters"] / max(s["qp.calls"], 1), "count")
    out["qp.n_max"] = (s["qp.n_max"], "vars")
    out["qp.fail"] = (s["qp.fail"], "count")
    out["nlp.self_ms"] = (s["nlp.self_ms"], "ms")
    out["nlp.sqp_iters"] = (s["nlp.sqp_iters"], "count")
    out["nlp.sqp_iters_max"] = (s["nlp.sqp_iters_max"], "count")
    out["nlp.fail"] = (s["nlp.fail"], "count")
    out["obca.self_ms"] = (s["obca.self_ms"], "ms")
    out["obca.rounds"] = (s["obca.rounds"], "count")
    out["obca.engaged_pairs_max"] = (s["obca.engaged_pairs_max"], "count")
    out["obca.engaged_pairs_mean"] = (
        s["obca.engaged_pairs_sum"] / max(s["obca.solved"], 1), "count")
    out["obca.ok_ratio"] = (s["obca.ok"] / max(s["obca.calls"], 1), "ratio")
    out["obca.precheck"] = (s["obca.precheck"], "count")
    out["simulate.self_ms"] = (s["simulate.self_ms"], "ms")
    out["scenario.env_ms"] = (s["scenario.env.busy_ms"], "ms")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out


def unscaled_figures(seconds, results, probes, setups) -> dict:
    """The timings before scaling, and how the probes ran."""
    import numpy as np

    raw = [(key, np.array([log.solve_time for log in res.logs]), sec - sum(run_probes))
           for sec, (key, res), run_probes in zip(seconds, results, probes)]
    raw_steps, raw_wall = across_passes(raw)
    every_probe = [p for run_probes in probes for p in run_probes]
    return {
        "unscaled.wall_s": (float(raw_wall), "s"),
        "unscaled.step_p50_ms": (1e3 * hd_quantile(raw_steps, 0.5), "ms"),
        "unscaled.step_p90_ms": (1e3 * hd_quantile(raw_steps, 0.9), "ms"),
        "unscaled.setup_s": (min(measured for measured, _ in setups), "s"),
        "probe_p50_ms": (1e3 * statistics.median(every_probe), "ms"),
        "probe_time_frac": (sum(every_probe) / sum(seconds), "ratio"),
    }


def failure_shares(results, every_step) -> dict:
    """The shares that can be 0, whose complements are in BENCHMARK.json."""
    import numpy as np
    from tightnav.scenario import DT

    statuses = mpc_statuses(results)
    return {
        "deadline_miss_frac": (float(np.mean(np.asarray(every_step) > DT)), "ratio"),
        "fallback_frac": (sum(s != "optimal" for s in statuses) / max(len(statuses), 1),
                          "ratio"),
        "task_failure_rate": (sum(not res.completed for _, res in results) / len(results),
                              "ratio"),
    }


# --- entry point -------------------------------------------------------------

def _print_table(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value!r:>24} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tightnav closed-loop control-step benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-fingerprint", action="store_true",
                    help="rewrite this workload's fingerprint from one pass")
    args = ap.parse_args(argv)

    env.pin_threads()
    try:
        import tightnav  # noqa: F401
    except ModuleNotFoundError:
        print(f"tightnav package source not found under {env.SRC}", file=sys.stderr)
        return 2
    scheme, scenarios, model, setup_here = setup(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_here}))
        return 0

    _, keys, nominal_pass_s = WORKLOADS[args.workload]
    keys = list(keys)
    order = keys[:]
    random.Random(args.seed).shuffle(order)

    if args.record_fingerprint:
        _, results = run_pass(scheme, scenarios, keys, model)
        with open(FINGERPRINT_PATH) as fh:
            doc = json.load(fh)
        doc[args.workload] = {key: fingerprint(res) for key, res in results}
        with open(FINGERPRINT_PATH, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {args.workload}: {doc[args.workload]}")
        return 0

    with open(FINGERPRINT_PATH) as fh:
        expected = json.load(fh)[args.workload]
    info = {"workload": args.workload, "seed": args.seed, "order": order,
            "scheme": scheme, "blas": env.blas_info()}

    # Warm-up: two control steps of the first scenario and a few probes
    # fill lazy imports and caches before anything is timed.
    _, warm = run_pass(scheme, scenarios, order[:1], model, max_steps=2)
    for _ in range(calib.BLOCK):
        calib.probe()
    problems = gate(warm, expected, max_steps=2)

    if args.trace:
        from spans import Tracer, wrapper_cost_s

        with Tracer() as tracer:
            seconds, results = run_pass(scheme, scenarios, order, model)
        problems += gate(results, expected)
        n_passes, wall = 1, sum(seconds)
        cost = wrapper_cost_s() * len(tracer.spans)
        metrics = per_layer(tracer.summary(), cost / (wall - cost))
        extra = failure_shares(results, [log.solve_time for _, res in results
                                         for log in res.logs])
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz"),
                     {**info, "wall_s": wall})
    else:
        setups = setup_seconds_in_children(args.workload)
        info["setup_samples_s"] = setups
        n_passes = max(MIN_PASSES, int(args.seconds // nominal_pass_s))
        seconds, results, probes = [], [], []
        with calib.StepProbe() as step_probe:
            for _ in range(n_passes):
                pass_s, pass_results = run_pass(
                    scheme, scenarios, order, model,
                    after_each=lambda: probes.append(step_probe.take()))
                problems += gate(pass_results, expected)
                seconds += pass_s
                results += pass_results
        runs = scaled_runs(seconds, results, probes)
        metrics = end_to_end(runs, results, min(scaled for _, scaled in setups))
        extra = {**unscaled_figures(seconds, results, probes, setups),
                 **failure_shares(results, [t for _, scaled, _ in runs for t in scaled])}

    n_steps = sum(len(res.logs) for _, res in results[: len(keys)])
    statuses = mpc_statuses(results)
    info.update(passes=n_passes, steps=n_steps,
                steps_beyond_p90=n_steps - math.ceil(0.9 * n_steps),
                mpc_solves=len(statuses),
                policy_counts={key: res.policy_counts() for key, res in results[: len(keys)]})
    print(json.dumps(info, sort_keys=True))
    _print_table("per-layer metrics (traced pass)" if args.trace else "end-to-end metrics",
                 metrics)
    _print_table("not in BENCHMARK.json", extra)
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(statuses),
        "failed": sum(s != "optimal" for s in statuses),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
