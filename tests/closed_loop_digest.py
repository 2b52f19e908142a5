"""Closed-loop digests: one JSON line per run, to compare two checkouts.

    python3 tests/closed_loop_digest.py            # perfbench and CI smoke runs
    python3 tests/closed_loop_digest.py --suite    # all benchmark_suite() runs
    python3 tests/closed_loop_digest.py --suite validation   # all validation_suite() runs
    python3 tests/closed_loop_digest.py --expert   # all dataset_suite() expert rollouts
    python3 tests/closed_loop_digest.py --against parent.txt   # compare as well

Each line gives the run's name, scheme, outcome, step count, the `repr`
of its minimum clearance, and a sha256 over every StepLog's state and
input bytes plus its (policy, reason, sg_status).  Run it in the parent
and in the change and compare the outputs: equal lines mean bit-identical
closed loops.  `--against FILE` does the comparison: it reads the lines
FILE saved, compares each run's line with the saved line of the same name
and scheme, and after the last run names every run whose line differs or
is missing from FILE.  It splits them into runs whose outcome or step count
changed, each shown as `outcome/steps → outcome/steps`, and runs that
differ only in clearance or bits, prints each scheme's outcome counts in
FILE and in this run, and exits 1 if any run differs.  The script imports
`tightnav` from the `src/` next to it, so each checkout measures its own
code.

By default it drives the 7 runs of `perfbench/run.py`'s workloads, two
tail runs (`benchmark_scenario` 14 under `bl` and 30 under `sg`) and the
CI smoke runs (`benchmark_scenario` 23 under `bl`, 28, 37, 38 and 42 under
`sg`, and `forward_park_case()` under `bl`).  `--suite`
drives every `benchmark_suite()` scenario under both schemes over two
worker processes, and `--suite validation` every `validation_suite()`
scenario.  `--expert` drives `generate_expert_rollout` on every
`dataset_suite()` scenario over two worker processes.  Its lines give the
scenario's name, scheme "expert", outcome "kept" or "discarded", and for a
kept rollout its step count, label and a sha256 over its `ev_traj` and
`inputs` bytes; a last line, named "build_dataset", gives the example count
and a sha256 over `build_dataset`'s features and labels.  These are fields
every `RolloutRecord` has had, so the script also digests a checkout from
before the expert was a scheme of `run_closed_loop`: copy it into that
checkout's `tests/`.

OpenBLAS and OpenMP run on one thread, set before numpy loads: closed-loop
states are bit-reproducible only at a fixed thread count.  The BL tail's
outcomes also depend on the BLAS and libm build, so compare digests taken
on one machine.  It is a script, not a test module: the smoke runs already
run in CI.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
MODEL_PATH = os.path.join(ROOT, "perfbench", "fixtures", "strategy_model.json")

# (name, builder, scheme): the perfbench workloads' runs, then the tail and CI
# smoke runs.
DEFAULT_RUNS = (
    ("overtake-top5-s9008", ("suite", 8), "bl"),
    ("case-reverse-park", ("reverse_park_case",), "bl"),
    ("overtake-top5-s9008", ("suite", 8), "sg"),
    ("reverse_short-bottom4-s9003", ("suite", 3), "sg"),
    ("parked-tv-top0", ("parked_tv_scenario", "top", 0), "bl"),
    ("parked-tv-bottom3", ("parked_tv_scenario", "bottom", 3), "bl"),
    ("parked-tv-top5", ("parked_tv_scenario", "top", 5), "bl"),
    ("benchmark_scenario(14)", ("suite", 14), "bl"),
    ("benchmark_scenario(23)", ("suite", 23), "bl"),
    ("benchmark_scenario(28)", ("suite", 28), "sg"),
    ("benchmark_scenario(30)", ("suite", 30), "sg"),
    ("benchmark_scenario(37)", ("suite", 37), "sg"),
    ("benchmark_scenario(38)", ("suite", 38), "sg"),
    ("benchmark_scenario(42)", ("suite", 42), "sg"),
    ("case-forward-park", ("forward_park_case",), "bl"),
)


@functools.cache
def _suite(name):
    """`benchmark_suite()`, `validation_suite()` or `dataset_suite()`, built
    once per process."""
    import tightnav.scenario as sc

    return getattr(sc, f"{name}_suite")()


def _build(spec):
    import tightnav.scenario as sc

    kind, *args = spec
    if kind == "suite":
        return sc.benchmark_scenario(*args)
    if kind == "validation":
        return _suite("validation")[args[0]]
    return getattr(sc, kind)(*args)


def digest(run) -> dict:
    """Drive one (name, builder, scheme) run and summarize it."""
    from tightnav.predictor import load_model
    from tightnav.simulate import run_closed_loop

    name, spec, scheme = run
    model = load_model(MODEL_PATH) if scheme == "sg" else None
    res = run_closed_loop(_build(spec), scheme, model)
    h = hashlib.sha256()
    for log in res.logs:
        h.update(log.z.tobytes())
        h.update(log.u.tobytes())
        h.update(f"{log.policy.name}|{log.reason}|{log.sg_status}\n".encode())
    return {"name": name, "scheme": scheme, "outcome": res.outcome, "steps": res.iterations,
            "min_clearance": repr(res.min_distance), "sha256": h.hexdigest()}


def expert_digest(index):
    """(line, record) of the expert rollout of `dataset_suite()[index]`;
    the record is None for a discarded rollout."""
    from tightnav.simulate import generate_expert_rollout

    sc = _suite("dataset")[index]
    rec = generate_expert_rollout(sc)
    line = {"name": sc.name, "scheme": "expert", "outcome": "discarded", "steps": None,
            "label": None, "sha256": None}
    if rec is not None:
        h = hashlib.sha256(rec.ev_traj.tobytes())
        h.update(rec.inputs.tobytes())
        line.update(outcome="kept", steps=rec.n_steps, label=rec.label.name,
                    sha256=h.hexdigest())
    return line, rec


def dataset_digest(records) -> dict:
    """The line of `build_dataset` over the kept rollouts, at the default
    horizon."""
    from tightnav.obca import ControllerConfig
    from tightnav.simulate import build_dataset

    x, y, manifest = build_dataset(records, ControllerConfig().horizon)
    h = hashlib.sha256(x.tobytes())
    h.update(y.tobytes())
    return {"name": "build_dataset", "scheme": "expert", "outcome": "dataset",
            "steps": manifest["n_examples"], "label": None, "sha256": h.hexdigest()}


def _parsed(saved) -> list[dict]:
    return [json.loads(line) for line in saved if line.strip()]


def differing_runs(lines, saved) -> list[str]:
    """'name scheme' of each digest line that differs from the saved line
    of its run or has none; saved holds a digest file's lines."""
    by_run = {(d["name"], d["scheme"]): d for d in _parsed(saved)}
    return [f"{line['name']} {line['scheme']}" for line in lines
            if by_run.get((line["name"], line["scheme"])) != line]


def comparison(lines, saved, path) -> list[str]:
    """The report `--against path` prints: the runs that differ from the
    saved lines, split into those whose outcome or step count changed
    (saved `outcome/steps` → this run's, "none" for a run missing from the
    file) and those that differ only in clearance or bits, then each
    scheme's outcome counts in the file and in this run."""
    old = _parsed(saved)
    by_run = {(d["name"], d["scheme"]): d for d in old}
    differ = differing_runs(lines, saved)
    if not differ:
        report = [f"all {len(lines)} runs match {path}"]
    else:
        report = [f"{len(differ)} of {len(lines)} runs differ from {path}: " + ", ".join(differ)]
        flips, bits, moved = [], [], 0.0
        for line in lines:
            was = by_run.get((line["name"], line["scheme"]))
            if was == line:
                continue
            name = f"{line['name']} {line['scheme']}"
            if was is not None and (was["outcome"], was["steps"]) == (line["outcome"], line["steps"]):
                bits.append(name)
                # Expert lines carry no clearance.
                if "min_clearance" in line and "min_clearance" in was:
                    a, b = float(was["min_clearance"]), float(line["min_clearance"])
                    if a != b:
                        moved = max(moved, abs(b - a) / max(abs(a), abs(b)))
            else:
                before = f"{was['outcome']}/{was['steps']}" if was else "none"
                flips.append(f"  {name}: {before} → {line['outcome']}/{line['steps']}")
        report.append(f"outcome or steps changed: {len(flips)}")
        report += flips
        report.append(f"clearance or bits only: {len(bits)}, clearance moved by at most "
                      f"{moved:.2g} relative" + (": " + ", ".join(bits) if bits else ""))
    for scheme in sorted({d["scheme"] for d in old + lines}):
        before = collections.Counter(d["outcome"] for d in old if d["scheme"] == scheme)
        after = collections.Counter(d["outcome"] for d in lines if d["scheme"] == scheme)
        report.append(f"{scheme} outcomes, {path} → this run: " + ", ".join(
            f"{outcome} {before[outcome]} → {after[outcome]}" for outcome in sorted(before | after)))
    return report


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description="closed-loop digests of tightnav runs")
    runs = ap.add_mutually_exclusive_group()
    runs.add_argument("--suite", nargs="?", const="benchmark",
                      choices=("benchmark", "validation"),
                      help="every scenario of the benchmark suite (the default) or the "
                           "validation suite under both schemes")
    runs.add_argument("--expert", action="store_true",
                      help="every dataset_suite() expert rollout, then the dataset they build")
    ap.add_argument("--against", metavar="FILE",
                    help="compare each line with the one FILE saved for its run; exit 1 "
                         "naming the runs whose lines differ")
    args = ap.parse_args(argv)
    saved = None
    if args.against:
        with open(args.against) as fh:
            saved = fh.readlines()
    lines = []
    if args.expert:
        records = []
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            for line, rec in pool.imap(expert_digest, range(len(_suite("dataset")))):
                print(json.dumps(line), flush=True)
                lines.append(line)
                if rec is not None:
                    records.append(rec)
        line = dataset_digest(records)
        print(json.dumps(line), flush=True)
        lines.append(line)
    elif args.suite:
        if args.suite == "validation":
            suite, kind = _suite("validation"), "validation"
        else:
            suite, kind = _suite("benchmark"), "suite"
        runs = [(sc.name, (kind, i), scheme)
                for i, sc in enumerate(suite) for scheme in ("sg", "bl")]
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            for line in pool.imap(digest, runs):
                print(json.dumps(line), flush=True)
                lines.append(line)
    else:
        for run in DEFAULT_RUNS:
            line = digest(run)
            print(json.dumps(line), flush=True)
            lines.append(line)
    if saved is not None:
        print("\n".join(comparison(lines, saved, args.against)), file=sys.stderr)
        if differing_runs(lines, saved):
            sys.exit(1)


if __name__ == "__main__":
    main()
