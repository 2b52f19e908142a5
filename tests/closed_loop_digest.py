"""Closed-loop digests: one JSON line per run, to compare two checkouts.

    python3 tests/closed_loop_digest.py            # perfbench and CI smoke runs
    python3 tests/closed_loop_digest.py --suite    # all benchmark_suite() runs
    python3 tests/closed_loop_digest.py --suite validation   # all validation_suite() runs
    python3 tests/closed_loop_digest.py --against parent.txt   # compare as well

Each line gives the run's name, scheme, outcome, step count, the `repr`
of its minimum clearance, and a sha256 over every StepLog's state and
input bytes plus its (policy, reason, sg_status).  Run it in the parent
and in the change and compare the outputs: equal lines mean bit-identical
closed loops.  `--against FILE` does the comparison: it reads the lines
FILE saved, compares each run's line with the saved line of the same name
and scheme, and after the last run exits 1, naming every run whose line
differs or is missing from FILE.  The script imports `tightnav` from the
`src/` next to it, so each checkout measures its own code.

By default it drives the 7 runs of `perfbench/run.py`'s workloads, two
tail runs (`benchmark_scenario` 14 under `bl` and 30 under `sg`) and the
CI smoke runs (`benchmark_scenario` 23 under `bl`, 28, 37, 38 and 42 under
`sg`, and `forward_park_case()` under `bl`).  `--suite`
drives every `benchmark_suite()` scenario under both schemes over two
worker processes, and `--suite validation` every `validation_suite()`
scenario.

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
def _validation_suite():
    from tightnav.scenario import validation_suite

    return validation_suite()


def _build(spec):
    import tightnav.scenario as sc

    kind, *args = spec
    if kind == "suite":
        return sc.benchmark_scenario(*args)
    if kind == "validation":
        return _validation_suite()[args[0]]
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


def differing_runs(lines, saved) -> list[str]:
    """'name scheme' of each digest line that differs from the saved line
    of its run or has none; saved holds a digest file's lines."""
    by_run = {(d["name"], d["scheme"]): d for d in map(json.loads, filter(str.strip, saved))}
    return [f"{line['name']} {line['scheme']}" for line in lines
            if by_run.get((line["name"], line["scheme"])) != line]


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description="closed-loop digests of tightnav runs")
    ap.add_argument("--suite", nargs="?", const="benchmark", choices=("benchmark", "validation"),
                    help="every scenario of the benchmark suite (the default) or the "
                         "validation suite under both schemes")
    ap.add_argument("--against", metavar="FILE",
                    help="compare each line with the one FILE saved for its run; exit 1 "
                         "naming the runs whose lines differ")
    args = ap.parse_args(argv)
    saved = None
    if args.against:
        with open(args.against) as fh:
            saved = fh.readlines()
    lines = []
    if args.suite:
        from tightnav.scenario import benchmark_suite

        if args.suite == "validation":
            suite, kind = _validation_suite(), "validation"
        else:
            suite, kind = benchmark_suite(), "suite"
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
        differ = differing_runs(lines, saved)
        if differ:
            print(f"{len(differ)} of {len(lines)} runs differ from {args.against}: "
                  + ", ".join(differ), file=sys.stderr)
            sys.exit(1)
        print(f"all {len(lines)} runs match {args.against}", file=sys.stderr)


if __name__ == "__main__":
    main()
