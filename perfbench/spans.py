"""Per-layer tracing from outside the package.

The tracer replaces public `tightnav` functions at the module attributes
their callers look up (`tightnav.nlp.solve_qp`, `tightnav.obca.solve_nlp`,
`tightnav.simulate.anticipate_collision`, ...) with wrappers that record a
span per call: layer name, start, end and the enclosing span.  Counts such as
QP iterations are read off the return values at the same boundary.  Spans
stay in memory; `Tracer.write` stores them once the run has ended, and
`uninstall` puts every original function back, so an untraced run calls the
package exactly as a user would.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

import tightnav.dynamics
import tightnav.geometry
import tightnav.nlp
import tightnav.obca
import tightnav.scenario
import tightnav.simulate
import tightnav.supervisor


def _observe_qp(counts, args, kwargs, sol):
    h = args[0] if args else kwargs["H"]
    counts["qp.iters"] += sol.iterations
    counts["qp.n_max"] = max(counts["qp.n_max"], len(h))
    counts["qp.fail"] += not sol.ok


def _observe_nlp(counts, args, kwargs, sol):
    counts["nlp.sqp_iters"] += sol.iterations
    counts["nlp.sqp_iters_max"] = max(counts["nlp.sqp_iters_max"], sol.iterations)
    counts["nlp.fail"] += not sol.ok


def _observe_obca(counts, args, kwargs, sol):
    stats = sol.stats
    counts["obca.ok"] += sol.ok
    if stats.get("precheck"):
        counts["obca.precheck"] += 1
        return
    counts["obca.rounds"] += stats["rounds"]
    counts["obca.solved"] += 1
    counts["obca.engaged_pairs_sum"] += stats["engaged"]
    counts["obca.engaged_pairs_max"] = max(counts["obca.engaged_pairs_max"], stats["engaged"])


# (layer, owner, attribute, observer).  Every owner is the object the caller
# looks the function up on, so each call in the package passes one wrapper.
TARGETS = (
    ("simulate", tightnav.simulate, "run_closed_loop", None),
    ("scenario.env", tightnav.scenario.Scenario, "environment", None),
    ("supervisor.anticipate", tightnav.simulate, "anticipate_collision", None),
    ("supervisor.safety", tightnav.simulate, "safety_control", None),
    ("supervisor.safety", tightnav.supervisor, "safety_control", None),
    ("predictor", tightnav.simulate, "forward", None),
    ("obca", tightnav.obca.ObcaController, "solve_step", _observe_obca),
    ("nlp", tightnav.obca, "solve_nlp", _observe_nlp),
    ("qp", tightnav.nlp, "solve_qp", _observe_qp),
    ("geometry.distance", tightnav.geometry, "distance_witness", None),
    ("geometry.distance", tightnav.obca, "distance_witness", None),
    ("geometry.intersect", tightnav.simulate, "polytopes_intersect", None),
    ("dynamics.rk4", tightnav.simulate, "step_rk4", None),
    ("dynamics.rk4", tightnav.supervisor, "step_rk4", None),
    ("dynamics.rk4", tightnav.obca, "step_rk4", None),
    ("dynamics.rk4", tightnav.dynamics, "step_rk4", None),
    ("dynamics.jac", tightnav.obca, "step_jacobians", None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))
COUNTS = ("qp.iters", "qp.n_max", "qp.fail", "nlp.sqp_iters", "nlp.sqp_iters_max",
          "nlp.fail", "obca.ok", "obca.precheck", "obca.rounds", "obca.solved",
          "obca.engaged_pairs_sum", "obca.engaged_pairs_max")


def self_times(spans) -> list:
    """Per span, its duration minus the part of it that child spans cover.

    `spans` holds (name, start, end, parent) records with parent an index
    into the same list or -1.  Children are clipped to the parent interval
    and overlapping children count once.
    """
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_summary(spans, counts) -> dict:
    """Per-layer calls, busy and self time (ms) plus the boundary counts.

    Busy time counts a span only when no enclosing span has the same layer,
    so a layer that re-enters itself is not counted twice.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        own[name] += selfs[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            busy[name] += end - start
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_ms"] = 1e3 * busy[layer]
        out[f"{layer}.self_ms"] = 1e3 * own[layer]
    out.update(dict.fromkeys(COUNTS, 0))
    out.update(counts)
    return out


def _noop():
    return None


def wrapper_cost_s(n: int = 20000) -> float:
    """Seconds one span adds to a call, timed on a wrapped no-op.

    The traced run multiplies this by its span count to report the share of
    its wall time that tracing itself took.
    """
    wrapped = Tracer()._wrap("calibration", _noop, None)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(n):
        _noop()
    t1 = clock()
    for _ in range(n):
        wrapped()
    t2 = clock()
    return max((t2 - t1) - (t1 - t0), 0.0) / n


class Tracer:
    """Span recorder that wraps the `TARGETS` while installed."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent]
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    def _wrap(self, layer, fn, observe):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for layer, owner, attr, observe in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict:
        return layer_summary(self.spans, self.counts)

    def write(self, path: str, meta: dict) -> None:
        """Store every span, times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            **meta,
            "columns": ["layer", "start_us", "end_us", "parent"],
            "spans": [[name, round(1e6 * (s - t0), 1), round(1e6 * (e - t0), 1), p]
                      for name, s, e, p in self.spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
