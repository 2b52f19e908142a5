"""Host-speed reference: a fixed piece of work timed beside the program.

The benchmark's host shares its cores with other tenants.  Their load
slows every process on it, by up to 2.2 times, in states that change
within a second and in phases that last minutes.  The probe below does
the same kinds of work as the controller stack (an interpreter loop,
small numpy arrays, a dense Cholesky factorisation and triangular solves)
but none of the package's code, so its time tracks only the host.

A measured run times one probe before each control step, outside the
step's timed decision, and scales each decision time by how much slower
than nominal the probes around it ran.  Set-up samples are scaled the same
way by probe blocks taken before and after each of them.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

# Probe time on the host when the benchmark was defined, in its fast state
# (2-core x86-64, one BLAS thread).  Scaled times are times at that speed.
NOMINAL_PROBE_S = 1.6e-3
# How strongly a decision time follows the probe's slow-down, as a power.
# Fitted per step over repeated passes on that host, the exponent was
# 0.57-0.82 on interaction_bl, 0.78-0.81 on open_lane and 0.87-0.96 on
# guided_sg; 0.75 left the least spread over all three.
SENSITIVITY = 0.75
# A step's probe is the median of the probes of it and its two neighbours.
SMOOTH = 3
# Probes per block around a set-up sample.
BLOCK = 16

DENSE_SIZE = 160


@functools.lru_cache(maxsize=None)
def _dense_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((DENSE_SIZE, DENSE_SIZE))
    return a @ a.T + DENSE_SIZE * np.eye(DENSE_SIZE), rng.standard_normal(DENSE_SIZE)


def probe() -> float:
    """Seconds one probe takes: about 1.6 ms on an idle host.

    numpy is imported here, not at module level, so that importing this
    module does not load it before the BLAS thread pin."""
    import numpy as np

    h, g = _dense_inputs()
    t0 = time.perf_counter()
    s, d = 0.0, {}
    for i in range(4000):
        s += (i * 0.5) % 7
        d[i & 255] = s
    v = np.arange(4.0)
    for _ in range(350):
        v = np.array([v[0] + 1.0, v[1] * 2.0, np.cos(v[2]), np.sin(v[3])]) * 0.5
    l = np.linalg.cholesky(h)
    np.linalg.solve(l.T, np.linalg.solve(l, g))
    return time.perf_counter() - t0


def block() -> float:
    """Median time of a block of probes."""
    return statistics.median(probe() for _ in range(BLOCK))


def scale(probe_s: float) -> float:
    """Factor that brings a time measured beside a `probe_s` probe to nominal speed."""
    return (NOMINAL_PROBE_S / probe_s) ** SENSITIVITY


def step_scales(probes) -> list:
    """Per-step factors from the per-step probe times of one closed-loop run."""
    k = SMOOTH // 2
    return [scale(statistics.median(probes[max(0, i - k): i + k + 1]))
            for i in range(len(probes))]


def between_blocks(before: float, after: float) -> float:
    """Factor for work timed between two probe blocks."""
    return scale(math.sqrt(before * after))


class StepProbe:
    """Times one probe at the start of every closed-loop control step.

    The probe runs inside `tightnav.simulate.lane_reference`, which
    `run_closed_loop` calls once per step before it starts the step's
    decision timer, so `StepLog.solve_time` does not include it.  The
    original function is put back on exit.
    """

    def __init__(self):
        import tightnav.simulate

        self._module = tightnav.simulate
        self._original = None
        self.probes = []

    def __enter__(self):
        original = self._original = self._module.lane_reference
        probes = self.probes

        def lane_reference(*args, **kwargs):
            probes.append(probe())
            return original(*args, **kwargs)

        self._module.lane_reference = lane_reference
        return self

    def __exit__(self, *exc):
        self._module.lane_reference = self._original
        return False

    def take(self) -> list:
        """The probes recorded since the last call, and forget them."""
        out, self.probes[:] = list(self.probes), []
        return out
