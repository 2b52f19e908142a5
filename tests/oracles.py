"""Retired per-stage routines, kept as oracles for their batched replacements.

`project_one` bisects a single ray with the scalar `point_polytope_distance`,
and `strategy_constraints_per_stage` screens, projects and builds the
halfspace of one horizon stage at a time.  `geometry.project_to_critical_boundary`
and `obca.generate_strategy_constraints` must return the same bits.
"""

import math

import numpy as np

from tightnav.geometry import (
    BRACKET_HINT,
    PROJECTION_TOL,
    CriticalRegion,
    GeometryError,
    point_polytope_distance,
    strategy_halfspace,
)
from tightnav.obca import StrategyLabel


def project_one(p_ref, region: CriticalRegion, direction) -> np.ndarray:
    """Smallest t >= 0 with dist(p_ref + t*d, base) = radius, via bisection.

    p_ref must lie inside the region.  The initial bracket upper end is
    4*radius + BRACKET_HINT (a lane width at desk scale) and grows
    geometrically until the boundary crossing is bracketed; bisection stops
    once the bracket is narrower than PROJECTION_TOL.
    """
    p_ref = np.asarray(p_ref, dtype=float)
    d = np.asarray(direction, dtype=float)
    nd = np.linalg.norm(d)
    if nd < 1e-12:
        raise GeometryError("projection direction must be nonzero")
    d = d / nd

    def g(t):
        return point_polytope_distance(p_ref + t * d, region.base) - region.radius

    if g(0.0) > PROJECTION_TOL:
        raise GeometryError("reference point is outside the critical region")
    t_hi = 4.0 * region.radius + BRACKET_HINT
    expansions = 0
    while g(t_hi) <= 0.0:
        t_hi *= 2.0
        expansions += 1
        if expansions > 40:
            raise GeometryError("no boundary crossing along projection ray")
    t_lo = 0.0
    while t_hi - t_lo > PROJECTION_TOL:
        mid = 0.5 * (t_lo + t_hi)
        if g(mid) <= 0.0:
            t_lo = mid
        else:
            t_hi = mid
    return p_ref + 0.5 * (t_lo + t_hi) * d


def strategy_constraints_per_stage(strategy, ref, env, r_ev: float):
    """[(t, Halfspace), ...] for a pass strategy, one stage at a time."""
    strategy = StrategyLabel(strategy)
    ref = np.asarray(ref, float)
    out = []
    for t in range(min(len(ref), env.n_steps)):
        region = CriticalRegion(env.tv(t), r_ev)
        p_ref = ref[t, :2]
        if not point_polytope_distance(p_ref, region.base) <= region.radius + 1e-9:
            continue
        psi = float(ref[t, 2])
        direction = np.array([-math.sin(psi), math.cos(psi)])
        if strategy == StrategyLabel.PASS_RIGHT:
            direction = -direction
        try:
            q = project_one(p_ref, region, direction)
            hs = strategy_halfspace(q, region)
        except GeometryError:
            continue
        out.append((t, hs))
    return out
