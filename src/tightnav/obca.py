"""Collision-avoidance MPC with dual polytope-distance constraints.

Each control step solves a tracking NLP over the input/state horizon where
keep-out against every obstacle polytope is enforced through dual variables
(lam, mu): the pair certifies a separating hyperplane, so the constraint is
smooth and exact down to the required clearance d_min.  The strategy-guided
variant additionally pins the ego position to one side of the obstacle along
the horizon (pass-left / pass-right hyperplanes built from the critical
region); the baseline variant omits those rows and is otherwise identical.

Obstacle pairs far from the warm-start trajectory carry no decision
variables; their separation is re-certified after the solve and the pair is
promoted into the NLP if the optimizer moved the trajectory toward it.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .dynamics import VehicleInput, VehicleParams, VehicleState, rollout, step_jacobians, step_rk4
from .geometry import (
    CriticalRegion,
    GeometryError,
    Polytope,
    body_polytope,
    distance_witness,
    project_to_critical_boundary,
    strategy_halfspace,
)
from .nlp import NlpProblem, SqpOptions, solve_nlp

logger = logging.getLogger(__name__)

# Ego body in its own frame: {xi : BODY_G xi <= g} with g from body_g_vector.
BODY_G = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])

# The separating-plane multipliers never appear in the tracking cost, so the
# minimizer is non-unique along dual directions and an SQP iterate can drift
# through that flat indefinitely.  A small Tikhonov term selects the
# least-norm certificate and restores strict convexity on the dual block; the
# trajectory itself is unaffected because the clearance rows remain hard.
DUAL_REG = 1e-4


class StrategyLabel(IntEnum):
    """High-level relative behavior; the order fixes classifier indexing."""

    PASS_LEFT = 0
    PASS_RIGHT = 1
    YIELD = 2


def body_g_vector(params: VehicleParams) -> np.ndarray:
    half_l, half_w = 0.5 * params.length, 0.5 * params.width
    return np.array([half_l, half_w, half_l, half_w])


@dataclass
class EnvironmentEncoding:
    """Obstacle polytopes per horizon step; index 0 is the moving vehicle.

    steps[t][m] is obstacle m at step t.  Every step carries the same
    obstacle count (the standard scene uses 3: the target vehicle plus the
    two lane boundaries) and every polytope has exactly 4 faces so the dual
    blocks stay rectangular.
    """

    steps: list
    _faces: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.steps:
            raise ValueError("environment must cover at least one step")
        m = len(self.steps[0])
        for t, obs in enumerate(self.steps):
            if len(obs) != m:
                raise ValueError(f"step {t} has {len(obs)} obstacles, expected {m}")
            for poly in obs:
                if poly.A.shape != (4, 2):
                    raise ValueError("obstacles must be 4-face polytopes")
        if m < 1:
            raise ValueError("environment needs at least one obstacle per step")

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def n_obstacles(self) -> int:
        return len(self.steps[0])

    def obstacles(self, t: int) -> list:
        return self.steps[t]

    def face_arrays(self):
        """Every obstacle's (A, b), stacked to shapes (T, M, 4, 2) and (T, M, 4)."""
        if self._faces is None:
            self._faces = (np.array([[poly.A for poly in obs] for obs in self.steps]),
                           np.array([[poly.b for poly in obs] for obs in self.steps]))
        return self._faces

    def tv(self, t: int) -> Polytope:
        """The target-vehicle polytope at step t."""
        return self.steps[t][0]

    def window(self, start: int, count: int) -> "EnvironmentEncoding":
        """count-step slice starting at `start`, padded with the last step."""
        out = []
        for t in range(start, start + count):
            out.append(self.steps[min(t, len(self.steps) - 1)])
        return EnvironmentEncoding(out)


@dataclass
class ControllerConfig:
    horizon: int = 20
    dt: float = 0.1
    d_min: float = 0.01
    q_z: np.ndarray = field(default_factory=lambda: np.array([1.0, 1.0, 1.0, 10.0]))
    q_u: np.ndarray = field(default_factory=lambda: np.array([1.0, 1.0]))
    q_d: np.ndarray = field(default_factory=lambda: np.array([50.0, 50.0]))
    params: VehicleParams = field(default_factory=VehicleParams)
    guided: bool = True
    eps_strict: float = 1e-6  # margin making the clearance inequality strict
    engage_dist: float = 0.25  # pairs closer than this get dual variables
    reengage_margin: float = 2e-3
    max_rounds: int = 3
    sqp: SqpOptions = field(default_factory=lambda: SqpOptions(hessian="exact"))

    def __post_init__(self):
        self.q_z = np.asarray(self.q_z, float).ravel()
        self.q_u = np.asarray(self.q_u, float).ravel()
        self.q_d = np.asarray(self.q_d, float).ravel()
        if self.horizon < 1:
            raise ValueError("horizon must be at least one step")
        if self.dt <= 0 or self.d_min <= 0:
            raise ValueError("dt and d_min must be positive")
        if self.q_z.shape != (4,) or np.any(self.q_z < 0):
            raise ValueError("state weights must be 4 nonnegative entries")
        if self.q_u.shape != (2,) or np.any(self.q_u <= 0):
            raise ValueError("input weights must be 2 positive entries")
        if self.q_d.shape != (2,) or np.any(self.q_d < 0):
            raise ValueError("rate weights must be 2 nonnegative entries")
        if self.engage_dist <= self.d_min:
            raise ValueError("engage distance must exceed d_min")


@dataclass
class MpcSolution:
    """One horizon solve: states, inputs, dual certificates, diagnostics.

    lam/mu have shape (N+1, M, 4).  Engaged pairs carry the optimizer's
    duals; disengaged pairs carry an independently constructed separation
    certificate; step 0 (the measured state) is all zeros.
    """

    zs: np.ndarray
    us: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    status: str
    strategy_rows: list
    stats: dict

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def lateral_direction(strategy: StrategyLabel, psi_ref: float) -> np.ndarray:
    """Unit normal to the reference heading, toward the commanded pass side."""
    d = np.array([-math.sin(psi_ref), math.cos(psi_ref)])
    if strategy == StrategyLabel.PASS_LEFT:
        return d
    if strategy == StrategyLabel.PASS_RIGHT:
        return -d
    raise ValueError("lateral direction is defined for pass strategies only")


def generate_strategy_constraints(strategy, ref, env: EnvironmentEncoding, r_ev: float):
    """Per-step pass-side halfspaces for reference points inside the critical region.

    Returns [(t, Halfspace), ...]; steps whose reference position lies
    outside the dilated obstacle get no constraint, and projection failures
    skip the step with a warning rather than aborting the solve.
    """
    strategy = StrategyLabel(strategy)
    if strategy == StrategyLabel.YIELD:
        raise ValueError("yield is handled by the safety controller, not by constraints")
    ref = np.asarray(ref, float)
    out = []
    for t in range(min(len(ref), env.n_steps)):
        region = CriticalRegion(env.tv(t), r_ev)
        p_ref = ref[t, :2]
        if not region.contains(p_ref):
            continue
        direction = lateral_direction(strategy, float(ref[t, 2]))
        try:
            q = project_to_critical_boundary(p_ref, region, direction)
            hs = strategy_halfspace(q, region)
        except GeometryError as exc:
            logger.warning("strategy constraint skipped at step %d: %s", t, exc)
            continue
        out.append((t, hs))
    return out


def _witness_duals(obs: Polytope, z, params: VehicleParams):
    """(distance, lam, mu) from the exact pairwise distance at state z.

    The scaled multipliers satisfy the dual stationarity row exactly and put
    the clearance expression at the true distance; touching bodies fall back
    to zero duals.
    """
    body = body_polytope(z, params.length, params.width)
    try:
        res = distance_witness(obs, body)
    except GeometryError:
        return 0.0, np.zeros(4), np.zeros(4)
    if res.distance <= 1e-9:
        return res.distance, np.zeros(4), np.zeros(4)
    return res.distance, res.mult_p / res.distance, res.mult_q / res.distance


def _face_certificates(env: EnvironmentEncoding, zs, params: VehicleParams):
    """Best single-face separation certificates for every step and obstacle.

    For each state zs[t] and obstacle m of env step t, returns (vals (T, M),
    lam (T, M, 4), mu (T, M, 4)).  vals[t, m] is a lower bound on the
    body-obstacle distance: the clearance of the ego body beyond the most
    separating obstacle face.  lam picks that face, mu balances the
    stationarity row, and the normal bound holds with equality, so each
    triple is dual-feasible whenever its value is >= 0.
    """
    zs = np.asarray(zs, float)
    a_all, b_all = env.face_arrays()
    a_mat, b_vec = a_all[: len(zs)], b_all[: len(zs)]
    norms = np.linalg.norm(a_mat, axis=3)
    clear = ((a_mat @ zs[:, None, :2, None])[..., 0] - b_vec) / norms
    c, s = np.cos(zs[:, 2]), np.sin(zs[:, 2])
    rot = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
    v = (a_mat / norms[..., None]) @ rot[:, None]  # obstacle normals in the body frame
    half = np.array([0.5 * params.length, 0.5 * params.width])
    face_vals = clear - np.abs(v) @ half
    best = np.argmax(face_vals, axis=2)[..., None]
    vals = np.take_along_axis(face_vals, best, axis=2)[..., 0]
    lam = np.zeros(face_vals.shape)
    np.put_along_axis(lam, best, 1.0 / np.take_along_axis(norms, best, axis=2), axis=2)
    w2 = -np.take_along_axis(v, best[..., None], axis=2)[:, :, 0]
    mu = np.maximum(np.concatenate([w2, -w2], axis=2), 0.0)
    return vals, lam, mu


def _seed_duals(obs: Polytope, z, params: VehicleParams, face_lam, face_mu):
    """Engagement seed: witness duals, or the pair's face certificate on overlap.

    Zero duals at an overlapping pair would zero out the clearance row's
    position gradient and strand the solver; the best-face certificate
    (face_lam, face_mu from `_face_certificates`) keeps a nonzero escape
    direction in the linearization.
    """
    dist, lam, mu = _witness_duals(obs, z, params)
    if dist <= 1e-6:
        lam, mu = face_lam, face_mu
    return dist, lam, mu


def dual_warm_start(z_guess, env: EnvironmentEncoding, params: VehicleParams):
    """Witness multipliers of the exact distance for every (step, obstacle) pair.

    Returns (lam, mu) of shape (T, M, 4), feasible for the dual stationarity
    and normal-bound constraints wherever the guessed body clears the
    obstacle; overlapping pairs get zeros.
    """
    zs = np.asarray(z_guess, float)
    if len(zs) > env.n_steps:
        raise ValueError("guess is longer than the environment horizon")
    m = env.n_obstacles
    lam = np.zeros((len(zs), m, 4))
    mu = np.zeros((len(zs), m, 4))
    for t in range(len(zs)):
        for j, obs in enumerate(env.obstacles(t)):
            _, lam[t, j], mu[t, j] = _witness_duals(obs, zs[t], params)
    return lam, mu


class _StepNlp:
    """Index bookkeeping and callbacks for one horizon NLP.

    Variables: [z_1..z_N | u_0..u_{N-1} | (lam, mu) per engaged pair].
    Equalities: discretized dynamics, then dual stationarity per pair.
    Inequalities: clearance and normal-bound per pair, then strategy rows.
    """

    def __init__(self, cfg: ControllerConfig, z0, u_prev, ref, env, pairs, strat_rows):
        self.cfg = cfg
        self.z0 = z0
        self.u_prev = u_prev
        self.ref = ref
        self.pairs = pairs
        self.strat = strat_rows
        n_h = cfg.horizon
        self.nz = 4 * n_h
        self.nuv = 2 * n_h
        self.n = self.nz + self.nuv + 8 * len(pairs)
        self.obs_a = [env.obstacles(t)[m].A for t, m in pairs]
        self.obs_b = [env.obstacles(t)[m].b for t, m in pairs]
        self.g_vec = body_g_vector(cfg.params)
        # A unit dual ridge keeps the fixed quasi-Newton model from sloshing
        # multipliers around; the exact-Hessian path uses the true dual
        # curvature contributed by the regularizer.
        self.h0 = self._objective_hessian(1.0)
        self.h_lag_base = self._objective_hessian(2.0 * DUAL_REG)

    def _objective_hessian(self, dual_ridge: float) -> np.ndarray:
        """Exact objective Hessian with a chosen ridge on the dual block."""
        cfg = self.cfg
        h = np.zeros((self.n, self.n))
        for t in range(1, cfg.horizon + 1):
            sl = self.zsl(t)
            h[sl, sl] = np.diag(2.0 * cfg.q_z)
        for t in range(cfg.horizon):
            sl = self.usl(t)
            h[sl, sl] += np.diag(2.0 * cfg.q_u + 2.0 * cfg.q_d)
            if t + 1 < cfg.horizon:
                nxt = self.usl(t + 1)
                h[sl, sl] += np.diag(2.0 * cfg.q_d)
                h[sl, nxt] = np.diag(-2.0 * cfg.q_d)
                h[nxt, sl] = np.diag(-2.0 * cfg.q_d)
        base = self.nz + self.nuv
        h[base:, base:] = dual_ridge * np.eye(self.n - base)
        return h

    def lag_hess(self, x, nu, lam_rows):
        """Lagrangian Hessian: exact objective plus dual-row curvature.

        Dynamics rows are kept first-order (Gauss-Newton); their multipliers
        stay small next to the clearance and stationarity multipliers that
        carry the obstacle coupling.
        """
        n_h = self.cfg.horizon
        n_pairs = len(self.pairs)
        h = self.h_lag_base.copy()
        for j, (t, _) in enumerate(self.pairs):
            lsl, msl = self.dsl(j)
            a_mat = self.obs_a[j]
            base = self.zsl(t).start
            psl = slice(base, base + 2)
            psi_i = base + 2
            sig = float(lam_rows[j]) if j < len(lam_rows) else 0.0
            if sig:
                h[psl, lsl] -= sig * a_mat.T
                h[lsl, psl] -= sig * a_mat
            eta = float(lam_rows[n_pairs + j]) if n_pairs + j < len(lam_rows) else 0.0
            if eta:
                h[lsl, lsl] += 2.0 * eta * (a_mat @ a_mat.T)
            nu_j = nu[4 * n_h + 2 * j : 4 * n_h + 2 * j + 2]
            if len(nu_j) == 2 and (nu_j[0] != 0.0 or nu_j[1] != 0.0):
                psi = float(x[psi_i])
                c, s = math.cos(psi), math.sin(psi)
                rot_t = np.array([[c, s], [-s, c]])
                drot_t = np.array([[-s, c], [-c, -s]])
                atl = a_mat.T @ x[lsl]
                h[psi_i, psi_i] += float(nu_j @ (-rot_t @ atl))
                cross = (nu_j @ drot_t) @ a_mat.T
                h[psi_i, lsl] += cross
                h[lsl, psi_i] += cross
        return h

    def zsl(self, t: int) -> slice:
        return slice(4 * (t - 1), 4 * t)

    def usl(self, t: int) -> slice:
        return slice(self.nz + 2 * t, self.nz + 2 * t + 2)

    def dsl(self, j: int):
        base = self.nz + self.nuv + 8 * j
        return slice(base, base + 4), slice(base + 4, base + 8)

    def pack(self, zs, us, dual_map) -> np.ndarray:
        x = np.zeros(self.n)
        x[: self.nz] = np.asarray(zs, float)[1:].ravel()
        x[self.nz : self.nz + self.nuv] = np.asarray(us, float).ravel()
        for j, pair in enumerate(self.pairs):
            lsl, msl = self.dsl(j)
            lam, mu = dual_map.get(pair, (np.zeros(4), np.zeros(4)))
            x[lsl] = np.maximum(lam, 0.0)
            x[msl] = np.maximum(mu, 0.0)
        return x

    def unpack(self, x):
        n_h = self.cfg.horizon
        zs = np.vstack([self.z0[None, :], x[: self.nz].reshape(n_h, 4)])
        us = x[self.nz : self.nz + self.nuv].reshape(n_h, 2)
        duals = {}
        for j, pair in enumerate(self.pairs):
            lsl, msl = self.dsl(j)
            duals[pair] = (np.maximum(x[lsl], 0.0), np.maximum(x[msl], 0.0))
        return zs, us, duals

    def bounds(self):
        p = self.cfg.params
        lo = np.full(self.n, -np.inf)
        hi = np.full(self.n, np.inf)
        for t in range(1, self.cfg.horizon + 1):
            lo[self.zsl(t).start + 3] = p.v_min
            hi[self.zsl(t).start + 3] = p.v_max
        for t in range(self.cfg.horizon):
            sl = self.usl(t)
            lo[sl.start], hi[sl.start] = -p.delta_max, p.delta_max
            lo[sl.start + 1], hi[sl.start + 1] = -p.a_max, p.a_max
        lo[self.nz + self.nuv :] = 0.0
        return lo, hi

    def objective(self, x):
        cfg = self.cfg
        val = 0.0
        grad = np.zeros(self.n)
        for t in range(1, cfg.horizon + 1):
            sl = self.zsl(t)
            dz = x[sl] - self.ref[t]
            wz = cfg.q_z * dz
            val += float(dz @ wz)
            grad[sl] += 2.0 * wz
        prev = self.u_prev
        for t in range(cfg.horizon):
            sl = self.usl(t)
            ut = x[sl]
            wu = cfg.q_u * ut
            val += float(ut @ wu)
            grad[sl] += 2.0 * wu
            du = ut - prev
            wd = cfg.q_d * du
            val += float(du @ wd)
            grad[sl] += 2.0 * wd
            if t > 0:
                grad[self.usl(t - 1)] -= 2.0 * wd
            prev = ut
        xd = x[self.nz + self.nuv :]
        if len(xd):
            val += DUAL_REG * float(xd @ xd)
            grad[self.nz + self.nuv :] += 2.0 * DUAL_REG * xd
        return val, grad

    def eq(self, x):
        cfg = self.cfg
        n_h = cfg.horizon
        n_pairs = len(self.pairs)
        vals = np.zeros(4 * n_h + 2 * n_pairs)
        jac = np.zeros((len(vals), self.n))
        eye4 = np.eye(4)
        prev = self.z0
        for t in range(n_h):
            ut = x[self.usl(t)]
            pred = step_rk4(prev, ut, cfg.dt, cfg.params)
            jz, ju = step_jacobians(prev, ut, cfg.dt, cfg.params)
            rows = slice(4 * t, 4 * t + 4)
            z_next = x[self.zsl(t + 1)]
            vals[rows] = z_next - pred
            jac[rows, self.zsl(t + 1)] = eye4
            if t > 0:
                jac[rows, self.zsl(t)] = -jz
            jac[rows, self.usl(t)] = -ju
            prev = z_next
        for j, (t, _) in enumerate(self.pairs):
            lsl, msl = self.dsl(j)
            lam, mu = x[lsl], x[msl]
            psi = float(x[self.zsl(t).start + 2])
            c, s = math.cos(psi), math.sin(psi)
            rot_t = np.array([[c, s], [-s, c]])
            atl = self.obs_a[j].T @ lam
            rows = slice(4 * n_h + 2 * j, 4 * n_h + 2 * j + 2)
            vals[rows] = BODY_G.T @ mu + rot_t @ atl
            jac[rows, self.zsl(t).start + 2] = np.array([[-s, c], [-c, -s]]) @ atl
            jac[rows, lsl] = rot_t @ self.obs_a[j].T
            jac[rows, msl] = BODY_G.T
        return vals, jac

    def ineq(self, x):
        cfg = self.cfg
        n_pairs = len(self.pairs)
        n_rows = 2 * n_pairs + len(self.strat)
        vals = np.zeros(n_rows)
        jac = np.zeros((n_rows, self.n))
        for j, (t, _) in enumerate(self.pairs):
            lsl, msl = self.dsl(j)
            lam, mu = x[lsl], x[msl]
            psl = slice(self.zsl(t).start, self.zsl(t).start + 2)
            edge = self.obs_a[j] @ x[psl] - self.obs_b[j]
            vals[j] = cfg.d_min + cfg.eps_strict - float(edge @ lam - self.g_vec @ mu)
            jac[j, psl] = -(self.obs_a[j].T @ lam)
            jac[j, lsl] = -edge
            jac[j, msl] = self.g_vec
            atl = self.obs_a[j].T @ lam
            vals[n_pairs + j] = float(atl @ atl) - 1.0
            jac[n_pairs + j, lsl] = 2.0 * (self.obs_a[j] @ atl)
        for i, (t, hs) in enumerate(self.strat):
            row = 2 * n_pairs + i
            psl = slice(self.zsl(t).start, self.zsl(t).start + 2)
            vals[row] = hs.offset - float(hs.w @ x[psl])
            jac[row, psl] = -hs.w
        return vals, jac


class ObcaController:
    """Receding-horizon collision-avoidance controller with warm starting.

    A single instance is sequential: it keeps the previous solution for the
    one-step-shifted primal warm start.  Pass `step` so a gap in the call
    sequence (another policy drove the vehicle) falls back to a cold start.
    """

    def __init__(self, config: ControllerConfig | None = None):
        self.config = config or ControllerConfig()
        self._prev = None
        self._prev_step = None
        self.solve_log: list = []

    def reset(self) -> None:
        self._prev = None
        self._prev_step = None
        self.solve_log = []

    def _initial_guess(self, z0, step):
        cfg = self.config
        fresh = self._prev is None or (
            step is not None and self._prev_step is not None and step != self._prev_step + 1
        )
        if fresh:
            us = np.zeros((cfg.horizon, 2))
            zs = rollout(z0, us, cfg.dt, cfg.params)
            return zs, us
        prev_zs, prev_us = self._prev
        us = np.vstack([prev_us[1:], prev_us[-1:]])
        z_tail = step_rk4(prev_zs[-1], prev_us[-1], cfg.dt, cfg.params)
        zs = np.vstack([z0[None, :], prev_zs[2:], z_tail[None, :]])
        return zs, us

    def _braking_guess(self, z0):
        """Stop-as-fast-as-possible rollout; the safe fallback warm start."""
        cfg = self.config
        us = np.zeros((cfg.horizon, 2))
        zs = np.zeros((cfg.horizon + 1, 4))
        zs[0] = z0
        for t in range(cfg.horizon):
            v = float(zs[t, 3])
            us[t, 1] = float(np.clip(-v / cfg.dt, -cfg.params.a_max, cfg.params.a_max))
            zs[t + 1] = step_rk4(zs[t], us[t], cfg.dt, cfg.params)
        return zs, us

    def _reseed(self, pairs, zs_g, env):
        cfg = self.config
        _, lam_f, mu_f = _face_certificates(env, zs_g, cfg.params)
        return {
            (t, m): _seed_duals(env.obstacles(t)[m], zs_g[t], cfg.params,
                                lam_f[t, m], mu_f[t, m])[1:]
            for t, m in pairs
        }

    def _unreachable_strategy(self, z0, strat_rows) -> bool:
        """Cheap infeasibility screen: position moves at most |v| dt per step."""
        cfg = self.config
        p = cfg.params
        v_cap = max(abs(p.v_min), p.v_max)
        speed = abs(float(z0[3]))
        travel = np.zeros(cfg.horizon + 1)
        for i in range(1, cfg.horizon + 1):
            speed = min(v_cap, speed + p.a_max * cfg.dt)
            travel[i] = travel[i - 1] + speed * cfg.dt
        return any(hs.violation(z0[:2]) > travel[t] + 1e-9 for t, hs in strat_rows)

    def solve_step(self, z_k, u_prev, ref, env: EnvironmentEncoding,
                   strategy=None, step: int | None = None) -> MpcSolution:
        cfg = self.config
        n_h = cfg.horizon
        if isinstance(z_k, VehicleState):
            z_k = z_k.as_array()
        z0 = np.asarray(z_k, float).copy()
        if u_prev is None:
            u_prev = np.zeros(2)
        elif isinstance(u_prev, VehicleInput):
            u_prev = u_prev.as_array()
        u_prev = np.asarray(u_prev, float).copy()
        ref = np.asarray(ref, float)
        if ref.shape != (n_h + 1, 4):
            raise ValueError(f"reference must be ({n_h + 1}, 4), got {ref.shape}")
        if env.n_steps < n_h + 1:
            raise ValueError("environment does not cover the horizon")
        t_begin = time.perf_counter()

        strat_rows = []
        if cfg.guided and strategy is not None and StrategyLabel(strategy) != StrategyLabel.YIELD:
            strat_rows = [
                (t, hs)
                for t, hs in generate_strategy_constraints(
                    strategy, ref, env, cfg.params.covering_radius
                )
                if t >= 1
            ]

        zs_g, us_g = self._initial_guess(z0, step)
        if strat_rows and self._unreachable_strategy(z0, strat_rows):
            lam = np.zeros((n_h + 1, env.n_obstacles, 4))
            sol = MpcSolution(zs_g, us_g, lam, lam.copy(), "infeasible", strat_rows,
                              {"iterations": 0, "rounds": 0, "engaged": 0,
                               "cost": float("nan"), "precheck": True,
                               "wall_time": time.perf_counter() - t_begin})
            self._log(step, sol)
            return sol

        # A warm start that penetrates an obstacle puts the solver in a region
        # where the dual rows cannot express an escape direction; fall back to
        # a braking rollout, which is collision-free whenever the start is.
        brake_start = False
        f_g, lam_g, mu_g = _face_certificates(env, zs_g, cfg.params)
        if np.min(f_g[1:]) < 0.0:
            zs_g, us_g = self._braking_guess(z0)
            brake_start = True
            f_g, lam_g, mu_g = _face_certificates(env, zs_g, cfg.params)

        # Engage only pairs that either the warm start or the reference comes
        # close to; far pairs keep a certificate instead of decision variables.
        f_r = _face_certificates(env, ref, cfg.params)[0]
        dual_map = {}
        pairs = []
        for t, m in np.argwhere(np.minimum(f_g, f_r)[1:] < cfg.engage_dist) + (1, 0):
            t, m = int(t), int(m)
            dist, lam_w, mu_w = _seed_duals(env.obstacles(t)[m], zs_g[t], cfg.params,
                                            lam_g[t, m], mu_g[t, m])
            if dist < cfg.engage_dist or f_r[t, m] < cfg.engage_dist:
                pairs.append((t, m))
                dual_map[(t, m)] = (lam_w, mu_w)

        rounds = 0
        iters = 0
        certificates = {}
        while True:
            rounds += 1
            builder = _StepNlp(cfg, z0, u_prev, ref, env, pairs, strat_rows)
            lo, hi = builder.bounds()
            prob = NlpProblem(n=builder.n, objective=builder.objective,
                              eq=builder.eq, ineq=builder.ineq, lower=lo, upper=hi,
                              hess0=builder.h0, lag_hess=builder.lag_hess)
            sol = solve_nlp(prob, builder.pack(zs_g, us_g, dual_map), cfg.sqp)
            iters += sol.iterations
            zs, us, dual_map = builder.unpack(sol.x)
            if sol.status != "optimal":
                if brake_start or rounds > cfg.max_rounds:
                    break
                brake_start = True
                zs_g, us_g = self._braking_guess(z0)
                dual_map = self._reseed(pairs, zs_g, env)
                continue
            certificates = {}
            promote = []
            engaged = set(pairs)
            f_s, lam_s, mu_s = _face_certificates(env, zs, cfg.params)
            for t in range(1, n_h + 1):
                for m, obs in enumerate(env.obstacles(t)):
                    if (t, m) in engaged:
                        continue
                    if f_s[t, m] >= cfg.d_min + cfg.reengage_margin:
                        certificates[(t, m)] = (lam_s[t, m], mu_s[t, m])
                        continue
                    dist, lam_w, mu_w = _seed_duals(obs, zs[t], cfg.params,
                                                    lam_s[t, m], mu_s[t, m])
                    certificates[(t, m)] = (lam_w, mu_w)
                    if dist < cfg.d_min + cfg.reengage_margin:
                        promote.append((t, m))
                        dual_map[(t, m)] = (lam_w, mu_w)
            if not promote or rounds >= cfg.max_rounds:
                break
            logger.debug("re-engaging %d obstacle pairs", len(promote))
            pairs = sorted(pairs + promote)
            # Warm-start the enlarged problem from the current optimum.  Even
            # when it grazes a promoted obstacle the seeded face certificate
            # carries an escape gradient, and the braking fallback above still
            # covers the case where that round fails outright.
            zs_g, us_g = zs, us
            brake_start = False

        m_obs = env.n_obstacles
        lam = np.zeros((n_h + 1, m_obs, 4))
        mu = np.zeros((n_h + 1, m_obs, 4))
        if sol.status == "optimal":
            for (t, m), (lam_c, mu_c) in certificates.items():
                lam[t, m], mu[t, m] = lam_c, mu_c
        for (t, m), (lam_e, mu_e) in dual_map.items():
            lam[t, m], mu[t, m] = lam_e, mu_e

        result = MpcSolution(
            zs=zs, us=us, lam=lam, mu=mu, status=sol.status, strategy_rows=strat_rows,
            stats={"iterations": iters, "rounds": rounds, "engaged": len(pairs),
                   "cost": sol.objective, "kkt": sol.kkt_residual,
                   "feas": sol.feas_residual, "precheck": False,
                   "wall_time": time.perf_counter() - t_begin},
        )
        if result.ok:
            self._prev = (zs, us)
            self._prev_step = step
        self._log(step, result)
        return result

    def _log(self, step, sol: MpcSolution) -> None:
        self.solve_log.append({
            "step": step,
            "status": sol.status,
            "iterations": sol.stats.get("iterations", 0),
            "cost": sol.stats.get("cost"),
            "engaged": sol.stats.get("engaged", 0),
            "strategy_steps": [t for t, _ in sol.strategy_rows],
        })
