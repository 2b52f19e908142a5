"""Collision-avoidance MPC with dual polytope-distance constraints.

Each control step solves a tracking NLP over the input/state horizon where
keep-out against every obstacle polytope is enforced through dual variables
(lam, mu): the pair certifies a separating hyperplane, so the constraint is
smooth and exact down to the required clearance d_min.  The strategy-guided
variant additionally pins the ego position to one side of the obstacle along
the horizon (pass-left / pass-right hyperplanes built from the critical
region); the baseline variant omits those rows and is otherwise identical.

Obstacle pairs far from the warm-start trajectory and the reference carry
no decision variables, and a step solves one NLP over the pairs that
either brings within `ENGAGE_DIST`.  The applied input needs no other
pair.  A pair is left out only when the guess's stage 1 is at least
`ENGAGE_DIST` from it, and both the guess's and the solution's stage 1
are one RK4 step from the measured state under an admissible input (a
shifted plan's to the solver's feasibility tolerance).  Between two such
inputs no point of the body moves farther than |dp| + r |dpsi|, r the
body's covering radius: on a grid of inputs, 0.234 m at 1.9 m/s, below
`ENGAGE_DIST` - d_min at the default d_min.  So the solved stage 1 keeps
its clearance from every pair left out, and the later stages are planned
again at the next step.  The index layout that depends on the horizon
alone is built once per controller.

A step evaluates only what it reads.  The certificate pass returns each
pair's value with its best face and body-frame normals, and a pair's dual
certificate is formed from those only where it seeds an engaged pair at
contact.  The NLP's rows evaluate without their Jacobians when the solver
asks for values alone (its first KKT test at the warm start, see
`tightnav.nlp`), so a step whose warm start is already optimal, the
commonest step when no vehicle is close, builds no dynamics Jacobian.
The Lagrangian Hessian goes to the solver as the stacks of its stage
blocks, so no n x n matrix is formed before the condensed QP's, and the
dynamics rows go as the step Jacobians' stacks (A_t, B_t) of the NLP's
stage shape (`NlpProblem.stages`), so no dense dynamics row is formed.

A solve that does not end optimal ends the step: the controller returns
its status and retries nothing, and the supervisor falls back to its
conservative policies.

Consecutive control steps warm-start each other three times over: the
previous plan, shifted one stage, is the primal initial guess; the
previous solve's final QP working set, shifted the same way, seeds the
first SQP subproblem; and each pair that solve engaged, shifted the same
way, starts from its solved duals (lam, mu) when the new NLP engages it
too.  The working set travels as stage-independent row identities
(`_StepNlp.row_keys`), because row numbers depend on which pairs are
engaged and which stages carry strategy rows, and the duals by pair, so
one shift moves both.  The shift keeps every time absolute: stage t + 1
of step k and stage t of step k + 1 are the same instant, the shifted
plan puts the same pose there, and the step's obstacle window gives that
instant the same obstacle.  So a persisting pair's solved duals still
certify the clearance of that pose from that obstacle, and they agree
with the hinted dual bounds, which the geometric seed of `_seed_duals`
need not.  New pairs, and every pair after a cold start, take the seed.
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
import weakref
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .dynamics import (
    A_MAX,
    COVERING_RADIUS,
    DELTA_MAX,
    DT,
    LENGTH,
    V_MAX,
    V_MIN,
    WIDTH,
    rollout,
    step_jacobians,
    step_rk4,
)
from .geometry import (
    Polytope,
    body_polytope,
    distance_witness,
    point_polytope_distances,
    project_to_critical_boundary,
    strategy_halfspaces,
)
from .nlp import NlpProblem, solve_nlp
from .qp import bound_rows

# Ego body in its own frame: {xi : BODY_G xi <= BODY_H}, BODY_H the car's
# half-length and half-width, each twice.
BODY_G = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
BODY_H = np.array([0.5 * LENGTH, 0.5 * WIDTH, 0.5 * LENGTH, 0.5 * WIDTH])

# Tracking weights of the MPC cost: state error, input, and input rate.
Q_Z = np.array([1.0, 1.0, 1.0, 10.0])
Q_U = np.array([1.0, 1.0])
Q_D = np.array([50.0, 50.0])

# The separating-plane multipliers never appear in the tracking cost, so the
# minimizer is non-unique along dual directions and an SQP iterate can drift
# through that flat indefinitely.  A small Tikhonov term selects the
# least-norm certificate and restores strict convexity on the dual block; the
# trajectory itself is unaffected because the clearance rows remain hard.
DUAL_REG = 1e-4

# Margin that makes the clearance inequality strict.
EPS_STRICT = 1e-6
# Pairs that the warm start or the reference brings closer than this get
# dual variables; farther pairs get none.
ENGAGE_DIST = 0.25


class StrategyLabel(IntEnum):
    """High-level relative behavior; the order fixes classifier indexing."""

    PASS_LEFT = 0
    PASS_RIGHT = 1
    YIELD = 2


@dataclass
class EnvironmentEncoding:
    """Obstacle timeline: polytopes per step; index 0 is the moving vehicle.

    steps[t][m] is obstacle m at step t.  Every step carries the same
    obstacle count (the standard scene uses 3: the target vehicle plus the
    two lane boundaries) and every polytope has exactly 4 faces so the dual
    blocks stay rectangular.  Past its last step the timeline holds that
    step: `obstacles`, `tv` and `window` clamp t, the encoding's only padding.
    They raise ValueError for a negative step, and `window` for a count
    below 1.
    Every obstacle's data is stacked once: `faces`, its (A, b) to shapes
    (T, M, 4, 2) and (T, M, 4); `vertices` (T, M, V, 2); and the face
    normals' `norms` (T, M, 4) and `unit_normals` A / norms (T, M, 4, 2).  A
    window indexes its parent's stacks.
    """

    steps: list
    faces: tuple = field(init=False, repr=False, compare=False)
    vertices: np.ndarray = field(init=False, repr=False, compare=False)
    norms: np.ndarray = field(init=False, repr=False, compare=False)
    unit_normals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.steps or not self.steps[0]:
            raise ValueError("environment needs at least one step and one obstacle per step")
        # numpy raises ValueError on steps of ragged obstacle, face or
        # vertex counts.
        a_all = np.array([[poly.A for poly in obs] for obs in self.steps])
        if a_all.shape[2:] != (4, 2):
            raise ValueError("obstacles must be 4-face polytopes")
        self.faces = (a_all, np.array([[poly.b for poly in obs] for obs in self.steps]))
        self.vertices = np.array([[poly.vertices for poly in obs] for obs in self.steps])
        self.norms = np.linalg.norm(a_all, axis=3)
        self.unit_normals = a_all / self.norms[..., None]

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def n_obstacles(self) -> int:
        return len(self.steps[0])

    def obstacles(self, t: int) -> list:
        if t < 0:
            raise ValueError(f"step {t} is negative")
        return self.steps[min(t, len(self.steps) - 1)]

    def tv(self, t: int) -> Polytope:
        """The target-vehicle polytope at step t."""
        return self.obstacles(t)[0]

    def window(self, start: int, count: int) -> "EnvironmentEncoding":
        """count steps from `start`, each clamped to the last step."""
        if start < 0 or count < 1:
            raise ValueError(f"window of {count} steps from step {start}")
        index = np.minimum(np.arange(start, start + count), len(self.steps) - 1)
        win = copy.copy(self)
        win.steps = [self.steps[t] for t in index.tolist()]
        win.faces = tuple(stack[index] for stack in self.faces)
        win.vertices, win.norms, win.unit_normals = (
            stack[index] for stack in (self.vertices, self.norms, self.unit_normals))
        return win


@dataclass
class ControllerConfig:
    """The settable values of the whole control stack: the MPC's horizon
    and the clearance floor d_min.

    Passing a strategy to `solve_step` adds its rows.  The supervisor's
    safety controller and anticipation read d_min from here too, and the
    reference speed from the `Scenario`.  The car is the `dynamics`
    constants, the time step `dynamics.DT`, the tracking weights this
    module's `Q_Z`, `Q_U` and `Q_D`, and every other tuning value a module
    constant.
    """

    horizon: int = 20
    d_min: float = 0.01

    def __post_init__(self):
        # A bool is an int, and a NaN floor fails every comparison, which
        # would switch collision anticipation off without an error.
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, numbers.Integral):
            raise ValueError(f"horizon must be an integer, got {self.horizon!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be at least one step")
        if not math.isfinite(self.d_min):
            raise ValueError(f"d_min must be finite, got {self.d_min!r}")
        if self.d_min <= 0:
            raise ValueError("d_min must be positive")
        if ENGAGE_DIST <= self.d_min:
            raise ValueError(f"d_min must be below the engage distance {ENGAGE_DIST}")


@dataclass
class MpcSolution:
    """One horizon solve: the plan, its status and counters.

    zs has shape (N+1, 4) with zs[0] the measured state, us has shape (N, 2).
    stats holds "iterations" (the NLP's SQP iterations), "rounds" (NLPs
    solved, always 1), "engaged" (obstacle pairs in the NLP) and "cost".
    """

    zs: np.ndarray
    us: np.ndarray
    status: str
    stats: dict

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def lateral_direction(strategy: StrategyLabel, psi_ref: float) -> np.ndarray:
    """Unit normal to the reference heading, toward the commanded pass side.

    (-sin, cos) is divided by its computed norm, which rounding leaves one
    ulp off 1 for about a quarter of headings.
    """
    d = np.array([-math.sin(psi_ref), math.cos(psi_ref)])
    d /= np.linalg.norm(d)
    if strategy == StrategyLabel.PASS_LEFT:
        return d
    if strategy == StrategyLabel.PASS_RIGHT:
        return -d
    raise ValueError("lateral direction is defined for pass strategies only")


def generate_strategy_constraints(strategy, ref, env: EnvironmentEncoding, r_ev: float):
    """Per-step pass-side halfspaces for reference points inside the critical region.

    Stage t's critical region is the TV polytope env.tv(t) dilated by r_ev;
    every reference stage is screened, past the timeline's end against its
    last step.  The encoding's stacks give the horizon's TV polygons.  One
    batched distance screens every stage's reference position; one batched
    exit takes the positions inside their region along the pass-side
    direction to the region's boundary, and one batched support gives each
    boundary point its halfspace w . p >= offset.  Returns the rows as
    (stages (S,), w (S, 2), offset (S,)); stages whose reference position
    lies outside the region get no row.  Raises GeometryError as
    `strategy_halfspaces` does, which an r_ev well above 1e-9 rules out:
    every boundary point lies r_ev outside its polygon.
    """
    strategy = StrategyLabel(strategy)
    if strategy == StrategyLabel.YIELD:
        raise ValueError("yield is handled by the safety controller, not by constraints")
    ref = np.asarray(ref, float)
    n = len(ref)
    if env.n_steps < n:
        env = env.window(0, n)
    verts = env.vertices[:n, 0]
    A, b = (faces[:n, 0] for faces in env.faces)
    p_ref = ref[:, :2]
    dist = point_polytope_distances(p_ref, verts, A, b)
    stages = np.flatnonzero(dist <= r_ev + 1e-9)
    if not len(stages):
        return stages, np.empty((0, 2)), np.empty(0)
    verts, A, b = verts[stages], A[stages], b[stages]
    dirs = np.array([lateral_direction(strategy, float(ref[t, 2])) for t in stages])
    qs = project_to_critical_boundary(p_ref[stages], dirs, verts, A, b, r_ev, dist[stages])
    return (stages, *strategy_halfspaces(qs, verts, A, b))


def _face_certificates(env: EnvironmentEncoding, zs):
    """Best single-face separation certificates for every step and obstacle.

    For each state zs[t] and obstacle m of env step t, returns (vals (T, M),
    best (T, M), normals (T, M, 4, 2)).  vals[t, m] is a lower bound on the
    body-obstacle distance: the clearance of the ego body beyond the most
    separating obstacle face, best[t, m].  normals[t, m] holds that
    obstacle's unit face normals in the body frame at zs[t], which with
    `best` is all the pair's dual certificate needs (`_certificate`); only
    a pair at contact reads one (`_seed_duals`), so no (lam, mu) is formed
    here.  Trajectories stacked as zs (S, T, 4) get results of shape
    (S, T, ...), with the bits of one call per trajectory.  The face norms
    come from the encoding.

    vals is 1-Lipschitz in position and r-Lipschitz in heading, r the
    body's covering radius, so vals(z') >= vals(z) - (|dp| + r |dpsi|).  A
    face's value is the position's distance beyond the face (1-Lipschitz)
    less the body's extent |v| . h along the face's unit normal v in the
    body frame, h = BODY_H[:2]; v turns at the heading's rate, so the extent
    changes by at most |h| = r per radian, and the maximum over faces keeps
    the bound.
    """
    zs = np.asarray(zs, float)
    n = zs.shape[-2]
    a_mat, b_vec = (faces[:n] for faces in env.faces)
    clear = ((a_mat @ zs[..., None, :2, None])[..., 0] - b_vec) / env.norms[:n]
    c, s = np.cos(zs[..., 2]), np.sin(zs[..., 2])
    rot = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    normals = env.unit_normals[:n] @ rot[..., None, :, :]
    face_vals = clear - np.abs(normals) @ BODY_H[:2]
    best = np.argmax(face_vals, axis=-1)
    vals = np.take_along_axis(face_vals, best[..., None], axis=-1)[..., 0]
    return vals, best, normals


def _certificate(norms, face, normals):
    """(lam (4,), mu (4,)): the dual certificate of one pair's best face.

    norms (4,) are the obstacle's face norms, face the best face and
    normals (4, 2) the unit face normals in the body frame, that pair's
    entries of `_face_certificates`.  lam picks the face, scaled so the
    normal bound holds with equality, and mu balances the stationarity
    row, so the pair is dual-feasible whenever its value is >= 0.
    """
    lam = np.zeros(4)
    lam[face] = 1.0 / norms[face]
    w2 = -normals[face]
    return lam, np.maximum(np.concatenate([w2, -w2]), 0.0)


def _seed_duals(env: EnvironmentEncoding, t: int, m: int, z, faces):
    """(distance, lam, mu): the engagement seed of pair (t, m) at state z.

    Every candidate pair of a step is measured here, since the distance
    decides its engagement; the duals start the NLP only for a pair the
    previous step did not carry (a new pair, a cold start, a gap; see
    `ObcaController`).

    Apart, the exact pairwise distance's scaled multipliers: they satisfy
    the dual stationarity row exactly and put the clearance expression at
    the true distance.  At a distance of 1e-6 or less, the pair's best-face
    certificate (`_certificate` of faces = (best, normals), the tail of the
    trajectory's `_face_certificates`), because the witness multipliers
    vanish at contact, and zero duals would zero out the clearance row's
    position gradient and strand the solver; the certificate keeps a
    nonzero escape direction in the linearization.
    """
    res = distance_witness(env.obstacles(t)[m], body_polytope(z, LENGTH, WIDTH))
    if res.distance <= 1e-6:
        best, normals = faces
        return (res.distance, *_certificate(env.norms[t, m], best[t, m], normals[t, m]))
    return res.distance, res.mult_p / res.distance, res.mult_q / res.distance


def _rotations_t(psi):
    """(R', dR'/dpsi), each (P, 2, 2), of the body rotations at headings psi."""
    c, s = np.cos(psi), np.sin(psi)
    rot_t = np.empty((len(psi), 2, 2))
    drot_t = np.empty((len(psi), 2, 2))
    rot_t[:, 0, 0] = rot_t[:, 1, 1] = drot_t[:, 0, 1] = c
    rot_t[:, 0, 1] = s
    rot_t[:, 1, 0] = drot_t[:, 0, 0] = drot_t[:, 1, 1] = -s
    drot_t[:, 1, 0] = -c
    return rot_t, drot_t


def _rowdot(a, b):
    """Dot product of each row of a (P, k) with b (P, k) or (k,).

    A stacked matmul rounds each row exactly as `a[p] @ b[p]` does, which
    an einsum does not.
    """
    return (a[:, None, :] @ np.broadcast_to(b, a.shape)[:, :, None])[:, 0, 0]


def _shift_keys(keys: list) -> list:
    """Row keys (see `_StepNlp`) moved one stage earlier, for the next step.

    Keys that leave the horizon get a stage no NLP has and are dropped when
    translated back to rows.
    """
    return [(kind, t - 1, m, c) for kind, t, m, c in keys]


def _bound_keys(var, lo, hi) -> list:
    """The keys of the finite bounds lo <= x <= hi in `qp.bound_rows` order,
    where var[i] is ("z_" | "u_" | "dual_", t, m, c) for variable i."""
    b_var, b_sign, _ = bound_rows(lo, hi)
    return [(var[v][0] + ("lo" if sign < 0 else "hi"), *var[v][1:])
            for v, sign in zip(b_var.tolist(), b_sign.tolist())]


class _HorizonLayout:
    """The part of a step NLP that depends on the horizon only, built once
    per controller: the variable counts `nz` and `nuv`, the Hessian block
    labels, objective curvature and bounds of z and u, and the keys of
    those bounds' rows (see `_StepNlp`).  The dynamics rows need no index
    arrays: they travel as their stage blocks (`_StepNlp.dynamics`).
    """

    def __init__(self, cfg: ControllerConfig):
        n_h = cfg.horizon
        self.nz = nz = 4 * n_h
        self.nuv = nuv = 2 * n_h
        self.hess_blocks = np.concatenate([np.repeat(np.arange(n_h), 4), np.full(nuv, n_h)])
        # The objective Hessian's diagonal on z and u (the input block's
        # every stage but the last carries two rate terms), and the rate
        # terms' entries coupling u_t to u_{t+1}.
        diag = np.empty(nz + nuv)
        diag[:nz] = np.tile(2.0 * Q_Z, n_h)
        diag[nz:] = np.tile(2.0 * Q_U + 2.0 * Q_D, n_h)
        diag[nz:-2] += np.tile(2.0 * Q_D, n_h - 1)
        self.obj_diag = diag
        self.obj_rate = np.tile(-2.0 * Q_D, n_h - 1)
        lo = np.full(nz + nuv, -np.inf)
        hi = np.full(nz + nuv, np.inf)
        lo[3:nz:4] = V_MIN
        hi[3:nz:4] = V_MAX
        lo[nz:] = np.tile([-DELTA_MAX, -A_MAX], n_h)
        hi[nz:] = np.tile([DELTA_MAX, A_MAX], n_h)
        self.lower, self.upper = lo, hi
        var = [("z_", t, -1, c) for t in range(1, n_h + 1) for c in range(4)]
        var += [("u_", t, -1, c) for t in range(n_h) for c in range(2)]
        self.bound_keys = _bound_keys(var, lo, hi)


class _StepNlp:
    """Index bookkeeping and callbacks for one horizon NLP.

    Variables: [z_1..z_N | u_0..u_{N-1} | (lam, mu) per engaged pair].
    Equalities: discretized dynamics, then dual stationarity per pair.  The
    horizon is the NLP's stage shape (N, 4, 2) (`NlpProblem.stages`), so
    the solver condenses z out of every subproblem: `dynamics` returns the
    dynamics rows' residuals and the step Jacobians' stacks (A_t, B_t),
    and `eq` the stationarity rows alone, as dense rows.
    Inequalities: clearance and normal-bound per pair, then strategy rows.
    The Lagrangian Hessian is block diagonal, and `hess_blocks` labels its
    blocks: one per stage t, holding z_t and the duals of the pairs at t
    (4 + 8 p_t variables), and one holding every input.  `lag_hess`
    returns those blocks' stacks (`NlpProblem`) and never forms the n x n
    matrix; it and `eq` copy a template built on first use and write the
    entries that depend on x through flat indices (`_hess_tables`,
    `_eq_tables`).  `problem` is the NLP as the solver takes it, and its
    `blocks`, the grouping of `hess_blocks`, is the one `_hess_tables`
    lays its stacks out by, so a solve groups the labels once.

    `row_keys` and `key_rows` translate between the solver's inequality-row
    numbers (see `tightnav.nlp`) and row identities that do not depend on
    the engaged pairs or the strategy rows.  A key is (kind, t, m, c):

        ("clear" | "normal", t, m, 0)      clearance / normal-bound row of pair (t, m)
        ("strat", t, -1, 0)                strategy row at stage t
        ("z_lo" | "z_hi", t, -1, c)        bound on z_t[c]
        ("u_lo" | "u_hi", t, -1, c)        bound on u_t[c]
        ("dual_lo" | "dual_hi", t, m, c)   bound on dual component c of pair (t, m)

    where dual components 0-3 are lam and 4-7 are mu.  Both read one table,
    built the first time a non-empty row set or key list needs it: every
    row's key in the solver's order, and each key's row.

    The parts that depend on the horizon alone come from `layout`,
    the controller's `_HorizonLayout`.
    """

    def __init__(self, cfg: ControllerConfig, z0, u_prev, ref, env, pairs, strat,
                 layout: _HorizonLayout):
        self.cfg = cfg
        self.z0 = z0
        self.u_prev = u_prev
        self.ref = ref
        self.pairs = pairs
        self.strat_stages, self.strat_w, self.strat_offset = strat
        self.layout = layout
        self.nz = layout.nz
        self.nuv = layout.nuv
        self.n = self.nz + self.nuv + 8 * len(pairs)
        # Stacked per-pair data and the columns each pair's rows touch.
        t_pair = np.array([t for t, _ in pairs], dtype=int)
        m_pair = np.array([m for _, m in pairs], dtype=int)
        a_all, b_all = env.faces
        self.obs_a = a_all[t_pair, m_pair]  # (P, 4, 2)
        self.obs_b = b_all[t_pair, m_pair]  # (P, 4)
        self.pos_cols = 4 * (t_pair[:, None] - 1) + np.arange(2)  # (P, 2)
        self.psi_cols = 4 * (t_pair - 1) + 2  # (P,)
        self.lam_cols = self.nz + self.nuv + 8 * np.arange(len(pairs))[:, None] + np.arange(4)
        self.mu_cols = self.lam_cols + 4
        self.strat_cols = 4 * (self.strat_stages[:, None] - 1) + np.arange(2)  # (S, 2)
        self.hess_blocks = np.concatenate([layout.hess_blocks, np.repeat(t_pair - 1, 8)])
        self._table = None
        self._problem = lambda: None

    @property
    def problem(self) -> NlpProblem:
        """The NLP as `solve_nlp` takes it, bounds included: one problem
        while any caller holds it.  The problem's callbacks hold this
        builder, so it is held weakly here; a strong reference back would
        keep both, with their tables, alive until the cyclic collector ran
        (up to 47 builders during one `overtake-top5-s9008` run)."""
        prob = self._problem()
        if prob is None:
            lo, hi = self.bounds()
            prob = NlpProblem(n=self.n, objective=self.objective, lag_hess=self.lag_hess,
                              eq=self.eq, ineq=self.ineq, lower=lo, upper=hi,
                              stages=(self.cfg.horizon, 4, 2), dynamics=self.dynamics,
                              hess_blocks=self.hess_blocks)
            self._problem = weakref.ref(prob)
        return prob

    @functools.cached_property
    def _hess_tables(self):
        """(template, shapes, index) of `lag_hess`'s stacks, built on first
        use: a solve that converges at its initial guess never reads them.

        The stacks of `problem.blocks`, the grouping of `hess_blocks`, lie
        one after another in one flat buffer; shapes holds each one's
        (offset, blocks, size).  The template holds the exact objective Hessian there: Q_Z on z, the
        input block tridiagonal by stage (the layout's `obj_diag` and
        `obj_rate`), and the regularizer's ridge on the duals.  index holds
        the flat positions of the pairs' entries: (pos, lam), (lam, pos),
        (lam, lam), (psi, psi), (psi, lam) and (lam, psi).
        """
        layout = self.layout
        # Variable i's block starts at base[i] in the buffer, and i is row
        # and column place[i] of it, a block of size[i] squared entries.
        base = np.empty(self.n, dtype=int)
        place = np.empty(self.n, dtype=int)
        size = np.empty(self.n, dtype=int)
        shapes = []
        offset = 0
        for ix in self.problem.blocks:
            blocks, width = ix.shape
            base[ix] = offset + width * width * np.arange(blocks)[:, None]
            place[ix] = np.arange(width)
            size[ix] = width
            shapes.append((offset, blocks, width))
            offset += blocks * width * width
        template = np.zeros(offset)
        template[base + place * (size + 1)] = np.concatenate(
            [layout.obj_diag, np.full(self.n - self.nz - self.nuv, 2.0 * DUAL_REG)])
        # The inputs form one block in ascending order, so u_{t+1}'s
        # entries sit 2 places after u_t's.
        u = np.arange(self.nz, self.nz + self.nuv - 2)
        at = base[u] + place[u] * (size[u] + 1)
        template[at + 2] = template[at + 2 * size[u]] = layout.obj_rate
        # z_t leads its block, so a pair's position and heading are places
        # 0, 1 and 2 of its stage's block.
        b = base[self.psi_cols][:, None]
        w = size[self.psi_cols][:, None]
        lam = place[self.lam_cols]
        index = (b[:, None] + np.arange(2)[:, None] * w[:, None] + lam[:, None, :],
                 b[:, None] + lam[:, :, None] * w[:, None] + np.arange(2),
                 b[:, None] + lam[:, :, None] * w[:, None] + lam[:, None, :],
                 b[:, 0] + 2 * w[:, 0] + 2, b + 2 * w + lam, b + lam * w + 2)
        return template, shapes, index

    def lag_hess(self, x, nu, lam_rows):
        """Lagrangian Hessian as the stacks of its `hess_blocks` (see
        `NlpProblem`): exact objective plus dual-row curvature, written
        into a copy of the objective's template through flat indices.

        Dynamics rows are kept first-order (Gauss-Newton): their curvature
        is dropped, though their multipliers are not small.  Over the 421
        Hessians with engaged pairs in one `interaction_bl` benchmark pass,
        the largest |nu| on a dynamics row has a median of 73 (at most
        141), against 74 for the largest clearance multiplier and 13 for
        the largest |nu| on a stationarity row.
        """
        template, shapes, index = self._hess_tables
        h = template.copy()
        n_pairs = len(self.pairs)
        if n_pairs:
            pos_lam, lam_pos, lam_lam, psi_psi, psi_lam, lam_psi = index
            a_mat = self.obs_a
            a_t = a_mat.transpose(0, 2, 1)
            sig = lam_rows[:n_pairs, None, None]
            h[pos_lam] -= sig * a_t
            h[lam_pos] -= sig * a_mat
            eta = lam_rows[n_pairs : 2 * n_pairs, None, None]
            h[lam_lam] += 2.0 * eta * (a_mat @ a_t)
            nu_p = nu[self.nz :].reshape(n_pairs, 1, 2)
            rot_t, drot_t = _rotations_t(x[self.psi_cols])
            atl = a_t @ x[self.lam_cols][:, :, None]
            # Pairs at one stage share psi's diagonal entry, so it accumulates.
            np.add.at(h, psi_psi, (nu_p @ -(rot_t @ atl))[:, 0, 0])
            cross = ((nu_p @ drot_t) @ a_t)[:, 0]
            h[psi_lam] += cross
            h[lam_psi] += cross
        return [h[o : o + b * w * w].reshape(b, w, w) for o, b, w in shapes]

    def pack(self, zs, us, dual_map) -> np.ndarray:
        x = np.zeros(self.n)
        x[: self.nz] = np.asarray(zs, float)[1:].ravel()
        x[self.nz : self.nz + self.nuv] = np.asarray(us, float).ravel()
        for j, pair in enumerate(self.pairs):
            lam, mu = dual_map.get(pair, (np.zeros(4), np.zeros(4)))
            x[self.lam_cols[j]] = np.maximum(lam, 0.0)
            x[self.mu_cols[j]] = np.maximum(mu, 0.0)
        return x

    def duals(self, x) -> dict:
        """{(t, m): (lam, mu)} of every engaged pair at x."""
        return {pair: (x[lam], x[mu])
                for pair, lam, mu in zip(self.pairs, self.lam_cols, self.mu_cols)}

    def unpack(self, x):
        n_h = self.cfg.horizon
        zs = np.vstack([self.z0[None, :], x[: self.nz].reshape(n_h, 4)])
        us = x[self.nz : self.nz + self.nuv].reshape(n_h, 2)
        return zs, us

    def bounds(self):
        """(lo, hi): speed bounds on every z_t, actuator bounds on every u_t,
        nonnegative duals."""
        n_dual = self.n - self.nz - self.nuv
        return (np.concatenate([self.layout.lower, np.zeros(n_dual)]),
                np.concatenate([self.layout.upper, np.full(n_dual, np.inf)]))

    def _row_table(self):
        """(keys, rows): every inequality row's key in the solver's order,
        and the row number of each key.  The bound rows follow the rows of
        `ineq` in the one order of `qp.bound_rows`, variable by variable,
        which the QP numbers its rows by too: the layout's z and u bounds,
        then the duals' bounds."""
        if self._table is None:
            lo, hi = self.bounds()
            d = self.nz + self.nuv
            dual = [("dual_", t, m, c) for t, m in self.pairs for c in range(8)]
            keys = ([("clear", t, m, 0) for t, m in self.pairs]
                    + [("normal", t, m, 0) for t, m in self.pairs]
                    + [("strat", t, -1, 0) for t in self.strat_stages.tolist()]
                    + self.layout.bound_keys
                    + _bound_keys(dual, lo[d:], hi[d:]))
            self._table = (keys, {key: r for r, key in enumerate(keys)})
        return self._table

    def row_keys(self, rows) -> list:
        """The identity of each inequality row number in `rows`."""
        if not len(rows):
            return []
        keys = self._row_table()[0]
        return [keys[int(r)] for r in rows]

    def key_rows(self, keys) -> np.ndarray | None:
        """Row numbers of the keys this NLP has, in key order; None for None.

        Keys of stages outside the horizon, of pairs that are not engaged and
        of stages without a strategy row name no row here and are dropped.
        """
        if keys is None:
            return None
        if not keys:
            return np.empty(0, dtype=int)
        rows = self._row_table()[1]
        return np.array([rows[key] for key in keys if key in rows], dtype=int)

    def objective(self, x):
        n_h = self.cfg.horizon
        dz = x[: self.nz].reshape(n_h, 4) - self.ref[1:]
        us = x[self.nz : self.nz + self.nuv].reshape(n_h, 2)
        du = us - np.vstack([self.u_prev[None, :], us[:-1]])
        xd = x[self.nz + self.nuv :]
        wz, wu, wd = Q_Z * dz, Q_U * us, Q_D * du
        val = np.vdot(dz, wz) + np.vdot(us, wu) + np.vdot(du, wd) + DUAL_REG * np.vdot(xd, xd)
        grad_u = 2.0 * wu + 2.0 * wd
        grad_u[:-1] -= 2.0 * wd[1:]
        grad = np.concatenate([2.0 * wz.ravel(), grad_u.ravel(), 2.0 * DUAL_REG * xd])
        return float(val), grad

    @functools.cached_property
    def _eq_tables(self):
        """(template, index) of `eq`'s Jacobian, built on first use.  The
        template holds the entries that do not depend on x, each pair's
        BODY_G' on its mu; index holds the flat positions of each pair's
        psi and lam entries."""
        n = self.n
        rows = 2 * np.arange(len(self.pairs))[:, None] + np.arange(2)  # (P, 2)
        jac = np.zeros((2 * len(self.pairs), n))
        jac[rows[:, :, None], self.mu_cols[:, None, :]] = BODY_G.T
        return jac, (rows * n + self.psi_cols[:, None],
                     rows[:, :, None] * n + self.lam_cols[:, None, :])

    def dynamics(self, x, jacobian=True):
        """(residual, A, B) of the dynamics rows z_{t+1} - f(z_t, u_t)
        (`NlpProblem.stages`): the residual (4N,), then the step
        Jacobians dz_{t+1}/dz_t for t >= 1, (N-1, 4, 4), and dz_{t+1}/du_t,
        (N, 4, 2), or None and None without `jacobian`.  Given x every stage
        is independent: stage t steps from z_t (z_0 for t = 0) under u_t, so
        one `step_jacobians` call covers the horizon.  Without `jacobian`
        the values come from `step_rk4` stage by stage, which gives
        `step_jacobians`' bits at a third of its cost: 61 against 198 us for
        20 stages, best of 7, on a 2-core x86-64 host."""
        n_h = self.cfg.horizon
        zs = x[: self.nz].reshape(n_h, 4)
        us = x[self.nz : self.nz + self.nuv].reshape(n_h, 2)
        start = np.vstack([self.z0[None, :], zs[:-1]])
        if not jacobian:
            pred = np.array([step_rk4(z, u, DT) for z, u in zip(start, us)])
            return (zs - pred).ravel(), None, None
        pred, jz, ju = step_jacobians(start, us, DT)
        return (zs - pred).ravel(), jz[1:], ju

    def eq(self, x, jacobian=True):
        """(values, Jacobian) of the pairs' dual stationarity rows, two per
        pair; the Jacobian is None without `jacobian`, else a copy of
        `_eq_tables`' template with the entries that depend on x written
        through flat indices."""
        n_pairs = len(self.pairs)
        if not n_pairs:
            return np.zeros(0), np.zeros((0, self.n)) if jacobian else None
        a_t = self.obs_a.transpose(0, 2, 1)
        rot_t, drot_t = _rotations_t(x[self.psi_cols])
        atl = a_t @ x[self.lam_cols][:, :, None]  # (P, 2, 1)
        vals = (x[self.mu_cols] @ BODY_G + (rot_t @ atl)[:, :, 0]).ravel()
        if not jacobian:
            return vals, None
        template, (psi_at, lam_at) = self._eq_tables
        jac = template.copy()
        flat = jac.reshape(-1)
        flat[psi_at] = (drot_t @ atl)[:, :, 0]
        flat[lam_at] = rot_t @ a_t
        return vals, jac

    def ineq(self, x, jacobian=True):
        """(values, Jacobian) of the inequality rows; the Jacobian is None
        without `jacobian`."""
        cfg = self.cfg
        n_pairs = len(self.pairs)
        n_rows = 2 * n_pairs + len(self.strat_w)
        vals = np.zeros(n_rows)
        jac = np.zeros((n_rows, self.n)) if jacobian else None
        if n_pairs:
            clear = np.arange(n_pairs)
            normal = n_pairs + clear
            lam = x[self.lam_cols]
            edge = (self.obs_a @ x[self.pos_cols][:, :, None])[:, :, 0] - self.obs_b
            atl = (self.obs_a.transpose(0, 2, 1) @ lam[:, :, None])[:, :, 0]
            vals[clear] = cfg.d_min + EPS_STRICT - (
                _rowdot(edge, lam) - _rowdot(x[self.mu_cols], BODY_H))
            vals[normal] = _rowdot(atl, atl) - 1.0
            if jacobian:
                jac[clear[:, None], self.pos_cols] = -atl
                jac[clear[:, None], self.lam_cols] = -edge
                jac[clear[:, None], self.mu_cols] = BODY_H
                jac[normal[:, None], self.lam_cols] = 2.0 * (
                    self.obs_a @ atl[:, :, None])[:, :, 0]
        if len(self.strat_w):
            rows = 2 * n_pairs + np.arange(len(self.strat_w))
            vals[rows] = self.strat_offset - np.einsum("si,si->s", self.strat_w,
                                                       x[self.strat_cols])
            if jacobian:
                jac[rows[:, None], self.strat_cols] = -self.strat_w
        return vals, jac


class ObcaController:
    """Receding-horizon collision-avoidance controller with warm starting.

    A single instance is sequential: it keeps the previous successful
    solution, that solve's final QP working set and its engaged pairs'
    duals, and shifts all three one stage to warm-start the next step (the
    plan as the primal guess, the working set as the first subproblem's QP
    hint, and the duals as the start of each pair engaged again; other
    pairs take `_seed_duals`' seed).  Each step solves one NLP, and a
    failed solve ends the step and is not kept.  Pass `step` so a gap in
    the call sequence (another policy drove the vehicle, or the last solve
    failed) falls back to a cold start; `reset` forgets all three.
    """

    def __init__(self, config: ControllerConfig | None = None):
        self.config = config or ControllerConfig()
        self._layout = _HorizonLayout(self.config)
        self._prev = None
        self._prev_step = None

    def reset(self) -> None:
        """Forget the kept plan, working set and duals: the next step
        starts cold, every pair from its geometric seed."""
        self._prev = None
        self._prev_step = None

    def _initial_guess(self, z0, step):
        """(zs, us, keys, duals): the previous plan, working-set keys and
        pair duals shifted one stage, or a zero-input rollout, no keys and
        no duals on a cold start."""
        cfg = self.config
        fresh = self._prev is None or (
            step is not None and self._prev_step is not None and step != self._prev_step + 1
        )
        if fresh:
            us = np.zeros((cfg.horizon, 2))
            zs = rollout(z0, us, DT)
            return zs, us, None, {}
        prev_zs, prev_us, prev_keys, prev_duals = self._prev
        us = np.vstack([prev_us[1:], prev_us[-1:]])
        z_tail = step_rk4(prev_zs[-1], prev_us[-1], DT)
        zs = np.vstack([z0[None, :], prev_zs[2:], z_tail[None, :]])
        duals = {(t - 1, m): pair_duals for (t, m), pair_duals in prev_duals.items()}
        return zs, us, _shift_keys(prev_keys), duals

    def _braking_guess(self, z0):
        """Stop-as-fast-as-possible rollout; the safe fallback warm start."""
        cfg = self.config
        us = np.zeros((cfg.horizon, 2))
        zs = np.zeros((cfg.horizon + 1, 4))
        zs[0] = z0
        for t in range(cfg.horizon):
            v = float(zs[t, 3])
            us[t, 1] = float(np.clip(-v / DT, -A_MAX, A_MAX))
            zs[t + 1] = step_rk4(zs[t], us[t], DT)
        return zs, us

    def solve_step(self, z_k, u_prev, ref, env: EnvironmentEncoding,
                   strategy=None, step: int | None = None) -> MpcSolution:
        cfg = self.config
        n_h = cfg.horizon
        z0 = np.asarray(z_k, float).copy()
        u_prev = np.zeros(2) if u_prev is None else np.asarray(u_prev, float).copy()
        ref = np.asarray(ref, float)
        if ref.shape != (n_h + 1, 4):
            raise ValueError(f"reference must be ({n_h + 1}, 4), got {ref.shape}")
        if env.n_steps < n_h + 1:
            env = env.window(0, n_h + 1)

        strat = (np.empty(0, dtype=int), np.empty((0, 2)), np.empty(0))
        if strategy is not None and StrategyLabel(strategy) != StrategyLabel.YIELD:
            stages, w, offset = generate_strategy_constraints(strategy, ref, env,
                                                              COVERING_RADIUS)
            later = stages >= 1
            strat = (stages[later], w[later], offset[later])

        zs_g, us_g, keys, carried = self._initial_guess(z0, step)
        # A warm start that penetrates an obstacle puts the solver in a region
        # where the dual rows cannot express an escape direction; fall back to
        # a braking rollout, which is collision-free whenever the start is.
        (f_g, f_r), best, normals = _face_certificates(env, np.stack([zs_g, ref]))
        faces_g = best[0], normals[0]
        if np.min(f_g[1:]) < 0.0:
            zs_g, us_g = self._braking_guess(z0)
            f_g, *faces_g = _face_certificates(env, zs_g)

        # Engage only pairs that either the warm start or the reference comes
        # close to; far pairs get no decision variables.  A pair the previous
        # solve engaged one stage later starts from that solve's duals, any
        # other from its geometric seed.
        dual_map = {}
        pairs = []
        for t, m in np.argwhere(np.minimum(f_g, f_r)[1:] < ENGAGE_DIST) + (1, 0):
            t, m = int(t), int(m)
            dist, lam_w, mu_w = _seed_duals(env, t, m, zs_g[t], faces_g)
            if dist < ENGAGE_DIST or f_r[t, m] < ENGAGE_DIST:
                pairs.append((t, m))
                dual_map[(t, m)] = carried.get((t, m), (lam_w, mu_w))

        builder = _StepNlp(cfg, z0, u_prev, ref, env, pairs, strat, self._layout)
        # The previous step's working set, shifted; keys this NLP lacks
        # (stages that left the horizon, pairs no longer engaged) drop out.
        sol = solve_nlp(builder.problem, builder.pack(zs_g, us_g, dual_map),
                        warm_rows=builder.key_rows(keys))
        zs, us = builder.unpack(sol.x)
        result = MpcSolution(
            zs=zs, us=us, status=sol.status,
            stats={"iterations": sol.iterations, "rounds": 1, "engaged": len(pairs),
                   "cost": sol.objective},
        )
        if result.ok:
            self._prev = (zs, us, builder.row_keys(sol.active_rows), builder.duals(sol.x))
            self._prev_step = step
        return result
