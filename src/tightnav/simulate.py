"""Closed-loop simulation: expert rollouts, dataset assembly, policy benchmark.

Two controller schemes run on identical scenarios.  `sg` consults the
strategy predictor each step and wraps the guided MPC in the policy
supervisor; `bl` runs the same MPC without strategy constraints and falls
back to safety control or the emergency brake on the same terms.  The expert
that generates training data is the baseline MPC with perfect preview of the
TV trajectory plus a hold rule that defers to the safety controller whenever
the previewed swept region closes the corridor ahead.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dynamics import VehicleParams, step_rk4
from .fileio import atomic_write
from .geometry import body_polytope, min_translation_distance, polytopes_intersect
from .obca import ControllerConfig, EnvironmentEncoding, ObcaController, StrategyLabel
from .predictor import encode_features, forward, label_rollout
from .scenario import Scenario, lane_reference
from .supervisor import (
    PolicyKind,
    SupervisorConfig,
    anticipate_collision,
    emergency_brake,
    safety_control,
    safety_speed_target,
    select_policy,
)

logger = logging.getLogger(__name__)

SCHEMES = ("sg", "bl")

OUTCOME_COMPLETED = "completed"
OUTCOME_COLLISION = "collision"
OUTCOME_EMERGENCY = "emergency_braked"
OUTCOME_TIMEOUT = "timeout"

# Expert data generation: recording length, and the hold rule that decides
# when the expert stops solving and waits behind the maneuvering TV.  The
# hold engages when the previewed swept region caps the safe speed near zero.
EXPERT_ROLLOUT_STEPS = 110
EXPERT_HOLD_SPEED = 0.18
AUDIT_SLACK = 1e-4


def _clearance(z, obstacles, params: VehicleParams):
    """(intersects, distance): exact body-vs-obstacle audit at one state."""
    body = body_polytope(z, params.length, params.width)
    hit = False
    dist = math.inf
    for obs in obstacles:
        if polytopes_intersect(body, obs):
            hit = True
        dist = min(dist, min_translation_distance(body, obs))
    return hit, dist


# --- expert rollouts and the training set -----------------------------------

@dataclass
class RolloutRecord:
    """One audited expert demonstration with its strategy label."""

    ev_traj: np.ndarray  # (T+1, 4)
    inputs: np.ndarray  # (T, 2)
    tv_traj: np.ndarray  # (T+1, 4), the realized TV states
    env: EnvironmentEncoding  # T + horizon + 1 steps, for window features
    label: StrategyLabel
    scenario_name: str
    seed: int

    @property
    def n_steps(self) -> int:
        return len(self.inputs)


def generate_expert_rollout(scenario: Scenario, ctrl_config: ControllerConfig | None = None,
                            sup_config: SupervisorConfig | None = None,
                            n_steps: int = EXPERT_ROLLOUT_STEPS) -> RolloutRecord | None:
    """Drive the scenario with the previewing expert; None if the audit fails.

    The expert solves the unguided MPC each step except when the hold rule
    fires: if the safe-speed cap over the remaining TV trajectory drops near
    zero the corridor ahead is blocked or about to be swept, and the expert
    lets the safety controller hold position instead of squeezing through a
    gap that is about to close.  Every realized state is audited against the
    exact obstacle geometry afterwards.
    """
    ctrl = ctrl_config or ControllerConfig(guided=False)
    sup = sup_config or SupervisorConfig(params=ctrl.params)
    if abs(ctrl.dt - scenario.dt) > 1e-12 or abs(sup.dt - scenario.dt) > 1e-12:
        raise ValueError("controller, supervisor, and scenario time steps differ")
    n_h = ctrl.horizon
    n_env = n_steps + n_h + 1
    env = scenario.environment(n_env, ctrl.params)
    tv_pad = scenario.tv_padded(n_env)
    controller = ObcaController(ctrl)

    z = scenario.ev_init.copy()
    u_prev = np.zeros(2)
    states = [z.copy()]
    inputs = []
    for k in range(n_steps):
        if z[0] > scenario.lot.x_max:
            break
        ref = lane_reference(z, n_h, scenario.dt, scenario.v_ref)
        gate = safety_speed_target(z, tv_pad[k:], sup)
        if gate < EXPERT_HOLD_SPEED:
            u = safety_control(z, tv_pad[k:], ref, sup).as_array()
        else:
            sol = controller.solve_step(z, u_prev, ref, env.window(k, n_h + 1), step=k)
            if sol.ok:
                u = sol.us[0]
            else:
                u = safety_control(z, tv_pad[k:], ref, sup).as_array()
        z = step_rk4(z, u, scenario.dt, ctrl.params)
        states.append(z.copy())
        inputs.append(u)
        u_prev = u

    ev = np.array(states)
    t_rec = len(inputs)
    for t in range(len(ev)):
        hit, dist = _clearance(ev[t], env.obstacles(t), ctrl.params)
        if hit or dist < ctrl.d_min - AUDIT_SLACK:
            logger.warning("discarding rollout %s: clearance %.4f at step %d",
                           scenario.name, dist, t)
            return None

    label = label_rollout(ev, tv_pad[: len(ev)], ctrl.params, scenario.dt)
    return RolloutRecord(
        ev_traj=ev,
        inputs=np.array(inputs).reshape(t_rec, 2),
        tv_traj=tv_pad[: len(ev)].copy(),
        env=env.window(0, t_rec + n_h + 1),
        label=label,
        scenario_name=scenario.name,
        seed=scenario.seed,
    )


def build_dataset(records, horizon: int = 20):
    """(features, labels, manifest) from sliding windows over the rollouts.

    Every window start k in [0, T - horizon] contributes one example: the
    state at k plus the obstacle encoding over the following horizon, with
    the rollout's single label.  Rollouts shorter than the horizon add no
    examples but still count in the manifest.
    """
    rows = []
    labels = []
    counts = {label.name: 0 for label in StrategyLabel}
    for rec in records:
        counts[rec.label.name] += 1
        for k in range(0, rec.n_steps - horizon + 1):
            rows.append(encode_features(rec.ev_traj[k], rec.env.window(k, horizon + 1)))
            labels.append(int(rec.label))
    if not rows:
        raise ValueError("no training windows: all rollouts shorter than the horizon")
    x = np.array(rows)
    y = np.array(labels, int)
    manifest = {
        "n_rollouts": len(list(records)),
        "n_examples": int(len(y)),
        "feature_dim": int(x.shape[1]),
        "horizon": int(horizon),
        "rollout_labels": counts,
        "example_labels": {
            label.name: int(np.sum(y == int(label))) for label in StrategyLabel
        },
    }
    return x, y, manifest


def generate_dataset(scenarios, ctrl_config: ControllerConfig | None = None,
                     sup_config: SupervisorConfig | None = None,
                     n_steps: int = EXPERT_ROLLOUT_STEPS):
    """Expert-drive every scenario and window the survivors into a dataset.

    Returns (features, labels, manifest, records); the manifest additionally
    carries the scenario count and how many rollouts the audit discarded.
    """
    records = []
    discarded = 0
    for sc in scenarios:
        rec = generate_expert_rollout(sc, ctrl_config, sup_config, n_steps)
        if rec is None:
            discarded += 1
        else:
            records.append(rec)
    if not records:
        raise ValueError("every expert rollout failed the clearance audit")
    horizon = (ctrl_config or ControllerConfig(guided=False)).horizon
    x, y, manifest = build_dataset(records, horizon)
    manifest["n_scenarios"] = len(list(scenarios))
    manifest["n_discarded"] = discarded
    return x, y, manifest, records


# --- closed-loop evaluation --------------------------------------------------

@dataclass
class StepLog:
    """One control step: state, applied input, and the supervisor's choice."""

    step: int
    z: np.ndarray
    u: np.ndarray
    policy: PolicyKind
    reason: str
    min_distance: float
    scores: np.ndarray | None = None
    strategy: int | None = None
    sg_status: str | None = None
    solve_time: float = 0.0


@dataclass
class TaskResult:
    """Outcome of one closed-loop run on one scenario."""

    scheme: str
    scenario_name: str
    seed: int
    outcome: str
    iterations: int
    min_distance: float
    logs: list = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.outcome == OUTCOME_COMPLETED

    def policy_counts(self) -> dict:
        counts = {kind.name: 0 for kind in PolicyKind}
        for log in self.logs:
            counts[log.policy.name] += 1
        return counts


def run_closed_loop(scenario: Scenario, scheme: str, model=None,
                    ctrl_config: ControllerConfig | None = None,
                    sup_config: SupervisorConfig | None = None,
                    max_steps: int = 600) -> TaskResult:
    """Simulate one scenario under the supervised controller stack.

    Each step: audit the exact clearance, check task completion, then let
    the supervisor pick exactly one policy.  Under `sg` the strategy
    predictor screens the step first, so the MPC is only solved when a
    confident pass prediction makes it eligible; under `bl` the MPC is
    solved unguided and safety control covers failed solves.  An emergency
    brake, once selected, stays latched until the vehicle stops.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if scheme == "sg" and model is None:
        raise ValueError("the sg scheme needs a trained strategy model")
    ctrl = ctrl_config or ControllerConfig(guided=(scheme == "sg"))
    sup = sup_config or SupervisorConfig(params=ctrl.params)
    if abs(ctrl.dt - scenario.dt) > 1e-12 or abs(sup.dt - scenario.dt) > 1e-12:
        raise ValueError("controller, supervisor, and scenario time steps differ")
    p = ctrl.params
    n_h = ctrl.horizon
    n_env = max_steps + n_h + 1
    env = scenario.environment(n_env, p)
    tv_pad = scenario.tv_padded(n_env)
    controller = ObcaController(ctrl)
    lot = scenario.lot

    z = scenario.ev_init.copy()
    u_prev = np.zeros(2)
    latched = False
    logs = []
    min_dist = math.inf
    outcome = OUTCOME_TIMEOUT
    iterations = max_steps

    for k in range(max_steps):
        hit, dist = _clearance(z, env.obstacles(k), p)
        min_dist = min(min_dist, dist)
        if hit:
            outcome = OUTCOME_COLLISION
            iterations = k
            break
        if latched and abs(z[3]) <= 1e-9:
            outcome = OUTCOME_EMERGENCY
            iterations = k
            break
        if not latched and z[0] > lot.x_max and abs(z[1]) <= lot.lane_half_width:
            outcome = OUTCOME_COMPLETED
            iterations = k
            break

        ref = lane_reference(z, n_h, scenario.dt, scenario.v_ref)
        scores = None
        strategy = None
        sg_status = None
        t_begin = time.perf_counter()
        if latched:
            policy, reason = PolicyKind.EMERGENCY_BRAKE, "latched"
        else:
            danger = anticipate_collision(z, tv_pad[k : k + n_h + 1], ref, sup)
            if scheme == "sg":
                pred = forward(model, encode_features(z, env.window(k, n_h + 1)))
                scores = pred.scores
                # Screen first with an assumed-optimal solve: when the
                # prediction alone already rules the MPC out, skip the solve.
                policy, reason = select_policy(pred, "optimal", danger, sup)
                if policy == PolicyKind.SG_OBCA:
                    sol = controller.solve_step(z, u_prev, ref, env.window(k, n_h + 1),
                                                strategy=pred.label, step=k)
                    sg_status = sol.status
                    strategy = int(pred.label)
                    policy, reason = select_policy(pred, sol.status, danger, sup)
                else:
                    sg_status = "skipped"
            else:
                sol = None
                if danger:
                    policy, reason = PolicyKind.EMERGENCY_BRAKE, "collision_anticipated"
                else:
                    sol = controller.solve_step(z, u_prev, ref, env.window(k, n_h + 1),
                                                step=k)
                    sg_status = sol.status
                    if sol.ok:
                        policy, reason = PolicyKind.SG_OBCA, "nominal"
                    else:
                        policy, reason = PolicyKind.SAFETY_CONTROL, "solver_not_optimal"

        if policy == PolicyKind.EMERGENCY_BRAKE:
            latched = True
            u = emergency_brake(z, sup).as_array()
        elif policy == PolicyKind.SAFETY_CONTROL:
            u = safety_control(z, tv_pad[k:], ref, sup).as_array()
        else:
            u = np.array(sol.us[0], float)
        solve_time = time.perf_counter() - t_begin

        logs.append(StepLog(step=k, z=z.copy(), u=u.copy(), policy=policy,
                            reason=reason, min_distance=dist, scores=scores,
                            strategy=strategy, sg_status=sg_status,
                            solve_time=solve_time))
        z = step_rk4(z, u, scenario.dt, p)
        u_prev = u

    return TaskResult(scheme=scheme, scenario_name=scenario.name, seed=scenario.seed,
                      outcome=outcome, iterations=iterations,
                      min_distance=float(min_dist), logs=logs)


# --- benchmark ---------------------------------------------------------------

@dataclass
class BenchmarkResult:
    rows: list  # one dict per (scenario, scheme) run, in execution order
    summary: dict


def _scheme_summary(rows) -> dict:
    n = len(rows)
    completed = [r for r in rows if r["outcome"] == OUTCOME_COMPLETED]
    iters = [r["iterations"] for r in completed]
    return {
        "n": n,
        "n_completed": len(completed),
        "failure_rate": float((n - len(completed)) / n) if n else float("nan"),
        "iterations_mean": float(np.mean(iters)) if iters else float("nan"),
        "iterations_median": float(np.median(iters)) if iters else float("nan"),
        "min_distance": float(min((r["min_distance"] for r in rows), default=math.nan)),
    }


def run_benchmark(scenarios, model, ctrl_config: ControllerConfig | None = None,
                  sup_config: SupervisorConfig | None = None,
                  schemes=SCHEMES, max_steps: int = 600,
                  progress=None) -> BenchmarkResult:
    """Run every scenario under every scheme and summarize the pairing.

    The guided scheme gets the model; the baseline gets the same controller
    configuration with the strategy rows disabled.  The summary carries
    per-scheme completion statistics plus median iterations over the
    scenarios that every scheme completed, which is the fair speed
    comparison (failures have no completion time).
    """
    rows = []
    per_scheme = {scheme: [] for scheme in schemes}
    for sc in scenarios:
        for scheme in schemes:
            cfg = ctrl_config
            if cfg is not None and cfg.guided != (scheme == "sg"):
                cfg = None
            res = run_closed_loop(sc, scheme, model if scheme == "sg" else None,
                                  cfg, sup_config, max_steps)
            row = {
                "scenario": sc.name,
                "seed": sc.seed,
                "scheme": scheme,
                "outcome": res.outcome,
                "iterations": res.iterations,
                "min_distance": res.min_distance,
            }
            rows.append(row)
            per_scheme[scheme].append(row)
            if progress is not None:
                progress(row)

    summary = {scheme: _scheme_summary(per_scheme[scheme]) for scheme in schemes}
    joint = [
        i for i in range(len(scenarios))
        if all(per_scheme[s][i]["outcome"] == OUTCOME_COMPLETED for s in schemes)
    ]
    summary["joint"] = {
        "n": len(joint),
        **{
            f"{scheme}_iterations_median": float(
                np.median([per_scheme[scheme][i]["iterations"] for i in joint])
            ) if joint else float("nan")
            for scheme in schemes
        },
    }
    return BenchmarkResult(rows=rows, summary=summary)


def write_benchmark_csv(result: BenchmarkResult, path: str) -> None:
    """Deterministic CSV of the per-run rows, one line per (scenario, scheme)."""
    header = ["scenario", "seed", "scheme", "outcome", "iterations", "min_distance"]
    lines = [",".join(header)]
    for row in result.rows:
        lines.append(",".join([
            str(row["scenario"]), str(row["seed"]), str(row["scheme"]),
            str(row["outcome"]), str(row["iterations"]),
            f"{row['min_distance']:.6f}",
        ]))
    atomic_write(path, "\n".join(lines) + "\n")


def task_result_to_dict(res: TaskResult) -> dict:
    """JSON-ready view of a run, steps included."""
    return {
        "scheme": res.scheme,
        "scenario": res.scenario_name,
        "seed": res.seed,
        "outcome": res.outcome,
        "iterations": res.iterations,
        "min_distance": res.min_distance,
        "steps": [
            {
                "step": log.step,
                "z": [float(v) for v in log.z],
                "u": [float(v) for v in log.u],
                "policy": log.policy.name,
                "reason": log.reason,
                "min_distance": float(log.min_distance),
                "scores": None if log.scores is None else [float(v) for v in log.scores],
                "strategy": log.strategy,
                "sg_status": log.sg_status,
                "solve_time": float(log.solve_time),
            }
            for log in res.logs
        ],
    }
