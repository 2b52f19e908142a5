"""Dynamics tests.

Oracles: a fine-substep integrator for the RK4 step, the retired numpy
RK4 step for its bits, and central finite differences for the exact step
Jacobians.  Random states are drawn from the
parking operating envelope (|v| <= 1 m/s, |delta| <= DELTA_MAX) where the
single-step tolerances are meaningful.
"""

import math

import numpy as np
import pytest

from oracles import continuous_derivative, step_rk4_array
from tightnav.dynamics import (
    A_MAX,
    COVERING_RADIUS,
    DELTA_MAX,
    DT,
    L_F,
    L_R,
    LENGTH,
    WIDTH,
    rollout,
    slip_angle,
    step_jacobians,
    step_rk4,
)
from tightnav.geometry import body_polytope


def fine_step(z, u, dt, substeps=1000):
    """Oracle integrator: RK4 with dt/substeps resolution."""
    h = dt / substeps
    out = z.copy()
    for _ in range(substeps):
        out = step_rk4(out, u, h)
    return out


def fd_jacobians(z, u, dt, h=1e-6):
    """Oracle Jacobians by central differences."""
    jz = np.zeros((4, 4))
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        jz[:, i] = (step_rk4(z + e, u, dt) - step_rk4(z - e, u, dt)) / (2 * h)
    ju = np.zeros((4, 2))
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        ju[:, i] = (step_rk4(z, u + e, dt) - step_rk4(z, u - e, dt)) / (2 * h)
    return jz, ju


def sample_envelope(rng):
    z = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2),
                  rng.uniform(-math.pi, math.pi), rng.uniform(-1.0, 1.0)])
    u = np.array([rng.uniform(-DELTA_MAX, DELTA_MAX),
                  rng.uniform(-A_MAX, A_MAX)])
    return z, u


def test_straight_line_exact():
    z = np.array([0.0, 0.0, 0.0, 1.0])
    u = np.zeros(2)
    np.testing.assert_allclose(step_rk4(z, u, DT), [0.1, 0.0, 0.0, 1.0],
                               atol=1e-15)


def test_zero_speed_is_fixed_point():
    z = np.array([0.3, -0.2, 0.7, 0.0])
    u = np.array([0.2, 0.0])
    np.testing.assert_allclose(step_rk4(z, u, DT), z, atol=1e-15)


def test_slip_angle_formula_and_domain():
    beta = slip_angle(0.3)
    expected = math.atan(L_R * math.tan(0.3) / (L_F + L_R))
    assert abs(beta - expected) < 1e-15
    with pytest.raises(ValueError):
        slip_angle(math.pi / 2)


def test_turning_matches_fine_integrator():
    z = np.array([0.0, 0.0, 0.0, 1.0])
    u = np.array([0.3, 0.0])
    ref = fine_step(z, u, DT)
    assert np.max(np.abs(step_rk4(z, u, DT) - ref)) < 1e-6


def test_rk4_matches_fine_integrator_random():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        z, u = sample_envelope(rng)
        ref = fine_step(z, u, DT)
        err = np.max(np.abs(step_rk4(z, u, DT) - ref))
        worst = max(worst, err)
    assert worst < 1e-6


def test_jacobians_match_finite_differences():
    # One batched call over all samples, each row checked on its own.
    rng = np.random.default_rng(7)
    zs, us = map(np.array, zip(*(sample_envelope(rng) for _ in range(100))))
    _, jzs, jus = step_jacobians(zs, us, DT)
    for z, u, jz, ju in zip(zs, us, jzs, jus):
        jz_fd, ju_fd = fd_jacobians(z, u, DT)
        scale_z = np.maximum(np.abs(jz_fd), 1.0)
        scale_u = np.maximum(np.abs(ju_fd), 1.0)
        assert np.max(np.abs(jz - jz_fd) / scale_z) < 1e-5
        assert np.max(np.abs(ju - ju_fd) / scale_u) < 1e-5


def test_rigid_motion_equivariance():
    # Rotating and translating the start pose transforms the whole rollout.
    rng = np.random.default_rng(11)
    z0 = np.array([0.2, -0.1, 0.3, 0.5])
    inputs = np.column_stack([rng.uniform(-0.3, 0.3, 30), rng.uniform(-0.5, 0.5, 30)])
    base = rollout(z0, inputs, DT)
    dpsi, shift = 1.1, np.array([0.7, -1.3])
    c, s = math.cos(dpsi), math.sin(dpsi)
    R = np.array([[c, -s], [s, c]])
    z0_t = np.concatenate([R @ z0[:2] + shift, [z0[2] + dpsi, z0[3]]])
    moved = rollout(z0_t, inputs, DT)
    np.testing.assert_allclose(moved[:, :2], base[:, :2] @ R.T + shift, atol=1e-9)
    np.testing.assert_allclose(moved[:, 2], base[:, 2] + dpsi, atol=1e-9)
    np.testing.assert_allclose(moved[:, 3], base[:, 3], atol=1e-12)


def test_jacobian_step_is_rk4_step_bit_for_bit():
    # The MPC's dynamics rows take the step from step_jacobians, the
    # closed loop from step_rk4; they must agree to the last bit.
    rng = np.random.default_rng(19)
    for _ in range(200):
        z, u = sample_envelope(rng)
        dt = rng.uniform(0.01, 0.2)
        z_next = step_jacobians(z, u, dt)[0]
        assert z_next.tobytes() == step_rk4(z, u, dt).tobytes()


def test_scalar_step_matches_array_step_bit_for_bit():
    # Random states and inputs, steering at +-delta_max, v = 0 and v < 0,
    # each read from a non-contiguous row of a wider array.
    rng = np.random.default_rng(37)
    n = 400
    zs = rng.uniform(-3.0, 3.0, (n, 8))[:, ::2]
    zs[:, 3] = rng.uniform(-1.0, 2.0, n)
    zs[::5, 3] = 0.0
    zs[1::5, 3] = -np.abs(zs[1::5, 3]) - 1e-3
    us = np.empty((n, 4))
    us[:, 0] = rng.uniform(-DELTA_MAX, DELTA_MAX, n)
    us[:, 2] = rng.uniform(-A_MAX, A_MAX, n)
    us[::3, 0] = DELTA_MAX
    us[1::3, 0] = -DELTA_MAX
    us = us[:, ::2]
    assert not zs[0].flags.c_contiguous and not us[0].flags.c_contiguous
    for z, u, dt in zip(zs, us, rng.choice([DT, 0.05, 0.2], n)):
        got = step_rk4(z, u, dt)
        assert got.shape == (4,) and got.dtype == np.float64
        assert got.tobytes() == step_rk4_array(z, u, dt).tobytes()


def test_batched_step_matches_per_row_calls():
    # Rows of a stacked call against one call per row, with steering at and
    # just inside delta_max, where tan and the slip angle move fastest.
    rng = np.random.default_rng(23)
    zs, us = map(np.array, zip(*(sample_envelope(rng) for _ in range(60))))
    edge = DELTA_MAX * np.array([1.0, -1.0, 1.0 - 1e-12, -(1.0 - 1e-12)])
    us[: len(edge), 0] = edge
    z_next, jz, ju = step_jacobians(zs, us, DT)
    assert z_next.shape == (60, 4) and jz.shape == (60, 4, 4) and ju.shape == (60, 4, 2)
    for t, (z, u) in enumerate(zip(zs, us)):
        row_next, row_jz, row_ju = step_jacobians(z, u, DT)
        assert row_next.shape == (4,) and row_jz.shape == (4, 4) and row_ju.shape == (4, 2)
        assert z_next[t].tobytes() == row_next.tobytes()
        assert z_next[t].tobytes() == step_rk4(z, u, DT).tobytes()
        np.testing.assert_allclose(jz[t], row_jz, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(ju[t], row_ju, rtol=0.0, atol=1e-14)


def test_jacobians_reject_steering_outside_the_model():
    zs = np.zeros((3, 4))
    us = np.array([[0.1, 0.0], [math.pi / 2, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        step_jacobians(zs, us, DT)


def test_covering_radius_reaches_the_body_corners():
    # The disc of radius COVERING_RADIUS about the centre just covers the
    # body at every heading: its farthest corner lies on the circle.
    for psi in np.linspace(-math.pi, math.pi, 13):
        z = np.array([0.4, -0.7, psi, 0.0])
        corners = body_polytope(z, LENGTH, WIDTH).vertices
        reach = np.max(np.hypot(corners[:, 0] - z[0], corners[:, 1] - z[1]))
        assert reach == pytest.approx(COVERING_RADIUS, rel=1e-14)


def test_derivative_shapes_and_values():
    z = np.array([0.0, 0.0, 0.5, 0.8])
    u = np.array([0.1, 0.3])
    dz = continuous_derivative(z, u)
    beta = slip_angle(0.1)
    assert dz[0] == pytest.approx(0.8 * math.cos(0.5 + beta))
    assert dz[1] == pytest.approx(0.8 * math.sin(0.5 + beta))
    assert dz[2] == pytest.approx(0.8 / L_R * math.sin(beta))
    assert dz[3] == pytest.approx(0.3)
