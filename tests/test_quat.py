"""Quaternion algebra: closed-form examples and frame-consistency sweeps."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qvint import identity_quat
from qvint.quat import _right_jacobian, exp_map, normalize, quat_mul, rotate_to_earth

RNG = np.random.default_rng(20240817)


def conj(q):
    """Quaternion conjugate [w, -x, -y, -z]."""
    return q * (1.0, -1.0, -1.0, -1.0)


def random_unit_quat(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def test_identity_and_hamilton_table():
    i = np.array([0.0, 1.0, 0.0, 0.0])
    j = np.array([0.0, 0.0, 1.0, 0.0])
    k = np.array([0.0, 0.0, 0.0, 1.0])
    assert_allclose(quat_mul(i, j), k, atol=0.0)
    assert_allclose(quat_mul(j, i), -k, atol=0.0)
    assert_allclose(quat_mul(j, k), i, atol=0.0)
    assert_allclose(quat_mul(k, i), j, atol=0.0)
    q = random_unit_quat(RNG)
    assert_allclose(quat_mul(identity_quat(), q), q, atol=0.0)
    assert_allclose(quat_mul(q, conj(q)), identity_quat(), atol=1e-15)


def test_exp_map_closed_forms():
    assert_allclose(exp_map(np.zeros(3)), identity_quat(), atol=0.0)
    assert_allclose(exp_map(np.array([np.pi / 2, 0, 0])), [0, 1, 0, 0], atol=1e-15)


def test_exp_map_unit_norm_and_small_angle():
    for _ in range(200):
        theta = RNG.standard_normal(3) * 10.0 ** RNG.uniform(-12, 1)
        q = exp_map(theta)
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-12
    # series branch joins the trig branch smoothly at the threshold
    t_lo = np.array([1.0, 0.5, -0.25]) * 0.99e-8 / np.linalg.norm([1.0, 0.5, -0.25])
    t_hi = t_lo * (1.01 / 0.99)
    assert np.linalg.norm(exp_map(t_hi) - exp_map(t_lo)) < 1e-8


def test_rotations_closed_forms():
    x = np.array([0.4, -1.2, 2.0])
    assert_allclose(rotate_to_earth(identity_quat(), x), x, atol=0.0)
    # 90 degrees about body x sends +y to +z
    q = exp_map(np.array([np.pi / 4, 0, 0]))
    assert_allclose(rotate_to_earth(q, np.array([0.0, 1.0, 0.0])), [0, 0, 1], atol=1e-15)
    with pytest.raises(ValueError):
        rotate_to_earth(np.array([1.0, 1.0, 0.0, 0.0]), x)
    # a NaN component makes the norm NaN, which no tolerance comparison admits; an infinite one overflows it
    for bad in ([math.nan, 0.0, 0.0, 0.0], [1.0, 0.0, math.nan, 0.0], [1.0, math.inf, 0.0, 0.0], [-math.inf, 0, 0, 0]):
        with pytest.raises(ValueError, match="rotate_to_earth: quaternion norm"):
            rotate_to_earth(np.array(bad), x)


def test_rotation_inverse_pair_sweep():
    for _ in range(10_000):
        q = random_unit_quat(RNG)
        x = RNG.standard_normal(3) * 10.0 ** RNG.uniform(-3, 3)
        back = rotate_to_earth(conj(q), rotate_to_earth(q, x))
        assert np.linalg.norm(back - x) <= 1e-12 * max(np.linalg.norm(x), 1e-300)


def test_rotation_preserves_norm():
    for _ in range(500):
        q = random_unit_quat(RNG)
        x = RNG.standard_normal(3)
        assert abs(np.linalg.norm(rotate_to_earth(q, x)) - np.linalg.norm(x)) <= 1e-12


def test_earth_body_perturbation_equivalence():
    # exp(eps*eta_e) (x) q == q (x) exp(eps*eta_b) when eta_e = R(q) eta_b
    eps = 1e-3
    for _ in range(500):
        q = random_unit_quat(RNG)
        eta_b = RNG.standard_normal(3)
        eta_e = rotate_to_earth(q, eta_b)
        lhs = quat_mul(exp_map(eps * eta_e), q)
        rhs = quat_mul(q, exp_map(eps * eta_b))
        assert np.linalg.norm(lhs - rhs) <= 1e-12


def cg_step(q, omega, h):
    """The steppers' Crouch-Grossman orientation update q (x) exp((h/2) omega)."""
    return quat_mul(q, exp_map((0.5 * h) * omega))


def test_cg_step():
    q = random_unit_quat(RNG)
    assert_allclose(cg_step(q, np.zeros(3), 0.5), q, atol=0.0)
    assert_allclose(cg_step(identity_quat(), np.array([np.pi, 0, 0]), 1.0), [0, 1, 0, 0], atol=1e-15)


def test_cg_step_one_parameter_subgroup():
    omega = np.array([0.7, -0.2, 1.1])
    h = 0.05
    n = 40
    q_steps = identity_quat()
    for _ in range(n):
        q_steps = cg_step(q_steps, omega, h)
    q_once = cg_step(identity_quat(), omega, n * h)
    assert np.linalg.norm(q_steps - q_once) <= 1e-12


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize(np.zeros(4))
    # the success path: exact where the norm is, and within 2 eps of a random unit q (worst seen 1.5 eps)
    assert normalize(np.array([3.0, 0.0, 4.0, 0.0])).tolist() == [0.6, 0.0, 0.8, 0.0]
    assert normalize(np.full(4, 1.25)).tolist() == [0.5] * 4
    for _ in range(200):
        q = random_unit_quat(RNG)
        assert np.abs(normalize(2.5 * q) - q).max() <= 2.0 * np.finfo(float).eps


@pytest.mark.parametrize("angle", [0.0, 0.5e-8, 2e-8, 0.3, 2.5])
def test_right_jacobian_maps_an_increment_of_the_rotation_vector(angle):
    # exp_map carries no half angle, so the rotation by phi is exp_map(phi / 2);
    # J_r is right when exp_map((phi + d) / 2) = exp_map(phi / 2) (x) exp_map(J_r d / 2) + O(|d|^2)
    phi = angle * np.array([2.0, -1.0, 2.0]) / 3.0
    jr = np.array(_right_jacobian(tuple(phi))).reshape(3, 3)
    gaps = []
    for size in (1e-3, 1e-4):
        d = size * np.array([-0.6, 0.0, 0.8])
        gaps.append(np.abs(exp_map((phi + d) / 2) - quat_mul(exp_map(phi / 2), exp_map(jr @ d / 2))).max())
        assert gaps[-1] <= 0.1 * size**2 + 1e-15
    if angle >= 0.3:  # away from roundoff the gap is second order: 100-fold per 10-fold step in d
        assert 80.0 < gaps[0] / gaps[1] < 125.0


@pytest.mark.parametrize("phi", [(1e200, 0.0, 0.0), (math.nan, 0.0, 0.0)], ids=["overflowed", "nan"])
def test_right_jacobian_of_a_non_finite_angle_is_nine_nans(phi):
    jr = _right_jacobian(phi)
    assert len(jr) == 9 and all(map(math.isnan, jr))
