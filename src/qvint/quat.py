"""Quaternion algebra for body orientation.

Conventions used throughout the package:

* quaternions are numpy arrays of shape (4,), scalar first: q = [w, x, y, z]
* Hamilton product, i*j = k
* unit q maps body to earth axes: v_e = q (x) v_b (x) q*, v_b = q* (x) v_e (x) q
* exp_map(t) = (cos|t|, sin|t| * t/|t|), so the 1/2 of a half-angle rotation
  lives in the caller's argument, not in the map

Public functions take and return float64 arrays and never mutate their inputs;
the private _*_f kernels return tuples of Python floats, for scalar hot paths.
"""

from __future__ import annotations

import math

import numpy as np

Array = np.ndarray

#: below this rotation-vector norm exp_map uses its series expansion
SMALL_ANGLE = 1e-8

#: unit-norm precondition tolerance for rotate_to_earth
UNIT_TOL = 1e-9


def identity_quat() -> Array:
    """Return the identity quaternion [1, 0, 0, 0]."""
    return np.array([1.0, 0.0, 0.0, 0.0])


def _mul_f(a, b) -> tuple[float, float, float, float]:
    """Hamilton product a (x) b of two 4-sequences, evaluated on their scalars."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_mul(a: Array, b: Array) -> Array:
    """Hamilton product a (x) b, both shape (4,)."""
    return np.array(_mul_f(a, b))


def conj(q: Array) -> Array:
    """Quaternion conjugate [w, -x, -y, -z]."""
    return np.array([q[0], -q[1], -q[2], -q[3]])


def normalize(q: Array) -> Array:
    """Rescale q to unit norm."""
    n = float(np.sqrt(q @ q))
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("cannot normalize quaternion with zero or non-finite norm")
    return q / n


def _check_unit(q: Array, where: str) -> None:
    n = float(np.sqrt(q @ q))
    if abs(n - 1.0) > UNIT_TOL:
        raise ValueError(f"{where}: quaternion norm {n!r} is not 1 within {UNIT_TOL}")


def _exp_f(theta) -> tuple[float, float, float, float]:
    """exp_map on a 3-sequence of Python floats; an overflowed or NaN angle gives NaNs, not an exception."""
    x, y, z = theta
    t2 = x * x + y * y + z * z
    t = math.sqrt(t2)
    if t < SMALL_ANGLE:
        w = 1.0 - 0.5 * t2
        s = 1.0 - t2 / 6.0
    elif t < math.inf:
        w = math.cos(t)
        s = math.sin(t) / t
    else:
        w = s = math.nan
    return (w, s * x, s * y, s * z)


def exp_map(theta: Array) -> Array:
    """Exponential map of a rotation vector, shape (3,) -> unit quaternion.

    exp_map(theta) = (cos|theta|, sin|theta| * theta/|theta|). Series below
    SMALL_ANGLE avoids 0/0 at the origin.
    """
    return np.array(_exp_f(theta.tolist()))


def _rotate_f(q, v) -> tuple[float, float, float]:
    """Unchecked q (x) v (x) q* for unit q, expanded to avoid two full products."""
    w, x, y, z = q
    vx, vy, vz = v
    # t = 2 (q_vec x v)
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    # v' = v + w t + q_vec x t
    return (
        vx + w * tx + y * tz - z * ty,
        vy + w * ty + z * tx - x * tz,
        vz + w * tz + x * ty - y * tx,
    )


def _rotate(q: Array, v: Array) -> Array:
    return np.array(_rotate_f(q, v))


def _right_jacobian(phi: tuple[float, float, float]) -> tuple[float, ...]:
    """SO(3) right Jacobian J_r: Exp(phi + d) = Exp(phi) Exp(J_r(phi) d) to first order in d.

    J_r = I - a phi^ + b phi^ phi^ = (1 - b t^2) I - a phi^ + b phi phi^T, t = |phi|.
    """
    x, y, z = phi
    t2 = x * x + y * y + z * z
    t = math.sqrt(t2)
    if t < SMALL_ANGLE:
        a, b = 0.5, 1.0 / 6.0
    elif t < math.inf:
        s = math.sin(0.5 * t) / t
        a = 2.0 * s * s  # (1 - cos t) / t^2 without cancellation
        b = (t - math.sin(t)) / (t2 * t)  # its cancellation is O(eps) in b t^2
    else:
        a = b = math.nan
    d, bx, by, bz = 1.0 - b * t2, b * x, b * y, b * z
    return (
        d + bx * x, bx * y + a * z, bx * z - a * y,
        by * x - a * z, d + by * y, by * z + a * x,
        bz * x + a * y, bz * y - a * x, d + bz * z,
    )  # fmt: skip


def rotate_to_earth(q: Array, v_body: Array) -> Array:
    """Coordinates of a body-frame vector on earth axes, q (x) v (x) q*."""
    _check_unit(q, "rotate_to_earth")
    return _rotate(q, v_body)
