"""Quaternion algebra for body orientation.

Conventions used throughout the package:

* quaternions are numpy arrays of shape (4,), scalar first: q = [w, x, y, z]
* Hamilton product, i*j = k
* unit q maps body to earth axes: v_e = q (x) v_b (x) q*, v_b = q* (x) v_e (x) q
* exp_map(t) = (cos|t|, sin|t| * t/|t|), so the 1/2 of a half-angle rotation
  lives in the caller's argument, not in the map

All functions take and return float64 arrays and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray

#: below this rotation-vector norm exp_map uses its series expansion
SMALL_ANGLE = 1e-8

#: unit-norm precondition tolerance for rotate_to_earth
UNIT_TOL = 1e-9


def identity_quat() -> Array:
    """Return the identity quaternion [1, 0, 0, 0]."""
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_mul(a: Array, b: Array) -> Array:
    """Hamilton product a (x) b, both shape (4,)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


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


def exp_map(theta: Array) -> Array:
    """Exponential map of a rotation vector, shape (3,) -> unit quaternion.

    exp_map(theta) = (cos|theta|, sin|theta| * theta/|theta|). Series below
    SMALL_ANGLE avoids 0/0 at the origin.
    """
    t2 = float(theta @ theta)
    t = np.sqrt(t2)
    if t < SMALL_ANGLE:
        w = 1.0 - 0.5 * t2
        s = 1.0 - t2 / 6.0
    else:
        w = np.cos(t)
        s = np.sin(t) / t
    return np.array([w, s * theta[0], s * theta[1], s * theta[2]])


def _rotate(q: Array, v: Array) -> Array:
    """Unchecked q (x) v (x) q* for unit q, expanded to avoid two full products."""
    w, x, y, z = q
    vx, vy, vz = v
    # t = 2 (q_vec x v)
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    # v' = v + w t + q_vec x t
    return np.array(
        [
            vx + w * tx + y * tz - z * ty,
            vy + w * ty + z * tx - x * tz,
            vz + w * tz + x * ty - y * tx,
        ]
    )


def rotate_to_earth(q: Array, v_body: Array) -> Array:
    """Coordinates of a body-frame vector on earth axes, q (x) v (x) q*."""
    _check_unit(q, "rotate_to_earth")
    return _rotate(q, v_body)
