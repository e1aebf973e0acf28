"""Body-frame kinetic-energy model for coupled rigid and morphing vehicles.

The kinetic energy is a quadratic form in the body-frame reference-point
velocity xdot and angular velocity omega,

    T = xdot.a_xx.xdot + xdot.A_xw.omega + xdot.a_x
      + omega.A_ww.omega + omega.a_w + a_0

with the 1/2 of the usual quadratic forms folded into the coefficients
(a rigid body of mass m has a_xx = (m/2) I). The gradients

    D1 = dT/dxdot = 2 a_xx xdot + A_xw omega + a_x
    D2 = dT/domega = 2 A_ww omega + A_xw^T xdot + a_w

are the body-frame momentum blocks the integrators in
:mod:`qvint.integrators` balance step to step. Shape changes (morphing) enter
through time-dependent coefficients produced by a :class:`MorphingSchedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .quat import _rotate

Array = np.ndarray

#: half-span of the synthetic morphing-wing pair [m]
WING_LENGTH = 0.8

#: mass of each synthetic wing point mass [kg]
WING_MASS = 0.5

#: linear rotational damping coefficient of the damped morphing preset
DAMPING_BETA = 0.05

_SYM_TOL = 1e-12


def skew(v: Array) -> Array:
    """Cross-product matrix: skew(v) @ w == v x w."""
    return np.array(_skew(np.asarray(v, dtype=float).tolist())).reshape(3, 3)


# kernels on sequences of Python floats: 3-vectors, and 3x3 matrices as row-major 9-sequences


def _mv(m, v) -> tuple[float, float, float]:
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    x, y, z = v
    return (m0 * x + m1 * y + m2 * z, m3 * x + m4 * y + m5 * z, m6 * x + m7 * y + m8 * z)


def _mm(a, b) -> tuple[float, ...]:
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (
        a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8,
    )  # fmt: skip


def _cx(a, b) -> tuple[float, float, float]:
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _skew(v) -> tuple[float, ...]:
    x, y, z = v
    return (0.0, -z, y, z, 0.0, -x, -y, x, 0.0)


def _cross(a: Array, b: Array) -> Array:
    """Hand-rolled 3-vector cross product (np.cross is slow on (3,) inputs)."""
    return np.array(_cx(a.tolist(), b.tolist()))


def _as_matrix(m, name: str) -> Array:
    a = np.array(m, dtype=float)
    if a.shape == ():
        a = a * np.eye(3)
    if a.shape != (3, 3):
        raise ValueError(f"{name} must be a scalar or 3x3 matrix, got shape {a.shape}")
    return a


def _check_symmetric(a: Array, name: str) -> None:
    dev = float(np.linalg.norm(a - a.T))
    if dev > _SYM_TOL * (1.0 + float(np.linalg.norm(a))):
        raise ValueError(f"{name} must be symmetric, asymmetry norm {dev:g}")


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of the body-frame kinetic energy quadratic form.

    a_xx and A_ww must be symmetric; A_xw carries the translation-rotation
    coupling and is unrestricted. Scalars passed for the matrix blocks are
    promoted to multiples of the identity.
    """

    a_xx: Array
    A_xw: Array
    A_ww: Array
    a_x: Array = field(default_factory=lambda: np.zeros(3))
    a_w: Array = field(default_factory=lambda: np.zeros(3))
    a_0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a_xx", _as_matrix(self.a_xx, "a_xx"))
        object.__setattr__(self, "A_xw", _as_matrix(self.A_xw, "A_xw"))
        object.__setattr__(self, "A_ww", _as_matrix(self.A_ww, "A_ww"))
        object.__setattr__(self, "a_x", np.array(self.a_x, dtype=float).reshape(3))
        object.__setattr__(self, "a_w", np.array(self.a_w, dtype=float).reshape(3))
        object.__setattr__(self, "a_0", float(self.a_0))
        _check_symmetric(self.a_xx, "a_xx")
        _check_symmetric(self.A_ww, "A_ww")

    def __add__(self, other: "CoefficientSet") -> "CoefficientSet":
        return CoefficientSet(
            self.a_xx + other.a_xx,
            self.A_xw + other.A_xw,
            self.A_ww + other.A_ww,
            self.a_x + other.a_x,
            self.a_w + other.a_w,
            self.a_0 + other.a_0,
        )

    def mass_matrix(self) -> Array:
        """Cached, read-only 6x6 velocity-to-momentum map [[2 a_xx, A_xw], [A_xw^T, 2 A_ww]]."""
        m = self.__dict__.get("_mass")
        if m is None:
            m = np.block([[2.0 * self.a_xx, self.A_xw], [self.A_xw.T, 2.0 * self.A_ww]])
            m.flags.writeable = False
            object.__setattr__(self, "_mass", m)
        return m

    def momentum_offset(self) -> Array:
        """Cached, read-only 6-vector a = (a_x, a_w): the momenta M v + a at rest."""
        a = self.__dict__.get("_offset")
        if a is None:
            a = np.concatenate((self.a_x, self.a_w))
            a.flags.writeable = False
            object.__setattr__(self, "_offset", a)
        return a

    def elimination_blocks(self) -> tuple:
        """Cached Python-float blocks that eliminate xdot from the momenta g = M v + a.

        With M = [[Mxx, Mxw], [Mwx, Mww]]: row-major Mxx^-1, X = -Mxx^-1 Mxw, the Schur
        complement S = Mww + Mwx X, P = Mwx Mxx^-1, then a_x and a_w, so that
        xdot = Mxx^-1 (g1 - a_x) + X omega and g2 = P (g1 - a_x) + S omega + a_w.
        """
        b = self.__dict__.get("_elim")
        if b is None:
            m = self.mass_matrix()
            mi = np.linalg.inv(m[:3, :3])  # LinAlgError, a ValueError, when singular
            x = -mi @ m[:3, 3:]
            b = [mi, x, m[3:, 3:] + m[3:, :3] @ x, m[3:, :3] @ mi, self.a_x, self.a_w]
            if not np.isfinite(np.concatenate([a.ravel() for a in b])).all():
                raise ValueError("non-finite coefficients")
            b = tuple([tuple(a.ravel().tolist()) for a in b])
            object.__setattr__(self, "_elim", b)
        return b

    def velocity_inverse(self) -> Array:
        """Cached inverse of the mass matrix, for momentum-to-velocity recovery."""
        inv = self.__dict__.get("_vinv")
        if inv is None:
            m = self.mass_matrix()
            if np.linalg.cond(m) > 1e12:
                raise ValueError("velocity-recovery matrix is singular or near singular")
            inv = np.linalg.inv(m)
            object.__setattr__(self, "_vinv", inv)
        return inv


@dataclass(frozen=True)
class BodyState:
    """Trajectory sample: time, orientation, position and body-frame velocities.

    q maps body to earth axes (scalar first); x_e is the reference-point
    position on earth axes; xdot_b and omega_b are the linear and angular
    velocity on body axes.
    """

    t: float
    q: Array
    x_e: Array
    xdot_b: Array
    omega_b: Array

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "q", np.array(self.q, dtype=float).reshape(4))
        object.__setattr__(self, "x_e", np.array(self.x_e, dtype=float).reshape(3))
        object.__setattr__(self, "xdot_b", np.array(self.xdot_b, dtype=float).reshape(3))
        object.__setattr__(self, "omega_b", np.array(self.omega_b, dtype=float).reshape(3))
        # one test over all 13 components; the per-field pass only names the culprit
        if not np.isfinite(np.concatenate((self.q, self.x_e, self.xdot_b, self.omega_b))).all():
            bad = next(n for n in ("q", "x_e", "xdot_b", "omega_b") if not np.isfinite(getattr(self, n)).all())
            raise ValueError(f"BodyState.{bad} has non-finite components")
        n = float(np.sqrt(self.q @ self.q))
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"BodyState.q norm {n!r} is not 1 within 1e-6")


# velocity-level kernels shared with the integrators (hot path, no BodyState)


def _energy_v(v: Array, c: CoefficientSet) -> float:
    """T = (1/2) v.M v + a.v + a_0 at the stacked velocities v = (xdot, omega)."""
    return float(0.5 * (v @ (c.mass_matrix() @ v)) + c.momentum_offset() @ v + c.a_0)


def _momenta_v(v: Array, c: CoefficientSet) -> Array:
    """Momenta g = M v + a = (D1, D2) at the stacked velocities v = (xdot, omega)."""
    return c.mass_matrix() @ v + c.momentum_offset()


def kinetic_energy(s: BodyState, c: CoefficientSet) -> float:
    """Kinetic energy of a state under a coefficient set [J]."""
    return _energy_v(np.concatenate((s.xdot_b, s.omega_b)), c)


def energy_grad_xdot(s: BodyState, c: CoefficientSet) -> Array:
    """dT/dxdot, the body-frame translational momentum block."""
    return _momenta_v(np.concatenate((s.xdot_b, s.omega_b)), c)[:3]


def energy_grad_omega(s: BodyState, c: CoefficientSet) -> Array:
    """dT/domega, the body-frame rotational momentum block."""
    return _momenta_v(np.concatenate((s.xdot_b, s.omega_b)), c)[3:]


def _canonical_momenta_v(q: Array, v: Array, c: CoefficientSet, h: float) -> tuple[Array, Array]:
    g = _momenta_v(v, c)
    g2 = g[3:]
    return _rotate(q, g[:3]), g2 + (0.5 * h) * _cross(v[3:], g2)


def canonical_momenta(s: BodyState, c: CoefficientSet, h: float) -> tuple[Array, Array]:
    """Discrete canonical momenta (p_x on earth axes, p_w on body axes).

    p_x = q (x) D1 (x) q* and p_w = D2 + (h/2) omega x D2; the h term is the
    discrete left-rectangle correction, so p_w depends on the step size.
    """
    return _canonical_momenta_v(s.q, np.concatenate((s.xdot_b, s.omega_b)), c, h)


@dataclass(frozen=True)
class RigidParams:
    """Mass properties of a single rigid body about a body-frame reference point.

    m is the total mass, c the center-of-mass offset from the reference point
    on body axes, I_ref the inertia tensor about the reference point.
    """

    m: float
    c: Array
    I_ref: Array

    def __post_init__(self):
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "c", np.array(self.c, dtype=float).reshape(3))
        object.__setattr__(self, "I_ref", _as_matrix(self.I_ref, "I_ref"))
        _check_symmetric(self.I_ref, "I_ref")
        if self.m <= 0.0:
            raise ValueError("RigidParams.m must be positive")

    def com_inertia(self) -> Array:
        """Inertia tensor about the center of mass (parallel axis theorem)."""
        c = self.c
        return self.I_ref - self.m * (float(c @ c) * np.eye(3) - np.outer(c, c))


def _physical_momenta_v(
    q: Array, xdot: Array, omega: Array, rp: RigidParams, i_com: Array
) -> tuple[Array, Array]:
    return rp.m * _rotate(q, xdot + _cross(omega, rp.c)), _rotate(q, i_com @ omega)


def rigid_coefficients(rp: RigidParams) -> CoefficientSet:
    """Energy coefficients of a single rigid body about its reference point."""
    return CoefficientSet(
        a_xx=0.5 * rp.m * np.eye(3),
        A_xw=rp.m * skew(rp.c).T,
        A_ww=0.5 * rp.I_ref,
    )


def preset_free_body() -> tuple[CoefficientSet, RigidParams]:
    """Rigid biomimetic-aircraft fixture used by the free-body scenario.

    m = 8 kg, c = (0.79375, 0, 0.005) m and I_ref = 2 A_ww, so
    rigid_coefficients gives a_xx = 4 I and A_xw = m skew(c)^T, whose nonzero
    entries are +-0.04 and +-6.35.
    """
    A_ww = np.array([[0.2342, 0.0, -6.4761e-5], [0.0, 3.0539, 0.0], [-6.4761e-5, 0.0, 3.2699]])
    rp = RigidParams(m=8.0, c=(0.79375, 0.0, 0.005), I_ref=2.0 * A_ww)
    return rigid_coefficients(rp), rp


ForceFn = Callable[[BodyState, float], tuple[Array, Array]]


@dataclass(frozen=True)
class MorphingSchedule:
    """Time-dependent model: coefficients and applied forces.

    coefficients(t) returns the CoefficientSet at time t; force(s, t) returns
    (F earth axes, torque body axes). force_free marks schedules whose force
    callback is identically zero, which lets integrators skip it. It has no
    default: a schedule marked force free never has its force called.
    """

    name: str
    coefficients: Callable[[float], CoefficientSet]
    force: ForceFn
    force_free: bool


def _zero_force(s: BodyState, t: float) -> tuple[Array, Array]:
    return np.zeros(3), np.zeros(3)


def constant_schedule(
    c: CoefficientSet, name: str = "free_body", force: ForceFn | None = None
) -> MorphingSchedule:
    """Schedule with fixed coefficients and an optional force callback."""
    return MorphingSchedule(
        name=name,
        coefficients=lambda t: c,
        force=force if force is not None else _zero_force,
        force_free=force is None,
    )


def point_mass_coefficients(m: float, r: Array, rdot: Array) -> CoefficientSet:
    """Energy coefficients of one point mass at body position r moving at rdot.

    Derived from T = (m/2) |xdot + omega x r + rdot|^2 expanded in the
    coefficient form; rdot is the shape-change velocity seen on body axes.
    """
    r = np.asarray(r, dtype=float)
    rdot = np.asarray(rdot, dtype=float)
    return CoefficientSet(
        a_xx=0.5 * m * np.eye(3),
        A_xw=m * skew(r).T,
        A_ww=0.5 * m * (float(r @ r) * np.eye(3) - np.outer(r, r)),
        a_x=m * rdot,
        a_w=m * _cross(r, rdot),
        a_0=0.5 * m * float(rdot @ rdot),
    )


def wing_motion(t: float) -> tuple[Array, Array, Array, Array]:
    """Positions and velocities (r+, rdot+, r-, rdot-) of the synthetic wing pair.

    Sweep theta = sin(t) and incidence phi = -0.5 cos(t) move each wing tip to
    (0, +-L cos(theta) cos(phi), L sin(theta)) on body axes.
    """
    th = np.sin(t)
    ph = -0.5 * np.cos(t)
    thd = np.cos(t)
    phd = 0.5 * np.sin(t)
    a = WING_LENGTH * np.cos(th) * np.cos(ph)
    b = WING_LENGTH * np.sin(th)
    ad = WING_LENGTH * (-np.sin(th) * thd * np.cos(ph) - np.cos(th) * np.sin(ph) * phd)
    bd = WING_LENGTH * np.cos(th) * thd
    r_p = np.array([0.0, a, b])
    r_m = np.array([0.0, -a, b])
    rdot_p = np.array([0.0, ad, bd])
    rdot_m = np.array([0.0, -ad, bd])
    return r_p, rdot_p, r_m, rdot_m


def preset_morphing(damping: bool = False) -> MorphingSchedule:
    """Synthetic morphing-wing model: rigid fuselage plus two moving point masses.

    The fuselage reuses the free-body fixture; each wing is a point mass of
    WING_MASS at the wing_motion positions. With damping enabled the force
    callback applies the body torque -DAMPING_BETA omega, standing in for
    aerodynamic dissipation; otherwise the schedule is force free.
    """
    fuselage, _ = preset_free_body()

    def coefficients(t: float) -> CoefficientSet:
        r_p, rdot_p, r_m, rdot_m = wing_motion(t)
        return (
            fuselage
            + point_mass_coefficients(WING_MASS, r_p, rdot_p)
            + point_mass_coefficients(WING_MASS, r_m, rdot_m)
        )

    def damped(s: BodyState, t: float) -> tuple[Array, Array]:
        return np.zeros(3), -DAMPING_BETA * s.omega_b

    return MorphingSchedule(
        name="morphing",
        coefficients=coefficients,
        force=damped if damping else _zero_force,
        force_free=not damping,
    )
