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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .quat import _rotate_f

Array = np.ndarray

#: half-span of the synthetic morphing-wing pair [m]
WING_LENGTH = 0.8

#: mass of each synthetic wing point mass [kg]
WING_MASS = 0.5

#: linear rotational damping coefficient of the damped morphing preset
DAMPING_BETA = 0.05

_SYM_TOL = 1e-12

#: CoefficientSet's fields, in order
_FIELDS = ("a_xx", "A_xw", "A_ww", "a_x", "a_w", "a_0")

#: the names a singular or ill-conditioned elimination block's error carries
_MXX, _S = "translational mass block 2 a_xx", "Schur complement S"


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


def _adjugate(m) -> tuple[tuple[float, ...], float]:
    """(adj m, det m) of a row-major 3x3 m by cofactors: adj row-major, det expanded along m's first row."""
    a, b, c, d, e, f, g, h, i = m
    c0, c1, c2 = e * i - f * h, f * g - d * i, d * h - e * g
    adj = (c0, c * h - b * i, b * f - c * e, c1, a * i - c * g, c * d - a * f, c2, b * g - a * h, a * e - b * d)
    return adj, a * c0 + b * c1 + c * c2


def _solve3(m, *rhs, name: str) -> list[tuple[float, ...]]:
    """m^-1 r for each row-major 3x3 r in rhs, by the adjugate of m / max |m_ij|, then x + m^-1 (r - m x) once.

    The scaling keeps the determinant from overflowing or underflowing at any finite scale. The refinement
    step wins back what the cofactors lose to cancellation (up to 50x at condition number 1e3). A finite m
    whose off-diagonal entries are all zero is solved by the correctly rounded quotients r_ij / m_ii instead,
    which no scaling or refinement can improve. Raises np.linalg.LinAlgError "<name>: Singular matrix" for a
    singular m; a non-finite m gives non-finite solutions.
    """
    a, b, c, d, e, f, g, h, i = m
    if not (b or c or d or f or g or h) and all(map(math.isfinite, (a, e, i))):  # a NaN off the diagonal is truthy
        if not (a and e and i):
            raise np.linalg.LinAlgError(f"{name}: Singular matrix")
        return [(r[0] / a, r[1] / a, r[2] / a, r[3] / e, r[4] / e, r[5] / e, r[6] / i, r[7] / i, r[8] / i) for r in rhs]
    s = max(map(abs, m)) if all(map(math.isfinite, m)) else math.nan  # max would skip a NaN
    adj, det = _adjugate([v / s for v in m] if s else m)  # s = 0: m is zero, and singular
    if det == 0.0:
        raise np.linalg.LinAlgError(f"{name}: Singular matrix")
    mi = [v / det / s for v in adj]
    xs = [_mm(mi, r) for r in rhs]
    return [tuple([u + v for u, v in zip(x, _mm(mi, [p - q for p, q in zip(r, _mm(m, x))]))]) for x, r in zip(xs, rhs)]


def _as_matrix(m, name: str) -> Array:
    a = np.array(m, dtype=float)
    if a.shape == ():
        a = np.where(np.eye(3, dtype=bool), a, np.copysign(0.0, a))  # a * eye would give inf * 0 = NaN
    if a.shape != (3, 3):
        raise ValueError(f"{name} must be a scalar or 3x3 matrix, got shape {a.shape}")
    return a


def _check_symmetric(a: Array, name: str) -> None:
    if not np.isfinite(a).all():  # a run stops on a non-finite block with its reason; inf - inf would warn
        return
    e = max(int(np.frexp(np.abs(a).max())[1]), 0)  # at scale 2**-e (exact), no difference or square overflows
    s = np.ldexp(a, -e)
    dev = float(np.linalg.norm(s - s.T))
    if dev > _SYM_TOL * (2.0**-e + float(np.linalg.norm(s))):  # the message scales back in two steps: 2.0**1024 raises
        raise ValueError(f"{name} must be symmetric, asymmetry norm {dev * 2.0 ** (e - 1) * 2.0:g}")


def _field(i: int, shape) -> property:
    def get(self) -> Array:
        a = np.array(self._flat[i]).reshape(shape)
        a.flags.writeable = False
        return a

    return property(get, doc=f"{_FIELDS[i]} as a fresh read-only numpy array.")


class _once(cached_property):
    """cached_property without the lock Python 3.11 takes on each first access; a failure is not kept either."""

    def __get__(self, obj, cls=None):
        return self if obj is None else obj.__dict__.setdefault(self.attrname, self.func(obj))


class CoefficientSet:
    """Coefficients of the body-frame kinetic energy quadratic form.

    a_xx and A_ww must be symmetric; A_xw, the translation-rotation coupling, is free. A scalar for a matrix block
    is that multiple of the identity. A set holds its values once, as Python floats in _flat (a_xx, A_xw, A_ww
    row-major, a_x, a_w, a_0), which every kernel reads; the fields are read-only numpy copies of it (a_0 its float).
    The derived forms are computed on first access and kept, a failure not (_once); elimination_blocks is one flat
    float kernel, with _solve3's reciprocal quotients for a diagonal Mxx. Sets compare and hash by identity.
    """

    a_xx, A_xw, A_ww = (_field(i, (3, 3)) for i in range(3))
    a_x, a_w = _field(3, 3), _field(4, 3)
    a_0 = property(lambda self: self._flat[5], doc="a_0 as a float.")

    def __init__(self, a_xx, A_xw, A_ww, a_x=(0.0, 0.0, 0.0), a_w=(0.0, 0.0, 0.0), a_0: float = 0.0):
        blocks = [_as_matrix(m, f) for m, f in zip((a_xx, A_xw, A_ww), _FIELDS)]
        blocks += [np.array(v, dtype=float).reshape(3) for v in (a_x, a_w)]
        self._flat = (*[tuple(b.ravel().tolist()) for b in blocks], float(a_0))
        _check_symmetric(blocks[0], "a_xx")
        _check_symmetric(blocks[2], "A_ww")

    @classmethod
    def _trusted(cls, a_xx, A_xw, A_ww, a_x, a_w, a_0: float) -> "CoefficientSet":
        """Set from validated row-major float 9-tuples and 3-tuples, with no checks."""
        c = cls.__new__(cls)
        c._flat = (a_xx, A_xw, A_ww, a_x, a_w, a_0)
        return c

    def __add__(self, other: "CoefficientSet") -> "CoefficientSet":
        return CoefficientSet(*[getattr(self, f) + getattr(other, f) for f in _FIELDS])

    @_once
    def elimination_blocks(self) -> tuple:
        """Python-float blocks that eliminate xdot from the momenta g = M v + a.

        With M = [[Mxx, Mxw], [Mwx, Mww]]: row-major Mxx^-1, X = -Mxx^-1 Mxw, the Schur
        complement S = Mww + Mwx X, P = Mwx Mxx^-1, then a_x and a_w, so that
        xdot = Mxx^-1 (g1 - a_x) + X omega and g2 = P (g1 - a_x) + S omega + a_w.
        Raises np.linalg.LinAlgError naming Mxx = 2 a_xx for a singular Mxx and ValueError for non-finite
        blocks: S, P, a_x and a_w are summed, and each entry tested only when that sum is not finite.
        """
        xx, xw, ww, a_x, a_w, _ = self._flat
        (a, b, c, d, e, f, g, h, i), (c0, c1, c2, c3, c4, c5, c6, c7, c8) = xx, xw
        (a, e, i), (d0, d1, d2, d3, d4, d5, d6, d7, d8) = (2.0 * a, 2.0 * e, 2.0 * i), ww
        if not (b or c or d or f or g or h) and 0.0 < abs(a * e * i) < math.inf:  # _solve3's quotients, inline
            mi = (1.0 / a, 0.0 / a, 0.0 / a, 0.0 / e, 1.0 / e, 0.0 / e, 0.0 / i, 0.0 / i, 1.0 / i)
            x = (-c0 / a, -c1 / a, -c2 / a, -c3 / e, -c4 / e, -c5 / e, -c6 / i, -c7 / i, -c8 / i)
        else:  # every other Mxx, a singular or non-finite diagonal one too, raises or is solved there
            eye = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
            mi, x = _solve3([2.0 * v for v in xx], eye, [-v for v in xw], name=_MXX)
        (m0, m1, m2, m3, m4, m5, m6, m7, m8), (x0, x1, x2, x3, x4, x5, x6, x7, x8) = mi, x
        s = (2.0 * d0 + (c0 * x0 + c3 * x3 + c6 * x6), 2.0 * d1 + (c0 * x1 + c3 * x4 + c6 * x7),
             2.0 * d2 + (c0 * x2 + c3 * x5 + c6 * x8), 2.0 * d3 + (c1 * x0 + c4 * x3 + c7 * x6),
             2.0 * d4 + (c1 * x1 + c4 * x4 + c7 * x7), 2.0 * d5 + (c1 * x2 + c4 * x5 + c7 * x8),
             2.0 * d6 + (c2 * x0 + c5 * x3 + c8 * x6), 2.0 * d7 + (c2 * x1 + c5 * x4 + c8 * x7),
             2.0 * d8 + (c2 * x2 + c5 * x5 + c8 * x8))  # fmt: skip
        p = (c0 * m0 + c3 * m3 + c6 * m6, c0 * m1 + c3 * m4 + c6 * m7, c0 * m2 + c3 * m5 + c6 * m8,
             c1 * m0 + c4 * m3 + c7 * m6, c1 * m1 + c4 * m4 + c7 * m7, c1 * m2 + c4 * m5 + c7 * m8,
             c2 * m0 + c5 * m3 + c8 * m6, c2 * m1 + c5 * m4 + c8 * m7, c2 * m2 + c5 * m5 + c8 * m8)  # fmt: skip
        # S and P carry a non-finite entry of Mxx^-1 or X (inf times 0 is NaN); a finite sum has finite terms
        if not math.isfinite(sum(v := (*s, *p, *a_x, *a_w))) and not all(map(math.isfinite, v)):
            raise ValueError("non-finite coefficients")
        return mi, x, s, p, a_x, a_w

    @_once
    def schur_inverse(self) -> tuple[float, ...]:
        """Row-major S^-1 for elimination_blocks' Schur complement S, which recovers omega from the momenta.

        Raises np.linalg.LinAlgError naming S for a singular S, and ValueError naming the block for Mxx = 2 a_xx
        or S with a 1-norm condition estimate |m|_1 |m^-1|_1 above 1e12.
        """
        mi, _, s, _, _, _ = self.elimination_blocks
        (si,) = _solve3(s, (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), name=_S)
        mxx = [2.0 * v for v in self._flat[0]]
        for name, m, inv in ((_MXX, mxx, mi), (_S, s, si)):
            cond = math.prod(max(abs(a[j]) + abs(a[j + 3]) + abs(a[j + 6]) for j in (0, 1, 2)) for a in (m, inv))
            if not cond <= 1e12:
                raise ValueError(f"{name}: condition estimate {cond:.3g} exceeds 1e12")
        return si


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
        for name, size in (("t", ()), ("q", 4), ("x_e", 3), ("xdot_b", 3), ("omega_b", 3)):
            v = np.array(getattr(self, name), dtype=float).reshape(size)
            v.flags.writeable = False  # the checks hold for the object's lifetime
            if not np.isfinite(v).all():
                raise ValueError(f"BodyState.{name} has non-finite components")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "t", float(self.t))
        n = float(np.sqrt(self.q @ self.q))
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"BodyState.q norm {n!r} is not 1 within 1e-6")


# velocity-level kernels shared with the integrators (hot path, no BodyState)


def _energy_momenta(f: tuple, xd, om) -> tuple[float, list[float], list[float]]:
    """T = (1/2) v.M v + a.v + a_0 and (D1, D2) = M v + a at v = (xd, om), _flat f; each M v row sums left to right."""
    xx, xw, ww, a_x, a_w, a_0 = f
    (b0, b1, b2, b3, b4, b5, b6, b7, b8), (c0, c1, c2, c3, c4, c5, c6, c7, c8) = xx, xw
    d0, d1, d2, d3, d4, d5, d6, d7, d8 = ww
    (x, y, z), (u, v, w) = xd, om
    m0 = 2.0 * b0 * x + 2.0 * b1 * y + 2.0 * b2 * z + c0 * u + c1 * v + c2 * w
    m1 = 2.0 * b3 * x + 2.0 * b4 * y + 2.0 * b5 * z + c3 * u + c4 * v + c5 * w
    m2 = 2.0 * b6 * x + 2.0 * b7 * y + 2.0 * b8 * z + c6 * u + c7 * v + c8 * w
    m3 = c0 * x + c3 * y + c6 * z + 2.0 * d0 * u + 2.0 * d1 * v + 2.0 * d2 * w
    m4 = c1 * x + c4 * y + c7 * z + 2.0 * d3 * u + 2.0 * d4 * v + 2.0 * d5 * w
    m5 = c2 * x + c5 * y + c8 * z + 2.0 * d6 * u + 2.0 * d7 * v + 2.0 * d8 * w
    t = (0.5 * (x * m0 + y * m1 + z * m2 + u * m3 + v * m4 + w * m5)
         + (a_x[0] * x + a_x[1] * y + a_x[2] * z + a_w[0] * u + a_w[1] * v + a_w[2] * w) + a_0)  # fmt: skip
    return t, [m0 + a_x[0], m1 + a_x[1], m2 + a_x[2]], [m3 + a_w[0], m4 + a_w[1], m5 + a_w[2]]


def _canonical_f(q, xd, om, f: tuple, h: float) -> tuple[float, tuple, list[float]]:
    """T and the discrete canonical momenta (p_x, p_w) of canonical_momenta at a set's _flat f, as _energy_momenta."""
    t, d1, d2 = _energy_momenta(f, xd, om)
    m = _cx(om, d2)
    return t, _rotate_f(q, d1), [d2[i] + 0.5 * h * m[i] for i in range(3)]


def kinetic_energy(s: BodyState, c: CoefficientSet) -> float:
    """Kinetic energy of a state under a coefficient set [J]."""
    return _energy_momenta(c._flat, s.xdot_b.tolist(), s.omega_b.tolist())[0]


def energy_grad_xdot(s: BodyState, c: CoefficientSet) -> Array:
    """dT/dxdot, the body-frame translational momentum block."""
    return np.array(_energy_momenta(c._flat, s.xdot_b.tolist(), s.omega_b.tolist())[1])


def energy_grad_omega(s: BodyState, c: CoefficientSet) -> Array:
    """dT/domega, the body-frame rotational momentum block."""
    return np.array(_energy_momenta(c._flat, s.xdot_b.tolist(), s.omega_b.tolist())[2])


def canonical_momenta(s: BodyState, c: CoefficientSet, h: float) -> tuple[Array, Array]:
    """Discrete canonical momenta (p_x on earth axes, p_w on body axes).

    p_x = q (x) D1 (x) q* and p_w = D2 + (h/2) omega x D2; the h term is the
    discrete left-rectangle correction, so p_w depends on the step size.
    """
    _, p_x, p_w = _canonical_f(s.q.tolist(), s.xdot_b.tolist(), s.omega_b.tolist(), c._flat, h)
    return np.array(p_x), np.array(p_w)


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
        self.c.flags.writeable = self.I_ref.flags.writeable = False
        if not 0.0 < self.m < math.inf:
            raise ValueError("RigidParams.m must be positive and finite")
        for name in ("c", "I_ref"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"RigidParams.{name} has non-finite components")
        _check_symmetric(self.I_ref, "I_ref")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as a non-finite entry
            if not (np.isfinite(self.m * self.c).all() and np.isfinite(self.com_inertia()).all()):
                raise ValueError("RigidParams.c makes m c or the inertia about the center of mass non-finite")

    def com_inertia(self) -> Array:
        """Inertia tensor about the center of mass (parallel axis theorem)."""
        c = self.c
        return self.I_ref - self.m * (float(c @ c) * np.eye(3) - np.outer(c, c))


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


Floats = Sequence[float]
ForceFn = Callable[[float, Floats, Floats, Floats, Floats], tuple[Floats, Floats]]


@dataclass(frozen=True)
class MorphingSchedule:
    """Time-dependent model: coefficients and applied forces.

    coefficients(t) returns the CoefficientSet at time t. force(t, q, x_e,
    xdot_b, omega_b) takes a state as BodyState's fields, t a float and the
    rest sequences of Python floats, and returns (F earth axes, torque body
    axes) as two 3-sequences of numbers. force_free marks schedules whose force
    callback is identically zero, which lets integrators skip it. It has no
    default: a schedule marked force free never has its force called.
    """

    name: str
    coefficients: Callable[[float], CoefficientSet]
    force: ForceFn
    force_free: bool


def _zero_force(t, q, x_e, xdot_b, omega_b) -> tuple[Floats, Floats]:
    return (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)


def constant_schedule(c: CoefficientSet, name: str = "free_body") -> MorphingSchedule:
    """Force-free schedule with fixed coefficients."""
    return MorphingSchedule(name=name, coefficients=lambda t: c, force=_zero_force, force_free=True)


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
        a_w=m * np.cross(r, rdot),
        a_0=0.5 * m * float(rdot @ rdot),
    )


def _wing_state(t: float) -> tuple[float, float, float, float]:
    """(a, b, adot, bdot): the + wing sits at (0, a, b) and moves at (0, adot, bdot), the - wing mirrors y."""
    th, thd = math.sin(t), math.cos(t)  # sweep and its rate; incidence -thd / 2, rate th / 2; each sine and cosine once
    s_th, c_th, s_ph, c_ph = math.sin(th), math.cos(th), math.sin(-0.5 * thd), math.cos(-0.5 * thd)
    a, b, bd = WING_LENGTH * c_th * c_ph, WING_LENGTH * s_th, WING_LENGTH * c_th * thd
    ad = WING_LENGTH * (-s_th * thd * c_ph - c_th * s_ph * (0.5 * th))
    return a, b, ad, bd


def wing_motion(t: float) -> tuple[Array, Array, Array, Array]:
    """Positions and velocities (r+, rdot+, r-, rdot-) of the synthetic wing pair.

    Sweep theta = sin(t) and incidence phi = -0.5 cos(t) move each wing tip to
    (0, +-L cos(theta) cos(phi), L sin(theta)) on body axes.
    """
    a, b, ad, bd = _wing_state(t)
    return np.array([0.0, a, b]), np.array([0.0, ad, bd]), np.array([0.0, -a, b]), np.array([0.0, -ad, bd])


def preset_morphing(damping: bool = False) -> MorphingSchedule:
    """Synthetic morphing-wing model: rigid fuselage plus two moving point masses.

    The fuselage reuses the free-body fixture; each wing is a point mass of
    WING_MASS at the wing_motion positions. With damping enabled the force
    callback applies the body torque -DAMPING_BETA omega, standing in for
    aerodynamic dissipation; otherwise the schedule is force free.

    coefficients(t) adds the mirrored pair in closed form, equal to the sum of
    its two point_mass_coefficients sets; with r = (0, +-a, b), a_w cancels.
    """
    xx, xw, ww, f_x, f_w, f_0 = preset_free_body()[0]._flat
    m = WING_MASS
    a_xx = (xx[0] + m, *xx[1:4], xx[4] + m, *xx[5:8], xx[8] + m)  # the pair's m I, the same at every t

    def coefficients(t: float) -> CoefficientSet:
        a, b, ad, bd = _wing_state(t)
        rr, mb = a * a + b * b, 2.0 * m * b
        return CoefficientSet._trusted(
            a_xx,
            (xw[0], xw[1] + mb, xw[2], xw[3] - mb, *xw[4:]),
            (ww[0] + m * rr, *ww[1:4], ww[4] + m * (rr - a * a), *ww[5:8], ww[8] + m * (rr - b * b)),
            (*f_x[:2], f_x[2] + 2.0 * m * bd), f_w, f_0 + m * (ad * ad + bd * bd),
        )  # fmt: skip

    def damped(t, q, x_e, xdot_b, omega_b) -> tuple[Floats, Floats]:
        return (0.0, 0.0, 0.0), [-DAMPING_BETA * w for w in omega_b]

    return MorphingSchedule(
        name="morphing",
        coefficients=coefficients,
        force=damped if damping else _zero_force,
        force_free=not damping,
    )
