"""Variational timesteppers for the coupled body model.

Two implicit one-step schemes advance a body state by a fixed step h. Both
discretize the same momentum balance and differ only in the quadrature of the
underlying action sum:

* left-rectangle: velocities live at step points; orientation advances with
  the explicit exponential update before each solve.
* midpoint: velocities live at step midpoints; the midpoint orientation is
  reconstructed in closed form from the unknown midpoint rate, which keeps
  the scheme self-adjoint.

Each step solves the 6-component momentum balance for the new velocities. It is
linear in xdot for a fixed rate omega, so its translational row is solved in
closed form and Newton runs on omega alone, on Python floats (halving line
search, warm start from the previous rate, adjugate solve with the exact 3x3
Jacobian, formed once and kept while the iteration contracts 100-fold, fresh
only when it does not or when a kept one stalls). The translational row holds by
construction, and a step carries the translational momentum it received forward
unchanged. Each scheme's residual (residual_left, residual_mid) and its exact
derivative (jacobian_left, jacobian_mid) wrap one balance evaluation
(_left_eval, _mid_eval): Newton calls it once per iterate and the Jacobian
reuses its terms. A classical RK4 baseline on the momentum form of the equations
of motion is included for accuracy comparisons; it is not structure preserving,
but it shares their elimination blocks (velocity recovery, _velocities) and
_advance (orientation update). Each scheme's balance, its Jacobian and left's setup,
rk's four-stage step, velocity recovery and stage rate (_rk_rate), and the elimination blocks, once
per set (CoefficientSet.elimination_blocks), are flat float kernels that rotate through
_rotate_f and follow the operand order of _mv, _mm, _cx, _skew and _solve3's quotients:
records keep every bit, as the Jacobians (with left's constant part K0) drop only
products with a skew matrix's zeros, which can change only the sign of a zero entry.

A run is a chain of StepResult links on Python floats, one contract for all three methods: a link's
history is the momentum the next step starts from (left's and mid's outgoing momentum, rk's
body-axes momenta) and its coefficients only feed the record. seed_step makes the first link and
each stepper, step(prev, t, sched, cfg), the next one at the grid time t = t0 + k h that integrate
computes from k, or raises ValueError (SingularJacobianError, a subclass, for a failed rate solve).
integrate evaluates the record's conserved quantities from each link's point, velocities and coefficients,
the seed's first, in numpy blocks of 128 steps with the float kernels (bit for bit), a coefficient field the
block's rows share by identity as the set's floats and each other as stacked columns. A forced schedule's force
reads a probe state's floats through _force, once per rk stage and once per left or mid step, at the node its
balance is written at with the previous link's velocities (left's new step point, mid's starting link), as six
numbers (text or an int past the float range stops the run as a non-finite entry does). left and mid add the
impulse h (F, torque) to the six momentum entries they carry (mid adds the torque unrotated and a full h F at
node 0), rk adds (F, torque) to each stage's rates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .diagnostics import TrajectoryRecord
from .model import BodyState, CoefficientSet, MorphingSchedule, RigidParams, _adjugate, _canonical_f, _cx
from .model import _energy_momenta, _mv
from .quat import _exp_f, _mul_f, _right_jacobian, _rotate_f

Array = np.ndarray
Vec3 = tuple[float, float, float]
Quat = tuple[float, float, float, float]

_METHODS = ("left", "mid", "rk")


class SingularJacobianError(ValueError):
    """A failed rate solve (non-finite residual, unusable Jacobian, no convergence): a step failure, so a ValueError."""


@dataclass(frozen=True)
class SolverConfig:
    """Step size and Newton parameters shared by both variational schemes.

    residual_tol is relative: each step solves its balance defect to residual_tol
    times the norm of the momentum it starts from (its history), floored at 1.
    """

    h: float
    residual_tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        for name in ("h", "residual_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"SolverConfig.{name} must be positive and finite")
        if not (hasattr(type(self.max_iter), "__index__") and operator.index(self.max_iter) >= 1):
            raise ValueError("SolverConfig.max_iter must be an integer of at least 1")


class NewtonResult(NamedTuple):
    x: Vec3
    iterations: int
    residual_norm: float
    converged: bool
    terms: object  # what the residual returned beside r at x


class StepResult(NamedTuple):
    """One link of a run's chain, on Python floats: an accepted step, the state it reached and how.

    t, q, x_e, xdot_b, omega_b are BodyState's fields (t the grid time the stepper was given; for mid, the fresh
    midpoint's velocities). history is the momentum the next step starts from: for left and mid the outgoing
    momentum of the solved balance (carried[:3] verbatim, since the reduced solve balances it by construction,
    and a rotational part from the solve's own terms, so the momentum sum telescopes to the Newton floor); for
    rk the body-axes momenta (D1, D2) it integrates, which the link's velocities are recovered from. carried is
    the outgoing momentum plus step impulse the solve balanced (None for rk and the seed). point is the
    orientation where the record evaluates the step's conserved quantities with the link's own xdot_b and
    omega_b (q for left and rk, the new midpoint's q_t for mid), and coeffs is the coefficient set at its time
    (t for left and rk, the new midpoint for mid). No stepper reads coeffs: integrate holds the state, point and
    coeffs._flat, never the link or the set, until it evaluates their block of rows.
    """

    t: float
    q: Quat
    x_e: Vec3
    xdot_b: Vec3
    omega_b: Vec3
    history: tuple
    carried: tuple | None
    point: Quat
    coeffs: CoefficientSet
    iterations: int
    residual_norm: float


def newton_solve(
    residual: Callable[[Vec3], tuple[Sequence[float], object]],
    jacobian: Callable[[Vec3, object], Sequence[float]],
    guess,
    tol: float,
    max_iter: int,
) -> NewtonResult:
    """Damped Newton iteration on a residual in three unknowns, on Python floats.

    residual(x) takes a 3-tuple and returns (r, terms): the 3 residual floats
    and what their evaluation shares with the derivative. jacobian(x, terms)
    returns the derivative at x as 9 row-major floats. The 3x3 system is solved
    in closed form (adjugate over determinant), and the adjugate and
    determinant are kept: the next iteration reuses them if the step just taken
    was a full step (no halving) that cut the residual norm at least 100-fold,
    and forms a fresh Jacobian at its iterate otherwise (simplified Newton with
    a convergence monitor, Hairer & Wanner, Solving ODEs II, IV.8). A reused
    Jacobian converges only linearly, so the guard keeps full Newton until the
    iteration contracts fast: with a 10-fold guard x^2 = 4 from (3, 2.5, 5)
    takes 13 iterations, and the unguarded chord method does not converge there
    within 50. From a warm start near the root one Jacobian serves the solve.
    The result carries the terms of the returned x. Halving line search on the
    residual norm (at most 8 halvings). One polish iteration after the
    tolerance is first met, kept only when it improves the residual, drives the
    balance defect to the roundoff floor so momentum sums telescoped over many
    steps stay at machine precision. Raises SingularJacobianError for a
    non-finite residual or an unusable Jacobian (a zero or non-finite
    determinant, which any non-finite entry gives, or a step beyond
    1e12 (1 + |x|)); a stalled line search returns converged=False. A reused
    Jacobian neither raises nor stalls: where a fresh one would, it is
    replaced by a fresh one at the same x. tol is the absolute tolerance on
    the residual norm; at most max_iter iterations run.
    """
    g0, g1, g2 = guess
    x = x0, x1, x2 = float(g0), float(g1), float(g2)
    (r0, r1, r2), terms = residual(x)
    rn = math.hypot(r0, r1, r2)
    iterations = 0
    polish_left = 1
    if 0 < max_iter and not math.isfinite(rn):  # a trial is accepted only below rn, so no later rn is non-finite
        raise SingularJacobianError("residual is non-finite")
    # the kept Jacobian as its adjugate (9 row-major floats) and determinant det; dividing by det
    # last makes a step whose adj @ r overflows non-finite, and so rejected
    adj = None
    while iterations < max_iter:
        if rn <= tol:
            if polish_left == 0 or rn == 0.0:
                break
            polish_left -= 1
        fresh = adj is None
        if fresh:
            adj, det = _adjugate(jacobian(x, terms))
            if det == 0.0:
                raise SingularJacobianError("singular Jacobian: zero determinant")
            if not math.isfinite(det):
                raise SingularJacobianError("Jacobian determinant is non-finite")
            a0, a1, a2, a3, a4, a5, a6, a7, a8 = adj
        d0 = -(a0 * r0 + a1 * r1 + a2 * r2) / det
        d1 = -(a3 * r0 + a4 * r1 + a5 * r2) / det
        d2 = -(a6 * r0 + a7 * r1 + a8 * r2) / det
        # the comparison is also false for a step with NaN or infinite entries
        if not math.hypot(d0, d1, d2) <= 1e12 * (1.0 + math.hypot(x0, x1, x2)):
            if fresh:
                raise SingularJacobianError("Jacobian is numerically singular")
            adj = None
            continue
        iterations += 1
        alpha, x_try = 1.0, (x0 + d0, x1 + d1, x2 + d2)  # the full step first: x + 1.0 dx has the bits of x + dx
        while True:  # trials at alpha = 1, 1/2, ..., 1/256
            (t0, t1, t2), terms_try = residual(x_try)
            rn_try = math.hypot(t0, t1, t2)
            if rn_try < rn or alpha == 1.0 / 256:
                break
            alpha *= 0.5
            x_try = (x0 + alpha * d0, x1 + alpha * d1, x2 + alpha * d2)
        if rn_try < rn:
            if alpha < 1.0 or 100.0 * rn_try > rn:  # not a full step that contracted 100-fold
                adj = None
            x, r0, r1, r2, rn, terms = x_try, t0, t1, t2, rn_try, terms_try
            x0, x1, x2 = x
        elif fresh:  # the line search stalled
            break
        else:
            adj = None
    return NewtonResult(x, iterations, rn, rn <= tol, terms)


# Float kernels build lists, not tuple(<generator>): CPython sizes such a tuple by a guess and
# shrinks it, and its per-size tuple free lists then hoard thousands of them (about 0.3 MB).


def _velocities(c: CoefficientSet, d) -> tuple[Vec3, Vec3]:
    """(xdot, omega) with momenta M v + a = d = (D1, D2): omega = S^-1 (D2 - a_w - P e), xdot = Mxx^-1 e + X omega,
    e = D1 - a_x."""
    (m0, m1, m2, m3, m4, m5, m6, m7, m8), (c0, c1, c2, c3, c4, c5, c6, c7, c8), _, p, a_x, a_w = c.elimination_blocks
    i0, i1, i2, i3, i4, i5, i6, i7, i8 = c.schur_inverse  # after the blocks, whose failure comes first
    (p0, p1, p2, p3, p4, p5, p6, p7, p8), (d0, d1, d2, d3, d4, d5) = p, d
    e0, e1, e2 = d0 - a_x[0], d1 - a_x[1], d2 - a_x[2]
    f0 = d3 - a_w[0] - (p0 * e0 + p1 * e1 + p2 * e2)
    f1 = d4 - a_w[1] - (p3 * e0 + p4 * e1 + p5 * e2)
    f2 = d5 - a_w[2] - (p6 * e0 + p7 * e1 + p8 * e2)
    w0, w1, w2 = i0 * f0 + i1 * f1 + i2 * f2, i3 * f0 + i4 * f1 + i5 * f2, i6 * f0 + i7 * f1 + i8 * f2
    return (
        m0 * e0 + m1 * e1 + m2 * e2 + (c0 * w0 + c1 * w1 + c2 * w2),
        m3 * e0 + m4 * e1 + m5 * e2 + (c3 * w0 + c4 * w1 + c5 * w2),
        m6 * e0 + m7 * e1 + m8 * e2 + (c6 * w0 + c7 * w1 + c8 * w2),
    ), (w0, w1, w2)


def _advance(q, omega, h: float) -> tuple[float, float, float, float]:
    """q (x) exp((h/2) omega), sign-matched to q and renormalized: every scheme's orientation update."""
    p0, p1, p2, p3 = _mul_f(q, _exp_f((0.5 * h * omega[0], 0.5 * h * omega[1], 0.5 * h * omega[2])))
    if p0 * q[0] + p1 * q[1] + p2 * q[2] + p3 * q[3] < 0.0:
        p0, p1, p2, p3 = -p0, -p1, -p2, -p3
    n = math.sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3)
    if not 0.0 < n < math.inf:
        raise ValueError("cannot normalize quaternion with zero or non-finite norm")
    return (p0 / n, p1 / n, p2 / n, p3 / n)


def _link(*fields) -> StepResult:
    """StepResult(*fields), after BodyState's finiteness test on the 13 state components; BodyState names a failure."""
    r = StepResult(*fields)
    if not math.isfinite(sum(r.q + r.x_e + r.xdot_b + r.omega_b)):  # the four are tuples; a NaN or inf shows here
        BodyState(*r[:5])  # raises, naming the non-finite field; finite entries whose sum overflowed pass
    return r


def _solve_rate(k: tuple, evaluate, jacobian, prev: StepResult, cfg: SolverConfig) -> NewtonResult:
    """Both steppers' one hand-off to newton_solve: their _eval and _jacobian bound to setup k, from prev's rate to
    residual_tol times max(1, |prev.history|). A stalled solve raises, so every link is an accepted step."""
    tol = cfg.residual_tol * max(1.0, math.hypot(*prev.history))  # follows a momentum that grows in the run
    sol = newton_solve(partial(evaluate, k), partial(jacobian, k), prev.omega_b, tol, cfg.max_iter)
    if not sol.converged:
        raise SingularJacobianError("Newton did not converge")
    return sol


def _call(name: str, callback, *args):
    """callback(*args); an Exception other than ValueError becomes a ValueError naming the callback."""
    try:
        return callback(*args)
    except Exception as exc:  # a ValueError keeps its own message
        raise exc if isinstance(exc, ValueError) else ValueError(f"{name} raised {type(exc).__name__}: {exc}")


def _coefficients(sched: MorphingSchedule, t: float) -> CoefficientSet:
    """sched.coefficients(t), through _call; a result that is no CoefficientSet is a ValueError."""
    c = _call("coefficients", sched.coefficients, t)
    if not isinstance(c, CoefficientSet):
        raise ValueError(f"coefficients returned {type(c).__name__}, not a CoefficientSet")
    return c


def _force(sched: MorphingSchedule, t: float, q, x_e, xdot_b, omega_b) -> tuple[float, ...]:
    """sched.force at (t, q, x_e, xdot_b, omega_b) through _call, as six floats: F on earth axes, torque body axes.

    f[0] and f[1] of a len-2 return f, each of len 3, are unpacked and their six entries taken by float(). A return that
    fails there (an int past the float range too), text (str, bytes, bytearray; checked for an entry float() does not
    hand back as itself) or a non-finite entry (tested each only when their sum is not finite) raises ValueError.
    """
    f, out = _call("force", sched.force, t, q, x_e, xdot_b, omega_b), ()
    try:
        if len(f) == 2 and len(u := f[0]) == len(w := f[1]) == 3:
            (a, b, c), (d, e, g) = u, w
            out = float(a), float(b), float(c), float(d), float(e), float(g)
    except (TypeError, ValueError, LookupError, OverflowError):
        pass
    if out and not (out[0] is a and out[1] is b and out[2] is c and out[3] is d and out[4] is e and out[5] is g):
        out = () if any(isinstance(v, (str, bytes, bytearray)) for v in (u, w, a, b, c, d, e, g)) else out
    if not (out and (math.isfinite(sum(out)) or all(map(math.isfinite, out)))):
        raise ValueError("force did not return two finite 3-vectors (F earth axes, torque body axes)")
    return out


# left-rectangle scheme


def _left_setup(q_k, c_k: CoefficientSet, h: float, carried) -> tuple:
    """The omega-independent terms of residual_left; g1 = b = R(q_k)^T carried_x is fixed.

    (b, Mxx^-1 (b - a_x), P (b - a_x) + a_w, carried_w, X, S, K0 = S - h b^ X, h, h/2): K0 is the
    Jacobian's constant part, formed without the products with a zero of b^.
    """
    mi, xc, s, p, a_x, a_w = c_k.elimination_blocks
    (m0, m1, m2, m3, m4, m5, m6, m7, m8), (p0, p1, p2, p3, p4, p5, p6, p7, p8), (aw0, aw1, aw2) = mi, p, a_w
    (c0, c1, c2, c3, c4, c5, c6, c7, c8), (s0, s1, s2, s3, s4, s5, s6, s7, s8) = xc, s
    b0, b1, b2 = _rotate_f((q_k[0], -q_k[1], -q_k[2], -q_k[3]), carried[:3])
    d0, d1, d2 = b0 - a_x[0], b1 - a_x[1], b2 - a_x[2]
    return (
        (b0, b1, b2),
        (m0 * d0 + m1 * d1 + m2 * d2, m3 * d0 + m4 * d1 + m5 * d2, m6 * d0 + m7 * d1 + m8 * d2),
        (p0 * d0 + p1 * d1 + p2 * d2 + aw0, p3 * d0 + p4 * d1 + p5 * d2 + aw1, p6 * d0 + p7 * d1 + p8 * d2 + aw2),
        carried[3:],
        xc,
        s,
        (
            s0 - h * (b1 * c6 - b2 * c3), s1 - h * (b1 * c7 - b2 * c4), s2 - h * (b1 * c8 - b2 * c5),
            s3 - h * (b2 * c0 - b0 * c6), s4 - h * (b2 * c1 - b0 * c7), s5 - h * (b2 * c2 - b0 * c8),
            s6 - h * (b0 * c3 - b1 * c0), s7 - h * (b0 * c4 - b1 * c1), s8 - h * (b0 * c5 - b1 * c2),
        ),
        h,
        0.5 * h,
    )  # fmt: skip


def _left_eval(k: tuple, w: Vec3) -> tuple[list[float], tuple[Vec3, Vec3]]:
    """residual_left at omega = w from _left_setup's terms, and (xdot, g2) for the Jacobian and the step."""
    (b0, b1, b2), (x0, x1, x2), (g0, g1, g2), (e0, e1, e2), xc, s, _, h, hh = k
    (c0, c1, c2, c3, c4, c5, c6, c7, c8), (s0, s1, s2, s3, s4, s5, s6, s7, s8), (w0, w1, w2) = xc, s, w
    x0 += c0 * w0 + c1 * w1 + c2 * w2  # xdot = Mxx^-1 (b - a_x) + X w
    x1 += c3 * w0 + c4 * w1 + c5 * w2
    x2 += c6 * w0 + c7 * w1 + c8 * w2
    g0 += s0 * w0 + s1 * w1 + s2 * w2  # g2 = P (b - a_x) + a_w + S w
    g1 += s3 * w0 + s4 * w1 + s5 * w2
    g2 += s6 * w0 + s7 * w1 + s8 * w2
    return [
        g0 + hh * (w1 * g2 - w2 * g1) + h * (x1 * b2 - x2 * b1) - e0,
        g1 + hh * (w2 * g0 - w0 * g2) + h * (x2 * b0 - x0 * b2) - e1,
        g2 + hh * (w0 * g1 - w1 * g0) + h * (x0 * b1 - x1 * b0) - e2,
    ], ((x0, x1, x2), (g0, g1, g2))


def _left_jacobian(k: tuple, w: Vec3, terms: tuple[Vec3, Vec3]) -> list[float]:
    """jacobian_left from the terms of _left_eval at w; products with a zero of a skew matrix are left out."""
    (s0, s1, s2, s3, s4, s5, s6, s7, s8), (k0, k1, k2, k3, k4, k5, k6, k7, k8), hh = k[5], k[6], k[8]
    (w0, w1, w2), (g0, g1, g2) = w, terms[1]
    return [
        k0 + hh * (w1 * s6 - w2 * s3), k1 + hh * (w1 * s7 - w2 * s4 + g2), k2 + hh * (w1 * s8 - w2 * s5 - g1),
        k3 + hh * (w2 * s0 - w0 * s6 - g2), k4 + hh * (w2 * s1 - w0 * s7), k5 + hh * (w2 * s2 - w0 * s8 + g0),
        k6 + hh * (w0 * s3 - w1 * s0 + g1), k7 + hh * (w0 * s4 - w1 * s1 - g0), k8 + hh * (w0 * s5 - w1 * s2),
    ]  # fmt: skip


def residual_left(q_k: Array, omega: Array, c_k: CoefficientSet, h: float, carried: Sequence[float]) -> Array:
    """Left-rectangle momentum balance at step k, reduced to the rate omega (body axes).

    carried: outgoing momentum of step k-1 plus step impulse (earth-axes x, body-axes w).
    The translational row fixes g1 = b = R(q_k)^T carried_x, so xdot = Mxx^-1 (b - a_x)
    + X omega and g2 = Mwx xdot + Mww omega + a_w (CoefficientSet.elimination_blocks).
    The residual is the rotational row g2 + (h/2) omega x g2 + h xdot x b - carried_w.
    """
    k = _left_setup(list(map(float, q_k)), c_k, h, list(map(float, carried)))
    return np.array(_left_eval(k, tuple(map(float, omega)))[0])


def jacobian_left(q_k: Array, omega: Array, c_k: CoefficientSet, h: float, carried: Sequence[float]) -> Array:
    """Exact 3x3 derivative of residual_left in omega: S - h b^ X + (h/2)(omega^ S - g2^), x^ = skew(x)."""
    k, w = _left_setup(list(map(float, q_k)), c_k, h, list(map(float, carried))), tuple(map(float, omega))
    return np.array(_left_jacobian(k, w, _left_eval(k, w)[1])).reshape(3, 3)


def step_left(prev: StepResult, t: float, sched: MorphingSchedule, cfg: SolverConfig) -> StepResult:
    """Advance one left-rectangle step from the previous link to grid time t, carrying its history.

    Kinematics first (exponential orientation update and position quadrature
    with step k-1 values), then the implicit solve for the step-k rate (_solve_rate).
    The coefficients and the force are probed at t.
    """
    h, v = cfg.h, _rotate_f(prev.q, prev.xdot_b)
    q_k = _advance(prev.q, prev.omega_b, h)
    x_k = (prev.x_e[0] + h * v[0], prev.x_e[1] + h * v[1], prev.x_e[2] + h * v[2])
    c_k = _coefficients(sched, t)
    carried = prev.history
    if not sched.force_free:
        (c0, c1, c2, c3, c4, c5), (f0, f1, f2, f3, f4, f5) = carried, _force(sched, t, q_k, x_k, *prev[3:5])
        carried = (c0 + h * f0, c1 + h * f1, c2 + h * f2, c3 + h * f3, c4 + h * f4, c5 + h * f5)

    sol = _solve_rate(_left_setup(q_k, c_k, h, carried), _left_eval, _left_jacobian, prev, cfg)
    (xd, g2), om, hh = sol.terms, sol.x, 0.5 * h
    m = _cx(om, g2)
    history = (*carried[:3], g2[0] - hh * m[0], g2[1] - hh * m[1], g2[2] - hh * m[2])
    fields = (t, q_k, x_k, xd, om, history, carried, q_k, c_k)
    return _link(*fields, sol.iterations, sol.residual_norm)


# midpoint scheme


def _mid_setup(q_k, c: CoefficientSet, h: float, carried) -> tuple:
    """The omega-independent terms of residual_mid: u = R(q_k)^T carried, both halves."""
    qc = (q_k[0], -q_k[1], -q_k[2], -q_k[3])
    return _rotate_f(qc, carried[:3]), _rotate_f(qc, carried[3:]), c.elimination_blocks, 0.5 * h


def _mid_eval(k: tuple, w: Vec3) -> tuple[list[float], tuple]:
    """residual_mid at omega = w, and (e = exp((h/4) w), g1, xdot, E^T u_w) for the Jacobian and the step."""
    (ux0, ux1, ux2), (uw0, uw1, uw2), (mi, xc, s, p, (ax0, ax1, ax2), (aw0, aw1, aw2)), hh = k
    (m0, m1, m2, m3, m4, m5, m6, m7, m8), (c0, c1, c2, c3, c4, c5, c6, c7, c8), (w0, w1, w2) = mi, xc, w
    (s0, s1, s2, s3, s4, s5, s6, s7, s8), (p0, p1, p2, p3, p4, p5, p6, p7, p8) = s, p
    e = _exp_f((0.5 * hh * w0, 0.5 * hh * w1, 0.5 * hh * w2))
    ew, ex, ey, ez = e[0], -e[1], -e[2], -e[3]  # its conjugate: g1 = E^T u_x, E^T u_w
    tx, ty, tz = 2.0 * (ey * ux2 - ez * ux1), 2.0 * (ez * ux0 - ex * ux2), 2.0 * (ex * ux1 - ey * ux0)
    g0, g1, g2 = ux0 + ew * tx + ey * tz - ez * ty, ux1 + ew * ty + ez * tx - ex * tz, ux2 + ew * tz + ex * ty - ey * tx
    tx, ty, tz = 2.0 * (ey * uw2 - ez * uw1), 2.0 * (ez * uw0 - ex * uw2), 2.0 * (ex * uw1 - ey * uw0)
    v0, v1, v2 = uw0 + ew * tx + ey * tz - ez * ty, uw1 + ew * ty + ez * tx - ex * tz, uw2 + ew * tz + ex * ty - ey * tx
    r0, r1, r2 = g0 - ax0, g1 - ax1, g2 - ax2
    d0 = m0 * r0 + m1 * r1 + m2 * r2 + (c0 * w0 + c1 * w1 + c2 * w2)
    d1 = m3 * r0 + m4 * r1 + m5 * r2 + (c3 * w0 + c4 * w1 + c5 * w2)
    d2 = m6 * r0 + m7 * r1 + m8 * r2 + (c6 * w0 + c7 * w1 + c8 * w2)
    # in this order; subtracting E^T u_w last gives an exact zero (no polish) on ~2 % of free-body steps
    return [
        p0 * r0 + p1 * r1 + p2 * r2 + aw0 - v0 + (s0 * w0 + s1 * w1 + s2 * w2) + hh * (d1 * g2 - d2 * g1),
        p3 * r0 + p4 * r1 + p5 * r2 + aw1 - v1 + (s3 * w0 + s4 * w1 + s5 * w2) + hh * (d2 * g0 - d0 * g2),
        p6 * r0 + p7 * r1 + p8 * r2 + aw2 - v2 + (s6 * w0 + s7 * w1 + s8 * w2) + hh * (d0 * g1 - d1 * g0),
    ], (e, (g0, g1, g2), (d0, d1, d2), (v0, v1, v2))


def _mid_jacobian(k: tuple, w: Vec3, terms: tuple) -> list[float]:
    """jacobian_mid from the terms of _mid_eval at w; products with a zero of a skew matrix are left out."""
    _, _, ((m0, m1, m2, m3, m4, m5, m6, m7, m8), (c0, c1, c2, c3, c4, c5, c6, c7, c8), s, p, _, _), hh = k
    (s0, s1, s2, s3, s4, s5, s6, s7, s8), (p0, p1, p2, p3, p4, p5, p6, p7, p8) = s, p
    _, (g0, g1, g2), (d0, d1, d2), (v0, v1, v2) = terms
    j0, j1, j2, j3, j4, j5, j6, j7, j8 = _right_jacobian((hh * w[0], hh * w[1], hh * w[2]))
    # a = d g1 / d omega = (h/2) g1^ J_r, then y = d xdot / d omega = Mxx^-1 a + X
    a0, a1, a2 = hh * (g1 * j6 - g2 * j3), hh * (g1 * j7 - g2 * j4), hh * (g1 * j8 - g2 * j5)
    a3, a4, a5 = hh * (g2 * j0 - g0 * j6), hh * (g2 * j1 - g0 * j7), hh * (g2 * j2 - g0 * j8)
    a6, a7, a8 = hh * (g0 * j3 - g1 * j0), hh * (g0 * j4 - g1 * j1), hh * (g0 * j5 - g1 * j2)
    y0, y1, y2 = m0 * a0 + m1 * a3 + m2 * a6 + c0, m0 * a1 + m1 * a4 + m2 * a7 + c1, m0 * a2 + m1 * a5 + m2 * a8 + c2
    y3, y4, y5 = m3 * a0 + m4 * a3 + m5 * a6 + c3, m3 * a1 + m4 * a4 + m5 * a7 + c4, m3 * a2 + m4 * a5 + m5 * a8 + c5
    y6, y7, y8 = m6 * a0 + m7 * a3 + m8 * a6 + c6, m6 * a1 + m7 * a4 + m8 * a7 + c7, m6 * a2 + m7 * a5 + m8 * a8 + c8
    return [
        p0 * a0 + p1 * a3 + p2 * a6 + s0 + hh * (d1 * a6 - d2 * a3 - (g1 * y6 - g2 * y3) - (v1 * j6 - v2 * j3)),
        p0 * a1 + p1 * a4 + p2 * a7 + s1 + hh * (d1 * a7 - d2 * a4 - (g1 * y7 - g2 * y4) - (v1 * j7 - v2 * j4)),
        p0 * a2 + p1 * a5 + p2 * a8 + s2 + hh * (d1 * a8 - d2 * a5 - (g1 * y8 - g2 * y5) - (v1 * j8 - v2 * j5)),
        p3 * a0 + p4 * a3 + p5 * a6 + s3 + hh * (d2 * a0 - d0 * a6 - (g2 * y0 - g0 * y6) - (v2 * j0 - v0 * j6)),
        p3 * a1 + p4 * a4 + p5 * a7 + s4 + hh * (d2 * a1 - d0 * a7 - (g2 * y1 - g0 * y7) - (v2 * j1 - v0 * j7)),
        p3 * a2 + p4 * a5 + p5 * a8 + s5 + hh * (d2 * a2 - d0 * a8 - (g2 * y2 - g0 * y8) - (v2 * j2 - v0 * j8)),
        p6 * a0 + p7 * a3 + p8 * a6 + s6 + hh * (d0 * a3 - d1 * a0 - (g0 * y3 - g1 * y0) - (v0 * j3 - v1 * j0)),
        p6 * a1 + p7 * a4 + p8 * a7 + s7 + hh * (d0 * a4 - d1 * a1 - (g0 * y4 - g1 * y1) - (v0 * j4 - v1 * j1)),
        p6 * a2 + p7 * a5 + p8 * a8 + s8 + hh * (d0 * a5 - d1 * a2 - (g0 * y5 - g1 * y2) - (v0 * j5 - v1 * j2)),
    ]


def residual_mid(q_k: Array, omega: Array, c_mid: CoefficientSet, h: float, carried: Sequence[float]) -> Array:
    """Midpoint momentum balance across step point k, reduced to the midpoint rate omega.

    carried: outgoing momentum of the previous midpoint (StepResult.history) plus step
    impulse, on earth axes; u = R(q_k)^T carried. With E = R(exp((h/4) omega)), the
    translational row fixes g1 = E^T u_x, so xdot = Mxx^-1 (g1 - Mxw omega - a_x) and
    g2 = Mwx xdot + Mww omega + a_w. The residual is the rotational row on midpoint body
    axes, g2 + (h/2) xdot x g1 - E^T u_w.
    """
    k = _mid_setup(list(map(float, q_k)), c_mid, h, list(map(float, carried)))
    return np.array(_mid_eval(k, tuple(map(float, omega)))[0])


def jacobian_mid(q_k: Array, omega: Array, c_mid: CoefficientSet, h: float, carried: Sequence[float]) -> Array:
    """Exact 3x3 derivative of residual_mid in omega.

    E = Exp(phi), phi = (h/2) omega, so d(E^T u)/d omega = (h/2) (E^T u)^ J_r(phi)
    with J_r the SO(3) right Jacobian. With X = Mxx^-1 ((h/2) g1^ J_r - Mxw):
    Mwx X + Mww + (h/2)(xdot^ (h/2) g1^ J_r - g1^ X) - (h/2) (E^T u_w)^ J_r.
    """
    k, w = _mid_setup(list(map(float, q_k)), c_mid, h, list(map(float, carried))), tuple(map(float, omega))
    return np.array(_mid_jacobian(k, w, _mid_eval(k, w)[1])).reshape(3, 3)


def step_mid(prev: StepResult, t: float, sched: MorphingSchedule, cfg: SolverConfig) -> StepResult:
    """Advance one midpoint step from the previous link to grid time t, carrying its history.

    Solves for the midpoint rate (_solve_rate; the midpoint velocity follows in
    closed form), then updates orientation and position with the midpoint rule. The
    coefficients are probed at the midpoint time prev.t + h/2 and the force at prev,
    the node the balance is written at. The velocities of prev are the previous
    midpoint's (the initial state's for the first step): they warm-start the solve
    and probe the force. The returned link carries the fresh midpoint velocities.
    Reversal negates the link's velocities and history. Known limitation: a forced
    step adds the body-axes torque to the earth-axes carried momentum, and the first
    step the full h F at node 0, so forced runs are first order unless F vanishes
    at the start, and converge to the wrong motion under a torque.
    """
    h, q_k, x = cfg.h, prev.q, prev.x_e
    c_mid = _coefficients(sched, prev.t + 0.5 * h)
    carried = prev.history
    if not sched.force_free:
        (c0, c1, c2, c3, c4, c5), (f0, f1, f2, f3, f4, f5) = carried, _force(sched, *prev[:5])
        carried = (c0 + h * f0, c1 + h * f1, c2 + h * f2, c3 + h * f3, c4 + h * f4, c5 + h * f5)

    sol = _solve_rate(_mid_setup(q_k, c_mid, h, carried), _mid_eval, _mid_jacobian, prev, cfg)
    (e, g1, xd, _), om, c = sol.terms, sol.x, carried
    q_t = _mul_f(q_k, e)
    m = _rotate_f(q_t, _cx(xd, g1))  # outgoing = incoming - h R_t (xdot x g1)
    history = (*c[:3], c[3] - h * m[0], c[4] - h * m[1], c[5] - h * m[2])
    v = _rotate_f(q_t, xd)
    x_next = (x[0] + h * v[0], x[1] + h * v[1], x[2] + h * v[2])
    fields = (t, _advance(q_k, om, h), x_next, xd, om, history, carried, q_t, c_mid)
    return _link(*fields, sol.iterations, sol.residual_norm)


# explicit RK4 baseline on the momentum form


def _rk_rate(sched: MorphingSchedule, t_s: float, q_s, x_s, d, xd: Vec3, om: Vec3) -> tuple[Vec3, Vec3, list[float]]:
    """The rates at an RK4 stage (t_s, q_s, x_s, d = (D1, D2)) with velocities (xd, om): omega, R(q_s) xdot and d's."""
    (x0, x1, x2), (w0, w1, w2), (d0, d1, d2, d3, d4, d5) = xd, om, d
    dd = [
        -(w1 * d2 - w2 * d1), -(w2 * d0 - w0 * d2), -(w0 * d1 - w1 * d0),
        -(w1 * d5 - w2 * d4) - (x1 * d2 - x2 * d1), -(w2 * d3 - w0 * d5) - (x2 * d0 - x0 * d2),
        -(w0 * d4 - w1 * d3) - (x0 * d1 - x1 * d0),
    ]  # fmt: skip
    if not sched.force_free:
        f = _force(sched, t_s, q_s, x_s, xd, om)
        b = _rotate_f((q_s[0], -q_s[1], -q_s[2], -q_s[3]), f[:3])
        dd = [dd[0] + b[0], dd[1] + b[1], dd[2] + b[2], dd[3] + f[3], dd[4] + f[4], dd[5] + f[5]]
    return om, _rotate_f(q_s, xd), dd


def step_rk_baseline(prev: StepResult, t: float, sched: MorphingSchedule, cfg: SolverConfig) -> StepResult:
    """One classical RK4 step on the body-frame momentum equations from the previous link to grid time t.

    d/dt D1 = -omega x D1 + f on body axes, d/dt D2 = -omega x D2 - xdot x D1 + tau. Stage 1 is prev: its history
    d = (D1, D2) and the velocities recovered from it. Stage i + 1 (at prev.t + h/2, twice, then t) steps x and d
    from prev's by a h (a = 1/2, 1/2, 1) at stage i's rates (w_i, v_i, e_i), advances q from prev.q by _advance,
    and recovers its velocities with _velocities; the new link carries the RK4 update of d and the velocities
    recovered from it at t. The four stages are written out on floats, component by component. Under a force each
    stage (_rk_rate) probes it once at its own state, and F is rotated to body axes.
    """
    h, q0, x0, d0, t_half = cfg.h, prev.q, prev.x_e, prev.history, prev.t + 0.5 * cfg.h
    c_half, c_end, a = _coefficients(sched, t_half), _coefficients(sched, t), 0.5 * h
    (y0, y1, y2), (m0, m1, m2, m3, m4, m5) = x0, d0
    w1, (v10, v11, v12), (e10, e11, e12, e13, e14, e15) = _rk_rate(sched, prev.t, q0, x0, d0, *prev[3:5])
    x, q = [y0 + a * v10, y1 + a * v11, y2 + a * v12], _advance(q0, w1, a)
    d = [m0 + a * e10, m1 + a * e11, m2 + a * e12, m3 + a * e13, m4 + a * e14, m5 + a * e15]
    w2, (v20, v21, v22), (e20, e21, e22, e23, e24, e25) = _rk_rate(sched, t_half, q, x, d, *_velocities(c_half, d))
    x, q = [y0 + a * v20, y1 + a * v21, y2 + a * v22], _advance(q0, w2, a)
    d = [m0 + a * e20, m1 + a * e21, m2 + a * e22, m3 + a * e23, m4 + a * e24, m5 + a * e25]
    w3, (v30, v31, v32), (e30, e31, e32, e33, e34, e35) = _rk_rate(sched, t_half, q, x, d, *_velocities(c_half, d))
    x, q = [y0 + h * v30, y1 + h * v31, y2 + h * v32], _advance(q0, w3, h)
    d = [m0 + h * e30, m1 + h * e31, m2 + h * e32, m3 + h * e33, m4 + h * e34, m5 + h * e35]
    w4, (v40, v41, v42), (e40, e41, e42, e43, e44, e45) = _rk_rate(sched, t, q, x, d, *_velocities(c_end, d))
    s = h / 6.0
    d_new = (
        m0 + s * (e10 + 2.0 * e20 + 2.0 * e30 + e40), m1 + s * (e11 + 2.0 * e21 + 2.0 * e31 + e41),
        m2 + s * (e12 + 2.0 * e22 + 2.0 * e32 + e42), m3 + s * (e13 + 2.0 * e23 + 2.0 * e33 + e43),
        m4 + s * (e14 + 2.0 * e24 + 2.0 * e34 + e44), m5 + s * (e15 + 2.0 * e25 + 2.0 * e35 + e45),
    )  # fmt: skip
    xd, om = _velocities(c_end, d_new)
    x_new = (y0 + s * (v10 + 2.0 * v20 + 2.0 * v30 + v40), y1 + s * (v11 + 2.0 * v21 + 2.0 * v31 + v41),
             y2 + s * (v12 + 2.0 * v22 + 2.0 * v32 + v42))  # fmt: skip
    w = [(w1[0] + 2.0 * w2[0] + 2.0 * w3[0] + w4[0]) / 6.0, (w1[1] + 2.0 * w2[1] + 2.0 * w3[1] + w4[1]) / 6.0,
         (w1[2] + 2.0 * w2[2] + 2.0 * w3[2] + w4[2]) / 6.0]  # fmt: skip
    q_new = _advance(q0, w, h)
    return _link(t, q_new, x_new, xd, om, d_new, None, q_new, c_end, 0, 0.0)


# run driver


def seed_step(initial: BodyState, c0: CoefficientSet, method: str, h: float) -> StepResult:
    """The chain's first link: initial as a zero-iteration step, with the history method's first step carries.

    left carries the canonical momenta at step -h. mid carries the continuous momenta
    of the initial state, so the quantity the scheme conserves is the true initial
    momentum and the trajectory stays second-order accurate. (Seeding from a virtual
    midpoint shifted by exp((h/4) omega) instead conserves a momentum O(h) away from the
    true one, which degrades the whole run to first order.) rk carries them on body axes, the
    (D1, D2) its RK4 integrates. c0 is the coefficient set at initial.t. Any other method is a ValueError.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    q, x, xd, om = [tuple(a.tolist()) for a in (initial.q, initial.x_e, initial.xdot_b, initial.omega_b)]
    n = math.hypot(*q)  # BodyState admits a q up to 1e-6 off unit norm; a run starts on a unit one
    q = tuple([v / n for v in q]) if abs(n - 1.0) > 2**-50 else q
    _, d1, d2 = _canonical_f(q, xd, om, c0._flat, -h) if method == "left" else _energy_momenta(c0._flat, xd, om)
    history = (*_rotate_f(q, d1), *_rotate_f(q, d2)) if method == "mid" else (*d1, *d2)
    return StepResult(initial.t, q, x, xd, om, history, None, q, c0, 0, 0.0)


def _midpoint_step_velocities(v: Array) -> Array:
    """Second-order step-point velocities from rows [v_0, m_1, ..., m_n] (m_k: midpoints).

    Entry 0 keeps the exact initial data, inner entries average adjacent
    midpoints, and the final entry extrapolates linearly (the nearest-midpoint
    value would be off by O(h/2) there): from m_{n-1} and m_n, or for one step
    from v_0, half a step before m_1.
    """
    out = v.copy()
    out[1:-1] = 0.5 * (v[1:-1] + v[2:])
    out[-1] = 1.5 * v[-1] - 0.5 * v[-2] if len(v) >= 3 else 2.0 * v[-1] - v[0]
    return out


def _step_count(t0: float, t_end: float, h: float) -> int:
    """The one rule for a run's time span: n = round((t_end - t0)/h) steps, at least 1.

    ValueError if (t_end - t0)/h is not positive (t_end <= t0 or NaN) or exceeds 2**53, or if the grid times
    t0 + k h would not strictly increase. Each lies within 1.5 ulp of t0 + k h, so h > 4 ulp(max(|t0|, |t0 + n h|))
    suffices; it also rejects some grids whose times are distinct but each up to 1.5 ulp off.
    """
    n = (t_end - t0) / h
    steps = max(1, round(n)) if 0.0 < n <= 2**53 else 0
    if not (steps and h > 4.0 * math.ulp(max(abs(t0), abs(t0 + steps * h)))):
        raise ValueError(f"(t_end - t0)/h = {n:g} is not positive, exceeds 2**53 steps or makes t0 + k h collide")
    return steps


def integrate(
    initial: BodyState,
    sched: MorphingSchedule,
    cfg: SolverConfig,
    method: str,
    t_end: float,
    rigid_params: RigidParams | None = None,
) -> TrajectoryRecord:
    """Fixed-step run from initial.t to (approximately) t_end.

    The run takes n = round((t_end - t)/h) steps (halves to even, at least 1), or
    _step_count, the one time-span rule, raises ValueError before any step or
    coefficients call; method is left, mid or rk, or seed_step, the one method rule,
    raises ValueError after the t0 coefficients call and before any step. The run ends
    at t + n h, the record's last time; step k is step(prev, t + k h, sched, cfg), its
    time computed from k, with step read from this module's step_left, step_mid or
    step_rk_baseline as the run starts. Every accepted state is recorded. A step fails by raising ValueError
    (SingularJacobianError when Newton does not converge or the Jacobian is singular; the state going non-finite,
    a schedule callback raising or returning an unusable result): the record is truncated, flagged and names the
    cause in stop_reason (coefficients failing at t0 raises). rigid_params fills the physical momenta.

    Each link's row (state, point, coefficient floats, Newton count) joins one stream that the seed's row opens. The
    conserved-quantity columns are evaluated after the steps by the float kernels run on numpy columns (each entry
    rounds as on floats), in blocks of 128 steps, the first also holding the seed's row; row 0 on floats only
    decides that a non-finite row 0 takes no step. One scan finds every non-finite row: the first ends the record
    (the loop stopped at the end of its block, at most 127 steps later) with stop_reason "diverged: non-finite
    energy or momentum" over any later step's failure, or "... initial energy ..." keeping row 0 alone. For mid the
    columns are evaluated at the midpoint quadrature states (row 0 repeats the first midpoint); the velocity columns
    hold second-order step-point reconstructions.
    """
    t0, h = initial.t, cfg.h
    n_steps = _step_count(t0, t_end, h)
    c0 = _coefficients(sched, t0)
    last = seed_step(initial, c0, method, h)  # raises for an unknown method, before any step
    step = {"left": step_left, "mid": step_mid, "rk": step_rk_baseline}[method]
    if rigid_params is not None:
        i_com, c_b, mass = rigid_params.com_inertia().ravel().tolist(), rigid_params.c.tolist(), rigid_params.m

    def conserved(q, xdot, omega, f) -> tuple:
        """Row [T, p_x, p_w, given rigid_params P_x = m R (xdot + omega x c), P_w = R I_com omega] at (q, xdot,
        omega) and a set's _flat f, on floats (row 0) or numpy columns (rows). The momenta are recomputed from
        the recorded velocities, not read from the solve's terms: for both schemes the solve's R(q) g1 equals
        the carried p_x by construction, so an e_x taken from it would check nothing."""
        t, p_x, p_w = _canonical_f(q, xdot, omega, f, h)
        if rigid_params is None:
            return (t, *p_x, *p_w)
        v_com = _rotate_f(q, [u + v for u, v in zip(xdot, _cx(omega, c_b))])
        return (t, *p_x, *p_w, *[mass * v for v in v_com], *_rotate_f(q, _mv(i_com, omega)))

    def rows(pending: list) -> tuple[Array, Array, list]:
        """conserved over (_flat, iterations, point, q, x_e, xdot_b, omega_b) rows, run once on numpy columns (a
        coefficient field all rows share by identity as the set's floats, each other stacked by one np.fromiter):
        float64 operations round as on floats. Returns that (k, 13 or 7) block, the (k, 13) states and the counts."""
        flats, counts = [r[0] for r in pending], [r[1] for r in pending]
        v = np.fromiter(chain.from_iterable(chain.from_iterable(r[2:] for r in pending)), float)
        v, f = v.reshape(-1, 17).T.copy(), flats[0]
        if any(g is not f for g in flats):  # one scan passes a constant schedule's block, which shares every field
            f = list(f)
            for i, (g, col) in enumerate(zip(f, zip(*flats))):
                if any(x is not g for x in col):  # a_0 (i = 5) is a float, each other field a tuple
                    c = np.fromiter(col if i == 5 else chain.from_iterable(col), float)
                    f[i] = c if i == 5 else tuple(c.reshape(len(col), -1).T.copy())
        return np.column_stack(conserved(tuple(v[:4]), tuple(v[11:14]), tuple(v[14:]), f)), v[4:].T, counts

    stop_reason = ""
    # a diverging run surfaces as a non-finite state or row; row 0 and the seed are held to the same rule
    with np.errstate(over="ignore", invalid="ignore"):  # for a schedule's numpy force and the row blocks
        row0 = conserved(last.point, last.xdot_b, last.omega_b, c0._flat)
        n_steps = n_steps if all(map(math.isfinite, row0)) else 0  # the scan below names a bad row 0
        blocks, pending = [], [(c0._flat, 0, last.point, *last[1:5])]  # the seed's row opens the first block
        for k in range(1, n_steps + 1):
            try:
                last = step(last, t0 + h * k, sched, cfg)
            except ValueError as exc:
                stop_reason = str(exc)
                break
            pending.append((last.coeffs._flat, last.iterations, last.point, *last[1:5]))  # not the set, which caches
            if k % 128 == 0:  # spreads numpy's per-call cost; bounds the rows held and steps past a bad one
                blocks.append(rows(pending))
                pending = []
                if not np.isfinite(blocks[-1][0]).all():
                    break
        if pending:
            blocks.append(rows(pending))
    diag, state, iterations = [np.concatenate(b) for b in zip(*blocks)]  # conserved columns in a block of their own
    bad = np.flatnonzero(~np.isfinite(diag).all(axis=1))
    if bad.size:  # the record ends where the loop stopped (a bad row 0 stays), and this reason wins over a later one
        n, stop_reason = int(bad[0]), f"diverged: non-finite {'' if bad[0] else 'initial '}energy or momentum"
        diag, state, iterations = diag[: n or 1], state[: n or 1], iterations[: n or 1]
    q, x_e, xdot_b, omega_b = [state[:, i:j].copy() for i, j in ((0, 4), (4, 7), (7, 10), (10, None))]  # contiguous
    if method == "mid" and len(diag) > 1:
        xdot_b, omega_b = _midpoint_step_velocities(xdot_b), _midpoint_step_velocities(omega_b)
        diag[0] = diag[1]
    return TrajectoryRecord(
        t0 + h * np.arange(len(diag)), q, x_e, xdot_b, omega_b, energy=diag[:, 0], p_x=diag[:, 1:4], p_w=diag[:, 4:7],
        P_x=diag[:, 7:10] if rigid_params else None, P_w=diag[:, 10:13] if rigid_params else None,
        newton_iters=iterations, method=method, h=h, scenario=sched.name,
        truncated=bool(stop_reason), stop_reason=stop_reason, force_free=sched.force_free,
    )
