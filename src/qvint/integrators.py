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
reuses its terms. mid's balance and its Jacobian are single flat float kernels
in the operand order of the composed helpers (_rotate_f, _mv, _mm, _cx, _skew):
records keep every bit, as the Jacobian drops only products with a skew matrix's
zeros. A classical RK4 baseline on the momentum form of the equations of motion
is included for accuracy comparisons; it is not structure preserving, but it
shares their elimination blocks (velocity recovery) and _advance (orientation
update).

A run is a chain of StepResult links on Python floats: seed_step makes the first
from the initial BodyState, each stepper takes the previous link and returns the
next, and integrate keeps each link's state, point and coefficients, evaluates the
record's conserved quantities from the last two in numpy blocks of 128 rows with
the float kernels (bit for bit), and stacks the record after the loop. A forced
schedule's force reads a probe state's floats through _force, once per left or mid
step and once per rk stage: left and mid add the impulse h (F, torque) to the
momentum they carry, rk adds (F, torque) to each stage's momentum rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .diagnostics import TrajectoryRecord
from .model import BodyState, CoefficientSet, MorphingSchedule, RigidParams, _adjugate, _canonical_f, _cx
from .model import _energy_momenta, _mm, _mv, _skew
from .quat import _exp_f, _mul_f, _right_jacobian, _rotate_f

Array = np.ndarray
Vec3 = tuple[float, float, float]
Quat = tuple[float, float, float, float]

_METHODS = ("left", "mid", "rk")


class SingularJacobianError(RuntimeError):
    """The Newton Jacobian is singular or numerically unusable."""


@dataclass(frozen=True)
class SolverConfig:
    """Step size and Newton parameters shared by both variational schemes.

    residual_tol is relative; steppers multiply it by the run's initial
    momentum scale to obtain the absolute tolerance on the balance defect.
    """

    h: float
    residual_tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError("SolverConfig.h must be positive")
        if self.max_iter < 1:
            raise ValueError("SolverConfig.max_iter must be at least 1")
        if not self.residual_tol > 0.0:
            raise ValueError("SolverConfig.residual_tol must be positive")


class NewtonResult(NamedTuple):
    x: Vec3
    iterations: int
    residual_norm: float
    converged: bool
    terms: object  # what the residual returned beside r at x


class StepResult(NamedTuple):
    """One link of a run's chain, on Python floats: the state a step reached, and how.

    t, q, x_e, xdot_b, omega_b are BodyState's fields (for mid, the fresh midpoint's velocities).
    history (left and mid) is the outgoing momentum of the solved balance, which the next step
    carries: carried[:3] verbatim, since the reduced solve balances it by construction, and a
    rotational part from the solve's own terms, so the momentum sum telescopes to the Newton
    floor. carried is the outgoing momentum plus step impulse the solve balanced (None for rk
    and the seed). point (orientation, linear and angular velocity) is where the record
    evaluates the step's conserved quantities, and coeffs is the coefficient set at its time
    (the new step point for left and rk, the new midpoint for mid); integrate holds the point
    and coeffs._flat, never the link or the set, until it evaluates their block of rows.
    """

    t: float
    q: Quat
    x_e: Vec3
    xdot_b: Vec3
    omega_b: Vec3
    history: tuple | None
    carried: tuple | None
    point: tuple[Quat, Vec3, Vec3]
    coeffs: CoefficientSet
    iterations: int
    residual_norm: float
    converged: bool


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
    non-finite residual or an unusable Jacobian (non-finite entries, a zero or
    non-finite determinant, a step beyond 1e12 (1 + |x|)); a stalled line
    search returns converged=False. A reused Jacobian neither raises nor
    stalls: where a fresh one would, it is replaced by a fresh one at the same
    x. tol is the absolute tolerance on the residual norm; at most max_iter
    iterations run.
    """
    x = tuple([float(v) for v in guess])
    r, terms = residual(x)
    rn = math.hypot(*r)
    iterations = 0
    polish_left = 1
    # the kept Jacobian as its adjugate (9 row-major floats) and determinant det; dividing by det
    # last makes a step whose adj @ r overflows non-finite, and so rejected
    adj = None
    while iterations < max_iter:
        if rn <= tol:
            if polish_left == 0 or rn == 0.0:
                break
            polish_left -= 1
        if not math.isfinite(rn):
            raise SingularJacobianError("residual is non-finite")
        fresh = adj is None
        if fresh:
            jac = jacobian(x, terms)
            if not all(map(math.isfinite, jac)):
                raise SingularJacobianError("Jacobian has non-finite entries")
            adj, det = _adjugate(jac)
            if det == 0.0:
                raise SingularJacobianError("singular Jacobian: zero determinant")
            if not math.isfinite(det):
                raise SingularJacobianError("Jacobian determinant is non-finite")
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = adj
        r0, r1, r2 = r
        dx = (
            -(a0 * r0 + a1 * r1 + a2 * r2) / det,
            -(a3 * r0 + a4 * r1 + a5 * r2) / det,
            -(a6 * r0 + a7 * r1 + a8 * r2) / det,
        )
        # the comparison is also false for a step with NaN or infinite entries
        if not math.hypot(*dx) <= 1e12 * (1.0 + math.hypot(*x)):
            if fresh:
                raise SingularJacobianError("Jacobian is numerically singular")
            adj = None
            continue
        iterations += 1
        alpha = 1.0
        for _ in range(9):
            x_try = (x[0] + alpha * dx[0], x[1] + alpha * dx[1], x[2] + alpha * dx[2])
            r_try, terms_try = residual(x_try)
            rn_try = math.hypot(*r_try)
            if rn_try < rn:
                if alpha < 1.0 or 100.0 * rn_try > rn:  # not a full step that contracted 100-fold
                    adj = None
                x, r, rn, terms = x_try, r_try, rn_try, terms_try
                break
            alpha *= 0.5
        else:  # the line search stalled
            if fresh:
                break
            adj = None
    return NewtonResult(x, iterations, rn, rn <= tol, terms)


# Float kernels build lists, not tuple(<generator>): CPython sizes such a tuple by a guess and
# shrinks it, and its per-size tuple free lists then hoard thousands of them (about 0.3 MB).


def _blocks(c: CoefficientSet) -> tuple:
    try:
        return c.elimination_blocks
    except np.linalg.LinAlgError as exc:
        raise SingularJacobianError(f"translational mass block 2 a_xx: {exc}") from exc


def _velocities(c: CoefficientSet, d) -> tuple[Vec3, Vec3]:
    """(xdot, omega) with momenta M v + a = d = (D1, D2): omega = S^-1 (D2 - a_w - P e), xdot = Mxx^-1 e + X omega."""
    mi, xc, _, p, a_x, a_w = _blocks(c)
    e = [u - v for u, v in zip(d, a_x)]
    om = _mv(c.schur_inverse, [u - v - w for u, v, w in zip(d[3:], a_w, _mv(p, e))])
    return tuple([u + v for u, v in zip(_mv(mi, e), _mv(xc, om))]), om


def _advance(q, omega, h: float) -> tuple[float, float, float, float]:
    """q (x) exp((h/2) omega), sign-matched to q and renormalized: every scheme's orientation update."""
    p = _mul_f(q, _exp_f((0.5 * h * omega[0], 0.5 * h * omega[1], 0.5 * h * omega[2])))
    if p[0] * q[0] + p[1] * q[1] + p[2] * q[2] + p[3] * q[3] < 0.0:
        p = (-p[0], -p[1], -p[2], -p[3])
    n = math.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2] + p[3] * p[3])
    if not 0.0 < n < math.inf:
        raise ValueError("cannot normalize quaternion with zero or non-finite norm")
    return (p[0] / n, p[1] / n, p[2] / n, p[3] / n)


def _link(*fields) -> StepResult:
    """StepResult(*fields), after BodyState's finiteness test on the 13 state components; BodyState names a failure."""
    r = StepResult(*fields)
    if not all(map(math.isfinite, r.q + r.x_e + r.xdot_b + r.omega_b)):  # the four are tuples
        BodyState(*r[:5])  # raises, naming the non-finite field
    return r


def _solve_rate(k: tuple, evaluate, jacobian, prev: StepResult, cfg: SolverConfig, scale: float) -> NewtonResult:
    """newton_solve on a scheme's balance, its _eval and _jacobian bound to its setup k: from prev's rate, to
    residual_tol times the run's momentum scale. Both steppers hand Newton their balance through this one call."""
    bound = partial(evaluate, k), partial(jacobian, k)
    return newton_solve(*bound, prev.omega_b, cfg.residual_tol * scale, cfg.max_iter)


def _force(sched: MorphingSchedule, t: float, *state) -> list[float]:
    """sched.force at (t, q, x_e, xdot_b, omega_b) as six floats: F on earth axes, then the torque on body axes."""
    f = sched.force(t, *state)
    try:
        out = [float(v) for v in (*f[0], *f[1])] if len(f) == 2 and len(f[0]) == len(f[1]) == 3 else []
    except (TypeError, ValueError, LookupError):
        out = []
    if not (out and all(map(math.isfinite, out))):
        raise ValueError("force did not return two finite 3-vectors (F earth axes, torque body axes)")
    return out


# left-rectangle scheme


def _left_setup(q_k, c_k: CoefficientSet, h: float, carried) -> tuple:
    """The omega-independent terms of residual_left; g1 = b = R(q_k)^T carried_x is fixed."""
    mi, xc, s, p, a_x, a_w = _blocks(c_k)
    w, x, y, z = q_k
    b, c_w = _rotate_f((w, -x, -y, -z), carried[:3]), carried[3:]
    d = (b[0] - a_x[0], b[1] - a_x[1], b[2] - a_x[2])
    g20 = [u + v for u, v in zip(_mv(p, d), a_w)]
    k0 = [u - h * v for u, v in zip(s, _mm(_skew(b), xc))]  # the Jacobian's constant part
    return b, _mv(mi, d), g20, c_w, xc, s, k0, h


def _left_eval(k: tuple, w: Vec3) -> tuple[list[float], tuple[Vec3, Vec3]]:
    """residual_left at omega = w from _left_setup's terms, and (xdot, g2) for the Jacobian and the step."""
    b, x0, g20, c_w, xc, s, _, h = k
    u, v = _mv(xc, w), _mv(s, w)
    xd = (x0[0] + u[0], x0[1] + u[1], x0[2] + u[2])
    g2 = (g20[0] + v[0], g20[1] + v[1], g20[2] + v[2])
    m, n = _cx(w, g2), _cx(xd, b)
    return [g2[i] + 0.5 * h * m[i] + h * n[i] - c_w[i] for i in range(3)], (xd, g2)


def _left_jacobian(k: tuple, w: Vec3, terms: tuple[Vec3, Vec3]) -> list[float]:
    """jacobian_left from the terms of _left_eval at w."""
    s, k0, hh = k[5], k[6], 0.5 * k[7]
    return [u + hh * (v - g) for u, v, g in zip(k0, _mm(_skew(w), s), _skew(terms[1]))]


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


def step_left(prev: StepResult, sched: MorphingSchedule, cfg: SolverConfig, scale: float) -> StepResult:
    """Advance one left-rectangle step from the previous link, carrying its history.

    Kinematics first (exponential orientation update and position quadrature
    with step k-1 values), then the implicit solve for the step-k rate.
    """
    h, v = cfg.h, _rotate_f(prev.q, prev.xdot_b)
    q_k = _advance(prev.q, prev.omega_b, h)
    x_k = (prev.x_e[0] + h * v[0], prev.x_e[1] + h * v[1], prev.x_e[2] + h * v[2])
    t_k = prev.t + h
    c_k = sched.coefficients(t_k)
    carried = prev.history
    if not sched.force_free:
        f = _force(sched, t_k, q_k, x_k, prev.xdot_b, prev.omega_b)
        carried = [c + h * u for c, u in zip(carried, f)]

    sol = _solve_rate(_left_setup(q_k, c_k, h, carried), _left_eval, _left_jacobian, prev, cfg, scale)
    (xd, g2), om, hh = sol.terms, sol.x, 0.5 * h
    m = _cx(om, g2)
    history = (*carried[:3], g2[0] - hh * m[0], g2[1] - hh * m[1], g2[2] - hh * m[2])
    fields = (t_k, q_k, x_k, xd, om, history, carried, (q_k, xd, om), c_k)
    return _link(*fields, sol.iterations, sol.residual_norm, sol.converged)


# midpoint scheme


def _mid_setup(q_k, c: CoefficientSet, h: float, carried) -> tuple:
    """The omega-independent terms of residual_mid: u = R(q_k)^T carried, both halves."""
    w, x, y, z = q_k
    return _rotate_f((w, -x, -y, -z), carried[:3]), _rotate_f((w, -x, -y, -z), carried[3:]), _blocks(c), 0.5 * h


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


def step_mid(prev: StepResult, sched: MorphingSchedule, cfg: SolverConfig, scale: float) -> StepResult:
    """Advance one midpoint step from the previous link, carrying its history.

    Solves for the midpoint rate (the midpoint velocity follows in closed
    form), then updates orientation and position with the midpoint rule. The
    velocities of prev are the previous midpoint's (the initial state's for
    the first step): they warm-start the solve and probe the force. The
    returned link carries the fresh midpoint velocities. Reversal negates
    the link's velocities and history.
    """
    h, q_k, x = cfg.h, prev.q, prev.x_e
    t_mid = prev.t + 0.5 * h
    c_mid = sched.coefficients(t_mid)
    carried = prev.history
    if not sched.force_free:
        q_pred = _advance(q_k, prev.omega_b, 0.5 * h)
        v, hh = _rotate_f(q_pred, prev.xdot_b), 0.5 * h
        x_pred = (x[0] + hh * v[0], x[1] + hh * v[1], x[2] + hh * v[2])
        f = _force(sched, t_mid, q_pred, x_pred, prev.xdot_b, prev.omega_b)
        carried = [c + h * u for c, u in zip(carried, f)]

    sol = _solve_rate(_mid_setup(q_k, c_mid, h, carried), _mid_eval, _mid_jacobian, prev, cfg, scale)
    (e, g1, xd, _), om, c = sol.terms, sol.x, carried
    q_t = _mul_f(q_k, e)
    m = _rotate_f(q_t, _cx(xd, g1))  # outgoing = incoming - h R_t (xdot x g1)
    history = (*c[:3], c[3] - h * m[0], c[4] - h * m[1], c[5] - h * m[2])
    v = _rotate_f(q_t, xd)
    x_next = (x[0] + h * v[0], x[1] + h * v[1], x[2] + h * v[2])
    fields = (prev.t + h, _advance(q_k, om, h), x_next, xd, om, history, carried, (q_t, xd, om), c_mid)
    return _link(*fields, sol.iterations, sol.residual_norm, sol.converged)


# explicit RK4 baseline on the momentum form


def step_rk_baseline(prev: StepResult, sched: MorphingSchedule, h: float) -> StepResult:
    """One classical RK4 step on the body-frame momentum equations, on Python floats.

    d/dt D1 = -omega x D1 + f on body axes, d/dt D2 = -omega x D2 - xdot x D1 + tau.
    Each stage recovers its velocities with _velocities and advances orientation from
    prev.q by _advance at its rate; prev.coeffs is the coefficient set at prev.t.
    Under a force each stage probes it once at its own state, and F is rotated to body axes.
    """
    t, q0, x0 = prev.t, prev.q, prev.x_e
    c_half, c_end = sched.coefficients(t + 0.5 * h), sched.coefficients(t + h)
    d0 = [v for d in _energy_momenta(prev.coeffs._flat, prev.xdot_b, prev.omega_b)[1:] for v in d]

    def rate(q_s, x_s, d, c, t_s):
        """Stage rate omega and the rates of x and d = (D1, D2)."""
        xd, om = _velocities(c, d)
        m, n, o = _cx(om, d[:3]), _cx(om, d[3:]), _cx(xd, d[:3])
        dd = [-m[0], -m[1], -m[2], -n[0] - o[0], -n[1] - o[1], -n[2] - o[2]]
        if not sched.force_free:
            f = _force(sched, t_s, q_s, x_s, xd, om)
            dd = [u + v for u, v in zip(dd, (*_rotate_f((q_s[0], -q_s[1], -q_s[2], -q_s[3]), f[:3]), *f[3:]))]
        return om, _rotate_f(q_s, xd), dd

    k = [rate(q0, x0, d0, prev.coeffs, t)]
    for a, c in ((0.5, c_half), (0.5, c_half), (1.0, c_end)):
        om, dx, dd = k[-1]
        x_s, d_s = [u + a * h * v for u, v in zip(x0, dx)], [u + a * h * v for u, v in zip(d0, dd)]
        k.append(rate(_advance(q0, om, a * h), x_s, d_s, c, t + a * h))

    def weighted(i):
        return [p + 2.0 * q + 2.0 * r + s for p, q, r, s in zip(*[ki[i] for ki in k])]

    sixth = h / 6.0
    xd, om = _velocities(c_end, [u + sixth * v for u, v in zip(d0, weighted(2))])
    x_new = tuple([u + sixth * v for u, v in zip(x0, weighted(1))])
    q_new = _advance(q0, [w / 6.0 for w in weighted(0)], h)
    return _link(t + h, q_new, x_new, xd, om, None, None, (q_new, xd, om), c_end, 0, 0.0, True)


# run driver


def seed_step(initial: BodyState, c0: CoefficientSet, method: str, h: float) -> StepResult:
    """The chain's first link: initial as a zero-iteration step, with the history method's first step carries.

    left carries the canonical momenta at step -h. mid carries the continuous momenta
    of the initial state, so the quantity the scheme conserves is the true initial
    momentum and the trajectory stays second-order accurate. (Seeding from a virtual
    midpoint shifted by exp((h/4) omega) instead conserves a momentum O(h) away from the
    true one, which degrades the whole run to first order.) rk carries none. c0 is the
    coefficient set at initial.t.
    """
    q, x, xd, om = [tuple(a.tolist()) for a in (initial.q, initial.x_e, initial.xdot_b, initial.omega_b)]
    n = math.hypot(*q)  # BodyState admits a q up to 1e-6 off unit norm; a run starts on a unit one
    q = tuple([v / n for v in q]) if abs(n - 1.0) > 2**-50 else q
    history = None
    if method == "left":
        _, p_x, p_w = _canonical_f(q, xd, om, c0._flat, -h)
        history = (*p_x, *p_w)
    elif method == "mid":
        _, d1, d2 = _energy_momenta(c0._flat, xd, om)
        history = (*_rotate_f(q, d1), *_rotate_f(q, d2))
    return StepResult(initial.t, q, x, xd, om, history, None, (q, xd, om), c0, 0, 0.0, True)


def momentum_scale(state: BodyState, c: CoefficientSet, h: float) -> float:
    """Absolute scale for Newton tolerances: initial canonical momentum norm, floored at 1."""
    _, p_x, p_w = _canonical_f(state.q.tolist(), state.xdot_b.tolist(), state.omega_b.tolist(), c._flat, h)
    return max(1.0, math.hypot(*p_x, *p_w))


def _midpoint_step_velocities(v: Array) -> Array:
    """Second-order step-point velocities from rows [v_0, m_1, ..., m_n] (m_k: midpoints).

    Entry 0 keeps the exact initial data, inner entries average adjacent
    midpoints, and the final entry extrapolates linearly (the nearest-midpoint
    value would be off by O(h/2) there).
    """
    out = v.copy()
    out[1:-1] = 0.5 * (v[1:-1] + v[2:])
    if len(v) >= 3:
        out[-1] = 1.5 * v[-1] - 0.5 * v[-2]
    return out


def _step_count(t0: float, t_end: float, h: float) -> int:
    """round((t_end - t0)/h), at least 1; past 2**53 steps the times t0 + k h stop being distinct."""
    n = (t_end - t0) / h
    if not (math.isfinite(n) and round(n) <= 2**53):
        raise ValueError(f"(t_end - t0)/h = {n:g} is not finite or exceeds 2**53 steps")
    return max(1, round(n))


def integrate(
    initial: BodyState,
    sched: MorphingSchedule,
    cfg: SolverConfig,
    method: str,
    t_end: float,
    rigid_params: RigidParams | None = None,
) -> TrajectoryRecord:
    """Fixed-step run from initial.t to (approximately) t_end.

    method is one of left, mid, rk. The run takes n = round((t_end - t)/h) steps
    (halves to even, at least 1; ValueError if n is not finite or exceeds 2**53)
    and ends at t + n h, the record's last time; step k's time t + k h is computed
    from k. Every accepted state is recorded. A step that fails (Newton does not
    converge, the Jacobian is singular, the state goes non-finite) truncates the
    record, flags it and names the cause in stop_reason; so does a non-finite
    initial energy or momentum, with a one-row record and no step. Physical
    momentum columns are filled when rigid_params is given (single rigid bodies).

    The conserved-quantity columns are evaluated after the steps, 128 rows at a
    time, by the float kernels that check row 0, run on numpy columns (each entry
    rounds as on floats). The first non-finite row ends the record, with stop_reason
    "diverged: non-finite energy or momentum" over any later step's failure, and
    the loop at the end of its block, at most 127 steps later. For mid the columns
    are evaluated at the midpoint quadrature states (row 0 repeats the first
    midpoint); the velocity columns hold second-order step-point reconstructions.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if not t_end > initial.t:
        raise ValueError("t_end must exceed the initial time")
    t0, h = initial.t, cfg.h
    n_steps = _step_count(t0, t_end, h)
    c0 = sched.coefficients(t0)
    # the lambdas look the steppers up at each call, so a wrapper set on this module sees every step
    take_step = {
        "left": lambda r: step_left(r, sched, cfg, scale),
        "mid": lambda r: step_mid(r, sched, cfg, scale),
        "rk": lambda r: step_rk_baseline(r, sched, h),
    }[method]
    if rigid_params is not None:
        i_com, c_b, mass = rigid_params.com_inertia().ravel().tolist(), rigid_params.c.tolist(), rigid_params.m

    def conserved(point, f) -> tuple:
        """Row [T, p_x, p_w, given rigid_params P_x = m R (xdot + omega x c), P_w = R I_com omega] at a point
        (q, xdot, omega) and a set's _flat f, on floats (row 0) or numpy columns (rows). The momenta are
        recomputed from the recorded velocities, not read from the solve's terms: for both schemes the solve's
        R(q) g1 equals the carried p_x by construction, so an e_x taken from it would check nothing.
        """
        q, xdot, omega = point
        t, p_x, p_w = _canonical_f(q, xdot, omega, f, h)
        if rigid_params is None:
            return (t, *p_x, *p_w)
        v_com = _rotate_f(q, [u + v for u, v in zip(xdot, _cx(omega, c_b))])
        return (t, *p_x, *p_w, *[mass * v for v in v_com], *_rotate_f(q, _mv(i_com, omega)))

    def rows(pending: list) -> Array:
        """conserved over (point, _flat) pairs, run once on numpy columns (the coefficients as scalars when all rows
        share one _flat, a constant schedule's): elementwise float64 operations round as on floats."""
        points, flats = zip(*pending)
        v = np.fromiter(chain.from_iterable(chain.from_iterable(points)), float).reshape(-1, 10).T.copy()
        f = flats[0]
        if any(g is not f for g in flats):
            c = np.fromiter(chain.from_iterable(chain(*g[:5], g[5:]) for g in flats), float).reshape(-1, 34).T.copy()
            f = (tuple(c[:9]), tuple(c[9:18]), tuple(c[18:27]), tuple(c[27:30]), tuple(c[30:33]), c[33])
        return np.column_stack(conserved((tuple(v[:4]), tuple(v[4:7]), tuple(v[7:])), f))

    stop_reason = ""
    # a diverging run surfaces as a non-finite state or row; row 0 and the seed are held to the same rule
    with np.errstate(over="ignore", invalid="ignore"):  # for a schedule's numpy force and the row blocks
        last = seed_step(initial, c0, method, h)
        scale = momentum_scale(initial, c0, h)
        row0 = conserved(last.point, c0._flat)
        states, blocks, pending = [(*last[1:5], 0)], [np.array([row0])], []  # q, x_e, xdot_b, omega_b, iterations
        if not all(map(math.isfinite, row0)):
            stop_reason = "diverged: non-finite initial energy or momentum"
            n_steps = 0
        for k in range(1, n_steps + 1):
            try:
                res = take_step(last)
            except (SingularJacobianError, ValueError) as exc:
                stop_reason = str(exc)
                break
            if not res.converged:
                stop_reason = "Newton did not converge"
                break
            last = StepResult(t0 + h * k, *res[1:])  # the stepper reached prev.t + h; keep the chain on the grid
            states.append((*res[1:5], res.iterations))
            pending.append((res.point, res.coeffs._flat))  # not the set, which caches its elimination blocks
            if len(pending) == 128:  # spreads numpy's per-call cost; bounds the rows held and steps past a bad one
                blocks.append(rows(pending))
                pending = []
                if not np.isfinite(blocks[-1]).all():
                    break
        if pending:
            blocks.append(rows(pending))
    diag = np.concatenate(blocks)
    bad = np.flatnonzero(~np.isfinite(diag[1:]).all(axis=1))
    if bad.size:  # the record ends where the loop would have stopped, and this reason wins over a later one
        n, stop_reason = int(bad[0]) + 1, "diverged: non-finite energy or momentum"
        diag, states = diag[:n], states[:n]

    q, x_e, xdot_b, omega_b, iterations = [np.array(col) for col in zip(*states)]
    if method == "mid" and len(diag) > 1:
        xdot_b, omega_b = _midpoint_step_velocities(xdot_b), _midpoint_step_velocities(omega_b)
        diag[0] = diag[1]
    return TrajectoryRecord(
        t0 + h * np.arange(len(diag)), q, x_e, xdot_b, omega_b, energy=diag[:, 0], p_x=diag[:, 1:4], p_w=diag[:, 4:7],
        P_x=diag[:, 7:10] if rigid_params else None, P_w=diag[:, 10:13] if rigid_params else None,
        newton_iters=iterations, method=method, h=h, scenario=sched.name,
        truncated=bool(stop_reason), stop_reason=stop_reason, force_free=sched.force_free,
    )
