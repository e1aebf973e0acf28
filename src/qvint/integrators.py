"""Variational timesteppers for the coupled body model.

Two implicit one-step schemes advance a :class:`~qvint.model.BodyState` by a
fixed step h. Both discretize the same momentum balance and differ only in
the quadrature of the underlying action sum:

* left-rectangle: velocities live at step points; orientation advances with
  the explicit exponential update before each solve.
* midpoint: velocities live at step midpoints; the midpoint orientation is
  reconstructed in closed form from the unknown midpoint rate, which keeps
  the scheme self-adjoint.

Each step solves the 6-component momentum balance for the new velocities. It
is linear in xdot for a fixed rate omega, so its translational row is solved
in closed form and Newton runs on omega alone, on Python floats (exact 3x3
Jacobian, adjugate solve, halving line search, warm start from the previous
rate). The translational row holds by construction, and a step carries the
translational momentum it received forward unchanged. Each scheme's residual
(residual_left, residual_mid) and its exact derivative (jacobian_left,
jacobian_mid) wrap one balance evaluation (_left_eval, _mid_eval): Newton
calls it once per iterate and the Jacobian reuses its terms. A classical RK4
baseline on the momentum form of the equations of motion is included for
accuracy comparisons; it is not structure preserving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .diagnostics import TrajectoryRecord
from .model import BodyState, CoefficientSet, MorphingSchedule, RigidParams, _canonical_momenta_v, _cross, _energy_v
from .model import _cx, _mm, _momenta_v, _mv, _physical_momenta_v, _skew, canonical_momenta
from .quat import _exp_f, _mul_f, _right_jacobian, _rotate, _rotate_f, conj, exp_map, normalize, quat_mul

Array = np.ndarray
Vec3 = tuple[float, float, float]

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


@dataclass(frozen=True)
class StepResult:
    """Outcome of one step of any scheme.

    point (orientation, linear and angular velocity) is where the record
    evaluates the step's conserved quantities and coeffs is the coefficient
    set at its time: the new step point for left and rk, the new midpoint for
    mid. carried is the outgoing momentum plus step impulse that the Newton
    solve balanced (None for rk). history (left and mid) is the outgoing
    momentum of the solved balance, which the next step carries: carried[:3]
    verbatim, since the reduced solve balances it by construction, and a
    rotational part from the solve's own terms. Not recomputing it from the
    solved velocities makes the momentum sum telescope to the Newton floor.
    """

    state: BodyState
    iterations: int
    residual_norm: float
    converged: bool
    point: tuple[Array, Array, Array]
    coeffs: CoefficientSet
    carried: Array | None
    history: Array | None = None


def newton_solve(
    residual: Callable[[Vec3], tuple[Sequence[float], object]],
    jacobian: Callable[[Vec3, object], Sequence[float]],
    guess,
    cfg: SolverConfig,
    tol_abs: float | None = None,
) -> NewtonResult:
    """Damped Newton iteration on a residual in three unknowns, on Python floats.

    residual(x) takes a 3-tuple and returns (r, terms): the 3 residual floats
    and what their evaluation shares with the derivative. jacobian(x, terms)
    returns the derivative at x as 9 row-major floats, once per iteration;
    the 3x3 system is solved in closed form (adjugate over determinant). The
    result carries the terms of the returned x. Halving line search on the
    residual norm (at most 8 halvings). One polish iteration after the
    tolerance is first met, kept only when it improves the residual, drives
    the balance defect to the roundoff floor so momentum sums telescoped over
    many steps stay at machine precision. Raises SingularJacobianError for a
    non-finite residual or an unusable Jacobian (non-finite entries, a zero
    or non-finite determinant, a step beyond 1e12 (1 + |x|)); a stalled line
    search returns converged=False.
    """
    tol = cfg.residual_tol if tol_abs is None else tol_abs
    x = tuple([float(v) for v in guess])
    r, terms = residual(x)
    rn = math.hypot(*r)
    iterations = 0
    polish_left = 1
    while iterations < cfg.max_iter:
        if rn <= tol:
            if polish_left == 0 or rn == 0.0:
                break
            polish_left -= 1
        if not math.isfinite(rn):
            raise SingularJacobianError("residual is non-finite")
        jac = jacobian(x, terms)
        if not all(map(math.isfinite, jac)):
            raise SingularJacobianError("Jacobian has non-finite entries")
        a, b, c, d, e, f, g, h, i = jac
        c0, c1, c2 = e * i - f * h, f * g - d * i, d * h - e * g
        det = a * c0 + b * c1 + c * c2
        if det == 0.0:
            raise SingularJacobianError("singular Jacobian: zero determinant")
        if not math.isfinite(det):
            raise SingularJacobianError("Jacobian determinant is non-finite")
        r0, r1, r2 = r
        dx = (
            -(c0 * r0 + (c * h - b * i) * r1 + (b * f - c * e) * r2) / det,
            -(c1 * r0 + (a * i - c * g) * r1 + (c * d - a * f) * r2) / det,
            -(c2 * r0 + (b * g - a * h) * r1 + (a * e - b * d) * r2) / det,
        )
        # the comparison is also false for a step with NaN or infinite entries
        if not math.hypot(*dx) <= 1e12 * (1.0 + math.hypot(*x)):
            raise SingularJacobianError("Jacobian is numerically singular")
        alpha = 1.0
        improved = False
        for _ in range(9):
            x_try = (x[0] + alpha * dx[0], x[1] + alpha * dx[1], x[2] + alpha * dx[2])
            r_try, terms_try = residual(x_try)
            rn_try = math.hypot(*r_try)
            if rn_try < rn:
                x, r, rn, terms = x_try, r_try, rn_try, terms_try
                improved = True
                break
            alpha *= 0.5
        iterations += 1
        if not improved:
            break
    return NewtonResult(x, iterations, rn, rn <= tol, terms)


# Float kernels build lists, not tuple(<generator>): CPython sizes such a tuple by a guess and
# shrinks it, and its per-size tuple free lists then hoard thousands of them (about 0.3 MB).


def _blocks(c: CoefficientSet) -> tuple:
    try:
        return c.elimination_blocks()
    except ValueError as exc:  # np.linalg.LinAlgError is one
        raise SingularJacobianError(f"translational mass block 2 a_xx: {exc}") from exc


def _advance(q, omega, h: float) -> tuple[float, float, float, float]:
    """q (x) exp((h/2) omega), sign-matched to q and renormalized."""
    p = _mul_f(q, _exp_f([0.5 * h * w for w in omega]))
    if p[0] * q[0] + p[1] * q[1] + p[2] * q[2] + p[3] * q[3] < 0.0:
        p = (-p[0], -p[1], -p[2], -p[3])
    n = math.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2] + p[3] * p[3])
    if not 0.0 < n < math.inf:
        raise ValueError("cannot normalize quaternion with zero or non-finite norm")
    return (p[0] / n, p[1] / n, p[2] / n, p[3] / n)


# left-rectangle scheme


def _left_setup(q_k, c_k: CoefficientSet, h: float, carried: Array) -> tuple:
    """The omega-independent terms of residual_left; g1 = b = R(q_k)^T carried_x is fixed."""
    mi, xc, s, p, a_x, a_w = _blocks(c_k)
    (w, x, y, z), cl = q_k, carried.tolist()
    b, c_w = _rotate_f((w, -x, -y, -z), cl[:3]), cl[3:]
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


def residual_left(q_k: Array, omega: Array, c_k: CoefficientSet, h: float, carried: Array) -> Array:
    """Left-rectangle momentum balance at step k, reduced to the rate omega (body axes).

    carried: outgoing momentum of step k-1 plus step impulse (earth-axes x, body-axes w).
    The translational row fixes g1 = b = R(q_k)^T carried_x, so xdot = Mxx^-1 (b - a_x)
    + X omega and g2 = Mwx xdot + Mww omega + a_w (CoefficientSet.elimination_blocks).
    The residual is the rotational row g2 + (h/2) omega x g2 + h xdot x b - carried_w.
    """
    return np.array(_left_eval(_left_setup(list(map(float, q_k)), c_k, h, carried), tuple(map(float, omega)))[0])


def jacobian_left(q_k: Array, omega: Array, c_k: CoefficientSet, h: float, carried: Array) -> Array:
    """Exact 3x3 derivative of residual_left in omega: S - h b^ X + (h/2)(omega^ S - g2^), x^ = skew(x)."""
    k, w = _left_setup(list(map(float, q_k)), c_k, h, carried), tuple(map(float, omega))
    return np.array(_left_jacobian(k, w, _left_eval(k, w)[1])).reshape(3, 3)


def step_left(
    prev: BodyState, history: Array, sched: MorphingSchedule, cfg: SolverConfig, scale: float = 1.0
) -> StepResult:
    """Advance one left-rectangle step from prev and the history of the previous one.

    Kinematics first (exponential orientation update and position quadrature
    with step k-1 values), then the implicit solve for the step-k rate.
    """
    h = cfg.h
    q_k = _advance(prev.q.tolist(), prev.omega_b.tolist(), h)
    x_k = prev.x_e + h * _rotate(prev.q, prev.xdot_b)
    t_k = prev.t + h
    c_k = sched.coefficients(t_k)
    carried = history
    if not sched.force_free:
        probe = BodyState(t_k, q_k, x_k, prev.xdot_b, prev.omega_b)
        f_earth, tau_body = sched.force(probe, t_k)
        carried = carried + h * np.concatenate((f_earth, tau_body))  # step impulse

    k = _left_setup(q_k, c_k, h, carried)
    sol = newton_solve(
        lambda w: _left_eval(k, w),
        lambda w, terms: _left_jacobian(k, w, terms),
        prev.omega_b.tolist(),
        cfg,
        tol_abs=cfg.residual_tol * scale,
    )
    (xd, g2), om, hh = sol.terms, sol.x, 0.5 * h
    m = _cx(om, g2)
    history = np.array((*carried[:3].tolist(), g2[0] - hh * m[0], g2[1] - hh * m[1], g2[2] - hh * m[2]))
    state = BodyState(t_k, q_k, x_k, xd, om)
    point = (state.q, state.xdot_b, state.omega_b)
    return StepResult(state, sol.iterations, sol.residual_norm, sol.converged, point, c_k, carried, history)


# midpoint scheme


def _mid_setup(q_k, c: CoefficientSet, h: float, carried: Array) -> tuple:
    """The omega-independent terms of residual_mid: u = R(q_k)^T carried, both halves."""
    (w, x, y, z), cl = q_k, carried.tolist()
    return _rotate_f((w, -x, -y, -z), cl[:3]), _rotate_f((w, -x, -y, -z), cl[3:]), _blocks(c), 0.5 * h


def _mid_eval(k: tuple, w: Vec3) -> tuple[list[float], tuple]:
    """residual_mid at omega = w, and (e = exp((h/4) w), g1, xdot, E^T u_w) for the Jacobian and the step."""
    u_x, u_w, (mi, xc, s, p, a_x, a_w), hh = k
    e = _exp_f((0.5 * hh * w[0], 0.5 * hh * w[1], 0.5 * hh * w[2]))
    ec = (e[0], -e[1], -e[2], -e[3])
    g1, wv = _rotate_f(ec, u_x), _rotate_f(ec, u_w)
    d = (g1[0] - a_x[0], g1[1] - a_x[1], g1[2] - a_x[2])
    m1, m2, m3, m4 = _mv(mi, d), _mv(xc, w), _mv(p, d), _mv(s, w)
    xd = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
    n = _cx(xd, g1)
    # in this order; subtracting E^T u_w last gives an exact zero (no polish) on ~2 % of free-body steps
    return [(m3[i] + a_w[i] - wv[i]) + m4[i] + hh * n[i] for i in range(3)], (e, g1, xd, wv)


def _mid_jacobian(k: tuple, w: Vec3, terms: tuple) -> list[float]:
    """jacobian_mid from the terms of _mid_eval at w."""
    _, _, (mi, xc, s, p, _, _), hh = k
    _, g1, xd, wv = terms
    jr = _right_jacobian((hh * w[0], hh * w[1], hh * w[2]))
    g1s = _skew(g1)
    a = [hh * v for v in _mm(g1s, jr)]  # d g1 / d omega
    x = [u + v for u, v in zip(_mm(mi, a), xc)]  # d xdot / d omega
    return [
        u + v + hh * (y - z - q)
        for u, v, y, z, q in zip(_mm(p, a), s, _mm(_skew(xd), a), _mm(g1s, x), _mm(_skew(wv), jr))
    ]


def residual_mid(q_k: Array, omega: Array, c_mid: CoefficientSet, h: float, carried: Array) -> Array:
    """Midpoint momentum balance across step point k, reduced to the midpoint rate omega.

    carried: outgoing momentum of the previous midpoint (StepResult.history) plus step
    impulse, on earth axes; u = R(q_k)^T carried. With E = R(exp((h/4) omega)), the
    translational row fixes g1 = E^T u_x, so xdot = Mxx^-1 (g1 - Mxw omega - a_x) and
    g2 = Mwx xdot + Mww omega + a_w. The residual is the rotational row on midpoint body
    axes, g2 + (h/2) xdot x g1 - E^T u_w.
    """
    return np.array(_mid_eval(_mid_setup(list(map(float, q_k)), c_mid, h, carried), tuple(map(float, omega)))[0])


def jacobian_mid(q_k: Array, omega: Array, c_mid: CoefficientSet, h: float, carried: Array) -> Array:
    """Exact 3x3 derivative of residual_mid in omega.

    E = Exp(phi), phi = (h/2) omega, so d(E^T u)/d omega = (h/2) (E^T u)^ J_r(phi)
    with J_r the SO(3) right Jacobian. With X = Mxx^-1 ((h/2) g1^ J_r - Mxw):
    Mwx X + Mww + (h/2)(xdot^ (h/2) g1^ J_r - g1^ X) - (h/2) (E^T u_w)^ J_r.
    """
    k, w = _mid_setup(list(map(float, q_k)), c_mid, h, carried), tuple(map(float, omega))
    return np.array(_mid_jacobian(k, w, _mid_eval(k, w)[1])).reshape(3, 3)


def initial_midpoint_history(state: BodyState, c0: CoefficientSet) -> Array:
    """History that seeds the first midpoint step.

    The chain is seeded with the continuous momenta of the initial state, so
    the quantity the scheme conserves is the true initial momentum and the
    trajectory stays second-order accurate. (Seeding from a virtual midpoint
    shifted by exp((h/4) omega) instead conserves a momentum O(h) away from
    the true one, which degrades the whole run to first order.)
    """
    g = _momenta_v(np.concatenate((state.xdot_b, state.omega_b)), c0)
    return np.concatenate((_rotate(state.q, g[:3]), _rotate(state.q, g[3:])))


def step_mid(
    prev: BodyState, history: Array, sched: MorphingSchedule, cfg: SolverConfig, scale: float = 1.0
) -> StepResult:
    """Advance one midpoint step from prev and the history of the previous one.

    Solves for the midpoint rate (the midpoint velocity follows in closed
    form), then updates orientation and position with the midpoint rule. The
    velocities of prev are the previous midpoint's (the initial state's for
    the first step): they warm-start the solve and probe the force. The
    returned state carries the fresh midpoint velocities. Reversal negates
    the state velocities and the history.
    """
    h = cfg.h
    t_mid = prev.t + 0.5 * h
    c_mid = sched.coefficients(t_mid)
    q_k = prev.q.tolist()
    carried = history
    if not sched.force_free:
        q_pred = normalize(quat_mul(q_k, exp_map((0.25 * h) * prev.omega_b)))
        x_pred = prev.x_e + (0.5 * h) * _rotate(q_pred, prev.xdot_b)
        probe = BodyState(t_mid, q_pred, x_pred, prev.xdot_b, prev.omega_b)
        f_earth, tau_body = sched.force(probe, t_mid)
        carried = carried + h * np.concatenate((f_earth, tau_body))  # step impulse

    k = _mid_setup(q_k, c_mid, h, carried)
    sol = newton_solve(
        lambda w: _mid_eval(k, w),
        lambda w, terms: _mid_jacobian(k, w, terms),
        prev.omega_b.tolist(),
        cfg,
        tol_abs=cfg.residual_tol * scale,
    )
    (e, g1, xd, _), om = sol.terms, sol.x
    q_t = _mul_f(q_k, e)
    m = _rotate_f(q_t, _cx(xd, g1))  # outgoing = incoming - h R_t (xdot x g1)
    c = carried.tolist()
    history = np.array((*c[:3], c[3] - h * m[0], c[4] - h * m[1], c[5] - h * m[2]))
    x_next = prev.x_e + h * np.array(_rotate_f(q_t, xd))
    state = BodyState(prev.t + h, _advance(q_k, om, h), x_next, xd, om)
    point = (np.array(q_t), state.xdot_b, state.omega_b)
    return StepResult(state, sol.iterations, sol.residual_norm, sol.converged, point, c_mid, carried, history)


# explicit RK4 baseline on the momentum form


def step_rk_baseline(
    prev: BodyState, c_prev: CoefficientSet, sched: MorphingSchedule, h: float
) -> StepResult:
    """One classical RK4 step on the body-frame momentum equations.

    d/dt D1 = -omega x D1 + f on body axes, d/dt D2 = -omega x D2
    - xdot x D1 + tau; velocities are recovered from the momenta through the
    (time-dependent) mass matrix at every stage, and the orientation advances
    by a first-order exponential update per stage. c_prev is the coefficient
    set at prev.t.
    """
    t = prev.t
    c_half = sched.coefficients(t + 0.5 * h)
    c_end = sched.coefficients(t + h)
    d0 = _momenta_v(np.concatenate((prev.xdot_b, prev.omega_b)), c_prev)

    def rate(q_s, x_s, d, c, t_s):
        """Stage velocities v and the rates of x and d = (D1, D2)."""
        v = c.velocity_inverse() @ (d - c.momentum_offset())
        xd, om, d1 = v[:3], v[3:], d[:3]
        dd = np.concatenate((-_cross(om, d1), -_cross(om, d[3:]) - _cross(xd, d1)))
        if not sched.force_free:
            probe = BodyState(t_s, normalize(q_s), x_s, xd, om)
            f_e, tau = sched.force(probe, t_s)
            dd = dd + np.concatenate((_rotate(conj(probe.q), f_e), tau))
        return v, _rotate(q_s, xd), dd

    k = [rate(prev.q, prev.x_e, d0, c_prev, t)]
    for a, c in ((0.5, c_half), (0.5, c_half), (1.0, c_end)):
        v, dx, dd = k[-1]
        q_s = quat_mul(prev.q, exp_map((0.5 * a * h) * v[3:]))
        k.append(rate(q_s, prev.x_e + (a * h) * dx, d0 + (a * h) * dd, c, t + a * h))

    def weighted(i):
        return k[0][i] + 2.0 * k[1][i] + 2.0 * k[2][i] + k[3][i]

    sixth = h / 6.0
    q_new = normalize(quat_mul(prev.q, exp_map((0.5 * h) * (weighted(0)[3:] / 6.0))))
    v_new = c_end.velocity_inverse() @ (d0 + sixth * weighted(2) - c_end.momentum_offset())
    state = BodyState(t + h, q_new, prev.x_e + sixth * weighted(1), v_new[:3], v_new[3:])
    return StepResult(state, 0, 0.0, True, (state.q, state.xdot_b, state.omega_b), c_end, None)


# run driver


def momentum_scale(state: BodyState, c: CoefficientSet, h: float) -> float:
    """Absolute scale for Newton tolerances: initial canonical momentum norm, floored at 1."""
    p_x, p_w = _canonical_momenta_v(state.q, np.concatenate((state.xdot_b, state.omega_b)), c, h)
    return max(1.0, math.hypot(*p_x.tolist(), *p_w.tolist()))


def _midpoint_step_velocities(v: Array) -> Array:
    """Second-order step-point velocities from rows [v_0, m_1, ..., m_n] (m_k: midpoints).

    Entry 0 keeps the exact initial data, inner entries average adjacent
    midpoints, and the final entry extrapolates linearly (the nearest-midpoint
    value would be off by O(h/2) there).
    """
    out = v.copy()
    mids = v[1:]
    out[1:-1] = 0.5 * (mids[:-1] + mids[1:])
    if len(mids) >= 2:
        out[-1] = 1.5 * mids[-1] - 0.5 * mids[-2]
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

    method is one of left, mid, rk. The step count is n = round((t_end - t)/h)
    (nearest integer, halves to even), at least 1, so the run ends at t + n h,
    off t_end when t_end - t is not a multiple of h; the record's last time is
    the time reached; a count that is not finite or exceeds 2**53 raises
    ValueError. Step k's time is t + k h, computed from k, so rounding does
    not accumulate over the run. Every accepted state is recorded. A step
    that fails (Newton does not converge, the Jacobian is singular, or
    the state goes non-finite) truncates the record, flags it and names the
    cause in stop_reason; so does an initial state whose energy or momentum
    is non-finite, with a one-row record. Physical momentum columns are
    filled when rigid_params is given (single-rigid-body models only).

    For the midpoint method the conserved-quantity columns are evaluated at
    the midpoint quadrature states (row 0 repeats the first midpoint); the
    velocity columns hold second-order step-point reconstructions.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if not t_end > initial.t:
        raise ValueError("t_end must exceed the initial time")
    h = cfg.h
    n_steps = _step_count(initial.t, t_end, h)
    c0 = sched.coefficients(initial.t)
    take_step = {
        "left": lambda r: step_left(r.state, r.history, sched, cfg, scale),
        "mid": lambda r: step_mid(r.state, r.history, sched, cfg, scale),
        "rk": lambda r: step_rk_baseline(r.state, r.coeffs, sched, h),
    }[method]

    i_com = None if rigid_params is None else rigid_params.com_inertia()

    def conserved(r: StepResult) -> Array:
        """Row [T, p_x, p_w] (then P_x, P_w with rigid_params) at the step's diagnostics point."""
        q, xdot, omega = r.point
        v = np.concatenate((xdot, omega))
        parts = [(_energy_v(v, r.coeffs),), *_canonical_momenta_v(q, v, r.coeffs, h)]
        if rigid_params is not None:
            parts += _physical_momenta_v(q, xdot, omega, rigid_params, i_com)
        return np.concatenate(parts)

    # the initial state enters as a zero-iteration step; of the steps only the last is kept whole
    if method == "left":  # left's outgoing momentum: canonical at step -h
        history0 = np.concatenate(canonical_momenta(initial, c0, -h))
    else:
        history0 = initial_midpoint_history(initial, c0)
    last = StepResult(initial, 0, 0.0, True, (initial.q, initial.xdot_b, initial.omega_b), c0, None, history0)
    states, iterations = [initial], [0]
    stop_reason = ""
    # a diverging run surfaces as a non-finite state or conserved-quantity row,
    # reported once as its stop reason; row 0 is held to the same rule
    with np.errstate(over="ignore", invalid="ignore"):
        scale = momentum_scale(initial, c0, h)
        rows = [conserved(last)]
        if not np.isfinite(rows[0]).all():
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
            row = conserved(res)
            if not np.isfinite(row).all():
                stop_reason = "diverged: non-finite energy or momentum"
                break
            # the stepper reached prev.t + h; its fresh state moves onto the grid
            object.__setattr__(res.state, "t", initial.t + h * k)
            last = res
            states.append(res.state)
            iterations.append(res.iterations)
            rows.append(row)

    xd_arr = np.array([s.xdot_b for s in states])
    om_arr = np.array([s.omega_b for s in states])
    diag = np.array(rows)
    if method == "mid" and len(states) > 1:
        xd_arr = _midpoint_step_velocities(xd_arr)
        om_arr = _midpoint_step_velocities(om_arr)
        diag[0] = diag[1]

    return TrajectoryRecord(
        t=initial.t + h * np.arange(len(states)),
        q=np.array([s.q for s in states]),
        x_e=np.array([s.x_e for s in states]),
        xdot_b=xd_arr,
        omega_b=om_arr,
        energy=diag[:, 0],
        p_x=diag[:, 1:4],
        p_w=diag[:, 4:7],
        P_x=None if i_com is None else diag[:, 7:10],
        P_w=None if i_com is None else diag[:, 10:13],
        newton_iters=np.array(iterations, dtype=int),
        method=method,
        h=h,
        scenario=sched.name,
        truncated=bool(stop_reason),
        stop_reason=stop_reason,
        force_free=sched.force_free,
    )
