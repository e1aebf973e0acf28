"""Variational timesteppers for the coupled body model.

Two implicit one-step schemes advance a :class:`~qvint.model.BodyState` by a
fixed step h. Both discretize the same momentum balance and differ only in
the quadrature of the underlying action sum:

* left-rectangle: velocities live at step points; orientation advances with
  the explicit exponential update before each solve.
* midpoint: velocities live at step midpoints; the midpoint orientation is
  reconstructed in closed form from the unknown midpoint rate, which keeps
  the scheme self-adjoint.

Each step solves a 6-dimensional nonlinear momentum balance for the new
velocities with a damped Newton iteration (the balance's closed-form
Jacobian, halving line search, warm start from the previous velocities).
Each scheme's residual (residual_left, residual_mid) and its exact
derivative (jacobian_left, jacobian_mid) wrap one balance evaluation
(_left_eval, _mid_eval): Newton calls it once per iterate and the Jacobian
reuses its terms. A classical RK4 baseline on the momentum form of the
equations of motion is included for accuracy comparisons; it is not
structure preserving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .diagnostics import TrajectoryRecord
from .model import (
    BodyState,
    CoefficientSet,
    MorphingSchedule,
    RigidParams,
    _canonical_momenta_v,
    _cross,
    _energy_v,
    _momenta_v,
    _physical_momenta_v,
    skew,
)
from .quat import SMALL_ANGLE, _rotate, _rotation_matrix, conj, exp_map, normalize, quat_mul

Array = np.ndarray

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
    x: Array
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
    solve balanced (None for rk). history (mid only) is the outgoing momentum
    of the solved balance, which the next midpoint step carries: reusing the
    stored vector instead of recomputing it makes the discrete momentum sum
    telescope exactly, to the Newton floor.
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
    residual: Callable[[Array], tuple[Array, object]],
    jacobian: Callable[[Array, object], Array],
    guess: Array,
    cfg: SolverConfig,
    tol_abs: float | None = None,
) -> NewtonResult:
    """Damped Newton iteration on a square residual.

    residual(x) returns (r, terms): the residual vector and whatever its
    evaluation shares with the derivative. jacobian(x, terms) returns the
    derivative of r at x from those terms (the steppers' exact balance
    Jacobians); it is evaluated once per iteration, so each iterate costs one
    residual evaluation. The result carries the terms of the returned x.
    Halving line search on the residual norm (at most 8 halvings). After the
    tolerance is first met one extra polish iteration runs, kept only when it
    improves the residual; this drives the leftover balance defect to the
    roundoff floor so momentum sums telescoped over many steps stay at
    machine precision.
    Raises SingularJacobianError for an unusable Jacobian; a stalled line
    search returns converged=False.
    """
    tol = cfg.residual_tol if tol_abs is None else tol_abs
    x = np.array(guess, dtype=float)
    r, terms = residual(x)
    rn = float(np.sqrt(r @ r))
    iterations = 0
    polish_left = 1
    while iterations < cfg.max_iter:
        if rn <= tol:
            if polish_left == 0 or rn == 0.0:
                break
            polish_left -= 1
        if not np.isfinite(r).all():
            raise SingularJacobianError("residual is non-finite")
        jac = jacobian(x, terms)
        if not np.isfinite(jac).all():
            raise SingularJacobianError("Jacobian has non-finite entries")
        try:
            dx = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(f"singular Jacobian: {exc}") from exc
        # the comparison is also false for a step with NaN or infinite entries
        if not float(np.sqrt(dx @ dx)) <= 1e12 * (1.0 + float(np.sqrt(x @ x))):
            raise SingularJacobianError("Jacobian is numerically singular")
        alpha = 1.0
        improved = False
        for _ in range(9):
            x_try = x + alpha * dx
            r_try, terms_try = residual(x_try)
            rn_try = float(np.sqrt(r_try @ r_try))
            if rn_try < rn:
                x, r, rn, terms = x_try, r_try, rn_try, terms_try
                improved = True
                break
            alpha *= 0.5
        iterations += 1
        if not improved:
            break
    return NewtonResult(x, iterations, rn, rn <= tol, terms)


# left-rectangle scheme


def _left_history(q: Array, xdot: Array, omega: Array, c: CoefficientSet, h: float) -> Array:
    """Outgoing-momentum side carried over from step k-1."""
    g = _momenta_v(np.concatenate((xdot, omega)), c)
    return np.concatenate((_rotation_matrix(q) @ g[:3], g[3:] - (0.5 * h) * _cross(omega, g[3:])))


def _left_eval(r_k: Array, v: Array, c_k: CoefficientSet, h: float, carried: Array) -> tuple[Array, Array]:
    """residual_left at v, with r_k = R(q_k), and the momenta g = M v + a its Jacobian reuses."""
    g = _momenta_v(v, c_k)
    g1, g2 = g[:3], g[3:]
    bot = g2 + (0.5 * h) * _cross(v[3:], g2) + h * _cross(v[:3], g1)
    return np.concatenate((r_k @ g1, bot)) - carried, g


def _left_jacobian(v: Array, c_k: CoefficientSet, h: float, g: Array, top: Array) -> Array:
    """jacobian_left from the momenta g of _left_eval and the constant top block R(q_k) Mt."""
    m = c_k.mass_matrix()
    mt, mb = m[:3], m[3:]
    bot = mb + (0.5 * h) * (skew(v[3:]) @ mb) + h * (skew(v[:3]) @ mt)
    bot[:, :3] -= h * skew(g[:3])
    bot[:, 3:] -= (0.5 * h) * skew(g[3:])
    return np.concatenate((top, bot))


def residual_left(
    q_k: Array, xdot: Array, omega: Array, c_k: CoefficientSet, h: float, carried: Array
) -> Array:
    """Left-rectangle momentum balance at step k, stacked (translational, rotational).

    The incoming momentum of the trial velocities (xdot, omega) at the
    already-advanced orientation q_k, minus carried: the outgoing momentum of
    step k-1 (_left_history) plus the step impulse of the external load.
    step_left solves this residual for zero (through _left_eval).
    """
    return _left_eval(_rotation_matrix(q_k), np.concatenate((xdot, omega)), c_k, h, carried)[0]


def jacobian_left(
    q_k: Array, xdot: Array, omega: Array, c_k: CoefficientSet, h: float, carried: Array
) -> Array:
    """Exact 6x6 derivative of residual_left in v = (xdot, omega); carried drops out.

    With g = (g1, g2) = M v + a, M the mass matrix (rows Mt over Mb) and
    x^ = skew(x): [R(q_k) Mt ; Mb + (h/2)(omega^ Mb - [0 | g2^]) + h (xdot^ Mt - [g1^ | 0])].
    """
    r_k, v = _rotation_matrix(q_k), np.concatenate((xdot, omega))
    g = _left_eval(r_k, v, c_k, h, carried)[1]
    return _left_jacobian(v, c_k, h, g, r_k @ c_k.mass_matrix()[:3])


def step_left(
    prev: BodyState,
    c_prev: CoefficientSet,
    sched: MorphingSchedule,
    cfg: SolverConfig,
    scale: float = 1.0,
) -> StepResult:
    """Advance one left-rectangle step; c_prev is the coefficient set at prev.t.

    Kinematics first (exponential orientation update and position quadrature
    with step k-1 values), then the implicit velocity solve at step k.
    """
    h = cfg.h
    q_k = quat_mul(prev.q, exp_map((0.5 * h) * prev.omega_b))
    if float(q_k @ prev.q) < 0.0:
        q_k = -q_k
    q_k = normalize(q_k)
    x_k = prev.x_e + h * _rotate(prev.q, prev.xdot_b)
    t_k = prev.t + h
    c_k = sched.coefficients(t_k)
    carried = _left_history(prev.q, prev.xdot_b, prev.omega_b, c_prev, h)
    if not sched.force_free:
        probe = BodyState(t_k, q_k, x_k, prev.xdot_b, prev.omega_b)
        f_earth, tau_body = sched.force(probe, t_k)
        carried = carried + h * np.concatenate((f_earth, tau_body))  # step impulse

    r_k = _rotation_matrix(q_k)
    top = r_k @ c_k.mass_matrix()[:3]  # the Jacobian's constant block
    guess = np.concatenate((prev.xdot_b, prev.omega_b))
    sol = newton_solve(
        lambda v: _left_eval(r_k, v, c_k, h, carried),
        lambda v, g: _left_jacobian(v, c_k, h, g, top),
        guess,
        cfg,
        tol_abs=cfg.residual_tol * scale,
    )
    state = BodyState(t_k, q_k, x_k, sol.x[:3], sol.x[3:])
    point = (state.q, state.xdot_b, state.omega_b)
    return StepResult(state, sol.iterations, sol.residual_norm, sol.converged, point, c_k, carried)


# midpoint scheme


class _MidTerms(NamedTuple):
    """What one evaluation of the midpoint balance at trial velocities v shares."""

    rhs: Array  # outgoing terms, the next step's history
    q_t: Array  # midpoint orientation q_k (x) exp((h/4) omega)
    r_t: Array  # its rotation matrix
    g: Array  # momenta M v + a
    w2: Array  # g2 + (h/2) xdot x g1


def _mid_eval(q_k: Array, v: Array, c: CoefficientSet, h: float, carried: Array) -> tuple[Array, _MidTerms]:
    """residual_mid at v and the terms its Jacobian and the step update reuse.

    The midpoint orientation is reconstructed as q_k (x) exp((h/4) omega).
    The incoming and outgoing (rhs) terms share every subexpression, so the
    value matched by one step's solve is bit-identical to the history the next
    step subtracts. One 3x3 product rotates g1 and g2 +- (h/2) xdot x g1.
    """
    hh = 0.5 * h
    q_t = quat_mul(q_k, exp_map((0.5 * hh) * v[3:]))
    r_t = _rotation_matrix(q_t)
    g = _momenta_v(v, c)
    g1, g2 = g[:3], g[3:]
    xc = hh * _cross(v[:3], g1)
    w2 = g2 + xc
    earth = np.concatenate((g1, w2, g2 - xc)).reshape(3, 3) @ r_t.T
    return earth[:2].ravel() - carried, _MidTerms(earth[::2].ravel(), q_t, r_t, g, w2)


def residual_mid(
    q_k: Array, xdot: Array, omega: Array, c_mid: CoefficientSet, h: float, carried: Array
) -> Array:
    """Midpoint momentum balance across step point k, stacked (translational, rotational).

    The incoming terms of the trial midpoint velocities (xdot, omega) after
    the step-point orientation q_k, minus carried: the outgoing terms of the
    previous midpoint (StepResult.history) plus the step impulse. step_mid
    solves this residual for zero (through _mid_eval).
    """
    return _mid_eval(q_k, np.concatenate((xdot, omega)), c_mid, h, carried)[0]


def _right_jacobian(phi: Array) -> Array:
    """SO(3) right Jacobian J_r: Exp(phi + d) = Exp(phi) Exp(J_r(phi) d) to first order in d.

    J_r = I - a phi^ + b phi^ phi^ = (1 - b t^2) I - a phi^ + b phi phi^T, t = |phi|.
    """
    x, y, z = phi.tolist()
    t2 = x * x + y * y + z * z
    t = math.sqrt(t2)
    if t < SMALL_ANGLE:
        a, b = 0.5, 1.0 / 6.0
    else:
        s = math.sin(0.5 * t) / t
        a = 2.0 * s * s  # (1 - cos t) / t^2 without cancellation
        b = (t - math.sin(t)) / (t2 * t)  # its cancellation is O(eps) in b t^2
    d, bx, by, bz = 1.0 - b * t2, b * x, b * y, b * z
    return np.array([
        [d + bx * x, bx * y + a * z, bx * z - a * y],
        [by * x - a * z, d + by * y, by * z + a * x],
        [bz * x + a * y, bz * y - a * x, d + bz * z],
    ])


def _mid_jacobian(v: Array, c_mid: CoefficientSet, h: float, terms: _MidTerms) -> Array:
    """jacobian_mid from the terms of _mid_eval at v."""
    hh = 0.5 * h
    m = c_mid.mass_matrix()
    s1 = skew(terms.g[:3])
    d = m.copy()
    d[3:] += hh * (skew(v[:3]) @ m[:3])
    d[3:, :3] -= hh * s1
    d[:, 3:] -= hh * (np.concatenate((s1, skew(terms.w2))) @ _right_jacobian(hh * v[3:]))
    return (terms.r_t @ d.reshape(2, 3, 6)).reshape(6, 6)


def jacobian_mid(
    q_k: Array, xdot: Array, omega: Array, c_mid: CoefficientSet, h: float, carried: Array
) -> Array:
    """Exact 6x6 derivative of residual_mid in v = (xdot, omega); carried drops out.

    The midpoint rotation R_t = R(q_k (x) exp((h/4) omega)) is R(q_k) Exp(phi)
    with rotation vector phi = (h/2) omega, whose derivative brings in the
    SO(3) right Jacobian J_r(phi). With g = M v + a and w2 = g2 + (h/2) xdot x g1:
    [R_t (Mt - [0 | (h/2) g1^ J_r]) ;
     R_t (Mb + (h/2)(xdot^ Mt - [g1^ | 0]) - [0 | (h/2) w2^ J_r])].
    """
    v = np.concatenate((xdot, omega))
    return _mid_jacobian(v, c_mid, h, _mid_eval(q_k, v, c_mid, h, carried)[1])


def initial_midpoint_history(state: BodyState, c0: CoefficientSet) -> Array:
    """History that seeds the first midpoint step.

    The chain is seeded with the continuous momenta of the initial state, so
    the quantity the scheme conserves is the true initial momentum and the
    trajectory stays second-order accurate. (Seeding from a virtual midpoint
    shifted by exp((h/4) omega) instead conserves a momentum O(h) away from
    the true one, which degrades the whole run to first order.)
    """
    g = _momenta_v(np.concatenate((state.xdot_b, state.omega_b)), c0)
    return (g.reshape(2, 3) @ _rotation_matrix(state.q).T).ravel()


def step_mid(
    prev: BodyState,
    history: Array,
    sched: MorphingSchedule,
    cfg: SolverConfig,
    scale: float = 1.0,
) -> StepResult:
    """Advance one midpoint step from prev and the history of the previous one.

    Solves for the midpoint velocities, then updates orientation and position
    with the midpoint rule. The velocities of prev are the previous midpoint's
    (the initial state's for the first step): they warm-start the solve and
    probe the force. The returned state carries the fresh midpoint velocities
    (the record applies the averaged step-point reconstruction).
    Reversal negates the state velocities and the history.
    """
    h = cfg.h
    t_mid = prev.t + 0.5 * h
    c_mid = sched.coefficients(t_mid)
    q_k = prev.q
    carried = history
    if not sched.force_free:
        q_pred = normalize(quat_mul(q_k, exp_map((0.25 * h) * prev.omega_b)))
        x_pred = prev.x_e + (0.5 * h) * _rotate(q_pred, prev.xdot_b)
        probe = BodyState(t_mid, q_pred, x_pred, prev.xdot_b, prev.omega_b)
        f_earth, tau_body = sched.force(probe, t_mid)
        carried = carried + h * np.concatenate((f_earth, tau_body))  # step impulse

    guess = np.concatenate((prev.xdot_b, prev.omega_b))
    sol = newton_solve(
        lambda v: _mid_eval(q_k, v, c_mid, h, carried),
        lambda v, terms: _mid_jacobian(v, c_mid, h, terms),
        guess,
        cfg,
        tol_abs=cfg.residual_tol * scale,
    )
    xd, om, q_t = sol.x[:3], sol.x[3:], sol.terms.q_t
    q_next = quat_mul(q_k, exp_map((0.5 * h) * om))
    if float(q_next @ q_k) < 0.0:
        q_next = -q_next
    q_next = normalize(q_next)
    x_next = prev.x_e + h * (sol.terms.r_t @ xd)
    state = BodyState(prev.t + h, q_next, x_next, xd, om)
    return StepResult(
        state, sol.iterations, sol.residual_norm, sol.converged, (q_t, xd, om), c_mid, carried, sol.terms.rhs
    )


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
    return max(1.0, float(np.sqrt(p_x @ p_x + p_w @ p_w)))


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
    the time reached. Step k's time is t + k h, computed from k, so rounding
    does not accumulate over the run. Every accepted state is recorded. A
    step that fails (Newton does not converge, the Jacobian is singular, or
    the state goes non-finite) truncates the record, flags it and names the
    cause in stop_reason. Physical momentum columns are filled when
    rigid_params is given (single-rigid-body models only).

    For the midpoint method the conserved-quantity columns are evaluated at
    the midpoint quadrature states (row 0 repeats the first midpoint); the
    velocity columns hold second-order step-point reconstructions.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if not t_end > initial.t:
        raise ValueError("t_end must exceed the initial time")
    h = cfg.h
    n_steps = max(1, int(round((t_end - initial.t) / h)))
    times = initial.t + h * np.arange(n_steps + 1)
    c0 = sched.coefficients(initial.t)
    scale = momentum_scale(initial, c0, h)
    take_step = {
        "left": lambda r: step_left(r.state, r.coeffs, sched, cfg, scale),
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

    # the initial state enters as a zero-iteration step
    point0 = (initial.q, initial.xdot_b, initial.omega_b)
    history0 = initial_midpoint_history(initial, c0)
    steps = [StepResult(initial, 0, 0.0, True, point0, c0, None, history0)]
    stop_reason = ""
    # a diverging run surfaces as a non-finite state or conserved-quantity row,
    # reported once as its stop reason
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [conserved(steps[0])]
        for t_k in times[1:].tolist():
            try:
                res = take_step(steps[-1])
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
            object.__setattr__(res.state, "t", t_k)
            steps.append(res)
            rows.append(row)

    states = [r.state for r in steps]
    xd_arr = np.array([s.xdot_b for s in states])
    om_arr = np.array([s.omega_b for s in states])
    diag = np.array(rows)
    if method == "mid" and len(steps) > 1:
        xd_arr = _midpoint_step_velocities(xd_arr)
        om_arr = _midpoint_step_velocities(om_arr)
        diag[0] = diag[1]

    return TrajectoryRecord(
        t=times[: len(steps)],
        q=np.array([s.q for s in states]),
        x_e=np.array([s.x_e for s in states]),
        xdot_b=xd_arr,
        omega_b=om_arr,
        energy=diag[:, 0],
        p_x=diag[:, 1:4],
        p_w=diag[:, 4:7],
        P_x=None if i_com is None else diag[:, 7:10],
        P_w=None if i_com is None else diag[:, 10:13],
        newton_iters=np.array([r.iterations for r in steps], dtype=int),
        method=method,
        h=h,
        scenario=sched.name,
        truncated=bool(stop_reason),
        stop_reason=stop_reason,
        force_free=sched.force_free,
    )
