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
velocities with a damped Newton iteration (forward-difference Jacobian,
halving line search, warm start from the previous velocities). A classical
RK4 baseline on the momentum form of the equations of motion is included for
accuracy comparisons; it is not structure preserving.
"""

from __future__ import annotations

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
    _grad_omega_v,
    _grad_xdot_v,
    _physical_momenta_v,
)
from .quat import _rotate, conj, exp_map, normalize, quat_mul

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
    fd_eps: float = 1e-7

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError("SolverConfig.h must be positive")
        if self.max_iter < 1:
            raise ValueError("SolverConfig.max_iter must be at least 1")
        if not self.residual_tol > 0.0:
            raise ValueError("SolverConfig.residual_tol must be positive")
        if not self.fd_eps > 0.0:
            raise ValueError("SolverConfig.fd_eps must be positive")


class NewtonResult(NamedTuple):
    x: Array
    iterations: int
    residual_norm: float
    converged: bool


@dataclass(frozen=True)
class MidpointCache:
    """Converged midpoint data handed from one midpoint step to the next.

    history holds the outgoing momentum terms of the solved balance; reusing
    the stored vector (instead of recomputing it) makes the discrete momentum
    sum telescope exactly, to the Newton floor.
    """

    t_mid: float
    q_mid: Array
    xdot_mid: Array
    omega_mid: Array
    history: Array


@dataclass(frozen=True)
class StepResult:
    """Outcome of one step of any scheme.

    point (orientation, linear and angular velocity) is where the record
    evaluates the step's conserved quantities and coeffs is the coefficient
    set at its time: the new step point for left and rk, the new midpoint for
    mid. carried is the outgoing momentum plus step impulse that the Newton
    solve balanced (None for rk); cache continues the midpoint chain (mid).
    """

    state: BodyState
    iterations: int
    residual_norm: float
    converged: bool
    point: tuple[Array, Array, Array]
    coeffs: CoefficientSet
    carried: Array | None
    cache: MidpointCache | None = None


def _fd_jacobian(residual: Callable[[Array], Array], x: Array, r0: Array, eps: float) -> Array:
    n = x.size
    jac = np.empty((n, n))
    for j in range(n):
        dj = eps * max(1.0, abs(float(x[j])))
        xj = x.copy()
        xj[j] += dj
        jac[:, j] = (residual(xj) - r0) / dj
    return jac


def newton_solve(
    residual: Callable[[Array], Array],
    guess: Array,
    cfg: SolverConfig,
    tol_abs: float | None = None,
) -> NewtonResult:
    """Damped Newton iteration on a square residual.

    Forward-difference Jacobian with per-component scaled steps, halving line
    search on the residual norm (at most 8 halvings). After the tolerance is
    first met one extra polish iteration runs, kept only when it improves the
    residual; this drives the leftover balance defect to the roundoff floor so
    momentum sums telescoped over many steps stay at machine precision.
    Raises SingularJacobianError for an unusable Jacobian; a stalled line
    search returns converged=False.
    """
    tol = cfg.residual_tol if tol_abs is None else tol_abs
    x = np.array(guess, dtype=float)
    r = np.asarray(residual(x), dtype=float)
    rn = float(np.linalg.norm(r))
    iterations = 0
    polish_left = 1
    while iterations < cfg.max_iter:
        if rn <= tol:
            if polish_left == 0 or rn == 0.0:
                break
            polish_left -= 1
        if not np.all(np.isfinite(r)):
            raise SingularJacobianError("residual is non-finite")
        jac = _fd_jacobian(residual, x, r, cfg.fd_eps)
        if not np.all(np.isfinite(jac)):
            raise SingularJacobianError("Jacobian has non-finite entries")
        try:
            dx = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(f"singular Jacobian: {exc}") from exc
        if not np.all(np.isfinite(dx)) or float(np.linalg.norm(dx)) > 1e12 * (
            1.0 + float(np.linalg.norm(x))
        ):
            raise SingularJacobianError("Jacobian is numerically singular")
        alpha = 1.0
        improved = False
        for _ in range(9):
            x_try = x + alpha * dx
            r_try = np.asarray(residual(x_try), dtype=float)
            rn_try = float(np.linalg.norm(r_try))
            if rn_try < rn:
                x, r, rn = x_try, r_try, rn_try
                improved = True
                break
            alpha *= 0.5
        iterations += 1
        if not improved:
            break
    return NewtonResult(x, iterations, rn, rn <= tol)


def _forcing(f_earth: Array, tau_body: Array, h: float) -> Array:
    """Step impulse of the external load: h times force and torque."""
    return np.concatenate(
        (h * np.asarray(f_earth, dtype=float), h * np.asarray(tau_body, dtype=float))
    )


# left-rectangle scheme


def _left_history(q: Array, xdot: Array, omega: Array, c: CoefficientSet, h: float) -> Array:
    """Outgoing-momentum side carried over from step k-1."""
    g1 = _grad_xdot_v(xdot, omega, c)
    g2 = _grad_omega_v(xdot, omega, c)
    top = _rotate(q, g1)
    bot = g2 - (0.5 * h) * _cross(omega, g2)
    return np.concatenate((top, bot))


def residual_left(
    q_k: Array, xdot: Array, omega: Array, c_k: CoefficientSet, h: float, carried: Array
) -> Array:
    """Left-rectangle momentum balance at step k, stacked (translational, rotational).

    The incoming momentum of the trial velocities (xdot, omega) at the
    already-advanced orientation q_k, minus carried: the outgoing momentum of
    step k-1 (_left_history) plus the step impulse of the external load.
    step_left solves this residual for zero.
    """
    g1 = _grad_xdot_v(xdot, omega, c_k)
    g2 = _grad_omega_v(xdot, omega, c_k)
    top = _rotate(q_k, g1)
    bot = g2 + (0.5 * h) * _cross(omega, g2) + h * _cross(xdot, g1)
    return np.concatenate((top, bot)) - carried


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
        carried = carried + _forcing(f_earth, tau_body, h)

    guess = np.concatenate((prev.xdot_b, prev.omega_b))
    sol = newton_solve(
        lambda v: residual_left(q_k, v[:3], v[3:], c_k, h, carried),
        guess,
        cfg,
        tol_abs=cfg.residual_tol * scale,
    )
    state = BodyState(t_k, q_k, x_k, sol.x[:3], sol.x[3:])
    point = (state.q, state.xdot_b, state.omega_b)
    return StepResult(state, sol.iterations, sol.residual_norm, sol.converged, point, c_k, carried)


# midpoint scheme


def _mid_terms(
    q_k: Array, xdot: Array, omega: Array, c: CoefficientSet, h: float
) -> tuple[Array, Array, Array]:
    """Incoming (lhs) and outgoing (rhs) balance terms of one midpoint.

    The midpoint orientation is reconstructed as q_k (x) exp((h/4) omega).
    Both terms share every subexpression, so the value matched by one step's
    solve is bit-identical to the history the next step subtracts.
    """
    q_t = quat_mul(q_k, exp_map((0.25 * h) * omega))
    g1 = _grad_xdot_v(xdot, omega, c)
    g2 = _grad_omega_v(xdot, omega, c)
    e1 = _rotate(q_t, g1)
    e2 = _rotate(q_t, g2)
    xc = (0.5 * h) * _rotate(q_t, _cross(xdot, g1))
    lhs = np.concatenate((e1, e2 + xc))
    rhs = np.concatenate((e1, e2 - xc))
    return lhs, rhs, q_t


def residual_mid(
    q_k: Array, xdot: Array, omega: Array, c_mid: CoefficientSet, h: float, carried: Array
) -> Array:
    """Midpoint momentum balance across step point k, stacked (translational, rotational).

    The incoming terms (_mid_terms lhs) of the trial midpoint velocities
    (xdot, omega) after the step-point orientation q_k, minus carried: the
    outgoing terms of the previous midpoint (MidpointCache.history) plus the
    step impulse. step_mid solves this residual for zero.
    """
    return _mid_terms(q_k, xdot, omega, c_mid, h)[0] - carried


def initial_midpoint_cache(state: BodyState, c0: CoefficientSet, h: float) -> MidpointCache:
    """Bootstrap cache for the first midpoint step.

    The chain is seeded with the continuous momenta of the initial state, so
    the quantity the scheme conserves is the true initial momentum and the
    trajectory stays second-order accurate. (Seeding from a virtual midpoint
    shifted by exp((h/4) omega) instead conserves a momentum O(h) away from
    the true one, which degrades the whole run to first order.)
    """
    g1 = _grad_xdot_v(state.xdot_b, state.omega_b, c0)
    g2 = _grad_omega_v(state.xdot_b, state.omega_b, c0)
    history = np.concatenate((_rotate(state.q, g1), _rotate(state.q, g2)))
    return MidpointCache(
        t_mid=state.t,
        q_mid=state.q.copy(),
        xdot_mid=state.xdot_b.copy(),
        omega_mid=state.omega_b.copy(),
        history=history,
    )


def reversed_midpoint_cache(cache: MidpointCache) -> MidpointCache:
    """Reversal map for the midpoint chain: negate velocities and history.

    The cache is part of the scheme's phase-space state; velocity negation
    lifts to negating the carried momentum terms as well. Continuing from the
    reversed cache retraces the forward trajectory to the Newton floor
    (self-adjointness of the midpoint quadrature).
    """
    return MidpointCache(
        t_mid=cache.t_mid,
        q_mid=cache.q_mid,
        xdot_mid=-cache.xdot_mid,
        omega_mid=-cache.omega_mid,
        history=-cache.history,
    )


def step_mid(
    prev: BodyState,
    cache: MidpointCache,
    sched: MorphingSchedule,
    cfg: SolverConfig,
    scale: float = 1.0,
) -> StepResult:
    """Advance one midpoint step.

    Solves for the midpoint velocities, then updates orientation and position
    with the midpoint rule. The returned state carries the fresh midpoint
    velocities (the record applies the averaged step-point reconstruction);
    the returned cache is authoritative for continuing the run.
    """
    h = cfg.h
    t_mid = prev.t + 0.5 * h
    c_mid = sched.coefficients(t_mid)
    q_k = prev.q
    carried = cache.history
    if not sched.force_free:
        q_pred = normalize(quat_mul(q_k, exp_map((0.25 * h) * cache.omega_mid)))
        x_pred = prev.x_e + (0.5 * h) * _rotate(q_pred, cache.xdot_mid)
        probe = BodyState(t_mid, q_pred, x_pred, cache.xdot_mid, cache.omega_mid)
        f_earth, tau_body = sched.force(probe, t_mid)
        carried = carried + _forcing(f_earth, tau_body, h)

    guess = np.concatenate((cache.xdot_mid, cache.omega_mid))
    sol = newton_solve(
        lambda v: residual_mid(q_k, v[:3], v[3:], c_mid, h, carried),
        guess,
        cfg,
        tol_abs=cfg.residual_tol * scale,
    )
    xd, om = sol.x[:3], sol.x[3:]
    _, rhs, q_t = _mid_terms(q_k, xd, om, c_mid, h)
    q_next = quat_mul(q_k, exp_map((0.5 * h) * om))
    if float(q_next @ q_k) < 0.0:
        q_next = -q_next
    q_next = normalize(q_next)
    x_next = prev.x_e + h * _rotate(q_t, xd)
    state = BodyState(prev.t + h, q_next, x_next, xd, om)
    new_cache = MidpointCache(t_mid=t_mid, q_mid=q_t, xdot_mid=xd, omega_mid=om, history=rhs)
    return StepResult(
        state, sol.iterations, sol.residual_norm, sol.converged, (q_t, xd, om), c_mid, carried, new_cache
    )


# explicit RK4 baseline on the momentum form


def velocities_from_momenta(c: CoefficientSet, g1: Array, g2: Array) -> tuple[Array, Array]:
    """Invert the linear velocity-to-momentum map of a coefficient set."""
    v = c.velocity_inverse() @ np.concatenate((g1 - c.a_x, g2 - c.a_w))
    return v[:3], v[3:]


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
    c1 = c_prev
    c2 = sched.coefficients(t + 0.5 * h)
    c4 = sched.coefficients(t + h)
    g1 = _grad_xdot_v(prev.xdot_b, prev.omega_b, c1)
    g2 = _grad_omega_v(prev.xdot_b, prev.omega_b, c1)
    force_free = sched.force_free

    def rate(q_s, x_s, d1, d2, c, t_s):
        xd, om = velocities_from_momenta(c, d1, d2)
        if force_free:
            f_b = None
            tau = None
        else:
            probe = BodyState(t_s, normalize(q_s), x_s, xd, om)
            f_e, tau = sched.force(probe, t_s)
            f_b = _rotate(conj(probe.q), f_e)
        dd1 = -_cross(om, d1)
        dd2 = -_cross(om, d2) - _cross(xd, d1)
        if f_b is not None:
            dd1 = dd1 + f_b
            dd2 = dd2 + tau
        return xd, om, _rotate(q_s, xd), dd1, dd2

    x0, d10, d20 = prev.x_e, g1, g2
    xd1, om1, dx1, dd11, dd21 = rate(prev.q, x0, d10, d20, c1, t)
    q2 = quat_mul(prev.q, exp_map((0.25 * h) * om1))
    xd2, om2, dx2, dd12, dd22 = rate(
        q2, x0 + 0.5 * h * dx1, d10 + 0.5 * h * dd11, d20 + 0.5 * h * dd21, c2, t + 0.5 * h
    )
    q3 = quat_mul(prev.q, exp_map((0.25 * h) * om2))
    xd3, om3, dx3, dd13, dd23 = rate(
        q3, x0 + 0.5 * h * dx2, d10 + 0.5 * h * dd12, d20 + 0.5 * h * dd22, c2, t + 0.5 * h
    )
    q4 = quat_mul(prev.q, exp_map((0.5 * h) * om3))
    xd4, om4, dx4, dd14, dd24 = rate(
        q4, x0 + h * dx3, d10 + h * dd13, d20 + h * dd23, c4, t + h
    )
    sixth = h / 6.0
    x_new = x0 + sixth * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4)
    d1_new = d10 + sixth * (dd11 + 2.0 * dd12 + 2.0 * dd13 + dd14)
    d2_new = d20 + sixth * (dd21 + 2.0 * dd22 + 2.0 * dd23 + dd24)
    om_avg = (om1 + 2.0 * om2 + 2.0 * om3 + om4) / 6.0
    q_new = normalize(quat_mul(prev.q, exp_map((0.5 * h) * om_avg)))
    xd_new, om_new = velocities_from_momenta(c4, d1_new, d2_new)
    state = BodyState(t + h, q_new, x_new, xd_new, om_new)
    return StepResult(state, 0, 0.0, True, (state.q, state.xdot_b, state.omega_b), c4, None)


# run driver


def momentum_scale(state: BodyState, c: CoefficientSet, h: float) -> float:
    """Absolute scale for Newton tolerances: initial canonical momentum norm, floored at 1."""
    g1 = _grad_xdot_v(state.xdot_b, state.omega_b, c)
    g2 = _grad_omega_v(state.xdot_b, state.omega_b, c)
    p_w = g2 + (0.5 * h) * _cross(state.omega_b, g2)
    return max(1.0, float(np.sqrt(g1 @ g1 + p_w @ p_w)))


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
    scenario: str | None = None,
) -> TrajectoryRecord:
    """Fixed-step run from initial.t to (approximately) t_end.

    method is one of left, mid, rk. The step count is round((t_end - t)/h),
    at least 1. Every accepted state is recorded. A step that fails (Newton
    does not converge, the Jacobian is singular, or the state goes
    non-finite) truncates the record, flags it and names the cause in
    stop_reason. Physical momentum columns are filled when rigid_params is
    given (single-rigid-body models only).

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
    c0 = sched.coefficients(initial.t)
    scale = momentum_scale(initial, c0, h)
    take_step = {
        "left": lambda r: step_left(r.state, r.coeffs, sched, cfg, scale),
        "mid": lambda r: step_mid(r.state, r.cache, sched, cfg, scale),
        "rk": lambda r: step_rk_baseline(r.state, r.coeffs, sched, h),
    }[method]

    # the initial state enters as a zero-iteration step
    point0 = (initial.q, initial.xdot_b, initial.omega_b)
    cache0 = initial_midpoint_cache(initial, c0, h)
    steps = [StepResult(initial, 0, 0.0, True, point0, c0, None, cache0)]
    stop_reason = ""
    # a diverging run surfaces as a non-finite state, reported as its stop reason
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            try:
                res = take_step(steps[-1])
            except (SingularJacobianError, ValueError) as exc:
                stop_reason = str(exc)
                break
            if not res.converged:
                stop_reason = "Newton did not converge"
                break
            steps.append(res)

    states = [r.state for r in steps]
    xd_arr = np.array([s.xdot_b for s in states])
    om_arr = np.array([s.omega_b for s in states])
    diag = steps
    if method == "mid" and len(steps) > 1:
        xd_arr = _midpoint_step_velocities(xd_arr)
        om_arr = _midpoint_step_velocities(om_arr)
        diag = [steps[1]] + steps[1:]

    energy = [_energy_v(r.point[1], r.point[2], r.coeffs) for r in diag]
    p_can = np.array([_canonical_momenta_v(*r.point, r.coeffs, h) for r in diag])
    p_phys = None
    if rigid_params is not None:
        i_com = rigid_params.com_inertia()
        p_phys = np.array([_physical_momenta_v(*r.point, rigid_params, i_com) for r in diag])
    return TrajectoryRecord(
        t=np.array([s.t for s in states]),
        q=np.array([s.q for s in states]),
        x_e=np.array([s.x_e for s in states]),
        xdot_b=xd_arr,
        omega_b=om_arr,
        energy=np.array(energy),
        p_x=p_can[:, 0],
        p_w=p_can[:, 1],
        P_x=None if p_phys is None else p_phys[:, 0],
        P_w=None if p_phys is None else p_phys[:, 1],
        newton_iters=np.array([r.iterations for r in steps], dtype=int),
        method=method,
        h=h,
        scenario=sched.name if scenario is None else scenario,
        truncated=bool(stop_reason),
        stop_reason=stop_reason,
        force_free=sched.force_free,
    )
