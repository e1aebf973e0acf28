"""Variational steppers: Newton solver, balance residuals, conservation, reversal."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qvint import (
    BodyState,
    CoefficientSet,
    SingularJacobianError,
    SolverConfig,
    conj,
    constant_schedule,
    energy_grad_omega,
    energy_grad_xdot,
    exp_map,
    identity_quat,
    initial_midpoint_history,
    integrate,
    jacobian_left,
    jacobian_mid,
    newton_solve,
    preset_free_body,
    preset_morphing,
    quat_mul,
    residual_left,
    residual_mid,
    step_left,
    step_mid,
    step_rk_baseline,
    summarize,
)
from qvint import integrators
from qvint.integrators import _left_history, _mid_eval, momentum_scale

RNG = np.random.default_rng(61103)

CSET, RP = preset_free_body()
SCHED = constant_schedule(CSET)
CFG = SolverConfig(h=0.01)

SPIN = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.array([1.0, 1.0, 1.0]))


def random_unit_quat(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def cg_step(q, omega, h):
    """The left scheme's orientation update q (x) exp((h/2) omega)."""
    return quat_mul(q, exp_map((0.5 * h) * omega))


def test_solver_config_validation():
    for bad in (dict(h=0.0), dict(h=-1.0), dict(h=0.01, max_iter=0), dict(h=0.01, residual_tol=0.0)):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


def test_newton_linear():
    res = newton_solve(lambda v: (v - 2.0, None), lambda v, _: np.eye(1), np.array([5.0]), CFG)
    assert res.converged
    assert res.x[0] == 2.0
    assert res.residual_norm == 0.0
    assert res.iterations <= 2  # one Newton step plus the polish pass


def test_newton_quadratic():
    # the residual hands its derivative 2 v to the Jacobian, and the result
    # carries the terms of the returned iterate
    res = newton_solve(lambda v: (v * v - 4.0, 2.0 * v), lambda v, d: np.diag(d), np.array([3.0]), CFG)
    assert res.converged
    assert res.iterations <= 8
    assert abs(res.x[0] - 2.0) <= 1e-12
    assert np.array_equal(res.terms, 2.0 * res.x)


def test_newton_singular_vs_starved():
    with pytest.raises(SingularJacobianError):
        newton_solve(lambda v: (np.array([1.0]), None), lambda v, _: np.zeros((1, 1)), np.array([0.0]), CFG)
    res = newton_solve(
        lambda v: (v * v - 4.0, None),
        lambda v, _: np.diag(2.0 * v),
        np.array([100.0]),
        SolverConfig(h=0.01, max_iter=1),
    )
    assert not res.converged
    assert res.residual_norm > 1.0


def test_newton_multidimensional():
    a = np.array([1.0, -2.0, 0.5])
    guess = np.array([1.0, -1.0, 1.0])
    res = newton_solve(lambda v: (v**3 - a, v**2), lambda v, v2: np.diag(3.0 * v2), guess, CFG)
    assert res.converged
    assert_allclose(res.x, np.cbrt(a), rtol=1e-12)
    assert np.array_equal(res.terms, res.x**2)


def central_difference_jacobian(residual, v, eps=1e-6):
    """Oracle for the closed-form Jacobians: central differences, one column per component."""
    jac = np.empty((v.size, v.size))
    for j in range(v.size):
        d = eps * max(1.0, abs(v[j]))
        vp, vm = v.copy(), v.copy()
        vp[j] += d
        vm[j] -= d
        jac[:, j] = (residual(vp) - residual(vm)) / (2.0 * d)
    return jac


MORPHING = preset_morphing(damping=True)


def floats(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)


@settings(max_examples=150, deadline=None)
@given(
    q=floats(-1.0, 1.0, 4).filter(lambda q: np.linalg.norm(q) > 0.1),
    v=floats(-3.0, 3.0, 6),
    carried=floats(-10.0, 10.0, 6),
    h=st.floats(1e-3, 0.5),
    t=st.one_of(st.none(), st.floats(0.0, 2.0 * np.pi)),
)
def test_jacobians_match_central_difference_oracle(q, v, carried, h, t):
    # t None draws the free body, otherwise the morphing coefficients at t
    q = q / np.linalg.norm(q)
    c = CSET if t is None else MORPHING.coefficients(t)
    for residual, jacobian in ((residual_left, jacobian_left), (residual_mid, jacobian_mid)):
        jac = jacobian(q, v[:3], v[3:], c, h, carried)
        oracle = central_difference_jacobian(lambda w: residual(q, w[:3], w[3:], c, h, carried), v)
        assert np.abs(jac - oracle).max() <= 1e-6 * np.abs(oracle).max(), residual.__name__


def test_residual_left_equilibrium_is_exact_zero():
    # axis-aligned spin of a decoupled diagonal body is a discrete equilibrium
    c = CoefficientSet(a_xx=2.0, A_xw=0.0, A_ww=np.diag([1.0, 2.0, 3.0]))
    h = 0.05
    omega = np.array([0.0, 0.0, 2.0])
    q = random_unit_quat(RNG)
    carried = _left_history(q, np.zeros(3), omega, c, h)
    r = residual_left(cg_step(q, omega, h), np.zeros(3), omega, c, h, carried)
    assert np.all(r == 0.0)


def test_residual_left_zero_step_vanishes():
    for _ in range(20):
        q = random_unit_quat(RNG)
        xd, om = RNG.standard_normal(3), RNG.standard_normal(3)
        carried = _left_history(q, xd, om, CSET, 0.0)
        r = residual_left(q, xd, om, CSET, 0.0, carried)
        assert np.all(r == 0.0)


def test_residual_left_nonzero_off_solution():
    prev = SPIN
    q_k = cg_step(prev.q, prev.omega_b, CFG.h)
    carried = _left_history(prev.q, prev.xdot_b, prev.omega_b, CSET, CFG.h)
    r = residual_left(q_k, prev.xdot_b, prev.omega_b + 0.5, CSET, CFG.h, carried)
    assert np.linalg.norm(r) > 1e-3


def outgoing(q, xdot, omega, c, h):
    """Outgoing terms of the midpoint with velocities (xdot, omega) after step point q."""
    return _mid_eval(q, np.concatenate((xdot, omega)), c, h, np.zeros(6))[1].rhs


def test_residual_mid_equilibrium_and_zero_step():
    c = CoefficientSet(a_xx=2.0, A_xw=0.0, A_ww=np.diag([1.0, 2.0, 3.0]))
    h = 0.05
    omega = np.array([0.0, 0.0, 2.0])
    q0 = exp_map(np.array([0.0, 0.0, 0.3]))  # rotation about the spin axis
    carried = outgoing(q0, np.zeros(3), omega, c, h)
    r = residual_mid(cg_step(q0, omega, h), np.zeros(3), omega, c, h, carried)
    assert np.all(r == 0.0)
    for _ in range(20):
        q = random_unit_quat(RNG)
        xd, om = RNG.standard_normal(3), RNG.standard_normal(3)
        carried = outgoing(q, xd, om, CSET, 0.0)
        r = residual_mid(q, xd, om, CSET, 0.0, carried)
        assert np.all(r == 0.0)


def test_residual_mid_local_linearity():
    # the residual is smooth in the trial velocities: doubling a small
    # perturbation about the solved point doubles the defect
    history = initial_midpoint_history(SPIN, CSET)
    res = step_mid(SPIN, history, SCHED, CFG, scale=momentum_scale(SPIN, CSET, CFG.h))

    def defect(v):
        return residual_mid(SPIN.q, v[:3], v[3:], CSET, CFG.h, res.carried)

    v_star = np.concatenate((res.state.xdot_b, res.state.omega_b))
    r0 = defect(v_star)
    d = RNG.standard_normal(6)
    d /= np.linalg.norm(d)
    r1 = np.linalg.norm(defect(v_star + 1e-6 * d) - r0)
    r2 = np.linalg.norm(defect(v_star + 2e-6 * d) - r0)
    assert abs(r2 / r1 - 2.0) <= 0.01


@pytest.mark.parametrize("sched", [SCHED, preset_morphing(damping=True)], ids=["free_body", "morphing"])
def test_steppers_solve_the_public_residuals(sched):
    # the norm Newton reports is the norm of residual_* at the accepted
    # velocities with the carried term the step balanced, bit for bit
    c0 = sched.coefficients(0.0)
    scale = momentum_scale(SPIN, c0, CFG.h)
    state, c_prev = SPIN, c0
    for _ in range(5):
        prev, res = state, step_left(state, c_prev, sched, CFG, scale)
        state, c_prev = res.state, res.coeffs
        r = residual_left(state.q, state.xdot_b, state.omega_b, res.coeffs, CFG.h, res.carried)
        assert res.converged and res.iterations > 0
        assert np.linalg.norm(r) == res.residual_norm
        if sched.force_free:
            assert np.array_equal(res.carried, _left_history(prev.q, prev.xdot_b, prev.omega_b, c0, CFG.h))
    state, history = SPIN, initial_midpoint_history(SPIN, c0)
    for _ in range(5):
        prev, res = state, step_mid(state, history, sched, CFG, scale)
        state, history = res.state, res.history
        r = residual_mid(prev.q, state.xdot_b, state.omega_b, res.coeffs, CFG.h, res.carried)
        assert res.converged and res.iterations > 0
        assert np.linalg.norm(r) == res.residual_norm


@pytest.mark.parametrize("sched", [SCHED, preset_morphing(damping=True)], ids=["free_body", "morphing"])
def test_one_balance_evaluation_per_newton_residual(sched, monkeypatch):
    # each residual Newton evaluates runs the scheme's balance evaluation
    # once; the Jacobian and the step update reuse it, with no post-solve
    # evaluation, and what they build from it equals the public functions
    evals = {"_left_eval": 0, "_mid_eval": 0}
    for name in evals:

        def counted(*args, _fn=getattr(integrators, name), _name=name):
            evals[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(integrators, name, counted)
    solves = []
    solve = integrators.newton_solve

    def recording_solve(residual, jacobian, guess, cfg, tol_abs=None):
        calls = []

        def counted_residual(x):
            calls.append(1)
            return residual(x)

        sol = solve(counted_residual, jacobian, guess, cfg, tol_abs)
        solves.append((sol, jacobian, len(calls)))
        return sol

    monkeypatch.setattr(integrators, "newton_solve", recording_solve)
    c0 = sched.coefficients(0.0)
    scale = momentum_scale(SPIN, c0, CFG.h)
    res = step_left(SPIN, c0, sched, CFG, scale)
    res_mid = step_mid(SPIN, initial_midpoint_history(SPIN, c0), sched, CFG, scale)
    (sol, jac, n_left), (sol_mid, jac_mid, n_mid) = solves
    assert evals == {"_left_eval": n_left, "_mid_eval": n_mid}
    assert n_left > sol.iterations > 0 and n_mid > sol_mid.iterations > 0
    s = res.state
    want = jacobian_left(s.q, s.xdot_b, s.omega_b, res.coeffs, CFG.h, res.carried)
    assert np.array_equal(jac(sol.x, sol.terms), want)
    xd, om = res_mid.state.xdot_b, res_mid.state.omega_b
    want = jacobian_mid(SPIN.q, xd, om, res_mid.coeffs, CFG.h, res_mid.carried)
    assert np.array_equal(jac_mid(sol_mid.x, sol_mid.terms), want)
    assert np.array_equal(res_mid.history, outgoing(SPIN.q, xd, om, res_mid.coeffs, CFG.h))


def counting(sched):
    """Copy of a schedule that logs the time of every coefficients call."""
    calls = []

    def coefficients(t):
        calls.append(t)
        return sched.coefficients(t)

    return dataclasses.replace(sched, coefficients=coefficients), calls


@pytest.mark.parametrize("method,per_step", [("left", 1), ("mid", 1), ("rk", 2)])
def test_coefficients_evaluated_once_per_new_time(method, per_step):
    # each step evaluates the coefficients only at times no earlier step or
    # the record evaluated: one set at t=0, then per_step sets per step
    sched, calls = counting(preset_morphing(damping=True))
    rec = integrate(SPIN, sched, SolverConfig(h=0.01), method, 1.0)
    assert len(rec) == 101 and not rec.truncated
    assert len(calls) == 1 + per_step * 100
    assert len(set(calls)) == len(calls)


def test_rest_state_is_fixed_point():
    rest = BodyState(0.0, identity_quat(), np.array([1.0, -2.0, 3.0]), np.zeros(3), np.zeros(3))
    res = step_left(rest, CSET, SCHED, CFG)
    assert res.converged
    assert res.iterations == 0
    assert np.all(res.state.xdot_b == 0.0) and np.all(res.state.omega_b == 0.0)
    assert np.all(res.state.x_e == rest.x_e)
    assert np.all(res.state.q == rest.q)
    res = step_mid(rest, initial_midpoint_history(rest, CSET), SCHED, CFG)
    assert res.converged
    assert np.all(res.state.xdot_b == 0.0) and np.all(res.state.omega_b == 0.0)
    assert np.all(res.state.x_e == rest.x_e)
    assert np.all(res.state.q == rest.q)
    rk = step_rk_baseline(rest, CSET, SCHED, CFG.h).state
    assert np.all(rk.xdot_b == 0.0) and np.all(rk.omega_b == 0.0)
    assert np.all(rk.x_e == rest.x_e)


def test_left_interstep_balance_holds_at_reported_tolerance():
    # re-evaluating the converged balance between consecutive accepted states
    # reproduces the solver's final defect
    scale = momentum_scale(SPIN, CSET, CFG.h)
    tol_abs = CFG.residual_tol * scale
    states = [SPIN]
    for _ in range(50):
        res = step_left(states[-1], CSET, SCHED, CFG, scale)
        assert res.converged
        assert res.residual_norm <= tol_abs
        states.append(res.state)
    for prev, cur in zip(states[:-1], states[1:]):
        carried = _left_history(prev.q, prev.xdot_b, prev.omega_b, CSET, CFG.h)
        r = residual_left(cur.q, cur.xdot_b, cur.omega_b, CSET, CFG.h, carried)
        assert np.linalg.norm(r) <= tol_abs


def test_mid_interstep_balance_holds_at_reported_tolerance():
    scale = momentum_scale(SPIN, CSET, CFG.h)
    tol_abs = CFG.residual_tol * scale
    state, history = SPIN, initial_midpoint_history(SPIN, CSET)
    chain = []
    for _ in range(50):
        res = step_mid(state, history, SCHED, CFG, scale)
        assert res.converged
        assert res.residual_norm <= tol_abs
        chain.append((state.q, res.state))
        state, history = res.state, res.history
    # the outgoing terms of midpoint k-1 are recomputed from its own step
    # point, not read back from the history
    for (q_prev, prev_m), (q_k, cur_m) in zip(chain[:-1], chain[1:]):
        carried = outgoing(q_prev, prev_m.xdot_b, prev_m.omega_b, CSET, CFG.h)
        r = residual_mid(q_k, cur_m.xdot_b, cur_m.omega_b, CSET, CFG.h, carried)
        assert np.linalg.norm(r) <= tol_abs


def test_mid_trajectory_converges_at_second_order():
    # final-omega self-convergence on the free body over h = 0.02/0.01/0.005;
    # a midpoint chain seeded off the initial momenta falls to first order
    # here, while conservation errors measured against the momentum it
    # conserves itself stay second order
    finals = [integrate(SPIN, SCHED, SolverConfig(h=h), "mid", 1.0).omega_b[-1] for h in (0.02, 0.01, 0.005)]
    ratio = np.linalg.norm(finals[0] - finals[1]) / np.linalg.norm(finals[1] - finals[2])
    assert np.log2(ratio) >= 2.0 - 0.05


def test_warm_start_iteration_budget():
    rec = integrate(SPIN, SCHED, CFG, "left", 2.0, rigid_params=RP)
    assert rec.newton_iters[1:].max() <= 5
    rec = integrate(SPIN, SCHED, CFG, "mid", 2.0, rigid_params=RP)
    assert rec.newton_iters[1:].max() <= 5


def test_translational_momentum_exact_free_body():
    for method in ("left", "mid"):
        rec = integrate(SPIN, SCHED, CFG, method, 10.0, rigid_params=RP)
        base = np.linalg.norm(rec.P_x[0])
        dev = np.abs(np.linalg.norm(rec.P_x - rec.P_x[0], axis=1)).max()
        assert dev <= 1e-12 * max(1.0, base)


def test_translational_momentum_exact_morphing():
    sched = preset_morphing(damping=False)
    cfg = SolverConfig(h=0.05)
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.array([0.1, 0.0, -0.2]), np.array([0.6, -0.4, 0.5]))
    for method in ("left", "mid"):
        rec = integrate(start, sched, cfg, method, 10.0)
        base = np.linalg.norm(rec.p_x[0])
        dev = np.abs(np.linalg.norm(rec.p_x - rec.p_x[0], axis=1)).max()
        assert dev <= 1e-12 * max(1.0, base)


def test_quaternion_norms_stay_unit():
    for method in ("left", "mid", "rk"):
        rec = integrate(SPIN, SCHED, CFG, method, 5.0)
        assert np.abs(np.linalg.norm(rec.q, axis=1) - 1.0).max() <= 1e-12


@settings(max_examples=15, deadline=None)
@given(
    q0=floats(-1.0, 1.0, 4).filter(lambda q: np.linalg.norm(q) > 0.1),
    omega0=floats(-2.0, 2.0, 3),
    xdot0=floats(-1.0, 1.0, 3),
)
def test_midpoint_time_reversal_retrace(q0, omega0, xdot0):
    # negating the velocities and the carried momentum history replays the
    # trajectory backwards through the forward-time stepper
    start = BodyState(0.0, q0 / np.linalg.norm(q0), np.zeros(3), xdot0, omega0)
    scale = momentum_scale(start, CSET, CFG.h)
    state, history = start, initial_midpoint_history(start, CSET)
    first_mid = None
    for _ in range(100):
        res = step_mid(state, history, SCHED, CFG, scale)
        assert res.converged
        state, history = res.state, res.history
        if first_mid is None:
            first_mid = state
    state = BodyState(state.t, state.q, state.x_e, -state.xdot_b, -state.omega_b)
    history = -history
    for _ in range(100):
        res = step_mid(state, history, SCHED, CFG, scale)
        assert res.converged
        state, history = res.state, res.history
    q_err = quat_mul(conj(start.q), state.q)
    q_err = q_err if q_err[0] >= 0.0 else -q_err
    assert np.linalg.norm(q_err - identity_quat()) <= 1e-6
    assert np.linalg.norm(state.x_e - start.x_e) <= 1e-9
    # the last reversed midpoint must be the first forward midpoint, negated
    # (state velocity columns are staggered half a step and cannot match v0)
    assert_allclose(-state.xdot_b, first_mid.xdot_b, atol=1e-9)
    assert_allclose(-state.omega_b, first_mid.omega_b, atol=1e-9)


TOP_OMEGA_AT_1 = np.array([0.27168531182286143, 1.4136065744733737, 0.36600648586296108])


def test_torque_free_top_matches_reference():
    # decoupled asymmetric top, omega(0) = (1,1,1); reference from a fine-step
    # explicit run (h=1e-6, cross-checked against h=1e-4 to 4.4e-9)
    top = CoefficientSet(a_xx=CSET.a_xx, A_xw=0.0, A_ww=CSET.A_ww)
    sched = constant_schedule(top, name="top")
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.array([1.0, 1.0, 1.0]))
    for method in ("left", "mid"):
        rec = integrate(start, sched, SolverConfig(h=1e-3), method, 1.0)
        err = np.linalg.norm(rec.omega_b[-1] - TOP_OMEGA_AT_1)
        assert err <= 1e-4, f"{method}: {err:.3e}"


def test_refinement_reduces_conservation_errors():
    errs = {}
    for h in (0.02, 0.01):
        for method in ("left", "mid"):
            rec = integrate(SPIN, SCHED, SolverConfig(h=h), method, 5.0, rigid_params=RP)
            rep = summarize(rec)
            errs[(method, h)] = (rep.final_e_w, rep.final_e_T)
    for method in ("left", "mid"):
        coarse, fine = errs[(method, 0.02)], errs[(method, 0.01)]
        assert fine[0] < coarse[0]
        assert fine[1] < coarse[1]


def test_rk_spherical_body_is_exact():
    # for a spherical inertia the momentum equations are trivially constant
    c = CoefficientSet(a_xx=1.0, A_xw=0.0, A_ww=1.0)
    sched = constant_schedule(c, name="sphere")
    state = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.array([0.4, -0.3, 0.8]))
    omega0 = state.omega_b.copy()
    for _ in range(100):
        state = step_rk_baseline(state, c, sched, 0.01).state
        assert np.abs(state.omega_b - omega0).max() <= 1e-12
        assert np.abs(state.xdot_b).max() <= 1e-12


def test_rk_damped_spherical_body_decays_exponentially():
    # under the body torque -beta omega a spherical body obeys
    # 2 d(omega)/dt = -beta omega, so omega(t) = omega0 exp(-beta t / 2)
    beta = 0.5
    c = CoefficientSet(a_xx=1.0, A_xw=0.0, A_ww=1.0)
    sched = constant_schedule(c, name="damped_sphere", force=lambda s, t: (np.zeros(3), -beta * s.omega_b))
    omega0 = np.array([0.4, -0.3, 0.8])
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), omega0)
    rec = integrate(start, sched, SolverConfig(h=0.01), "rk", 1.0)
    assert len(rec) == 101 and not rec.truncated
    assert np.abs(rec.omega_b - omega0 * np.exp(-0.5 * beta * rec.t)[:, None]).max() <= 1e-10
    assert np.abs(rec.xdot_b).max() <= 1e-12


def test_rk_same_cost_run_is_less_accurate_than_midpoint():
    # matched wall-clock budgets: the explicit baseline needs h ~ 0.095 to cost
    # what the implicit midpoint run costs at h = 0.01
    rec_rk = integrate(SPIN, SCHED, SolverConfig(h=0.095), "rk", 50.0, rigid_params=RP)
    rec_mid = integrate(SPIN, SCHED, SolverConfig(h=0.01), "mid", 50.0, rigid_params=RP)
    rep_rk, rep_mid = summarize(rec_rk), summarize(rec_mid)
    assert rep_rk.final_e_x > rep_mid.final_e_x
    assert rep_rk.final_e_w > rep_mid.final_e_w
    assert rep_rk.final_e_T > rep_mid.final_e_T


def test_velocities_from_momenta_round_trip():
    sched = preset_morphing()
    for _ in range(100):
        c = sched.coefficients(RNG.uniform(0.0, 2 * np.pi))
        xd, om = RNG.standard_normal(3), RNG.standard_normal(3)
        s = BodyState(0.0, identity_quat(), np.zeros(3), xd, om)
        g = np.concatenate((energy_grad_xdot(s, c), energy_grad_omega(s, c)))
        v = c.velocity_inverse() @ (g - c.momentum_offset())
        assert_allclose(v[:3], xd, rtol=1e-10, atol=1e-10)
        assert_allclose(v[3:], om, rtol=1e-10, atol=1e-10)


def test_momentum_scale_floor_and_value():
    rest = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.zeros(3))
    assert momentum_scale(rest, CSET, 0.01) == 1.0
    assert momentum_scale(SPIN, CSET, 0.01) > 10.0


def test_integrate_record_shape_and_guards():
    rec = integrate(SPIN, SCHED, CFG, "left", CFG.h)
    assert len(rec.t) == 2
    assert rec.t[1] == pytest.approx(CFG.h)
    with pytest.raises(ValueError):
        integrate(SPIN, SCHED, CFG, "rk5", 1.0)
    with pytest.raises(ValueError):
        integrate(SPIN, SCHED, CFG, "left", 0.0)


@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_record_times_lie_on_the_exact_grid(method):
    # step k's time is t0 + k h, computed from k rather than accumulated
    start = dataclasses.replace(SPIN, t=0.3)
    rec = integrate(start, preset_morphing(damping=True), CFG, method, 1.3)
    assert len(rec) == 101
    assert np.array_equal(rec.t, start.t + CFG.h * np.arange(len(rec)))


def test_long_run_ends_on_the_grid():
    # summing h 5000 times would end at 49.99999999999862
    rec = integrate(SPIN, SCHED, CFG, "rk", 50.0)
    assert len(rec) == 5001 and rec.t[-1] == 50.0


def test_integrate_truncates_on_starved_newton():
    cfg = SolverConfig(h=0.01, max_iter=1)
    for method in ("left", "mid"):
        rec = integrate(SPIN, SCHED, cfg, method, 1.0)
        assert rec.truncated
        assert rec.stop_reason == "Newton did not converge"
        assert len(rec.t) < 101
    rec = integrate(SPIN, SCHED, CFG, "mid", 0.1)
    assert not rec.truncated and rec.stop_reason == ""


@pytest.mark.parametrize("case", ["rk_blow_up", "singular_jacobian"])
def test_integrate_keeps_accepted_steps_when_a_step_raises(case, monkeypatch):
    if case == "rk_blow_up":
        method, cfg, t_end, cause = "rk", SolverConfig(h=3.0), 300.0, "non-finite"
    else:
        solve = integrators.newton_solve
        calls = []

        def failing_solve(*args, **kwargs):
            calls.append(1)
            if len(calls) > 3:
                raise SingularJacobianError("singular Jacobian: injected")
            return solve(*args, **kwargs)

        monkeypatch.setattr(integrators, "newton_solve", failing_solve)
        method, cfg, t_end, cause = "mid", CFG, 1.0, "singular Jacobian: injected"
    rec = integrate(SPIN, SCHED, cfg, method, t_end, rigid_params=RP)
    assert rec.truncated
    assert cause in rec.stop_reason
    assert 2 <= len(rec) < round(t_end / cfg.h) + 1
    for col in (rec.q, rec.x_e, rec.xdot_b, rec.omega_b, rec.energy, rec.P_x, rec.P_w):
        assert np.all(np.isfinite(col))
