"""Variational steppers: Newton solver, balance residuals, conservation, reversal."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qvint import (
    BodyState,
    CoefficientSet,
    canonical_momenta,
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
from qvint.integrators import momentum_scale
from qvint.quat import _rotate

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


def diag3(d):
    """Row-major 9-tuple of the diagonal matrix with diagonal d."""
    return (d[0], 0.0, 0.0, 0.0, d[1], 0.0, 0.0, 0.0, d[2])


def test_newton_linear():
    res = newton_solve(lambda v: (tuple(x - 2.0 for x in v), None), lambda v, _: diag3((1.0, 1.0, 1.0)), (5.0, -1.0, 0.5), CFG)
    assert res.converged
    assert res.x == (2.0, 2.0, 2.0)
    assert res.residual_norm == 0.0
    assert res.iterations <= 2  # one Newton step plus the polish pass


def test_newton_quadratic():
    # the residual hands its derivative 2 v to the Jacobian, and the result
    # carries the terms of the returned iterate
    res = newton_solve(
        lambda v: (tuple(x * x - 4.0 for x in v), tuple(2.0 * x for x in v)),
        lambda v, d: diag3(d),
        np.array([3.0, 2.5, 5.0]),
        CFG,
    )
    assert res.converged
    assert res.iterations <= 8
    assert max(abs(x - 2.0) for x in res.x) <= 1e-12
    assert res.terms == tuple(2.0 * x for x in res.x)


def test_newton_singular_vs_starved():
    with pytest.raises(SingularJacobianError):
        newton_solve(lambda v: ((1.0, 1.0, 1.0), None), lambda v, _: (0.0,) * 9, (0.0, 0.0, 0.0), CFG)
    res = newton_solve(
        lambda v: (tuple(x * x - 4.0 for x in v), None),
        lambda v, _: diag3([2.0 * x for x in v]),
        (100.0, 100.0, 100.0),
        SolverConfig(h=0.01, max_iter=1),
    )
    assert not res.converged
    assert res.residual_norm > 1.0


def test_newton_multidimensional():
    a = np.array([1.0, -2.0, 0.5])
    guess = np.array([1.0, -1.0, 1.0])
    res = newton_solve(
        lambda v: (tuple(x**3 - b for x, b in zip(v, a)), tuple(x**2 for x in v)),
        lambda v, v2: diag3([3.0 * x for x in v2]),
        guess,
        CFG,
    )
    assert res.converged
    assert_allclose(res.x, np.cbrt(a), rtol=1e-12)
    assert res.terms == tuple(x**2 for x in res.x)


def test_newton_couples_the_three_unknowns():
    # a full (non-diagonal) linear system: the adjugate solve lands on the
    # exact solution, which the polish pass then leaves in place
    m = np.array([[4.0, 1.0, -2.0], [1.0, 3.0, 0.5], [-2.0, 0.5, 5.0]])
    rhs = np.array([1.0, -2.0, 3.0])
    res = newton_solve(
        lambda v: (tuple((m @ np.array(v) - rhs).tolist()), None), lambda v, _: tuple(m.ravel()), (0.0, 0.0, 0.0), CFG
    )
    assert res.converged and res.iterations <= 2
    assert_allclose(res.x, np.linalg.solve(m, rhs), rtol=1e-14)


@pytest.mark.parametrize(
    "jac,match",
    [
        ((1.0, 2.0, 3.0, 2.0, 4.0, 6.0, 0.0, 1.0, 1.0), "zero determinant"),  # rank 2
        ((1.0, 0.0, 0.0, 0.0, math.nan, 0.0, 0.0, 0.0, 1.0), "non-finite entries"),
        ((math.inf, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), "non-finite entries"),
        ((1e200, 0.0, 0.0, 0.0, 1e200, 0.0, 0.0, 0.0, 1e200), "determinant is non-finite"),
        ((1e-20, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), "numerically singular"),  # step 1e20
    ],
    ids=["zero_det", "nan_entry", "inf_entry", "det_overflow", "huge_step"],
)
def test_newton_rejects_unusable_jacobians(jac, match):
    with pytest.raises(SingularJacobianError, match=match):
        newton_solve(lambda v: ((1.0, 1.0, 1.0), None), lambda v, _: jac, (0.0, 0.0, 0.0), CFG)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_newton_rejects_a_non_finite_residual(bad):
    with pytest.raises(SingularJacobianError, match="residual is non-finite"):
        newton_solve(lambda v: ((1.0, bad, 1.0), None), lambda v, _: diag3((1.0, 1.0, 1.0)), (0.0, 0.0, 0.0), CFG)


def test_newton_line_search_steps_back_from_a_non_finite_trial():
    # a full step lands where the residual is NaN; halving recovers
    def residual(v):
        return (tuple(math.nan if x > 1.5 else x - 1.0 for x in v), None)

    res = newton_solve(residual, lambda v, _: diag3((0.5, 0.5, 0.5)), (0.0, 0.0, 0.0), CFG)
    assert res.converged
    assert_allclose(res.x, (1.0, 1.0, 1.0), rtol=0.0, atol=1e-12)


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
    omega=floats(-3.0, 3.0, 3),
    carried=floats(-10.0, 10.0, 6),
    h=st.floats(1e-3, 0.5),
    t=st.one_of(st.none(), st.floats(0.0, 2.0 * np.pi)),
)
def test_jacobians_match_central_difference_oracle(q, omega, carried, h, t):
    # t None draws the free body, otherwise the morphing coefficients at t
    q = q / np.linalg.norm(q)
    c = CSET if t is None else MORPHING.coefficients(t)
    for residual, jacobian in ((residual_left, jacobian_left), (residual_mid, jacobian_mid)):
        jac = jacobian(q, omega, c, h, carried)
        oracle = central_difference_jacobian(lambda w: residual(q, w, c, h, carried), omega)
        assert np.abs(jac - oracle).max() <= 1e-6 * np.abs(oracle).max(), residual.__name__


# test-side oracles: the full 6-component balances and outgoing momenta in the
# paper's form, from the momenta g = (g1, g2) of the velocities


def momenta(q, xdot, omega, c):
    s = BodyState(0.0, q, np.zeros(3), xdot, omega)
    return energy_grad_xdot(s, c), energy_grad_omega(s, c)


def left_balance(q_k, xdot, omega, c, h, carried):
    """(R(q_k) g1, g2 + (h/2) omega x g2 + h xdot x g1) - carried."""
    g1, g2 = momenta(q_k, xdot, omega, c)
    bot = g2 + 0.5 * h * np.cross(omega, g2) + h * np.cross(xdot, g1)
    return np.concatenate((_rotate(q_k, g1), bot)) - carried


def left_outgoing(s, c, h):
    """(R(q) g1, g2 - (h/2) omega x g2): the canonical momenta at step -h."""
    return np.concatenate(canonical_momenta(s, c, -h))


def midpoint_rotation(q_k, omega, h):
    return quat_mul(q_k, exp_map((0.25 * h) * omega))


def mid_balance(q_k, xdot, omega, c, h, carried):
    """R_t (g1, g2 + (h/2) xdot x g1) - carried, R_t = R(q_k (x) exp((h/4) omega))."""
    g1, g2 = momenta(q_k, xdot, omega, c)
    q_t = midpoint_rotation(q_k, omega, h)
    return np.concatenate((_rotate(q_t, g1), _rotate(q_t, g2 + 0.5 * h * np.cross(xdot, g1)))) - carried


def mid_outgoing(q_k, xdot, omega, c, h):
    """R_t (g1, g2 - (h/2) xdot x g1): what the midpoint after step point q_k hands on."""
    g1, g2 = momenta(q_k, xdot, omega, c)
    q_t = midpoint_rotation(q_k, omega, h)
    return np.concatenate((_rotate(q_t, g1), _rotate(q_t, g2 - 0.5 * h * np.cross(xdot, g1))))


DIAG_TOP = CoefficientSet(a_xx=2.0, A_xw=0.0, A_ww=np.diag([1.0, 2.0, 3.0]))
AXIAL = np.array([0.0, 0.0, 2.0])


def test_residual_left_equilibrium_is_exact_zero():
    # axis-aligned spin of a decoupled diagonal body is a discrete equilibrium
    h = 0.05
    q = random_unit_quat(RNG)
    carried = left_outgoing(BodyState(0.0, q, np.zeros(3), np.zeros(3), AXIAL), DIAG_TOP, h)
    r = residual_left(cg_step(q, AXIAL, h), AXIAL, DIAG_TOP, h, carried)
    assert np.all(r == 0.0)


def test_residual_left_zero_step_vanishes():
    # at h = 0 the balance against a state's own momentum holds at its
    # velocities; eliminating xdot and rotating back and forth round to a few ulp
    for _ in range(20):
        s = BodyState(0.0, random_unit_quat(RNG), np.zeros(3), RNG.standard_normal(3), RNG.standard_normal(3))
        carried = left_outgoing(s, CSET, 0.0)
        r = residual_left(s.q, s.omega_b, CSET, 0.0, carried)
        assert np.linalg.norm(r) <= 1e-14 * np.linalg.norm(carried)


def test_residual_left_nonzero_off_solution():
    prev = SPIN
    q_k = cg_step(prev.q, prev.omega_b, CFG.h)
    r = residual_left(q_k, prev.omega_b + 0.5, CSET, CFG.h, left_outgoing(prev, CSET, CFG.h))
    assert np.linalg.norm(r) > 1e-3


def test_residual_mid_equilibrium_and_zero_step():
    h = 0.05
    q0 = exp_map(np.array([0.0, 0.0, 0.3]))  # rotation about the spin axis
    carried = mid_outgoing(q0, np.zeros(3), AXIAL, DIAG_TOP, h)
    r = residual_mid(cg_step(q0, AXIAL, h), AXIAL, DIAG_TOP, h, carried)
    assert np.all(r == 0.0)
    for _ in range(20):
        q = random_unit_quat(RNG)
        xd, om = RNG.standard_normal(3), RNG.standard_normal(3)
        carried = mid_outgoing(q, xd, om, CSET, 0.0)
        r = residual_mid(q, om, CSET, 0.0, carried)
        assert np.linalg.norm(r) <= 1e-14 * np.linalg.norm(carried)


def test_residual_mid_local_linearity():
    # the residual is smooth in the trial rate: doubling a small
    # perturbation about the solved point doubles the defect
    history = initial_midpoint_history(SPIN, CSET)
    res = step_mid(SPIN, history, SCHED, CFG, scale=momentum_scale(SPIN, CSET, CFG.h))

    def defect(w):
        return residual_mid(SPIN.q, w, CSET, CFG.h, res.carried)

    w_star = res.state.omega_b
    r0 = defect(w_star)
    d = RNG.standard_normal(3)
    d /= np.linalg.norm(d)
    r1 = np.linalg.norm(defect(w_star + 1e-6 * d) - r0)
    r2 = np.linalg.norm(defect(w_star + 2e-6 * d) - r0)
    assert abs(r2 / r1 - 2.0) <= 0.01


def seed_history(method, s, c, h):
    return left_outgoing(s, c, h) if method == "left" else initial_midpoint_history(s, c)


@settings(max_examples=30, deadline=None)
@given(
    q0=floats(-1.0, 1.0, 4).filter(lambda q: np.linalg.norm(q) > 0.1),
    omega0=floats(-3.0, 3.0, 3),
    xdot0=floats(-2.0, 2.0, 3),
    h=st.floats(0.002, 0.1),
    morphing=st.booleans(),
    method=st.sampled_from(["left", "mid"]),
)
def test_accepted_steps_satisfy_the_full_balance(q0, omega0, xdot0, h, morphing, method):
    # the reduced solve balances the translational row by construction: the
    # full 6-component balance of the paper holds at every accepted step, and
    # the translational momentum handed on is the one received, bit for bit
    sched = MORPHING if morphing else SCHED
    start = BodyState(0.0, q0 / np.linalg.norm(q0), np.zeros(3), xdot0, omega0)
    cfg = SolverConfig(h=h)
    c0 = sched.coefficients(0.0)
    scale = momentum_scale(start, c0, h)
    state, history = start, seed_history(method, start, c0, h)
    for _ in range(20):
        if method == "left":
            res = step_left(state, history, sched, cfg, scale)
            s = res.state
            defect = left_balance(s.q, s.xdot_b, s.omega_b, res.coeffs, h, res.carried)
        else:
            res = step_mid(state, history, sched, cfg, scale)
            defect = mid_balance(state.q, res.state.xdot_b, res.state.omega_b, res.coeffs, h, res.carried)
        if not res.converged:
            break  # left steps past its stability limit stall; only accepted steps count
        assert np.linalg.norm(defect) <= cfg.residual_tol * scale
        assert np.array_equal(res.history[:3], res.carried[:3])
        state, history = res.state, res.history


@pytest.mark.parametrize("sched", [SCHED, preset_morphing(damping=True)], ids=["free_body", "morphing"])
def test_steppers_solve_the_public_residuals(sched):
    # the norm Newton reports is the norm of residual_* at the accepted
    # rate with the carried term the step balanced, bit for bit
    c0 = sched.coefficients(0.0)
    scale = momentum_scale(SPIN, c0, CFG.h)
    for method, step, residual in (("left", step_left, residual_left), ("mid", step_mid, residual_mid)):
        state, history = SPIN, seed_history(method, SPIN, c0, CFG.h)
        for _ in range(5):
            prev, res = state, step(state, history, sched, CFG, scale)
            if sched.force_free:
                assert np.array_equal(res.carried, history)
            state, history = res.state, res.history
            q_k = state.q if method == "left" else prev.q
            r = residual(q_k, state.omega_b, res.coeffs, CFG.h, res.carried)
            assert res.converged and res.iterations > 0
            assert math.hypot(*r) == res.residual_norm
            assert np.array_equal(res.history[:3], res.carried[:3])


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
    res = step_left(SPIN, left_outgoing(SPIN, c0, CFG.h), sched, CFG, scale)
    res_mid = step_mid(SPIN, initial_midpoint_history(SPIN, c0), sched, CFG, scale)
    (sol, jac, n_left), (sol_mid, jac_mid, n_mid) = solves
    assert evals == {"_left_eval": n_left, "_mid_eval": n_mid}
    assert n_left > sol.iterations > 0 and n_mid > sol_mid.iterations > 0
    s = res.state
    want = jacobian_left(s.q, s.omega_b, res.coeffs, CFG.h, res.carried)
    assert np.array_equal(np.reshape(jac(sol.x, sol.terms), (3, 3)), want)
    xd, om = res_mid.state.xdot_b, res_mid.state.omega_b
    want = jacobian_mid(SPIN.q, om, res_mid.coeffs, CFG.h, res_mid.carried)
    assert np.array_equal(np.reshape(jac_mid(sol_mid.x, sol_mid.terms), (3, 3)), want)
    # the history the step hands on is the outgoing momentum of the balance it solved
    assert_allclose(res_mid.history, mid_outgoing(SPIN.q, xd, om, res_mid.coeffs, CFG.h), rtol=0.0, atol=1e-13 * scale)


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
    res = step_left(rest, left_outgoing(rest, CSET, CFG.h), SCHED, CFG)
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
    # re-evaluating the converged balance between consecutive accepted
    # states, with the outgoing momentum recomputed from the earlier state
    # rather than read back from the history, reproduces the solver's defect
    scale = momentum_scale(SPIN, CSET, CFG.h)
    tol_abs = CFG.residual_tol * scale
    states, history = [SPIN], left_outgoing(SPIN, CSET, CFG.h)
    for _ in range(50):
        res = step_left(states[-1], history, SCHED, CFG, scale)
        assert res.converged
        assert res.residual_norm <= tol_abs
        states.append(res.state)
        history = res.history
    for prev, cur in zip(states[:-1], states[1:]):
        r = residual_left(cur.q, cur.omega_b, CSET, CFG.h, left_outgoing(prev, CSET, CFG.h))
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
        carried = mid_outgoing(q_prev, prev_m.xdot_b, prev_m.omega_b, CSET, CFG.h)
        r = residual_mid(q_k, cur_m.omega_b, CSET, CFG.h, carried)
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


@pytest.mark.parametrize("t_end", [1e300, 1.0])
def test_step_counts_past_2_pow_53_are_rejected(t_end):
    # (t_end - t0)/h is infinite, or finite but past the count where the times t0 + k h stay distinct
    with pytest.raises(ValueError, match=r"2\*\*53"):
        integrate(SPIN, SCHED, SolverConfig(h=1e-300), "mid", t_end)


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


def test_non_finite_initial_energy_stops_at_row_zero():
    # a rate of 1e200 is finite but its energy overflows: the scale and row 0
    # are held to the rule of every later row, quietly
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.array([1e200, 1.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in ("left", "mid", "rk"):
            rec = integrate(start, SCHED, CFG, method, 0.1, rigid_params=RP)
            assert len(rec) == 1 and rec.truncated
            assert rec.stop_reason == "diverged: non-finite initial energy or momentum"
            rep = summarize(rec)
            assert rep.final_e_x == 0.0 and np.isnan(rep.final_e_T)


SOLVER_REASONS = (
    "diverged: non-finite initial energy or momentum",
    "diverged: non-finite energy or momentum",
    "residual is non-finite",
    "Jacobian has non-finite entries",
    "singular Jacobian: zero determinant",
    "Jacobian determinant is non-finite",
    "Jacobian is numerically singular",
    "Newton did not converge",
    "cannot normalize quaternion with zero or non-finite norm",
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sched", [SCHED, MORPHING], ids=["free_body", "morphing"])
@pytest.mark.parametrize("method", ["left", "mid"])
@pytest.mark.parametrize("h", [3.0, 10.0])
@pytest.mark.parametrize("rate", [1e150, 1e300])
def test_huge_rates_fail_with_a_solver_reason(rate, h, method, sched):
    # the float kernels raise no math error: every failure of the rate solve
    # is a SingularJacobianError that names its cause
    cfg = SolverConfig(h=h)
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.array([rate, 1.0, 1.0]))
    rec = integrate(start, sched, cfg, method, 30.0 * h)
    assert rec.truncated and rec.stop_reason in SOLVER_REASONS
    c0 = sched.coefficients(0.0)
    setup, ev, jac = {
        "left": (integrators._left_setup, integrators._left_eval, integrators._left_jacobian),
        "mid": (integrators._mid_setup, integrators._mid_eval, integrators._mid_jacobian),
    }[method]
    with np.errstate(over="ignore", invalid="ignore"):
        carried = seed_history(method, start, c0, h)
    k = setup(start.q.tolist(), c0, h, carried)
    with pytest.raises(SingularJacobianError) as err:
        newton_solve(lambda w: ev(k, w), lambda w, t: jac(k, w, t), start.omega_b, cfg)
    assert str(err.value) in SOLVER_REASONS


@pytest.mark.parametrize("method", ["left", "mid"])
def test_singular_translational_mass_block_is_a_solver_failure(method):
    c = CoefficientSet(a_xx=0.0, A_xw=0.0, A_ww=1.0)
    sched = constant_schedule(c, name="massless")
    rec = integrate(SPIN, sched, CFG, method, 0.1)
    assert rec.truncated and len(rec) == 1
    assert rec.stop_reason.startswith("translational mass block 2 a_xx")
    step = step_left if method == "left" else step_mid
    with pytest.raises(SingularJacobianError, match="translational mass block"):
        step(SPIN, seed_history(method, SPIN, c, CFG.h), sched, CFG)
