"""Variational steppers: Newton solver, balance residuals, conservation, reversal."""

import dataclasses
import math
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qvint import (
    BodyState,
    CoefficientSet,
    MorphingSchedule,
    RigidParams,
    SolverConfig,
    constant_schedule,
    energy_grad_omega,
    energy_grad_xdot,
    identity_quat,
    integrate,
    preset_free_body,
    preset_morphing,
    summarize,
)
from qvint import integrators
from qvint.integrators import (
    SingularJacobianError,
    jacobian_left,
    jacobian_mid,
    momentum_scale,
    newton_solve,
    residual_left,
    residual_mid,
    seed_step,
    step_left,
    step_mid,
    step_rk_baseline,
)
from qvint.model import _canonical_f, _cx, _mm, _mv, _skew, canonical_momenta, point_mass_coefficients, rigid_coefficients
from qvint.quat import _exp_f, _right_jacobian, _rotate_f, exp_map, quat_mul

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
    res = newton_solve(lambda v: (tuple(x - 2.0 for x in v), None), lambda v, _: diag3((1.0, 1.0, 1.0)), (5.0, -1.0, 0.5), 1e-12, 50)
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
        1e-12,
        50,
    )
    assert res.converged
    assert res.iterations <= 8
    assert max(abs(x - 2.0) for x in res.x) <= 1e-12
    assert res.terms == tuple(2.0 * x for x in res.x)


def test_newton_singular_vs_starved():
    with pytest.raises(SingularJacobianError):
        newton_solve(lambda v: ((1.0, 1.0, 1.0), None), lambda v, _: (0.0,) * 9, (0.0, 0.0, 0.0), 1e-12, 50)
    res = newton_solve(
        lambda v: (tuple(x * x - 4.0 for x in v), None),
        lambda v, _: diag3([2.0 * x for x in v]),
        (100.0, 100.0, 100.0),
        1e-12,
        1,
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
        1e-12,
        50,
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
        lambda v: (tuple((m @ np.array(v) - rhs).tolist()), None), lambda v, _: tuple(m.ravel()), (0.0, 0.0, 0.0), 1e-12, 50
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
        newton_solve(lambda v: ((1.0, 1.0, 1.0), None), lambda v, _: jac, (0.0, 0.0, 0.0), 1e-12, 50)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_newton_rejects_a_non_finite_residual(bad):
    with pytest.raises(SingularJacobianError, match="residual is non-finite"):
        newton_solve(lambda v: ((1.0, bad, 1.0), None), lambda v, _: diag3((1.0, 1.0, 1.0)), (0.0, 0.0, 0.0), 1e-12, 50)


def test_newton_line_search_steps_back_from_a_non_finite_trial():
    # a full step lands where the residual is NaN; halving recovers
    def residual(v):
        return (tuple(math.nan if x > 1.5 else x - 1.0 for x in v), None)

    res = newton_solve(residual, lambda v, _: diag3((0.5, 0.5, 0.5)), (0.0, 0.0, 0.0), 1e-12, 50)
    assert res.converged
    assert_allclose(res.x, (1.0, 1.0, 1.0), rtol=0.0, atol=1e-12)


def kinked(x):
    """x for x >= 1, 5 x - 4 on [0.75, 1), 0.5 - x below 0.75: roots 0.5 and 0.8, the slope -1 below 0.75."""
    return x if x >= 1.0 else 5.0 * x - 4.0 if x >= 0.75 else 0.5 - x


def test_newton_replaces_a_reused_jacobian_that_stalls():
    # from 101 the slope-1 step lands on 0, cutting |r| from 101 to 0.5, so the
    # next iteration reuses slope 1; the slope there is -1, every halving of
    # that step climbs, and the solve forms a fresh Jacobian at 0 instead of
    # returning converged=False
    trials, jac_at = [], []

    def residual(v):
        trials.append(v[0])
        return (kinked(v[0]), v[1], v[2]), None

    def jacobian(v, _):
        jac_at.append(v[0])
        return diag3((1.0 if v[0] >= 1.0 else 5.0 if v[0] >= 0.75 else -1.0, 1.0, 1.0))

    res = newton_solve(residual, jacobian, (101.0, 0.0, 0.0), 1e-12, 50)
    assert res.converged and res.x == (0.5, 0.0, 0.0) and res.residual_norm == 0.0
    assert jac_at == [101.0, 0.0]
    assert trials[:3] == [101.0, 0.0, -0.5]  # the reused slope's full step, which climbs to r = 1
    assert len(trials) == 1 + 1 + 9 + 1 and res.iterations == 3


def test_newton_replaces_a_reused_jacobian_whose_step_is_numerically_singular():
    # the first Jacobian is nearly singular in a direction the first residual
    # does not excite; reused once the residual turns into that direction, it
    # would step 5e12, past the 1e12 (1 + |x|) bound, so a fresh one is formed
    # there instead of the solve raising
    def stiff(v):
        return 1e-15 if v[0] > 0.5 else 1.0

    def residual(v):
        return (v[0], stiff(v) * v[1] + (0.005 if v[0] <= 0.5 else 0.0), v[2]), None

    jac_at = []

    def jacobian(v, _):
        jac_at.append(v)
        return diag3((1.0, stiff(v), 1.0))

    res = newton_solve(residual, jacobian, (1.0, 0.0, 0.0), 1e-12, 50)
    assert res.converged and res.x == (0.0, -0.005, 0.0)
    assert jac_at == [(1.0, 0.0, 0.0), (0.0, 0.0, 0.0)]


def call_counted(fn):
    """fn wrapped to count its calls in the wrapper's calls attribute."""

    def counted(*args):
        counted.calls += 1
        return fn(*args)

    counted.calls = 0
    return counted


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(st.floats(-0.3, 0.3), min_size=9, max_size=9),
    diag=st.lists(st.floats(1.0, 3.0), min_size=3, max_size=3),
    root=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    quad=st.floats(0.0, 0.2),
    offset=st.lists(st.floats(-0.2, 0.2), min_size=3, max_size=3),
)
def test_newton_converges_on_mildly_nonlinear_systems(a, diag, root, quad, offset):
    # r = A e + quad (e_0^2, e_1^2, e_2^2), e = x - root, with A a well-conditioned
    # 3x3 (a diagonal of 1..3 plus off-diagonal 0.3 at most) and a guess near the root
    m = np.diag(diag) + np.array(a).reshape(3, 3) * (1.0 - np.eye(3))

    def residual(v):
        e = [x - y for x, y in zip(v, root)]
        return (m @ e + quad * np.square(e)).tolist(), tuple(e)

    jacobian = call_counted(lambda v, e: (m + 2.0 * quad * np.diag(e)).ravel().tolist())
    tol = 1e-12 * (1.0 + max(map(abs, root)))
    res = newton_solve(residual, jacobian, [x + d for x, d in zip(root, offset)], tol, 50)
    assert res.converged and res.residual_norm <= tol
    assert res.terms == tuple(x - y for x, y in zip(res.x, root))  # the terms of the returned x
    assert jacobian.calls <= res.iterations


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


# test-side oracles of the flat mid kernels: _mid_eval and _mid_jacobian composed from the float helpers


def composed_mid_eval(k, w):
    u_x, u_w, (mi, xc, s, p, a_x, a_w), hh = k
    e = _exp_f((0.5 * hh * w[0], 0.5 * hh * w[1], 0.5 * hh * w[2]))
    ec = (e[0], -e[1], -e[2], -e[3])
    g1, wv = _rotate_f(ec, u_x), _rotate_f(ec, u_w)
    d = (g1[0] - a_x[0], g1[1] - a_x[1], g1[2] - a_x[2])
    m1, m2, m3, m4 = _mv(mi, d), _mv(xc, w), _mv(p, d), _mv(s, w)
    xd = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
    n = _cx(xd, g1)
    return [(m3[i] + a_w[i] - wv[i]) + m4[i] + hh * n[i] for i in range(3)], (e, g1, xd, wv)


def composed_mid_jacobian(k, w, terms):
    _, _, (mi, xc, s, p, _, _), hh = k
    _, g1, xd, wv = terms
    jr = _right_jacobian((hh * w[0], hh * w[1], hh * w[2]))
    g1s = _skew(g1)
    a = [hh * v for v in _mm(g1s, jr)]
    x = [u + v for u, v in zip(_mm(mi, a), xc)]
    return [
        u + v + hh * (y - z - q)
        for u, v, y, z, q in zip(_mm(p, a), s, _mm(_skew(xd), a), _mm(g1s, x), _mm(_skew(wv), jr))
    ]


def float_bits(values):
    """The bit patterns of nested tuples and lists of floats, so that a zero's sign counts."""
    return [float_bits(v) if isinstance(v, (tuple, list)) else float.hex(v) for v in values]


@settings(max_examples=300, deadline=None)
@given(
    q=floats(-1.0, 1.0, 4).filter(lambda q: np.linalg.norm(q) > 0.1),
    omega=floats(-3.0, 3.0, 3),
    carried=floats(-10.0, 10.0, 6),
    h=st.floats(1e-3, 0.5),
    t=st.one_of(st.none(), st.floats(0.0, 2.0 * np.pi)),
)
def test_flat_mid_kernels_return_the_composed_floats(q, omega, carried, h, t):
    # the residual and its terms equal the composed form bit for bit; the Jacobian leaves out the
    # products with a skew matrix's zeros, so only the sign of a zero entry may differ there
    c = CSET if t is None else MORPHING.coefficients(t)
    k = integrators._mid_setup((q / np.linalg.norm(q)).tolist(), c, h, carried.tolist())
    w = tuple(omega.tolist())
    r, terms = integrators._mid_eval(k, w)
    want_r, want_terms = composed_mid_eval(k, w)
    assert float_bits([r, terms]) == float_bits([want_r, want_terms])
    assert integrators._mid_jacobian(k, w, terms) == composed_mid_jacobian(k, w, terms)


@pytest.mark.parametrize("sched,rp", [(SCHED, RP), (MORPHING, None)], ids=["free_body_rigid", "damped_morphing"])
def test_mid_runs_with_the_composed_kernels_give_the_same_record(sched, rp, monkeypatch):
    # 300 steps of mid on the flat kernels and on the composed ones: every record column, newton_iters too
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.array([0.3, 0.0, 0.1]), np.array([1.0, 1.0, 1.0]))
    rec = integrate(start, sched, CFG, "mid", 3.0, rigid_params=rp)
    monkeypatch.setattr(integrators, "_mid_eval", composed_mid_eval)
    monkeypatch.setattr(integrators, "_mid_jacobian", composed_mid_jacobian)
    want = integrate(start, sched, CFG, "mid", 3.0, rigid_params=rp)
    assert len(rec) == len(want) == 301 and not rec.truncated and not want.truncated
    names = ["t", "q", "x_e", "xdot_b", "omega_b", "energy", "p_x", "p_w", "newton_iters"]
    for name in names + (["P_x", "P_w"] if rp is not None else []):
        got, ref = getattr(rec, name), getattr(want, name)
        assert np.array_equal(got, ref) and got.tobytes() == ref.tobytes(), name  # bit for bit: a zero's sign counts


# test-side oracles: the full 6-component balances and outgoing momenta in the
# paper's form, from the momenta g = (g1, g2) of the velocities


def momenta(q, xdot, omega, c):
    s = BodyState(0.0, q, np.zeros(3), xdot, omega)
    return energy_grad_xdot(s, c), energy_grad_omega(s, c)


def left_balance(q_k, xdot, omega, c, h, carried):
    """(R(q_k) g1, g2 + (h/2) omega x g2 + h xdot x g1) - carried."""
    g1, g2 = momenta(q_k, xdot, omega, c)
    bot = g2 + 0.5 * h * np.cross(omega, g2) + h * np.cross(xdot, g1)
    return np.concatenate((_rotate_f(q_k, g1), bot)) - carried


def left_outgoing(s, c, h):
    """(R(q) g1, g2 - (h/2) omega x g2): the canonical momenta at step -h."""
    return np.concatenate(canonical_momenta(s, c, -h))


def midpoint_rotation(q_k, omega, h):
    return quat_mul(q_k, exp_map((0.25 * h) * np.asarray(omega)))


def mid_balance(q_k, xdot, omega, c, h, carried):
    """R_t (g1, g2 + (h/2) xdot x g1) - carried, R_t = R(q_k (x) exp((h/4) omega))."""
    g1, g2 = momenta(q_k, xdot, omega, c)
    q_t = midpoint_rotation(q_k, omega, h)
    return np.concatenate((_rotate_f(q_t, g1), _rotate_f(q_t, g2 + 0.5 * h * np.cross(xdot, g1)))) - carried


def mid_outgoing(q_k, xdot, omega, c, h):
    """R_t (g1, g2 - (h/2) xdot x g1): what the midpoint after step point q_k hands on."""
    g1, g2 = momenta(q_k, xdot, omega, c)
    q_t = midpoint_rotation(q_k, omega, h)
    return np.concatenate((_rotate_f(q_t, g1), _rotate_f(q_t, g2 - 0.5 * h * np.cross(xdot, g1))))


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
    res = step_mid(seed_step(SPIN, CSET, "mid", CFG.h), SCHED, CFG, scale=momentum_scale(SPIN, CSET, CFG.h))

    def defect(w):
        return residual_mid(SPIN.q, w, CSET, CFG.h, res.carried)

    w_star = np.array(res.omega_b)
    r0 = defect(w_star)
    d = RNG.standard_normal(3)
    d /= np.linalg.norm(d)
    r1 = np.linalg.norm(defect(w_star + 1e-6 * d) - r0)
    r2 = np.linalg.norm(defect(w_star + 2e-6 * d) - r0)
    assert abs(r2 / r1 - 2.0) <= 0.01


def as_state(link):
    """The BodyState of a chain link (StepResult's first five fields are BodyState's)."""
    return BodyState(*link[:5])


@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_seed_step_is_the_initial_state_with_its_schemes_history(method):
    # left's chain starts from the canonical momenta at step -h, the midpoint chain from the
    # continuous momenta on earth axes (its outgoing momentum at h = 0), rk's from none
    s = BodyState(0.3, random_unit_quat(RNG), RNG.standard_normal(3), RNG.standard_normal(3), RNG.standard_normal(3))
    seed = seed_step(s, CSET, method, CFG.h)
    assert seed.t == s.t and seed.coeffs is CSET and seed.carried is None
    assert (seed.iterations, seed.residual_norm, seed.converged) == (0, 0.0, True)
    for got, want in zip((*seed[1:5], *seed.point), (s.q, s.x_e, s.xdot_b, s.omega_b, s.q, s.xdot_b, s.omega_b)):
        assert isinstance(got, tuple) and np.array_equal(got, want)
    if method == "left":
        assert np.array_equal(seed.history, left_outgoing(s, CSET, CFG.h))
    elif method == "mid":
        want = mid_outgoing(s.q, s.xdot_b, s.omega_b, CSET, 0.0)
        assert_allclose(seed.history, want, rtol=0.0, atol=1e-15 * np.linalg.norm(want))
    else:
        assert seed.history is None


def test_a_run_starts_on_a_unit_quaternion():
    # BodyState admits a q up to 1e-6 off unit norm; seed_step renormalizes it, or mid would rotate the
    # momentum it carries by a non-unit q on its first step (e_x 3.9e-6 from this start)
    q = np.array([1.0, 2.0, 3.0, 4.0])
    start = BodyState(0.0, q / np.linalg.norm(q) * (1.0 + 5e-7), np.zeros(3), np.array([0.3, 0.0, 0.1]), np.ones(3))
    for method in ("left", "mid", "rk"):
        rec = integrate(start, SCHED, CFG, method, 5.0, rigid_params=RP)
        assert abs(np.linalg.norm(rec.q[0]) - 1.0) <= 1e-15, method
        assert method == "rk" or summarize(rec).final_e_x <= 1e-12, method
    # a q already unit to within a few ulps keeps its bits
    for q in (identity_quat(), np.array([0.5, -0.5, 0.5, 0.5]), np.array([0.6, 0.0, 0.0, -0.8])):
        s = dataclasses.replace(start, q=q)
        for method in ("left", "mid", "rk"):
            seed = seed_step(s, CSET, method, CFG.h)
            assert seed.q == seed.point[0] == tuple(q.tolist())


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
    prev = seed_step(start, c0, method, h)
    for _ in range(20):
        if method == "left":
            res = step_left(prev, sched, cfg, scale)
            defect = left_balance(res.q, res.xdot_b, res.omega_b, res.coeffs, h, res.carried)
        else:
            res = step_mid(prev, sched, cfg, scale)
            defect = mid_balance(prev.q, res.xdot_b, res.omega_b, res.coeffs, h, res.carried)
        if not res.converged:
            break  # left steps past its stability limit stall; only accepted steps count
        assert np.linalg.norm(defect) <= cfg.residual_tol * scale
        assert np.array_equal(res.history[:3], res.carried[:3])
        prev = res


@pytest.mark.parametrize("sched", [SCHED, preset_morphing(damping=True)], ids=["free_body", "morphing"])
def test_steppers_solve_the_public_residuals(sched):
    # the norm Newton reports is the norm of residual_* at the accepted
    # rate with the carried term the step balanced, bit for bit
    c0 = sched.coefficients(0.0)
    scale = momentum_scale(SPIN, c0, CFG.h)
    for method, step, residual in (("left", step_left, residual_left), ("mid", step_mid, residual_mid)):
        prev = seed_step(SPIN, c0, method, CFG.h)
        for _ in range(5):
            res = step(prev, sched, CFG, scale)
            if sched.force_free:
                assert np.array_equal(res.carried, prev.history)
            q_k = res.q if method == "left" else prev.q
            r = residual(q_k, res.omega_b, res.coeffs, CFG.h, res.carried)
            assert res.converged and res.iterations > 0
            assert math.hypot(*r) == res.residual_norm
            assert np.array_equal(res.history[:3], res.carried[:3])
            prev = res


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

    def recording_solve(residual, jacobian, guess, tol, max_iter):
        calls = []

        def counted_residual(x):
            calls.append(1)
            return residual(x)

        sol = solve(counted_residual, jacobian, guess, tol, max_iter)
        solves.append((sol, jacobian, len(calls), [guess, tol, max_iter]))
        return sol

    monkeypatch.setattr(integrators, "newton_solve", recording_solve)
    c0 = sched.coefficients(0.0)
    scale = momentum_scale(SPIN, c0, CFG.h)
    seed, seed_mid = seed_step(SPIN, c0, "left", CFG.h), seed_step(SPIN, c0, "mid", CFG.h)
    res, res_mid = step_left(seed, sched, CFG, scale), step_mid(seed_mid, sched, CFG, scale)
    (sol, jac, n_left, hand_off), (sol_mid, jac_mid, n_mid, hand_off_mid) = solves
    # both steppers start Newton from the previous rate and solve to residual_tol times the momentum scale
    assert hand_off == [seed.omega_b, CFG.residual_tol * scale, CFG.max_iter]
    assert hand_off_mid == [seed_mid.omega_b, CFG.residual_tol * scale, CFG.max_iter]
    assert evals == {"_left_eval": n_left, "_mid_eval": n_mid}
    assert n_left > sol.iterations > 0 and n_mid > sol_mid.iterations > 0
    want = jacobian_left(res.q, res.omega_b, res.coeffs, CFG.h, res.carried)
    assert np.array_equal(np.reshape(jac(sol.x, sol.terms), (3, 3)), want)
    xd, om = res_mid.xdot_b, res_mid.omega_b
    want = jacobian_mid(SPIN.q, om, res_mid.coeffs, CFG.h, res_mid.carried)
    assert np.array_equal(np.reshape(jac_mid(sol_mid.x, sol_mid.terms), (3, 3)), want)
    # the history the step hands on is the outgoing momentum of the balance it solved
    assert_allclose(res_mid.history, mid_outgoing(SPIN.q, xd, om, res_mid.coeffs, CFG.h), rtol=0.0, atol=1e-13 * scale)


@pytest.mark.parametrize("sched", [SCHED, MORPHING], ids=["free_body", "damped_morphing"])
@pytest.mark.parametrize("method", ["left", "mid"])
def test_one_jacobian_per_step(method, sched, monkeypatch):
    # the warm start is near the root, so the first Newton step contracts the
    # residual 100-fold and its Jacobian serves the rest of the solve
    jacobian, step, per_step = call_counted(getattr(integrators, f"_{method}_jacobian")), f"step_{method}", []

    def counted_step(*args, _fn=getattr(integrators, step)):
        before = jacobian.calls
        res = _fn(*args)
        per_step.append(jacobian.calls - before)
        return res

    monkeypatch.setattr(integrators, f"_{method}_jacobian", jacobian)
    monkeypatch.setattr(integrators, step, counted_step)
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.array([0.3, 0.0, 0.1]), np.array([1.0, 1.0, 1.0]))
    rec = integrate(start, sched, CFG, method, 3.0)
    assert len(rec) == 301 and not rec.truncated and len(per_step) == 300
    if method == "mid":
        assert per_step == [1] * 300
    assert max(per_step) <= 1


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


@pytest.mark.parametrize("sched", [SCHED, MORPHING], ids=["free_body", "morphing"])
@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_integrate_steps_and_solves_through_the_module_globals(method, sched, monkeypatch):
    # a wrapper set on integrators.step_* and integrators.newton_solve, as a tracer sets one, sees
    # every step and every solve: integrate looks its stepper up at each call, and the steppers
    # call newton_solve by its module global with the residual callable as the first argument
    steps, solves = [], []
    for name in ("step_left", "step_mid", "step_rk_baseline"):

        def counted_step(*args, _fn=getattr(integrators, name), _name=name):
            steps.append(_name)
            return _fn(*args)

        monkeypatch.setattr(integrators, name, counted_step)
    solve = integrators.newton_solve

    def counted_solve(*args, **kwargs):
        solves.append(args[0] if args else None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(integrators, "newton_solve", counted_solve)
    counted, times = counting(sched)
    rec = integrate(SPIN, counted, CFG, method, 1.0)
    assert len(rec) == 101 and not rec.truncated
    assert steps == [{"left": "step_left", "mid": "step_mid", "rk": "step_rk_baseline"}[method]] * 100
    assert len(solves) == (0 if method == "rk" else 100) and all(map(callable, solves))
    assert len(times) == 1 + (2 if method == "rk" else 1) * 100


@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_integrate_builds_no_body_state_after_the_initial_one(method, monkeypatch):
    # the chain runs on floats and a force reads them: no run builds a BodyState, forced or not
    built = []
    post_init = BodyState.__post_init__

    def counted(self):
        built.append(self.t)
        post_init(self)

    monkeypatch.setattr(BodyState, "__post_init__", counted)
    for sched in (SCHED, preset_morphing(damping=False), MORPHING):
        rec = integrate(SPIN, sched, CFG, method, 1.0)
        assert len(rec) == 101 and not rec.truncated
        assert built == [], sched.name


def recording(sched):
    """Copy of a forced schedule whose force logs each call's arguments."""
    calls = []

    def force(*args):
        calls.append(args)
        return sched.force(*args)

    return dataclasses.replace(sched, force=force), calls


def all_floats(call):
    t, *state = call
    return type(t) is float and all(type(v) is float for seq in state for v in seq)


@pytest.mark.parametrize("method,per_step", [("left", 1), ("mid", 1), ("rk", 4)])
def test_every_force_call_in_a_run_reads_python_floats(method, per_step):
    sched, calls = recording(MORPHING)
    start = BodyState(0.0, random_unit_quat(RNG), RNG.standard_normal(3), (0.3, -0.1, 0.0), (0.3, -2.0, 0.5))
    rec = integrate(start, sched, CFG, method, 0.5)
    assert len(rec) == 51 and not rec.truncated
    assert len(calls) == per_step * 50 and all(map(all_floats, calls))


def test_left_probes_the_force_at_the_new_step_point_with_the_previous_velocities():
    # (t_k, q_k, x_k, xdot_{k-1}, omega_{k-1}): the kinematic update is explicit, the velocities not yet solved
    sched, calls = recording(MORPHING)
    h = CFG.h
    prev = seed_step(SPIN, MORPHING.coefficients(0.0), "left", h)
    for _ in range(20):
        calls.clear()
        res = step_left(prev, sched, CFG, 1.0)
        [(t, q, x, xd, om)] = calls
        assert t == prev.t + h and (q, x, xd, om) == (res.q, res.x_e, prev.xdot_b, prev.omega_b)
        assert_allclose(q, cg_step(np.array(prev.q), np.array(prev.omega_b), h), rtol=0.0, atol=1e-15)
        assert_allclose(x, prev.x_e + h * np.array(_rotate_f(prev.q, prev.xdot_b)), rtol=0.0, atol=1e-15)
        prev = res


def test_mid_probes_the_force_at_the_half_step_predictor():
    # at t_k + h/2 the state is predicted from step point k with the previous midpoint velocities
    sched, calls = recording(MORPHING)
    h = CFG.h
    start = BodyState(0.0, identity_quat(), np.zeros(3), (0.3, -0.1, 0.0), (0.3, -2.0, 0.5))
    prev = seed_step(start, MORPHING.coefficients(0.0), "mid", h)
    for _ in range(20):
        calls.clear()
        res = step_mid(prev, sched, CFG, 1.0)
        [(t, q, x, xd, om)] = calls
        assert t == prev.t + 0.5 * h and (xd, om) == (prev.xdot_b, prev.omega_b)
        assert_allclose(q, cg_step(np.array(prev.q), np.array(om), 0.5 * h), rtol=0.0, atol=1e-15)
        assert_allclose(x, prev.x_e + 0.5 * h * np.array(_rotate_f(q, xd)), rtol=0.0, atol=1e-15)
        prev = res


def test_rk_probes_the_force_once_at_each_of_its_four_stages():
    # stage i + 1 advances from the step's start at stage i's rates: q0 exp((a h / 2) omega_i), x0 + a h R(q_i) xdot_i
    sched, calls = recording(MORPHING)
    h = CFG.h
    start = BodyState(0.0, identity_quat(), np.zeros(3), (0.3, -0.1, 0.0), (0.3, -2.0, 0.5))
    prev = seed_step(start, MORPHING.coefficients(0.0), "rk", h)
    for _ in range(20):
        calls.clear()
        res = step_rk_baseline(prev, sched, h)
        assert [c[0] for c in calls] == [prev.t, prev.t + 0.5 * h, prev.t + 0.5 * h, prev.t + h]
        q0, x0 = np.array(prev.q), np.array(prev.x_e)
        assert calls[0][1:3] == (prev.q, prev.x_e)
        assert_allclose(np.concatenate(calls[0][3:]), np.concatenate(prev[3:5]), rtol=0.0, atol=1e-13)
        for a, (_, q_i, _, xd_i, om_i), (_, q, x, _, _) in zip((0.5, 0.5, 1.0), calls, calls[1:]):
            assert_allclose(q, cg_step(q0, np.array(om_i), a * h), rtol=0.0, atol=1e-15)
            assert_allclose(x, x0 + a * h * np.array(_rotate_f(q_i, xd_i)), rtol=0.0, atol=1e-15)
        prev = res


@pytest.mark.parametrize("bad", [math.nan, math.inf, "2-vector", None, "x"])
@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_a_force_turning_non_finite_stops_the_run_with_a_named_reason(method, bad):
    # a force that turns non-finite, returns a 2-vector or holds a non-number after t = 0.05 stops the
    # run at the first step that probes it, with the force's own reason, and keeps the finite rows before
    def force(t, q, x_e, xdot_b, omega_b):
        f = np.zeros(2) if bad == "2-vector" else np.array([bad, 0.0, 0.0])
        return (f if t > 0.05 else np.zeros(3)), -0.05 * np.array(omega_b)

    rec = integrate(SPIN, dataclasses.replace(MORPHING, force=force), CFG, method, 0.2)
    want = "force did not return two finite 3-vectors (F earth axes, torque body axes)"
    assert rec.truncated and rec.stop_reason == want
    assert len(rec) == 6 and rec.t[-1] == pytest.approx(0.05)
    for col in (rec.q, rec.x_e, rec.xdot_b, rec.omega_b, rec.energy, rec.p_x, rec.p_w):
        assert np.all(np.isfinite(col))


@pytest.mark.parametrize("rigid", [False, True])
@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_a_state_turning_non_finite_stops_the_run_with_its_field_named(method, rigid):
    # one step of h = 1e155 at 1e153 carries x_e from 1e308 past the float range; the step's
    # state check stops the run there with BodyState's own message, keeping only row 0
    start = BodyState(0.0, identity_quat(), (1e308, 0.0, 0.0), (1e153, 0.0, 0.0), np.zeros(3))
    rec = integrate(start, SCHED, SolverConfig(h=1e155), method, 1e155, rigid_params=RP if rigid else None)
    assert rec.truncated and rec.stop_reason == "BodyState.x_e has non-finite components"
    assert len(rec) == 1 and rec.t.tolist() == [0.0]


@settings(max_examples=40, deadline=None)
@given(
    force=floats(-5.0, 5.0, 3),
    q0=floats(-1.0, 1.0, 4).filter(lambda q: np.linalg.norm(q) > 0.1),
    omega0=floats(-1.0, 1.0, 3),
    xdot0=floats(-1.0, 1.0, 3),
    h=st.floats(0.005, 0.05),
    method=st.sampled_from(["left", "mid"]),
)
def test_a_constant_force_adds_its_impulse_to_the_translational_momentum(force, q0, omega0, xdot0, h, method):
    # the discrete Lagrange-d'Alembert forcing: each step adds h F to the carried p_x, which
    # the solve balances exactly, so row k holds p_x(0) + k h F (row 0 of mid repeats row 1)
    f = tuple(force.tolist())
    sched = MorphingSchedule("pushed", lambda t: CSET, lambda t, *state: (f, (0.0, 0.0, 0.0)), force_free=False)
    start = BodyState(0.0, q0 / np.linalg.norm(q0), np.zeros(3), xdot0, omega0)
    rec = integrate(start, sched, SolverConfig(h=h), method, 30 * h)
    assert len(rec) == 31 and not rec.truncated
    want = canonical_momenta(start, CSET, h)[0] + h * np.arange(31)[:, None] * force
    first = 1 if method == "mid" else 0
    err = np.abs(rec.p_x - want)[first:].max(axis=1) / np.maximum(1.0, np.linalg.norm(rec.p_x, axis=1)[first:])
    assert err.max() <= 1e-12


def test_rest_state_is_fixed_point():
    rest = BodyState(0.0, identity_quat(), np.array([1.0, -2.0, 3.0]), np.zeros(3), np.zeros(3))
    res_left = step_left(seed_step(rest, CSET, "left", CFG.h), SCHED, CFG, 1.0)
    res = as_state(res_left)
    assert res_left.converged
    assert res_left.iterations == 0
    assert np.all(res.xdot_b == 0.0) and np.all(res.omega_b == 0.0)
    assert np.all(res.x_e == rest.x_e)
    assert np.all(res.q == rest.q)
    res_mid = step_mid(seed_step(rest, CSET, "mid", CFG.h), SCHED, CFG, 1.0)
    res = as_state(res_mid)
    assert res_mid.converged
    assert np.all(res.xdot_b == 0.0) and np.all(res.omega_b == 0.0)
    assert np.all(res.x_e == rest.x_e)
    assert np.all(res.q == rest.q)
    rk = as_state(step_rk_baseline(seed_step(rest, CSET, "rk", CFG.h), SCHED, CFG.h))
    assert np.all(rk.xdot_b == 0.0) and np.all(rk.omega_b == 0.0)
    assert np.all(rk.x_e == rest.x_e)


def test_left_interstep_balance_holds_at_reported_tolerance():
    # re-evaluating the converged balance between consecutive accepted
    # states, with the outgoing momentum recomputed from the earlier state
    # rather than read back from the history, reproduces the solver's defect
    scale = momentum_scale(SPIN, CSET, CFG.h)
    tol_abs = CFG.residual_tol * scale
    states = [seed_step(SPIN, CSET, "left", CFG.h)]
    for _ in range(50):
        res = step_left(states[-1], SCHED, CFG, scale)
        assert res.converged
        assert res.residual_norm <= tol_abs
        states.append(res)
    for prev, cur in zip(states[:-1], states[1:]):
        r = residual_left(cur.q, cur.omega_b, CSET, CFG.h, left_outgoing(as_state(prev), CSET, CFG.h))
        assert np.linalg.norm(r) <= tol_abs


def test_mid_interstep_balance_holds_at_reported_tolerance():
    scale = momentum_scale(SPIN, CSET, CFG.h)
    tol_abs = CFG.residual_tol * scale
    state = seed_step(SPIN, CSET, "mid", CFG.h)
    chain = []
    for _ in range(50):
        res = step_mid(state, SCHED, CFG, scale)
        assert res.converged
        assert res.residual_norm <= tol_abs
        chain.append((state.q, res))
        state = res
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
    state = seed_step(start, CSET, "mid", CFG.h)
    first_mid = None
    for _ in range(100):
        state = step_mid(state, SCHED, CFG, scale)
        assert state.converged
        if first_mid is None:
            first_mid = as_state(state)
    state = state._replace(**{f: tuple(-v for v in getattr(state, f)) for f in ("xdot_b", "omega_b", "history")})
    for _ in range(100):
        state = step_mid(state, SCHED, CFG, scale)
        assert state.converged
    state = as_state(state)
    q_err = quat_mul(start.q * (1.0, -1.0, -1.0, -1.0), state.q)  # q_start* (x) q
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


def test_intermediate_axis_spin_is_held_by_rk_and_departed_later_by_mid_as_h_shrinks():
    # omega0 = (0, 2, 0) spins the free body about its intermediate principal axis through the
    # centre of mass (moments 0.467 / 1.067 / 1.500): a relative equilibrium, unstable with growth
    # rate lam = |omega| sqrt((I2 - I1)(I3 - I2) / (I1 I3)) ~ 1.2/s. rk keeps omega on the axis;
    # mid is put O(h^2) off it, so each halving of h delays its departure by ln(4) / lam
    q0 = np.array([0.0, 0.0, 0.0, 1.0])
    start = BodyState(0.0, q0, np.zeros(3), np.array([1.0, 1.0, 0.0]), np.array([0.0, 2.0, 0.0]))
    rk = integrate(start, SCHED, SolverConfig(h=0.01), "rk", 6.0)
    assert not rk.truncated and np.abs(rk.omega_b - start.omega_b).max() <= 1e-9
    i1, i2, i3 = np.linalg.eigvalsh(RP.com_inertia())
    lam = 2.0 * math.sqrt((i2 - i1) * (i3 - i2) / (i1 * i3))
    departures = []
    for h in (0.005, 0.0025, 0.00125):
        rec = integrate(start, SCHED, SolverConfig(h=h), "mid", 6.0)
        off = np.abs(rec.omega_b - start.omega_b).max(axis=1) > 1e-3
        assert not rec.truncated and off.any(), h
        departures.append(rec.t[np.argmax(off)])
    assert departures[0] < departures[1] < departures[2]
    assert_allclose(np.diff(departures), math.log(4.0) / lam, rtol=0.1)


def test_rk_spherical_body_is_exact():
    # for a spherical inertia the momentum equations are trivially constant
    c = CoefficientSet(a_xx=1.0, A_xw=0.0, A_ww=1.0)
    sched = constant_schedule(c, name="sphere")
    omega0 = np.array([0.4, -0.3, 0.8])
    state = seed_step(BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), omega0), c, "rk", 0.01)
    for _ in range(100):
        state = step_rk_baseline(state, sched, 0.01)
        assert np.abs(np.array(state.omega_b) - omega0).max() <= 1e-12
        assert np.abs(state.xdot_b).max() <= 1e-12


def test_rk_damped_spherical_body_decays_exponentially():
    # under the body torque -beta omega a spherical body obeys
    # 2 d(omega)/dt = -beta omega, so omega(t) = omega0 exp(-beta t / 2)
    beta = 0.5
    c = CoefficientSet(a_xx=1.0, A_xw=0.0, A_ww=1.0)
    def damped(t, q, x_e, xdot_b, omega_b):
        return (0.0, 0.0, 0.0), [-beta * w for w in omega_b]

    sched = MorphingSchedule("damped_sphere", lambda t: c, damped, force_free=False)
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
        xd_r, om_r = integrators._velocities(c, g.tolist())
        assert_allclose(xd_r, xd, rtol=1e-10, atol=1e-10)
        assert_allclose(om_r, om, rtol=1e-10, atol=1e-10)


@settings(max_examples=150, deadline=None)
@given(
    m=st.floats(0.1, 10.0),
    com=floats(-1.0, 1.0, 3),
    moments=floats(0.1, 10.0, 3),
    axes=floats(-1.0, 1.0, 4).filter(lambda q: np.linalg.norm(q) > 0.1),
    points=st.lists(st.tuples(st.floats(0.0, 5.0), floats(-2.0, 2.0, 3), floats(-2.0, 2.0, 3)), max_size=3),
    # |v| >= 0.1 keeps M v well above the roundoff of the offset a it is recovered from
    v=floats(-10.0, 10.0, 6).filter(lambda v: np.linalg.norm(v) >= 0.1),
)
def test_velocities_invert_the_momenta_of_random_spd_sets(m, com, moments, axes, points, v):
    # a rigid body with principal moments about the centre of mass on random axes, plus point masses
    q = axes / np.linalg.norm(axes)
    r = np.array([_rotate_f(q, e) for e in np.eye(3)]).T
    i_com = r @ np.diag(moments) @ r.T
    i_ref = 0.5 * (i_com + i_com.T) + m * (float(com @ com) * np.eye(3) - np.outer(com, com))
    c = rigid_coefficients(RigidParams(m, com, i_ref))
    for pm, pos, vel in points:
        c = c + point_mass_coefficients(pm, pos, vel)
    s = BodyState(0.0, identity_quat(), np.zeros(3), v[:3], v[3:])
    xd, om = integrators._velocities(c, [*energy_grad_xdot(s, c), *energy_grad_omega(s, c)])
    assert np.linalg.norm(np.concatenate((xd, om)) - v) <= 1e-10 * np.linalg.norm(v)


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
        carried = seed_step(start, c0, method, h).history
    k = setup(start.q.tolist(), c0, h, carried)
    with pytest.raises(SingularJacobianError) as err:
        newton_solve(lambda w: ev(k, w), lambda w, t: jac(k, w, t), start.omega_b, cfg.residual_tol, cfg.max_iter)
    assert str(err.value) in SOLVER_REASONS


# the record's conserved-quantity columns: evaluated after the steps, in numpy blocks of 128 rows


def hand_rows(start, sched, method, n, rp):
    """integrate's conserved-quantity rows rebuilt by hand: the chain from seed_step and the stepper, on
    the time grid, each link's point evaluated on Python floats with _canonical_f and, given rp, the
    rigid P_x = m R (xdot + omega x c) and P_w = R I_com omega."""
    h, c0 = CFG.h, sched.coefficients(start.t)
    scale = momentum_scale(start, c0, h)
    step = {
        "left": lambda r: step_left(r, sched, CFG, scale),
        "mid": lambda r: step_mid(r, sched, CFG, scale),
        "rk": lambda r: step_rk_baseline(r, sched, h),
    }[method]

    def row(link):
        q, xd, om = link.point
        t, p_x, p_w = _canonical_f(q, xd, om, link.coeffs._flat, h)
        if rp is None:
            return (t, *p_x, *p_w)
        i_com, c_b = rp.com_inertia().ravel().tolist(), rp.c.tolist()
        v_com = _rotate_f(q, [u + v for u, v in zip(xd, _cx(om, c_b))])
        return (t, *p_x, *p_w, *[rp.m * v for v in v_com], *_rotate_f(q, _mv(i_com, om)))

    link = seed_step(start, c0, method, h)
    rows = [row(link)]
    for k in range(1, n + 1):
        link = step(link)
        rows.append(row(link))
        link = link._replace(t=start.t + h * k)
    if method == "mid":
        rows[0] = rows[1]
    return np.array(rows)


@pytest.mark.parametrize(
    "sched,rp",
    [(SCHED, RP), (SCHED, None), (MORPHING, None), (preset_morphing(damping=False), None)],
    ids=["free_body_rigid", "free_body", "damped_morphing", "morphing"],
)
@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_record_columns_are_the_float_rows_bit_for_bit(method, sched, rp):
    # 350 steps cross two block boundaries; numpy's elementwise float64 operations in the
    # kernels' order round exactly like the Python floats of the row each link would give
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.array([0.3, 0.0, 0.1]), np.array([1.0, 1.0, 1.0]))
    rec = integrate(start, sched, CFG, method, 3.5, rigid_params=rp)
    want = hand_rows(start, sched, method, 350, rp)
    assert len(rec) == 351 and not rec.truncated
    cols = [rec.energy[:, None], rec.p_x, rec.p_w] + ([rec.P_x, rec.P_w] if rp is not None else [])
    assert np.array_equal(np.hstack(cols).view(np.uint64), want.view(np.uint64))


def fresh_sets(flat_at):
    """SCHED with a fresh CoefficientSet per call, built from the _flat flat_at(t)."""
    return dataclasses.replace(SCHED, coefficients=lambda t: CoefficientSet._trusted(*flat_at(t)))


def only_a_0_and_a_x_vary(t):
    xx, xw, ww, a_x, a_w, a_0 = CSET._flat
    return xx, xw, ww, (0.1 * math.sin(t), a_x[1], 0.05 * math.cos(t)), a_w, a_0 + 0.2 * math.sin(3.0 * t)


def a_xx_varies_off_the_diagonal(t):
    s = 0.3 * math.sin(t)  # Mxx is not diagonal, so the general 3x3 solve runs every step
    return (4.0, s, 0.0, s, 4.0, 0.0, 0.0, 0.0, 4.0), *CSET._flat[1:]


def a_w_flips_the_sign_of_a_zero(t):
    # with xdot = +0, omega = -0 and A_xw = -0, every term of D2_0 but a_w[0] is -0, so p_w[0]
    # carries a_w[0]'s sign: -0.0 on even steps, 0.0 on odd ones
    z = 0.0 if round(t / CFG.h) % 2 else -0.0
    xx, ww = (4.0, 0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 4.0), (0.5, 0.0, 0.0, 0.0, 1.5, 0.0, 0.0, 0.0, 2.0)
    return xx, (-0.0,) * 9, ww, (0.0, 0.0, 0.0), (z, -0.0, 0.0), 0.0


@pytest.mark.parametrize(
    "flat_at, omega0",
    [(only_a_0_and_a_x_vary, 1.0), (a_xx_varies_off_the_diagonal, 1.0), (a_w_flips_the_sign_of_a_zero, -0.0)],
    ids=["a_0_and_a_x", "a_xx_off_diagonal", "zero_sign_flip"],
)
@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_record_columns_keep_every_bit_on_varying_schedules(method, flat_at, omega0):
    # a schedule of fresh sets takes the block pass's stacked coefficient columns; every row keeps
    # its float row's bits, and an entry that flips between 0.0 and -0.0 keeps each row's sign
    xd0 = [0.3, 0.0, 0.1] if omega0 else [0.0, 0.0, 0.0]
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.array(xd0), np.full(3, omega0))
    sched = fresh_sets(flat_at)
    rec = integrate(start, sched, CFG, method, 3.5)
    want = hand_rows(start, sched, method, 350, None)
    assert len(rec) == 351 and not rec.truncated
    got = np.hstack([rec.energy[:, None], rec.p_x, rec.p_w])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if flat_at is a_w_flips_the_sign_of_a_zero and method != "rk":  # rk's steps turn omega to +0
        assert 0 < np.signbit(rec.p_w[:, 0]).sum() < len(rec) and not rec.p_w[:, 0].any()


def stepper_calls(monkeypatch):
    """Patch the three steppers on the integrators module to log each call; the log."""
    calls = []
    for name in ("step_left", "step_mid", "step_rk_baseline"):

        def counted(*args, _fn=getattr(integrators, name)):
            calls.append(args[0].t)
            return _fn(*args)

        monkeypatch.setattr(integrators, name, counted)
    return calls


def test_a_row_going_non_finite_on_a_finite_state_ends_the_record(monkeypatch):
    # damped morphing under rk at h = 3: the third step's energy overflows while its state
    # stays finite; the record keeps the rows before it and names the divergence
    calls = stepper_calls(monkeypatch)
    rec = integrate(SPIN, MORPHING, SolverConfig(h=3.0), "rk", 300.0)
    assert len(rec) == 3 and rec.truncated
    assert rec.stop_reason == "diverged: non-finite energy or momentum"
    assert 3 <= len(calls) <= 3 + 127


INFINITE_A0 = CoefficientSet(a_xx=CSET.a_xx, A_xw=CSET.A_xw, A_ww=CSET.A_ww, a_0=math.inf)


@pytest.mark.parametrize("failing_force", [False, True], ids=["no_failure", "later_force_failure"])
@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_steps_past_a_non_finite_row_end_with_its_block(method, failing_force, monkeypatch):
    # a_0 turns infinite after t = 1.2825: from row 129, the first of the second 128-row block,
    # every energy is infinite while the states stay finite (no step reads a_0). The run takes
    # the block's other 127 steps, the most it may take past a non-finite row, and the record
    # ends at row 128 with the divergence reason, which also wins over a force that fails at a
    # later step (t > 1.8)
    def force(t, q, x_e, xdot_b, omega_b):
        return ((math.nan if failing_force and t > 1.8 else 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    sched = dataclasses.replace(
        SCHED, coefficients=lambda t: CSET if t < 1.2825 else INFINITE_A0, force=force, force_free=False
    )
    calls = stepper_calls(monkeypatch)
    rec = integrate(SPIN, sched, CFG, method, 3.0, rigid_params=RP)
    assert len(rec) == 129 and rec.truncated
    assert rec.stop_reason == "diverged: non-finite energy or momentum"
    assert np.isfinite(rec.energy).all() and np.isfinite(rec.P_w).all()
    assert len(calls) < 256 if failing_force else len(calls) == 129 + 127


@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_a_non_finite_row_zero_takes_no_step(method, monkeypatch):
    calls = stepper_calls(monkeypatch)
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.array([1e200, 1.0, 1.0]))
    rec = integrate(start, MORPHING, CFG, method, 1.0)
    assert len(rec) == 1 and rec.stop_reason == "diverged: non-finite initial energy or momentum"
    assert calls == []


@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_integrate_holds_only_a_few_coefficient_sets(method):
    # a row keeps its point and its set's _flat, never the set, which caches its elimination
    # blocks: over 300 steps no more than the sets a step itself needs are alive at once
    live, most = weakref.WeakSet(), [0]

    def coefficients(t):
        c = MORPHING.coefficients(t)
        live.add(c)
        most[0] = max(most[0], len(live))
        return c

    rec = integrate(SPIN, dataclasses.replace(MORPHING, coefficients=coefficients), CFG, method, 3.0)
    assert len(rec) == 301 and not rec.truncated
    assert most[0] <= 4


FORCE_REASON = "force did not return two finite 3-vectors (F earth axes, torque body axes)"
# a run's stop reasons: the solver's, a force's and a state's that turned non-finite
RECORD_REASON = re.compile(
    "|".join(map(re.escape, (*SOLVER_REASONS, FORCE_REASON)))
    + r"|BodyState\.(q|x_e|xdot_b|omega_b) has non-finite components"
)


def log_uniform_rates():
    """A signed rate of magnitude 10**e, e uniform in [-3, 3] or in [-3, 200]: half the draws stay where
    rows can turn non-finite only after some steps."""
    exponent = st.floats(-3.0, 3.0) | st.floats(-3.0, 200.0)
    return st.tuples(st.sampled_from([-1.0, 1.0]), exponent).map(lambda s: s[0] * 10.0 ** s[1])


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None)
@given(
    omega0=st.lists(log_uniform_rates(), min_size=3, max_size=3),
    xdot0=st.lists(log_uniform_rates(), min_size=3, max_size=3),
    h=st.floats(0.01, 10.0),
    steps=st.integers(1, 300),
    sched=st.sampled_from(["free_body", "morphing", "damped_morphing"]),
    method=st.sampled_from(["left", "mid", "rk"]),
)
def test_any_rate_gives_finite_rows_or_a_documented_reason(omega0, xdot0, h, steps, sched, method):
    # the steps taken past a non-finite row raise nothing and warn nothing, and the
    # record they leave holds finite rows only, unless row 0 itself is not finite
    sched, rp = {
        "free_body": (SCHED, RP),
        "morphing": (preset_morphing(damping=False), None),
        "damped_morphing": (MORPHING, None),
    }[sched]
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.array(xdot0), np.array(omega0))
    rec = integrate(start, sched, SolverConfig(h=h), method, steps * h, rigid_params=rp)
    cols = [rec.q, rec.x_e, rec.xdot_b, rec.omega_b, rec.energy, rec.p_x, rec.p_w]
    if rec.stop_reason == "diverged: non-finite initial energy or momentum":
        assert len(rec) == 1
    else:
        assert all(np.isfinite(c).all() for c in cols + ([rec.P_x, rec.P_w] if rp is not None else []))
    assert rec.truncated == bool(rec.stop_reason)
    assert not rec.truncated or RECORD_REASON.fullmatch(rec.stop_reason), rec.stop_reason


@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_singular_translational_mass_block_is_a_solver_failure(method):
    # a zero a_xx is caught on _solve3's diagonal path, a rank-2 one by its general path's zero determinant
    for a_xx in (0.0, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.5]]):
        c = CoefficientSet(a_xx=a_xx, A_xw=0.0, A_ww=1.0)
        sched = constant_schedule(c, name="massless")
        rec = integrate(SPIN, sched, CFG, method, 0.1)
        assert rec.truncated and len(rec) == 1
        assert rec.stop_reason.startswith("translational mass block 2 a_xx")
        with pytest.raises(SingularJacobianError, match="translational mass block"):
            if method == "rk":
                step_rk_baseline(seed_step(SPIN, c, "rk", CFG.h), sched, CFG.h)
            else:
                step = step_left if method == "left" else step_mid
                step(seed_step(SPIN, c, method, CFG.h), sched, CFG, momentum_scale(SPIN, c, CFG.h))


@pytest.mark.parametrize(
    "a_xx, A_ww, reason",
    [
        (1.0, 0.0, "Schur complement S: Singular matrix"),
        (1.0, np.diag([1.0, 1.0, 1e-14]), "Schur complement S: condition estimate 1e+14 exceeds 1e12"),
        (np.diag([1.0, 1.0, 1e-14]), 1.0, "translational mass block 2 a_xx: condition estimate 1e+14 exceeds 1e12"),
    ],
    ids=["singular_S", "near_singular_S", "near_singular_Mxx"],
)
def test_rk_names_a_singular_or_near_singular_recovery_block(a_xx, A_ww, reason):
    c = CoefficientSet(a_xx=a_xx, A_xw=0.0, A_ww=A_ww)
    rec = integrate(SPIN, constant_schedule(c), CFG, "rk", 0.1)
    assert rec.truncated and len(rec) == 1
    assert rec.stop_reason == reason
    with pytest.raises(ValueError, match=re.escape(reason)):
        c.schur_inverse


@pytest.mark.parametrize("method", ["left", "mid"])
def test_non_finite_coefficients_do_not_blame_the_mass_block(method):
    # a_w turns infinite after t = 0.05 while the translational mass block stays regular
    bad = CoefficientSet(a_xx=CSET.a_xx, A_xw=CSET.A_xw, A_ww=CSET.A_ww, a_w=(math.inf, 0.0, 0.0))
    sched = dataclasses.replace(SCHED, coefficients=lambda t: CSET if t < 0.05 else bad)
    rec = integrate(SPIN, sched, CFG, method, 0.1)
    assert rec.truncated and len(rec) > 1
    assert rec.stop_reason == "non-finite coefficients"
