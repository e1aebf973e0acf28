"""Variational steppers: Newton solver, balance residuals, conservation, reversal."""

import dataclasses
import math
import re
import warnings
import weakref
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    newton_solve,
    residual_left,
    residual_mid,
    seed_step,
    step_left,
    step_mid,
    step_rk_baseline,
)
from qvint.model import _canonical_f, _cx, _mm, _mv, _skew, canonical_momenta
from qvint.model import point_mass_coefficients, rigid_coefficients
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
    # a non-finite h or residual_tol would give a run of NaN times, or Newton iterations that stop at once
    for value in (np.inf, np.nan, -np.inf):
        for field in ("h", "residual_tol"):
            with pytest.raises(ValueError, match=rf"SolverConfig\.{field} must be positive and finite"):
                SolverConfig(**{"h": 0.01, field: value})
    # 2.5 would run 3 iterations; a numpy integer is an integer
    with pytest.raises(ValueError, match=r"SolverConfig\.max_iter must be an integer of at least 1"):
        SolverConfig(h=0.01, max_iter=2.5)
    assert SolverConfig(h=0.01, max_iter=np.int64(3)).max_iter == 3


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
        ((1.0, 0.0, 0.0, 0.0, math.nan, 0.0, 0.0, 0.0, 1.0), "determinant is non-finite"),
        ((math.inf, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), "determinant is non-finite"),
        ((1e200, 0.0, 0.0, 0.0, 1e200, 0.0, 0.0, 0.0, 1e200), "determinant is non-finite"),
        ((1e-20, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), "numerically singular"),  # step 1e20
    ],
    ids=["zero_det", "nan_entry", "inf_entry", "det_overflow", "huge_step"],
)
def test_newton_rejects_unusable_jacobians(jac, match):
    with pytest.raises(SingularJacobianError, match=match):
        newton_solve(lambda v: ((1.0, 1.0, 1.0), None), lambda v, _: jac, (0.0, 0.0, 0.0), 1e-12, 50)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0]), min_size=9, max_size=9),
    st.integers(0, 8),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_a_non_finite_jacobian_entry_gives_a_non_finite_determinant(jac, at, bad):
    # every entry is a factor of a product in the determinant, and inf * 0 is NaN, so the determinant test
    # rejects any Jacobian with a NaN or infinite entry, whatever the other eight entries are
    jac[at] = bad
    with pytest.raises(SingularJacobianError, match="^Jacobian determinant is non-finite$"):
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


@pytest.mark.parametrize("accepted", [0, 1, 3, 8, None], ids=["full_step", "half", "eighth", "last_halving", "stall"])
def test_newton_line_search_tries_the_full_step_then_each_halving_in_order(accepted):
    # r = (0.75, -0.5, 0.25) at the guess and an identity Jacobian give dx = -r; every trial climbs but the
    # one at alpha = 2**-accepted, which lands on r = 0. The trials are x + alpha dx for alpha = 1, 1/2, ...,
    # 1/256 in that order, at most 9 in an iteration, and a search that stalls from a fresh Jacobian returns
    # converged=False after exactly 9
    x0, r0 = (0.1, 0.2, 0.3), (0.75, -0.5, 0.25)
    dx = tuple(-r for r in r0)
    trials = []

    def residual(v):
        trials.append(v)
        if len(trials) == 1:
            return r0, None
        return ((0.0, 0.0, 0.0) if len(trials) - 2 == accepted else (2.0, 2.0, 2.0)), None

    res = newton_solve(residual, lambda v, _: diag3((1.0, 1.0, 1.0)), x0, 1e-12, 50)
    n = 9 if accepted is None else accepted + 1
    assert trials[0] == x0
    assert trials[1:] == [tuple(x + 2.0**-j * d for x, d in zip(x0, dx)) for j in range(n)]
    assert res.iterations == 1 and res.converged == (accepted is not None)
    if accepted is None:
        assert res.x == x0 and res.residual_norm == math.hypot(*r0)
    else:
        assert res.x == trials[-1] and res.residual_norm == 0.0


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


# test-side oracles of the flat left and rk kernels: _left_setup, _left_eval, _left_jacobian, _velocities,
# _rk_rate and step_rk_baseline composed from the float helpers, on the flat kernels' setup layout


def composed_left_setup(q_k, c_k, h, carried):
    mi, xc, s, p, a_x, a_w = c_k.elimination_blocks
    w, x, y, z = q_k
    b, c_w = _rotate_f((w, -x, -y, -z), carried[:3]), carried[3:]
    d = (b[0] - a_x[0], b[1] - a_x[1], b[2] - a_x[2])
    g20 = [u + v for u, v in zip(_mv(p, d), a_w)]
    k0 = [u - h * v for u, v in zip(s, _mm(_skew(b), xc))]
    return b, _mv(mi, d), g20, c_w, xc, s, k0, h, 0.5 * h


def composed_left_eval(k, w):
    b, x0, g20, c_w, xc, s, _, h, _ = k
    u, v = _mv(xc, w), _mv(s, w)
    xd = (x0[0] + u[0], x0[1] + u[1], x0[2] + u[2])
    g2 = (g20[0] + v[0], g20[1] + v[1], g20[2] + v[2])
    m, n = _cx(w, g2), _cx(xd, b)
    return [g2[i] + 0.5 * h * m[i] + h * n[i] - c_w[i] for i in range(3)], (xd, g2)


def composed_left_jacobian(k, w, terms):
    s, k0, hh = k[5], k[6], 0.5 * k[7]
    return [u + hh * (v - g) for u, v, g in zip(k0, _mm(_skew(w), s), _skew(terms[1]))]


def composed_velocities(c, d):
    mi, xc, _, p, a_x, a_w = c.elimination_blocks
    e = [u - v for u, v in zip(d, a_x)]
    om = _mv(c.schur_inverse, [u - v - w for u, v, w in zip(d[3:], a_w, _mv(p, e))])
    return tuple([u + v for u, v in zip(_mv(mi, e), _mv(xc, om))]), om


def composed_rk_rate(sched, t_s, q_s, x_s, d, xd, om):
    m, n, o = _cx(om, d[:3]), _cx(om, d[3:]), _cx(xd, d[:3])
    dd = [-m[0], -m[1], -m[2], -n[0] - o[0], -n[1] - o[1], -n[2] - o[2]]
    if not sched.force_free:
        f = integrators._force(sched, t_s, q_s, x_s, xd, om)
        dd = [u + v for u, v in zip(dd, (*_rotate_f((q_s[0], -q_s[1], -q_s[2], -q_s[3]), f[:3]), *f[3:]))]
    return om, _rotate_f(q_s, xd), dd


def composed_step_rk(prev, t, sched, cfg):
    h, q0, x0, d0 = cfg.h, prev.q, prev.x_e, prev.history
    c_half, c_end = integrators._coefficients(sched, prev.t + 0.5 * h), integrators._coefficients(sched, t)
    k = [composed_rk_rate(sched, prev.t, q0, x0, d0, prev.xdot_b, prev.omega_b)]
    for a, t_s, c in ((0.5, prev.t + 0.5 * h, c_half), (0.5, prev.t + 0.5 * h, c_half), (1.0, t, c_end)):
        om, dx, dd = k[-1]
        x_s, d_s = [u + a * h * v for u, v in zip(x0, dx)], [u + a * h * v for u, v in zip(d0, dd)]
        q_s = integrators._advance(q0, om, a * h)
        k.append(composed_rk_rate(sched, t_s, q_s, x_s, d_s, *composed_velocities(c, d_s)))

    def weighted(i):
        return [p + 2.0 * q + 2.0 * r + s for p, q, r, s in zip(*[ki[i] for ki in k])]

    sixth = h / 6.0
    d_new = tuple([u + sixth * v for u, v in zip(d0, weighted(2))])
    xd, om = composed_velocities(c_end, d_new)
    x_new = tuple([u + sixth * v for u, v in zip(x0, weighted(1))])
    q_new = integrators._advance(q0, [w / 6.0 for w in weighted(0)], h)
    return integrators._link(t, q_new, x_new, xd, om, d_new, None, q_new, c_end, 0, 0.0)


def float_bits(values):
    """The bit patterns of nested tuples and lists of floats, so that a zero's sign counts."""
    return [float_bits(v) if isinstance(v, (tuple, list)) else float.hex(v) for v in values]


KERNEL_INPUTS = dict(
    q=floats(-1.0, 1.0, 4).filter(lambda q: np.linalg.norm(q) > 0.1),
    omega=floats(-3.0, 3.0, 3),
    carried=floats(-10.0, 10.0, 6),
    h=st.floats(1e-3, 0.5),
    t=st.one_of(st.none(), st.floats(0.0, 2.0 * np.pi)),
    full=st.booleans(),
)
# added to a kernel test's set, so that no block entry, a_x or a_w is zero and every operand order shows
FULL = CoefficientSet(
    a_xx=[[0.4, 0.03, -0.02], [0.03, 0.5, 0.01], [-0.02, 0.01, 0.3]],
    A_xw=[[0.1, 0.63, -0.04], [-0.59, 0.2, 0.07], [0.03, -0.08, 0.05]],
    A_ww=[[0.2, 0.01, -0.03], [0.01, 0.3, 0.02], [-0.03, 0.02, 0.4]],
    a_x=(0.3, -0.2, 0.1),
    a_w=(-0.1, 0.4, 0.25),
    a_0=0.7,
)


def kernel_set(t, full):
    """The free body (t None) or the damped morphing set at t, plus FULL if full."""
    c = CSET if t is None else MORPHING.coefficients(t)
    return c + FULL if full else c


@settings(max_examples=300, deadline=None)
@given(**KERNEL_INPUTS)
def test_flat_mid_kernels_return_the_composed_floats(q, omega, carried, h, t, full):
    # the residual and its terms equal the composed form bit for bit; the Jacobian leaves out the
    # products with a skew matrix's zeros, so only the sign of a zero entry may differ there
    c = kernel_set(t, full)
    k = integrators._mid_setup((q / np.linalg.norm(q)).tolist(), c, h, carried.tolist())
    w = tuple(omega.tolist())
    r, terms = integrators._mid_eval(k, w)
    want_r, want_terms = composed_mid_eval(k, w)
    assert float_bits([r, terms]) == float_bits([want_r, want_terms])
    assert integrators._mid_jacobian(k, w, terms) == composed_mid_jacobian(k, w, terms)


@settings(max_examples=300, deadline=None)
@given(**KERNEL_INPUTS)
def test_flat_left_kernels_return_the_composed_floats(q, omega, carried, h, t, full):
    # the setup, the residual and its terms equal the composed form bit for bit; K0 (the Jacobian's
    # constant part) and the Jacobian leave out the products with a skew matrix's zeros, so only the
    # sign of a zero entry may differ there (float == ignores it)
    c = kernel_set(t, full)
    args = ((q / np.linalg.norm(q)).tolist(), c, h, carried.tolist())
    k, want_k = integrators._left_setup(*args), composed_left_setup(*args)
    assert float_bits(k[:6] + k[7:]) == float_bits(want_k[:6] + want_k[7:])
    assert list(k[6]) == list(want_k[6])
    w = tuple(omega.tolist())
    r, terms = integrators._left_eval(k, w)
    assert float_bits([r, terms]) == float_bits(composed_left_eval(k, w))
    assert integrators._left_jacobian(k, w, terms) == composed_left_jacobian(k, w, terms)


@settings(max_examples=300, deadline=None)
@given(
    q=KERNEL_INPUTS["q"],
    x=floats(-5.0, 5.0, 3),
    d=floats(-10.0, 10.0, 6),
    t=KERNEL_INPUTS["t"],
    full=KERNEL_INPUTS["full"],
    forced=st.booleans(),
)
def test_flat_rk_kernels_return_the_composed_floats(q, x, d, t, full, forced):
    # velocity recovery and the stage rates at the recovered velocities, with and without a force, bit for bit
    c = kernel_set(t, full)
    d = d.tolist()
    v = composed_velocities(c, d)
    assert float_bits(integrators._velocities(c, d)) == float_bits(v)
    args = (MORPHING if forced else SCHED, t or 0.0, (q / np.linalg.norm(q)).tolist(), x.tolist(), d, *v)
    assert float_bits(integrators._rk_rate(*args)) == float_bits(composed_rk_rate(*args))


def assert_same_record_bits(rec, want):
    """Every float column of two records bit for bit (a zero's sign counts), P_x and P_w when present,
    and newton_iters, truncated and stop_reason."""
    assert (rec.P_x is None) == (want.P_x is None)
    names = ["t", "q", "x_e", "xdot_b", "omega_b", "energy", "p_x", "p_w", "newton_iters"]
    for name in names + (["P_x", "P_w"] if want.P_x is not None else []):
        got, ref = getattr(rec, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert np.array_equal(got, ref) and got.tobytes() == ref.tobytes(), name
    assert (rec.truncated, rec.stop_reason) == (want.truncated, want.stop_reason)


RUN_CASES = ["free_body_rigid", "free_body", "damped_morphing", "force_free_morphing", "zero_sign_flip"]


def run_case(name):
    """(start, schedule, rigid_params) of a whole-run identity test; zero_sign_flip starts at omega = -0 on a
    schedule whose a_w flips the sign of a zero each step."""
    if name == "zero_sign_flip":
        start = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.full(3, -0.0))
        return start, fresh_sets(a_w_flips_the_sign_of_a_zero), None
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.array([0.3, 0.0, 0.1]), np.array([1.0, 1.0, 1.0]))
    scheds = {"free_body_rigid": (SCHED, RP), "free_body": (SCHED, None), "damped_morphing": (MORPHING, None)}
    scheds["force_free_morphing"] = (preset_morphing(damping=False), None)
    return start, *scheds[name]


COMPOSED = {
    "mid": {"_mid_eval": composed_mid_eval, "_mid_jacobian": composed_mid_jacobian},
    "left": {
        "_left_setup": composed_left_setup,
        "_left_eval": composed_left_eval,
        "_left_jacobian": composed_left_jacobian,
    },
    # the composed step recovers velocities and stage rates with the composed forms too
    "rk": {"step_rk_baseline": composed_step_rk},
}


def assert_composed_kernels_give_the_same_record(method, case, monkeypatch):
    # 300 steps on the flat kernels and on the composed ones: every record column, newton_iters too
    start, sched, rp = run_case(case)
    rec = integrate(start, sched, CFG, method, 3.0, rigid_params=rp)
    for name, fn in COMPOSED[method].items():
        monkeypatch.setattr(integrators, name, fn)
    want = integrate(start, sched, CFG, method, 3.0, rigid_params=rp)
    assert len(rec) == len(want) == 301 and not rec.truncated and not want.truncated
    assert_same_record_bits(rec, want)


@pytest.mark.parametrize("case", RUN_CASES)
def test_mid_runs_with_the_composed_kernels_give_the_same_record(case, monkeypatch):
    assert_composed_kernels_give_the_same_record("mid", case, monkeypatch)


@pytest.mark.parametrize("case", RUN_CASES)
@pytest.mark.parametrize("method", ["left", "rk"])
def test_left_and_rk_runs_with_the_composed_kernels_give_the_same_record(method, case, monkeypatch):
    assert_composed_kernels_give_the_same_record(method, case, monkeypatch)


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
    res = step_mid(seed_step(SPIN, CSET, "mid", CFG.h), SPIN.t + CFG.h, SCHED, CFG)

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


def step_tol(cfg, prev):
    """The absolute Newton tolerance of a left or mid step from link prev: residual_tol times the norm of the
    momentum it starts from, floored at 1."""
    return cfg.residual_tol * max(1.0, math.hypot(*prev.history))


@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_seed_step_is_the_initial_state_with_its_schemes_history(method):
    # left's chain starts from the canonical momenta at step -h, the midpoint chain from the
    # continuous momenta on earth axes (its outgoing momentum at h = 0), rk's from the continuous
    # momenta on body axes, the (D1, D2) its RK4 integrates
    s = BodyState(0.3, random_unit_quat(RNG), RNG.standard_normal(3), RNG.standard_normal(3), RNG.standard_normal(3))
    seed = seed_step(s, CSET, method, CFG.h)
    assert seed.t == s.t and seed.coeffs is CSET and seed.carried is None
    assert (seed.iterations, seed.residual_norm) == (0, 0.0)
    for got, want in zip((*seed[1:5], seed.point), (s.q, s.x_e, s.xdot_b, s.omega_b, s.q)):
        assert isinstance(got, tuple) and np.array_equal(got, want)
    if method == "left":
        assert np.array_equal(seed.history, left_outgoing(s, CSET, CFG.h))
    elif method == "mid":
        want = mid_outgoing(s.q, s.xdot_b, s.omega_b, CSET, 0.0)
        assert_allclose(seed.history, want, rtol=0.0, atol=1e-15 * np.linalg.norm(want))
    else:
        assert seed.history == (*energy_grad_xdot(s, CSET).tolist(), *energy_grad_omega(s, CSET).tolist())


@pytest.mark.parametrize("method", ["LEFT", "rk4", ""])
def test_an_unknown_method_is_rejected_by_seed_step_before_any_step(method, monkeypatch):
    # seed_step owns the method rule: it once seeded any name but left and mid as rk
    with pytest.raises(ValueError, match=re.escape(f"method must be one of ('left', 'mid', 'rk'), got {method!r}")):
        seed_step(SPIN, CSET, method, CFG.h)
    calls, coefficients = stepper_calls(monkeypatch), []
    sched = dataclasses.replace(SCHED, coefficients=lambda t: coefficients.append(t) or CSET)
    with pytest.raises(ValueError, match=re.escape(f"got {method!r}")):
        integrate(SPIN, sched, CFG, method, 1.0)
    assert calls == [] and coefficients == [SPIN.t]


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
            assert seed.q == seed.point == tuple(q.tolist())


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
    prev = seed_step(start, c0, method, h)
    for _ in range(20):
        try:
            res = (step_left if method == "left" else step_mid)(prev, prev.t + h, sched, cfg)
        except SingularJacobianError as exc:
            assert str(exc) == "Newton did not converge"
            break  # left steps past its stability limit stall, and a stalled step returns no link
        if method == "left":
            defect = left_balance(res.q, res.xdot_b, res.omega_b, res.coeffs, h, res.carried)
        else:
            defect = mid_balance(prev.q, res.xdot_b, res.omega_b, res.coeffs, h, res.carried)
        assert np.linalg.norm(defect) <= step_tol(cfg, prev)
        assert np.array_equal(res.history[:3], res.carried[:3])
        prev = res


@pytest.mark.parametrize("sched", [SCHED, preset_morphing(damping=True)], ids=["free_body", "morphing"])
def test_steppers_solve_the_public_residuals(sched):
    # the norm Newton reports is the norm of residual_* at the accepted
    # rate with the carried term the step balanced, bit for bit
    c0 = sched.coefficients(0.0)
    for method, step, residual in (("left", step_left, residual_left), ("mid", step_mid, residual_mid)):
        prev = seed_step(SPIN, c0, method, CFG.h)
        for _ in range(5):
            res = step(prev, prev.t + CFG.h, sched, CFG)
            if sched.force_free:
                assert np.array_equal(res.carried, prev.history)
            q_k = res.q if method == "left" else prev.q
            r = residual(q_k, res.omega_b, res.coeffs, CFG.h, res.carried)
            assert res.iterations > 0
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
    seed, seed_mid = seed_step(SPIN, c0, "left", CFG.h), seed_step(SPIN, c0, "mid", CFG.h)
    res, res_mid = step_left(seed, CFG.h, sched, CFG), step_mid(seed_mid, CFG.h, sched, CFG)
    (sol, jac, n_left, hand_off), (sol_mid, jac_mid, n_mid, hand_off_mid) = solves
    # both steppers start Newton from the previous rate and solve to residual_tol times the norm of the
    # momentum they start from, floored at 1; forced or not, the tolerance reads the history, not the impulse
    for hand, link in ((hand_off, seed), (hand_off_mid, seed_mid)):
        assert hand == [link.omega_b, CFG.residual_tol * max(1.0, math.hypot(*link.history)), CFG.max_iter]
    assert evals == {"_left_eval": n_left, "_mid_eval": n_mid}
    assert n_left > sol.iterations > 0 and n_mid > sol_mid.iterations > 0
    want = jacobian_left(res.q, res.omega_b, res.coeffs, CFG.h, res.carried)
    assert np.array_equal(np.reshape(jac(sol.x, sol.terms), (3, 3)), want)
    xd, om = res_mid.xdot_b, res_mid.omega_b
    want = jacobian_mid(SPIN.q, om, res_mid.coeffs, CFG.h, res_mid.carried)
    assert np.array_equal(np.reshape(jac_mid(sol_mid.x, sol_mid.terms), (3, 3)), want)
    # the history the step hands on is the outgoing momentum of the balance it solved
    want = mid_outgoing(SPIN.q, xd, om, res_mid.coeffs, CFG.h)
    assert_allclose(res_mid.history, want, rtol=0.0, atol=1e-13 * math.hypot(*seed_mid.history))


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
    # every step and every solve: integrate looks its stepper up when the run starts, and the steppers
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
        res = step_left(prev, prev.t + h, sched, CFG)
        [(t, q, x, xd, om)] = calls
        assert t == prev.t + h and (q, x, xd, om) == (res.q, res.x_e, prev.xdot_b, prev.omega_b)
        assert_allclose(q, cg_step(np.array(prev.q), np.array(prev.omega_b), h), rtol=0.0, atol=1e-15)
        assert_allclose(x, prev.x_e + h * np.array(_rotate_f(prev.q, prev.xdot_b)), rtol=0.0, atol=1e-15)
        prev = res


def test_mid_probes_the_force_at_the_link_it_starts_from():
    # (t_k, q_k, x_k, xdot_{k-1/2}, omega_{k-1/2}): the node the balance is written at, with the previous
    # midpoint velocities (the initial state's for the first step), as left probes its node
    sched, calls = recording(MORPHING)
    h = CFG.h
    start = BodyState(0.0, identity_quat(), np.zeros(3), (0.3, -0.1, 0.0), (0.3, -2.0, 0.5))
    prev = seed_step(start, MORPHING.coefficients(0.0), "mid", h)
    for _ in range(20):
        calls.clear()
        res = step_mid(prev, prev.t + h, sched, CFG)
        [call] = calls
        assert float_bits(call) == float_bits(prev[:5])
        prev = res


def test_rk_probes_the_force_once_at_each_of_its_four_stages():
    # stage i + 1 advances from the step's start at stage i's rates: q0 exp((a h / 2) omega_i), x0 + a h R(q_i) xdot_i
    sched, calls = recording(MORPHING)
    h = CFG.h
    start = BodyState(0.0, identity_quat(), np.zeros(3), (0.3, -0.1, 0.0), (0.3, -2.0, 0.5))
    prev = seed_step(start, MORPHING.coefficients(0.0), "rk", h)
    for _ in range(20):
        calls.clear()
        res = step_rk_baseline(prev, prev.t + h, sched, CFG)
        assert [c[0] for c in calls] == [prev.t, prev.t + 0.5 * h, prev.t + 0.5 * h, prev.t + h]
        q0, x0 = np.array(prev.q), np.array(prev.x_e)
        assert calls[0][1:3] == (prev.q, prev.x_e)
        assert_allclose(np.concatenate(calls[0][3:]), np.concatenate(prev[3:5]), rtol=0.0, atol=1e-13)
        for a, (_, q_i, _, xd_i, om_i), (_, q, x, _, _) in zip((0.5, 0.5, 1.0), calls, calls[1:]):
            assert_allclose(q, cg_step(q0, np.array(om_i), a * h), rtol=0.0, atol=1e-15)
            assert_allclose(x, x0 + a * h * np.array(_rotate_f(q_i, xd_i)), rtol=0.0, atol=1e-15)
        prev = res


@pytest.mark.parametrize("case", ["free_body", "damped_morphing", "force_free_morphing"])
def test_rk_links_carry_the_momenta_their_velocities_are_recovered_from(case):
    # each rk link hands on as its history the momenta (D1, D2) its step integrated, and its velocities
    # are the ones recovered from them under its own coefficient set, bit for bit
    start, sched, _ = run_case(case)
    link = seed_step(start, sched.coefficients(0.0), "rk", CFG.h)
    for _ in range(50):
        link = step_rk_baseline(link, link.t + CFG.h, sched, CFG)
        assert isinstance(link.history, tuple) and len(link.history) == 6
        assert float_bits(integrators._velocities(link.coeffs, link.history)) == float_bits(link[3:5])


@pytest.mark.parametrize("case", ["free_body", "damped_morphing"])
def test_an_rk_step_recovers_velocities_four_times_and_rebuilds_no_momenta(case, monkeypatch):
    # stage 1 takes the previous link's velocities, stages 2-4 and the new link recover theirs once each
    calls = []

    def counting(name):
        fn = getattr(integrators, name)

        def call(*args):
            calls.append(name)
            return fn(*args)

        return call

    start, sched, _ = run_case(case)
    link = seed_step(start, sched.coefficients(0.0), "rk", CFG.h)
    for name in ("_velocities", "_energy_momenta"):
        monkeypatch.setattr(integrators, name, counting(name))
    for _ in range(10):
        calls.clear()
        link = step_rk_baseline(link, link.t + CFG.h, sched, CFG)
        assert calls == ["_velocities"] * 4


@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_no_stepper_reads_the_previous_links_coefficients(method):
    # a link's coefficient set feeds the record only: a chain whose links lose theirs steps the same
    start, sched, _ = run_case("damped_morphing")
    c0 = sched.coefficients(0.0)
    link = seed_step(start, c0, method, CFG.h)
    step = {"left": step_left, "mid": step_mid, "rk": step_rk_baseline}[method]
    for _ in range(10):
        t = link.t + CFG.h
        res, other = step(link, t, sched, CFG), step(link._replace(coeffs=None), t, sched, CFG)
        assert float_bits([*other[:6], other.point]) == float_bits([*res[:6], res.point])
        assert other.carried == res.carried
        link = res


@pytest.mark.parametrize("bad", [math.nan, math.inf, "2-vector", None, "x"])
@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_a_force_turning_non_finite_stops_the_run_with_a_named_reason(method, bad):
    # a force that turns non-finite, returns a 2-vector or holds a non-number after t = 0.05 stops the
    # run at the first step that probes it, with the force's own reason, and keeps the finite rows before:
    # left's step to 0.06 and rk's second stage at 0.055, but mid's step from 0.06, which probes its start
    def force(t, q, x_e, xdot_b, omega_b):
        f = np.zeros(2) if bad == "2-vector" else np.array([bad, 0.0, 0.0])
        return (f if t > 0.05 else np.zeros(3)), -0.05 * np.array(omega_b)

    rec = integrate(SPIN, dataclasses.replace(MORPHING, force=force), CFG, method, 0.2)
    want = "force did not return two finite 3-vectors (F earth axes, torque body axes)"
    assert rec.truncated and rec.stop_reason == want
    n = 7 if method == "mid" else 6
    assert len(rec) == n and rec.t[-1] == pytest.approx(0.01 * (n - 1))
    for col in (rec.q, rec.x_e, rec.xdot_b, rec.omega_b, rec.energy, rec.p_x, rec.p_w):
        assert np.all(np.isfinite(col))


@pytest.mark.parametrize("exc", [ZeroDivisionError, RuntimeError, ValueError, SingularJacobianError])
@pytest.mark.parametrize("callback", ["force", "coefficients"])
@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_a_raising_schedule_callback_ends_the_run_and_keeps_its_record(method, callback, exc):
    # past t = 0.503 the callback raises: the run stops at the first step that calls it there, keeps the
    # 50 steps before (51 for mid's force, which it probes at the step's start, so first at 0.51) and names
    # the callback and the exception class; a ValueError, SingularJacobianError among them, keeps its own message
    def failing(f):
        def call(t, *args):
            if t > 0.503:
                raise exc("boom")
            return f(t, *args)

        return call

    sched = dataclasses.replace(MORPHING, **{callback: failing(getattr(MORPHING, callback))})
    start = BodyState(0.0, identity_quat(), np.zeros(3), (0.3, 0.0, 0.1), (1.0, 1.0, 1.0))
    rec = integrate(start, sched, CFG, method, 1.0)
    want = "boom" if issubclass(exc, ValueError) else f"{callback} raised {exc.__name__}: boom"
    assert rec.truncated and rec.stop_reason == want
    n = 52 if (method, callback) == ("mid", "force") else 51
    assert len(rec) == n and rec.t[-1] == pytest.approx(0.01 * (n - 1))
    for col in (rec.q, rec.x_e, rec.xdot_b, rec.omega_b, rec.energy, rec.p_x, rec.p_w):
        assert np.all(np.isfinite(col))


@pytest.mark.parametrize("bad", [None, "x", 3.0, (1.0, 2.0)], ids=["None", "str", "float", "tuple"])
@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_a_coefficients_callback_returning_no_set_ends_the_run_and_keeps_its_record(method, bad):
    # past t = 0.503 the callback returns something other than a CoefficientSet: the run stops at the first
    # step that calls it there, keeps the 50 steps before and names the callback and what it returned
    sched = dataclasses.replace(MORPHING, coefficients=lambda t: bad if t > 0.503 else MORPHING.coefficients(t))
    start = BodyState(0.0, identity_quat(), np.zeros(3), (0.3, 0.0, 0.1), (1.0, 1.0, 1.0))
    rec = integrate(start, sched, CFG, method, 1.0)
    want = f"coefficients returned {type(bad).__name__}, not a CoefficientSet"
    assert rec.truncated and rec.stop_reason == want
    assert len(rec) == 51 and rec.t[-1] == pytest.approx(0.5)
    for col in (rec.q, rec.x_e, rec.xdot_b, rec.omega_b, rec.energy, rec.p_x, rec.p_w):
        assert np.all(np.isfinite(col))
    # at t0 there is no row to keep, so integrate raises that ValueError
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        integrate(start, dataclasses.replace(MORPHING, coefficients=lambda t: bad), CFG, method, 0.1)


class _Halt(BaseException):
    """Not an Exception: a schedule callback that raises it is not a step failure."""


@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_a_callback_failing_at_the_start_raises_and_a_base_exception_passes_through(method):
    # at t0 there is no row to keep, so integrate raises the ValueError that names the callback
    with pytest.raises(ValueError, match=r"^coefficients raised ZeroDivisionError: division by zero$"):
        integrate(SPIN, dataclasses.replace(MORPHING, coefficients=lambda t: 1 / 0), CFG, method, 0.1)

    def halt(t, *args):
        raise _Halt

    for callback in ("force", "coefficients"):
        with pytest.raises(_Halt):
            integrate(SPIN, dataclasses.replace(MORPHING, **{callback: halt}), CFG, method, 0.1)


@pytest.mark.parametrize("rigid", [False, True])
@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_a_state_turning_non_finite_stops_the_run_with_its_field_named(method, rigid):
    # one step of h = 1e155 at 1e153 carries x_e from 1e308 past the float range; the step's
    # state check stops the run there with BodyState's own message, keeping only row 0
    start = BodyState(0.0, identity_quat(), (1e308, 0.0, 0.0), (1e153, 0.0, 0.0), np.zeros(3))
    rec = integrate(start, SCHED, SolverConfig(h=1e155), method, 1e155, rigid_params=RP if rigid else None)
    assert rec.truncated and rec.stop_reason == "BodyState.x_e has non-finite components"
    assert len(rec) == 1 and rec.t.tolist() == [0.0]


def link_of(q, x_e, xdot_b, omega_b):
    """integrators._link on a state, with an empty history and the free body's set."""
    return integrators._link(0.0, q, x_e, xdot_b, omega_b, (), None, (q, xdot_b, omega_b), CSET, 0, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    size=st.lists(st.floats(1e307, 1.7976931348623157e308), min_size=9, max_size=9),
    sign=st.lists(st.sampled_from([-1.0, 1.0]), min_size=9, max_size=9),
    field=st.integers(0, 3),
    at=st.integers(0, 3),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
@example(size=[1.7e308] * 9, sign=[1.0, 1.0, -1.0] * 3, field=1, at=2, bad=math.nan)
def test_a_link_takes_every_finite_state_and_names_a_non_finite_field(size, sign, field, at, bad):
    # entries near the float limit of both signs: their sum often overflows (always in the example), and a
    # finite state is accepted all the same; one NaN or infinity in a field raises BodyState's error naming it
    v = [s * m for s, m in zip(sign, size)]
    fields = [(0.5, 0.5, 0.5, 0.5), tuple(v[:3]), tuple(v[3:6]), tuple(v[6:])]
    assert link_of(*fields)[1:5] == tuple(fields)
    fields[field] = tuple(bad if i == min(at, len(fields[field]) - 1) else u for i, u in enumerate(fields[field]))
    name = ("q", "x_e", "xdot_b", "omega_b")[field]
    with pytest.raises(ValueError, match=rf"^BodyState\.{name} has non-finite components$"):
        link_of(*fields)


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
    res_left = step_left(seed_step(rest, CSET, "left", CFG.h), CFG.h, SCHED, CFG)
    res = as_state(res_left)
    assert res_left.iterations == 0
    assert np.all(res.xdot_b == 0.0) and np.all(res.omega_b == 0.0)
    assert np.all(res.x_e == rest.x_e)
    assert np.all(res.q == rest.q)
    res_mid = step_mid(seed_step(rest, CSET, "mid", CFG.h), CFG.h, SCHED, CFG)
    res = as_state(res_mid)
    assert np.all(res.xdot_b == 0.0) and np.all(res.omega_b == 0.0)
    assert np.all(res.x_e == rest.x_e)
    assert np.all(res.q == rest.q)
    rk = as_state(step_rk_baseline(seed_step(rest, CSET, "rk", CFG.h), CFG.h, SCHED, CFG))
    assert np.all(rk.xdot_b == 0.0) and np.all(rk.omega_b == 0.0)
    assert np.all(rk.x_e == rest.x_e)


def test_left_interstep_balance_holds_at_reported_tolerance():
    # re-evaluating the converged balance between consecutive accepted
    # states, with the outgoing momentum recomputed from the earlier state
    # rather than read back from the history, reproduces the solver's defect
    states = [seed_step(SPIN, CSET, "left", CFG.h)]
    for _ in range(50):
        res = step_left(states[-1], states[-1].t + CFG.h, SCHED, CFG)
        assert res.residual_norm <= step_tol(CFG, states[-1])
        states.append(res)
    for prev, cur in zip(states[:-1], states[1:]):
        r = residual_left(cur.q, cur.omega_b, CSET, CFG.h, left_outgoing(as_state(prev), CSET, CFG.h))
        assert np.linalg.norm(r) <= step_tol(CFG, prev)


def test_mid_interstep_balance_holds_at_reported_tolerance():
    state = seed_step(SPIN, CSET, "mid", CFG.h)
    chain = []
    for _ in range(50):
        res = step_mid(state, state.t + CFG.h, SCHED, CFG)
        assert res.residual_norm <= step_tol(CFG, state)
        chain.append((state.q, res, step_tol(CFG, state)))
        state = res
    # the outgoing terms of midpoint k-1 are recomputed from its own step
    # point, not read back from the history
    for (q_prev, prev_m, _), (q_k, cur_m, tol) in zip(chain[:-1], chain[1:]):
        carried = mid_outgoing(q_prev, prev_m.xdot_b, prev_m.omega_b, CSET, CFG.h)
        r = residual_mid(q_k, cur_m.omega_b, CSET, CFG.h, carried)
        assert np.linalg.norm(r) <= tol


@pytest.mark.parametrize("sched", [SCHED, preset_morphing(damping=False)], ids=["free_body", "force_free_morphing"])
@pytest.mark.parametrize("method", ["left", "mid"])
def test_the_polish_iteration_leaves_each_step_at_the_roundoff_floor(method, sched):
    # one polish iteration past the tolerance drives every balance defect to a few ulps of the momentum the
    # step starts from (1.4 eps at most here); without it free-body left reaches 4500 eps and mid 10 eps
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.array([0.3, 0.0, 0.1]), np.array([1.0, 1.0, 1.0]))
    step = step_left if method == "left" else step_mid
    link = seed_step(start, sched.coefficients(0.0), method, CFG.h)
    for _ in range(2000):
        res = step(link, link.t + CFG.h, sched, CFG)
        assert res.residual_norm <= 4.0 * np.finfo(float).eps * max(1.0, math.hypot(*link.history))
        link = res


def test_mid_trajectory_converges_at_second_order():
    # final-omega self-convergence on the free body over h = 0.02/0.01/0.005;
    # a midpoint chain seeded off the initial momenta falls to first order
    # here, while conservation errors measured against the momentum it
    # conserves itself stay second order
    finals = [integrate(SPIN, SCHED, SolverConfig(h=h), "mid", 1.0).omega_b[-1] for h in (0.02, 0.01, 0.005)]
    ratio = np.linalg.norm(finals[0] - finals[1]) / np.linalg.norm(finals[1] - finals[2])
    assert np.log2(ratio) >= 2.0 - 0.05


def test_a_one_step_mid_record_ends_on_a_second_order_velocity():
    # a 2-row record holds v_0 and the midpoint m_1; its final row extrapolates to v(h) = 2 m_1 - v_0, not m_1,
    # which is first order. The reference is rk at h = 1e-4 over the same step.
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.array([0.3, 0.0, 0.1]), np.array([1.0, 1.0, 1.0]))
    errors = []
    for h in (0.02, 0.01, 0.005):
        rec, ref = (integrate(start, SCHED, SolverConfig(h=k), m, h) for k, m in ((h, "mid"), (1e-4, "rk")))
        assert len(rec) == 2 and len(ref) == round(h / 1e-4) + 1
        errors.append([np.linalg.norm(getattr(rec, f)[-1] - getattr(ref, f)[-1]) for f in ("omega_b", "xdot_b")])
    assert (np.log2(np.divide(errors[:-1], errors[1:])) >= 2.0 - 0.1).all(), errors


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


def test_advance_renormalizes_its_result():
    # a q off unit norm by 1e-9 (BodyState admits up to 1e-6) comes back unit to 2 ulp, not 1 + 1e-9
    q = (random_unit_quat(RNG) * (1.0 + 1e-9)).tolist()
    p = integrators._advance(q, (0.3, -0.2, 0.5), 0.01)
    assert abs(math.sqrt(sum(v * v for v in p)) - 1.0) <= 2.0 * math.ulp(1.0)


def test_advance_matches_the_sign_of_its_start():
    # h |omega| / 2 = 2 > pi / 2 turns exp's scalar part negative (cos 2 = -0.416); the update keeps the
    # hemisphere of q, so q and -q, the same rotation, do not alternate from step to step
    q = (1.0, 0.0, 0.0, 0.0)
    p = integrators._advance(q, (0.0, 0.0, 4.0), 1.0)
    assert sum(u * v for u, v in zip(p, q)) >= 0.0
    assert_allclose(p, [-math.cos(2.0), 0.0, 0.0, -math.sin(2.0)], rtol=0.0, atol=1e-15)


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
    state = seed_step(start, CSET, "mid", CFG.h)
    first_mid = None
    for _ in range(100):
        state = step_mid(state, state.t + CFG.h, SCHED, CFG)
        if first_mid is None:
            first_mid = as_state(state)
    state = state._replace(**{f: tuple(-v for v in getattr(state, f)) for f in ("xdot_b", "omega_b", "history")})
    for _ in range(100):
        state = step_mid(state, state.t + CFG.h, SCHED, CFG)
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
#: the decoupled asymmetric top: the fixture's a_xx and A_ww, no coupling
TOP = CoefficientSet(a_xx=CSET.a_xx, A_xw=0.0, A_ww=CSET.A_ww)
Q_TILT = exp_map(np.array([0.3, -0.2, 0.5]))


def test_torque_free_top_matches_reference():
    # decoupled asymmetric top, omega(0) = (1,1,1); reference from a fine-step
    # explicit run (h=1e-6, cross-checked against h=1e-4 to 4.4e-9)
    sched = constant_schedule(TOP, name="top")
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.array([1.0, 1.0, 1.0]))
    for method in ("left", "mid"):
        rec = integrate(start, sched, SolverConfig(h=1e-3), method, 1.0)
        err = np.linalg.norm(rec.omega_b[-1] - TOP_OMEGA_AT_1)
        assert err <= 1e-4, f"{method}: {err:.3e}"


def forced_top_error(kind, method, h):
    """Largest final (q, x_e, xdot_b, omega_b) error at t = 1 of the decoupled top, from rest at Q_TILT, against
    the closed form under a constant earth force F (kind "force": x_e = F t^2 / (2 m), q fixed) or body torque
    tau ("torque": omega_y = tau t / I_y, a rotation by tau t^2 / (2 I_y) about body y; omega stays on y,
    since A_ww couples x and z only)."""
    f, tau = ((0.0, 0.0, -9.8), (0.0, 0.0, 0.0)) if kind == "force" else ((0.0, 0.0, 0.0), (0.0, 0.5, 0.0))
    sched = MorphingSchedule("forced_top", lambda t: TOP, lambda t, *state: (f, tau), force_free=False)
    start = BodyState(0.0, Q_TILT, np.zeros(3), np.zeros(3), np.zeros(3))
    rec = integrate(start, sched, SolverConfig(h=h), method, 1.0)
    assert len(rec) == round(1.0 / h) + 1 and not rec.truncated
    m, i_y = 2.0 * TOP.a_xx[0, 0], 2.0 * TOP.A_ww[1, 1]
    q = quat_mul(Q_TILT, exp_map(np.array([0.0, tau[1] / (4.0 * i_y), 0.0])))  # exp_map takes the half angle
    v = _rotate_f((Q_TILT[0], *-Q_TILT[1:]), [u / m for u in f])  # F t / m on body axes
    want = {"q": q, "x_e": np.divide(f, 2.0 * m), "xdot_b": v, "omega_b": np.divide(tau, i_y)}
    return max(np.linalg.norm(getattr(rec, name)[-1] - w) for name, w in want.items())


@pytest.mark.parametrize("kind", ["force", "torque"])
def test_rk_matches_the_closed_form_forced_top(kind):
    # F enters rk's body-axes rate rotated to body axes, and the torque as it is
    assert forced_top_error(kind, "rk", 0.01) <= 1e-12


@pytest.mark.parametrize("kind", ["force", "torque"])
def test_left_converges_at_first_order_to_the_closed_form_forced_top(kind):
    # left adds h F to its earth-axes p_x and h tau to its body-axes p_w
    errors = [forced_top_error(kind, "left", h) for h in (0.01, 0.005)]
    assert errors[0] <= {"force": 1e-2, "torque": 5e-4}[kind]
    assert abs(np.log2(errors[0] / errors[1]) - 1.0) <= 0.05, errors


def spring(t, q, x_e, xdot_b, omega_b):
    """An earth-axes spring F = -2 x_e, with no torque."""
    return [-2.0 * v for v in x_e], (0.0, 0.0, 0.0)


@pytest.mark.parametrize("case", ["free_body", "force_free_morphing"])
def test_mid_converges_at_second_order_under_a_force_that_vanishes_at_the_start(case):
    # from x0 = 0 the spring is zero at node 0, so mid's full impulse there costs nothing, and with the force
    # probed at each step's start node the final (q, x_e, omega) error against rk at h = 0.00125 falls 4-fold
    # per halving of h (3.99 and 4.00 on the free body); a probe half a step late makes it fall 2-fold
    start, base, _ = run_case(case)
    sched = dataclasses.replace(base, force=spring, force_free=False)
    ref = integrate(start, sched, SolverConfig(h=0.00125), "rk", 4.0)
    errors = []
    for h in (0.02, 0.01, 0.005):
        rec = integrate(start, sched, SolverConfig(h=h), "mid", 4.0)
        assert len(rec) == round(4.0 / h) + 1 and not rec.truncated
        diffs = [getattr(rec, f)[-1] - getattr(ref, f)[-1] for f in ("q", "x_e", "omega_b")]
        errors.append(np.linalg.norm(np.concatenate(diffs)))
    assert (np.log2(np.divide(errors[:-1], errors[1:])) >= 2.0 - 0.05).all(), errors


@pytest.mark.xfail(strict=True, reason="forced mid adds tau unrotated, and a full h F at node 0")
def test_mid_matches_the_closed_form_forced_top():
    assert max(forced_top_error(kind, "mid", 0.01) for kind in ("force", "torque")) <= 1e-6


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


def test_mid_energy_error_stays_bounded_over_20000_steps():
    # free body at h = 0.02 to t = 400: the largest instantaneous e_T over the run's last tenth may exceed the
    # first tenth's by at most half. That ratio reads 1.249 from this start, 0.811 from xdot0 = (0.3, 0, 0.1) and
    # at most 1.31 over any tenth from omega0 = (0.3, -2, 0.7). A step_mid that scales the momentum it carries by
    # 1 - 1e-8 each step drifts the energy by 4e-4 over the run, three times the 1.3e-4 margin, and fails it
    rec = integrate(SPIN, SCHED, SolverConfig(h=0.02), "mid", 400.0, rigid_params=RP)
    rep = summarize(rec)
    e_T, tenth = rep.instantaneous[2], len(rec) // 10
    assert len(rec) == 20001 and not rec.truncated
    assert e_T[-tenth:].max() <= 1.5 * e_T[:tenth].max()
    assert rep.final_e_x <= 1e-13


@pytest.mark.xfail(strict=True, reason="mid's energy drifts secularly from a minor-axis spin; cause not found")
def test_mid_energy_error_stays_bounded_over_20000_steps_from_a_minor_axis_spin():
    # the test above from omega0 = (2, 0.1, 0.1), xdot0 = (0.3, 0, 0.1): the last tenth's largest e_T reads 7.76
    # times the first tenth's, and the energy keeps falling over a 1e6-step chain. A fix shows as an XPASS
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.array([0.3, 0.0, 0.1]), np.array([2.0, 0.1, 0.1]))
    rec = integrate(start, SCHED, SolverConfig(h=0.02), "mid", 400.0, rigid_params=RP)
    rep = summarize(rec)
    e_T, tenth = rep.instantaneous[2], len(rec) // 10
    assert len(rec) == 20001 and not rec.truncated
    assert rep.final_e_x <= 1e-13
    assert e_T[-tenth:].max() <= 1.5 * e_T[:tenth].max()


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
        state = step_rk_baseline(state, state.t + 0.01, sched, SolverConfig(h=0.01))
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


def test_rk_at_h_0_095_is_less_accurate_than_mid_at_h_0_01():
    # a coarse explicit baseline, not a matched cost: rk at h = 0.0074 costs what mid costs at h = 0.01 (the
    # README's measured match), so rk at h = 0.095 takes about 1/13 of that budget, and there it loses on all three
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


def spin_up(c, tau):
    """A constant schedule under the constant body torque (0, tau, 0), with no force."""
    return MorphingSchedule("spin_up", lambda t: c, lambda t, *state: ((0.0, 0.0, 0.0), (0.0, tau, 0.0)), False)


@pytest.mark.parametrize("method", ["left", "mid"])
def test_newton_tolerance_floor_and_value(method, monkeypatch):
    # each step solves to residual_tol times the norm of the momentum its link hands on, floored at 1: the
    # floor at rest, then a tolerance that grows with the momentum a torque builds up
    tols = []
    solve = integrators.newton_solve

    def recording_solve(residual, jacobian, guess, tol, max_iter):
        tols.append(tol)
        return solve(residual, jacobian, guess, tol, max_iter)

    monkeypatch.setattr(integrators, "newton_solve", recording_solve)
    step = step_left if method == "left" else step_mid
    rest = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.zeros(3))
    for start, sched in ((rest, spin_up(CSET, 1e4)), (SPIN, SCHED)):
        link = seed_step(start, CSET, method, CFG.h)
        for _ in range(20):
            res = step(link, link.t + CFG.h, sched, CFG)
            assert tols[-1] == step_tol(CFG, link)
            link = res
        assert tols[-1] > 10.0 * CFG.residual_tol
    assert len(tols) == 40 and tols[0] == CFG.residual_tol  # one solve per step; the first from rest at the floor


@pytest.mark.parametrize("method", ["left", "mid"])
@pytest.mark.parametrize("mass,tau", [(1e4, 5e3), (1.0, 1e4)], ids=["heavy", "fixture"])
def test_a_spin_up_outgrowing_its_start_runs_to_the_end(mass, tau, method):
    # from rest a body torque spins the fixture (its mass blocks scaled by mass) up to |omega| of 4.7 and
    # 9.4e4; a tolerance fixed at the start's momentum fell below the roundoff floor at |omega| near 1 and
    # 1e4, and the run stopped with "Newton did not converge" after about 100 to 220 of its 1000 steps
    c = CoefficientSet(a_xx=CSET.a_xx * mass, A_xw=CSET.A_xw * mass, A_ww=CSET.A_ww * mass)
    rest = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.zeros(3))
    rec = integrate(rest, spin_up(c, tau), CFG, method, 10.0)
    assert len(rec) == 1001 and not rec.truncated, rec.stop_reason
    assert np.linalg.norm(rec.omega_b[-1]) > 4.0 * (1.0 if mass > 1.0 else 1e4)


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
    # step k's time is t0 + k h, computed from k rather than accumulated; integrate hands it to step k, which
    # probes coefficients and force there (left; rk's last stage), mid's force at row k - 1 and its
    # coefficients half a step past it (as rk's middle stages). From t0 = 0.3 a stepper that recomputed
    # prev.t + h probed one ulp off row k's time on 230 of these 1000 steps
    sched, forces = recording(MORPHING)
    sched, coefficients = counting(sched)
    rec = integrate(dataclasses.replace(SPIN, t=0.3), sched, CFG, method, 0.3 + 1000 * CFG.h)
    assert len(rec) == 1001 and not rec.truncated
    grid = rec.t.tolist()
    assert grid == [0.3 + CFG.h * k for k in range(1001)]
    half, probes = [t + 0.5 * CFG.h for t in grid[:-1]], [call[0] for call in forces]
    if method == "rk":
        assert coefficients == [0.3, *chain.from_iterable(zip(half, grid[1:]))]
        assert probes == list(chain.from_iterable(zip(grid[:-1], half, half, grid[1:])))
    elif method == "left":
        assert coefficients == [0.3, *grid[1:]] and probes == grid[1:]
    else:
        assert coefficients == [0.3, *half] and probes == grid[:-1]


@pytest.mark.parametrize("t_end", [1e300, 1.0, 0.0, -1.0, math.nan])
def test_step_counts_past_2_pow_53_are_rejected(t_end, monkeypatch):
    # (t_end - t0)/h is infinite, finite but past the count where the times t0 + k h stay distinct, or not
    # positive (t_end = t0, t_end < t0, a NaN t_end): each is rejected before any coefficients or stepper call
    calls, coefficients = stepper_calls(monkeypatch), []
    sched = dataclasses.replace(SCHED, coefficients=lambda t: coefficients.append(t) or CSET)
    with pytest.raises(ValueError, match=r"2\*\*53"):
        integrate(SPIN, sched, SolverConfig(h=1e-300), "mid", t_end)
    assert calls == coefficients == []


def test_a_grid_whose_times_collide_is_rejected_before_any_step(monkeypatch):
    # from t0 = 1e15 floats are 0.125 apart, so the times t0 + k h of h = 0.01 collide: such a run once
    # took all 6400 steps before the record rejected its times, and the run was lost
    calls = stepper_calls(monkeypatch)
    with pytest.raises(ValueError, match=r"collide"):
        integrate(dataclasses.replace(SPIN, t=1e15), SCHED, CFG, "mid", 1e15 + 64.0)
    assert calls == []
    rec = integrate(dataclasses.replace(SPIN, t=1e6), SCHED, CFG, "mid", 1e6 + 1.0)
    assert len(rec) == 101 and not rec.truncated and len(calls) == 100


@settings(max_examples=100, deadline=None)
@given(
    t0=st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 17.0)).map(lambda s: s[0] * 10.0 ** s[1]),
    e=st.floats(-3.0, 3.0),
    near_ulp=st.booleans(),
    steps=st.integers(1, 40),
    method=st.sampled_from(["left", "mid", "rk"]),
)
def test_a_run_is_rejected_before_any_step_or_lies_on_an_increasing_grid(t0, e, near_ulp, steps, method):
    # h is 10**e, or 4**e float spacings at t0 (1/64 to 64), where grids start to collide; a start at
    # rest keeps every run finite, so the record's times alone decide its fate
    h = 4.0**e * math.ulp(t0) if near_ulp else 10.0**e
    rest = BodyState(t0, identity_quat(), np.zeros(3), np.zeros(3), np.zeros(3))
    with pytest.MonkeyPatch.context() as mp:
        calls = stepper_calls(mp)
        try:
            rec = integrate(rest, SCHED, SolverConfig(h=h), method, t0 + steps * h)
        except ValueError:
            assert calls == []
            return
    assert not rec.truncated and len(calls) == len(rec) - 1
    assert np.array_equal(rec.t, t0 + h * np.arange(len(rec))) and (np.diff(rec.t) > 0).all()


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


@pytest.mark.parametrize("method", ["left", "mid"])
def test_a_stalled_step_raises_and_returns_no_link(method):
    # a link is an accepted step: a rate solve that does not converge raises like every other step
    # failure, and no link carries a convergence flag for a caller to check
    cfg = SolverConfig(h=0.01, max_iter=1)
    seed = seed_step(SPIN, CSET, method, cfg.h)
    step = step_left if method == "left" else step_mid
    with pytest.raises(SingularJacobianError) as err:
        step(seed, seed.t + cfg.h, SCHED, cfg)
    assert str(err.value) == "Newton did not converge"
    assert "converged" not in integrators.StepResult._fields


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
    # a rate of 1e200 is finite but its energy overflows: the seed and row 0
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
    step = {"left": step_left, "mid": step_mid, "rk": step_rk_baseline}[method]

    def row(link):
        q, xd, om = link.point, link.xdot_b, link.omega_b
        t, p_x, p_w = _canonical_f(q, xd, om, link.coeffs._flat, h)
        if rp is None:
            return (t, *p_x, *p_w)
        i_com, c_b = rp.com_inertia().ravel().tolist(), rp.c.tolist()
        v_com = _rotate_f(q, [u + v for u, v in zip(xd, _cx(om, c_b))])
        return (t, *p_x, *p_w, *[rp.m * v for v in v_com], *_rotate_f(q, _mv(i_com, om)))

    link = seed_step(start, c0, method, h)
    rows = [row(link)]
    for k in range(1, n + 1):
        link = step(link, start.t + h * k, sched, CFG)
        rows.append(row(link))
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


@pytest.mark.parametrize("case", ["full", "truncated", "non_finite_row_zero"])
@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_record_state_columns_are_float64_rows_and_newton_iters_integers(method, case):
    # each state column is its own C-contiguous float64 (n, 4) or (n, 3) array whose row 0 is the initial state
    # (mid's too, whose conserved-quantity row 0 repeats row 1) and newton_iters an integer (n,) one, for a
    # whole run, a run a failing force truncates, and the one row a non-finite row 0 leaves
    def force(t, *state):
        return ((math.nan if t > 0.05 else 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    start = SPIN if case != "non_finite_row_zero" else dataclasses.replace(SPIN, omega_b=np.array([1e200, 1.0, 1.0]))
    sched = dataclasses.replace(SCHED, force=force, force_free=False) if case == "truncated" else SCHED
    rec = integrate(start, sched, CFG, method, 0.2, rigid_params=RP)
    n = len(rec)
    if case == "full":
        assert n == 21 and not rec.truncated
    else:
        assert rec.truncated and (n == 1 if case == "non_finite_row_zero" else 1 < n < 21)
    for name, width in (("q", 4), ("x_e", 3), ("xdot_b", 3), ("omega_b", 3)):
        col = getattr(rec, name)
        assert col.dtype == np.float64 and col.shape == (n, width) and col.flags.c_contiguous, name
        assert np.array_equal(col[0], getattr(start, name)), name
    assert np.issubdtype(rec.newton_iters.dtype, np.integer) and rec.newton_iters.shape == (n,)
    assert rec.newton_iters[0] == 0 and (rec.newton_iters[1:] > 0).all() == (method != "rk" or n == 1)


@pytest.mark.parametrize("rigid", [True, False])
@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_record_conserved_columns_share_a_block_of_their_own(method, rigid):
    # energy, p_x, p_w (and P_x, P_w given rigid_params) are views of one (n, 13) or (n, 7) block, which holds no
    # copy of the 13 state columns the record keeps apart (104 dead bytes per row when it did)
    rec = integrate(SPIN, SCHED, CFG, method, 3.0, rigid_params=RP if rigid else None)
    assert len(rec) == 301 and not rec.truncated
    block = rec.energy.base
    assert block is not None and block.shape == (301, 13 if rigid else 7)
    for name in ("p_x", "p_w", "P_x", "P_w") if rigid else ("p_x", "p_w"):
        assert getattr(rec, name).base is block, name
    assert all(getattr(rec, name).base is not block for name in ("q", "x_e", "xdot_b", "omega_b"))


@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_integrate_holds_only_a_few_coefficient_sets(method):
    # a row keeps its link's state, point and set's _flat, never the set, which caches its elimination
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
    # a zero a_xx is caught on _solve3's diagonal path, a rank-2 one by its general path's zero determinant;
    # the run stops on it like on a failed solve, and a stepper raises the set's LinAlgError, which names the block
    for a_xx in (0.0, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.5]]):
        c = CoefficientSet(a_xx=a_xx, A_xw=0.0, A_ww=1.0)
        sched = constant_schedule(c, name="massless")
        rec = integrate(SPIN, sched, CFG, method, 0.1)
        assert rec.truncated and len(rec) == 1
        assert rec.stop_reason == "translational mass block 2 a_xx: Singular matrix"
        with pytest.raises(np.linalg.LinAlgError, match="^translational mass block 2 a_xx: Singular matrix$"):
            if method == "rk":
                step_rk_baseline(seed_step(SPIN, c, "rk", CFG.h), CFG.h, sched, CFG)
            else:
                step = step_left if method == "left" else step_mid
                step(seed_step(SPIN, c, method, CFG.h), CFG.h, sched, CFG)


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
    with pytest.raises(ValueError, match=re.escape(reason)) as err:
        c.schur_inverse
    assert isinstance(err.value, np.linalg.LinAlgError) == reason.endswith("Singular matrix")


@pytest.mark.parametrize("method", ["left", "mid"])
def test_non_finite_coefficients_do_not_blame_the_mass_block(method):
    # a_w turns infinite after t = 0.05 while the translational mass block stays regular
    bad = CoefficientSet(a_xx=CSET.a_xx, A_xw=CSET.A_xw, A_ww=CSET.A_ww, a_w=(math.inf, 0.0, 0.0))
    sched = dataclasses.replace(SCHED, coefficients=lambda t: CSET if t < 0.05 else bad)
    rec = integrate(SPIN, sched, CFG, method, 0.1)
    assert rec.truncated and len(rec) > 1
    assert rec.stop_reason == "non-finite coefficients"
