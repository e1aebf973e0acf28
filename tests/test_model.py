"""Energy model: frozen fixture values, gradient oracles, preset assembly."""

import dataclasses
import math
import operator
import sys
import threading
import warnings
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

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
    kinetic_energy,
    preset_free_body,
    preset_morphing,
    wing_motion,
)
from qvint.model import (
    WING_MASS,
    _adjugate,
    _as_matrix,
    _cx,
    _energy_momenta,
    _mm,
    _solve3,
    canonical_momenta,
    point_mass_coefficients,
    rigid_coefficients,
    skew,
)
from qvint.quat import _rotate_f, exp_map, quat_mul, rotate_to_earth

RNG = np.random.default_rng(905)

CSET, RP = preset_free_body()

#: the block name a singular translational mass block's error carries
MXX = "translational mass block 2 a_xx"

#: the documented free-body coefficient table
TABLE_A_XW = np.array([[0.0, 0.0400, 0.0], [-0.0400, 0.0, 6.350], [0.0, -6.350, 0.0]])
TABLE_A_WW = np.array([[0.2342, 0.0, -6.4761e-5], [0.0, 3.0539, 0.0], [-6.4761e-5, 0.0, 3.2699]])


def spd_by_schur(c):
    """M = [[2 a_xx, A_xw], [A_xw^T, 2 A_ww]] is SPD iff 2 a_xx and the Schur complement S are (the Schur criterion)."""
    s = np.array(c.elimination_blocks[2]).reshape(3, 3)
    return np.linalg.eigvalsh(2.0 * c.a_xx).min() > 0.0 and np.linalg.eigvalsh(0.5 * (s + s.T)).min() > 0.0


def random_state(rng, t=0.0):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return BodyState(t, q, rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal(3))


def test_skew_matches_cross():
    for _ in range(50):
        v, w = RNG.standard_normal(3), RNG.standard_normal(3)
        assert_allclose(skew(v) @ w, np.cross(v, w), atol=1e-15)


def test_coefficient_set_validation():
    with pytest.raises(ValueError):
        CoefficientSet(a_xx=np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]), A_xw=0.0, A_ww=1.0)
    with pytest.raises(ValueError):
        CoefficientSet(a_xx=1.0, A_xw=0.0, A_ww=np.array([[1.0, 0, 0], [0.5, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError, match="3x3"):
        CoefficientSet(a_xx=np.eye(2), A_xw=0.0, A_ww=1.0)
    c = CoefficientSet(a_xx=2.0, A_xw=0.0, A_ww=3.0)  # scalars promote to Id multiples
    assert_allclose(c.a_xx, 2.0 * np.eye(3), atol=0.0)
    assert spd_by_schur(c)
    for m in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"RigidParams\.m must be positive"):
            RigidParams(m=m, c=np.zeros(3), I_ref=1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"RigidParams\.c has non-finite"):
            RigidParams(m=1.0, c=[0.0, bad, 0.0], I_ref=1.0)
        with pytest.raises(ValueError, match=r"RigidParams\.I_ref has non-finite"):
            RigidParams(m=1.0, c=np.zeros(3), I_ref=np.diag([1.0, bad, 1.0]))


@pytest.mark.parametrize(
    "m, c",
    [(1.0, [1e200, 0.0, 0.0]), (1e200, [0.0, 1e200, 0.0]), (1e300, [0.0, 0.0, 1e5])],
    ids=["c_c", "m_c", "m_c_c"],
)
def test_rigid_params_rejects_a_body_whose_products_overflow(m, c):
    # finite fields whose |c|^2, m c or m |c|^2 overflow; with warnings as errors (pyproject.toml) a numpy
    # overflow in the check would surface as a RuntimeWarning, not as this ValueError
    with pytest.raises(ValueError, match=r"RigidParams\.c makes m c or the inertia about the center of mass"):
        RigidParams(m=m, c=c, I_ref=1.0)


def test_the_symmetry_check_holds_near_the_float_range_without_a_warning():
    # the asymmetry is compared at the scale of the largest entry: a huge symmetric block builds without
    # an overflow, and a huge asymmetric one is rejected instead of passing because both norms are inf
    huge = [[1e200, 1e190, 0.0], [0.0, 1e200, 0.0], [0.0, 0.0, 1e200]]
    wide = [[1.0, 1e308, 0.0], [-1e308, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        CoefficientSet(a_xx=1e200, A_xw=0.0, A_ww=1.0)
        CoefficientSet(a_xx=1.0, A_xw=0.0, A_ww=np.diag([1.7e308, 1.0, 1e-300]))
        RigidParams(m=1.0, c=[0, 0, 0], I_ref=1.7e308)
        for a in (huge, wide):
            with pytest.raises(ValueError, match="^a_xx must be symmetric"):
                CoefficientSet(a_xx=a, A_xw=0.0, A_ww=1.0)
            with pytest.raises(ValueError, match="^A_ww must be symmetric"):
                CoefficientSet(a_xx=1.0, A_xw=0.0, A_ww=a)
        with pytest.raises(ValueError, match=r"^I_ref must be symmetric, asymmetry norm 1\.41421e\+190$"):
            RigidParams(m=1.0, c=np.zeros(3), I_ref=huge)
    # ordinary blocks keep the tolerance 1e-12 (1 + |a|) and the message's asymmetry norm
    CoefficientSet(a_xx=[[1.0, 1e-12, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], A_xw=0.0, A_ww=1.0)
    with pytest.raises(ValueError, match=r"^a_xx must be symmetric, asymmetry norm 1\.41421e-11$"):
        CoefficientSet(a_xx=[[1.0, 1e-11, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], A_xw=0.0, A_ww=1.0)


def test_a_rigid_body_near_the_float_range_runs_without_a_warning():
    # |c|^2 = 2e300 and m c stay finite: the body is kept, and its physical momentum columns are finite
    rp = RigidParams(m=1.0, c=[1e150, 1e150, 0.0], I_ref=1.0)
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.array([1.0, 1.0, 1.0]))
    assert np.isfinite(rigid_coefficients(rp).A_xw).all()
    for method in ("left", "mid", "rk"):
        rec = integrate(start, constant_schedule(CSET), SolverConfig(h=0.01), method, 0.05, rigid_params=rp)
        assert not rec.truncated and np.isfinite(rec.P_x).all() and np.isfinite(rec.P_w).all(), method


def test_coefficient_set_add_and_inverse():
    c1 = CoefficientSet(a_xx=2.0, A_xw=0.0, A_ww=1.0, a_x=(1, 0, 0), a_0=0.5)
    c2 = CoefficientSet(a_xx=1.0, A_xw=0.0, A_ww=2.0, a_w=(0, 1, 0))
    s = c1 + c2
    assert_allclose(s.a_xx, 3.0 * np.eye(3), atol=0.0)
    assert s.a_0 == 0.5
    s_inv = np.array(CSET.schur_inverse).reshape(3, 3)
    assert_allclose(s_inv @ np.array(CSET.elimination_blocks[2]).reshape(3, 3), np.eye(3), atol=1e-12)
    for name in ("elimination_blocks", "schur_inverse"):
        assert getattr(CSET, name) is getattr(CSET, name), name  # cached
    degenerate = CoefficientSet(a_xx=0.0, A_xw=0.0, A_ww=0.0)
    with pytest.raises(ValueError):
        degenerate.schur_inverse


def test_validated_fields_are_read_only():
    # an in-place write would get round the constructors' checks, and leave a set's kernels on the old floats
    c = CoefficientSet(a_xx=2.0, A_xw=0.0, A_ww=1.0, a_x=(1.0, 0.0, 0.0))
    s = BodyState(0.0, identity_quat(), np.zeros(3), np.ones(3), np.ones(3))
    rp = RigidParams(m=1.0, c=np.zeros(3), I_ref=1.0)
    owners = ((c, ("a_xx", "A_xw", "A_ww", "a_x", "a_w")), (s, ("q", "x_e", "xdot_b", "omega_b")), (rp, ("c", "I_ref")))
    for obj, names in owners:
        for name in names:
            with pytest.raises(ValueError, match="read-only"):
                getattr(obj, name)[0] = 50.0
    with pytest.raises(AttributeError):
        c.a_xx = np.eye(3)
    assert c.a_xx[0, 0] == 2.0 and s.q[0] == 1.0 and rp.I_ref[0, 0] == 1.0


def test_a_changed_copy_of_a_field_leaves_the_set_alone():
    c = CoefficientSet(a_xx=2.0, A_xw=0.0, A_ww=1.0)
    a = c.a_xx
    w = a.copy()
    w[0, 0] = 50.0
    assert c.a_xx is not a and c.a_xx[0, 0] == a[0, 0] == 2.0
    assert c.elimination_blocks[0][0] == 0.25  # (2 a_xx)^-1
    assert kinetic_energy(BodyState(0.0, identity_quat(), np.zeros(3), (1.0, 0.0, 0.0), np.zeros(3)), c) == 2.0


def test_distinct_sets_compare_and_hash_by_identity():
    c1 = CoefficientSet(a_xx=2.0, A_xw=0.0, A_ww=1.0)
    c2 = CoefficientSet(a_xx=2.0, A_xw=0.0, A_ww=1.0)
    assert c1 == c1 and c1 != c2
    assert len({c1, c2, c1}) == 2 and hash(c1) == hash(c1)


def exact_elimination_blocks(c):
    """Mxx^-1, X, S and P of elimination_blocks, in exact rational arithmetic on the set's floats."""

    def frac(m, k):
        return np.array([[Fraction(v) * k for v in row] for row in m.tolist()], dtype=object)

    mxx, mxw, mww = frac(c.a_xx, 2), frac(c.A_xw, 1), frac(c.A_ww, 2)
    (a, b, d), (e, f, g), (h, i, j) = mxx
    adj = np.array(
        [[f * j - g * i, d * i - b * j, b * g - d * f],
         [g * h - e * j, a * j - d * h, d * e - a * g],
         [e * i - f * h, b * h - a * i, a * f - b * e]],
        dtype=object,
    )  # fmt: skip
    mi = adj / (a * adj[0, 0] + b * adj[1, 0] + d * adj[2, 0])
    x = -(mi @ mxw)
    return [blk.astype(float) for blk in (mi, x, mww + mxw.T @ x, mxw.T @ mi)]


def random_spd_set(rng, scale):
    """A set whose 6x6 mass matrix is symmetric positive definite with condition number <= 1e3."""
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    m = (q * 10.0 ** rng.uniform(0.0, 3.0, 6)) @ q.T * scale
    m = 0.5 * (m + m.T)
    return CoefficientSet(a_xx=0.5 * m[:3, :3], A_xw=m[:3, 3:], A_ww=0.5 * m[3:, 3:])


def test_elimination_blocks_match_references_at_every_scale():
    # the float adjugate inverse scales Mxx by its largest entry, so 1e+-120 neither
    # overflows nor underflows its determinant, and refines once to LU accuracy
    rng = np.random.default_rng(1103)
    scales = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(400)] + [1e120, 1e-120] * 5
    sets = [random_spd_set(rng, k) for k in scales]
    sets += [CoefficientSet(a_xx=k, A_xw=0.0, A_ww=1.0) for k in (1e120, 1e-120)]
    # a diagonal a_xx takes _solve3's reciprocal path; distinct pivots and a full A_xw make X, S and P nontrivial
    sets += [
        CoefficientSet(a_xx=np.diag(rng.uniform(0.5, 5.0, 3)) * k, A_xw=rng.uniform(-0.5, 0.5, (3, 3)) * k, A_ww=3.0 * k)
        for k in [1.0, 1e120, 1e-120] * 3
    ]
    for c in sets:
        mi = np.linalg.inv(2.0 * c.a_xx)
        got = [np.array(b).reshape(3, 3) for b in c.elimination_blocks[:4]]
        assert np.abs(got[0] - mi).max() <= 1e-13 * np.abs(mi).max()
        # X, S and P against exact arithmetic: a float reference built on np.linalg.inv
        # is itself up to 1e-12 off in S, whose terms cancel
        for name, g, want in zip(("Mxx^-1", "X", "S", "P"), got, exact_elimination_blocks(c)):
            assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max(), name
        assert c.elimination_blocks[4:] == (tuple(c.a_x), tuple(c.a_w))


def test_nan_in_a_zero_translational_block_is_non_finite_not_singular():
    # the scaling divisor is the largest |entry|, which max() finds past a NaN as 0
    c = CoefficientSet(a_xx=[[0.0, np.nan, 0.0], [np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]], A_xw=0.0, A_ww=1.0)
    with pytest.raises(ValueError, match="non-finite coefficients"):
        c.elimination_blocks


def composed_elimination_blocks(c):
    """elimination_blocks composed from _solve3 and _mm: the oracle its flat kernel keeps to the bit."""
    xx, xw, ww, a_x, a_w, _ = c._flat
    mxx, wx = [2.0 * v for v in xx], xw[0::3] + xw[1::3] + xw[2::3]
    mi, x = _solve3(mxx, (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), [-v for v in xw], name=MXX)
    b = (mi, x, tuple([2.0 * u + v for u, v in zip(ww, _mm(wx, x))]), _mm(wx, mi), a_x, a_w)
    if not all(map(math.isfinite, chain(*b))):
        raise ValueError("non-finite coefficients")
    return b


def blocks_outcome(blocks):
    """Each block entry with its sign (== alone equates 0.0 and -0.0), or the exception's class and text."""
    try:
        return [[(v, math.copysign(1.0, v)) for v in blk] for blk in blocks()]
    except ValueError as exc:  # np.linalg.LinAlgError is one
        return type(exc), str(exc)


ZERO = st.sampled_from([0.0, -0.0])
#: an entry's sign, or one time in four a signed zero; the property gives each nonzero entry a dense mantissa
SIGN = st.sampled_from([1.0, -1.0] * 3 + [0.0, -0.0])
PIVOT_SIGN = st.sampled_from([1.0, -1.0] * 7 + [0.0, -0.0])
DIAGONAL = st.tuples(PIVOT_SIGN, ZERO, ZERO, ZERO, PIVOT_SIGN, ZERO, ZERO, ZERO, PIVOT_SIGN)
SYMMETRIC = st.lists(SIGN, min_size=6, max_size=6).map(lambda u: [u[0], u[1], u[2], u[1], u[3], u[4], u[2], u[4], u[5]])
#: one decade for the whole set, from 1e-150 to 1e150, and each block's offset from it: near, so that S's
#: terms meet, or far, so that blocks overflow
DECADES = st.tuples(st.integers(-150, 150), *[st.integers(-3, 3) | st.sampled_from([-150, 150])] * 3)


@settings(max_examples=400, deadline=None)
@given(DIAGONAL | SYMMETRIC, st.lists(SIGN, min_size=9, max_size=9), SYMMETRIC, st.lists(SIGN, min_size=6, max_size=6),
       DECADES, st.integers(0, 2**32 - 1))  # fmt: skip
@example([0.4e308, 0.0, 0.0, -0.0, 0.4e308, 0.0, 0.0, 0.0, 0.4e308], [1.0] * 9, [1.0] * 9, [0.0] * 6, (0, 0, 0, 0), 1)
@example([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], [0.0] * 9, [0.3, 0, 0, 0, 0.3, 0, 0, 0, 0.3], [0.0] * 6,
         (0, 0, 0, 308), 1)  # fmt: skip
@example([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], [0.5] * 9, [1.0] * 9, [0] * 4 + [math.inf, 0], (0, 0, 0, 0), 1)
@example([1.0, 0.0, 0.0, 0.0, math.nan, 0.0, 0.0, 0.0, 1.0], [0.5] * 9, [1.0] * 9, [0.0] * 6, (0, 0, 0, 0), 1)
@example([math.inf, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], [0.5] * 9, [1.0] * 9, [0.0] * 6, (0, 0, 0, 0), 1)
@example([1.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0, -math.inf], [0.5] * 9, [1.0] * 9, [0.0] * 6, (0, 0, 0, 0), 1)
def test_flat_elimination_blocks_keep_the_composed_bits(a_xx, a_xw, a_ww, a, decades, seed):
    # the flat kernel inlines _solve3's diagonal quotients and writes S and P out in _mm's operand order;
    # every other Mxx goes to _solve3, so errors keep their class and message. The examples: finite pivots
    # whose doubled sum overflows, an S whose entries are finite but sum past the float range, a non-finite
    # a_w, and NaN, infinite and zero pivots.
    rng, (k, *offsets) = np.random.default_rng(seed), decades

    def scaled(m, offset):  # the pattern m times a symmetric matrix of mantissas in [1, 2), at its decade
        u = np.triu(rng.uniform(1.0, 2.0, (3, 3)))
        return np.reshape(m, (3, 3)) * (u + np.triu(u, 1).T) * 10.0 ** (k + offset)

    c = CoefficientSet(*[scaled(m, o) for m, o in zip((a_xx, a_xw, a_ww), offsets)], a[:3], a[3:])
    assert blocks_outcome(lambda: c.elimination_blocks) == blocks_outcome(lambda: composed_elimination_blocks(c))


def test_a_set_computes_its_blocks_once_and_never_keeps_a_failure(monkeypatch):
    kernel, calls = CoefficientSet.elimination_blocks.func, []
    monkeypatch.setattr(CoefficientSet.elimination_blocks, "func", lambda c: calls.append(c) or kernel(c))
    c = CoefficientSet(a_xx=2.0, A_xw=0.5, A_ww=1.0)
    first = c.elimination_blocks
    assert c.elimination_blocks is first and c.schur_inverse is c.schur_inverse and calls == [c]
    # a failure is raised afresh on each access, and schur_inverse meets the blocks' error before its own
    singular = CoefficientSet(a_xx=np.diag([2.0, 0.0, 2.0]), A_xw=0.5, A_ww=1.0)
    for bad, error, message in (
        (singular, np.linalg.LinAlgError, f"{MXX}: Singular matrix"),
        (CoefficientSet(a_xx=2.0, A_xw=0.5, A_ww=1.0, a_w=(0.0, math.inf, 0.0)), ValueError, "non-finite coefficients"),
    ):
        calls.clear()
        for name in ("elimination_blocks", "elimination_blocks", "schur_inverse"):
            with pytest.raises(error) as err:
                getattr(bad, name)
            assert type(err.value) is error and str(err.value) == message, name
        assert calls == [bad] * 3 and "elimination_blocks" not in vars(bad) and "schur_inverse" not in vars(bad)
    assert CoefficientSet.elimination_blocks.__doc__.startswith(
        "Python-float blocks that eliminate xdot from the momenta g = M v + a.\n"
    )
    assert CoefficientSet.schur_inverse.__doc__.startswith(
        "Row-major S^-1 for elimination_blocks' Schur complement S, which recovers omega from the momenta.\n"
    )


def test_threads_reading_fresh_sets_get_the_one_stored_tuple():
    # the cache takes no lock, so threads may race to compute a set's blocks; setdefault hands each of them
    # the tuple stored first, the one every later read returns
    sched = preset_morphing(damping=True)
    sets = [sched.coefficients(0.01 * k) for k in range(300)]
    seen = [[] for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=out.extend, args=((c.elimination_blocks for c in sets),)) for out in seen]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in seen:
        assert len(out) == len(sets) and all(map(operator.is_, out, (c.elimination_blocks for c in sets)))


@pytest.mark.parametrize("method, per_step", [("left", 1), ("mid", 1), ("rk", 2)])
def test_each_step_computes_the_blocks_of_each_fresh_set_once(monkeypatch, method, per_step):
    # a damped morphing step builds one set (rk two: c_half, c_end) and eliminates with each once
    kernel, calls = CoefficientSet.elimination_blocks.func, []
    monkeypatch.setattr(CoefficientSet.elimination_blocks, "func", lambda c: calls.append(c) or kernel(c))
    sched = preset_morphing(damping=True)
    start = BodyState(0.0, identity_quat(), np.zeros(3), (0.3, 0.0, 0.1), (1.0, 1.0, 1.0))
    counts = []
    for t_end in (0.1, 0.3):
        calls.clear()
        rec = integrate(start, sched, SolverConfig(h=0.01), method, t_end)
        assert not rec.truncated
        counts.append(len(calls))
        assert len(set(map(id, calls))) == len(calls)  # no set computes its blocks twice
    assert counts[1] - counts[0] == 20 * per_step


PIVOT = st.floats(1e-150, 1e150) | st.floats(-1e150, -1e-150)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(PIVOT, PIVOT, PIVOT),
    st.lists(st.sampled_from([0.0, -0.0]), min_size=6, max_size=6),
    st.lists(st.floats(-1e150, 1e150), min_size=9, max_size=9),
)
def test_a_diagonal_solve_is_the_correctly_rounded_quotient(pivots, zeros, r):
    # one IEEE division per entry is the best any solve can return; zeros of either sign are off the diagonal
    a, e, i = pivots
    m = (a, *zeros[:3], e, *zeros[3:], i)
    (x,) = _solve3(m, r, name="m")
    assert x == tuple(float(Fraction(v) / Fraction(pivots[k // 3])) for k, v in enumerate(r))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=9, max_size=9))
def test_the_cofactor_kernel_is_exact_on_small_integers(m):
    # every product and sum of integers this small is exact in floats, so adj m . m = det m . I to the bit,
    # and det is the exact (Leibniz) determinant
    adj, det = _adjugate([float(v) for v in m])
    a, b = np.array(adj).reshape(3, 3), np.array(m, dtype=float).reshape(3, 3)
    assert np.array_equal(a @ b, det * np.eye(3)) and np.array_equal(b @ a, det * np.eye(3))
    sign = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
    assert det == sum(s * Fraction(m[p[0]]) * m[3 + p[1]] * m[6 + p[2]] for p, s in sign.items())


@pytest.mark.parametrize(
    "pivot, reason",
    [
        (0.0, "translational mass block 2 a_xx: Singular matrix"),
        (-0.0, "translational mass block 2 a_xx: Singular matrix"),
        (math.inf, "non-finite coefficients"),
        (-math.inf, "non-finite coefficients"),
        (math.nan, "non-finite coefficients"),
    ],
    ids=["zero", "negative_zero", "inf", "negative_inf", "nan"],
)
@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_a_bad_diagonal_pivot_stops_the_run_with_its_reason(method, pivot, reason):
    # the rate solve's blocks come from a diagonal a_xx after t = 0.05; an infinite pivot must not
    # give a zero inverse and carry on
    bad = CoefficientSet(a_xx=np.diag([4.0, pivot, 4.0]), A_xw=CSET.A_xw, A_ww=CSET.A_ww)
    sched = dataclasses.replace(constant_schedule(CSET), coefficients=lambda t: CSET if t < 0.05 else bad)
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.array([1.0, 1.0, 1.0]))
    rec = integrate(start, sched, SolverConfig(h=0.01), method, 0.1)
    assert rec.truncated and len(rec) > 1
    assert rec.stop_reason == reason
    with pytest.raises(ValueError, match=reason.split(": ")[-1]) as err:
        bad.elimination_blocks
    assert isinstance(err.value, np.linalg.LinAlgError) == (pivot == 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "negative_inf"])
def test_a_non_finite_input_is_rejected_or_stops_the_run_without_a_warning(bad):
    # a value type either names the bad field, or (a coefficient set) lets a run stop on it with its reason;
    # no numpy RuntimeWarning gets out on the way
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.array([1.0, 1.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make in (
            lambda: SolverConfig(h=bad),
            lambda: SolverConfig(h=0.01, residual_tol=bad),
            lambda: SolverConfig(h=0.01, max_iter=bad),
            lambda: RigidParams(m=bad, c=np.zeros(3), I_ref=1.0),
            lambda: RigidParams(m=1.0, c=[bad, 0.0, 0.0], I_ref=1.0),
            lambda: RigidParams(m=1.0, c=np.zeros(3), I_ref=np.diag([1.0, bad, 1.0])),
            lambda: RigidParams(m=1.0, c=np.zeros(3), I_ref=bad),
            lambda: BodyState(bad, identity_quat(), np.zeros(3), np.zeros(3), np.zeros(3)),
        ):
            with pytest.raises(ValueError):
                make()
        fields = dict(a_xx=CSET.a_xx, A_xw=CSET.A_xw, A_ww=CSET.A_ww, a_x=CSET.a_x, a_w=CSET.a_w, a_0=CSET.a_0)
        blocks = [(n, v) for n in ("a_xx", "A_xw", "A_ww") for v in (np.diag([4.0, bad, 4.0]), bad)]
        for name, value in blocks + [
            ("a_x", [0.0, bad, 0.0]),
            ("a_w", [bad, 0.0, 0.0]),
            ("a_0", bad),
        ]:
            cset = CoefficientSet(**{**fields, name: value})
            later = dataclasses.replace(constant_schedule(CSET), coefficients=lambda t: CSET if t < 0.05 else cset)
            for sched in (constant_schedule(cset), later):
                for method in ("left", "mid", "rk"):
                    try:
                        rec = integrate(start, sched, SolverConfig(h=0.01), method, 0.1)
                    except ValueError:
                        continue
                    assert rec.truncated and rec.stop_reason, (name, method)


def test_a_scalar_block_is_its_value_on_the_diagonal():
    # a finite scalar gives the bits of a * eye(3), signed zeros off the diagonal included; a non-finite one
    # keeps zeros there, where a * eye(3) would give inf * 0 = NaN with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (2.0, -2.0, 0.0, -0.0, 5e-324, -1e300):
            assert _as_matrix(a, "A").tobytes() == (a * np.eye(3)).tobytes(), a
        for a in (math.inf, -math.inf, math.nan):
            m = _as_matrix(a, "A")
            assert np.array_equal(np.diag(m), [a] * 3, equal_nan=True)
            assert (m[~np.eye(3, dtype=bool)] == 0.0).all()


def test_body_state_validation():
    with pytest.raises(ValueError):
        BodyState(0.0, np.array([1.0, 1.0, 0.0, 0.0]), np.zeros(3), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        BodyState(0.0, identity_quat(), np.array([np.nan, 0, 0]), np.zeros(3), np.zeros(3))
    # the error names the offending field
    with pytest.raises(ValueError, match=r"BodyState\.q has non-finite"):
        BodyState(0.0, np.array([np.nan, 0, 0, 0]), np.zeros(3), np.zeros(3), np.zeros(3))
    for i, name in enumerate(("x_e", "xdot_b", "omega_b")):
        vecs = [np.zeros(3), np.zeros(3), np.zeros(3)]
        vecs[i] = np.array([0.0, np.inf, 0.0])
        with pytest.raises(ValueError, match=rf"BodyState\.{name} has non-finite"):
            BodyState(0.0, identity_quat(), *vecs)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"BodyState\.t has non-finite"):
            BodyState(t, identity_quat(), np.zeros(3), np.zeros(3), np.zeros(3))
    assert type(BodyState(np.float32(0.5), identity_quat(), np.zeros(3), np.zeros(3), np.zeros(3)).t) is float


def test_kinetic_energy_fixture_value():
    rest = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.zeros(3))
    assert kinetic_energy(rest, CSET) == 0.0
    spin = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.array([1.0, 1.0, 1.0]))
    # 0.2342 + 3.0539 + 3.2699 + 2*(-6.4761e-5)
    assert_allclose(kinetic_energy(spin, CSET), 6.557870478, rtol=1e-12)


def test_kinetic_energy_even_in_velocities():
    c = CoefficientSet(a_xx=CSET.a_xx, A_xw=CSET.A_xw, A_ww=CSET.A_ww)  # a_x = a_w = 0
    for _ in range(50):
        s = random_state(RNG)
        flipped = BodyState(s.t, s.q, s.x_e, -s.xdot_b, -s.omega_b)
        assert_allclose(kinetic_energy(flipped, c), kinetic_energy(s, c), rtol=1e-12)


def test_gradient_fixture_values():
    spin = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.array([1.0, 1.0, 1.0]))
    assert_allclose(energy_grad_xdot(spin, CSET), [0.04, 6.31, -6.35], rtol=1e-13)
    assert_allclose(energy_grad_omega(spin, CSET), [0.468270478, 6.1078, 6.539670478], rtol=1e-12)


def test_gradient_fd_oracle_both_presets():
    # central differences of the energy in each velocity component
    sched = preset_morphing()
    step = 1e-6
    for _ in range(1000):
        t = RNG.uniform(0.0, 2 * np.pi)
        c = CSET if RNG.uniform() < 0.5 else sched.coefficients(t)
        s = random_state(RNG, t)
        g1 = energy_grad_xdot(s, c)
        g2 = energy_grad_omega(s, c)
        for i in range(3):
            dv = np.zeros(3)
            dv[i] = step
            tp = kinetic_energy(BodyState(s.t, s.q, s.x_e, s.xdot_b + dv, s.omega_b), c)
            tm = kinetic_energy(BodyState(s.t, s.q, s.x_e, s.xdot_b - dv, s.omega_b), c)
            fd = (tp - tm) / (2 * step)
            assert abs(fd - g1[i]) <= 1e-6 * max(1.0, abs(g1[i]))
            tp = kinetic_energy(BodyState(s.t, s.q, s.x_e, s.xdot_b, s.omega_b + dv), c)
            tm = kinetic_energy(BodyState(s.t, s.q, s.x_e, s.xdot_b, s.omega_b - dv), c)
            fd = (tp - tm) / (2 * step)
            assert abs(fd - g2[i]) <= 1e-6 * max(1.0, abs(g2[i]))


def test_euler_identity_on_homogeneous_parts():
    # 2T = xdot.D1 + omega.D2 + xdot.a_x + omega.a_w + 2 a_0
    for _ in range(200):
        c = CoefficientSet(
            a_xx=np.diag(RNG.uniform(1, 3, 3)),
            A_xw=RNG.standard_normal((3, 3)) * 0.2,
            A_ww=np.diag(RNG.uniform(1, 3, 3)),
            a_x=RNG.standard_normal(3),
            a_w=RNG.standard_normal(3),
            a_0=RNG.standard_normal(),
        )
        s = random_state(RNG)
        lhs = 2.0 * kinetic_energy(s, c)
        rhs = (
            s.xdot_b @ energy_grad_xdot(s, c)
            + s.omega_b @ energy_grad_omega(s, c)
            + s.xdot_b @ c.a_x
            + s.omega_b @ c.a_w
            + 2.0 * c.a_0
        )
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def momenta_by_rows(c, xd, om):
    """T and (D1, D2) = M v + a at v = (xd, om), with M = [[2 a_xx, A_xw], [A_xw^T, 2 A_ww]] built
    as rows and each row of M v summed left to right in column order, as _energy_momenta documents."""
    xx, xw, ww, a_x, a_w, a_0 = c._flat
    v = (*xd, *om)
    rows = [[2.0 * xx[3 * i + j] for j in range(3)] + [xw[3 * i + j] for j in range(3)] for i in range(3)]
    rows += [[xw[3 * j + i] for j in range(3)] + [2.0 * ww[3 * i + j] for j in range(3)] for i in range(3)]

    def dot(a, b):
        acc = a[0] * b[0]
        for u, w in zip(a[1:], b[1:]):
            acc += u * w
        return acc

    m = [dot(row, v) for row in rows]
    t = 0.5 * dot(v, m) + dot((*a_x, *a_w), v) + a_0
    return t, [u + w for u, w in zip(m[:3], a_x)], [u + w for u, w in zip(m[3:], a_w)]


def test_energy_momenta_match_the_row_sums_and_the_public_oracles():
    # on the free-body set, a generic one and morphing sets, the unrolled kernel rounds
    # exactly like the row sums, and the public energy, gradients and canonical momenta
    # are what it returns
    rng, h = np.random.default_rng(4077), 0.01
    sched, sym = preset_morphing(), rng.standard_normal((2, 3, 3))
    a_x, a_w = rng.standard_normal((2, 3))
    generic = CoefficientSet(sym[0] + sym[0].T, rng.standard_normal((3, 3)), sym[1] + sym[1].T, a_x, a_w, 0.7)
    for c in [CSET, generic] + [sched.coefficients(t) for t in rng.uniform(0.0, 2 * np.pi, 20)]:
        for _ in range(100):
            s = random_state(rng)
            xd, om = s.xdot_b.tolist(), s.omega_b.tolist()
            t, d1, d2 = _energy_momenta(c._flat, xd, om)
            assert (t, d1, d2) == momenta_by_rows(c, xd, om)
            assert kinetic_energy(s, c) == t
            assert energy_grad_xdot(s, c).tolist() == d1 and energy_grad_omega(s, c).tolist() == d2
            p_x, p_w = canonical_momenta(s, c, h)
            assert p_x.tolist() == list(_rotate_f(s.q.tolist(), d1))
            assert p_w.tolist() == [u + 0.5 * h * w for u, w in zip(d2, _cx(om, d2))]


def test_canonical_momenta_closed_forms():
    s = random_state(RNG)
    at_id = BodyState(s.t, identity_quat(), s.x_e, s.xdot_b, s.omega_b)
    p_x, p_w = canonical_momenta(at_id, CSET, h=0.0)
    assert_allclose(p_x, energy_grad_xdot(at_id, CSET), atol=1e-15)
    assert_allclose(p_w, energy_grad_omega(at_id, CSET), atol=0.0)
    # omega parallel to D2 kills the discrete correction at any h
    c_diag = CoefficientSet(a_xx=1.0, A_xw=0.0, A_ww=np.diag([0.5, 1.0, 2.0]))
    spin = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.array([0.0, 0.0, 3.0]))
    for h in (0.0, 0.01, 0.5):
        _, p_w = canonical_momenta(spin, c_diag, h)
        assert_allclose(p_w, energy_grad_omega(spin, c_diag), atol=0.0)


def test_canonical_px_isometry_and_frame_consistency():
    for _ in range(100):
        s = random_state(RNG)
        p_x, _ = canonical_momenta(s, CSET, 0.01)
        assert abs(np.linalg.norm(p_x) - np.linalg.norm(energy_grad_xdot(s, CSET))) <= 1e-12 * (
            1.0 + np.linalg.norm(p_x)
        )
        r = RNG.standard_normal(4)
        r /= np.linalg.norm(r)
        rotated = BodyState(s.t, quat_mul(r, s.q) / np.linalg.norm(quat_mul(r, s.q)), s.x_e, s.xdot_b, s.omega_b)
        p_x_rot, _ = canonical_momenta(rotated, CSET, 0.01)
        assert_allclose(p_x_rot, rotate_to_earth(r, p_x), atol=1e-12 * (1 + np.linalg.norm(p_x)))


def physical_momenta(s, rp):
    """(P_x, P_w) of s: row 0 of a one-step record of the rigid body rp."""
    sched = constant_schedule(rigid_coefficients(rp))
    rec = integrate(s, sched, SolverConfig(h=0.01), "rk", s.t + 0.01, rigid_params=rp)
    return rec.P_x[0], rec.P_w[0]


def test_physical_momenta_closed_forms():
    s = random_state(RNG)
    no_spin = BodyState(s.t, s.q, s.x_e, s.xdot_b, np.zeros(3))
    P_x, P_w = physical_momenta(no_spin, RP)
    assert_allclose(P_x, RP.m * rotate_to_earth(s.q, s.xdot_b), atol=1e-12)
    assert_allclose(P_w, np.zeros(3), atol=0.0)
    rp0 = RigidParams(m=2.0, c=np.zeros(3), I_ref=np.diag([1.0, 2.0, 3.0]))
    at_id = BodyState(0.0, identity_quat(), np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    P_x, P_w = physical_momenta(at_id, rp0)
    assert_allclose(P_x, [2.0, 0, 0], atol=0.0)
    assert_allclose(P_w, [0, 2.0, 0], atol=0.0)


def test_rigid_coefficients_identification():
    # the fixture's mass properties m = 8, c = (0.79375, 0, 0.005) give m skew(c)^T = A_xw
    assert_allclose(RP.m, 8.0, rtol=1e-12)
    assert_allclose(RP.c, [0.79375, 0.0, 0.005], atol=1e-12)
    assert_allclose(RP.I_ref, 2.0 * CSET.A_ww, atol=0.0)
    rebuilt = rigid_coefficients(RP)
    assert_allclose(rebuilt.a_xx, CSET.a_xx, atol=1e-12)
    assert_allclose(rebuilt.A_xw, CSET.A_xw, atol=1e-12)
    assert rebuilt.A_xw[0, 1] == pytest.approx(0.0400, abs=1e-15)
    assert rebuilt.A_xw[1, 2] == pytest.approx(6.350, abs=1e-12)


def test_rigid_coefficients_decoupled_and_round_trip():
    rp = RigidParams(m=3.0, c=np.zeros(3), I_ref=np.diag([1.0, 2.0, 3.0]))
    assert_allclose(rigid_coefficients(rp).A_xw, np.zeros((3, 3)), atol=0.0)
    for _ in range(100):
        rp = RigidParams(m=RNG.uniform(0.5, 5), c=RNG.standard_normal(3), I_ref=np.diag(RNG.uniform(1, 3, 3)))
        c = rigid_coefficients(rp)
        s = random_state(RNG)
        d1 = energy_grad_xdot(s, c)
        assert_allclose(d1, rp.m * (s.xdot_b + np.cross(s.omega_b, rp.c)), rtol=1e-12, atol=1e-12)


def test_preset_free_body_table():
    # built forward from the mass properties, the coefficients equal the table exactly
    # (A_xw[0, 2] is -0.0, which == compares equal to the table's 0.0)
    c, rp = preset_free_body()
    assert np.array_equal(c.a_xx, 4.0 * np.eye(3))
    assert np.array_equal(c.A_xw, TABLE_A_XW)
    assert np.array_equal(c.A_ww, TABLE_A_WW)
    assert np.array_equal(c.a_x, np.zeros(3)) and np.array_equal(c.a_w, np.zeros(3))
    assert c.a_0 == 0.0
    assert spd_by_schur(c)
    assert rp.m == 8.0
    assert np.array_equal(rp.c, [0.79375, 0.0, 0.005])
    assert np.array_equal(rp.I_ref, 2.0 * TABLE_A_WW)


def test_point_mass_energy_brute_force():
    for _ in range(200):
        m = RNG.uniform(0.1, 2.0)
        r = RNG.standard_normal(3)
        rdot = RNG.standard_normal(3)
        c = point_mass_coefficients(m, r, rdot)
        s = random_state(RNG)
        v = s.xdot_b + np.cross(s.omega_b, r) + rdot
        assert_allclose(kinetic_energy(s, c), 0.5 * m * (v @ v), rtol=1e-12, atol=1e-12)


def test_wing_motion_geometry():
    for t in np.linspace(0.0, 2 * np.pi, 17):
        r_p, rdot_p, r_m, rdot_m = wing_motion(t)
        th, ph = np.sin(t), -0.5 * np.cos(t)
        assert_allclose(r_p, [0.0, 0.8 * np.cos(th) * np.cos(ph), 0.8 * np.sin(th)], atol=1e-15)
        assert_allclose(r_m, r_p * np.array([1.0, -1.0, 1.0]), atol=0.0)
        # velocities are the time derivative of the positions
        dt = 1e-7
        rp2 = wing_motion(t + dt)[0]
        rp1 = wing_motion(t - dt)[0]
        assert_allclose(rdot_p, (rp2 - rp1) / (2 * dt), atol=1e-7)
        assert_allclose(rdot_m, rdot_p * np.array([1.0, -1.0, 1.0]), atol=0.0)


def test_morphing_static_limit_is_rigid():
    # wings frozen at theta = phi = 0 assemble to one rigid body
    cset, rp_fus = preset_free_body()
    L, m_w = 0.8, 0.5
    static = (
        cset
        + point_mass_coefficients(m_w, np.array([0.0, L, 0.0]), np.zeros(3))
        + point_mass_coefficients(m_w, np.array([0.0, -L, 0.0]), np.zeros(3))
    )
    m_tot = rp_fus.m + 2 * m_w
    c_comp = rp_fus.m * rp_fus.c / m_tot
    i_comp = rp_fus.I_ref + 2 * m_w * (L**2 * np.eye(3) - np.outer([0, L, 0], [0, L, 0]))
    rigid = rigid_coefficients(RigidParams(m=m_tot, c=c_comp, I_ref=i_comp))
    assert_allclose(static.a_xx, rigid.a_xx, atol=1e-12)
    assert_allclose(static.A_xw, rigid.A_xw, atol=1e-12)
    assert_allclose(static.A_ww, rigid.A_ww, atol=1e-12)
    assert_allclose(static.a_x, np.zeros(3), atol=0.0)
    assert_allclose(static.a_w, np.zeros(3), atol=0.0)


def test_morphing_particle_oracle():
    # master check: coefficient-form energy == fuselage form + brute-force wing sum
    sched = preset_morphing()
    cset, _ = preset_free_body()
    m_w = 0.5
    worst = 0.0
    for _ in range(1000):
        t = RNG.uniform(0.0, 4 * np.pi)
        s = random_state(RNG, t)
        r_p, rdot_p, r_m, rdot_m = wing_motion(t)
        t_wings = 0.0
        for r, rd in ((r_p, rdot_p), (r_m, rdot_m)):
            v = s.xdot_b + np.cross(s.omega_b, r) + rd
            t_wings += 0.5 * m_w * (v @ v)
        expect = kinetic_energy(s, cset) + t_wings
        got = kinetic_energy(s, sched.coefficients(t))
        worst = max(worst, abs(got - expect) / max(1.0, abs(expect)))
    assert worst <= 1e-10


def test_morphing_closed_form_matches_the_point_mass_sum():
    # coefficients(t) adds the mirrored wing pair in closed form; the general path adds
    # two point_mass_coefficients sets through the validating constructor
    sched = preset_morphing()
    fuselage, _ = preset_free_body()
    fields = ("a_xx", "A_xw", "A_ww", "a_x", "a_w", "a_0")
    for t in np.linspace(0.0, 7.0, 200):
        c = sched.coefficients(t)
        r_p, rdot_p, r_m, rdot_m = wing_motion(t)
        ref = fuselage + point_mass_coefficients(WING_MASS, r_p, rdot_p) + point_mass_coefficients(WING_MASS, r_m, rdot_m)
        for name in fields:
            assert_allclose(getattr(c, name), getattr(ref, name), rtol=0.0, atol=1e-14, err_msg=name)
        for got, want in zip(c.elimination_blocks, ref.elimination_blocks):
            assert_allclose(got, want, rtol=0.0, atol=1e-14)
        rebuilt = CoefficientSet(*[getattr(c, name) for name in fields])  # passes validation
        for name in fields:
            got, want = np.asarray(getattr(rebuilt, name)), np.asarray(getattr(c, name))
            assert_array_equal(got, want)
            assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes()), name  # bit-equal
        assert rebuilt._flat == c._flat and rebuilt.elimination_blocks == c.elimination_blocks


def test_morphing_positive_definite_sweep():
    sched = preset_morphing()
    for t in np.linspace(0.0, 2 * np.pi, 49):
        assert spd_by_schur(sched.coefficients(t))


def test_morphing_coefficients_continuous():
    sched = preset_morphing()
    delta = 1e-6
    for t in np.linspace(0.0, 2 * np.pi, 13):
        ca = sched.coefficients(t)
        cb = sched.coefficients(t + delta)
        dev = max(
            np.abs(cb.a_xx - ca.a_xx).max(),
            np.abs(cb.A_xw - ca.A_xw).max(),
            np.abs(cb.A_ww - ca.A_ww).max(),
            np.abs(cb.a_x - ca.a_x).max(),
            np.abs(cb.a_w - ca.a_w).max(),
            abs(cb.a_0 - ca.a_0),
        )
        assert dev <= 100.0 * delta


def test_morphing_wing_pair_symmetry():
    # mirrored wings cancel the a_w term identically; a_x survives
    sched = preset_morphing()
    for t in np.linspace(0.0, 2 * np.pi, 25):
        c = sched.coefficients(t)
        assert_allclose(c.a_w, np.zeros(3), atol=1e-15)
    assert any(
        np.linalg.norm(sched.coefficients(t).a_x) > 1e-3 for t in np.linspace(0.0, 2 * np.pi, 25)
    )


def test_morphing_damping_flag_and_force():
    free = preset_morphing(damping=False)
    assert free.force_free
    damped = preset_morphing(damping=True)
    assert not damped.force_free
    f, tau = damped.force(0.0, (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (2.0, 0.0, -1.0))
    assert_allclose(f, np.zeros(3), atol=0.0)
    assert_allclose(tau, [-0.1, 0.0, 0.05], atol=1e-15)


def test_morphing_schedule_requires_force_free():
    # with a default of True, a 3-argument schedule would never have its force called
    with pytest.raises(TypeError):
        MorphingSchedule("damped", lambda t: CSET, lambda t, *state: ((0.0, 0.0, 0.0), [-w for w in state[3]]))


def test_morphing_schedule_metadata():
    sched = preset_morphing()
    assert sched.name == "morphing"
    assert sched.force_free
