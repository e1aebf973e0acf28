"""Error-series conventions, report assembly, pitch extraction."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvint import (
    BodyState,
    SolverConfig,
    TrajectoryRecord,
    constant_schedule,
    drift_slope,
    identity_quat,
    integrate,
    net_pitch,
    preset_free_body,
    summarize,
)
from qvint.diagnostics import pitch_213
from qvint.quat import exp_map

CSET, RP = preset_free_body()


def make_record(n=5, physical=False, force_free=True, energy=None, p_x=None, p_w=None, q=None):
    t = np.arange(n, dtype=float) * 0.1
    if q is None:
        q = np.tile(identity_quat(), (n, 1))
    zeros = np.zeros((n, 3))
    if p_x is None:
        p_x = np.tile([1.0, 2.0, 2.0], (n, 1))
    if p_w is None:
        p_w = np.tile([0.0, 0.0, 4.0], (n, 1))
    if energy is None:
        energy = np.full(n, 2.0)
    return TrajectoryRecord(
        t=t,
        q=q,
        x_e=zeros.copy(),
        xdot_b=zeros.copy(),
        omega_b=zeros.copy(),
        energy=np.asarray(energy, dtype=float),
        p_x=np.asarray(p_x, dtype=float),
        p_w=np.asarray(p_w, dtype=float),
        P_x=np.asarray(p_x, dtype=float).copy() if physical else None,
        P_w=np.asarray(p_w, dtype=float).copy() if physical else None,
        newton_iters=np.zeros(n, dtype=int),
        method="left",
        h=0.1,
        scenario="synthetic",
        force_free=force_free,
    )


def test_record_validation_and_state_access():
    with pytest.raises(ValueError):
        make_record(n=0)
    rec = make_record(n=4)
    rec2 = make_record(n=4)
    rec2.t = rec2.t[::-1].copy()
    with pytest.raises(ValueError):
        TrajectoryRecord(
            t=rec2.t, q=rec.q, x_e=rec.x_e, xdot_b=rec.xdot_b, omega_b=rec.omega_b,
            energy=rec.energy, p_x=rec.p_x, p_w=rec.p_w, P_x=None, P_w=None,
            newton_iters=rec.newton_iters, method="left", h=0.1,
        )
    assert len(rec) == 4


@pytest.mark.parametrize("dropped", ["P_x", "P_w"])
def test_record_needs_both_physical_momenta_or_neither(dropped):
    # with one of them, one error series once read it while another fell back to canonical
    with pytest.raises(ValueError, match="P_x and P_w"):
        dataclasses.replace(make_record(physical=True), **{dropped: None})


def test_constant_momenta_give_zero_series():
    rep = summarize(make_record(n=6))
    for series in (rep.e_x, rep.e_w, rep.e_T, *rep.instantaneous):
        assert series.shape == (6,) and np.all(series == 0.0)


def test_single_sample_record():
    rep = summarize(make_record(n=1))
    assert rep.e_x.shape == (1,) and rep.e_x[0] == 0.0 and rep.e_w[0] == 0.0
    # a non-finite sample leaves its series undefined, quietly: squaring the 1e300
    # beside the infinite entry once overflowed in the baseline norm
    rep = summarize(make_record(n=1, p_w=[[np.inf, 1e300, 0.0]]))
    assert rep.e_x[0] == 0.0 and np.isnan(rep.e_w[0]) and np.isnan(rep.instantaneous[1][0])


def test_perturbation_sets_relative_level_and_running_holds():
    p_w = np.tile([0.0, 0.0, 4.0], (6, 1))
    p_w[2] = [0.0, 0.0, 4.0 * 1.01]  # 1 percent excursion, then back
    rec = make_record(n=6, p_w=p_w)
    rep = summarize(rec)
    (inst_x, inst_w, inst_T), run_x, run_w = rep.instantaneous, rep.e_x, rep.e_w
    assert inst_w[2] == pytest.approx(0.01, rel=1e-12)
    assert inst_w[3] == 0.0
    assert np.all(run_w[2:] == inst_w[2])
    assert run_w[0] == 0.0
    assert np.all(np.diff(run_w) >= 0.0)
    assert np.all(run_x == 0.0)
    # the report carries the instantaneous series its running maxima come from, for the error CSV
    assert np.array_equal(run_x, np.maximum.accumulate(inst_x))
    assert np.array_equal(rep.e_T, np.maximum.accumulate(inst_T))
    assert np.all(inst_T == 0.0)


def test_energy_error_levels_and_zero_baseline():
    energy = np.array([2.0, 2.0, 2.0, 4.0])
    e = summarize(make_record(n=4, energy=energy)).instantaneous[2]
    assert e[-1] == pytest.approx(1.0, rel=1e-15)
    assert e[0] == 0.0
    rec0 = make_record(n=3, energy=np.array([0.0, 1.0, 2.0]))
    # a zero baseline falls back to absolute deviations, and flags it
    rep = summarize(rec0)
    assert np.array_equal(rep.instantaneous[2], [0.0, 1.0, 2.0])
    assert rep.e_T_absolute
    assert rep.final_e_T == pytest.approx(2.0)
    assert np.array_equal(rep.e_T, [0.0, 1.0, 2.0])


def test_zero_baseline_momentum_goes_absolute():
    p_x = np.zeros((4, 3))
    p_x[3] = [0.0, 1e-3, 0.0]
    rec = make_record(n=4, p_x=p_x)
    rep = summarize(rec)
    assert rep.e_x_absolute
    assert rep.final_e_x == pytest.approx(1e-3, rel=1e-12)
    assert not rep.e_w_absolute


def test_summarize_momentum_source_and_ew_policy():
    # P and p differ, so the errors show which momenta summarize reads: P when recorded, p otherwise
    still_x, still_w = np.tile([1.0, 2.0, 2.0], (5, 1)), np.tile([0.0, 0.0, 4.0], (5, 1))
    moved_x, moved_w = still_x.copy(), still_w.copy()
    moved_x[3, 2], moved_w[2, 2] = 2.3, 5.0  # relative deviations 0.1 and 0.25
    rec = make_record(physical=True, force_free=False)
    for P, p, want in (
        ((moved_x, moved_w), (still_x, still_w), (0.1, 0.25)),
        ((still_x, still_w), (moved_x, moved_w), (0.0, 0.0)),
        ((None, None), (moved_x, moved_w), (0.1, 0.25)),
        ((None, None), (still_x, still_w), (0.0, 0.0)),
    ):
        rep = summarize(dataclasses.replace(rec, P_x=P[0], P_w=P[1], p_x=p[0], p_w=p[1]))
        assert (rep.final_e_x, rep.final_e_w) == pytest.approx(want, rel=1e-12, abs=0.0)
    rep = summarize(make_record(physical=True, force_free=False))
    assert not rep.e_w_diagnostic  # physical momenta stay meaningful under torque
    p_w = np.tile([0.0, 0.0, 4.0], (5, 1))
    p_w[2, 2] = 5.0
    rec = make_record(physical=False, force_free=False, p_w=p_w)
    rep = summarize(rec)
    assert rep.e_w_diagnostic  # canonical p_w is not conserved under applied torque
    assert np.array_equal(rep.e_w, [0.0, 0.0, 0.25, 0.25, 0.25]) and rep.final_e_w == 0.25  # but still reported
    rep = summarize(make_record(physical=False, force_free=True))
    assert not rep.e_w_diagnostic


# the per-series form summarize had before it took its three series in one pass: the oracle for that pass


def deviation_series(values):
    """Per-sample deviation from the first sample.

    Relative when the first sample has nonzero norm, absolute otherwise
    (flagged True). values is (n,) or (n, d). A non-finite first sample
    leaves every deviation undefined (NaN), without a warning.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        dev = row_norms(v - v[0])
        base = float(row_norms(v[:1])[0])
        return (dev, True) if base == 0.0 else (dev / base, False)


def row_norms(v):
    """Euclidean norms of the rows of v, finite for every finite row.

    Each row is scaled by an exact power of two before squaring, so a huge
    row cannot overflow and a tiny one cannot underflow.
    """
    exp2 = np.frexp(np.abs(v).max(axis=1))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(v, -exp2[:, None]), axis=1), exp2)


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308, math.inf, -math.inf, math.nan]
# record columns: energy, p_x, p_w, then P_x, P_w
COLUMN_SLICES = {"energy": 0, "p_x": slice(1, 4), "p_w": slice(4, 7), "P_x": slice(7, 10), "P_w": slice(10, 13)}


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64).tolist()


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 300),
    physical=st.booleans(),
    force_free=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-1074, 1023),
    spread=st.sampled_from([0.0, 1e-15, 1e-6, 1.0]),
    zero_baselines=st.lists(st.sampled_from(["energy", "p_x", "p_w", "P_x", "P_w"]), max_size=3),
    pool=st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), max_size=6),
    rate=st.sampled_from([0.0, 0.005, 0.1]),
    in_row_0=st.booleans(),
)
@example(n=1, physical=False, force_free=True, seed=0, exponent=0, spread=0.0, zero_baselines=[], pool=[math.inf],
         rate=0.0, in_row_0=True)  # fmt: skip
@example(n=5, physical=True, force_free=False, seed=1, exponent=1020, spread=1.0, zero_baselines=["P_x"],
         pool=[1e308, -1e308], rate=0.1, in_row_0=True)  # fmt: skip
@example(n=300, physical=False, force_free=False, seed=2, exponent=-1074, spread=1e-6, zero_baselines=["energy"],
         pool=[5e-324, -0.0, math.nan], rate=0.005, in_row_0=False)  # fmt: skip
def test_summarize_gives_the_per_series_bits(
    n, physical, force_free, seed, exponent, spread, zero_baselines, pool, rate, in_row_0
):
    # summarize's one pass against the per-series oracle above, bit for bit: the instantaneous and running-max
    # series, the *_absolute flags and e_w_diagnostic, on physical and canonical-only records drawn at any decade
    # (subnormal to past the overflow guard), with zero baselines, +-0, subnormals, +-1e308, +-inf and NaN in row 0
    # and in later rows
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        first = np.ldexp(rng.standard_normal(13), exponent)
        values = first * (1.0 + spread * rng.standard_normal((n, 13)))
    for name in zero_baselines:
        values[0, COLUMN_SLICES[name]] = rng.choice([0.0, -0.0])
    if pool:
        hits = rng.random((n, 13)) < rate
        if in_row_0:
            hits[0, rng.integers(13)] = True
        values[hits] = rng.choice(pool, size=int(hits.sum()))
    cols = {name: values[:, where] for name, where in COLUMN_SLICES.items()}
    rec = make_record(n=n, force_free=force_free, energy=cols["energy"], p_x=cols["p_x"], p_w=cols["p_w"])
    if physical:
        rec = dataclasses.replace(rec, P_x=cols["P_x"], P_w=cols["P_w"])
    rep = summarize(rec)
    sources = (cols["P_x"], cols["P_w"]) if physical else (cols["p_x"], cols["p_w"])
    running = (rep.e_x, rep.e_w, rep.e_T)
    flags = (rep.e_x_absolute, rep.e_w_absolute, rep.e_T_absolute)
    for series, inst, run, flag in zip((*sources, cols["energy"]), rep.instantaneous, running, flags):
        raw, absolute = deviation_series(series)
        assert bits(inst) == bits(raw)
        assert bits(run) == bits(np.maximum.accumulate(raw))
        assert flag is absolute
    assert rep.e_w_diagnostic is (not (physical or force_free))


def test_series_start_at_zero_and_are_monotone_on_real_run():
    spin = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.array([1.0, 1.0, 1.0]))
    rec = integrate(spin, constant_schedule(CSET), SolverConfig(h=0.01), "left", 2.0, rigid_params=RP)
    rep = summarize(rec)
    for series in (rep.e_x, rep.e_w, rep.e_T):
        assert series[0] == 0.0
        assert np.all(np.diff(series) >= 0.0)


def test_canonical_equals_physical_translation_for_rigid():
    # with no applied force the canonical translational momentum is exactly
    # the physical one on a rigid body
    spin = BodyState(0.0, identity_quat(), np.zeros(3), np.array([0.2, -0.1, 0.3]), np.array([1.0, 1.0, 1.0]))
    rec = integrate(spin, constant_schedule(CSET), SolverConfig(h=0.01), "left", 1.0, rigid_params=RP)
    scale = np.linalg.norm(rec.P_x[0])
    assert np.abs(rec.p_x - rec.P_x).max() <= 1e-12 * max(1.0, scale)


def test_drift_slope_recovers_linear_trend():
    t = np.linspace(0.0, 10.0, 201)
    assert drift_slope(t, 1.0 + 0.3 * t) == pytest.approx(0.3, rel=1e-9)
    flat_then_ramp = np.where(t < 5.0, 1.0, 1.0 + 0.5 * (t - 5.0))
    assert drift_slope(t, flat_then_ramp) == pytest.approx(0.5, rel=1e-6)  # the last half only
    assert drift_slope(t[:1], np.ones(1)) == 0.0
    # the window keeps at least two samples: both of two, the last two of three
    assert drift_slope(np.array([0.0, 2.0]), np.array([1.0, 2.0])) == pytest.approx(0.5, rel=1e-12)
    assert drift_slope(np.array([0.0, 1.0, 2.0]), np.array([5.0, 0.0, 3.0])) == pytest.approx(3.0, rel=1e-12)


def test_pitch_213_closed_forms():
    assert pitch_213(identity_quat()) == 0.0
    thetas = (0.3, 1.2, 2.5, -0.7)
    qs = np.array([exp_map(np.array([0.0, 0.5 * theta, 0.0])) for theta in thetas])
    for q, theta in zip(qs, thetas):
        assert pitch_213(q) == pytest.approx(theta, abs=1e-12)
    # a stack of quaternions gives the same angles, row by row
    assert np.array_equal(pitch_213(qs), [pitch_213(q) for q in qs])


def test_net_pitch_unwraps_across_branch_cut():
    angles = np.linspace(0.0, 1.5 * np.pi, 80)  # crosses the pi branch point
    q = np.array([exp_map(np.array([0.0, 0.5 * a, 0.0])) for a in angles])
    rec = make_record(n=80, q=q)
    assert net_pitch(rec) == pytest.approx(1.5 * np.pi, abs=1e-9)
