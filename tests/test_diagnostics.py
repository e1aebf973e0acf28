"""Error-series conventions, report assembly, pitch extraction."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qvint import (
    BodyState,
    SolverConfig,
    TrajectoryRecord,
    constant_schedule,
    drift_slope,
    energy_error,
    exp_map,
    identity_quat,
    integrate,
    momentum_errors,
    net_pitch,
    pitch_213,
    preset_free_body,
    running_max,
    summarize,
)

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


def test_running_max_envelope():
    assert_allclose(running_max([0.0, 3.0, 1.0, 5.0, 2.0]), [0.0, 3.0, 3.0, 5.0, 5.0], atol=0.0)


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


def test_constant_momenta_give_zero_series():
    rec = make_record(n=6)
    e_x, e_w = momentum_errors(rec)
    assert np.all(e_x == 0.0)
    assert np.all(e_w == 0.0)
    assert np.all(energy_error(rec) == 0.0)


def test_single_sample_record():
    rec = make_record(n=1)
    e_x, e_w = momentum_errors(rec)
    assert e_x.shape == (1,) and e_x[0] == 0.0 and e_w[0] == 0.0


def test_perturbation_sets_relative_level_and_running_holds():
    p_w = np.tile([0.0, 0.0, 4.0], (6, 1))
    p_w[2] = [0.0, 0.0, 4.0 * 1.01]  # 1 percent excursion, then back
    rec = make_record(n=6, p_w=p_w)
    inst_x, inst_w = momentum_errors(rec, running=False)
    run_x, run_w = momentum_errors(rec, running=True)
    assert inst_w[2] == pytest.approx(0.01, rel=1e-12)
    assert inst_w[3] == 0.0
    assert np.all(run_w[2:] == inst_w[2])
    assert run_w[0] == 0.0
    assert np.all(np.diff(run_w) >= 0.0)
    assert np.all(run_x == 0.0)


def test_energy_error_levels_and_zero_baseline():
    energy = np.array([2.0, 2.0, 2.0, 4.0])
    rec = make_record(n=4, energy=energy)
    e = energy_error(rec, running=False)
    assert e[-1] == pytest.approx(1.0, rel=1e-15)
    assert e[0] == 0.0
    rec0 = make_record(n=3, energy=np.array([0.0, 1.0, 2.0]))
    # a zero baseline falls back to absolute deviations, as summarize does
    assert np.array_equal(energy_error(rec0, running=False), [0.0, 1.0, 2.0])
    rep = summarize(rec0)
    assert rep.e_T_absolute
    assert rep.final_e_T == pytest.approx(2.0)
    assert np.array_equal(energy_error(rec0), rep.e_T)


def test_zero_baseline_momentum_goes_absolute():
    p_x = np.zeros((4, 3))
    p_x[3] = [0.0, 1e-3, 0.0]
    rec = make_record(n=4, p_x=p_x)
    rep = summarize(rec)
    assert rep.e_x_absolute
    assert rep.final_e_x == pytest.approx(1e-3, rel=1e-12)
    assert not rep.e_w_absolute


def test_summarize_momentum_source_and_ew_policy():
    rep = summarize(make_record(physical=True, force_free=False))
    assert rep.momentum_source == "physical"
    assert rep.e_w is not None  # physical momenta stay meaningful under torque
    rep = summarize(make_record(physical=False, force_free=False))
    assert rep.momentum_source == "canonical"
    assert rep.e_w is None  # canonical p_w is not conserved under applied torque
    assert rep.final_e_w is None
    rep = summarize(make_record(physical=False, force_free=True))
    assert rep.e_w is not None


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
    for theta in (0.3, 1.2, 2.5, -0.7):
        q = exp_map(np.array([0.0, 0.5 * theta, 0.0]))
        assert pitch_213(q) == pytest.approx(theta, abs=1e-12)


def test_net_pitch_unwraps_across_branch_cut():
    angles = np.linspace(0.0, 1.5 * np.pi, 80)  # crosses the pi branch point
    q = np.array([exp_map(np.array([0.0, 0.5 * a, 0.0])) for a in angles])
    rec = make_record(n=80, q=q)
    assert net_pitch(rec) == pytest.approx(1.5 * np.pi, abs=1e-9)
