"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Criterion 8 checks each scheme's convergence order on the free-body run over
the step ladder h = 0.02, 0.01, 0.005. Every error above the roundoff floor
(e_w, e_T) must show a Richardson-extrapolated observed order of at least the
scheme's documented order (1 for left, 2 for mid), less a small margin, with
its two per-halving observed orders close enough that the ladder is in the
asymptotic range. Translational errors (e_x) sit at roundoff and are held to
the 1e-12 floor on every level instead. The order helper is unit-tested on
synthetic ladders at the end of this module.
"""

import time
from collections.abc import Sequence
from functools import cache

import numpy as np
import pytest

from qvint import (
    BodyState,
    CoefficientSet,
    SolverConfig,
    constant_schedule,
    drift_slope,
    energy_grad_omega,
    energy_grad_xdot,
    identity_quat,
    integrate,
    kinetic_energy,
    net_pitch,
    preset_free_body,
    preset_morphing,
    summarize,
    wing_motion,
)
from qvint.cli import main as cli_main

CSET, RP = preset_free_body()
SPIN = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.array([1.0, 1.0, 1.0]))

# final angular velocity of the decoupled torque-free top started at
# omega = (1,1,1), from the explicit baseline at h = 1e-6 (149 s run;
# regenerate with: integrate(start, top schedule, SolverConfig(h=1e-6), "rk", 1.0)).
# The h = 1e-4 baseline agrees with it to 4.4e-9 and is re-run below as a
# cheap cross-check that the constant still matches the current model.
TOP_OMEGA_REF = np.array([0.27168531182286143, 1.4136065744733737, 0.36600648586296108])


@cache
def free_body_run(method: str, h: float):
    start = time.perf_counter()
    rec = integrate(SPIN, constant_schedule(CSET), SolverConfig(h=h), method, 50.0, rigid_params=RP)
    return rec, time.perf_counter() - start


def top_schedule():
    top = CoefficientSet(a_xx=CSET.a_xx, A_xw=0.0, A_ww=CSET.A_ww)
    return constant_schedule(top, name="top")


@cache
def top_run(method: str):
    start = BodyState(0.0, identity_quat(), np.zeros(3), np.zeros(3), np.array([1.0, 1.0, 1.0]))
    h = 1e-4 if method == "rk" else 1e-3
    return integrate(start, top_schedule(), SolverConfig(h=h), method, 1.0)


@cache
def morphing_run():
    sched = preset_morphing(damping=True)
    return integrate(SPIN, sched, SolverConfig(h=0.183, max_iter=20), "mid", 20.0)


def report_line(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_translational_exactness_and_runtime():
    parts = []
    ok = True
    for method in ("left", "mid"):
        rec, wall = free_body_run(method, 0.01)
        e_x = summarize(rec).final_e_x
        ok = ok and e_x <= 1e-12 and wall < 10.0
        parts.append(f"{method}: e_x={e_x:.2e} wall={wall:.1f}s")
    assert report_line(1, ok, "; ".join(parts) + " (need e_x <= 1e-12, wall < 10 s)")


def test_criterion_02_midpoint_superiority():
    rep_l = summarize(free_body_run("left", 0.01)[0])
    rep_m = summarize(free_body_run("mid", 0.01)[0])
    r_t = rep_l.final_e_T / rep_m.final_e_T
    r_w = rep_l.final_e_w / rep_m.final_e_w
    ok = r_t >= 10.0 and r_w >= 10.0
    assert report_line(2, ok, f"e_T ratio={r_t:.1f}, e_w ratio={r_w:.1f} (need >= 10)")


def test_criterion_03_midpoint_rotational_drift():
    slopes = {}
    for method in ("left", "mid"):
        rec, _ = free_body_run(method, 0.01)
        ew_run = summarize(rec).e_w
        slopes[method] = drift_slope(rec.t, ew_run)  # trailing half = t in [25, 50]
    rec, _ = free_body_run("mid", 0.01)
    ew_inst = summarize(rec).instantaneous[1]
    window = rec.t >= 25.0
    amplitude = float(ew_inst[window].max() - ew_inst[window].min())
    drift_frac = slopes["mid"] * 25.0 / amplitude
    ok = drift_frac <= 0.1 and slopes["left"] > slopes["mid"]
    assert report_line(
        3,
        ok,
        f"mid drift over [25,50] = {drift_frac:.3f} of its oscillation amplitude "
        f"(need <= 0.1); slopes left={slopes['left']:.2e} > mid={slopes['mid']:.2e}",
    )


def test_criterion_04_quaternion_norms_on_every_run():
    worst = 0.0
    records = [free_body_run(m, h)[0] for m in ("left", "mid") for h in (0.01, 0.005)]
    records += [top_run(m) for m in ("left", "mid", "rk")]
    records.append(morphing_run())
    for rec in records:
        worst = max(worst, float(np.abs(np.linalg.norm(rec.q, axis=1) - 1.0).max()))
    ok = worst <= 1e-12
    assert report_line(4, ok, f"max |1 - |q|| = {worst:.2e} over {len(records)} runs (need <= 1e-12)")


def test_criterion_05_gradient_oracle():
    rng = np.random.default_rng(7)
    sched = preset_morphing()
    step = 1e-6
    worst = 0.0
    for _ in range(1000):
        t = rng.uniform(0.0, 2 * np.pi)
        c = CSET if rng.uniform() < 0.5 else sched.coefficients(t)
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        s = BodyState(t, q, rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal(3))
        g1, g2 = energy_grad_xdot(s, c), energy_grad_omega(s, c)
        for i in range(3):
            dv = np.zeros(3)
            dv[i] = step
            for grad, field in ((g1, "xdot_b"), (g2, "omega_b")):
                sp = BodyState(s.t, s.q, s.x_e, s.xdot_b + (dv if field == "xdot_b" else 0),
                               s.omega_b + (dv if field == "omega_b" else 0))
                sm = BodyState(s.t, s.q, s.x_e, s.xdot_b - (dv if field == "xdot_b" else 0),
                               s.omega_b - (dv if field == "omega_b" else 0))
                fd = (kinetic_energy(sp, c) - kinetic_energy(sm, c)) / (2 * step)
                worst = max(worst, abs(fd - grad[i]) / max(1.0, abs(grad[i])))
    ok = worst <= 1e-6
    assert report_line(5, ok, f"worst d1/d2 vs central differences = {worst:.2e} over 1000 states (need <= 1e-6)")


def test_criterion_06_point_mass_oracle():
    rng = np.random.default_rng(11)
    sched = preset_morphing()
    fus = CSET
    worst = 0.0
    for _ in range(1000):
        t = rng.uniform(0.0, 4 * np.pi)
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        s = BodyState(t, q, np.zeros(3), rng.standard_normal(3), rng.standard_normal(3))
        r_p, rdot_p, r_m, rdot_m = wing_motion(t)
        brute = kinetic_energy(s, fus)
        for r, rd in ((r_p, rdot_p), (r_m, rdot_m)):
            v = s.xdot_b + np.cross(s.omega_b, r) + rd
            brute += 0.5 * 0.5 * (v @ v)
        got = kinetic_energy(s, sched.coefficients(t))
        worst = max(worst, abs(got - brute) / max(1.0, abs(brute)))
    ok = worst <= 1e-10
    assert report_line(6, ok, f"worst coefficient vs particle-sum energy = {worst:.2e} (need <= 1e-10)")


def test_criterion_07_torque_free_top_reference():
    ref_norm = float(np.linalg.norm(TOP_OMEGA_REF))
    fresh = top_run("rk").omega_b[-1]
    cross = float(np.linalg.norm(fresh - TOP_OMEGA_REF)) / ref_norm
    parts = [f"frozen-vs-fresh baseline {cross:.1e}"]
    ok = cross <= 1e-8
    for method in ("left", "mid"):
        err = float(np.linalg.norm(top_run(method).omega_b[-1] - TOP_OMEGA_REF)) / ref_norm
        ok = ok and err <= 1e-4
        parts.append(f"{method}: {err:.2e}")
    assert report_line(7, ok, "; ".join(parts) + " (need <= 1e-4)")


ORDER_LADDER = (0.02, 0.01, 0.005)
DOCUMENTED_ORDER = {"left": 1, "mid": 2}
# Measured extrapolated orders on this ladder: left e_w 1.002, left e_T 0.990,
# mid e_w and e_T 2.000; the finer ladder 0.01/0.005/0.0025 gives 0.999,
# 0.993, 2.000, 2.000. The largest remainder is about 0.01, so a 0.05 margin
# leaves 5x room for it, while a scheme one order short misses by ~1.
ORDER_MARGIN = 0.05
# Extrapolation is meaningful only in the asymptotic range, where the two
# observed orders already nearly agree (measured gaps: at most 0.058). A broken
# scheme with erratic ratios (2.9x then 6.7x) would otherwise extrapolate to a
# high order and pass.
MAX_ORDER_GAP = 0.25


def extrapolated_order(errors: Sequence[float]) -> tuple[list[float], float, float]:
    """Halving ratios, extrapolated order and order gap of errors at h, h/2, h/4.

    Each ratio e(h)/e(h/2) gives an observed order log2(ratio). For
    e = C h^p (1 + a h) the two observed orders are p + O(h) with the O(h)
    term halving from one to the next, so 2 p2 - p1 removes it (Richardson).
    The gap |p2 - p1| is the size of the term removed.
    """
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    p1, p2 = np.log2(ratios)
    return ratios, float(2.0 * p2 - p1), float(abs(p2 - p1))


def converges_at_order(errors: Sequence[float], order: int) -> bool:
    _, p_inf, gap = extrapolated_order(errors)
    return p_inf >= order - ORDER_MARGIN and gap <= MAX_ORDER_GAP


def test_criterion_08_halving_h_halves_every_error():
    ok = True
    parts = []
    for method in ("left", "mid"):
        reps = [summarize(free_body_run(method, h)[0]) for h in ORDER_LADDER]
        order = DOCUMENTED_ORDER[method]
        for name in ("final_e_x", "final_e_w", "final_e_T"):
            errors = [getattr(rep, name) for rep in reps]
            leg = f"{method} {name[6:]}"
            if name == "final_e_x":
                # translational momentum is conserved to roundoff, so there
                # is no order to read off; hold every level to the floor
                leg_ok = max(errors) <= 1e-12
                parts.append(f"{leg}: max {max(errors):.1e} (need <= 1e-12)")
            else:
                ratios, p_inf, gap = extrapolated_order(errors)
                leg_ok = converges_at_order(errors, order)
                shown = "/".join(f"{r:.3f}x" for r in ratios)
                parts.append(
                    f"{leg}: {shown} p={p_inf:.3f} gap={gap:.3f} "
                    f"(need p >= {order - ORDER_MARGIN:.2f}, gap <= {MAX_ORDER_GAP})"
                )
            if not leg_ok:
                parts[-1] += " FAILED"
            ok = ok and leg_ok
    ladder = "/".join(f"{h:g}" for h in ORDER_LADDER)
    assert report_line(8, ok, f"h = {ladder}: " + ", ".join(parts))


def test_criterion_09_morphing_run_completes():
    rec = morphing_run()
    pitch = net_pitch(rec)
    steps = len(rec) - 1
    ok = (
        not rec.truncated
        and steps == round(20.0 / 0.183)
        and int(rec.newton_iters[1:].max()) <= 20
        and abs(pitch) > 0.01
    )
    assert report_line(
        9,
        ok,
        f"{steps} steps, max Newton iterations {int(rec.newton_iters[1:].max())}, "
        f"net pitch {pitch:+.4f} rad (need finish, <= 20 iters, |pitch| > 0.01)",
    )


def test_criterion_10_byte_identical_csv(tmp_path):
    outputs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        cfg = tmp_path / f"{sub}.cfg"
        cfg.write_text(f"out_dir = {out}\n")  # defaults: free_body, mid, h=0.01, t_end=50
        assert cli_main(["run", str(cfg)]) == 0
        outputs.append(out)
    same = all(
        (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        for name in ("free_body_mid_trajectory.csv", "free_body_mid_errors.csv")
    )
    assert report_line(10, same, "repeated default run: trajectory and error CSVs byte-identical")


@pytest.mark.parametrize(
    ("shape", "order", "expected"),
    [
        (lambda h: 3.0 * h * (1.0 - 4.4 * h), 1, True),  # measured left e_w shape
        (lambda h: 3.0 * h**2, 2, True),
        (lambda h: 3.0 * h**0.9, 1, False),
        (lambda h: 3.0 * h, 2, False),  # mid degraded to first order
        (lambda h: 3.0, 1, False),  # flat
        (lambda h: 3.0 / h, 1, False),  # grows as h shrinks
        (lambda h: {0.02: 19.4, 0.01: 6.7, 0.005: 1.0}[h], 2, False),  # erratic 2.9x, 6.7x
    ],
    ids=["first-order-preasymptotic", "second-order", "order-0.9", "first-as-second", "flat", "growing", "erratic"],
)
def test_order_check_on_synthetic_ladders(shape, order, expected):
    errors = [shape(h) for h in ORDER_LADDER]
    assert converges_at_order(errors, order) is expected
