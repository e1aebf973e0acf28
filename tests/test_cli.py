"""Config parsing, CSV emission, exit codes, run and compare summaries."""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qvint
from qvint import integrate, integrators, preset_free_body
from qvint.cli import (
    _DEFAULTS,
    ConfigError,
    _write_csv,
    build_scenario,
    compare,
    main,
    parse_config,
    read_trajectory_csv,
    run,
    write_error_csv,
    write_trajectory_csv,
)
from qvint.diagnostics import summarize
from qvint.integrators import SingularJacobianError

TRAJ_HEADER = (
    "t,qw,qx,qy,qz,xe_x,xe_y,xe_z,xdotb_x,xdotb_y,xdotb_z,"
    "omegab_x,omegab_y,omegab_z,T,Px_x,Px_y,Px_z,Pw_x,Pw_y,Pw_z,newton_iters"
)
ERR_HEADER = "t,e_x,e_w,e_T"


def short_record(t_end=0.05):
    cset, rp = preset_free_body()
    cfg = parse_config("")
    initial, sched, scfg, _ = build_scenario(cfg)
    return integrate(initial, sched, scfg, "mid", t_end, rigid_params=rp)


def test_parse_defaults():
    cfg = parse_config("")
    assert cfg.scenario == "free_body"
    assert cfg.method == "mid"
    assert cfg.h == 0.01
    assert cfg.t_end == 50.0
    assert_allclose(cfg.q0, [1.0, 0.0, 0.0, 0.0], atol=0.0)
    assert_allclose(cfg.omega0, [1.0, 1.0, 1.0], atol=0.0)
    assert_allclose(cfg.xdot0, np.zeros(3), atol=0.0)
    assert cfg.tol == 1e-12
    assert cfg.max_iter == 50
    assert cfg.out_dir == "."


def test_parse_last_wins_and_comments():
    cfg = parse_config(
        """
        # full-line comment
        h = 0.02
        method = left
        h = 0.05   # later assignment wins
        """
    )
    assert cfg.h == 0.05
    assert cfg.method == "left"


@pytest.mark.parametrize(
    "text,line,needle",
    [
        ("bogus line", 1, "key = value"),
        ("frobnicate = 3", 1, "unknown key"),
        ("\nh = abc", 2, "cannot parse"),
        ("h = -1", 1, "positive"),
        ("h = nan", 1, "finite"),
        ("t_end = 0", 1, "positive"),
        ("max_iter = 1.5", 1, "integer"),
        ("max_iter = 0", 1, "at least 1"),
        ("method = euler", 1, "method"),
        ("scenario = flying", 1, "scenario"),
        ("h =", 1, "empty value"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, needle):
    with pytest.raises(ConfigError) as exc_info:
        parse_config(text)
    err = exc_info.value
    assert err.line == line
    assert str(err).startswith(f"line {line}:")
    assert needle in str(err)


def test_parse_zero_q0_is_error_at_last_offending_line():
    text = "q0_w = 0\nq0_x = 0\nq0_y = 0\nq0_z = 0"
    with pytest.raises(ConfigError) as exc_info:
        parse_config(text)
    assert exc_info.value.line == 4


def q0_note(off: str) -> str:
    return f"WARNING: q0 is off unit norm by {off}; normalizing\n"


STOPPED_AT_0 = "WARNING: integration stopped early at t=0 (Newton did not converge); partial output written\n"


def test_parse_off_norm_q0_warns_and_normalizes(capsys):
    # the note is one line on stderr, not a Python warning (the suite turns warnings into errors)
    cfg = parse_config("q0_w = 2.0")
    assert capsys.readouterr() == ("", q0_note("1"))
    assert_allclose(cfg.q0, [1.0, 0.0, 0.0, 0.0], atol=0.0)
    # the norm neither overflows nor underflows, so far-off scales normalize to a unit q0
    r = 2.0**-0.5
    for text, want, off in [
        ("q0_w = 1e200\nq0_x = 1e200", [r, r, 0.0, 0.0], "1.41e+200"),
        ("q0_w = 1.7e308\nq0_x = 1.7e308", [r, r, 0.0, 0.0], "inf"),
        ("q0_w = 1e-160", [1.0, 0.0, 0.0, 0.0], "1"),
        ("q0_w = 1e-200\nq0_x = 1e-200", [r, r, 0.0, 0.0], "1"),
        ("q0_w = 0\nq0_z = -5e-324", [0.0, 0.0, 0.0, -1.0], "1"),
    ]:
        cfg = parse_config(text)
        assert capsys.readouterr() == ("", q0_note(off)), text
        assert_allclose(cfg.q0, want, rtol=1e-15, atol=0.0)
        assert build_scenario(cfg)[0].q.tolist() == cfg.q0.tolist()  # BodyState accepts it


@pytest.mark.parametrize(
    "text,code,stderr",
    [
        ("q0_w = 0.9\nh = 0.05\nt_end = 0.1\nout_dir = {out}\n", 0, q0_note("0.1")),
        ("h = 0\nout_dir = {out}\n", 2, "config error: line 1: 'h' must be positive\n"),
        ("max_iter = 1\nt_end = 0.1\nout_dir = {out}\n", 3, STOPPED_AT_0),
        ("t_end = 0.1\nout_dir = {blocker}\n", 4, "output failed: [Errno 17] File exists: '{blocker}'\n"),
    ],
    ids=["q0_note", "config_error", "truncated", "output_failed"],
)
def test_exit_codes_and_stderr_lines_of_a_real_process(tmp_path, text, code, stderr):
    # each exit code ends the process with its one stderr line and no traceback, even when warnings are
    # errors: a Python warning would end the run with a traceback and exit 1, and print this file's path
    blocker = tmp_path / "occupied"
    blocker.write_text("occupied", encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.format(out=tmp_path, blocker=blocker), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(qvint.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qvint.cli", "run", str(cfg)], capture_output=True, text=True, env=env
    )
    assert (done.returncode, done.stderr) == (code, stderr.format(blocker=blocker)), done.stderr
    assert "Traceback" not in done.stderr
    assert len(list(tmp_path.glob("*.csv"))) == (2 if code in (0, 3) else 0)


def test_build_scenario_branches():
    initial, sched, scfg, rp = build_scenario(parse_config("tol = 1e-10\nmax_iter = 7"))
    assert sched.name == "free_body"
    assert sched.force_free
    assert rp is not None
    assert scfg.residual_tol == 1e-10
    assert scfg.max_iter == 7
    _, sched, _, rp = build_scenario(parse_config("scenario = morphing"))
    assert sched.name == "morphing"
    assert not sched.force_free  # damping torque is part of the preset
    assert rp is None
    _, sched, _, rp = build_scenario(parse_config("scenario = custom"))
    assert sched.name == "custom"
    assert rp is not None


def test_trajectory_csv_round_trip(tmp_path):
    rec = short_record()
    rec.x_e[1] = [-0.0, 5e-324, 1e300]  # a signed zero, a subnormal, a huge value
    rec.xdot_b[2] = [np.inf, -np.inf, np.nan]  # non-finite values
    path = tmp_path / "traj.csv"
    write_trajectory_csv(rec, path)
    # every float cell is format(v, ".17g") and newton_iters an integer
    rows = zip(rec.t, rec.q, rec.x_e, rec.xdot_b, rec.omega_b, rec.energy, rec.P_x, rec.P_w, rec.newton_iters)
    want = [",".join(format(v, ".17g") for v in np.hstack(row[:-1])) + f",{row[-1]}" for row in rows]
    assert path.read_text() == "\n".join([TRAJ_HEADER, *want]) + "\n"
    cols = read_trajectory_csv(path)
    assert list(cols) == TRAJ_HEADER.split(",")
    # 17 significant digits make the round trip exact
    for i, c in enumerate("xyz"):
        assert np.array_equal(cols[f"xe_{c}"], rec.x_e[:, i])
        assert np.array_equal(cols[f"xdotb_{c}"], rec.xdot_b[:, i], equal_nan=True)
    assert np.signbit(cols["xe_x"][1])
    assert np.array_equal(cols["t"], rec.t)
    assert np.array_equal(cols["qw"], rec.q[:, 0])
    assert np.array_equal(cols["xdotb_y"], rec.xdot_b[:, 1])
    assert np.array_equal(cols["omegab_z"], rec.omega_b[:, 2])
    assert np.array_equal(cols["T"], rec.energy)
    assert np.array_equal(cols["Px_x"], rec.P_x[:, 0])
    assert np.array_equal(cols["Pw_z"], rec.P_w[:, 2])
    assert np.array_equal(cols["newton_iters"], rec.newton_iters)
    assert cols["newton_iters"].dtype.kind == "i"
    # a CRLF copy (a Windows editor, a git autocrlf checkout) reads back the same names and values
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    crlf_cols = read_trajectory_csv(crlf)
    assert list(crlf_cols) == list(cols)
    assert all(np.array_equal(crlf_cols[k], v, equal_nan=True) for k, v in cols.items())


#: the trajectory CSV's column widths (t, q, x_e, xdot_b, omega_b, T, P_x, P_w, newton_iters) and the error CSV's
CSV_LAYOUTS = {TRAJ_HEADER: (1, 4, 3, 3, 3, 1, 3, 3, 1), ERR_HEADER: (1, 1, 1, 1)}
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308, math.inf, -math.inf, math.nan]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 700),
    header=st.sampled_from(sorted(CSV_LAYOUTS)),
    pool=st.lists(st.floats(), max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=255, header=TRAJ_HEADER, pool=[], seed=0)
@example(n=256, header=ERR_HEADER, pool=[], seed=1)
@example(n=257, header=TRAJ_HEADER, pool=[], seed=2)
@example(n=512, header=ERR_HEADER, pool=[], seed=3)
@example(n=513, header=TRAJ_HEADER, pool=[], seed=4)
def test_write_csv_is_byte_identical_to_savetxt(n, header, pool, seed):
    # the block writer against the np.savetxt call it replaced, across its 256-row block edges: cells drawn from
    # hypothesis floats, signed zeros, subnormals, +-1e308, +-inf, NaN and full-precision normals, with an
    # integer last column as newton_iters is
    rng = np.random.default_rng(seed)
    widths = CSV_LAYOUTS[header]
    values = np.array(pool + SPECIAL_FLOATS + rng.standard_normal(8).tolist())
    floats = rng.choice(values, size=(n, sum(widths) - 1))
    edges = np.cumsum(widths[:-1])[:-1]
    cols = [c[:, 0] if c.shape[1] == 1 else c for c in np.split(floats, edges, axis=1)]
    cols.append(rng.integers(0, 2**53, n) if seed % 2 else rng.integers(0, 60, n))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        _write_csv(got, header, cols)
        with open(want, "w", encoding="utf-8") as fh:
            np.savetxt(fh, np.column_stack(cols), fmt="%.17g", delimiter=",", header=header, comments="")
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_bytes().splitlines()) == n + 1


def test_trajectory_csv_memory_is_bounded_by_its_blocks(tmp_path):
    # a default-length run (t_end = 50 at h = 0.01, 5001 rows): the writer holds the stacked columns (0.88 MB)
    # and one 256-row block (1.2 MB in all), not the whole file's text (7.1 MB as one join)
    initial, sched, scfg, rp = build_scenario(parse_config("method = rk"))
    rec = integrate(initial, sched, scfg, "rk", 50.0, rigid_params=rp)
    assert len(rec) == 5001
    tracemalloc.start()
    try:
        write_trajectory_csv(rec, tmp_path / "traj.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6
    assert len((tmp_path / "traj.csv").read_text().splitlines()) == 5002


@pytest.mark.parametrize(
    "text",
    [
        "t,qw,newton_iters\n0,1,0\n0.01,1\n0.02,1,3\n",  # a short row
        "t,qw,newton_iters\n0,1,0\n0.01,1,0,5\n",  # a long row
        "t,qw\n0,1,0\n0.01,1,0\n",  # fewer names than cells
        "t,qw,newton_iters,T\n0,1,0\n0.01,1,0\n",  # more names than cells
        "t,qw,newton_iters\n",  # no data rows
    ],
    ids=["short-row", "long-row", "few-names", "many-names", "header-only"],
)
def test_read_trajectory_csv_rejects_malformed_files(tmp_path, text):
    # each of these once parsed into silently misaligned or empty columns
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_trajectory_csv(path)


def test_error_csv_matches_instantaneous_series(tmp_path):
    rec = short_record()
    path = tmp_path / "errs.csv"
    write_error_csv(rec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ERR_HEADER
    assert len(lines) == len(rec) + 1
    e_x, e_w, e_t = summarize(rec).instantaneous
    got = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert np.array_equal(got[:, 0], rec.t)
    assert np.array_equal(got[:, 1], e_x)
    assert np.array_equal(got[:, 2], e_w)
    assert np.array_equal(got[:, 3], e_t)


def test_run_success_summary_and_files(tmp_path, capsys):
    cfg = parse_config(f"t_end = 0.2\nout_dir = {tmp_path}")
    assert run(cfg) == 0
    out = capsys.readouterr().out
    assert "run: scenario=free_body method=mid h=0.01 t_end=0.2" in out
    assert "steps accepted: 20" in out
    assert "final errors: e_x=" in out
    assert "mean Newton iterations:" in out
    assert "wall time:" in out
    assert (tmp_path / "free_body_mid_trajectory.csv").is_file()
    assert (tmp_path / "free_body_mid_errors.csv").is_file()


def test_run_reports_the_time_reached_off_t_end(tmp_path, capsys):
    # round(1.1 / 0.25) = 4 steps end at t = 1, not at t_end = 1.1
    cfg = parse_config(f"h = 0.25\nt_end = 1.1\nout_dir = {tmp_path}")
    assert run(cfg) == 0
    out = capsys.readouterr().out
    assert "h=0.25 t_end=1.1 (reached t=1)\n" in out
    assert "steps accepted: 4\n" in out
    cfg = parse_config(f"h = 0.25\nt_end = 1\nout_dir = {tmp_path}")
    assert run(cfg) == 0
    assert "h=0.25 t_end=1\n" in capsys.readouterr().out


def test_run_is_deterministic_byte_for_byte(tmp_path):
    for sub in ("a", "b"):
        cfg = parse_config(f"t_end = 0.3\nout_dir = {tmp_path / sub}")
        assert run(cfg) == 0
    for name in ("free_body_mid_trajectory.csv", "free_body_mid_errors.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_morphing_prints_net_pitch(tmp_path, capsys):
    cfg = parse_config(f"scenario = morphing\nh = 0.183\nt_end = 2\nout_dir = {tmp_path}")
    assert run(cfg) == 0
    out = capsys.readouterr().out
    assert "net pitch change:" in out
    assert "diagnostic; external moments act" in out  # canonical e_w under damping


def test_run_truncation_exit_code_and_partial_output(tmp_path, capsys):
    cfg = parse_config(f"max_iter = 1\nt_end = 1\nout_dir = {tmp_path}")
    assert run(cfg) == 3
    captured = capsys.readouterr()
    assert "WARNING: integration stopped early" in captured.err
    assert "(truncated)" in captured.out
    lines = (tmp_path / "free_body_mid_trajectory.csv").read_text().splitlines()
    assert len(lines) >= 2  # header plus at least the initial sample


def test_torque_driven_e_w_from_rest_is_marked_absolute(tmp_path, capsys):
    # left's row-0 p_w is exactly zero at rest, so the diagnostic e_w is an absolute deviation
    rest = "omega0_x = 0\nomega0_y = 0\nomega0_z = 0"
    cfg = parse_config(f"scenario = morphing\nmethod = left\n{rest}\nt_end = 0.5\nout_dir = {tmp_path}")
    assert run(cfg) == 0
    assert re.search(r" e_w=\S+ \(diagnostic; external moments act\) \(abs\)  e_T=", capsys.readouterr().out)


def test_start_at_rest_exits_zero_with_absolute_errors(tmp_path, capsys):
    cfg = parse_config(f"omega0_x = 0\nomega0_y = 0\nomega0_z = 0\nt_end = 0.1\nout_dir = {tmp_path}")
    assert run(cfg) == 0
    assert "e_T=0.000e+00 (abs)" in capsys.readouterr().out
    for name in ("free_body_mid_trajectory.csv", "free_body_mid_errors.csv"):
        assert len((tmp_path / name).read_text().splitlines()) == 12


def test_rk_blow_up_truncates_with_partial_output(tmp_path, capsys):
    cfg = parse_config(f"method = rk\nh = 3\nt_end = 300\nout_dir = {tmp_path}")
    assert run(cfg) == 3
    captured = capsys.readouterr()
    assert "WARNING: integration stopped early" in captured.err
    assert "non-finite" in captured.err
    assert "(truncated)" in captured.out
    rows = [len((tmp_path / f"free_body_rk_{kind}.csv").read_text().splitlines()) for kind in ("trajectory", "errors")]
    assert rows[0] == rows[1] and 2 <= rows[0] < 101


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario,h", [("free_body", 10), ("morphing", 3)])
def test_huge_but_finite_blow_up_is_warning_free(tmp_path, capsys, scenario, h):
    # accepted rows grow past 1e250 before the run stops; record assembly,
    # summarize and the CSV writers must not overflow on them
    cfg = parse_config(f"scenario = {scenario}\nmethod = rk\nh = {h}\nt_end = 300\nout_dir = {tmp_path}")
    assert run(cfg) == 3
    captured = capsys.readouterr()
    assert "RuntimeWarning" not in captured.err
    assert "non-finite" in captured.err
    assert "(truncated)" in captured.out and "inf" not in captured.out
    traj, errs = (tmp_path / f"{scenario}_rk_{kind}.csv" for kind in ("trajectory", "errors"))
    rows = traj.read_text().splitlines()
    assert 2 <= len(rows) - 1 < 101 and len(errs.read_text().splitlines()) == len(rows)
    assert np.isfinite(np.loadtxt(errs, delimiter=",", skiprows=1)).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["left", "mid", "rk"])
def test_non_finite_initial_energy_exits_three_without_nan(tmp_path, capsys, method):
    # a valid config whose initial energy overflows: the run stops at t = 0
    # with exit code 3 and says why; the undefined e_T prints as n/a. At 1e308
    # the seed history overflows too, and must do so quietly
    for rate in ("omega0_x = 1e200", "omega0_y = 1e308"):
        cfg = parse_config(f"method = {method}\n{rate}\nt_end = 0.1\nout_dir = {tmp_path}")
        assert run(cfg) == 3
        captured = capsys.readouterr()
        assert "(diverged: non-finite initial energy or momentum)" in captured.err
        assert "steps accepted: 0 (truncated)" in captured.out
        assert "nan" not in captured.out and "e_T=n/a" in captured.out


def test_singular_jacobian_truncates_with_partial_output(tmp_path, capsys, monkeypatch):
    solve = integrators.newton_solve
    calls = []

    def failing_solve(*args, **kwargs):
        calls.append(1)
        if len(calls) > 5:
            raise SingularJacobianError("singular Jacobian: injected")
        return solve(*args, **kwargs)

    monkeypatch.setattr(integrators, "newton_solve", failing_solve)
    cfg = parse_config(f"method = left\nt_end = 1\nout_dir = {tmp_path}")
    assert run(cfg) == 3
    captured = capsys.readouterr()
    assert "(singular Jacobian: injected)" in captured.err
    assert "steps accepted: 5 (truncated)" in captured.out
    for name in ("free_body_left_trajectory.csv", "free_body_left_errors.csv"):
        assert len((tmp_path / name).read_text().splitlines()) == 7


def test_run_output_failure_exit_code(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    cfg = parse_config(f"t_end = 0.05\nout_dir = {blocker}")
    assert run(cfg) == 4
    assert "output failed:" in capsys.readouterr().err


def test_single_step_run_writes_two_rows(tmp_path):
    cfg = parse_config(f"h = 0.01\nt_end = 0.01\nout_dir = {tmp_path}")
    assert run(cfg) == 0
    lines = (tmp_path / "free_body_mid_trajectory.csv").read_text().splitlines()
    assert len(lines) == 3


def test_compare_table_and_ratios(tmp_path, capsys):
    cfgs = [
        parse_config(f"method = mid\nh = 0.02\nt_end = 0.5\nout_dir = {tmp_path}"),
        parse_config(f"method = mid\nh = 0.01\nt_end = 0.5\nout_dir = {tmp_path}"),
    ]
    assert compare(cfgs) == 0
    out = capsys.readouterr().out
    assert "config" in out and "e_T" in out
    assert "mid h=0.02" in out and "mid h=0.01" in out
    assert "e_T(mid h=0.02) / e_T(mid h=0.01) =" in out
    # per-config tags keep the four output files apart
    assert (tmp_path / "free_body_mid_1_trajectory.csv").is_file()
    assert (tmp_path / "free_body_mid_2_trajectory.csv").is_file()


def test_compare_exits_with_a_later_configs_failure_code(tmp_path, capsys):
    # the second config's Newton is starved: the first config's CSVs are written and no table is printed
    text = f"t_end = 0.1\nout_dir = {tmp_path}\n"
    assert compare([parse_config(text), parse_config(text + "max_iter = 1")]) == 3
    out = capsys.readouterr().out
    assert not any(line.startswith("config") or " / " in line for line in out.splitlines())
    for kind in ("trajectory", "errors"):
        assert len((tmp_path / f"free_body_mid_1_{kind}.csv").read_text().splitlines()) == 12


@pytest.mark.parametrize("scenario", ["free_body", "morphing", "custom"])
def test_compare_marks_a_torque_driven_e_w(tmp_path, capsys, scenario):
    # the damped morphing e_w is a diagnostic, as in run; the rigid scenarios print as before
    text = f"scenario = {scenario}\nt_end = 0.1\nout_dir = {tmp_path}\nmethod = "
    cfgs = [parse_config(text + method) for method in ("left", "mid")]
    assert compare(cfgs) == 0
    lines = capsys.readouterr().out.splitlines()
    below_table = lines[next(k for k, line in enumerate(lines) if line.startswith("config")) + 3]
    ratios = [line for line in lines if " / " in line]
    note = " (diagnostic; external moments act)"
    assert len(ratios) == 3
    if scenario == "morphing":
        assert below_table == "e_w" + note
        assert all(line.endswith(note) == line.startswith("e_w(") for line in ratios)
    else:
        assert below_table == "" and "diagnostic" not in "\n".join(lines)
        assert all(re.fullmatch(r"(e_[xwT])\(.+\) / \1\(.+\) = \S+", line) for line in ratios)


@pytest.mark.parametrize("left_e_T, want", [(None, "inf"), (np.nan, "n/a")], ids=["x-over-0", "nan-over-0"])
def test_compare_prints_n_a_for_a_zero_over_zero_ratio(tmp_path, capsys, monkeypatch, left_e_T, want):
    # a start at rest has zero error on every leg: 0/0 is undefined, x/0 stays inf;
    # a NaN error (undefined against a non-finite initial value) over 0 is undefined too
    def summarize_left(rec):
        report = summarize(rec)
        if rec.method == "left" and left_e_T is not None:
            report.e_T[-1] = left_e_T
        return report

    monkeypatch.setattr("qvint.cli.summarize", summarize_left)
    rest = "omega0_x = 0\nomega0_y = 0\nomega0_z = 0\n"
    text = f"t_end = 0.1\nout_dir = {tmp_path}\nmethod = "
    cfgs = [parse_config(text + "left"), parse_config(text + "mid\n" + rest), parse_config(text + "rk\n" + rest)]
    assert compare(cfgs) == 0
    ratios = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines() if " / " in line)
    assert ratios["e_T(left h=0.01) / e_T(mid h=0.01)"] == want
    for leg in ("e_x", "e_w", "e_T"):
        assert ratios[f"{leg}(mid h=0.01) / {leg}(rk h=0.01)"] == "n/a"


def test_compare_marks_absolute_and_undefined_errors_as_run_does(tmp_path, capsys, monkeypatch):
    # a start at rest has zero energy and momenta, so each error of its row is an absolute deviation;
    # a NaN error (undefined against a non-finite initial value) prints as n/a, not nan
    def summarize_spin(rec):
        report = summarize(rec)
        if rec.method == "mid":
            report.e_T[-1] = np.nan
        return report

    monkeypatch.setattr("qvint.cli.summarize", summarize_spin)
    text = f"t_end = 0.1\nout_dir = {tmp_path}\nmethod = "
    cfgs = [parse_config(text + "rk\nomega0_x = 0\nomega0_y = 0\nomega0_z = 0"), parse_config(text + "mid")]
    assert compare(cfgs) == 0
    lines = capsys.readouterr().out.splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith("config"))
    header, rest, spin = lines[k : k + 3]
    assert re.fullmatch(r"config +e_x +e_w +e_T", header)
    assert re.fullmatch(r"rk h=0\.01 (  0\.0000e\+00 \(abs\)){3}", rest)
    assert re.fullmatch(r"mid h=0\.01( +\d\.\d{4}e-\d\d){2} +n/a", spin)
    assert len(header) == len(rest) == len(spin)
    ratios = dict(line.split(" = ") for line in lines if " / " in line)
    assert ratios == {f"{e}(rk h=0.01) / {e}(mid h=0.01)": v for e, v in [("e_x", "0"), ("e_w", "0"), ("e_T", "n/a")]}


@pytest.mark.parametrize("t_end", ["1e300", "1"])
def test_step_count_past_2_pow_53_is_a_config_error(tmp_path, capsys, t_end):
    # an infinite (t_end - t0)/h, or a finite one past 2**53 steps, once ended in a traceback
    cfg = tmp_path / "tiny_h.cfg"
    cfg.write_text(f"h = 1e-300\nt_end = {t_end}\nout_dir = {tmp_path}")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: line 2:" in err and "2**53" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_nul_byte_in_out_dir_is_a_config_error_before_any_run(tmp_path, capsys, monkeypatch, command):
    # out_dir's mkdir once raised ValueError: embedded null byte after the whole run, a traceback and exit 1
    runs = []
    monkeypatch.setattr("qvint.cli.integrate", lambda *args, **kwargs: runs.append(args))
    good, bad = tmp_path / "good.cfg", tmp_path / "bad.cfg"
    good.write_text(f"t_end = 0.05\nout_dir = {tmp_path}")
    bad.write_text(f"t_end = 0.05\nout_dir = {tmp_path}/a\0b\n")
    assert main([command, str(bad)] if command == "run" else [command, str(good), str(bad)]) == 2
    assert "config error: line 2: 'out_dir' must not contain a NUL byte" in capsys.readouterr().err
    assert runs == [] and not list(tmp_path.rglob("*.csv"))


def test_compare_guards():
    with pytest.raises(ConfigError):
        compare([parse_config("")])


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text(f"t_end = 0.05\nout_dir = {tmp_path}")
    assert main(["run", str(good)]) == 0
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("h = -3")
    assert main(["run", str(bad)]) == 2
    assert "config error: line 1:" in capsys.readouterr().err
    other = tmp_path / "other.cfg"
    other.write_text(f"scenario = morphing\nt_end = 0.05\nout_dir = {tmp_path}")
    assert main(["compare", str(good), str(other)]) == 2
    assert "share a scenario" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command):
    good = tmp_path / "good.cfg"
    good.write_text(f"t_end = 0.05\nout_dir = {tmp_path}")
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"h = 0.01\n\xff\n")
    assert main([command, str(bad)] if command == "run" else [command, str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}: ") and "can't decode byte 0xff" in err


def test_a_config_saved_with_a_byte_order_mark_runs_as_one_without(tmp_path):
    # Windows Notepad starts a UTF-8 file with EF BB BF; read as plain UTF-8 it would prefix the first key
    for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(mark + f"method = left\nt_end = 0.05\nout_dir = {tmp_path / name}\n".encode())
        assert main(["run", str(cfg)]) == 0
    for csv in ("free_body_left_trajectory.csv", "free_body_left_errors.csv"):
        assert (tmp_path / "marked" / csv).read_bytes() == (tmp_path / "plain" / csv).read_bytes()


@pytest.mark.filterwarnings("error")
def test_a_custom_run_whose_state_turns_non_finite_exits_three(tmp_path, capsys):
    # one step of h = 1e155 at 1e153 carries x_e from 1e308 past the float range
    text = "scenario = custom\nx0_x = 1e308\nxdot0_x = 1e153\nomega0_x = 0\nomega0_y = 0\nomega0_z = 0\n"
    for method in ("left", "mid", "rk"):
        cfg = parse_config(f"{text}method = {method}\nh = 1e155\nt_end = 1e155\nout_dir = {tmp_path}")
        assert run(cfg) == 3
        captured = capsys.readouterr()
        assert "(BodyState.x_e has non-finite components)" in captured.err
        assert "steps accepted: 0 (truncated)" in captured.out


WARNING_LINE = re.compile(r"WARNING: integration stopped early at t=\S+ \(.+\); partial output written")
Q0_NOTE = re.compile(r"WARNING: q0 is off unit norm by \S+; normalizing")


@settings(max_examples=30, deadline=None)
@given(
    scenario=st.sampled_from(["free_body", "morphing", "custom"]),
    method=st.sampled_from(["left", "mid", "rk"]),
    h=st.floats(0.005, 0.5),
    t_end=st.floats(0.001, 0.5),
    omega0=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
    xdot0=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
)
def test_random_valid_configs_end_in_a_documented_way(scenario, method, h, t_end, omega0, xdot0):
    # every valid config exits 0 or 3, writes nothing to stderr but the
    # documented early-stop warning, warns nothing, and a converged variational
    # run conserves translational momentum to 1e-12
    lines = [f"scenario = {scenario}", f"method = {method}", f"h = {h!r}", f"t_end = {t_end!r}"]
    lines += [f"omega0_{c} = {w!r}" for c, w in zip("xyz", omega0)]
    lines += [f"xdot0_{c} = {v!r}" for c, v in zip("xyz", xdot0)]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("\n".join(lines + [f"out_dir = {tmp}"]), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(cfg)])
    assert code in (0, 3)
    assert not caught, [str(w.message) for w in caught]
    stderr = err.getvalue()
    assert stderr == "" or (code == 3 and WARNING_LINE.fullmatch(stderr.rstrip("\n"))), stderr
    if code == 0 and method != "rk":
        e_x = float(re.search(r"e_x=(\S+)", out.getvalue()).group(1))
        assert e_x <= 1e-12



#: fuzzed config values: zero, negatives, non-finite, huge, empty, non-numbers and unknown choices, drawn
#: as often as a value valid for the key (FUZZ_VALID, or else a number)
FUZZ_VALUES = ["0", "-1", "-1e-9", "nan", "inf", "-inf", "1e308", "", "abc", "1,5", "sideways"]
FUZZ_VALID = {"scenario": ["free_body", "morphing", "custom"], "method": ["left", "mid", "rk"], "max_iter": ["1", "50"]}
#: h and t_end values that are invalid or keep a run (from h = 0.05, t_end = 0.2) to at most 4 steps
FUZZ_RUN_LENGTH = {
    "h": ["0", "-1", "nan", "inf", "", "abc", "0.05", "0.1", "0.2", "1e308"],
    "t_end": ["0", "-1", "nan", "inf", "", "abc", "0.05", "0.1", "0.2", "1e-300", "1e308"],
}


def fuzz_line(key: str):
    """A 'key = value' line for key, or a line without '=' for the empty key."""
    if not key:
        return st.sampled_from(["h 0.05", "method", "free_body mid", "h: 0.1"])
    if key in FUZZ_RUN_LENGTH:
        values = st.sampled_from(FUZZ_RUN_LENGTH[key])
    else:
        valid = FUZZ_VALID.get(key, ["0.5", "1", "-0.25", "3e2"])
        values = st.one_of(st.sampled_from(valid), st.sampled_from(FUZZ_VALUES))
    return values.map(lambda v: f"{key} = {v}")


FUZZ_LINE = st.sampled_from([k for k in _DEFAULTS if k != "out_dir"] + ["wingspan", ""]).flatmap(fuzz_line)


@settings(max_examples=60, deadline=None)
@given(lines=st.lists(FUZZ_LINE, min_size=1, max_size=6))
def test_any_config_text_ends_in_a_documented_exit_code(lines):
    # exit 0, 2 or 3 and no exception; "config error:" on stderr exactly for 2; both CSVs for 0 and 3, none
    # for 2; nothing warns, and every stderr line is a config error, the early-stop line or the q0 note
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg, out_dir = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text("\n".join(["h = 0.05", "t_end = 0.2", *lines, f"out_dir = {out_dir}"]), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(cfg)])
        csvs = sorted(p.name for p in out_dir.glob("*.csv"))
    assert code in (0, 2, 3)
    assert ("config error:" in err.getvalue()) == (code == 2), err.getvalue()
    if code == 2:
        assert csvs == []
    else:
        assert len(csvs) == 2 and csvs == [csvs[0], csvs[0].replace("_errors.csv", "_trajectory.csv")], csvs
    assert not caught, [str(w.message) for w in caught]
    for line in err.getvalue().splitlines():
        assert line.startswith("config error: ") or WARNING_LINE.fullmatch(line) or Q0_NOTE.fullmatch(line), line
