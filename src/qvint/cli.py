"""Command-line front end: scenario presets, CSV emission, run summaries.

Configs are line-oriented ``key = value`` text with ``#`` comments. Two
subcommands: ``run`` executes one config and writes a trajectory CSV plus an
error CSV; ``compare`` executes several configs on the same scenario and
prints a side-by-side final-error table with pairwise ratios.

Exit codes: 0 success, 2 bad config (including an unreadable config file),
3 integration failure (partial CSV output is still written and flagged),
4 output I/O failure.

Floats are serialized with 17 significant digits, so parsing an emitted
trajectory CSV recovers the recorded states bit-identically and repeated
identical runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .diagnostics import ErrorReport, TrajectoryRecord, _momenta, net_pitch, summarize
from .integrators import _METHODS, SolverConfig, _step_count, integrate
from .model import BodyState, constant_schedule, preset_free_body, preset_morphing

Array = np.ndarray

_TRAJ_HEADER = (
    "t,qw,qx,qy,qz,xe_x,xe_y,xe_z,xdotb_x,xdotb_y,xdotb_z,"
    "omegab_x,omegab_y,omegab_z,T,Px_x,Px_y,Px_z,Pw_x,Pw_y,Pw_z,newton_iters"
)
_ERR_HEADER = "t,e_x,e_w,e_T"

#: marks a torque-driven e_w: a diagnostic, not a conservation error
_DIAGNOSTIC = " (diagnostic; external moments act)"


class ConfigError(ValueError):
    """Invalid run configuration; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message)

    def __str__(self) -> str:
        msg = super().__str__()
        return f"line {self.line}: {msg}" if self.line is not None else msg


@dataclass(frozen=True)
class RunConfig:
    """A parsed config. The field defaults are the config defaults; parse_config gives each vector as a float array."""

    scenario: str = "free_body"
    method: str = "mid"
    h: float = 0.01
    t_end: float = 50.0
    q0: Array = (1.0, 0.0, 0.0, 0.0)
    x0: Array = (0.0, 0.0, 0.0)
    xdot0: Array = (0.0, 0.0, 0.0)
    omega0: Array = (1.0, 1.0, 1.0)
    tol: float = 1e-12
    max_iter: int = 50
    out_dir: str = "."


_VECTORS = {"q0": "wxyz", "x0": "xyz", "xdot0": "xyz", "omega0": "xyz"}

#: config keys and their defaults: RunConfig's fields, each vector split into one key per component
_DEFAULTS = {
    key: default
    for f in fields(RunConfig)
    for key, default in (
        zip([f"{f.name}_{c}" for c in _VECTORS[f.name]], f.default) if f.name in _VECTORS else [(f.name, f.default)]
    )
}
_TYPE_NAMES = {int: "an integer", float: "a number"}
_CHOICES = {"scenario": ("free_body", "morphing", "custom"), "method": _METHODS}
_POSITIVE_KEYS = ("h", "t_end", "tol")


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` config text; later assignments override earlier ones.

    Each value is read as the type of its key's default. Unknown keys,
    unparseable values and invariant violations raise ConfigError with the
    offending line number. A q0 that is off unit norm by more than 1e-6 is
    normalized with a warning; a zero q0 is an error.
    """
    vals = dict(_DEFAULTS)
    lines: dict[str, int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", ln)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown key {key!r}", ln)
        if not value:
            raise ConfigError(f"empty value for {key!r}", ln)
        kind = type(_DEFAULTS[key])
        try:
            parsed = kind(value)
        except ValueError:  # a str never fails
            raise ConfigError(f"cannot parse {key!r} as {_TYPE_NAMES[kind]}: {value!r}", ln) from None
        if key in _CHOICES and parsed not in _CHOICES[key]:
            raise ConfigError(f"{key} must be one of {_CHOICES[key]}, got {value!r}", ln)
        if kind is int and parsed < 1:
            raise ConfigError(f"{key} must be at least 1", ln)
        if kind is float and not math.isfinite(parsed):
            raise ConfigError(f"{key!r} must be finite", ln)
        if key in _POSITIVE_KEYS and not parsed > 0.0:
            raise ConfigError(f"{key!r} must be positive", ln)
        vals[key] = parsed
        lines[key] = ln

    try:  # build_scenario starts every run at t = 0
        _step_count(0.0, vals["t_end"], vals["h"])
    except ValueError as exc:
        raise ConfigError(str(exc), max(lines.get("h", 0), lines.get("t_end", 0)) or None) from None
    vectors = {n: np.array([vals.pop(f"{n}_{c}") for c in cs], dtype=float) for n, cs in _VECTORS.items()}
    q0 = vectors["q0"]
    norm = math.hypot(*q0)  # no underflow; inf only past the float range
    if norm == 0.0:
        where = max((lines[k] for k in lines if k.startswith("q0_")), default=None)
        raise ConfigError("q0 must be nonzero", where)
    if abs(norm - 1.0) > 1e-6:
        warnings.warn(f"q0 is off unit norm by {abs(norm - 1.0):.3g}; normalizing", stacklevel=2)
    q0 = np.ldexp(q0, -math.frexp(np.abs(q0).max())[1])  # an exact power-of-two scaling that keeps the norm finite
    vectors["q0"] = q0 / math.hypot(*q0)
    return RunConfig(**vals, **vectors)


def build_scenario(cfg: RunConfig):
    """Materialize a config: initial state, schedule, solver config, rigid params.

    free_body and custom use the rigid aircraft fixture (custom differs only
    in the initial conditions the user supplies); morphing uses the
    oscillatory wing schedule with its damping torque enabled.
    """
    if cfg.scenario == "morphing":
        sched = preset_morphing(damping=True)
        rp = None
    else:
        cset, rp = preset_free_body()
        sched = constant_schedule(cset, name=cfg.scenario)
    initial = BodyState(0.0, cfg.q0, cfg.x0, cfg.xdot0, cfg.omega0)
    scfg = SolverConfig(h=cfg.h, residual_tol=cfg.tol, max_iter=cfg.max_iter)
    return initial, sched, scfg, rp


def _write_csv(path: Path, header: str, columns) -> None:
    with open(path, "w", encoding="utf-8") as fh:  # savetxt given a name opens the file twice
        np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",", header=header, comments="")


def write_trajectory_csv(rec: TrajectoryRecord, path: Path) -> None:
    """Emit the fixed-schema trajectory CSV (physical momenta when available)."""
    px, pw = _momenta(rec)
    cols = (rec.t, rec.q, rec.x_e, rec.xdot_b, rec.omega_b, rec.energy, px, pw, rec.newton_iters)
    _write_csv(path, _TRAJ_HEADER, cols)


def write_error_csv(rec: TrajectoryRecord, path: Path, report: ErrorReport | None = None) -> None:
    """Emit instantaneous deviation series (not running maxima) for plotting; report is summarize(rec) if not given."""
    _write_csv(path, _ERR_HEADER, (rec.t, *(summarize(rec) if report is None else report).instantaneous))


def read_trajectory_csv(path: Path) -> dict[str, Array]:
    """Parse an emitted trajectory CSV back into column arrays.

    Raises ValueError unless the file has at least one data row and every row
    has one cell per header name.
    """
    header, *rows = Path(path).read_text(encoding="utf-8").splitlines() or [""]
    names = header.split(",")
    if not any(row.strip() for row in rows):  # loadtxt would only warn
        raise ValueError(f"{path}: no data rows")
    cols = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2).T
    if len(cols) != len(names):
        raise ValueError(f"{path}: {len(names)} header names but {len(cols)} cells per row")
    return {name: col.astype(int if name == "newton_iters" else float) for name, col in zip(names, cols)}


def _execute(cfg: RunConfig, tag: str = ""):
    """Run one config, write its CSVs, return (record, report, wall, code)."""
    initial, sched, scfg, rp = build_scenario(cfg)
    start = time.perf_counter()
    rec = integrate(initial, sched, scfg, cfg.method, cfg.t_end, rigid_params=rp)
    wall = time.perf_counter() - start
    stem = f"{cfg.scenario}_{cfg.method}" + (f"_{tag}" if tag else "")
    report = summarize(rec)  # its instantaneous series are the error CSV's
    try:
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        traj = out_dir / f"{stem}_trajectory.csv"
        errs = out_dir / f"{stem}_errors.csv"
        write_trajectory_csv(rec, traj)
        write_error_csv(rec, errs, report)
    except OSError as exc:
        print(f"output failed: {exc}", file=sys.stderr)
        return None, None, 0.0, 4
    print(f"wrote: {traj} {errs}")
    if rec.truncated:
        print(
            f"WARNING: integration stopped early at t={rec.t[-1]:g} "
            f"({rec.stop_reason}); partial output written",
            file=sys.stderr,
        )
    return rec, report, wall, 3 if rec.truncated else 0


def _error_strings(report: ErrorReport, digits: int, ew_note: str) -> list[str]:
    """The final e_x, e_w and e_T, each marked (abs) if absolute; an error undefined against a non-finite
    initial value prints as n/a."""
    errors = (report.final_e_x, report.final_e_w, report.final_e_T)
    absolute = (report.e_x_absolute, report.e_w_absolute, report.e_T_absolute)
    notes = ("", ew_note, "")
    return [
        f"{e:.{digits}e}{note}{' (abs)' if a else ''}" if math.isfinite(e) else "n/a"
        for e, a, note in zip(errors, absolute, notes)
    ]


def run(cfg: RunConfig) -> int:
    """Execute one config and print a one-screen summary."""
    rec, report, wall, code = _execute(cfg)
    if rec is None:
        return code
    ex, ew, et = _error_strings(report, 3, _DIAGNOSTIC if report.e_w_diagnostic else "")
    accepted = len(rec) - 1
    # integrate takes round(t_end / h) steps, so a run can end off t_end
    t_end, reached = f"{cfg.t_end:g}", f"{rec.t[-1]:g}"
    if reached != t_end:
        t_end += f" (reached t={reached})"
    print(f"run: scenario={rec.scenario} method={rec.method} h={rec.h:g} t_end={t_end}")
    print(f"steps accepted: {accepted}" + (" (truncated)" if rec.truncated else ""))
    print(f"final errors: e_x={ex}  e_w={ew}  e_T={et}")
    iters = rec.newton_iters[1:]
    mean_iters = float(iters.mean()) if iters.size else 0.0
    print(f"mean Newton iterations: {mean_iters:.2f}")
    print(f"wall time: {wall:.2f} s")
    if cfg.scenario == "morphing":
        print(f"net pitch change: {net_pitch(rec):+.4f} rad")
    return code


def compare(cfgs: list[RunConfig]) -> int:
    """Run several configs on one scenario; print final errors and pairwise ratios."""
    if len(cfgs) < 2:
        raise ConfigError("compare needs at least two configs")
    if len({c.scenario for c in cfgs}) != 1:
        raise ConfigError("compare requires all configs to share a scenario")
    rows, cells = [], []
    for i, cfg in enumerate(cfgs, start=1):
        rec, report, wall, code = _execute(cfg, tag=str(i))
        if code != 0:
            return code
        ew_note = _DIAGNOSTIC if report.e_w_diagnostic else ""  # one scenario, so one note for every row
        rows.append((f"{cfg.method} h={cfg.h:g}", report.final_e_x, report.final_e_w, report.final_e_T))
        cells.append(_error_strings(report, 4, ""))
    width = max(len(r[0]) for r in rows)
    cw = max(12, *(len(c) for row in cells for c in row))
    print(f"\n{'config'.ljust(width)}  {'e_x':>{cw}}  {'e_w':>{cw}}  {'e_T':>{cw}}")
    for (label, *_), (ex, ew, et) in zip(rows, cells):
        print(f"{label.ljust(width)}  {ex:>{cw}}  {ew:>{cw}}  {et:>{cw}}")
    print(f"e_w{ew_note}\n" if ew_note else "")
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            la, *va = rows[i]
            lb, *vb = rows[j]
            for name, a, b in zip(("e_x", "e_w", "e_T"), va, vb):
                ratio = a / b if b != 0.0 else math.inf if a > 0.0 else math.nan  # 0/0 and NaN/0 are undefined
                shown = "n/a" if math.isnan(ratio) else f"{ratio:.3g}"
                print(f"{name}({la}) / {name}({lb}) = {shown}" + (ew_note if name == "e_w" else ""))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvint",
        description="Quaternion variational integrator simulation runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute one config file")
    p_run.add_argument("config", help="path to a key = value config file")
    p_cmp = sub.add_parser("compare", help="execute several configs and compare errors")
    p_cmp.add_argument("configs", nargs="+", help="two or more config files sharing a scenario")
    return parser


def _load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:  # an unreadable config, like a missing one
        raise ConfigError(f"{path}: {exc}") from None
    return parse_config(text)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run(_load_config(args.config))
        return compare([_load_config(p) for p in args.configs])
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
