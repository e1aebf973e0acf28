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

from .diagnostics import TrajectoryRecord, energy_error, momentum_errors, net_pitch, summarize
from .integrators import _METHODS, SolverConfig, _step_count, integrate
from .model import BodyState, constant_schedule, preset_free_body, preset_morphing

Array = np.ndarray

_SCENARIOS = ("free_body", "morphing", "custom")

_TRAJ_HEADER = (
    "t,qw,qx,qy,qz,xe_x,xe_y,xe_z,xdotb_x,xdotb_y,xdotb_z,"
    "omegab_x,omegab_y,omegab_z,T,Px_x,Px_y,Px_z,Pw_x,Pw_y,Pw_z,newton_iters"
)
_ERR_HEADER = "t,e_x,e_w,e_T"


class ConfigError(ValueError):
    """Invalid run configuration; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message)

    def __str__(self) -> str:
        msg = super().__str__()
        return f"line {self.line}: {msg}" if self.line is not None else msg


#: config keys and their defaults; each vector is split into one key per component
_DEFAULTS: dict[str, object] = {
    "scenario": "free_body",
    "method": "mid",
    "h": 0.01,
    "t_end": 50.0,
    "omega0_x": 1.0,
    "omega0_y": 1.0,
    "omega0_z": 1.0,
    "xdot0_x": 0.0,
    "xdot0_y": 0.0,
    "xdot0_z": 0.0,
    "q0_w": 1.0,
    "q0_x": 0.0,
    "q0_y": 0.0,
    "q0_z": 0.0,
    "x0_x": 0.0,
    "x0_y": 0.0,
    "x0_z": 0.0,
    "tol": 1e-12,
    "max_iter": 50,
    "out_dir": ".",
}

_VECTORS = {"q0": "wxyz", "x0": "xyz", "xdot0": "xyz", "omega0": "xyz"}


def _vector(vals: dict[str, object], name: str) -> Array:
    return np.array([vals[f"{name}_{c}"] for c in _VECTORS[name]], dtype=float)


@dataclass(frozen=True)
class RunConfig:
    """A parsed config; parse_config fills every field from _DEFAULTS and the text."""

    scenario: str
    method: str
    h: float
    t_end: float
    q0: Array
    x0: Array
    xdot0: Array
    omega0: Array
    tol: float
    max_iter: int
    out_dir: str


_POSITIVE_KEYS = ("h", "t_end", "tol")


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` config text; later assignments override earlier ones.

    Unknown keys, unparseable values and invariant violations raise
    ConfigError with the offending line number. A q0 that is off unit norm by
    more than 1e-6 is normalized with a warning; a zero q0 is an error.
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
        if key == "scenario":
            if value not in _SCENARIOS:
                raise ConfigError(f"scenario must be one of {_SCENARIOS}, got {value!r}", ln)
            parsed: object = value
        elif key == "method":
            if value not in _METHODS:
                raise ConfigError(f"method must be one of {_METHODS}, got {value!r}", ln)
            parsed = value
        elif key == "max_iter":
            try:
                parsed = int(value)
            except ValueError:
                raise ConfigError(f"cannot parse 'max_iter' as an integer: {value!r}", ln) from None
            if parsed < 1:
                raise ConfigError("max_iter must be at least 1", ln)
        elif key == "out_dir":
            parsed = value
        else:
            try:
                parsed = float(value)
            except ValueError:
                raise ConfigError(f"cannot parse {key!r} as a number: {value!r}", ln) from None
            if not np.isfinite(parsed):
                raise ConfigError(f"{key!r} must be finite", ln)
            if key in _POSITIVE_KEYS and not parsed > 0.0:
                raise ConfigError(f"{key!r} must be positive", ln)
        vals[key] = parsed
        lines[key] = ln

    try:  # build_scenario starts every run at t = 0
        _step_count(0.0, vals["t_end"], vals["h"])
    except ValueError as exc:
        raise ConfigError(str(exc), max(lines.get("h", 0), lines.get("t_end", 0)) or None) from None
    q0 = _vector(vals, "q0")
    norm = float(np.linalg.norm(q0))
    if norm == 0.0:
        where = max((lines[k] for k in lines if k.startswith("q0_")), default=None)
        raise ConfigError("q0 must be nonzero", where)
    if abs(norm - 1.0) > 1e-6:
        warnings.warn(f"q0 is off unit norm by {abs(norm - 1.0):.3g}; normalizing", stacklevel=2)
    vectors = {name: _vector(vals, name) for name in _VECTORS}
    vectors["q0"] = q0 / norm
    scalars = {f.name: vals[f.name] for f in fields(RunConfig) if f.name not in _VECTORS}
    return RunConfig(**scalars, **vectors)


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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(rec: TrajectoryRecord, path: Path) -> None:
    """Emit the fixed-schema trajectory CSV (physical momenta when available)."""
    px = rec.P_x if rec.P_x is not None else rec.p_x
    pw = rec.P_w if rec.P_w is not None else rec.p_w
    out = [_TRAJ_HEADER]
    for k in range(len(rec)):
        floats = (
            rec.t[k],
            *rec.q[k],
            *rec.x_e[k],
            *rec.xdot_b[k],
            *rec.omega_b[k],
            rec.energy[k],
            *px[k],
            *pw[k],
        )
        out.append(",".join(_fmt(v) for v in floats) + f",{int(rec.newton_iters[k])}")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def write_error_csv(rec: TrajectoryRecord, path: Path) -> None:
    """Emit instantaneous deviation series (not running maxima) for plotting."""
    e_x, e_w = momentum_errors(rec, running=False)
    e_t = energy_error(rec, running=False)
    out = [_ERR_HEADER]
    for k in range(len(rec)):
        out.append(",".join(_fmt(v) for v in (rec.t[k], e_x[k], e_w[k], e_t[k])))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def read_trajectory_csv(path: Path) -> dict[str, Array]:
    """Parse an emitted trajectory CSV back into column arrays."""
    rows = [line for line in Path(path).read_text(encoding="utf-8").splitlines() if line]
    names = rows[0].split(",")
    cols: dict[str, list[float]] = {name: [] for name in names}
    for row in rows[1:]:
        for name, cell in zip(names, row.split(",")):
            cols[name].append(float(cell))
    out: dict[str, Array] = {}
    for name, values in cols.items():
        out[name] = np.array(values, dtype=int if name == "newton_iters" else float)
    return out


def _execute(cfg: RunConfig, tag: str = ""):
    """Run one config, write its CSVs, return (record, report, wall, code)."""
    initial, sched, scfg, rp = build_scenario(cfg)
    start = time.perf_counter()
    rec = integrate(initial, sched, scfg, cfg.method, cfg.t_end, rigid_params=rp)
    wall = time.perf_counter() - start
    stem = f"{cfg.scenario}_{cfg.method}" + (f"_{tag}" if tag else "")
    try:
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        traj = out_dir / f"{stem}_trajectory.csv"
        errs = out_dir / f"{stem}_errors.csv"
        write_trajectory_csv(rec, traj)
        write_error_csv(rec, errs)
    except OSError as exc:
        print(f"output failed: {exc}", file=sys.stderr)
        return None, None, 0.0, 4
    report = summarize(rec)
    print(f"wrote: {traj} {errs}")
    if rec.truncated:
        print(
            f"WARNING: integration stopped early at t={rec.t[-1]:g} "
            f"({rec.stop_reason}); partial output written",
            file=sys.stderr,
        )
    return rec, report, wall, 3 if rec.truncated else 0


def _final_e_w(rec: TrajectoryRecord, report) -> tuple[float, str]:
    """Final e_w and its label, which marks a torque-driven e_w as a diagnostic, not a conservation error."""
    if report.e_w is None:
        return float(momentum_errors(rec, running=True)[1][-1]), " (diagnostic; external moments act)"
    return report.final_e_w, ""


def _error_strings(rec: TrajectoryRecord, report) -> tuple[str, str, str]:
    def fmt(e: float, note: str) -> str:  # undefined against a non-finite initial value
        return f"{e:.3e}{note}" if math.isfinite(e) else "n/a"

    ew, ew_note = _final_e_w(rec, report)
    ex = fmt(report.final_e_x, " (abs)" if report.e_x_absolute else "")
    et = fmt(report.final_e_T, " (abs)" if report.e_T_absolute else "")
    return ex, fmt(ew, ew_note + (" (abs)" if report.e_w_absolute else "")), et


def run(cfg: RunConfig) -> int:
    """Execute one config and print a one-screen summary."""
    rec, report, wall, code = _execute(cfg)
    if rec is None:
        return code
    ex, ew, et = _error_strings(rec, report)
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
    rows = []
    for i, cfg in enumerate(cfgs, start=1):
        rec, report, wall, code = _execute(cfg, tag=str(i))
        if code != 0:
            return code
        ew, ew_note = _final_e_w(rec, report)  # one scenario, so one note for every row
        rows.append((f"{cfg.method} h={cfg.h:g}", report.final_e_x, ew, report.final_e_T))
    width = max(len(r[0]) for r in rows)
    print(f"\n{'config'.ljust(width)}  {'e_x':>12}  {'e_w':>12}  {'e_T':>12}")
    for label, ex, ew, et in rows:
        print(f"{label.ljust(width)}  {ex:12.4e}  {ew:12.4e}  {et:12.4e}")
    print(f"e_w{ew_note}\n" if ew_note else "")
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            la, *va = rows[i]
            lb, *vb = rows[j]
            for name, a, b in zip(("e_x", "e_w", "e_T"), va, vb):
                ratio = a / b if b != 0.0 else float("inf")
                print(f"{name}({la}) / {name}({lb}) = {ratio:.3g}" + (ew_note if name == "e_w" else ""))
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
    return parse_config(Path(path).read_text(encoding="utf-8"))


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
