"""The benchmark's workloads: seeded inputs, the program calls, and the output checks.

Each workload turns a seed into inputs (`inputs`), builds what the program
needs before its first step (`setup`, the part `setup_s` times in a fresh
process), runs one unit of work (`work`, the part `us_per_step` times) and
checks the outputs of that unit (`check`). The program only ever sees the
generated inputs.

The program is called through module attributes (`integrators.integrate`,
`diagnostics.summarize`, `cli.main`) so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qvint import cli, diagnostics, integrators, model, quat

H = 0.01

#: length of one unit of work [s of model time], 100 steps at H. Short units
#: give many timing samples per run, which the run's estimator needs (run.py).
T_END = 1.0

#: half-width of the uniform seed perturbation of omega0 and xdot0. Small
#: enough that the Newton counts and the reference bounds below hold for
#: every seed, large enough that two seeds give different trajectories.
PERTURB = 1e-3

#: criterion-1 contract for the variational schemes (RK is exempt)
E_X_MAX = 1e-12
QNORM_MAX = 1e-12

#: allowed factor between a run's final e_T / e_w and the baseline-commit value
#: measured at the unperturbed inputs (the band is two-sided, so a run that
#: stops moving fails as well as one that loses accuracy)
ERROR_BAND = 1.5

#: morphing_mid: allowed distance from the baseline-commit net pitch [rad] and
#: final body rate [rad/s] at the unperturbed inputs
PITCH_TOL = 1e-2
OMEGA_TOL = 1e-2


@dataclass(frozen=True)
class Reference:
    """Baseline-commit values of one method's run at the unperturbed inputs.

    The baseline commit is the one this benchmark was added on; its `src/`
    is the repository's initial code.
    """

    method: str
    e_T: float | None = None
    e_w: float | None = None
    net_pitch: float | None = None
    omega_final: tuple[float, float, float] | None = None


@dataclass
class Outcome:
    """What one unit of work produced: (method, record, csv path or None) and an exit code."""

    runs: list[tuple[str, diagnostics.TrajectoryRecord, Path | None]] = field(default_factory=list)
    code: int = 0

    @property
    def steps(self) -> int:
        return sum(len(rec) - 1 for _, rec, _ in self.runs)


def perturbed(seed: int, omega0, xdot0) -> tuple[np.ndarray, np.ndarray]:
    """omega0 and xdot0 moved by a seeded uniform offset of at most PERTURB."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(-PERTURB, PERTURB, 6)
    return np.asarray(omega0, dtype=float) + d[:3], np.asarray(xdot0, dtype=float) + d[3:]


def check_record(
    rec: diagnostics.TrajectoryRecord, method: str, ref: Reference, expected_steps: int
) -> list[str]:
    """Reasons a record fails the benchmark's output contract (empty when it passes)."""
    reasons = []
    if rec.truncated or len(rec) - 1 != expected_steps:
        reasons.append(f"{method}: truncated at {len(rec) - 1} of {expected_steps} steps")
    qdev = float(np.max(np.abs(np.linalg.norm(rec.q, axis=1) - 1.0)))
    if not qdev <= QNORM_MAX:
        reasons.append(f"{method}: max ||q| - 1| = {qdev:.3g} > {QNORM_MAX:g}")
    rep = diagnostics.summarize(rec)
    if method != "rk" and not rep.final_e_x <= E_X_MAX:
        reasons.append(f"{method}: e_x = {rep.final_e_x:.3g} > {E_X_MAX:g}")
    for name, want, got in (("e_T", ref.e_T, rep.final_e_T), ("e_w", ref.e_w, rep.final_e_w)):
        if want is not None and not (got is not None and want / ERROR_BAND <= got <= want * ERROR_BAND):
            reasons.append(f"{method}: final {name} = {got} outside [{want / ERROR_BAND:.3g}, {want * ERROR_BAND:.3g}]")
    if ref.net_pitch is not None:
        pitch = diagnostics.net_pitch(rec)
        if not abs(pitch - ref.net_pitch) <= PITCH_TOL:
            reasons.append(f"{method}: net pitch {pitch:+.5f} rad, want {ref.net_pitch:+.5f} +- {PITCH_TOL:g}")
    if ref.omega_final is not None:
        dev = float(np.max(np.abs(rec.omega_b[-1] - np.array(ref.omega_final))))
        if not dev <= OMEGA_TOL:
            reasons.append(f"{method}: final omega off the reference by {dev:.3g} > {OMEGA_TOL:g}")
    return reasons


def check_csv_round_trip(rec: diagnostics.TrajectoryRecord, path: Path) -> list[str]:
    """The trajectory CSV must parse back to the record's values exactly."""
    cols = cli.read_trajectory_csv(path)
    px = rec.P_x if rec.P_x is not None else rec.p_x
    pw = rec.P_w if rec.P_w is not None else rec.p_w
    want = {"t": rec.t, "T": rec.energy, "newton_iters": rec.newton_iters}
    for i, c in enumerate("wxyz"):
        want[f"q{c}"] = rec.q[:, i]
    for i, c in enumerate("xyz"):
        want[f"xe_{c}"] = rec.x_e[:, i]
        want[f"xdotb_{c}"] = rec.xdot_b[:, i]
        want[f"omegab_{c}"] = rec.omega_b[:, i]
        want[f"Px_{c}"] = px[:, i]
        want[f"Pw_{c}"] = pw[:, i]
    bad = sorted(k for k, v in want.items() if k not in cols or not np.array_equal(cols[k], v))
    return [f"{path.name}: columns {bad} do not round-trip exactly"] if bad else []


class ModelWorkload:
    """One `integrate` + `summarize` call on a preset, driven from the library API."""

    def __init__(self, name: str, why: str, method: str, t_end: float, ref: Reference, morphing: bool):
        self.name, self.why, self.method, self.t_end = name, why, method, t_end
        self.ref, self.morphing = ref, morphing
        self.steps = round(t_end / H)

    def inputs(self, seed: int) -> dict:
        omega0, xdot0 = perturbed(seed, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        return {"omega0": omega0, "xdot0": xdot0}

    def write_inputs(self, inputs: dict, workdir: Path) -> None:
        """The library workloads take their inputs in memory; nothing to write."""

    def setup(self, inputs: dict, workdir: Path) -> dict:
        if self.morphing:
            sched, rp = model.preset_morphing(damping=True), None
        else:
            cset, rp = model.preset_free_body()
            sched = model.constant_schedule(cset)
        initial = model.BodyState(0.0, quat.identity_quat(), np.zeros(3), inputs["xdot0"], inputs["omega0"])
        return {"initial": initial, "sched": sched, "cfg": integrators.SolverConfig(h=H), "rp": rp, "workdir": workdir}

    def coefficients(self) -> model.CoefficientSet:
        """The workload's coefficient set at t = 0, for the momentum microbenchmark."""
        if self.morphing:
            return model.preset_morphing(damping=True).coefficients(0.0)
        return model.preset_free_body()[0]

    def work(self, prep: dict) -> Outcome:
        rec = integrators.integrate(
            prep["initial"], prep["sched"], prep["cfg"], self.method, self.t_end, rigid_params=prep["rp"]
        )
        diagnostics.summarize(rec)
        return Outcome([(self.method, rec, None)])

    def check(self, prep: dict, out: Outcome) -> list[str]:
        """Record checks plus a CSV round trip through the CLI writers (outside the timed work)."""
        reasons = []
        for method, rec, _ in out.runs:
            reasons += check_record(rec, method, self.ref, self.steps)
            path = prep["workdir"] / f"{self.name}_trajectory.csv"
            cli.write_trajectory_csv(rec, path)
            cli.write_error_csv(rec, prep["workdir"] / f"{self.name}_errors.csv")
            reasons += check_csv_round_trip(rec, path)
        return reasons


class CliWorkload:
    """One `qvint compare` call via `cli.main` on a `left` and an `rk` config."""

    name = "cli_left_rk"
    why = ("the path users run: left scheme, Newton-free RK, non-mid record assembly, "
           "four CSV writes and summarize in one qvint compare call")
    methods = ("left", "rk")
    t_end = T_END
    refs = {
        "left": Reference("left", e_T=5.3240e-03, e_w=2.6875e-02),
        "rk": Reference("rk", e_T=3.7931e-10, e_w=1.2174e-05),
    }

    def __init__(self):
        self.steps = round(self.t_end / H)
        self.written: list[tuple[diagnostics.TrajectoryRecord, Path]] = []
        self._hooked = False

    def inputs(self, seed: int) -> dict:
        omega0, xdot0 = perturbed(seed, (1.0, 1.0, 1.0), (1.0, 0.0, 0.2))
        return {"omega0": omega0, "xdot0": xdot0}

    def config_texts(self, inputs: dict, workdir: Path) -> dict[str, str]:
        texts = {}
        for method in self.methods:
            lines = ["scenario = custom", f"method = {method}", f"h = {H!r}", f"t_end = {self.t_end!r}",
                     f"out_dir = {workdir / 'out'}"]
            lines += [f"omega0_{c} = {v!r}" for c, v in zip("xyz", inputs["omega0"].tolist())]
            lines += [f"xdot0_{c} = {v!r}" for c, v in zip("xyz", inputs["xdot0"].tolist())]
            texts[method] = "\n".join(lines) + "\n"
        return texts

    def write_inputs(self, inputs: dict, workdir: Path) -> None:
        for method, text in self.config_texts(inputs, workdir).items():
            (workdir / f"{method}.cfg").write_text(text, encoding="utf-8")

    def setup(self, inputs: dict, workdir: Path) -> dict:
        """Parse the configs and build their scenarios, as `compare` does before stepping."""
        for text in self.config_texts(inputs, workdir).values():
            cli.build_scenario(cli.parse_config(text))
        self._capture_writes()
        return {"argv": ["compare", *(str(workdir / f"{m}.cfg") for m in self.methods)]}

    def coefficients(self) -> model.CoefficientSet:
        """The `custom` scenario's coefficient set, for the momentum microbenchmark."""
        return model.preset_free_body()[0]

    def _capture_writes(self) -> None:
        """Keep each (record, path) that `compare` writes, for the round-trip check.

        Installed once, at set-up, so that the traced run's wrappers sit on top of it.
        """
        if self._hooked:
            return
        write = cli.write_trajectory_csv

        def capturing(rec, path):
            write(rec, path)
            self.written.append((rec, Path(path)))

        cli.write_trajectory_csv = capturing
        self._hooked = True

    def work(self, prep: dict) -> Outcome:
        self.written.clear()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(prep["argv"])
        return Outcome([(rec.method, rec, path) for rec, path in self.written], code)

    def check(self, prep: dict, out: Outcome) -> list[str]:
        """Exit code, one trajectory per config, record checks and the CSV round trip."""
        reasons = [] if out.code == 0 else [f"qvint compare exited {out.code}"]
        methods = [m for m, _, _ in out.runs]
        if methods != list(self.methods):
            reasons.append(f"expected trajectories for {list(self.methods)}, got {methods}")
        for method, rec, path in out.runs:
            reasons += check_record(rec, method, self.refs[method], self.steps)
            reasons += check_csv_round_trip(rec, path)
        return reasons


WORKLOADS = {
    w.name: w
    for w in (
        ModelWorkload(
            "free_body_mid",
            "solver-bound: Newton with the finite-difference Jacobian is most of a mid step "
            "and coefficients(t) is a constant lambda",
            "mid",
            T_END,
            Reference("mid", e_T=3.4506e-05, e_w=9.4946e-05),
            morphing=False,
        ),
        ModelWorkload(
            "morphing_mid",
            "same solver on the forced branch; two 190 us coefficients(t) calls per step make "
            "the model layer a large share",
            "mid",
            T_END,
            Reference(
                "mid",
                net_pitch=1.1738755328439676,
                omega_final=(0.047180381768176405, 1.2500934058923974, 0.9326575119108107),
            ),
            morphing=True,
        ),
        CliWorkload(),
    )
}
