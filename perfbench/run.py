"""qvint benchmark: wall time per step on solver-, model- and CLI-bound workloads.

Run from the repository root:

    python3 perfbench/run.py --workload free_body_mid --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics from untraced units of work
(us_per_step, setup_s, peak_rss_mb). --trace 1 alternates untraced and traced
units and reports the per-layer metrics, including the tracing overhead.
Every unit is checked (see workloads.py); the failed share is failed /
attempted in the result. Times are scaled to reference host speed with a
calibration loop timed between units (HostSpeed). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The program under test is the qvint package in ../src; the benchmark
exits non-zero without a result if it is missing. See README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import os

# one process, no extra threads: keep the BLAS pools numpy starts at import single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: fresh-process set-ups per run (after one discarded warm-up); setup_s is their median
SETUP_RUNS = 7

#: seconds `calibration` takes at a quiet moment of the reference host (the
#: machine the first baseline was measured on). Every reported time is scaled
#: by CALIBRATION_REF over the calibration time measured next to it, so it
#: reads as at reference host speed. It is the unit of all baselines: keep it.
CALIBRATION_REF = 2.5e-3

#: per-layer span metrics in these units are times, scaled by the run's host-speed factor
TIME_UNITS = ("ns", "us", "ms")


_CAL_MATRIX = np.arange(9.0).reshape(3, 3)


def load_program() -> None:
    """Put ../src first on the import path and make sure qvint comes from there."""
    if not (SRC / "qvint" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qvint package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qvint

    if Path(qvint.__file__).resolve().parent != SRC / "qvint":
        sys.exit(f"perfbench: imported qvint from {qvint.__file__}, not from {SRC}")


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Tally:
    """Attempted and failed units, with the count of each failure reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()

    def add(self, reasons: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(reasons)
        self.reasons.update(reasons)


def iterate(workload, prep, tally: Tally) -> tuple[float, int] | None:
    """One checked unit of work; returns (seconds, steps) unless it raised or made no step."""
    t0 = time.perf_counter()
    try:
        out = workload.work(prep)
        elapsed = time.perf_counter() - t0
        reasons = workload.check(prep, out)
    except Exception as exc:  # a failing run is counted, not fatal
        tally.add([f"raised {type(exc).__name__}: {exc}"])
        return None
    if out.steps < 1:
        reasons = reasons + ["no step completed"]
    tally.add(reasons)
    return (elapsed, out.steps) if out.steps else None


class HostSpeed:
    """Readings of `calibration`, taken between samples, to scale times to the reference host.

    Other tenants of a shared host slow this process down by up to 2x for
    seconds to minutes at a time. The calibration mix slows down with it, so a
    sample times CALIBRATION_REF over the mean of the readings just before and
    after it is the sample at reference host speed.
    """

    def __init__(self):
        self.readings = [calibration()]

    def factor_since_last(self) -> float:
        """Scale factor for a sample taken since the previous reading."""
        self.readings.append(calibration())
        return CALIBRATION_REF / (0.5 * (self.readings[-2] + self.readings[-1]))

    def factor(self) -> float:
        """Scale factor for figures aggregated over the whole run."""
        return CALIBRATION_REF / statistics.median(self.readings)


def calibration() -> float:
    """Seconds taken by a fixed mix of interpreter and 3-vector numpy work that does not touch qvint."""
    t0 = time.perf_counter()
    x = 0
    for i in range(20000):
        x += i * i
    v = np.ones(3)
    for _ in range(250):
        a = np.array([v[0] * 2.0, v[1] - 1.0, v[2]])
        v = np.concatenate((a, _CAL_MATRIX @ a))[:3] * 0.5
        float(v @ v)
    return time.perf_counter() - t0


def monotonic() -> float:
    """System-wide monotonic clock, comparable between this process and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_seconds(args, workdir: Path, runs: int) -> tuple[list[float], list[float]]:
    """Wall time from spawning a fresh interpreter until it is ready for the first step.

    Returns the raw and the host-scaled samples.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir)]
    raw, scaled = [], []
    host = HostSpeed()
    for i in range(runs + 1):
        t0 = monotonic()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            try:
                out, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        factor = host.factor_since_last()
        words = out.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err[-500:]}")
        if i:  # the first spawn also fills the bytecode caches
            raw.append(float(words[1]) - t0)
            scaled.append(raw[-1] * factor)
    return raw, scaled


def quartile_line(name: str, values: list[float], unit: str) -> str:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return f"{name}: median {q2:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def run(args) -> int:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    print("env: " + json.dumps(environment(args)))
    base = ROOT / ".perfbench_work"
    workdir_abs = base / f"{args.workload}-{os.getpid()}"
    workdir_abs.mkdir(parents=True, exist_ok=True)
    workdir = Path(os.path.relpath(workdir_abs))
    try:
        inputs = workload.inputs(args.seed)
        workload.write_inputs(inputs, workdir)
        metrics: dict[str, tuple[float, str]] = {}
        tally = Tally()
        if args.trace == 0:
            setup_raw, setup = setup_seconds(args, workdir, 1 if args.smoke else SETUP_RUNS)
            print(quartile_line("setup_s wall", setup_raw, "s"))
        prep = workload.setup(inputs, workdir)
        iterate(workload, prep, tally)  # warm-up: checked and counted, not timed

        tracer = tracing.Tracer()
        traced_prep = dict(prep)
        if args.trace:
            kernels = tracing.kernel_metrics(args.seed, workload.coefficients(), workloads.H, HostSpeed())
            if "sched" in prep:
                traced_prep["sched"] = tracer.wrap_schedule(prep["sched"])
        # us per step of each unit, raw and at reference host speed
        raw: dict[bool, list[float]] = {False: [], True: []}
        scaled: dict[bool, list[float]] = {False: [], True: []}
        traced_steps = 0
        host = HostSpeed()
        deadline = time.perf_counter() + args.seconds
        while True:
            trace_now = bool(args.trace) and len(scaled[True]) < len(scaled[False])
            if trace_now:
                tracer.install()
                try:
                    got = iterate(workload, traced_prep, tally)
                finally:
                    tracer.uninstall()
            else:
                got = iterate(workload, prep, tally)
            factor = host.factor_since_last()
            if got is not None:
                elapsed, steps = got
                raw[trace_now].append(elapsed / steps * 1e6)
                scaled[trace_now].append(elapsed / steps * 1e6 * factor)
                traced_steps += steps if trace_now else 0
            if time.perf_counter() >= deadline and scaled[False] and (scaled[True] or not args.trace):
                break
            if tally.attempted > 3 and not scaled[False] and not scaled[True]:
                break  # every unit raises; report rather than spin

        print(f"host speed: reference / measured = {host.factor():.4g} (median of {len(host.readings)} readings)")
        for traced, label in ((False, "untraced"), (True, "traced")):
            if raw[traced]:
                print(quartile_line(f"us_per_step {label} wall", raw[traced], "us"))
                print(quartile_line(f"us_per_step {label} at reference speed", scaled[traced], "us"))
        if args.trace == 0:
            if scaled[False]:
                metrics["us_per_step"] = (statistics.median(scaled[False]), "us")
            metrics["setup_s"] = (statistics.median(setup), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        else:
            if scaled[False] and scaled[True]:
                overhead = statistics.median(scaled[True]) / statistics.median(scaled[False]) - 1.0
                metrics["trace.overhead_frac"] = (overhead, "frac")
            factor = host.factor()
            if traced_steps:
                for name, (value, unit) in tracer.layer_metrics(traced_steps).items():
                    metrics[name] = (value * factor if unit in TIME_UNITS else value, unit)
            metrics.update(kernels)
    finally:
        shutil.rmtree(workdir_abs, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    for reason, n in tally.reasons.items():
        print(f"FAILED x{n}: {reason}")
    print(f"failed_frac: {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} runs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def probe(args) -> int:
    """Fresh-process set-up: import the program, build the workload, report ready."""
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workload.setup(workload.inputs(args.seed), Path(args.workdir))
    print("ready", repr(monotonic()), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one set-up probe instead of %d" % SETUP_RUNS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    return probe(args) if args.probe else run(args)


if __name__ == "__main__":
    sys.exit(main())
