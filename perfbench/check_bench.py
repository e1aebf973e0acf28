"""Self-tests of the benchmark, on very short runs.

    python3 -m pytest -q perfbench/check_bench.py

Named check_bench.py rather than test_*.py so that the repository's own test
command does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from qvint import integrators  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.01", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"]), name


def doctored_outcomes(tmp_path: Path):
    """A short free-body mid run, then copies with one defect each."""
    wl = workloads.ModelWorkload("short", "", "mid", 0.2, workloads.Reference("mid"), morphing=False)
    prep = wl.setup(wl.inputs(0), tmp_path)
    good = wl.work(prep).runs[0][1]
    p_x = good.P_x.copy()
    p_x[-1] *= 1.0 + 1e-9
    q = good.q.copy()
    q[5] *= 1.0 + 1e-9
    n = len(good) - 3
    cut = {f.name: getattr(good, f.name) for f in dataclasses.fields(good)}
    for name in ("t", "q", "x_e", "xdot_b", "omega_b", "energy", "p_x", "p_w", "P_x", "P_w", "newton_iters"):
        cut[name] = cut[name][:n]
    return wl, prep, good, {
        "e_x": dataclasses.replace(good, P_x=p_x),
        "truncated": dataclasses.replace(good, **{**cut, "truncated": True}),
        "||q| - 1|": dataclasses.replace(good, q=q),
    }


def test_check_accepts_the_real_record(tmp_path):
    wl, prep, good, _ = doctored_outcomes(tmp_path)
    assert wl.check(prep, workloads.Outcome([("mid", good, None)])) == []


@pytest.mark.parametrize("defect", ["e_x", "truncated", "||q| - 1|"])
def test_check_rejects_a_doctored_record_and_counts_it(tmp_path, defect):
    wl, prep, _, bad = doctored_outcomes(tmp_path)
    record = bad[defect]

    class Doctored(workloads.ModelWorkload):
        def work(self, prep):
            return workloads.Outcome([("mid", record, None)])

    doctored = Doctored(wl.name, wl.why, wl.method, wl.t_end, wl.ref, wl.morphing)
    tally = run.Tally()
    run.iterate(doctored, prep, tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert any(defect in reason for reason in tally.reasons), tally.reasons


def test_a_missing_boundary_leaves_its_metrics_out(tmp_path, monkeypatch):
    """A renamed step function drops the step metrics; the run and the other layers go on."""
    renamed = tuple(
        (owner, attr + "_renamed" if attr.startswith("step_") else attr, name)
        for owner, attr, name in tracing.BOUNDARIES
    )
    monkeypatch.setattr(tracing, "BOUNDARIES", renamed)
    wl = workloads.WORKLOADS["free_body_mid"]
    prep = wl.setup(wl.inputs(0), tmp_path)
    tracer = tracing.Tracer()
    prep["sched"] = tracer.wrap_schedule(prep["sched"])
    tally = run.Tally()
    newton_solve = integrators.newton_solve
    tracer.install()
    try:
        _, steps = run.iterate(wl, prep, tally)
    finally:
        tracer.uninstall()
    assert integrators.newton_solve is newton_solve
    assert tally.failed == 0
    metrics = tracer.layer_metrics(steps)
    assert not any(k.startswith("integrators.step.") for k in metrics)
    assert metrics["integrators.newton.iters_per_solve"][0] == 3.0
    assert "integrators.assembly.us_per_step" not in metrics


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "free_body_mid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
