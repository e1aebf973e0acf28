"""Spans around qvint's public functions, installed from the benchmark's own files.

`Tracer.install()` replaces each boundary function named in BOUNDARIES with a
wrapper that records a span (name, duration, parent span name). Spans are
aggregated as they close: per name the call count and total time, and per
(parent, child) pair the time the child covered, so a layer's self time is
its total minus its children's. The schedule's `coefficients` and `force`
callables are wrapped with `dataclasses.replace`, since the integrators call
them through the schedule object.

A boundary that no longer exists (renamed or merged by a refactor) is
skipped: the metrics that need it are left out of the result and the run
goes on. Wrappers are installed only around traced units, so the
untraced units of the same run time the program without them.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from collections import Counter, defaultdict
from functools import wraps

import numpy as np

from qvint import cli, diagnostics, integrators, model, quat

#: (module, attribute, span name). `cli` imports `integrate` and `summarize`
#: into its own namespace, so those are wrapped there as well.
BOUNDARIES = (
    (integrators, "integrate", "integrate"),
    (cli, "integrate", "integrate"),
    (integrators, "step_left", "step"),
    (integrators, "step_mid", "step"),
    (integrators, "step_rk_baseline", "step"),
    (diagnostics, "summarize", "summarize"),
    (cli, "summarize", "summarize"),
    (cli, "write_error_csv", "write_error_csv"),
    (cli, "read_trajectory_csv", "read_trajectory_csv"),
)


class Tracer:
    """Spans and counts of one traced run, and the wrappers that record them."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.child: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.installed: set[str] = set()
        self.csv_bytes: list[int] = []
        self._stack: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # spans

    def span(self, name: str, fn):
        stack, calls, total, child = self._stack, self.calls, self.total, self.child

        @wraps(fn)
        def wrapped(*args, **kwargs):
            stack.append(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                calls[name] += 1
                total[name] += dt
                if stack:
                    child[(stack[-1], name)] += dt

        return wrapped

    def self_time(self, name: str) -> float:
        return self.total[name] - sum(t for (parent, _), t in self.child.items() if parent == name)

    # installation

    def _patch(self, owner, attr: str, make) -> bool:
        original = getattr(owner, attr, None)
        if original is None:
            return False
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def _newton(self, solve):
        counts, span = self.counts, self.span
        traced_solve = span("newton", solve)

        def newton_solve(*args, **kwargs):
            if args and callable(args[0]):
                args = (span("residual", args[0]), *args[1:])
            result = traced_solve(*args, **kwargs)
            iterations = getattr(result, "iterations", None)
            converged = getattr(result, "converged", None)
            if iterations is not None and converged is not None:
                counts["newton.results"] += 1
                counts["newton.iterations"] += int(iterations)
                counts["newton.converged"] += bool(converged)
            return result

        return newton_solve

    def _csv_writer(self, write):
        traced_write = self.span("write_trajectory_csv", write)

        def write_trajectory_csv(rec, path, *args, **kwargs):
            traced_write(rec, path, *args, **kwargs)
            self.csv_bytes.append(os.path.getsize(path))

        return write_trajectory_csv

    def _scenario(self, build):
        def build_scenario(*args, **kwargs):
            return tuple(
                self.wrap_schedule(x) if isinstance(x, model.MorphingSchedule) else x
                for x in build(*args, **kwargs)
            )

        return build_scenario

    def wrap_schedule(self, sched):
        """Copy of a schedule whose coefficients are spanned and whose force calls are counted."""
        counts = self.counts

        def count_force(force):
            def counted(*args, **kwargs):
                counts["force"] += 1
                return force(*args, **kwargs)

            return counted

        try:
            traced = dataclasses.replace(sched, coefficients=self.span("coefficients", sched.coefficients))
            self.installed.add("coefficients")
            traced = dataclasses.replace(traced, force=count_force(sched.force))
            self.installed.add("force")
        except (TypeError, AttributeError):
            return sched
        return traced

    def install(self) -> None:
        for owner, attr, name in BOUNDARIES:
            if self._patch(owner, attr, lambda fn, name=name: self.span(name, fn)):
                self.installed.add(name)
        if self._patch(integrators, "newton_solve", self._newton):
            self.installed.update(("newton", "residual"))
        if self._patch(cli, "write_trajectory_csv", self._csv_writer):
            self.installed.add("write_trajectory_csv")
        self._patch(cli, "build_scenario", self._scenario)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # results

    def layer_metrics(self, steps: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over `steps` traced steps; boundaries not installed or never called are absent."""
        out: dict[str, tuple[float, str]] = {}
        has = self.installed
        calls, total = self.calls, self.total

        def per_call(key, span, scale, unit):
            if span in has and calls[span]:
                out[key] = (total[span] / calls[span] * scale, unit)

        if "coefficients" in has:
            out["model.coefficients.calls_per_step"] = (calls["coefficients"] / steps, "calls/step")
        per_call("model.coefficients.us_per_call", "coefficients", 1e6, "us")
        if "force" in has:
            out["model.force.calls_per_step"] = (self.counts["force"] / steps, "calls/step")
        if "newton" in has:
            solves = calls["newton"]
            out["integrators.newton.solves_per_step"] = (solves / steps, "solves/step")
            if solves and self.counts["newton.results"] == solves:
                out["integrators.newton.iters_per_solve"] = (self.counts["newton.iterations"] / solves, "iters/solve")
                out["integrators.newton.converged_ratio"] = (self.counts["newton.converged"] / solves, "ratio")
            if solves and calls["residual"]:
                out["integrators.newton.residual_evals_per_solve"] = (calls["residual"] / solves, "evals/solve")
                out["integrators.newton.self_us_per_solve"] = (self.self_time("newton") / solves * 1e6, "us")
        per_call("integrators.residual.us_per_eval", "residual", 1e6, "us")
        if "step" in has and calls["step"]:
            out["integrators.step.us_per_step"] = (total["step"] / steps * 1e6, "us")
            out["integrators.step.self_us_per_step"] = (self.self_time("step") / steps * 1e6, "us")
        if "integrate" in has and calls["integrate"] and "step" in has and calls["step"]:
            out["integrators.assembly.us_per_step"] = (self.self_time("integrate") / steps * 1e6, "us")
        per_call("diagnostics.summarize.ms", "summarize", 1e3, "ms")
        per_call("cli.write_trajectory_csv.ms", "write_trajectory_csv", 1e3, "ms")
        per_call("cli.write_error_csv.ms", "write_error_csv", 1e3, "ms")
        per_call("cli.read_trajectory_csv.ms", "read_trajectory_csv", 1e3, "ms")
        if self.csv_bytes:
            out["cli.csv_bytes"] = (statistics.mean(self.csv_bytes), "B")
        return out


def _ns_per_call(fn, args_list, host, repeats: int = 7, rounds: int = 20) -> float:
    """Median over `repeats` of the mean ns per call over `rounds` passes of args_list.

    Each repeat is scaled by `host.factor_since_last()`, read right after it.
    """
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(rounds):
            for args in args_list:
                fn(*args)
        elapsed = time.perf_counter() - t0
        samples.append(elapsed / (rounds * len(args_list)) * 1e9 * host.factor_since_last())
    return statistics.median(samples)


def kernel_metrics(seed: int, c: model.CoefficientSet, h: float, host) -> dict[str, tuple[float, str]]:
    """Seeded microbenchmarks of the quaternion kernels and the momentum functions.

    Each figure includes the cost of the benchmark's own call loop (tens of ns)
    and is already scaled to reference host speed by `host`. A kernel that no
    longer exists is left out.
    """
    rng = np.random.default_rng(seed)
    n = 64
    raw = rng.normal(size=(n, 4))
    unit = [q / np.linalg.norm(q) for q in raw]
    vecs = list(rng.normal(size=(n, 3)))
    cases = {
        "exp_map": [(v,) for v in vecs],
        "quat_mul": list(zip(unit, unit[1:] + unit[:1])),
        "rotate_to_earth": list(zip(unit, vecs)),
        "normalize": [(q,) for q in raw],
    }
    out = {}
    for name, args_list in cases.items():
        fn = getattr(quat, name, None)
        if fn is not None:
            out[f"quat.{name}.ns_per_call"] = (_ns_per_call(fn, args_list, host), "ns")
    fns = [getattr(model, name, None) for name in ("energy_grad_xdot", "energy_grad_omega", "canonical_momenta")]
    if all(f is not None for f in fns):
        states = [model.BodyState(0.0, q, v, v, w) for q, v, w in zip(unit, vecs, vecs[::-1])]
        gx, gw, canon = fns
        per = [
            _ns_per_call(gx, [(s, c) for s in states], host),
            _ns_per_call(gw, [(s, c) for s in states], host),
            _ns_per_call(canon, [(s, c, h) for s in states], host),
        ]
        out["model.momenta.ns_per_call"] = (statistics.mean(per), "ns")
    return out
