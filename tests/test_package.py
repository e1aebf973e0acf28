"""Package contracts: the names a run needs, the module API, the steppers' signature and the oldest grammar."""

import ast
import inspect
import re
import types
from pathlib import Path

import pytest

import qvint
from qvint import diagnostics, integrators, model, quat

ROOT = {
    "BodyState",
    "CoefficientSet",
    "ErrorReport",
    "MorphingSchedule",
    "RigidParams",
    "SolverConfig",
    "TrajectoryRecord",
    "constant_schedule",
    "drift_slope",
    "energy_grad_omega",
    "energy_grad_xdot",
    "identity_quat",
    "integrate",
    "kinetic_energy",
    "net_pitch",
    "preset_free_body",
    "preset_morphing",
    "summarize",
    "wing_motion",
}

MODULE_API = {
    diagnostics: ["pitch_213"],
    integrators: [
        "SingularJacobianError",
        "jacobian_left",
        "jacobian_mid",
        "newton_solve",
        "residual_left",
        "residual_mid",
        "seed_step",
        "step_left",
        "step_mid",
        "step_rk_baseline",
    ],
    model: ["canonical_momenta", "point_mass_coefficients", "rigid_coefficients", "skew"],
    quat: ["exp_map", "normalize", "quat_mul", "rotate_to_earth"],
}


def test_the_root_holds_exactly_the_names_a_run_needs():
    public = {k for k, v in vars(qvint).items() if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == ROOT
    assert isinstance(qvint.__version__, str)


def test_building_blocks_are_defined_in_their_modules_and_not_in_the_root():
    assert sum(map(len, MODULE_API.values())) == 19
    for module, names in MODULE_API.items():
        for name in names:
            assert getattr(module, name).__module__ == module.__name__
            assert name not in vars(qvint)


def test_a_failed_rate_solve_is_a_value_error():
    # integrate ends a run on one rule, a step that raises ValueError; the rate solve's failures are one too
    assert issubclass(integrators.SingularJacobianError, ValueError)


def test_the_three_steppers_share_one_signature():
    # each maps the previous link to the one at grid time t, which integrate computes from the step index
    for step in (integrators.step_left, integrators.step_mid, integrators.step_rk_baseline):
        params = inspect.signature(step).parameters.values()
        assert [p.name for p in params] == ["prev", "t", "sched", "cfg"], step.__name__
        assert all(p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD for p in params), step.__name__


def test_every_python_file_parses_under_the_oldest_supported_python():
    # the suite runs on newer Pythons too, so the grammar of requires-python's floor is checked here
    root = Path(__file__).resolve().parent.parent
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (root / "pyproject.toml").read_text(encoding="utf-8"))
    version = (3, int(floor.group(1)))
    files = sorted(path for part in ("src", "tests", "perfbench") for path in (root / part).rglob("*.py"))
    assert version == (3, 10) and len(files) >= 18
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=version)
