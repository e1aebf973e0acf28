"""Package root: the names a run needs, and the building blocks that are module API."""

import types

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
    diagnostics: ["pitch_213", "running_max"],
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
    assert sum(map(len, MODULE_API.values())) == 20
    for module, names in MODULE_API.items():
        for name in names:
            assert getattr(module, name).__module__ == module.__name__
            assert name not in vars(qvint)
