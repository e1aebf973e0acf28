"""Quaternion variational integrators for coupled rigid and morphing bodies.

The root holds what a run needs: the model presets and types, `integrate` and
its solver settings, and the conservation report. Steppers, residuals, the
Newton solver and the quaternion wrappers are imported from their modules.
"""

from .diagnostics import ErrorReport, TrajectoryRecord, drift_slope, net_pitch, summarize
from .integrators import SolverConfig, integrate
from .model import (
    BodyState,
    CoefficientSet,
    MorphingSchedule,
    RigidParams,
    constant_schedule,
    energy_grad_omega,
    energy_grad_xdot,
    kinetic_energy,
    preset_free_body,
    preset_morphing,
    wing_motion,
)
from .quat import identity_quat

__version__ = "0.1.0"
