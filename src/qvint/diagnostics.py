"""Trajectory records and conservation-error diagnostics.

Error series follow a running-max convention: sample k reports the worst
relative deviation seen up to k, measured against the first recorded sample,
so every series starts at exactly zero and is non-decreasing. Momentum errors
prefer the physical momenta when the record carries them (rigid models) and
fall back to the canonical ones otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


@dataclass
class TrajectoryRecord:
    """Dense output of one integration run, one row per accepted step.

    Kinematic columns are step-point samples. For the midpoint method the
    conserved-quantity columns (energy, p_x, p_w, P_x, P_w) are evaluated at
    the scheme's midpoint quadrature states, where its discrete conservation
    law lives; velocity columns are the averaged step-point reconstruction.
    A truncated record names the step failure that ended it in stop_reason.
    """

    t: Array
    q: Array
    x_e: Array
    xdot_b: Array
    omega_b: Array
    energy: Array
    p_x: Array
    p_w: Array
    P_x: Array | None
    P_w: Array | None
    newton_iters: Array
    method: str
    h: float
    scenario: str = ""
    truncated: bool = False
    force_free: bool = True
    stop_reason: str = ""

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        n = self.t.shape[0]
        if n < 1:
            raise ValueError("TrajectoryRecord needs at least one sample")
        self.q = np.asarray(self.q, dtype=float).reshape(n, 4)
        self.x_e = np.asarray(self.x_e, dtype=float).reshape(n, 3)
        self.xdot_b = np.asarray(self.xdot_b, dtype=float).reshape(n, 3)
        self.omega_b = np.asarray(self.omega_b, dtype=float).reshape(n, 3)
        self.energy = np.asarray(self.energy, dtype=float).reshape(n)
        self.p_x = np.asarray(self.p_x, dtype=float).reshape(n, 3)
        self.p_w = np.asarray(self.p_w, dtype=float).reshape(n, 3)
        if self.P_x is not None:
            self.P_x = np.asarray(self.P_x, dtype=float).reshape(n, 3)
        if self.P_w is not None:
            self.P_w = np.asarray(self.P_w, dtype=float).reshape(n, 3)
        self.newton_iters = np.asarray(self.newton_iters, dtype=int).reshape(n)
        if n > 1 and not np.all(np.diff(self.t) > 0.0):
            raise ValueError("TrajectoryRecord times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.t.shape[0])


def running_max(series: Array) -> Array:
    """Non-decreasing envelope of a series."""
    return np.maximum.accumulate(np.asarray(series, dtype=float))


def _deviation_series(values: Array, /) -> tuple[Array, bool]:
    """Per-sample deviation from the first sample.

    Relative when the first sample has nonzero norm, absolute otherwise
    (flagged True). values is (n,) or (n, d). A non-finite first sample
    leaves every deviation undefined (NaN), without a warning.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    with np.errstate(invalid="ignore"):
        dev = _row_norms(v - v[0])
    base = float(_row_norms(v[:1])[0])
    if base == 0.0:
        return dev, True
    return dev / base, False


def _row_norms(v: Array) -> Array:
    """Euclidean norms of the rows of v, finite for every finite row.

    Each row is scaled by an exact power of two before squaring, so a huge
    row cannot overflow and a tiny one cannot underflow.
    """
    exp2 = np.frexp(np.abs(v).max(axis=1))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(v, -exp2[:, None]), axis=1), exp2)


def momentum_errors(rec: TrajectoryRecord, running: bool = True) -> tuple[Array, Array]:
    """Translational and rotational momentum error series (e_x, e_w).

    Uses physical momenta when present, canonical otherwise. Relative to the
    first sample; zero first-sample momentum degrades that series to absolute
    deviations (see summarize for the flag). running=False returns the
    instantaneous deviations instead of the running max.
    """
    px = rec.P_x if rec.P_x is not None else rec.p_x
    pw = rec.P_w if rec.P_w is not None else rec.p_w
    e_x, _ = _deviation_series(px)
    e_w, _ = _deviation_series(pw)
    if running:
        return running_max(e_x), running_max(e_w)
    return e_x, e_w


def energy_error(rec: TrajectoryRecord, running: bool = True) -> Array:
    """Kinetic-energy error series |T_k - T_1| / |T_1| (running max by default).

    A zero first-sample energy (a start at rest) degrades the series to
    absolute deviations, as summarize flags.
    """
    e, _ = _deviation_series(rec.energy)
    return running_max(e) if running else e


def drift_slope(t: Array, series: Array) -> float:
    """Least-squares slope of a series over its last half (at least two samples; 0 for one)."""
    t = np.asarray(t, dtype=float)
    n = t.shape[0]
    if n < 2:
        return 0.0
    start = min(n // 2, n - 2)
    return float(np.polyfit(t[start:], np.asarray(series, dtype=float)[start:], 1)[0])


@dataclass
class ErrorReport:
    """Conservation summary of one run.

    Series are running-max and share the record's time base. momentum_source
    says whether physical or canonical momenta were used; *_absolute flags
    mark series degraded to absolute deviations by a zero baseline. e_w is
    None when the rotational series is not meaningful for the run (canonical
    momenta under nonzero applied torques).
    """

    t: Array
    e_x: Array
    e_w: Array | None
    e_T: Array
    momentum_source: str
    e_x_absolute: bool
    e_w_absolute: bool
    e_T_absolute: bool

    @property
    def final_e_x(self) -> float:
        return float(self.e_x[-1])

    @property
    def final_e_w(self) -> float | None:
        return None if self.e_w is None else float(self.e_w[-1])

    @property
    def final_e_T(self) -> float:
        return float(self.e_T[-1])


def summarize(rec: TrajectoryRecord) -> ErrorReport:
    """Build the ErrorReport for a record.

    Physical momenta are used when recorded. With only canonical momenta the
    rotational series is kept for force-free runs and omitted otherwise, since
    applied torques legitimately change p_w.
    """
    physical = rec.P_x is not None and rec.P_w is not None
    px = rec.P_x if physical else rec.p_x
    pw = rec.P_w if physical else rec.p_w
    raw_x, abs_x = _deviation_series(px)
    include_w = physical or rec.force_free
    e_w = None
    abs_w = False
    if include_w:
        raw_w, abs_w = _deviation_series(pw)
        e_w = running_max(raw_w)
    raw_T, abs_T = _deviation_series(rec.energy)
    return ErrorReport(
        t=rec.t.copy(),
        e_x=running_max(raw_x),
        e_w=e_w,
        e_T=running_max(raw_T),
        momentum_source="physical" if physical else "canonical",
        e_x_absolute=abs_x,
        e_w_absolute=abs_w,
        e_T_absolute=abs_T,
    )


def pitch_213(q: Array) -> float:
    """Pitch angle of the 2-1-3 Euler factorization of q (display convention).

    For q = R_y(pitch) R_x(roll) R_z(yaw) the body-to-earth matrix gives
    pitch = atan2(R13, R33).
    """
    w, x, y, z = np.asarray(q, dtype=float)
    r13 = 2.0 * (x * z + w * y)
    r33 = 1.0 - 2.0 * (x * x + y * y)
    return float(np.arctan2(r13, r33))


def net_pitch(rec: TrajectoryRecord) -> float:
    """Unwrapped pitch change over a record [rad]."""
    angles = np.unwrap(np.array([pitch_213(qi) for qi in rec.q]))
    return float(angles[-1] - angles[0])
