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

#: TrajectoryRecord's float columns besides t, each with its row shape; the optional P_x, P_w come last
_COLUMNS = (("q", (4,)), ("x_e", (3,)), ("xdot_b", (3,)), ("omega_b", (3,)), ("energy", ()),
            ("p_x", (3,)), ("p_w", (3,)), ("P_x", (3,)), ("P_w", (3,)))  # fmt: skip


@dataclass
class TrajectoryRecord:
    """Dense output of one integration run, one row per accepted step.

    Kinematic columns are step-point samples. For the midpoint method the
    conserved-quantity columns (energy, p_x, p_w, P_x, P_w) are evaluated at
    the scheme's midpoint quadrature states, where its discrete conservation
    law lives; velocity columns are the averaged step-point reconstruction.
    A truncated record names the step failure that ended it in stop_reason.
    P_x and P_w (physical momenta) are given together or not at all.
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
        if (self.P_x is None) != (self.P_w is None):
            raise ValueError("TrajectoryRecord needs both of P_x and P_w or neither")
        for name, row in _COLUMNS if self.P_x is not None else _COLUMNS[:-2]:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float).reshape(n, *row))
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
    with np.errstate(over="ignore", invalid="ignore"):
        dev = _row_norms(v - v[0])
        base = float(_row_norms(v[:1])[0])
        return (dev, True) if base == 0.0 else (dev / base, False)


def _row_norms(v: Array) -> Array:
    """Euclidean norms of the rows of v, finite for every finite row.

    Each row is scaled by an exact power of two before squaring, so a huge
    row cannot overflow and a tiny one cannot underflow.
    """
    exp2 = np.frexp(np.abs(v).max(axis=1))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(v, -exp2[:, None]), axis=1), exp2)


def _momenta(rec: TrajectoryRecord) -> tuple[Array, Array]:
    """(px, pw): the physical momenta when recorded, the canonical ones otherwise."""
    return (rec.P_x, rec.P_w) if rec.P_x is not None else (rec.p_x, rec.p_w)


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

    Series are running-max, one sample per record row; instantaneous
    holds the deviations (e_x, e_w, e_T) they are the maxima of. *_absolute
    flags mark series degraded to absolute deviations by a zero baseline.
    e_w_diagnostic marks an e_w that is a diagnostic, not a conservation
    error: canonical momenta under applied forces, which legitimately change
    p_w.
    """

    e_x: Array
    e_w: Array
    e_T: Array
    instantaneous: tuple[Array, Array, Array]
    e_x_absolute: bool
    e_w_absolute: bool
    e_T_absolute: bool
    e_w_diagnostic: bool

    @property
    def final_e_x(self) -> float:
        return float(self.e_x[-1])

    @property
    def final_e_w(self) -> float:
        return float(self.e_w[-1])

    @property
    def final_e_T(self) -> float:
        return float(self.e_T[-1])


def summarize(rec: TrajectoryRecord) -> ErrorReport:
    """Build the ErrorReport for a record.

    Physical momenta are used when recorded. With only canonical momenta the
    rotational series of a run under applied forces is marked a diagnostic.
    """
    px, pw = _momenta(rec)
    raw_x, abs_x = _deviation_series(px)
    raw_w, abs_w = _deviation_series(pw)
    raw_T, abs_T = _deviation_series(rec.energy)
    physical = rec.P_x is not None
    return ErrorReport(
        e_x=running_max(raw_x),
        e_w=running_max(raw_w),
        e_T=running_max(raw_T),
        instantaneous=(raw_x, raw_w, raw_T),
        e_x_absolute=abs_x,
        e_w_absolute=abs_w,
        e_T_absolute=abs_T,
        e_w_diagnostic=not (physical or rec.force_free),
    )


def pitch_213(q: Array) -> float | Array:
    """Pitch angle of the 2-1-3 Euler factorization of q (display convention).

    For q = R_y(pitch) R_x(roll) R_z(yaw) the body-to-earth matrix gives
    pitch = atan2(R13, R33). One quaternion gives a float, an (n, 4) stack
    an array of n angles.
    """
    w, x, y, z = np.asarray(q, dtype=float).T
    r13 = 2.0 * (x * z + w * y)
    r33 = 1.0 - 2.0 * (x * x + y * y)
    pitch = np.arctan2(r13, r33)
    return float(pitch) if pitch.ndim == 0 else pitch


def net_pitch(rec: TrajectoryRecord) -> float:
    """Unwrapped pitch change over a record [rad]."""
    angles = np.unwrap(pitch_213(rec.q))
    return float(angles[-1] - angles[0])
