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
    """Build the ErrorReport for a record, its three series in one pass.

    Physical momenta are used when recorded. With only canonical momenta the
    rotational series of a run under applied forces is marked a diagnostic.
    The momenta and the energy fill one (3, 3, n + 1) block, one series per
    leading index (the energy in one component, the other two zero): column 0
    holds the first sample and column k + 1 sample k's deviation from it. Each
    column's Euclidean norm is taken after an exact power-of-two scaling, so a
    huge one cannot overflow nor a tiny one underflow, with its squares summed
    left to right. A deviation is relative to the first sample's norm, or
    absolute (flagged) when that is zero; a non-finite first sample leaves every
    deviation of its series undefined (NaN), without a warning.
    """
    px, pw = _momenta(rec)
    v = np.zeros((3, 3, len(rec) + 1))
    v[0, :, 1:], v[1, :, 1:], v[2, 0, 1:] = px.T, pw.T, rec.energy
    v[..., 0] = v[..., 1]
    with np.errstate(over="ignore", invalid="ignore"):
        v[..., 1:] -= v[..., :1]
        exp2 = np.frexp(np.abs(v).max(axis=1))[1]
        s = np.ldexp(v, -exp2[:, None])
        s *= s
        norms = np.ldexp(np.sqrt(s[:, 0] + s[:, 1] + s[:, 2]), exp2)
        absolute = norms[:, :1] == 0.0
        raw = np.divide(norms[:, 1:], norms[:, :1], out=norms[:, 1:], where=~absolute)
    run = np.maximum.accumulate(raw, axis=1)
    abs_x, abs_w, abs_T = absolute[:, 0].tolist()
    physical = rec.P_x is not None
    return ErrorReport(
        e_x=run[0],
        e_w=run[1],
        e_T=run[2],
        instantaneous=(raw[0], raw[1], raw[2]),
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
