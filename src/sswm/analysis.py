"""Observable extraction from wavepacket grids and time traces: oscillation
periods, coherence times, factorizability, temporal ordering, precursors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import ordered_sum, pairwise_sum, row_blocks
from .errors import InsufficientExtremaError, SswmError, ValidationError, ZeroMassError
from .params import derived_frequencies

#: Local maxima below this fraction of the trace peak are tail noise.
MAXIMA_FLOOR = 1e-3

#: Log-envelope rms residual above which the envelope is not exponential.
ENVELOPE_RESIDUAL_MAX = 0.15

#: A trace whose half-max span covers at least this fraction of its 0.1-max
#: span is treated as rectangular (width mode).
RECT_SPAN_RATIO = 0.6

#: The precursor window: maxima at tau13 in [0, PRECURSOR_WINDOW * L/nu3].
PRECURSOR_WINDOW = 0.05

#: A precursor maximum exceeds this multiple of the mid-rectangle median.
PRECURSOR_PROMINENCE = 1.5


@dataclass(frozen=True)
class TimeTrace:
    """1D sampled non-negative rate over a uniform increasing time axis (s)."""

    t_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        d = np.diff(self.t_axis)
        if not np.all(d > 0):
            raise ValidationError("t_axis must be strictly increasing")
        if len(self.values) != len(self.t_axis):
            raise ValidationError("values length must match t_axis")
        if np.min(self.values) < -1e-12 * max(np.max(self.values), 1e-300):
            raise ValidationError("trace values must be non-negative")

    @property
    def dt(self) -> float:
        return float(self.t_axis[1] - self.t_axis[0])


@dataclass(frozen=True)
class CoherenceFit:
    """Result of coherence_fit with the branch that produced it."""

    time_s: float
    mode: str  # "envelope_slope" | "envelope_crossing" | "width"
    residual: float
    n_maxima: int


@dataclass(frozen=True)
class ObservableReport:
    period12: float | None = None
    period13: float | None = None
    tau_c_12: float | None = None
    tau_c_13: float | None = None
    factorizability_residual: float | None = None
    ordering_violation_mass: float | None = None
    precursor_detected: bool | None = None
    notes: dict = field(default_factory=dict)

    def lines(self) -> list[str]:
        def fmt(x, unit="ns", scale=1e9):
            return "n/a" if x is None else f"{x * scale:.2f} {unit}"

        out = [
            f"period tau12          : {fmt(self.period12)}",
            f"period tau13-tau12    : {fmt(self.period13)}",
            f"coherence time tau12  : {fmt(self.tau_c_12)}",
            f"coherence time tau13  : {fmt(self.tau_c_13)}",
        ]
        if self.factorizability_residual is not None:
            out.append(f"factorizability resid : {self.factorizability_residual:.4f}")
        if self.ordering_violation_mass is not None:
            out.append(f"ordering violation    : {self.ordering_violation_mass:.2e}")
        if self.precursor_detected is not None:
            out.append(f"precursor detected    : {self.precursor_detected}")
        for k, v in self.notes.items():
            out.append(f"{k:<22}: {v}")
        return out


def local_maxima(tr: TimeTrace) -> np.ndarray:
    """Interior 3-point maxima above MAXIMA_FLOOR*peak, parabolically refined.

    Returns an (n, 2) array of (time, value).  The refinement fits a parabola
    through the three samples around each maximum; positions are accurate to
    a small fraction of a sample for smooth oscillations.
    """
    y = np.asarray(tr.values, dtype=float)
    peak = y.max()
    if peak <= 0:
        return np.empty((0, 2))
    a, b, c = y[:-2], y[1:-1], y[2:]
    sel = (b > a) & (b >= c) & (b > MAXIMA_FLOOR * peak)
    a, b, c = a[sel], b[sel], c[sel]
    den = a - 2 * b + c
    off = np.divide(0.5 * (a - c), den, out=np.zeros_like(den), where=den != 0)
    off = np.clip(off, -0.5, 0.5)
    return np.column_stack([tr.t_axis[1:-1][sel] + off * tr.dt, b - 0.25 * (a - c) * off])


def _dominant_spacing_cluster(diffs: np.ndarray) -> np.ndarray:
    """Largest single-linkage cluster of spacings (8% relative gap).

    Genuine spacings of a damped oscillation agree to well under a percent;
    ringing near the support boundary injects isolated short spacings that
    would bias a plain mean or even a median when maxima are few.  Ties go to
    the cluster with the larger mean (artifacts cluster short).
    """
    order = np.sort(diffs)
    clusters = np.split(order, np.flatnonzero(order[1:] > order[:-1] * 1.08) + 1)
    return max(clusters, key=lambda c: (len(c), float(c.mean())))


def extract_period(tr: TimeTrace) -> float:
    """Oscillation period in seconds: the mean spacing of successive refined
    maxima at t >= 0, taken over the dominant spacing cluster.

    Generation is time-ordered, so before t = 0 lie only wrap-around and
    step ringing.  A dominant cluster of one spacing is no period: it is
    refused, as are fewer than three maxima."""
    pk = local_maxima(tr)
    pk = pk[pk[:, 0] >= 0]
    if len(pk) < 3:
        raise InsufficientExtremaError(
            f"period fit needs >= 3 maxima, found {len(pk)}")
    best = _dominant_spacing_cluster(np.diff(pk[:, 0]))
    if len(best) < 2:
        raise InsufficientExtremaError(
            f"period fit needs >= 2 spacings in its dominant cluster, found {len(best)} "
            f"of {len(pk) - 1}")
    return float(best.mean())


def _halfmax_span(t: np.ndarray, y: np.ndarray, level: float) -> float:
    """Total time where y >= level, with linear edge interpolation: the runs
    above the level, from rising to falling edge, added one after another."""
    edge = np.diff((y >= level).astype(np.int8), prepend=0, append=0)
    rise, fall = np.flatnonzero(edge > 0), np.flatnonzero(edge < 0)
    start, end = t[rise], t[fall - 1]
    i = rise[rise > 0]
    start[rise > 0] = t[i - 1] + (level - y[i - 1]) / (y[i] - y[i - 1]) * (t[i] - t[i - 1])
    i = fall[fall < len(y)]
    end[fall < len(y)] = t[i - 1] + (y[i - 1] - level) / (y[i - 1] - y[i]) * (t[i] - t[i - 1])
    return float(np.cumsum(np.append(0.0, end - start))[-1])


def coherence_fit(tr: TimeTrace) -> CoherenceFit:
    """Coherence time with a three-branch strategy.

    1. Rectangular-like trace (half-max span >= 0.6x the 0.1-max span):
       return the width at half maximum, mode "width".
    2. Oscillatory or monotone trace with a near-exponential envelope
       (log-envelope rms residual <= 0.15): log-linear least squares through
       the local-maximum points, return -1/slope, mode "envelope_slope".
    3. Non-exponential envelope: the time coordinate (relative to the axis
       zero) at which the interpolated envelope first falls to 1/e of its
       maximum, mode "envelope_crossing".  (A rising-then-falling envelope
       has no single slope; its 1/e point is the portable number.)
    """
    y = np.asarray(tr.values, dtype=float)
    peak = y.max()
    if peak <= 0:
        raise ZeroMassError("coherence fit on an identically zero trace")
    width = _halfmax_span(tr.t_axis, y, 0.5 * peak)
    span_tenth = _halfmax_span(tr.t_axis, y, 0.1 * peak)
    if span_tenth > 0 and width / span_tenth >= RECT_SPAN_RATIO:
        return CoherenceFit(time_s=width, mode="width", residual=0.0, n_maxima=0)

    pk = local_maxima(tr)
    if len(pk) < 3:
        # monotone decay: every sample above the floor is an envelope point
        idx = np.flatnonzero(y > MAXIMA_FLOOR * peak)
        if len(idx) < 3 or not np.all(np.diff(y[idx[0]:idx[-1] + 1]) <= 0):
            raise InsufficientExtremaError(
                "trace has neither >= 3 maxima nor monotone decay")
        pk = np.column_stack([tr.t_axis[idx], y[idx]])

    tt, vv = pk[:, 0], pk[:, 1]
    logv = np.log(vv)
    A = np.column_stack([tt, np.ones_like(tt)])
    (slope, intercept), *_ = np.linalg.lstsq(A, logv, rcond=None)
    residual = float(np.sqrt(np.mean((logv - A @ [slope, intercept]) ** 2)))
    if residual <= ENVELOPE_RESIDUAL_MAX and slope < 0:
        return CoherenceFit(time_s=-1.0 / slope, mode="envelope_slope",
                            residual=residual, n_maxima=len(pk))
    return CoherenceFit(time_s=_envelope_crossing(tt, vv), mode="envelope_crossing",
                        residual=residual, n_maxima=len(pk))


def _envelope_crossing(t: np.ndarray, v: np.ndarray) -> float:
    """First log-interpolated time coordinate where the envelope <= max/e."""
    target = v.max() / math.e
    i_peak = int(np.argmax(v))
    below = i_peak + 1 + np.flatnonzero(v[i_peak + 1:] <= target)
    if len(below):
        i = below[0]
        v0, v1 = v[i - 1], v[i]
        frac = (math.log(v0) - math.log(target)) / (math.log(v0) - math.log(v1))
        return float(t[i - 1] + frac * (t[i] - t[i - 1]))
    # envelope never crosses within the trace: extrapolate from the last pair
    v0, v1 = v[-2], v[-1]
    if v1 >= v0:
        raise InsufficientExtremaError("envelope never decays to 1/e of its peak")
    slope = (math.log(v1) - math.log(v0)) / (t[-1] - t[-2])
    return float(t[-1] + (math.log(target) - math.log(v1)) / slope)


def fit_coherence_time(tr: TimeTrace) -> float:
    """Coherence time in seconds (see coherence_fit for branch details)."""
    return coherence_fit(tr).time_s


@dataclass(frozen=True)
class TraceFit:
    """The fits of one trace (see fit_trace), `errors` in the order they ran."""

    width: float
    period: float | None = None
    coherence: CoherenceFit | None = None
    errors: dict = field(default_factory=dict)


def fit_trace(tr: TimeTrace) -> TraceFit:
    """The width at half the peak, period and CoherenceFit of `tr`, where a
    failed fit becomes data: a package error leaves that fit None and its text
    in `errors` under its name.  ZeroMassError for an identically zero trace."""
    y = np.asarray(tr.values, dtype=float)
    if y.max() <= 0:
        raise ZeroMassError("fit of an identically zero trace")
    fits, errors = {}, {}
    for name, fit in (("period", extract_period), ("coherence", coherence_fit)):
        try:
            fits[name] = fit(tr)
        except SswmError as exc:
            errors[name] = str(exc)
    return TraceFit(_halfmax_span(tr.t_axis, y, 0.5 * y.max()), errors=errors, **fits)


# ---------------------------------------------------------------------------
# grid functionals


def factorizability_residual(grid) -> float:
    """L1 distance between the unit-mass rate and the product of its marginals.

    0 for exactly separable landscapes, up to 2 for disjoint supports.

    r / total is made one `row_blocks` block at a time, twice, in one
    block-sized buffer: the first pass takes the marginals, the second the
    row sums of |r / total - outer(m12, m13)|, so no full-size copy is made.
    The tau13 marginal carries from block to block in `ordered_sum`, numpy's
    order for a whole-grid sum(axis=0), and the row sums are combined in
    `pairwise_sum`, which is numpy's order for the sum of a C-contiguous
    2^j x 2^k grid: on such grids the value is bitwise that of the
    whole-grid expressions, on others equal to rounding.
    """
    r = np.asarray(grid.values, dtype=float)
    if np.min(r) < 0:
        raise ValidationError("factorizability needs a non-negative rate grid")
    total = r.sum()
    if total <= 0:
        raise ZeroMassError("factorizability on a zero-mass grid")
    n = len(r)
    m12, sums, m13 = np.empty(n), np.empty(n), np.zeros(r.shape[1])
    tiles = row_blocks(n)
    buf, outer = np.empty((2, tiles[0].stop, r.shape[1]))
    for rows in tiles:
        b = np.divide(r[rows], total, out=buf[:rows.stop - rows.start])
        b.sum(axis=1, out=m12[rows])
        m13 = ordered_sum(b, m13)
    for rows in tiles:
        b = np.divide(r[rows], total, out=buf[:rows.stop - rows.start])
        b -= np.outer(m12[rows], m13, out=outer[:rows.stop - rows.start])
        np.abs(b, out=b).sum(axis=1, out=sums[rows])
    return float(pairwise_sum(sums))


def ordering_violation_mass(grid) -> float:
    """Fraction of total mass where tau12 < 0 or tau13 < tau12.  Both axes
    increase, so a row's cells outside the wedge are a prefix of its columns
    (all of them where tau12 < 0), summed row by row: no n x n mask."""
    r = np.asarray(grid.values, dtype=float)
    total = r.sum()
    if total <= 0:
        raise ZeroMassError("ordering mass on a zero-mass grid")
    t12, t13 = np.asarray(grid.tau12_axis), np.asarray(grid.tau13_axis)
    k = np.where(t12 < 0, len(t13), np.searchsorted(t13, t12))
    return float(sum(row[:j].sum() for row, j in zip(r, k)) / total)


def trace_from_grid(grid, axis: str = "tau13") -> TimeTrace:
    """Integrate the 2D rate over the other axis (the conditional profile),
    peak-normalized."""
    r = np.asarray(grid.values, dtype=float)
    if axis == "tau13":
        vals = r.sum(axis=0) * float(grid.tau12_axis[1] - grid.tau12_axis[0])
        t = grid.tau13_axis
    elif axis == "tau12":
        vals = r.sum(axis=1) * float(grid.tau13_axis[1] - grid.tau13_axis[0])
        t = grid.tau12_axis
    else:
        raise ValidationError("axis must be 'tau12' or 'tau13'")
    if vals.max() > 0:
        vals = vals / vals.max()
    return TimeTrace(t_axis=np.asarray(t, dtype=float), values=vals)


def near_diagonal_trace(grid) -> TimeTrace:
    """The peak-normalized tau13 profile one step off the diagonal: values
    at tau13 = tau12 + dt as a function of tau13, starting at tau12 = 0.

    This is the cut adjacent to the (0, 0) corner where the early-time
    feature of the numeric wavepacket lives (the closed hybrid form is
    identically oscillation-free there).
    """
    r = np.asanyarray(grid.values)
    t12 = np.asarray(grid.tau12_axis)
    i0 = int(np.argmin(np.abs(t12)))
    n = min(r.shape[0], r.shape[1] - 1)
    rows = np.arange(i0, n)
    vals = r[rows, rows + 1].astype(float)
    t = np.asarray(grid.tau13_axis)[rows + 1]
    if vals.max() > 0:
        vals = vals / vals.max()
    return TimeTrace(t_axis=t, values=vals)


def first_antinode_offset(grid, p) -> int:
    """Row index offset of the first oscillation antinode along tau12."""
    d = derived_frequencies(p)
    if d.omega_e1 and d.omega_e1 > 0:
        period_s = 2 * math.pi / (d.omega_e1 * p.gamma31_si)
        return max(1, int(round(period_s / (grid.tau12_axis[1] - grid.tau12_axis[0]))))
    return 1


def diagonal_offset_trace(grid, row_offset: int) -> TimeTrace:
    """Peak-normalized rate along s = tau13 - tau12 at fixed tau12 =
    row_offset cells > 0; ValidationError if that row is off the grid."""
    r = np.asanyarray(grid.values)
    t12 = np.asarray(grid.tau12_axis)
    i0 = int(np.argmin(np.abs(t12)))
    i = i0 + row_offset
    if not i0 < i < min(r.shape):
        raise ValidationError(f"tau12 offset of {row_offset} cells lies off the grid")
    ks = np.arange(0, r.shape[1] - i)
    vals = r[i, i + ks].astype(float)
    s_axis = np.asarray(grid.tau13_axis)[i + ks] - t12[i]
    if vals.max() > 0:
        vals = vals / vals.max()
    return TimeTrace(t_axis=s_axis, values=vals)


def detect_precursor(tr: TimeTrace, derived) -> bool:
    """True when an interior local maximum inside [0, PRECURSOR_WINDOW * L/nu3]
    exceeds PRECURSOR_PROMINENCE times the trace median over [0.2, 0.8] * L/nu3.
    """
    T = derived.group_delay
    if T is None or T <= 0:
        raise ValidationError("detect_precursor needs the group delay")
    t = tr.t_axis
    mid = (t > 0.2 * T) & (t < 0.8 * T)
    if not mid.any():
        return False
    baseline = float(np.median(np.asarray(tr.values)[mid]))
    pk = local_maxima(tr)
    if len(pk) == 0:
        return False
    early = pk[(pk[:, 0] >= 0) & (pk[:, 0] <= PRECURSOR_WINDOW * T)]
    if len(early) == 0:
        return False
    return bool(early[:, 1].max() > PRECURSOR_PROMINENCE * baseline)
