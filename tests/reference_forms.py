"""Literal forms that only tests read: the references that
`wavepacket.analytic_rate_grid` is checked against for its "hybrid" and
"cascaded" rates, each with the regime check of the library's forms, and
the whole-map peak finder that `susceptibility.find_resonances` is checked
against, and the per-sample loop forms of `analysis`' fit scans with the
`extract_period` and `coherence_fit` that call them, which the array forms
are checked against bitwise."""
import math

import numpy as np

from sswm.analysis import (ENVELOPE_RESIDUAL_MAX, MAXIMA_FLOOR, RECT_SPAN_RATIO, CoherenceFit,
                           TimeTrace)
from sswm.errors import InsufficientExtremaError, ValidationError, ZeroMassError
from sswm.params import Regime, SystemParams, effective_splittings, eit_dispersion
from sswm.susceptibility import RESONANCE_FLOOR
from sswm.wavepacket import _check_regime, hybrid_loss_rate


def wavepacket_hybrid(tau12, tau13, p: SystemParams, ideal_rect: bool = False):
    """Hybrid-regime amplitude: chi5 along tau12, a rectangle along tau13.

    B = (O1/2 cos(O1 t12/2) + g_e3 sin(O1 t12/2)) Theta(t12) Theta(s)
        * Pi(t13; 0, L/nu3) * e^(-loss*t13 - g_e1*t12).
    g_e3 = gamma51 - gamma_e1, the coefficient filling the same structural
    slot in the conditional rate.  The closed form contains no early-time
    precursor by construction: that feature only emerges from the numeric
    transform.
    """
    _check_regime(p, Regime.HYBRID)
    s = effective_splittings(p)
    gamma_e3 = p.gamma51 - s.gamma_e1
    t12_s = np.asarray(tau12, dtype=float)
    t13_s = np.asarray(tau13, dtype=float)
    t12 = t12_s * p.gamma31_si
    o1 = s.omega_e1
    rect = (t13_s >= 0) & (t13_s <= eit_dispersion(p).group_delay)
    support = (t12 >= 0) & (t13_s >= t12_s) & rect
    loss = 0.0 if ideal_rect else hybrid_loss_rate(p)
    amp = ((o1 / 2 * np.cos(o1 * t12 / 2) + gamma_e3 * np.sin(o1 * t12 / 2))
           * np.exp(-loss * t13_s - s.gamma_e1 * t12))
    out = np.where(support, amp, 0.0)
    return float(out) if out.ndim == 0 else out


def rcc_cascaded_stub(tau12, tau13, p: SystemParams):
    """Cascaded-source reference: a rate that factorizes by construction.

    Returns rcc_cond12(tau12) * m(tau13) with m the second-arm damped
    oscillation (1 - cos(O2 t13)) e^(-2 g_e2 t13) Theta(t13).  Used as the
    zero-residual baseline for the factorizability contrast.
    """
    _check_regime(p, Regime.CHI5_DOMINATED)  # rcc_cond12's check
    s = effective_splittings(p)
    o1, b = s.omega_e1, p.gamma51 - s.gamma_e1
    t12 = np.asarray(tau12, dtype=float) * p.gamma31_si
    t13 = np.asarray(tau13, dtype=float) * p.gamma31_si
    r12 = ((o1 * np.cos(o1 * t12 / 2) + 2 * b * np.sin(o1 * t12 / 2)) ** 2
           * np.exp(-2 * s.gamma_e1 * t12))
    m = (1.0 - np.cos(s.omega_e2 * t13)) * np.exp(-2 * s.gamma_e2 * t13)
    return np.where(t12 >= 0, r12, 0.0) * np.where(t13 >= 0, m, 0.0)


def find_resonances_whole_map(mag: np.ndarray, delta2_axis, delta3_axis) -> list[dict]:
    """`susceptibility.find_resonances` as eight neighbour tests over the
    whole interior: a boolean map per neighbour, then the floor."""
    if mag.size == 0 or not np.any(mag > 0):
        raise ValidationError("find_resonances needs a non-empty grid")
    peak = mag.max()
    hits = []
    core = mag[1:-1, 1:-1]
    neighborhood_max = np.ones_like(core, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            shifted = mag[1 + di:mag.shape[0] - 1 + di, 1 + dj:mag.shape[1] - 1 + dj]
            neighborhood_max &= core >= shifted
    # strict on the lexicographically earlier side to avoid plateau doubles
    neighborhood_max &= core > mag[:-2, 1:-1]
    neighborhood_max &= core > mag[1:-1, :-2]
    neighborhood_max &= core > RESONANCE_FLOOR * peak
    for i, j in np.argwhere(neighborhood_max):
        hits.append({
            "delta2": float(delta2_axis[i + 1]),
            "delta3": float(delta3_axis[j + 1]),
            "magnitude": float(core[i, j]),
        })
    hits.sort(key=lambda h: -h["magnitude"])
    return hits


def local_maxima(tr: TimeTrace) -> np.ndarray:
    """Interior 3-point maxima above MAXIMA_FLOOR*peak, parabolically refined.

    Returns an (n, 2) array of (time, value).  The refinement fits a parabola
    through the three samples around each maximum; positions are accurate to
    a small fraction of a sample for smooth oscillations.
    """
    y = np.asarray(tr.values, dtype=float)
    t = tr.t_axis
    peak = y.max()
    if peak <= 0:
        return np.empty((0, 2))
    out = []
    dt = tr.dt
    for i in range(1, len(y) - 1):
        if y[i] > y[i - 1] and y[i] >= y[i + 1] and y[i] > MAXIMA_FLOOR * peak:
            den = y[i - 1] - 2 * y[i] + y[i + 1]
            off = 0.5 * (y[i - 1] - y[i + 1]) / den if den != 0 else 0.0
            off = float(np.clip(off, -0.5, 0.5))
            out.append((t[i] + off * dt, y[i] - 0.25 * (y[i - 1] - y[i + 1]) * off))
    return np.array(out) if out else np.empty((0, 2))


def _dominant_spacing_cluster(diffs: np.ndarray) -> np.ndarray:
    """Largest single-linkage cluster of spacings (8% relative gap).

    Genuine spacings of a damped oscillation agree to well under a percent;
    ringing near the support boundary injects isolated short spacings that
    would bias a plain mean or even a median when maxima are few.  Ties go to
    the cluster with the larger mean (artifacts cluster short).
    """
    order = np.sort(diffs)
    clusters = [[order[0]]]
    for d in order[1:]:
        if d <= clusters[-1][-1] * 1.08:
            clusters[-1].append(d)
        else:
            clusters.append([d])
    best = max(clusters, key=lambda c: (len(c), float(np.mean(c))))
    return np.asarray(best)


def extract_period(tr: TimeTrace) -> float:
    """Oscillation period in seconds: the mean spacing of successive refined
    maxima, taken over the dominant spacing cluster."""
    pk = local_maxima(tr)
    if len(pk) < 3:
        raise InsufficientExtremaError(
            f"period fit needs >= 3 maxima, found {len(pk)}")
    return float(_dominant_spacing_cluster(np.diff(pk[:, 0])).mean())


def _halfmax_span(t: np.ndarray, y: np.ndarray, level: float) -> float:
    """Total time where y >= level, with linear edge interpolation."""
    above = y >= level
    if not above.any():
        return 0.0
    total = 0.0
    start = None
    for i, a in enumerate(above):
        if a and start is None:
            start = t[i]
            if i > 0:  # interpolate the rising crossing
                frac = (level - y[i - 1]) / (y[i] - y[i - 1])
                start = t[i - 1] + frac * (t[i] - t[i - 1])
        elif not a and start is not None:
            frac = (y[i - 1] - level) / (y[i - 1] - y[i])
            end = t[i - 1] + frac * (t[i] - t[i - 1])
            total += end - start
            start = None
    if start is not None:
        total += t[-1] - start
    return float(total)


def coherence_fit(tr: TimeTrace) -> CoherenceFit:
    """Coherence time with a three-branch strategy (see
    `analysis.coherence_fit`)."""
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
        sel = y > MAXIMA_FLOOR * peak
        if not _is_monotone_decay(y, sel):
            raise InsufficientExtremaError(
                "trace has neither >= 3 maxima nor monotone decay")
        pk = np.column_stack([tr.t_axis[sel], y[sel]])

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


def _is_monotone_decay(y: np.ndarray, sel: np.ndarray) -> bool:
    idx = np.where(sel)[0]
    if len(idx) < 3:
        return False
    seg = y[idx[0]:idx[-1] + 1]
    return bool(np.all(np.diff(seg) <= 0))


def _envelope_crossing(t: np.ndarray, v: np.ndarray) -> float:
    """First log-interpolated time coordinate where the envelope <= max/e."""
    target = v.max() / math.e
    i_peak = int(np.argmax(v))
    for i in range(i_peak + 1, len(v)):
        if v[i] <= target:
            v0, v1 = v[i - 1], v[i]
            frac = (math.log(v0) - math.log(target)) / (math.log(v0) - math.log(v1))
            return float(t[i - 1] + frac * (t[i] - t[i - 1]))
    # envelope never crosses within the trace: extrapolate from the last pair
    v0, v1 = v[-2], v[-1]
    if v1 >= v0:
        raise InsufficientExtremaError("envelope never decays to 1/e of its peak")
    slope = (math.log(v1) - math.log(v0)) / (t[-1] - t[-2])
    return float(t[-1] + (math.log(target) - math.log(v1)) / slope)
