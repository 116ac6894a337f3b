"""Closed-form triphoton wavepackets and coincidence rates.

Public time arguments are in seconds; internally times are scaled by
gamma31_si so the physics stays in gamma31 units.  All functions broadcast
over numpy arrays.  The step convention is Theta(0) = 1, and rates vanish
identically outside {tau12 >= 0, tau13 >= tau12}.  The literal forms are
the reference; grids and marginals are built from each rate's 1D factors.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blocks import map_blocks
from .errors import OverdampedError, ValidationError
from .params import (GAMMA31, Regime, SystemParams, derived_frequencies,
                     effective_splittings, eit_dispersion)
from .susceptibility import check_uniform


@dataclass(frozen=True)
class ChannelWeights:
    """Complex channel weights of the four-term superposition.

    Satisfies p1 - p2 = i*Omega_e1 identically (the two weights are complex
    conjugates shifted along the imaginary axis).
    """

    p1: complex
    p2: complex


def channel_weights(p: SystemParams) -> ChannelWeights:
    s = effective_splittings(p)
    if s.overdamped_1:
        raise OverdampedError("channel weights undefined: arm 1 overdamped")
    g_e1 = s.gamma_e1
    return ChannelWeights(
        p1=1j * (s.omega_e1 / 2 - 1j * g_e1) - p.gamma51,
        p2=1j * (-s.omega_e1 / 2 - 1j * g_e1) - p.gamma51,
    )


@dataclass(frozen=True)
class WavepacketGrid:
    """Uniform 2D time grid holding a complex amplitude or a real,
    non-negative rate."""

    tau12_axis: np.ndarray  # s
    tau13_axis: np.ndarray  # s
    values: np.ndarray
    normalization: float | None = None

    def __post_init__(self) -> None:
        for ax in (self.tau12_axis, self.tau13_axis):
            d = np.diff(ax)
            if not np.all(d > 0):
                raise ValidationError("time axes must be strictly increasing")
        if self.values.shape != (len(self.tau12_axis), len(self.tau13_axis)):
            raise ValidationError("value array shape must match axis lengths")
        if not np.iscomplexobj(self.values) and np.min(self.values) < 0:
            raise ValidationError("rate grids must be non-negative")


def _check_regime(p: SystemParams, expect: Regime) -> None:
    d = derived_frequencies(p)
    if d.overdamped:
        raise OverdampedError("time-domain closed forms disabled for overdamped arms")
    if d.regime is not expect:
        warnings.warn(
            f"parameters classify as {d.regime.value}, not {expect.value}; "
            "closed form remains evaluable", stacklevel=3)


def wavepacket_chi5(tau12, tau13, p: SystemParams):
    """Four-channel triphoton amplitude in the chi5-dominated regime.

    B = e^(-g_e1*t12 - g_e2*s) * Theta(t12) * Theta(s)
        * (P1 e^{-i O1 t12/2} - P2 e^{+i O1 t12/2})
        * (e^{+i O2 s/2} - e^{-i O2 s/2}),       s = tau13 - tau12,
    the weight-phase pairing that equals the Fourier transform of chi5 and
    whose squared magnitude reproduces the literal rate formula (the pairing
    is the algebra-consistent one; see rcc_chi5).
    """
    _check_regime(p, Regime.CHI5_DOMINATED)
    s = effective_splittings(p)
    w = channel_weights(p)
    t12 = np.asarray(tau12, dtype=float) * p.gamma31_si
    t13 = np.asarray(tau13, dtype=float) * p.gamma31_si
    ss = t13 - t12
    support = (t12 >= 0) & (ss >= 0)
    o1, o2 = s.omega_e1, s.omega_e2
    amp = (np.exp(-s.gamma_e1 * t12 - s.gamma_e2 * ss)
           * (w.p1 * np.exp(-0.5j * o1 * t12) - w.p2 * np.exp(0.5j * o1 * t12))
           * (np.exp(0.5j * o2 * ss) - np.exp(-0.5j * o2 * ss)))
    out = np.where(support, amp, 0.0 + 0.0j)
    return complex(out) if out.ndim == 0 else out


def rcc_chi5(tau12, tau13, p: SystemParams):
    """Triple coincidence rate, literal closed form.

    R = e^(-2 g_e1 t12 - 2 g_e2 s)
        [O1^2 cos^2(O1 t12/2) + 2 O1 (g51 - g_e1) sin(O1 t12)
         + 4 (g51-g_e1)^2 sin^2(O1 t12/2)] * [1 - cos(O2 s)] * Theta^2 * Theta^2.
    Equals |wavepacket_chi5|^2 / 2 identically.
    """
    _check_regime(p, Regime.CHI5_DOMINATED)
    s = effective_splittings(p)
    t12 = np.asarray(tau12, dtype=float) * p.gamma31_si
    t13 = np.asarray(tau13, dtype=float) * p.gamma31_si
    ss = t13 - t12
    support = (t12 >= 0) & (ss >= 0)
    o1, o2 = s.omega_e1, s.omega_e2
    b = p.gamma51 - s.gamma_e1
    bracket = (o1**2 * np.cos(o1 * t12 / 2) ** 2
               + 2 * o1 * b * np.sin(o1 * t12)
               + 4 * b**2 * np.sin(o1 * t12 / 2) ** 2)
    val = (np.exp(-2 * s.gamma_e1 * t12 - 2 * s.gamma_e2 * ss)
           * bracket * (1.0 - np.cos(o2 * ss)))
    out = np.where(support, val, 0.0)
    return float(out) if out.ndim == 0 else out


def rcc_cond12(tau12, p: SystemParams, normalize: bool = False):
    """Conditional two-photon rate along tau12.

    R = [O1 cos(O1 t/2) + 2 (g51 - g_e1) sin(O1 t/2)]^2 e^(-2 g_e1 t) Theta(t).
    """
    _check_regime(p, Regime.CHI5_DOMINATED)
    s = effective_splittings(p)
    t = np.asarray(tau12, dtype=float) * p.gamma31_si
    o1 = s.omega_e1
    b = p.gamma51 - s.gamma_e1
    val = ((o1 * np.cos(o1 * t / 2) + 2 * b * np.sin(o1 * t / 2)) ** 2
           * np.exp(-2 * s.gamma_e1 * t))
    out = np.where(t >= 0, val, 0.0)
    if normalize:
        out = out / o1**2  # the origin is the global maximum
    return float(out) if out.ndim == 0 else out


def hybrid_loss_rate(p: SystemParams) -> float:
    """Temporal amplitude decay rate (1/s) of the slow photon inside the cell.

    Line-center attenuation over the full length, Im[k3(0)]*L =
    (OD/2) * gamma21/(gamma21*GAMMA31 + |oc2|^2), spread over the group delay
    (the slow-light propagation relation).  Approaches gamma21 when the
    vacuum transit is negligible.
    """
    att = (p.optical_depth / 2) * p.gamma21 / (p.gamma21 * GAMMA31 + abs(p.omega_c2) ** 2)
    return att / eit_dispersion(p).group_delay


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


#: The regime each closed form of analytic_rate_grid expects.
_REGIMES = {"chi5": Regime.CHI5_DOMINATED, "hybrid": Regime.HYBRID,
            "cascaded": Regime.CHI5_DOMINATED}


def _factors(p: SystemParams, which: str, t12: np.ndarray, t13: np.ndarray,
             ideal_rect: bool) -> tuple[np.ndarray, np.ndarray]:
    """The rate `which` as two non-negative 1D factors of the times t12 and
    t13 (seconds): r12(tau12) m(tau13) for the cascaded stub; r12(tau12)
    m(tau13 - tau12) for chi5, m taken at the lags k*dt of one shared uniform
    axis t12 = t13; a(tau12) g(tau13) for hybrid, whose ordering
    Theta(tau13 - tau12) the caller applies."""
    s = effective_splittings(p)
    o1, b = s.omega_e1, p.gamma51 - s.gamma_e1
    x12 = t12 * p.gamma31_si
    if which == "hybrid":
        a = ((o1 / 2 * np.cos(o1 * x12 / 2) + b * np.sin(o1 * x12 / 2))
             * np.exp(-s.gamma_e1 * x12))
        loss = 0.0 if ideal_rect else hybrid_loss_rate(p)
        rect = (t13 >= 0) & (t13 <= eit_dispersion(p).group_delay)
        return np.where(x12 >= 0, a, 0.0) ** 2, np.where(rect, np.exp(-loss * t13), 0.0) ** 2
    if which == "chi5":
        if not np.array_equal(t12, t13):
            raise ValidationError("the chi5 closed form needs one shared tau12/tau13 axis")
        check_uniform(t12)
        t13 = (t12[-1] - t12[0]) / (len(t12) - 1) * np.arange(len(t12))
    r12 = ((o1 * np.cos(o1 * x12 / 2) + 2 * b * np.sin(o1 * x12 / 2)) ** 2
           * np.exp(-2 * s.gamma_e1 * x12))
    x13 = t13 * p.gamma31_si
    m = (1.0 - np.cos(s.omega_e2 * x13)) * np.exp(-2 * s.gamma_e2 * x13)
    return np.where(x12 >= 0, r12, 0.0), np.where(x13 >= 0, m, 0.0)


def analytic_rate_grid(p: SystemParams, tau12_axis: np.ndarray,
                       tau13_axis: np.ndarray, which: str = "chi5",
                       ideal_rect: bool = False) -> WavepacketGrid:
    """One closed-form rate on a time grid, peak-normalized, from its 1D
    factors after one regime check, whose warning names the caller's line.
    Row i is row[i] times the tau13 factor (any axes; hybrid keeps tau13 >=
    tau12 on the axis values), or for chi5 m[j - i], a Toeplitz view of m
    that is 0 below the diagonal.  `ideal_rect` drops hybrid's loss."""
    if which not in _REGIMES:
        raise ValidationError(f"unknown analytic rate {which!r}")
    _check_regime(p, _REGIMES[which])
    t12 = np.asarray(tau12_axis, dtype=float)
    t13 = np.asarray(tau13_axis, dtype=float)
    row, col = _factors(p, which, t12, t13, ideal_rect)
    n = len(t12)
    cols = (sliding_window_view(np.concatenate([np.zeros(n - 1), col]), n)[::-1]
            if which == "chi5" else np.broadcast_to(col, (n, len(t13))))
    vals = np.zeros((n, len(t13)))

    def fill(rows):
        ordered = which != "hybrid" or t13 >= t12[rows, None]
        np.multiply(row[rows, None], cols[rows], out=vals[rows], where=ordered)
    map_blocks(fill, n, n)
    norm = float(vals.max())
    if norm > 0:
        vals /= norm
    return WavepacketGrid(tau12_axis=t12, tau13_axis=t13, values=vals, normalization=norm)


def analytic_tau13_marginal(p: SystemParams, t: np.ndarray, which: str = "chi5",
                            ideal_rect: bool = False) -> np.ndarray:
    """analytic_rate_grid(p, t, t, which) summed over tau12, peak-normalized,
    from the 1D factors alone: chi5's sum is the convolution of r12 with m,
    hybrid's the running sum of a times g.  No grid is built."""
    if which not in ("chi5", "hybrid"):
        raise ValidationError(f"no tau13 marginal for analytic rate {which!r}")
    _check_regime(p, _REGIMES[which])
    t = np.asarray(t, dtype=float)
    row, col = _factors(p, which, t, t, ideal_rect)
    vals = np.convolve(row, col)[:len(t)] if which == "chi5" else np.cumsum(row) * col
    peak = vals.max()
    return vals / peak if peak > 0 else vals
