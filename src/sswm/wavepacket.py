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
from .params import (GAMMA31, DerivedFrequencies, Regime, SystemParams, derived_frequencies,
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
            _check_increasing(ax)
        if self.values.shape != (len(self.tau12_axis), len(self.tau13_axis)):
            raise ValidationError("value array shape must match axis lengths")
        if not np.iscomplexobj(self.values) and self.values.size and np.min(self.values) < 0:
            raise ValidationError("rate grids must be non-negative")


def _check_increasing(axis: np.ndarray) -> None:
    """ValidationError unless the time axis `axis` strictly increases."""
    if not np.all(np.diff(axis) > 0):
        raise ValidationError("time axes must be strictly increasing")


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


def _tau12_factor(p: SystemParams, s: DerivedFrequencies, x: np.ndarray) -> np.ndarray:
    """rcc_cond12 times O1^2, before Theta, at x = tau12 gamma31; s = effective_splittings(p)."""
    o1, b = s.omega_e1, p.gamma51 - s.gamma_e1
    return ((o1 * np.cos(o1 * x / 2) + 2 * b * np.sin(o1 * x / 2)) ** 2
            * np.exp(-2 * s.gamma_e1 * x))


def rcc_cond12(tau12, p: SystemParams):
    """Conditional two-photon rate along tau12, divided by O1^2, its value at
    the origin, which is its maximum:

    R = [O1 cos(O1 t/2) + 2 (g51 - g_e1) sin(O1 t/2)]^2 e^(-2 g_e1 t) Theta(t) / O1^2.
    """
    _check_regime(p, Regime.CHI5_DOMINATED)
    s = effective_splittings(p)
    t = np.asarray(tau12, dtype=float) * p.gamma31_si
    out = np.where(t >= 0, _tau12_factor(p, s, t), 0.0) / s.omega_e1**2
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
    x13 = t13 * p.gamma31_si
    m = (1.0 - np.cos(s.omega_e2 * x13)) * np.exp(-2 * s.gamma_e2 * x13)
    return np.where(x12 >= 0, _tau12_factor(p, s, x12), 0.0), np.where(x13 >= 0, m, 0.0)


def analytic_rate_grid(p: SystemParams, tau12_axis: np.ndarray,
                       tau13_axis: np.ndarray, which: str = "chi5",
                       ideal_rect: bool = False,
                       window: tuple[slice, slice] = (slice(None), slice(None))
                       ) -> WavepacketGrid:
    """One closed-form rate on a time grid, peak-normalized, from its 1D
    factors after one regime check, whose warning names the caller's line.
    Row i is row[i] times the tau13 factor (any increasing axes; hybrid
    keeps tau13 >= tau12 on the axis values), or for chi5 m[j - i], a
    Toeplitz view of m that is 0 below the diagonal.  `ideal_rect` drops
    hybrid's loss.

    Only the cells of `window`, a (tau12, tau13) pair of index slices, are
    filled, and the grid holds that window's axes; the default window is the
    whole grid.  The normalization is the peak of the whole grid all the
    same, taken from the factors: both are non-negative and rounding is
    monotone, so a row's peak is its factor times the largest tau13 factor
    among its cells."""
    if which not in _REGIMES:
        raise ValidationError(f"unknown analytic rate {which!r}")
    _check_regime(p, _REGIMES[which])
    t12 = np.asarray(tau12_axis, dtype=float)
    t13 = np.asarray(tau13_axis, dtype=float)
    for ax in (t12, t13):
        _check_increasing(ax)
    row, col = _factors(p, which, t12, t13, ideal_rect)
    n = len(t12)
    cols = (sliding_window_view(np.concatenate([np.zeros(n - 1), col]), n)[::-1]
            if which == "chi5" else np.broadcast_to(col, (n, len(t13))))
    if which == "chi5":  # row i holds m[0], ..., m[n - 1 - i]
        reach = np.maximum.accumulate(col)[::-1]
    elif which == "hybrid":  # row i holds the g[j] with t13[j] >= t12[i]
        suffix = np.append(np.maximum.accumulate(col[::-1])[::-1], 0.0)
        reach = suffix[np.searchsorted(t13, t12)]
    else:
        reach = np.full(n, col.max())
    norm = float((row * reach).max())
    rows, cells = window
    row, cols, t12, t13 = row[rows], cols[rows, cells], t12[rows], t13[cells]
    vals = np.zeros((len(t12), len(t13)))

    def fill(block):
        ordered = which != "hybrid" or t13 >= t12[block, None]
        np.multiply(row[block, None], cols[block], out=vals[block], where=ordered)
    map_blocks(fill, len(t12), len(t12))
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
