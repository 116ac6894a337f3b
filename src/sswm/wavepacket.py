"""Closed-form triphoton wavepackets and coincidence rates.

Public time arguments are in seconds; internally times are scaled by
gamma31_si so the physics stays in gamma31 units.  All functions broadcast
over numpy arrays.  The step convention is Theta(0) = 1, and rates vanish
identically outside {tau12 >= 0, tau13 >= tau12}.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .blocks import map_blocks
from .errors import OverdampedError, ValidationError
from .params import (DerivedFrequencies, Regime, SystemParams, classify_regime,
                     derived_frequencies, effective_splittings, eit_dispersion)


#: tau12 rows per block when analytic_rate_grid evaluates a closed form.
RATE_BLOCK_ROWS = 64


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
    """Uniform 2D time grid holding a complex amplitude or a real rate."""

    tau12_axis: np.ndarray  # s
    tau13_axis: np.ndarray  # s
    values: np.ndarray
    kind: str = "rate"  # "amplitude" | "rate"
    normalization: float | None = None

    def __post_init__(self) -> None:
        for ax in (self.tau12_axis, self.tau13_axis):
            d = np.diff(ax)
            if not np.all(d > 0):
                raise ValidationError("time axes must be strictly increasing")
        if self.values.shape != (len(self.tau12_axis), len(self.tau13_axis)):
            raise ValidationError("value array shape must match axis lengths")
        if self.kind == "rate" and np.min(self.values.real) < 0:
            raise ValidationError("rate grids must be non-negative")

    @property
    def dt(self) -> float:
        return float(self.tau12_axis[1] - self.tau12_axis[0])


def _check_regime(p: SystemParams, expect: Regime) -> None:
    s = effective_splittings(p)
    if s.overdamped:
        raise OverdampedError("time-domain closed forms disabled for overdamped arms")
    d = derived_frequencies(p)
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
    out = _chi5_rate(p, effective_splittings(p))(tau12, tau13)
    return float(out) if out.ndim == 0 else out


def _chi5_rate(p: SystemParams, s: DerivedFrequencies):
    """rcc_chi5's array expressions, with its scalars bound once: pure numpy."""
    o1, o2 = s.omega_e1, s.omega_e2
    b = p.gamma51 - s.gamma_e1

    def rate(tau12, tau13):
        t12 = np.asarray(tau12, dtype=float) * p.gamma31_si
        t13 = np.asarray(tau13, dtype=float) * p.gamma31_si
        ss = t13 - t12
        support = (t12 >= 0) & (ss >= 0)
        bracket = (o1**2 * np.cos(o1 * t12 / 2) ** 2
                   + 2 * o1 * b * np.sin(o1 * t12)
                   + 4 * b**2 * np.sin(o1 * t12 / 2) ** 2)
        val = (np.exp(-2 * s.gamma_e1 * t12 - 2 * s.gamma_e2 * ss)
               * bracket * (1.0 - np.cos(o2 * ss)))
        return np.where(support, val, 0.0)
    return rate


def rcc_cond12(tau12, p: SystemParams, normalize: bool = False):
    """Conditional two-photon rate along tau12.

    R = [O1 cos(O1 t/2) + 2 (g51 - g_e1) sin(O1 t/2)]^2 e^(-2 g_e1 t) Theta(t).
    """
    _check_regime(p, Regime.CHI5_DOMINATED)
    s = effective_splittings(p)
    out = _cond12_rate(p, s)(tau12)
    if normalize:
        out = out / s.omega_e1**2  # the origin is the global maximum
    return float(out) if out.ndim == 0 else out


def _cond12_rate(p: SystemParams, s: DerivedFrequencies):
    """rcc_cond12's array expressions, with its scalars bound once: pure numpy."""
    o1 = s.omega_e1
    b = p.gamma51 - s.gamma_e1

    def rate(tau12):
        t = np.asarray(tau12, dtype=float) * p.gamma31_si
        val = ((o1 * np.cos(o1 * t / 2) + 2 * b * np.sin(o1 * t / 2)) ** 2
               * np.exp(-2 * s.gamma_e1 * t))
        return np.where(t >= 0, val, 0.0)
    return rate


def hybrid_loss_rate(p: SystemParams) -> float:
    """Temporal amplitude decay rate (1/s) of the slow photon inside the cell.

    Line-center attenuation over the full length, Im[k3(0)]*L =
    (OD/2) * gamma21/(gamma21*gamma31 + |oc2|^2), spread over the group delay
    (the slow-light propagation relation).  Approaches gamma21 when the
    vacuum transit is negligible.
    """
    att = (p.optical_depth / 2) * p.gamma21 / (p.gamma21 * p.gamma31 + abs(p.omega_c2) ** 2)
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
    out = _hybrid_amplitude(p, effective_splittings(p), ideal_rect)(tau12, tau13)
    return float(out) if out.ndim == 0 else out


def _hybrid_amplitude(p: SystemParams, s: DerivedFrequencies, ideal_rect: bool):
    """wavepacket_hybrid's array expressions, with its scalars bound once:
    pure numpy."""
    disp = eit_dispersion(p)
    gamma_e3 = p.gamma51 - s.gamma_e1
    o1 = s.omega_e1
    loss = 0.0 if ideal_rect else hybrid_loss_rate(p)

    def amplitude(tau12, tau13):
        t12_s = np.asarray(tau12, dtype=float)
        t13_s = np.asarray(tau13, dtype=float)
        t12 = t12_s * p.gamma31_si
        rect = (t13_s >= 0) & (t13_s <= disp.group_delay)
        support = (t12 >= 0) & (t13_s >= t12_s) & rect
        amp = ((o1 / 2 * np.cos(o1 * t12 / 2) + gamma_e3 * np.sin(o1 * t12 / 2))
               * np.exp(-loss * t13_s - s.gamma_e1 * t12))
        return np.where(support, amp, 0.0)
    return amplitude


def rcc_hybrid(tau12, tau13, p: SystemParams, ideal_rect: bool = False):
    """Hybrid-regime rate: |wavepacket_hybrid|^2."""
    amp = wavepacket_hybrid(tau12, tau13, p, ideal_rect=ideal_rect)
    return np.abs(amp) ** 2


def _hybrid_rate(p: SystemParams, s: DerivedFrequencies, ideal_rect: bool = False):
    amplitude = _hybrid_amplitude(p, s, ideal_rect)
    return lambda tau12, tau13: np.abs(amplitude(tau12, tau13)) ** 2


def rcc_cascaded_stub(tau12, tau13, p: SystemParams):
    """Cascaded-source reference: a rate that factorizes by construction.

    Returns rcc_cond12(tau12) * m(tau13) with m the second-arm damped
    oscillation (1 - cos(O2 t13)) e^(-2 g_e2 t13) Theta(t13).  Used as the
    zero-residual baseline for the factorizability contrast.
    """
    _check_regime(p, Regime.CHI5_DOMINATED)  # rcc_cond12's check
    return _cascaded_rate(p, effective_splittings(p))(tau12, tau13)


def _cascaded_rate(p: SystemParams, s: DerivedFrequencies):
    """rcc_cascaded_stub's array expressions, with its scalars bound once:
    pure numpy."""
    cond12 = _cond12_rate(p, s)

    def rate(tau12, tau13):
        r12 = cond12(tau12)
        t = np.asarray(tau13, dtype=float) * p.gamma31_si
        val = (1.0 - np.cos(s.omega_e2 * t)) * np.exp(-2 * s.gamma_e2 * t)
        m = np.where(t >= 0, val, 0.0)
        return r12 * m
    return rate


#: Per closed form: the regime its check expects, and the maker of its
#: block function from (params, splittings, **kwargs).
_RATE_FORMS = {"chi5": (Regime.CHI5_DOMINATED, _chi5_rate),
               "hybrid": (Regime.HYBRID, _hybrid_rate),
               "cascaded": (Regime.CHI5_DOMINATED, _cascaded_rate)}


def analytic_rate_grid(p: SystemParams, tau12_axis: np.ndarray,
                       tau13_axis: np.ndarray, which: str = "chi5",
                       **kwargs) -> WavepacketGrid:
    """One closed-form rate on an explicit time grid, peak-normalized.

    The regime check (its warning names the caller's line) and the closed
    form's scalars run once per grid.  Its elementwise expressions are
    evaluated in blocks of tau12 rows, RATE_BLOCK_ROWS in flight, written
    into the one output grid, so the temporaries stay at block size and
    every value equals a whole-grid evaluation bitwise.
    """
    if which not in _RATE_FORMS:
        raise ValidationError(f"unknown analytic rate {which!r}")
    regime, form = _RATE_FORMS[which]
    _check_regime(p, regime)
    rate = form(p, effective_splittings(p), **kwargs)
    t12 = np.asarray(tau12_axis, dtype=float)
    t13 = np.asarray(tau13_axis, dtype=float)
    vals = np.empty((len(t12), len(t13)))

    def fill(rows):
        vals[rows] = rate(t12[rows, None], t13[None, :])
    map_blocks(fill, len(t12), RATE_BLOCK_ROWS)
    norm = float(vals.max())
    if norm > 0:
        vals /= norm
    return WavepacketGrid(tau12_axis=t12, tau13_axis=t13, values=vals,
                          kind="rate", normalization=norm)
