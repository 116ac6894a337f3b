"""Brute-force evaluation of the coincidence observables by discretized 2D
Fourier transform of the sampled chi5*Phi spectrum.

This module is the ground truth the closed forms are checked against.  The
transform kernel is e^{-i(delta2*tau12 + delta3*tau13)}; with every pole of
the conjugated spectrum in the lower half plane this lands the support on
{tau12 >= 0, tau13 >= tau12}, which is frozen as a regression test.  The
quadrature is a uniform Riemann sum realized as an FFT (the spectra are
smooth Lorentzian products; the refinement test governs accuracy), and
results are bitwise-reproducible for a fixed configuration.

The rate grid is |fft2|^2 of the samples: the linear phase that places the
amplitude on the shifted spectral axes has modulus one and drops out.  Each
conditional trace is that grid integrated over the other delay, which equals
the defining transform-square-integrate order by the discrete Parseval
identity along the integrated axis; `rcc_cond_numeric` keeps the literal
1D order as the reference.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import TimeTrace, trace_from_grid
from .errors import ValidationError
from .params import SystemParams, effective_splittings, eit_dispersion
from .susceptibility import SpectralGrid, check_grid, spectral_grid
from .wavepacket import WavepacketGrid

#: Half-width in cells of the tau12 = 0 band that closed-form comparisons drop.
EDGE_HALFWIDTH_CELLS = 2.5


@dataclass(frozen=True)
class OracleConfig:
    """Sampling configuration for the numeric transforms.

    extent: half-width of the square spectral window, gamma31 units; None
    picks 4x the largest characteristic frequency of the parameter set.
    tukey_alpha: 0 disables the window, otherwise the Tukey taper fraction.
    force_phi_unity replaces the detuning function by 1 for pure-chi5 checks;
    ideal_rect keeps Phi but drops its loss term.
    """

    extent: float | None = None
    n_points: int = 2048
    tukey_alpha: float = 0.0
    force_phi_unity: bool = False
    ideal_rect: bool = False

    def __post_init__(self) -> None:
        check_grid(self.extent, self.n_points)
        if not 0.0 <= self.tukey_alpha <= 1.0:
            raise ValidationError("tukey_alpha must lie in [0, 1]")


def default_extent(p: SystemParams) -> float:
    """4x the largest of (Omega_e1, Omega_e2, dw_g, 2*gamma_e1, 2*gamma_e2)."""
    s = effective_splittings(p)
    return 4 * max(s.omega_e1, s.omega_e2, 2 * s.gamma_e1, 2 * s.gamma_e2,
                   eit_dispersion(p).delta_omega_g)


def _resolve(p: SystemParams, cfg: OracleConfig) -> float:
    extent = cfg.extent if cfg.extent is not None else default_extent(p)
    s = effective_splittings(p)
    spacing = 2 * extent / cfg.n_points
    if spacing >= min(s.gamma_e1, s.gamma_e2) / 4:
        warnings.warn(
            f"grid spacing {spacing:.3g} does not resolve the narrower "
            f"linewidth / 4 = {min(s.gamma_e1, s.gamma_e2) / 4:.3g}", stacklevel=3)
    return extent


def sampled_spectrum(p: SystemParams, cfg: OracleConfig) -> SpectralGrid:
    """chi5*Phi samples (window applied) ready for the discrete transform."""
    grid = spectral_grid(p, _resolve(p, cfg), cfg.n_points,
                         force_phi_unity=cfg.force_phi_unity, ideal_rect=cfg.ideal_rect)
    if cfg.tukey_alpha > 0:
        w = _tukey(cfg.n_points, cfg.tukey_alpha)
        # a fresh array: taper it in place (through a name, as grid is frozen)
        values = grid.values
        values *= w[:, None]
        values *= w[None, :]
    return grid


def _tukey(n: int, alpha: float) -> np.ndarray:
    """The symmetric Tukey window of `scipy.signal.windows.tukey(n, alpha)`,
    0 < alpha <= 1, written with the same expressions in the same order so
    the samples are bitwise equal (alpha = 1 is scipy's Hann branch)."""
    if alpha >= 1.0:
        return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n))
    k = np.arange(n, dtype=np.float64)
    width = int(math.floor(alpha * (n - 1) / 2.0))
    n1, n3 = k[:width + 1], k[n - width - 1:]
    w = np.ones(n)
    w[:width + 1] = 0.5 * (1 + np.cos(np.pi * (-1 + 2.0 * n1 / alpha / (n - 1))))
    w[n - width - 1:] = 0.5 * (1 + np.cos(np.pi * (-2.0 / alpha + 1 + 2.0 * n3 / alpha / (n - 1))))
    return w


def _time_axis(n: int, spacing: float, gamma31_si: float) -> np.ndarray:
    # conjugate axis of the uniform spectral grid, sorted increasing, seconds
    t = 2 * math.pi * np.fft.fftfreq(n, d=spacing)
    return np.fft.fftshift(t) / gamma31_si


def wavepacket_numeric(p: SystemParams, cfg: OracleConfig | None = None) -> WavepacketGrid:
    """Complex amplitude B(tau12, tau13) on the conjugate time grid.

    B[m1, m2] = sum_{jk} chi5*Phi[j, k] e^{-i(d2_j t_m1 + d3_k t_m2)} dd^2,
    evaluated as a phase-corrected FFT (the axes start at -extent, hence the
    linear phase factor).
    """
    return _amplitude(sampled_spectrum(p, cfg or OracleConfig()), p.gamma31_si)


def rcc_numeric(p: SystemParams, cfg: OracleConfig | None = None,
                normalize: bool = True) -> WavepacketGrid:
    """|wavepacket_numeric|^2, peak-normalized on request (taken straight
    from the fft2, without the unit-modulus phase factor).  The spectrum is
    sampled for this call and transformed in place, so the call holds that
    complex array and the real rate grid, nothing larger."""
    return _rate_grid(sampled_spectrum(p, cfg or OracleConfig()), p.gamma31_si, normalize)


def rcc_cond_numeric(which: str, p: SystemParams,
                     cfg: OracleConfig | None = None,
                     normalize: bool = True) -> TimeTrace:
    """Conditional rate: transform over one detuning, square, then integrate
    the other (the squaring happens before the outer integral, exactly as the
    defining double integral prescribes).

    which = "tau12": inner transform over delta2 at fixed delta3;
    which = "tau13": inner transform over delta3 at fixed delta2.
    The spectrum sampled for this call is transformed in place.
    """
    _check_which(which)
    grid = sampled_spectrum(p, cfg or OracleConfig())
    return _conditional(grid, which, p.gamma31_si, normalize, in_place=True)


def _amplitude(grid: SpectralGrid, gamma31_si: float) -> WavepacketGrid:
    # phase-corrected fft2 of the sampled spectrum; see wavepacket_numeric
    n = len(grid.delta2_axis)
    dd = float(grid.delta2_axis[1] - grid.delta2_axis[0])
    t_dimless = _time_axis(n, dd, 1.0)
    B = np.fft.fftshift(np.fft.fft2(grid.values))
    phase = np.exp(-1j * grid.delta2_axis[0] * (t_dimless[:, None] + t_dimless[None, :]))
    B = B * phase * dd * dd
    t = t_dimless / gamma31_si
    return WavepacketGrid(tau12_axis=t, tau13_axis=t.copy(), values=B,
                          kind="amplitude", normalization=None)


def _rate_grid(grid: SpectralGrid, gamma31_si: float,
               normalize: bool = True) -> WavepacketGrid:
    # (Re^2 + Im^2) of the fft2 times dd^4, the phase factor of _amplitude
    # having modulus one.  The transform overwrites grid.values, which the
    # caller owns and no longer reads; each quadrant of the squared
    # magnitude lands where fftshift puts it, so no shifted copy is made.
    n = len(grid.delta2_axis)
    dd = float(grid.delta2_axis[1] - grid.delta2_axis[0])
    F = np.fft.fft2(grid.values, out=grid.values)
    np.square(F.imag, out=F.imag)
    vals = np.empty((n, n))
    halves = (slice(None, n // 2), slice(n // 2, None))
    for i in (0, 1):
        for j in (0, 1):
            # fftshift (n even) moves quadrant (i, j) to (1 - i, 1 - j)
            quad = vals[halves[1 - i], halves[1 - j]]
            np.square(F.real[halves[i], halves[j]], out=quad)
            quad += F.imag[halves[i], halves[j]]
    del F
    vals *= dd**4
    norm = None
    if normalize:
        norm = float(vals.max())
        vals /= norm
    t = _time_axis(n, dd, gamma31_si)
    return WavepacketGrid(tau12_axis=t, tau13_axis=t.copy(), values=vals,
                          kind="rate", normalization=norm)


def _check_which(which: str) -> None:
    if which not in ("tau12", "tau13"):
        raise ValidationError("which must be 'tau12' or 'tau13'")


def _conditional(grid: SpectralGrid, which: str, gamma31_si: float,
                 normalize: bool = True, in_place: bool = False) -> TimeTrace:
    # 1D transform along one detuning, |.|^2, then the sum over the other;
    # in_place transforms grid.values itself, for a caller that no longer
    # reads the spectrum
    n = len(grid.delta2_axis)
    dd = float(grid.delta2_axis[1] - grid.delta2_axis[0])
    axis = 0 if which == "tau12" else 1
    G = np.fft.fft(grid.values, axis=axis, out=grid.values if in_place else None)
    np.square(G.imag, out=G.imag)
    sq = G.real ** 2
    sq += G.imag
    del G
    R = sq.sum(axis=1 - axis) * dd**3
    R = np.fft.fftshift(R)
    t = _time_axis(n, dd, gamma31_si)
    if normalize:
        peak = float(R.max())
        if peak > 0:
            R = R / peak
    return TimeTrace(t_axis=t, values=R)


class OracleRun:
    """The numeric products of one (params, config) pair, from one spectrum.

    The constructor samples chi5*Phi once (`sampled_spectrum`) and derives
    what the caller asks for: the peak-normalized rate grid (`rate`; None
    when `rate` is false) and the peak-normalized conditional traces listed
    in `traces`.  The rate goes through the same transform as `rcc_numeric`
    and is bitwise equal to it.  With the rate, the run makes one fft2 and
    nothing else: each trace is the rate integrated over the other delay
    (`trace_from_grid`), equal to `rcc_cond_numeric` up to rounding by the
    discrete Parseval identity.  Without it, each trace is the 1D
    transform of `rcc_cond_numeric`, which costs less than an fft2.
    The run owns its spectrum and transforms it in place: the fft2 of the
    rate, or the 1D transform of the last trace (earlier traces transform
    a copy).  So a 2048^2 run holds the 64 MB complex spectrum and at most
    one 2048^2 temporary beside it.  Neither outlives the constructor; the
    run keeps only what it was asked for.
    """

    def __init__(self, p: SystemParams, cfg: OracleConfig | None = None, *,
                 rate: bool = True, traces: tuple[str, ...] = ()) -> None:
        for which in traces:
            _check_which(which)
        grid = sampled_spectrum(p, cfg or OracleConfig())
        if rate:
            self.rate = _rate_grid(grid, p.gamma31_si)
            self._traces = {w: trace_from_grid(self.rate, w) for w in traces}
        else:
            self.rate = None
            last = len(traces) - 1
            self._traces = {w: _conditional(grid, w, p.gamma31_si, in_place=i == last)
                            for i, w in enumerate(traces)}

    def trace(self, which: str) -> TimeTrace:
        """The peak-normalized conditional trace along `which`."""
        if which not in self._traces:
            raise ValidationError(f"this oracle run has no {which!r} trace")
        return self._traces[which]


def spectral_power(grid: SpectralGrid) -> float:
    """Total |chi5*Phi|^2 mass on the sampled window (Parseval reference)."""
    dd = float(grid.delta2_axis[1] - grid.delta2_axis[0])
    return float((np.abs(grid.values) ** 2).sum() * dd * dd)


def time_power(wp: WavepacketGrid, gamma31_si: float) -> float:
    """Total |B|^2 mass on the time grid / (2 pi)^2, in spectral units.

    The time axes are seconds while the spectral axes are gamma31 units, so
    the cell area is rescaled by gamma31_si^2 before comparing.
    """
    if wp.kind != "amplitude":
        raise ValidationError("time_power expects the complex amplitude grid")
    dt12 = float(wp.tau12_axis[1] - wp.tau12_axis[0]) * gamma31_si
    dt13 = float(wp.tau13_axis[1] - wp.tau13_axis[0]) * gamma31_si
    mass = float((np.abs(wp.values) ** 2).sum())
    return mass * dt12 * dt13 / (2 * math.pi) ** 2


def normalized_l2_error(test: np.ndarray, reference: np.ndarray, mask: np.ndarray) -> float:
    """||test - reference||_2 / ||reference||_2 over the cells of `mask`."""
    t = np.asarray(test, dtype=float)[mask]
    r = np.asarray(reference, dtype=float)[mask]
    denom = math.sqrt(float((r**2).sum()))
    if denom == 0:
        raise ValidationError("reference grid has zero norm")
    return math.sqrt(float(((t - r) ** 2).sum())) / denom


def support_edge_mask(wp_tau12_axis: np.ndarray, wp_tau13_axis: np.ndarray) -> np.ndarray:
    """Mask that drops the transition band around the tau12 = 0 support jump.

    A band-limited discrete transform necessarily takes midpoint values
    across a step discontinuity; comparisons against the closed forms
    therefore exclude samples within EDGE_HALFWIDTH_CELLS of tau12 = 0 (the
    only jump line; the rate is continuous across tau13 = tau12).
    """
    dt = float(wp_tau12_axis[1] - wp_tau12_axis[0])
    t12 = np.asarray(wp_tau12_axis)[:, None]
    keep = np.abs(t12) > EDGE_HALFWIDTH_CELLS * dt
    return np.broadcast_to(keep, (len(wp_tau12_axis), len(wp_tau13_axis)))
