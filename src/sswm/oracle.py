"""Brute-force evaluation of the coincidence observables by discretized 2D
Fourier transform of the sampled chi5*Phi spectrum.

This module is the ground truth the closed forms are checked against.  The
transform kernel is e^{-i(delta2*tau12 + delta3*tau13)}; with every pole of
the conjugated spectrum in the lower half plane this lands the support on
{tau12 >= 0, tau13 >= tau12}, which is frozen as a regression test.  The
quadrature is a uniform Riemann sum realized as an FFT (the spectra are
smooth Lorentzian products; the refinement test governs accuracy), and
results are bitwise-reproducible for a fixed configuration.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import TimeTrace
from .errors import ValidationError
from .params import SystemParams, effective_splittings, eit_dispersion
from .susceptibility import SpectralGrid, spectral_grid
from .wavepacket import WavepacketGrid


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
        if self.n_points < 256 or (self.n_points & (self.n_points - 1)) != 0:
            raise ValidationError("n_points must be a power of two >= 256")
        if not 0.0 <= self.tukey_alpha <= 1.0:
            raise ValidationError("tukey_alpha must lie in [0, 1]")
        if self.extent is not None and not (0 < self.extent < math.inf):
            raise ValidationError("extent must be positive and finite")


def default_extent(p: SystemParams) -> float:
    """4x the largest of (Omega_e1, Omega_e2, dw_g, 2*gamma_e1, 2*gamma_e2)."""
    s = effective_splittings(p)
    cands = [s.omega_e1, s.omega_e2, 2 * s.gamma_e1, 2 * s.gamma_e2]
    if p.optical_depth > 0:
        cands.append(eit_dispersion(p).delta_omega_g)
    return 4 * max(cands)


def _resolve(p: SystemParams, cfg: OracleConfig) -> tuple[float, int]:
    extent = cfg.extent if cfg.extent is not None else default_extent(p)
    s = effective_splittings(p)
    spacing = 2 * extent / cfg.n_points
    if spacing >= min(s.gamma_e1, s.gamma_e2) / 4:
        warnings.warn(
            f"grid spacing {spacing:.3g} does not resolve the narrower "
            f"linewidth / 4 = {min(s.gamma_e1, s.gamma_e2) / 4:.3g}", stacklevel=3)
    return extent, cfg.n_points


def sampled_spectrum(p: SystemParams, cfg: OracleConfig) -> SpectralGrid:
    """chi5*Phi samples (window applied) ready for the discrete transform."""
    extent, n = _resolve(p, cfg)
    grid = spectral_grid(p, extent, n, force_phi_unity=cfg.force_phi_unity,
                         ideal_rect=cfg.ideal_rect)
    if cfg.tukey_alpha > 0:
        from scipy.signal.windows import tukey  # ~1 s import, needed only here

        w = tukey(n, cfg.tukey_alpha)
        grid = SpectralGrid(
            delta2_axis=grid.delta2_axis,
            delta3_axis=grid.delta3_axis,
            values=grid.values * w[:, None] * w[None, :],
            params_hash=grid.params_hash,
            n_singular_replaced=grid.n_singular_replaced,
            meta={**grid.meta, "tukey_alpha": cfg.tukey_alpha},
        )
    return grid


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
    """|wavepacket_numeric|^2, peak-normalized on request."""
    return _rate(wavepacket_numeric(p, cfg), normalize)


def rcc_cond_numeric(which: str, p: SystemParams,
                     cfg: OracleConfig | None = None,
                     normalize: bool = True) -> TimeTrace:
    """Conditional rate: transform over one detuning, square, then integrate
    the other (the squaring happens before the outer integral, exactly as the
    defining double integral prescribes).

    which = "tau12": inner transform over delta2 at fixed delta3;
    which = "tau13": inner transform over delta3 at fixed delta2.
    """
    _check_which(which)
    grid = sampled_spectrum(p, cfg or OracleConfig())
    return _conditional(grid, which, p.gamma31_si, normalize)


def _amplitude(grid: SpectralGrid, gamma31_si: float) -> WavepacketGrid:
    # phase-corrected fft2 of the sampled spectrum; see wavepacket_numeric
    n = len(grid.delta2_axis)
    dd = float(grid.delta2_axis[1] - grid.delta2_axis[0])
    t_dimless = np.fft.fftshift(2 * math.pi * np.fft.fftfreq(n, d=dd))
    B = np.fft.fftshift(np.fft.fft2(grid.values))
    phase = np.exp(-1j * grid.delta2_axis[0] * (t_dimless[:, None] + t_dimless[None, :]))
    B = B * phase * dd * dd
    t = t_dimless / gamma31_si
    return WavepacketGrid(tau12_axis=t, tau13_axis=t.copy(), values=B,
                          kind="amplitude", normalization=None)


def _rate(amp: WavepacketGrid, normalize: bool = True) -> WavepacketGrid:
    vals = np.abs(amp.values) ** 2
    norm = None
    if normalize:
        norm = float(vals.max())
        vals = vals / norm
    return WavepacketGrid(tau12_axis=amp.tau12_axis, tau13_axis=amp.tau13_axis,
                          values=vals, kind="rate", normalization=norm)


def _check_which(which: str) -> None:
    if which not in ("tau12", "tau13"):
        raise ValidationError("which must be 'tau12' or 'tau13'")


def _conditional(grid: SpectralGrid, which: str, gamma31_si: float,
                 normalize: bool = True) -> TimeTrace:
    # 1D transform along one detuning, |.|^2, then the sum over the other
    n = len(grid.delta2_axis)
    dd = float(grid.delta2_axis[1] - grid.delta2_axis[0])
    axis = 0 if which == "tau12" else 1
    G = np.fft.fft(grid.values, axis=axis)
    R = (np.abs(G) ** 2).sum(axis=1 - axis) * dd**3
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
    what the caller asks for: the peak-normalized rate grid (`rate`, as
    `rcc_numeric`; None when `rate` is false) and the peak-normalized
    conditional traces listed in `traces` (as `rcc_cond_numeric`), through
    the same transforms as those functions, so the products are bitwise
    equal to theirs.  Neither the spectrum nor the complex amplitude
    outlives the constructor: a 2048^2 complex grid is 64 MB, and the run
    keeps only what it was asked for.
    """

    def __init__(self, p: SystemParams, cfg: OracleConfig | None = None, *,
                 rate: bool = True, traces: tuple[str, ...] = ()) -> None:
        for which in traces:
            _check_which(which)
        grid = sampled_spectrum(p, cfg or OracleConfig())
        self._traces = {w: _conditional(grid, w, p.gamma31_si) for w in traces}
        self.rate = _rate(_amplitude(grid, p.gamma31_si)) if rate else None

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


def normalized_l2_error(test: np.ndarray, reference: np.ndarray,
                        mask: np.ndarray | None = None) -> float:
    """||test - reference||_2 / ||reference||_2, optionally masked."""
    t = np.asarray(test, dtype=float)
    r = np.asarray(reference, dtype=float)
    if mask is not None:
        t, r = t[mask], r[mask]
    denom = math.sqrt(float((r**2).sum()))
    if denom == 0:
        raise ValidationError("reference grid has zero norm")
    return math.sqrt(float(((t - r) ** 2).sum())) / denom


def support_edge_mask(wp_tau12_axis: np.ndarray, wp_tau13_axis: np.ndarray,
                      halfwidth_cells: float = 2.5) -> np.ndarray:
    """Mask that drops the transition band around the tau12 = 0 support jump.

    A band-limited discrete transform necessarily takes midpoint values
    across a step discontinuity; comparisons against the closed forms
    therefore exclude samples within `halfwidth_cells` of tau12 = 0 (the only
    jump line; the rate is continuous across tau13 = tau12).
    """
    dt = float(wp_tau12_axis[1] - wp_tau12_axis[0])
    t12 = np.asarray(wp_tau12_axis)[:, None]
    keep = np.abs(t12) > halfwidth_cells * dt
    return np.broadcast_to(keep, (len(wp_tau12_axis), len(wp_tau13_axis)))
