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
from dataclasses import dataclass, replace

import numpy as np

from .analysis import TimeTrace, trace_from_grid
from .blocks import map_blocks
from .errors import ValidationError
from .params import SystemParams, effective_splittings, eit_dispersion
from .susceptibility import SpectralGrid, check_grid, real_first_half, spectral_grid
from .wavepacket import WavepacketGrid

#: Half-width in cells of the tau12 = 0 band that closed-form comparisons drop.
EDGE_HALFWIDTH_CELLS = 2.5

#: Rows per block when normalized_l2_error sums its squares.
L2_BLOCK_ROWS = 64

#: Rows per block when the rate grid is squared into its spectrum's memory.
RATE_BLOCK_ROWS = 64


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


def sampled_spectrum(p: SystemParams, cfg: OracleConfig) -> SpectralGrid:
    """chi5*Phi samples (window applied) ready for the discrete transform."""
    extent = cfg.extent if cfg.extent is not None else default_extent(p)
    s = effective_splittings(p)
    spacing = 2 * extent / cfg.n_points
    if spacing >= min(s.gamma_e1, s.gamma_e2) / 4:
        warnings.warn(
            f"grid spacing {spacing:.3g} does not resolve the narrower "
            f"linewidth / 4 = {min(s.gamma_e1, s.gamma_e2) / 4:.3g}", stacklevel=2)
    grid = spectral_grid(p, extent, cfg.n_points,
                         force_phi_unity=cfg.force_phi_unity, ideal_rect=cfg.ideal_rect)
    if cfg.tukey_alpha > 0:
        w = _tukey(cfg.n_points, cfg.tukey_alpha)
        values = grid.values  # a fresh array: taper it in place

        def taper(rows):
            block = values[rows]
            block *= w[rows, None]
            block *= w[None, :]
        map_blocks(taper, cfg.n_points, cfg.n_points)
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
    grid = sampled_spectrum(p, cfg or OracleConfig())
    n = len(grid.delta2_axis)
    dd = float(grid.delta2_axis[1] - grid.delta2_axis[0])
    t_dimless = _time_axis(n, dd, 1.0)
    B = np.fft.fftshift(_fft2(grid.values))
    phase = np.exp(-1j * grid.delta2_axis[0] * (t_dimless[:, None] + t_dimless[None, :]))
    B = B * phase * dd * dd
    t = t_dimless / p.gamma31_si
    return WavepacketGrid(tau12_axis=t, tau13_axis=t.copy(), values=B)


def rcc_numeric(p: SystemParams, cfg: OracleConfig | None = None) -> WavepacketGrid:
    """|wavepacket_numeric|^2, peak-normalized: the rate of `OracleRun`."""
    return OracleRun(p, cfg).rate


def rcc_cond_numeric(which: str, p: SystemParams,
                     cfg: OracleConfig | None = None) -> TimeTrace:
    """Conditional rate, peak-normalized: transform over one detuning, square,
    then integrate the other (the squaring happens before the outer integral,
    exactly as the defining double integral prescribes).

    which = "tau12": inner transform over delta2 at fixed delta3;
    which = "tau13": inner transform over delta3 at fixed delta2.
    This is the trace of a rate-free `OracleRun`.
    """
    return OracleRun(p, cfg, traces=(which,)).trace(which)


def _fft2(values: np.ndarray) -> np.ndarray:
    """np.fft.fft2(values, out=values), bitwise: the 1D transform along
    axis 1 on row blocks, then along axis 0 on column blocks, which is
    fft2's own order."""
    n0, n1 = values.shape
    map_blocks(lambda rows: np.fft.fft(values[rows], axis=1, out=values[rows]), n0, n0)
    map_blocks(lambda cols: np.fft.fft(values[:, cols], axis=0, out=values[:, cols]), n1, n1)
    return values


def _rate_grid(grid: SpectralGrid, gamma31_si: float) -> WavepacketGrid:
    # (Re^2 + Im^2) of the fft2 times dd^4: wavepacket_numeric's phase factor
    # has modulus one.  The transform overwrites grid.values, which the
    # caller owns and no longer reads, and each fftshifted row of the squares
    # is written into the first half of the same buffer, whose second half
    # is then released: the rate costs no memory beyond the spectrum's.
    n = len(grid.delta2_axis)
    h = n // 2
    dd = float(grid.delta2_axis[1] - grid.delta2_axis[0])
    F = _fft2(grid.values)
    vals = F.reshape(-1).view(np.float64)[:n * n].reshape(n, n)
    halves = (slice(None, h), slice(h, None))

    def square(rows, out):
        # rate rows `rows` (within one half) into `out`: fftshift (n even)
        # takes them from the rows h away and swaps the column halves
        start = (rows.start + h) % n
        src = slice(start, start + rows.stop - rows.start)
        np.square(F.imag[src], out=F.imag[src])
        for j in (0, 1):
            quad = out[:, halves[1 - j]]
            np.square(F.real[src, halves[j]], out=quad)
            quad += F.imag[src, halves[j]]
            quad *= dd**4

    # Rate row r lands in complex row r // 2.  A rate row r >= h reads
    # complex row r - h, and complex row r // 2 is read by rate row
    # r // 2 + h >= r: so these run serially from n-1 down, each block
    # squared aside before it is written.  A rate row r < h reads complex
    # row r + h >= h, which no rate row covers, and lands in complex row
    # r // 2 < h/2, read by the serial pass: these blocks run in parallel.
    for stop in range(n, h, -RATE_BLOCK_ROWS):
        rows = slice(max(stop - RATE_BLOCK_ROWS, h), stop)
        block = np.empty((rows.stop - rows.start, n))
        square(rows, block)
        vals[rows] = block
    map_blocks(lambda rows: square(rows, vals[rows]), h, RATE_BLOCK_ROWS)
    norm = float(vals.max())
    if not 0 < norm < math.inf:  # a spectrum too small or too large to square
        raise ValidationError(f"the rate grid peaks at {norm!r}: out of the floating-point range")
    vals /= norm
    del vals
    vals = real_first_half(F)
    t = _time_axis(n, dd, gamma31_si)
    return WavepacketGrid(tau12_axis=t, tau13_axis=t.copy(), values=vals,
                          normalization=norm)


def _conditional(grid: SpectralGrid, which: str, gamma31_si: float) -> TimeTrace:
    # 1D transform along one detuning, |.|^2, then the sum over the other,
    # peak-normalized; the transform overwrites grid.values, which the caller
    # owns and no longer reads
    n = len(grid.delta2_axis)
    dd = float(grid.delta2_axis[1] - grid.delta2_axis[0])
    axis = 0 if which == "tau12" else 1
    G = grid.values

    def transform(lines):
        # `lines` cut across the transform axis
        at = (slice(None), lines) if axis == 0 else lines
        np.fft.fft(G[at], axis=axis, out=G[at])
    map_blocks(transform, n, n)
    np.square(G.real, out=G.real)
    np.square(G.imag, out=G.imag)
    G.real += G.imag
    R = G.real.sum(axis=1 - axis) * dd**3
    R = np.fft.fftshift(R)
    t = _time_axis(n, dd, gamma31_si)
    peak = float(R.max())
    if not 0 < peak < math.inf:  # a spectrum too small or too large to square
        raise ValidationError(f"the {which} trace peaks at {peak!r}: out of the "
                              f"floating-point range")
    return TimeTrace(t_axis=t, values=R / peak)


class OracleRun:
    """The numeric products of one (params, config) pair, from one spectrum.

    The constructor samples chi5*Phi once (`sampled_spectrum`).  With no
    `traces` it is a rate run: one fft2 makes the peak-normalized `rate`
    (its scale in `rate.normalization`), and `trace(which)` integrates that
    grid over the other delay (`trace_from_grid`) on each call, which equals
    the 1D transform up to rounding (discrete Parseval).  A run given
    `traces` has no rate: it makes the cheaper 1D transform of each listed
    direction and refuses any other.  The run transforms its spectrum in
    place (the fft2, or the 1D transform of the last trace; earlier traces
    transform a copy) and squares it in place: the rate is written into the
    first half of the spectrum's buffer, whose second half is released.  So
    a 2048^2 run holds the 64 MB complex spectrum and block-sized
    temporaries, and keeps only the 32 MB rate past the constructor.
    `rcc_numeric` and `rcc_cond_numeric` are views of a run.
    """

    def __init__(self, p: SystemParams, cfg: OracleConfig | None = None, *,
                 traces: tuple[str, ...] | None = None) -> None:
        for which in traces or ():
            if which not in ("tau12", "tau13"):
                raise ValidationError("which must be 'tau12' or 'tau13'")
        grid = sampled_spectrum(p, cfg or OracleConfig())
        self.rate = self._traces = None
        if traces is None:
            self.rate = _rate_grid(grid, p.gamma31_si)
        else:
            last = len(traces) - 1
            self._traces = {
                w: _conditional(grid if i == last else replace(grid, values=grid.values.copy()),
                                w, p.gamma31_si)
                for i, w in enumerate(traces)}

    def trace(self, which: str) -> TimeTrace:
        """The peak-normalized conditional trace along `which`."""
        if self._traces is None:
            return trace_from_grid(self.rate, which)
        if which not in self._traces:
            raise ValidationError(f"this oracle run has no {which!r} trace")
        return self._traces[which]


def normalized_l2_error(test: np.ndarray, reference: np.ndarray, mask: np.ndarray) -> float:
    """||test - reference||_2 / ||reference||_2 over the cells of `mask`.

    The squares are summed in blocks of L2_BLOCK_ROWS rows, serially, with
    the mask as the sums' `where`, so no masked copy or full-size difference
    is made."""
    t = np.asarray(test, dtype=float)
    r = np.asarray(reference, dtype=float)
    keep = np.broadcast_to(mask, r.shape)
    err = norm = 0.0
    for start in range(0, len(r), L2_BLOCK_ROWS):
        rows = slice(start, start + L2_BLOCK_ROWS)
        diff = t[rows] - r[rows]
        err += float(np.square(diff, out=diff).sum(where=keep[rows]))
        norm += float(np.square(r[rows]).sum(where=keep[rows]))
    if norm == 0:
        raise ValidationError("reference grid has zero norm")
    return math.sqrt(err) / math.sqrt(norm)


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
