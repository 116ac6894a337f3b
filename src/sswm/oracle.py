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
1D order as the reference, streamed in row blocks yet bitwise the n^2 order.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import blocks
from .analysis import TimeTrace
from .errors import ValidationError
from .params import SystemParams, effective_splittings, eit_dispersion
from .susceptibility import (SpectralGrid, check_grid, fftshift_in_place, real_first_half,
                             spectral_grid, spectrum_rows)
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


def sampled_spectrum(p: SystemParams, cfg: OracleConfig) -> SpectralGrid:
    """chi5*Phi samples (window applied) ready for the discrete transform."""
    return spectral_grid(p, _extent(p, cfg), cfg.n_points, force_phi_unity=cfg.force_phi_unity,
                         ideal_rect=cfg.ideal_rect, taper=_tukey(cfg.n_points, cfg.tukey_alpha))


def _extent(p: SystemParams, cfg: OracleConfig) -> float:
    """cfg's extent or `default_extent`, with the grid-spacing advisory."""
    extent = cfg.extent if cfg.extent is not None else default_extent(p)
    s = effective_splittings(p)
    spacing = 2 * extent / cfg.n_points
    if spacing >= min(s.gamma_e1, s.gamma_e2) / 4:
        warnings.warn(
            f"grid spacing {spacing:.3g} does not resolve the narrower "
            f"linewidth / 4 = {min(s.gamma_e1, s.gamma_e2) / 4:.3g}", stacklevel=3)
    return extent


def _tukey(n: int, alpha: float) -> np.ndarray | None:
    """The symmetric Tukey window of `scipy.signal.windows.tukey(n, alpha)`,
    0 < alpha <= 1, written with the same expressions in the same order so
    the samples are bitwise equal (alpha = 1 is scipy's Hann branch); None,
    no taper, for alpha 0."""
    if alpha == 0:
        return None
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
    """|wavepacket_numeric|^2, peak-normalized, its scale in `normalization`:
    the spectrum sampled once, then transformed and squared in its own memory
    (`_rate_grid`).  Each conditional trace of it is `trace_from_grid`, equal
    to `rcc_cond_numeric` up to rounding (discrete Parseval)."""
    return _rate_grid(sampled_spectrum(p, cfg or OracleConfig()), p.gamma31_si)


def rcc_cond_numeric(which: str, p: SystemParams,
                     cfg: OracleConfig | None = None) -> TimeTrace:
    """Conditional rate, peak-normalized: transform over one detuning, square,
    then integrate the other (the squaring happens before the outer integral,
    exactly as the defining double integral prescribes).

    which = "tau12": inner transform over delta2 at fixed delta3;
    which = "tau13": inner transform over delta3 at fixed delta2.
    A bad `which` is refused before any sampling.

    No n^2 array is made: on every core, `spectrum_rows` blocks of the
    tapered samples (of their transpose for tau12: both FFTs run along rows)
    are transformed and squared in scratch the caller made for each thread
    (`map_blocks`), `blocks.PAIRWISE_LANES` rows at a time.  The squares are
    added in numpy's order for the whole grid, so the trace is bitwise that
    of `sampled_spectrum` on any worker count: rows in order for tau13, as
    `sum(axis=0)`; for tau12 the pairwise `sum(axis=1)`, a leaf of
    `blocks.PAIRWISE_LEAF` rows in one thread's accumulator rows, one per
    lane, all in halving trees (`blocks.ordered_sum`, `blocks.pairwise_sum`)."""
    if which not in ("tau12", "tau13"):
        raise ValidationError("which must be 'tau12' or 'tau13'")
    cfg = cfg or OracleConfig()
    n, transposed = cfg.n_points, which == "tau12"
    d, fill = spectrum_rows(p, _extent(p, cfg), n, cfg.force_phi_unity, cfg.ideal_rect,
                            transposed, _tukey(n, cfg.tukey_alpha))
    # each thread's block buffer and Phi scratch, and its accumulator rows
    k, lanes, leaf_rows = blocks.workers(), blocks.PAIRWISE_LANES, blocks.PAIRWISE_LEAF
    scratch = list(zip(*np.empty((2, k, lanes, n), dtype=complex), np.empty((k, lanes, n))))

    def squares(rows, own):  # |fft|^2 of the rows, in this thread's block buffer
        block = own[0][:rows.stop - rows.start]
        fill(rows, block, own[1])
        return _squares(np.fft.fft(block, axis=1, out=block))

    if transposed:
        leaves = np.empty((n // leaf_rows, n))

        def leaf(one, own):  # map_blocks hands out one leaf at a time
            acc, i = own[2], one.start
            acc[...] = 0.0
            for start in range(i * leaf_rows, (i + 1) * leaf_rows, lanes):
                acc += squares(slice(start, start + lanes), own)  # row i into r[i % lanes]
            leaves[i] = blocks.pairwise_sum(acc)
        blocks.map_blocks(leaf, len(leaves), 1, scratch)
        R = blocks.pairwise_sum(leaves)
    else:  # the blocks of each batch on every thread, then its rows in order
        batch, R = np.empty((min(blocks.ROWS, n), n)), np.zeros(n)
        for rows in blocks.row_blocks(n):
            def square(span, own, start=rows.start):
                batch[span] = squares(slice(start + span.start, start + span.stop), own)
            blocks.map_blocks(square, rows.stop - rows.start, lanes * k, scratch)
            R = blocks.ordered_sum(batch[:rows.stop - rows.start], R)
    dd = float(d[1] - d[0])
    R *= dd**3
    R = np.fft.fftshift(R)
    t = _time_axis(n, dd, p.gamma31_si)
    peak = float(R.max())
    if not 0 < peak < math.inf:  # a spectrum too small or too large to square
        raise ValidationError(f"the {which} trace peaks at {peak!r}: out of the "
                              f"floating-point range")
    return TimeTrace(t_axis=t, values=R / peak)


def _squares(block: np.ndarray) -> np.ndarray:
    """Re^2 + Im^2 of the complex rows `block`, written over and returned as
    block.real: both floats squared in place, then added."""
    x = np.square(block.view(np.float64), out=block.view(np.float64))
    return np.add(x[:, ::2], x[:, 1::2], out=x[:, ::2])


def _fft2(values: np.ndarray) -> np.ndarray:
    """np.fft.fft2(values, out=values), bitwise: the 1D transform along
    axis 1 on row blocks, then along axis 0 on column blocks, which is
    fft2's own order."""
    n0, n1 = values.shape
    blocks.map_blocks(lambda rows: np.fft.fft(values[rows], axis=1, out=values[rows]), n0, n0)
    blocks.map_blocks(lambda cols: np.fft.fft(values[:, cols], axis=0, out=values[:, cols]), n1, n1)
    return values


def _rate_grid(grid: SpectralGrid, gamma31_si: float) -> WavepacketGrid:
    # (Re^2 + Im^2) of the fft2 times dd^4: wavepacket_numeric's phase factor
    # has modulus one.  The transform overwrites grid.values, which the caller
    # owns and no longer reads; the squares go into the first half of that
    # buffer and are fftshifted there, so the rate costs no extra memory.
    dd = float(grid.delta2_axis[1] - grid.delta2_axis[0])
    vals = real_first_half(_fft2(grid.values), lambda block: _squares(block) * dd**4)
    fftshift_in_place(vals)
    norm = float(vals.max())
    if not 0 < norm < math.inf:  # a spectrum too small or too large to square
        raise ValidationError(f"the rate grid peaks at {norm!r}: out of the floating-point range")
    vals /= norm
    t = _time_axis(len(vals), dd, gamma31_si)
    return WavepacketGrid(tau12_axis=t, tau13_axis=t.copy(), values=vals,
                          normalization=norm)


def normalized_l2_error(test: np.ndarray, reference: np.ndarray, mask: np.ndarray) -> float:
    """||test - reference||_2 / ||reference||_2 over the cells of `mask`.

    The squares are summed over `blocks.row_blocks`, serially, with the mask
    as the sums' `where`, each block's written into one block-sized buffer,
    so no masked copy or full-size difference is made."""
    t = np.asarray(test, dtype=float)
    r = np.asarray(reference, dtype=float)
    keep = np.broadcast_to(mask, r.shape)
    buf = np.empty((min(blocks.ROWS, len(r)),) + r.shape[1:])
    err = norm = 0.0
    for rows in blocks.row_blocks(len(r)):
        b = buf[:rows.stop - rows.start]
        err += float(np.square(np.subtract(t[rows], r[rows], out=b), out=b).sum(where=keep[rows]))
        norm += float(np.square(r[rows], out=b).sum(where=keep[rows]))
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
