"""Complex spectral functions: chi5, chi3, wavenumber mismatch, and the
longitudinal detuning function, plus grid sampling and peak location.

All detuning arguments (delta2, delta3) are in gamma31 units and may be
scalars or broadcastable numpy arrays.  The dressed-state rates are stored
unstarred exactly as defined; conjugation is applied at the evaluation site,
so each symbol has a single definition.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import blocks
from .errors import SingularPointError, ValidationError
from .params import C_LIGHT, GAMMA31, SystemParams, effective_splittings, eit_dispersion

#: |D| below this (internal units) counts as sitting on a pole.
POLE_FLOOR = 1e-30

#: |dk*L| below this switches the detuning function to its series form.
PHI_SERIES_CUTOFF = 1e-6

#: Rows of delta2 in flight when chi5*Phi is sampled into the grid: the
#: blocks of all workers together hold 16 rows of one scratch array, 0.5 MB
#: at n = 2048, and 8 to 128 rows take the same time on 2 cores.
PHI_BLOCK_ROWS = 16

#: Channel peaks of |chi5| exceed this fraction of its maximum; sidelobes do not.
RESONANCE_FLOOR = 0.25

#: Bytes one n x n complex grid may take: 4 GiB, which caps n_points at 2**14.
MAX_GRID_BYTES = 2**32
MAX_N_POINTS = math.isqrt(MAX_GRID_BYTES // np.dtype(complex).itemsize)


def _pump_rates(p: SystemParams) -> tuple[complex, complex]:
    """Bare damped detunings G41 and G51 of the pump arm."""
    return 1j * p.delta_p - p.gamma41, 1j * (p.delta_p + p.delta_c1) - p.gamma51


def _tee(gamma_c, delta2, delta3, p: SystemParams):
    """Three-photon damped detuning T = G - i(delta_p + delta2 + delta3)."""
    return gamma_c - 1j * (p.delta_p + delta2 + delta3)


def _upsilon(delta3, p: SystemParams):
    """Damped detunings U21 and U31 of the coupling arm."""
    return -1j * delta3 - p.gamma21, -1j * delta3 - GAMMA31


def d_function(delta2, delta3, p: SystemParams):
    """Resonance denominator D = (T41* T51* + |oc1|^2)(U21* U31* + |oc2|^2)."""
    g41, g51 = _pump_rates(p)
    t41s = np.conj(_tee(g41, delta2, delta3, p))
    t51s = np.conj(_tee(g51, delta2, delta3, p))
    return (t41s * t51s + abs(p.omega_c1) ** 2) * _coupling_factor(delta3, p)


def _check_pole(den, what: str) -> None:
    amin = np.min(np.abs(den))
    if amin < POLE_FLOOR:
        raise SingularPointError(f"{what} evaluated within {POLE_FLOOR} of a pole")


def chi5(delta2, delta3, p: SystemParams):
    """Fifth-order susceptibility, without its dimensional prefactor.

    chi5 = -i * T51* / ((G41* G51* + |oc1|^2) * D(delta2, delta3)).
    Finite everywhere off the exact poles of D; pole proximity raises.
    """
    g41, g51 = _pump_rates(p)
    t51s = np.conj(_tee(g51, delta2, delta3, p))
    pre = np.conj(g41) * np.conj(g51) + abs(p.omega_c1) ** 2
    den = pre * d_function(delta2, delta3, p)
    _check_pole(den, "chi5")
    return -1j * t51s / den


def chi3(delta3, p: SystemParams):
    """EIT response seen by the slow photon: -i / (U31* + |oc2|^2 / U21*)."""
    u21s, u31s = map(np.conj, _upsilon(delta3, p))
    _check_pole(u21s, "chi3")
    den = u31s + abs(p.omega_c2) ** 2 / u21s
    _check_pole(den, "chi3")
    return -1j / den


def delta_k(delta2, delta3, p: SystemParams):
    """Wavenumber mismatch in SI 1/m.

    dk = 2(omega21 - Delta_p - delta2)/c + delta3*(1/nu3 + 1/c)
         + i*(OD/(2L))*Im[chi3]
    with the detunings converted from gamma31 units.  chi3 has Im = 1 at
    line center with the coupling off, so the loss term is calibrated to
    Im[dk]*L = OD/2 on bare resonance.  Im[dk] >= 0 for positive dephasing
    (loss, never gain).
    """
    a, c = _delta_k_parts(delta2, delta3, p)
    return a + c


def _delta_k_parts(delta2, delta3, p: SystemParams):
    """dk = a(delta2) + c(delta3): the real delta2 term and the delta3 term
    that also carries the Im[chi3] loss."""
    disp = eit_dispersion(p)
    d2_si = np.asarray(delta2, dtype=float) * p.gamma31_si
    d3_si = np.asarray(delta3, dtype=float) * p.gamma31_si
    dp_si = p.delta_p * p.gamma31_si
    a = 2 * (p.omega21_si - dp_si - d2_si) / C_LIGHT
    c = (d3_si * (1.0 / disp.group_velocity_nu3 + 1.0 / C_LIGHT)
         + 1j * (p.optical_depth / (2 * p.length_L)) * np.imag(chi3(delta3, p)))
    return a, c


def phi(delta2, delta3, p: SystemParams, ideal_rect: bool = False):
    """Longitudinal detuning function of the phase mismatch over length L.

    Implemented as (exp(i*dk*L) - 1)/(i*dk*L): the sign branch for which the
    absorptive part of dk damps the exponential (bounded response, photons
    born at the exit face unattenuated) and the slow-light delay lands the
    support on [0, L/nu3].  The removable singularity at |dk*L| < 1e-6 is
    evaluated by series.  With `ideal_rect` the loss term is dropped, leaving
    the pure phase-mismatch form.
    """
    dk = delta_k(delta2, delta3, p)
    if ideal_rect:
        dk = np.real(dk)
    return phi_of_dkl(dk * p.length_L)


def phi_of_dkl(dkl):
    """(exp(z) - 1)/z with z = i*dk*L, series-expanded near z = 0."""
    z = 1j * np.asarray(dkl, dtype=complex)
    small = np.abs(z) < PHI_SERIES_CUTOFF
    zsafe = np.where(small, 1.0, z)
    out = np.where(small, 1.0 + z / 2 + z * z / 6, (np.exp(zsafe) - 1.0) / zsafe)
    if out.ndim == 0:
        return complex(out)
    return out


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform 2D sampling of chi5*Phi over (delta2, delta3), gamma31 units."""

    delta2_axis: np.ndarray
    delta3_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        check_uniform(self.delta2_axis)
        check_uniform(self.delta3_axis)
        if self.values.shape != (len(self.delta2_axis), len(self.delta3_axis)):
            raise ValidationError("value array shape must match axis lengths")


def check_grid(extent: float | None, n_points: int) -> None:
    """The grid-shape rule: ValidationError unless n_points is a power of two
    from 256 to MAX_N_POINTS and extent is None (resolved later) or
    0 < extent < inf with the cell width 2*extent/n_points within
    2**-255 .. 2**255, so that its fourth power, which scales the oracle's
    rate grid, is a normal float."""
    if n_points < 256 or (n_points & (n_points - 1)) != 0:
        raise ValidationError("n_points must be a power of two >= 256")
    if n_points > MAX_N_POINTS:
        raise ValidationError(f"n_points must be at most {MAX_N_POINTS}, so that one "
                              f"complex grid takes at most {MAX_GRID_BYTES} bytes")
    if extent is not None and not 0 < extent < math.inf:
        raise ValidationError("extent must be positive and finite")
    if extent is not None and not 2.0**-255 < 2 * extent / n_points < 2.0**255:
        raise ValidationError(f"extent {extent:g} puts the fourth power of the cell "
                              f"width out of the floating-point range")


def check_uniform(axis: np.ndarray) -> None:
    """The uniform-axis rule: ValidationError unless `axis` has at least two
    points and increases in steps that agree up to the rounding of building
    it.  An axis of n points within n steps of 0 (an FFT axis, a linspace
    from 0) holds each point to within eps*n*step (two roundings of at most
    eps/2 each), so each step to within 2*eps*n*step and their spread to
    within 4*eps*n*step."""
    steps = np.diff(axis)
    if len(steps) == 0 or not np.all(steps > 0):
        raise ValidationError("grid axes must have two or more strictly increasing points")
    if np.ptp(steps) > 4 * len(axis) * np.finfo(float).eps * steps[0]:
        raise ValidationError("grid axes must be uniform to 4*n*eps relative")


def _fft_axis(extent: float, n: int) -> np.ndarray:
    step = 2 * extent / n
    return -extent + step * np.arange(n)


def _pump_factors(s, p: SystemParams):
    """T51*(s) and F1(s) = T41* T51* + |oc1|^2 at detuning sums s = delta2+delta3."""
    g41, g51 = _pump_rates(p)
    t41s = np.conj(_tee(g41, s, 0.0, p))
    t51s = np.conj(_tee(g51, s, 0.0, p))
    return t51s, t41s * t51s + abs(p.omega_c1) ** 2


def _coupling_factor(delta3, p: SystemParams):
    """F2(delta3) = U21* U31* + |oc2|^2, so that D = F1(delta2+delta3) F2(delta3)."""
    u21s, u31s = map(np.conj, _upsilon(delta3, p))
    return u21s * u31s + abs(p.omega_c2) ** 2


def spectrum_rows(p: SystemParams, extent: float, n_points: int,
                  force_phi_unity: bool = False, ideal_rect: bool = False,
                  transposed: bool = False, taper: np.ndarray | None = None):
    """The delta axis of `spectral_grid` and its one row-block sampler:
    fill(rows, out, z) writes rows `rows` of the samples (of their transpose,
    delta3 down, if `transposed`), times the window `taper` along delta2 and
    then along delta3 if given, into the complex block `out`; `z` is complex
    scratch of at least out's rows, unused under `force_phi_unity`.  Every
    product keeps its operand order in both orientations (numpy's SIMD
    complex multiply is not bitwise commutative), so any tiling, on any
    threads, gives the samples of `spectral_grid` bitwise.  Checks and warns
    as `spectral_grid` does."""
    check_grid(extent, n_points)
    s = effective_splittings(p)
    needed = [s.omega_e1, s.omega_e2]
    if not force_phi_unity:
        needed.append(eit_dispersion(p).delta_omega_g)
    if extent < 4 * max(needed):
        warnings.warn(
            f"extent {extent:g} < 4x max characteristic frequency "
            f"{max(needed):g}; spectrum may be truncated", stacklevel=3)
    d = _fft_axis(extent, n_points)
    # sliding_window_view(A, n)[i, j] is A[i + j]: zero-copy, symmetric
    sums = -2 * extent + (2 * extent / n_points) * np.arange(2 * n_points - 1)
    t51s, f1 = _pump_factors(sums, p)
    g41, g51 = _pump_rates(p)
    pre = np.conj(g41) * np.conj(g51) + abs(p.omega_c1) ** 2
    window = sliding_window_view(-1j * t51s / (pre * f1), n_points)
    inv_f2 = 1.0 / _coupling_factor(d, p)
    if not force_phi_unity:
        a, c = _delta_k_parts(d, d, p)
        if ideal_rect:
            c = np.real(c)
        ea, ec = np.exp(1j * (a * p.length_L)), np.exp(1j * (c * p.length_L))

    def fill(rows, out, z):
        cells = (lambda x, y: (x[None, :], y[rows, None])) if transposed else \
            (lambda x, y: (x[rows, None], y[None, :]))  # the delta2 operand first
        if not force_phi_unity:
            # Phi = (exp(z) - 1)/z into out, z = i dk L, series on the masked cells
            z = np.add(*cells(a, c), out=z[:len(out)])
            z *= 1j * p.length_L
            np.multiply(*cells(ea, ec), out=out)
            small = np.abs(z) < PHI_SERIES_CUTOFF
            z_small = z[small]
            z[small] = 1.0
            out -= 1.0
            out /= z
            out[small] = 1.0 + z_small / 2 + z_small * z_small / 6
        chi5 = np.multiply(window[rows], inv_f2[rows, None] if transposed else inv_f2,
                           out=out if force_phi_unity else z)
        if not force_phi_unity:
            np.multiply(chi5, out, out=out)  # chi5 first, as chi5 *= Phi
        for w in () if taper is None else cells(taper, taper):
            out *= w
    return d, fill


def spectral_grid(
    p: SystemParams,
    extent: float,
    n_points: int,
    force_phi_unity: bool = False,
    ideal_rect: bool = False,
    taper: np.ndarray | None = None,
) -> SpectralGrid:
    """Sample chi5*Phi on the FFT-ready grid [-extent, extent) x n_points.

    extent and n_points must pass check_grid.  `taper`, n_points weights,
    multiplies the samples along delta2 and then along delta3.

    The grid is filled from 1D evaluations.  Both axes are
    -extent + step*arange(n), so delta2 + delta3 takes only the 2n-1 values
    -2*extent + step*k, and chi5 factors exactly as A(delta2+delta3)*B(delta3)
    with A = -i*T51*/(pre*F1) and B = 1/F2, where
    F1 = T41* T51* + |oc1|^2, F2 = U21* U31* + |oc2|^2 and pre is the same
    expression at the bare pump detuning.  The 2D array is a zero-copy
    sliding window of A times B.  The mismatch is additive,
    dk = a(delta2) + c(delta3), so exp(i dk L) is an outer product and only
    (exp(i dk L) - 1)/(i dk L) is formed in 2D.  `spectrum_rows` fills the
    output in blocks of PHI_BLOCK_ROWS delta2 rows: the build holds its one
    n^2 complex output (64 MB at 2048^2) and a few MB of block temporaries.
    The results agree with the direct chi5() and phi() to rounding.

    Every sample is finite: |pre*D| = |pre| |F1| |F2| with each of pre, F1,
    F2 equal to det(y I + M) for y imaginary and M a 2x2 matrix whose
    Hermitian part is diag(gamma_a, gamma_b) (the two dephasings of that
    arm), so |F1| >= min(gamma41, gamma51)^2 and |F2| >= min(gamma21,
    GAMMA31)^2 on the whole real axis, and every dephasing is at least
    params.SMALLEST_INPUT.  The samples are kept as computed: there is no
    pole check and no patching.

    This factorization only speeds up the sampling.  The oracle transforms
    the sampled product as an unstructured 2D array and does not use it.
    """
    d, fill = spectrum_rows(p, extent, n_points, force_phi_unity, ideal_rect, taper=taper)
    vals = np.empty((n_points, n_points), dtype=complex)
    k = blocks.workers()  # each thread's Phi scratch holds one block of rows
    z = np.empty((k, max(1, PHI_BLOCK_ROWS // k), n_points), dtype=complex)
    blocks.map_blocks(lambda rows, z: fill(rows, vals[rows], z), n_points, PHI_BLOCK_ROWS, z)
    return SpectralGrid(delta2_axis=d, delta3_axis=d.copy(), values=vals)


def real_first_half(values: np.ndarray, op) -> np.ndarray:
    """op(values), an n x n real result, written over the first half of the
    n x n complex buffer `values`, whose second half is then given back.  op
    maps a block of complex rows, which it may overwrite, to a fresh array of
    its real rows (np.abs written over its own input rounds some |z|
    differently).  The blocks of `blocks.row_blocks` are written in ascending
    order: real rows [a, b) land in complex rows [a/2, b/2), read by then.
    `values` is resized in place and may move, so no view taken of it before
    this call may be read after it."""
    n = len(values)
    out = values.reshape(-1).view(np.float64)[:n * n].reshape(n, n)
    for rows in blocks.row_blocks(n):
        out[rows] = op(values[rows])
    values.resize((n * n // 2,), refcheck=False)
    return values.view(np.float64).reshape(n, n)


def fftshift_in_place(values: np.ndarray) -> None:
    """np.fft.fftshift of the n x n array `values`, n even, in place:
    the top-left quadrant swaps with the bottom-right and the top-right with
    the bottom-left, in the `blocks.row_blocks` of the top n/2 rows, each
    pair through one block-sized temporary."""
    h = len(values) // 2
    tmp = np.empty((min(blocks.ROWS, h), h), dtype=values.dtype)
    for top in blocks.row_blocks(h):
        bottom = slice(top.start + h, top.stop + h)
        aside = tmp[:top.stop - top.start]
        for a, b in ((values[top, :h], values[bottom, h:]), (values[top, h:], values[bottom, :h])):
            aside[...] = a
            a[...] = b
            b[...] = aside


def chi5_magnitude_map(p: SystemParams, extent: float,
                       n_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The delta2 and delta3 axes and |chi5| of
    `spectral_grid(p, extent, n_points, force_phi_unity=True)`, written over
    the first half of the samples' buffer (`real_first_half`), so no second
    n^2 array is made.
    """
    grid = spectral_grid(p, extent, n_points, force_phi_unity=True)
    return grid.delta2_axis, grid.delta3_axis, real_first_half(grid.values, np.abs)


def find_resonances(mag: np.ndarray, delta2_axis, delta3_axis) -> list[dict]:
    """Interior local maxima of the |chi5| map `mag` above
    RESONANCE_FLOOR*global max.

    3x3-neighbourhood maxima, returned sorted by magnitude (descending) as
    dicts with delta2/delta3 coordinates and magnitude.
    """
    peak = mag.max() if mag.size else 0  # NaN if any cell is: then no cell passes
    if not (peak > 0 or np.any(mag > 0)):
        raise ValidationError("find_resonances needs a non-empty grid")
    # the neighbour tests at the interior cells above the floor, row-major,
    # found one row block at a time
    inner = mag[1:-1, 1:-1]
    cells = [np.empty((2, 0), np.intp)]
    for b in blocks.row_blocks(len(inner)):
        r, c = np.nonzero(inner[b] > RESONANCE_FLOOR * peak)
        cells.append((r + b.start + 1, c + 1))
    i, j = np.concatenate(cells, axis=1)
    v = mag[i, j]
    # strict on the lexicographically earlier side to avoid plateau doubles
    keep = (v > mag[i - 1, j]) & (v > mag[i, j - 1])
    for di, dj in ((-1, -1), (-1, 1), (0, 1), (1, -1), (1, 0), (1, 1)):
        keep &= v >= mag[i + di, j + dj]
    hits = [{"delta2": float(delta2_axis[a]), "delta3": float(delta3_axis[b]),
             "magnitude": float(m)} for a, b, m in zip(i[keep], j[keep], v[keep])]
    hits.sort(key=lambda h: -h["magnitude"])
    return hits
