"""The structured (1D-factorized) sampling inside spectral_grid against the
direct chi5() and phi(), the 1D pole bound, and finite samples near the
input floor."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sswm import susceptibility
from sswm.oracle import default_extent
from sswm.params import SystemParams
from sswm.scenarios import load_scenario
from sswm.susceptibility import (PHI_SERIES_CUTOFF, chi5, d_function, phi,
                                 spectral_grid)

EPS = np.finfo(float).eps
N = 256

grid_params = st.fixed_dictionaries({
    "gamma21": st.floats(0.005, 1.5),
    "gamma41": st.floats(0.01, 2.0),
    "gamma51": st.floats(0.01, 2.0),
    "omega_c1": st.floats(0.5, 40.0),
    "omega_c2": st.floats(0.5, 40.0),
    "delta_p": st.floats(-150, 150),
    "delta_c1": st.floats(0.5, 30) | st.floats(-30, -0.5),
    "optical_depth": st.floats(1.0, 150.0),
    "omega21": st.none() | st.floats(-3e9, 3e9),
})


def _grid_axis(p):
    extent = default_extent(p)
    return extent, susceptibility._fft_axis(extent, N)


def _chi5_rtol(p, extent):
    """1e-12 plus the rounding floor of chi5 itself on this grid.

    Both forms build T = G - i(delta_p + delta2 + delta3), which cancels
    delta_p, so a detuning carried to eps*(|delta_p| + |delta_c1| + 2*extent)
    moves chi5 by that much over the narrower pump linewidth.
    """
    span = abs(p.delta_p) + abs(p.delta_c1) + 2 * extent
    return 1e-12 + 4 * EPS * span / min(p.gamma41, p.gamma51)


def _phi_atol(d, p, ideal_rect, phi_ref):
    """Per cell: 1e-12*max|Phi| plus the rounding of (exp(z) - 1)/z.

    Both forms divide a rounded exp(z) - 1 by z = i*dk*L, which costs about
    eps*(1 + |phase terms|)/|z| next to the removable point z = 0.
    """
    a, c = susceptibility._delta_k_parts(d, d, p)
    if ideal_rect:
        c = np.real(c)
    aL, cL = np.abs(a) * p.length_L, np.abs(c) * p.length_L
    z = np.abs(np.add.outer(a, c)) * p.length_L
    rounding = 4 * EPS * (1 + aL[:, None] + cL[None, :]) / np.maximum(z, PHI_SERIES_CUTOFF)
    return 1e-12 * np.abs(phi_ref).max() + rounding


@given(grid_params)
@settings(max_examples=40, deadline=None)
def test_structured_chi5_matches_direct(kw):
    p = SystemParams(**kw)
    extent, d = _grid_axis(p)
    structured = spectral_grid(p, extent, N, force_phi_unity=True).values
    direct = chi5(d[:, None], d[None, :], p)
    assert np.all(np.abs(structured - direct) <= _chi5_rtol(p, extent) * np.abs(direct))


@given(grid_params, st.booleans())
@settings(max_examples=40, deadline=None)
def test_structured_phi_matches_direct(kw, ideal_rect):
    # Phi is the product over chi5, two roundings more, far below 1e-12
    p = SystemParams(**kw)
    extent, d = _grid_axis(p)
    structured = spectral_grid(p, extent, N, ideal_rect=ideal_rect).values
    structured /= spectral_grid(p, extent, N, force_phi_unity=True).values
    direct = phi(d[:, None], d[None, :], p, ideal_rect=ideal_rect)
    assert np.all(np.abs(structured - direct) <= _phi_atol(d, p, ideal_rect, direct))


@given(grid_params, st.booleans(), st.booleans())
@settings(max_examples=30, deadline=None)
def test_spectral_grid_matches_direct_product(kw, force_phi_unity, ideal_rect):
    p = SystemParams(**kw)
    extent, d = _grid_axis(p)
    grid = spectral_grid(p, extent, N, force_phi_unity=force_phi_unity,
                         ideal_rect=ideal_rect)
    c = chi5(d[:, None], d[None, :], p)
    if force_phi_unity:
        ref, tol = c, 0.0
    else:
        ph = phi(d[:, None], d[None, :], p, ideal_rect=ideal_rect)
        ref, tol = c * ph, np.abs(c) * _phi_atol(d, p, ideal_rect, ph)
    tol = tol + _chi5_rtol(p, extent) * np.abs(ref)
    assert np.array_equal(grid.delta2_axis, d)
    assert np.all(np.abs(grid.values - ref) <= tol)


pole_params = st.fixed_dictionaries({
    "gamma21": st.floats(1e-3, 5.0),
    "gamma41": st.floats(1e-3, 5.0),
    "gamma51": st.floats(1e-3, 5.0),
    "omega_c1": st.floats(0.01, 100.0),
    "omega_c2": st.floats(0.01, 100.0),
    "delta_p": st.floats(-300, 300),
    "delta_c1": st.floats(-50, 50),
})


@given(pole_params, st.floats(1.0, 500.0), st.sampled_from([256, 1024, 4096]))
@settings(max_examples=80, deadline=None)
def test_pole_factors_bounded_below(kw, extent, n):
    # |F1| >= min(gamma41, gamma51)^2 and |F2| >= min(gamma21, 1)^2 on
    # the whole real axis (spectral_grid docstring), so the 1D pole bound is
    # strictly positive for positive dephasing
    p = SystemParams(**kw)
    sums = -2 * extent + (2 * extent / n) * np.arange(2 * n - 1)
    _, f1 = susceptibility._pump_factors(sums, p)
    f2 = susceptibility._coupling_factor(susceptibility._fft_axis(extent, n), p)
    assert np.abs(f1).min() >= (1 - 1e-9) * min(p.gamma41, p.gamma51) ** 2 > 0
    assert np.abs(f2).min() >= (1 - 1e-9) * min(p.gamma21, 1.0) ** 2 > 0


@pytest.mark.parametrize("n", [256, 2048])
@pytest.mark.parametrize("g", [1e-8, 1e-9])
def test_near_floor_linewidths_sample_finite_values(g, n, monkeypatch):
    # gamma41 = gamma51 = |omega_c1| = g on the bare pump resonance: |pre*D|
    # falls below POLE_FLOOR near delta2 + delta3 = 0, where chi5() refuses
    # to evaluate, yet every sample is finite and is the direct chi5() that
    # the floor would have refused
    p = replace(load_scenario("fig3a").params, gamma41=g, gamma51=g, omega_c1=g,
                delta_p=0.0)
    extent = default_extent(p)
    d = susceptibility._fft_axis(extent, n)
    vals = spectral_grid(p, extent, n, force_phi_unity=True).values
    assert np.all(np.isfinite(vals))
    g41, g51 = susceptibility._pump_rates(p)
    pre = np.conj(g41) * np.conj(g51) + abs(p.omega_c1) ** 2
    blocks = [slice(start, start + 256) for start in range(0, n, 256)]
    n_below = sum(int((np.abs(pre * d_function(d[rows, None], d[None, :], p))
                       < susceptibility.POLE_FLOOR).sum()) for rows in blocks)
    assert 0 < n_below < n * n
    monkeypatch.setattr(susceptibility, "POLE_FLOOR", 0.0)
    tol = _chi5_rtol(p, extent)
    for rows in blocks:
        direct = chi5(d[rows, None], d[None, :], p)
        assert np.all(np.abs(vals[rows] - direct) <= tol * np.abs(direct))
