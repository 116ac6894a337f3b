"""The blocked and in-place paths against their whole-grid, out-of-place
forms, bitwise, over random parameters: the Phi product of spectral_grid,
the in-place transforms of the oracle, the marginal subtraction of the
factorizability residual and the closed-form rate grids."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sswm import analysis, susceptibility, wavepacket
from sswm.oracle import (OracleConfig, OracleRun, _rate_grid, default_extent,
                         rcc_cond_numeric, sampled_spectrum)
from sswm.params import SystemParams
from sswm.susceptibility import PHI_SERIES_CUTOFF, spectral_grid

pytestmark = pytest.mark.filterwarnings("ignore:grid spacing", "ignore:extent")

N = 256

params = st.fixed_dictionaries({
    "gamma21": st.floats(0.005, 0.5),
    "gamma41": st.floats(0.1, 2.0),
    "gamma51": st.floats(0.01, 1.0),
    "omega_c1": st.floats(1.0, 20.0),
    "omega_c2": st.floats(1.0, 20.0),
    "delta_p": st.floats(-150, -50),
    "optical_depth": st.floats(1.0, 150.0),
    "omega21": st.none() | st.floats(-3e9, 3e9),
})


def _phi_whole_grid(d, p, ideal_rect):
    """Phi on the whole grid as one block, with the expressions of the build."""
    a, c = susceptibility._delta_k_parts(d, d, p)
    if ideal_rect:
        c = np.real(c)
    n = len(d)
    z = np.empty((n, n), dtype=complex)
    np.add.outer(a, c, out=z)
    z *= 1j * p.length_L
    out = np.multiply.outer(np.exp(1j * (a * p.length_L)), np.exp(1j * (c * p.length_L)))
    small = np.abs(z) < PHI_SERIES_CUTOFF
    z_small = z[small]
    z[small] = 1.0
    out -= 1.0
    out /= z
    out[small] = 1.0 + z_small / 2 + z_small * z_small / 6
    return out


def _check_blocked_phi(p, ideal_rect, block_rows):
    extent = default_extent(p)
    d = susceptibility._fft_axis(extent, N)
    want, _ = susceptibility._chi5_on_grid(p, extent, d)
    want *= _phi_whole_grid(d, p, ideal_rect)
    with mock.patch.object(susceptibility, "PHI_BLOCK_ROWS", block_rows):
        got = spectral_grid(p, extent, N, ideal_rect=ideal_rect).values
    assert np.array_equal(got, want)


@given(params, st.booleans(), st.sampled_from([1, 100, 128, N, 1000]))
@settings(max_examples=30, deadline=None)
def test_blocked_phi_equals_whole_grid(kw, ideal_rect, block_rows):
    _check_blocked_phi(SystemParams(**kw), ideal_rect, block_rows)


@pytest.mark.parametrize("ideal_rect,od", [(True, 37.0), (False, 1e-6)])
@pytest.mark.parametrize("block_rows", [100, 128])
def test_blocked_phi_equals_whole_grid_on_series_branch(ideal_rect, od, block_rows):
    # ideal_rect puts z = 0 at the grid origin; without it a tiny OD keeps
    # the loss term under the series cutoff there
    p = SystemParams(optical_depth=od)
    d = susceptibility._fft_axis(default_extent(p), N)
    a, c = susceptibility._delta_k_parts(d, d, p)
    if ideal_rect:
        c = np.real(c)
    assert np.any(np.abs(np.add.outer(a, c)) * p.length_L < PHI_SERIES_CUTOFF)
    _check_blocked_phi(p, ideal_rect, block_rows)


@given(params, st.sampled_from([0.0, 0.1]), st.booleans())
@settings(max_examples=20, deadline=None)
def test_in_place_rate_grid_equals_shifted_out_of_place_fft2(kw, tukey_alpha, normalize):
    p = SystemParams(**kw)
    grid = sampled_spectrum(p, OracleConfig(n_points=N, tukey_alpha=tukey_alpha))
    dd = float(grid.delta2_axis[1] - grid.delta2_axis[0])
    F = np.fft.fft2(grid.values.copy())
    want = np.fft.fftshift((F.real**2 + F.imag**2) * dd**4)
    norm = float(want.max())
    if normalize:
        want = want / norm
    got = _rate_grid(grid, p.gamma31_si, normalize)
    assert np.array_equal(got.values, want)
    assert got.normalization == (norm if normalize else None)


@given(params, st.sampled_from([("tau12", "tau13"), ("tau13", "tau12")]))
@settings(max_examples=20, deadline=None)
def test_rate_free_run_traces_equal_standalone_transforms(kw, traces):
    # the last trace transforms the run's spectrum in place, the first a copy
    p = SystemParams(**kw)
    cfg = OracleConfig(n_points=N, tukey_alpha=0.1)
    run = OracleRun(p, cfg, rate=False, traces=traces)
    for which in traces:
        ref = rcc_cond_numeric(which, p, cfg)
        assert np.array_equal(run.trace(which).t_axis, ref.t_axis)
        assert np.array_equal(run.trace(which).values, ref.values)


@given(params)
@settings(max_examples=20, deadline=None)
def test_blocked_residual_equals_whole_grid(kw):
    p = SystemParams(**kw)
    rate = OracleRun(p, OracleConfig(n_points=N)).rate
    rn = rate.values / rate.values.sum()
    want = float(np.abs(rn - np.outer(rn.sum(axis=1), rn.sum(axis=0))).sum())
    with mock.patch.object(analysis, "RESIDUAL_BLOCK_ROWS", 100):
        assert analysis.factorizability_residual(rate) == want
    assert analysis.factorizability_residual(rate) == want


@given(params, st.sampled_from(["chi5", "hybrid", "cascaded"]), st.booleans())
@settings(max_examples=30, deadline=None)
def test_blocked_analytic_grid_equals_whole_grid(kw, which, ideal_rect):
    p = SystemParams(**kw)
    t12 = np.linspace(-20e-9, 600e-9, 3 * wavepacket.RATE_BLOCK_ROWS + 5)
    t13 = np.linspace(-20e-9, 900e-9, 300)
    kwargs = {"ideal_rect": ideal_rect} if which == "hybrid" else {}
    fn = {"chi5": wavepacket.rcc_chi5, "hybrid": wavepacket.rcc_hybrid,
          "cascaded": wavepacket.rcc_cascaded_stub}[which]
    want = fn(t12[:, None], t13[None, :], p, **kwargs)
    norm = float(want.max())
    got = wavepacket.analytic_rate_grid(p, t12, t13, which=which, **kwargs)
    assert got.normalization == norm
    assert np.array_equal(got.values, want / norm if norm > 0 else want)
