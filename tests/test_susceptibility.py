import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from sswm.errors import ValidationError
from sswm.oracle import _time_axis, default_extent
from sswm.params import Regime, SystemParams, derived_frequencies, effective_splittings
from sswm.scenarios import builtin_scenario_names, load_scenario
from sswm.susceptibility import (SpectralGrid, _fft_axis, _pump_rates, _tee, _upsilon,
                                 check_uniform, chi3, chi5, d_function, delta_k,
                                 find_resonances, phi, phi_of_dkl, spectral_grid)
from sswm.wavepacket import hybrid_loss_rate

FIG2 = SystemParams(omega_c1=40.0, omega_c2=40.0)


rate_params = st.fixed_dictionaries({
    "gamma21": st.floats(0.005, 1.5),
    "gamma41": st.floats(0.01, 2.0),
    "gamma51": st.floats(0.01, 2.0),
    "delta_p": st.floats(-150, 150),
    "delta_c1": st.floats(-30, 30),
})


@given(rate_params, st.floats(-80, 80), st.floats(-80, 80))
@settings(max_examples=60, deadline=None)
def test_rates_damping_sign(kw, d2, d3):
    # every dressed-rate helper (G41, G51, T41, T51, U21, U31) damps
    p = SystemParams(**kw)
    g41, g51 = _pump_rates(p)
    rates = [g41, g51, _tee(g41, d2, d3, p), _tee(g51, d2, d3, p), *_upsilon(d3, p)]
    for r in rates:
        assert r.real < 0


def _rel(a, b):
    return abs(a - b) / abs(b)


@given(rate_params, st.floats(-80, 80), st.floats(-80, 80))
@settings(max_examples=60, deadline=None)
def test_chi_linear_match_their_definitions(kw, d2, d3):
    # chi3 against its defining expression, every rate written out
    p = SystemParams(**kw)
    oc2 = abs(p.omega_c2) ** 2
    u21s = np.conj(-1j * d3 - p.gamma21)
    u31s = np.conj(-1j * d3 - 1.0)  # gamma31 is the unit
    want3 = -1j / (u31s + oc2 / u21s)
    assert _rel(chi3(d3, p), want3) <= 1e-12


def test_chi5_central_symmetry():
    d = np.linspace(-60, 60, 241)  # symmetric, includes 0
    vals = np.abs(chi5(d[:, None], d[None, :], FIG2))
    dev = np.max(np.abs(vals - vals[::-1, ::-1])) / vals.max()
    assert dev < 1e-12


@pytest.mark.filterwarnings("ignore:extent")
def test_chi5_four_maxima_wide_window():
    # outer channel peaks sit near |delta2| ~ 80 gamma31 at these couplings,
    # so the window must reach past them
    grid = spectral_grid(FIG2, 120.0, 1024, force_phi_unity=True)
    peaks = find_resonances(grid)
    assert len(peaks) == 4
    half2 = effective_splittings(FIG2).omega_e2 / 2
    cell = grid.delta3_axis[1] - grid.delta3_axis[0]
    for pk in peaks:
        assert abs(abs(pk["delta3"]) - half2) <= cell


def test_resonance_condition_root():
    # the real part of the second resonance factor vanishes where the
    # closed-form splitting predicts, to better than 1e-3 at strong coupling
    p = FIG2

    def re_second_factor(d3):
        u21s = np.conj(-1j * d3 - p.gamma21)
        u31s = np.conj(-1j * d3 - 1.0)  # gamma31 is the unit
        return (u21s * u31s + abs(p.omega_c2) ** 2).real

    root = brentq(re_second_factor, 1.0, 80.0, xtol=1e-12)
    half = effective_splittings(p).omega_e2 / 2
    assert abs(root - half) / half < 1e-3


def test_d_function_pole_free():
    d = np.linspace(-100, 100, 801)
    dmin = np.min(np.abs(d_function(d[:, None], d[None, :], FIG2)))
    assert dmin > 0


def test_chi3_transparency_at_line_center():
    p = SystemParams(gamma21=1e-6, omega_c2=2.0)
    assert abs(chi3(0.0, p).imag) < 1e-5 * abs(chi3(3.0, p).imag)


def test_chi3_magnitude_symmetry():
    p = SystemParams(omega_c2=2.0)
    d3 = np.linspace(0.1, 30, 57)
    assert np.allclose(np.abs(chi3(-d3, p)), np.abs(chi3(d3, p)), rtol=1e-13)


def test_chi3_absorption_never_gain():
    # the imaginary part of the slow-photon wavenumber term stays >= 0
    p = SystemParams(omega_c2=2.0, optical_depth=111)
    d3 = np.linspace(-30, 30, 1001)
    assert np.min(np.imag(delta_k(0.0, d3, p))) >= 0


loss_params = st.fixed_dictionaries({
    "gamma21": st.floats(0.005, 1.5),
    "gamma41": st.floats(0.01, 2.0),
    "gamma51": st.floats(0.01, 2.0),
    "omega_c1": st.floats(1.2, 50.0),
    "omega_c2": st.complex_numbers(min_magnitude=1.2, max_magnitude=50.0),
    "delta_p": st.floats(-150, 150),
    "delta_c1": st.floats(-30, 30),
    "length_L": st.floats(1e-4, 0.05),
})


@given(loss_params, st.sampled_from([Regime.CHI5_DOMINATED, Regime.HYBRID]),
       st.floats(0.05, 0.9), st.floats(1.1, 20.0))
@settings(max_examples=50, deadline=None)
def test_phi_loss_matches_closed_form_loss(kw, regime, below, above):
    # the numeric route's loss, Im[dk(0, 0)]*L, and the closed form's decay
    # rate over the group delay are both (OD/2)*gamma21/(gamma21 + |oc2|^2)
    p = SystemParams(**kw)
    # the OD at which delta_omega_g = 2*gamma_e2, scaled into the drawn regime
    od_tie = 4 * math.pi * abs(p.omega_c2) ** 2 / (2 * effective_splittings(p).gamma_e2)
    p = p.with_(optical_depth=od_tie * (below if regime is Regime.CHI5_DOMINATED else above))
    d = derived_frequencies(p)
    assert d.regime is regime
    numeric = delta_k(0.0, 0.0, p).imag * p.length_L
    closed = hybrid_loss_rate(p) * d.group_delay
    want = (p.optical_depth / 2) * p.gamma21 / (p.gamma21 + abs(p.omega_c2) ** 2)
    assert _rel(numeric, closed) <= 1e-12 and _rel(numeric, want) <= 1e-12


def test_delta_k_phase_matched_at_origin():
    # default carrier choice zeroes the real mismatch at zero offsets
    p = SystemParams(omega_c2=2.0, optical_depth=111)
    assert delta_k(0.0, 0.0, p).real == pytest.approx(0.0, abs=1e-20)


def test_phi_closed_form_points():
    assert phi_of_dkl(0.0) == pytest.approx(1.0)
    assert abs(phi_of_dkl(2 * math.pi)) == pytest.approx(0.0, abs=1e-15)
    assert abs(phi_of_dkl(math.pi)) == pytest.approx(2 / math.pi, rel=1e-12)


def test_phi_series_branch_continuous():
    # both branches agree with a high-order reference across the switchover
    # (the direct form loses ~1e-10 to cancellation right above the cutoff)
    for dkl in (1e-7, 9e-7, 1.1e-6, 1e-5):
        z = 1j * dkl
        ref = 1 + z / 2 + z**2 / 6 + z**3 / 24 + z**4 / 120
        assert abs(phi_of_dkl(dkl) - ref) < 1e-10


def test_phi_bound_real_mismatch():
    dkl = np.linspace(-400, 400, 20001)
    mags = np.abs(phi_of_dkl(dkl))
    assert np.max(mags) <= 1.0 + 1e-12
    assert mags[np.argmin(np.abs(dkl))] == pytest.approx(1.0)


def test_phi_unity_at_origin():
    p = SystemParams(omega_c2=2.0, optical_depth=111)
    assert phi(0.0, 0.0, p, ideal_rect=True) == pytest.approx(1.0)


def test_phi_loss_suppresses():
    # at the dressed-state absorption line the detuning function is small
    p = SystemParams(omega_c2=2.0, optical_depth=111)
    half2 = effective_splittings(p).omega_e2 / 2
    assert abs(phi(0.0, half2, p)) < 0.1 * abs(phi(0.0, 0.0, p))


def test_spectral_grid_validation():
    with pytest.raises(ValidationError):
        spectral_grid(FIG2, 60.0, 100)  # not a power of two
    with pytest.raises(ValidationError):
        spectral_grid(FIG2, 60.0, 512 + 1)
    with pytest.raises(ValidationError):
        spectral_grid(FIG2, -5.0, 512)


@pytest.mark.parametrize("extent", [math.nan, math.inf, -math.inf])
def test_spectral_grid_rejects_nonfinite_extent(extent):
    with pytest.raises(ValidationError, match="extent must be positive and finite"):
        spectral_grid(FIG2, extent, 256)


def test_spectral_grid_warns_small_extent():
    with pytest.warns(UserWarning, match="extent"):
        spectral_grid(FIG2, 10.0, 256, force_phi_unity=True)


@pytest.mark.filterwarnings("ignore:extent")
def test_spectral_grid_no_singular_replacements():
    grid = spectral_grid(FIG2, 320.0, 512, force_phi_unity=True)
    assert grid.n_singular_replaced == 0


def test_spectral_grid_axes_uniform():
    grid = spectral_grid(FIG2, 320.0, 512, force_phi_unity=True)
    steps = np.diff(grid.delta2_axis)
    assert np.ptp(steps) <= 1e-12 * steps[0]
    assert grid.values.shape == (512, 512)


@pytest.mark.parametrize("name", builtin_scenario_names())
def test_every_grid_size_passes_the_uniform_axis_rule(name):
    # the axes alone, at the preset's default extent and every n from 256
    # to 16384: the spectral axis, the oracle's time axis that the chi5
    # closed form shares, and the dense axis of the analytic traces
    p = load_scenario(name).params
    extent = default_extent(p)
    for n in 2 ** np.arange(8, 15):
        check_uniform(_fft_axis(extent, n))
        check_uniform(_time_axis(n, 2 * extent / n, p.gamma31_si))
        check_uniform(np.linspace(0.0, 900e-9, n))


def test_uniform_axis_rule_rejects_a_non_uniform_axis():
    axis = _fft_axis(86.9, 2048)
    bent = axis.copy()
    bent[1000:] += 1e-9 * (axis[1] - axis[0])  # one step longer by 1e-9
    for bad in (bent, np.geomspace(1.0, 2.0, 2048), axis[::-1], axis[:1]):
        with pytest.raises(ValidationError, match="grid axes"):
            check_uniform(bad)


def test_spectral_grid_flip_symmetry_phi_unity():
    grid = spectral_grid(FIG2, 320.0, 512, force_phi_unity=True)
    mag = np.abs(grid.values[1:, 1:])  # fft axes: drop the unpaired -extent row
    assert np.max(np.abs(mag - mag[::-1, ::-1])) / mag.max() < 1e-12


@pytest.mark.filterwarnings("ignore:extent")
def test_refinement_keeps_peak_locations():
    coarse = spectral_grid(FIG2, 120.0, 512, force_phi_unity=True)
    fine = spectral_grid(FIG2, 120.0, 1024, force_phi_unity=True)
    cell = coarse.delta2_axis[1] - coarse.delta2_axis[0]
    pc = sorted((p["delta2"], p["delta3"]) for p in find_resonances(coarse))
    pf = sorted((p["delta2"], p["delta3"]) for p in find_resonances(fine))
    assert len(pc) == len(pf) == 4
    for (a2, a3), (b2, b3) in zip(pc, pf):
        assert abs(a2 - b2) <= cell and abs(a3 - b3) <= cell


def test_find_resonances_synthetic_lorentzians():
    ax = np.linspace(-10, 10, 401)
    centers = [(-4.0, -2.0), (4.0, 2.0), (-3.0, 3.0), (3.0, -3.0)]
    vals = np.zeros((401, 401))
    for cx, cy in centers:
        vals += 1.0 / (1 + ((ax[:, None] - cx) ** 2 + (ax[None, :] - cy) ** 2) / 0.25)
    grid = SpectralGrid(delta2_axis=ax, delta3_axis=ax.copy(),
                        values=vals.astype(complex))
    found = find_resonances(grid)
    assert len(found) == 4
    cell = ax[1] - ax[0]
    got = sorted((p["delta2"], p["delta3"]) for p in found)
    for (gx, gy), (cx, cy) in zip(got, sorted(centers)):
        assert abs(gx - cx) <= cell and abs(gy - cy) <= cell


@pytest.mark.filterwarnings("ignore:extent")
def test_find_resonances_point_reflection_closure():
    grid = spectral_grid(FIG2, 120.0, 1024, force_phi_unity=True)
    peaks = {(round(p["delta2"], 6), round(p["delta3"], 6))
             for p in find_resonances(grid)}
    cell = float(grid.delta2_axis[1] - grid.delta2_axis[0])
    for d2, d3 in peaks:
        assert any(abs(d2 + q2) <= 2 * cell and abs(d3 + q3) <= 2 * cell
                   for q2, q3 in peaks)


def test_find_resonances_empty_grid():
    ax = np.linspace(0, 1, 8)
    grid = SpectralGrid(delta2_axis=ax, delta3_axis=ax.copy(),
                        values=np.zeros((8, 8), dtype=complex))
    with pytest.raises(ValidationError):
        find_resonances(grid)


@pytest.mark.filterwarnings("ignore:extent")
def test_weak_coupling_splitting_tracks_omega_e2():
    # smallest coupling with a resolvable magnitude doublet; the measured
    # delta3 splitting tracks the closed-form value within a few percent
    p = SystemParams(omega_c1=8.0, omega_c2=2.0)
    grid = spectral_grid(p, 40.0, 2048, force_phi_unity=True)
    peaks = find_resonances(grid)
    assert len(peaks) == 4
    split = max(pk["delta3"] for pk in peaks) - min(pk["delta3"] for pk in peaks)
    omega_e2 = effective_splittings(p).omega_e2
    assert split == pytest.approx(omega_e2, rel=0.05)
