import numpy as np
import pytest

from sswm.analysis import (extract_period, fit_coherence_time,
                           near_diagonal_trace, width_at_half_max)
from sswm.errors import ValidationError
from sswm.oracle import (EDGE_HALFWIDTH_CELLS, OracleConfig, OracleRun, _tukey,
                         default_extent, normalized_l2_error, rcc_cond_numeric,
                         rcc_numeric, sampled_spectrum, spectral_power,
                         support_edge_mask, time_power, wavepacket_numeric)
from sswm.params import SystemParams, effective_splittings
from sswm.wavepacket import analytic_rate_grid, rcc_cond12

pytestmark = pytest.mark.filterwarnings("ignore:grid spacing")

P = SystemParams()
CFG = OracleConfig(force_phi_unity=True, tukey_alpha=0.1)
HYB = SystemParams(omega_c1=2.0, omega_c2=2.0, optical_depth=111.0)


def test_config_validation():
    with pytest.raises(ValidationError):
        OracleConfig(n_points=100)
    with pytest.raises(ValidationError):
        OracleConfig(n_points=2048, tukey_alpha=1.5)
    with pytest.raises(ValidationError):
        OracleConfig(extent=-1.0)


def test_default_extent_rule():
    s = effective_splittings(P)
    ext = default_extent(P)
    assert ext >= 4 * max(s.omega_e1, s.omega_e2)


def test_resolution_warning():
    with pytest.warns(UserWarning, match="spacing"):
        sampled_spectrum(P, OracleConfig(n_points=256, force_phi_unity=True))


def test_parseval(ctx):
    cfg = OracleConfig(force_phi_unity=True, n_points=1024)
    grid = sampled_spectrum(P, cfg)
    amp = wavepacket_numeric(P, cfg)
    ps = spectral_power(grid)
    pt = time_power(amp, P.gamma31_si)
    assert abs(ps - pt) / ps < 1e-6


def test_rate_is_squared_amplitude():
    # the rate skips the amplitude's unit-modulus phase factor, so the two
    # agree to a few roundings per cell
    cfg = OracleConfig(force_phi_unity=True, n_points=512)
    amp = wavepacket_numeric(P, cfg)
    rate = rcc_numeric(P, cfg, normalize=False)
    ref = np.abs(amp.values) ** 2
    nz = ref > 0
    assert np.max(np.abs(rate.values[nz] - ref[nz]) / ref[nz]) <= 16 * np.finfo(float).eps
    ratez = rcc_numeric(P, cfg)
    assert ratez.values.max() == 1.0
    assert ratez.normalization == pytest.approx(rate.values.max())


def test_support_orientation(ctx):
    # the transform convention must land the wavepacket in the ordered wedge
    rate = ctx.chi5_run.rate
    t12 = rate.tau12_axis[:, None]
    t13 = rate.tau13_axis[None, :]
    inside = rate.values[(t12 >= 0) & (t13 >= t12)].sum()
    outside = rate.values[(t12 < 0) | (t13 < t12)].sum()
    assert outside < 1e-3 * (inside + outside)


def test_causality_leakage(ctx):
    rate = ctx.chi5_run.rate
    o1 = effective_splittings(P).omega_e1 * P.gamma31_si
    early = rate.tau12_axis < -2 / o1
    mass = rate.values[early, :].sum()
    assert mass < 1e-3 * rate.values.sum()


def test_diagonal_zero_line(ctx):
    # past the corner transition band the equal-delay line stays dark
    rate = ctx.chi5_run.rate
    i0 = int(np.argmin(np.abs(rate.tau12_axis))) + 5
    diag = np.array([rate.values[i, i] for i in range(i0, len(rate.tau12_axis))])
    assert diag.max() < 1e-3 * rate.values.max()


def test_oracle_matches_closed_form_l2(ctx):
    num, ana = ctx.chi5_run.rate, ctx.rate_analytic
    mask = support_edge_mask(num.tau12_axis, num.tau13_axis)
    assert normalized_l2_error(num.values, ana.values, mask) < 0.05


def test_refinement_convergence():
    cfg_a = OracleConfig(force_phi_unity=True, n_points=1024)
    cfg_b = OracleConfig(force_phi_unity=True, n_points=2048)
    ra = rcc_numeric(P, cfg_a)
    rb = rcc_numeric(P, cfg_b)
    # same time spacing; the finer run spans twice the window
    na = len(ra.tau12_axis)
    sel_a = slice(na // 4, 3 * na // 4)  # central half of the coarse grid
    ta = ra.tau12_axis[sel_a]
    ib = np.searchsorted(rb.tau12_axis, ta[0])
    sub_b = rb.values[ib:ib + len(ta), ib:ib + len(ta)]
    sub_a = ra.values[sel_a, sel_a.start:sel_a.stop]
    assert np.allclose(rb.tau12_axis[ib:ib + len(ta)], ta, rtol=0, atol=1e-18)
    assert np.max(np.abs(sub_a - sub_b)) < 0.01


def test_4096_grid_matches_closed_forms_under_c3_bounds():
    # the 2048^2 acceptance configuration refined to 4096^2: same extent,
    # half the spacing, twice the time window, same 5% bounds as C3
    cfg = OracleConfig(force_phi_unity=True, tukey_alpha=0.1, n_points=4096)
    run = OracleRun(P, cfg, traces=("tau12",))
    num = run.rate
    ana = analytic_rate_grid(P, num.tau12_axis, num.tau13_axis, which="chi5")
    mask = support_edge_mask(num.tau12_axis, num.tau13_axis)
    assert normalized_l2_error(num.values, ana.values, mask) < 0.05
    tr = run.trace("tau12")
    ana12 = rcc_cond12(tr.t_axis, P, normalize=True)
    keep = np.abs(tr.t_axis) > EDGE_HALFWIDTH_CELLS * tr.dt
    assert normalized_l2_error(tr.values, ana12 / ana12.max(), keep) < 0.05


def test_window_independence_of_periods():
    base = OracleConfig(force_phi_unity=True, n_points=1024)
    win = OracleConfig(force_phi_unity=True, n_points=1024, tukey_alpha=0.1)
    p_base = extract_period(rcc_cond_numeric("tau12", P, base))
    p_win = extract_period(rcc_cond_numeric("tau12", P, win))
    assert abs(p_base - p_win) / p_base < 0.005


def test_conditional_squares_before_integrating():
    # hand-rolled reference on a small grid, literal order of operations
    cfg = OracleConfig(force_phi_unity=True, n_points=256)
    grid = sampled_spectrum(P, cfg)
    dd = float(grid.delta2_axis[1] - grid.delta2_axis[0])
    n = len(grid.delta2_axis)
    t_dimless = np.fft.fftshift(2 * np.pi * np.fft.fftfreq(n, d=dd))
    ref = np.zeros(n)
    for m, t in enumerate(t_dimless):
        inner = (grid.values * np.exp(-1j * grid.delta2_axis[:, None] * t)).sum(axis=0) * dd
        ref[m] = (np.abs(inner) ** 2).sum() * dd
    tr = rcc_cond_numeric("tau12", P, cfg, normalize=False)
    assert np.allclose(tr.values, ref, rtol=1e-9, atol=1e-12 * ref.max())


def test_conditional_equals_integrated_2d(ctx):
    # Parseval links the tau12-integrated 2D rate to the tau13 conditional
    rate = ctx.chi5_run.rate
    tr13 = ctx.chi5_run.trace("tau13")
    dt = rate.tau12_axis[1] - rate.tau12_axis[0]
    integrated = rate.values.sum(axis=0) * dt * rate.normalization
    integrated *= P.gamma31_si / (2 * np.pi)
    ref = tr13.values * (integrated.max() / tr13.values.max())
    assert np.allclose(integrated, ref, rtol=1e-6, atol=1e-9 * integrated.max())


@pytest.mark.filterwarnings("ignore:grid spacing")
def test_determinism():
    cfg = OracleConfig(force_phi_unity=True, n_points=256)
    a = rcc_numeric(P, cfg)
    b = rcc_numeric(P, cfg)
    assert np.array_equal(a.values, b.values)


def test_hybrid_precursor_feature(ctx):
    # sharp early cut adjacent to the corner, absent from the closed form
    tr = near_diagonal_trace(ctx.hybrid_run_111.rate)
    early = tr.values[(tr.t_axis >= 0) & (tr.t_axis <= 50e-9)]
    late = tr.values[(tr.t_axis > 200e-9) & (tr.t_axis < 600e-9)]
    assert early.max() > 10 * np.median(late)


def test_no_precursor_in_chi5_regime(ctx):
    from sswm.analysis import detect_precursor
    from sswm.params import derived_frequencies

    d = derived_frequencies(P)
    tr = near_diagonal_trace(ctx.chi5_run.rate)
    assert not detect_precursor(tr, d)


def test_taper_weights_both_axes():
    cfg = OracleConfig(force_phi_unity=True, n_points=256, tukey_alpha=0.5)
    bare = sampled_spectrum(P, OracleConfig(force_phi_unity=True, n_points=256))
    w = _tukey(256, 0.5)
    want = bare.values * w[:, None] * w[None, :]
    assert np.array_equal(sampled_spectrum(P, cfg).values, want)


@pytest.mark.parametrize("n", [256, 2048, 4096])
@pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5, 0.9, 1.0])
def test_tukey_equals_scipy(n, alpha):
    from scipy.signal.windows import tukey

    assert np.array_equal(_tukey(n, alpha), tukey(n, alpha))


@pytest.mark.parametrize("od,target_ns", [(37, 245.0), (74, 490.0), (111, 735.0)])
def test_hybrid_conditional_width_tracks_delay(od, target_ns):
    p = HYB.with_(optical_depth=float(od))
    cfg = OracleConfig(extent=32.0, tukey_alpha=0.1, ideal_rect=True)
    tr = rcc_cond_numeric("tau13", p, cfg)
    width = width_at_half_max(tr)
    # amplitude-level edge rounding shaves ~20 ns; track within 10%
    assert width == pytest.approx(target_ns * 1e-9, rel=0.10)
