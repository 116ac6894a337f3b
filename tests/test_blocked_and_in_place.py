"""The blocked and in-place paths against their whole-grid, out-of-place
forms, bitwise, over random parameters: the Phi product of spectral_grid,
the in-place transforms of the oracle and the marginal subtraction of the
factorizability residual; the closed-form grids and tau13 marginals built
from 1D factors against the literal closed forms, within a rounding
allowance derived from eps; and every stage run on the block pool against
the same stage on one worker."""
import inspect
import json
import os
import sys
import threading
import time
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sswm import analysis, blocks, oracle, scenarios, susceptibility, wavepacket
from sswm.errors import SingularPointError, ValidationError
from sswm.oracle import (OracleConfig, _rate_grid, default_extent, rcc_cond_numeric,
                         rcc_numeric, sampled_spectrum, wavepacket_numeric)
from sswm.params import SystemParams, effective_splittings
from sswm.susceptibility import PHI_SERIES_CUTOFF, spectral_grid
from sswm.wavepacket import WavepacketGrid

from reference_forms import rcc_cascaded_stub, wavepacket_hybrid

pytestmark = pytest.mark.filterwarnings("ignore:grid spacing", "ignore:extent")

N = 256
EPS = np.finfo(float).eps

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
    want = susceptibility._chi5_on_grid(p, extent, d)
    want *= _phi_whole_grid(d, p, ideal_rect)
    with mock.patch.object(susceptibility, "PHI_BLOCK_ROWS", block_rows):
        got = spectral_grid(p, extent, N, ideal_rect=ideal_rect).values
    assert np.array_equal(got, want)


@given(params, st.booleans(), st.sampled_from([1, 16, 100, 128, N, 1000]))
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


@given(params, st.sampled_from([0.0, 0.1]))
@settings(max_examples=20, deadline=None)
def test_in_place_rate_grid_equals_shifted_out_of_place_fft2(kw, tukey_alpha):
    p = SystemParams(**kw)
    grid = sampled_spectrum(p, OracleConfig(n_points=N, tukey_alpha=tukey_alpha))
    dd = float(grid.delta2_axis[1] - grid.delta2_axis[0])
    F = np.fft.fft2(grid.values.copy())
    want = np.fft.fftshift((F.real**2 + F.imag**2) * dd**4)
    norm = float(want.max())
    got = _rate_grid(grid, p.gamma31_si)
    assert np.array_equal(got.values, want / norm)
    assert got.normalization == norm


@pytest.mark.parametrize("block_rows", [1, 100, N // 2, N])
def test_in_place_rate_grid_is_independent_of_its_block_rows(block_rows):
    # odd block edges (100 does not divide N/2, so a swap block must stop
    # there), one-row blocks, one swap block and one block over the whole
    # grid write and shift the rate in the spectrum's memory the same way
    p = SystemParams(omega_c1=3.0, omega_c2=5.0, optical_depth=60.0)
    want = rcc_numeric(p, OracleConfig(n_points=N))
    with mock.patch.object(susceptibility, "REAL_BLOCK_ROWS", block_rows):
        got = rcc_numeric(p, OracleConfig(n_points=N))
    assert np.array_equal(got.values, want.values)
    assert got.normalization == want.normalization


@given(params, st.sampled_from(["tau12", "tau13"]))
@settings(max_examples=10, deadline=None)
def test_in_place_conditional_equals_out_of_place_squares(kw, which):
    # the literal order: the transform, Re^2 + Im^2 in a fresh array, the sum
    p = SystemParams(**kw)
    cfg = OracleConfig(n_points=N, tukey_alpha=0.1)
    grid = sampled_spectrum(p, cfg)
    dd = float(grid.delta2_axis[1] - grid.delta2_axis[0])
    axis = 0 if which == "tau12" else 1
    G = np.fft.fft(grid.values, axis=axis)
    sq = G.real**2
    sq += G.imag**2
    want = np.fft.fftshift(sq.sum(axis=1 - axis) * dd**3)
    assert np.array_equal(rcc_cond_numeric(which, p, cfg).values, want / want.max())


@given(params, st.sampled_from([1, 64, 100, N]))
@settings(max_examples=10, deadline=None)
def test_chi5_magnitude_map_equals_abs_of_the_samples(kw, block_rows):
    p = SystemParams(**kw)
    extent = default_extent(p)
    grid = spectral_grid(p, extent, N, force_phi_unity=True)
    with mock.patch.object(susceptibility, "REAL_BLOCK_ROWS", block_rows):
        d2, d3, mag = susceptibility.chi5_magnitude_map(p, extent, N)
    assert np.array_equal(d2, grid.delta2_axis) and np.array_equal(d3, grid.delta3_axis)
    assert np.array_equal(mag, np.abs(grid.values))


@given(params, st.sampled_from(["tau12", "tau13"]), st.booleans())
@settings(max_examples=20, deadline=None)
def test_rate_free_run_traces_equal_standalone_transforms(kw, which, summary):
    # one numeric direction, asked for by an output or only by a sweep's
    # summary, makes no rate: its trace is the standalone 1D transform
    p = SystemParams(**kw)
    cfg = OracleConfig(n_points=N, tukey_alpha=0.1)
    out = f"trace_{which}_{'analytic' if summary else 'numeric'}"
    sc = scenarios.Scenario(name="x", params=p, oracle=cfg, outputs=(out,))
    rate, traces = scenarios._scenario_run(sc, traces=(which,) if summary else ())
    ref = rcc_cond_numeric(which, p, cfg)
    assert rate is None and list(traces) == [which]
    assert np.array_equal(traces[which].t_axis, ref.t_axis)
    assert np.array_equal(traces[which].values, ref.values)


@given(params)
@settings(max_examples=20, deadline=None)
def test_blocked_residual_equals_whole_grid(kw):
    p = SystemParams(**kw)
    rate = rcc_numeric(p, OracleConfig(n_points=N))
    rn = rate.values / rate.values.sum()
    want = float(np.abs(rn - np.outer(rn.sum(axis=1), rn.sum(axis=0))).sum())
    with mock.patch.object(analysis, "RESIDUAL_BLOCK_ROWS", 100):
        assert analysis.factorizability_residual(rate) == want
    assert analysis.factorizability_residual(rate) == want


@pytest.mark.parametrize("shape", [(301, 301), (256, 517), (1, 256), (256, 1), (3, 2048)])
@pytest.mark.parametrize("block_rows", [1, 64, 100])
def test_blocked_residual_on_other_shapes_equals_whole_grid_to_rounding(shape, block_rows):
    # only the orders of the sums differ: the last sum, of non-negative terms,
    # is within log2(cells) roundings of their sum either way, and the tau13
    # marginal within a rounding per row (numpy adds the rows of a one-column
    # grid pairwise), which moves the residual by at most rows * eps, as each
    # marginal sums to 1
    rng = np.random.default_rng(sum(shape))
    r = rng.random(shape) ** 4
    rn = r / r.sum()
    want = float(np.abs(rn - np.outer(rn.sum(axis=1), rn.sum(axis=0))).sum())
    with mock.patch.object(analysis, "RESIDUAL_BLOCK_ROWS", block_rows):
        got = analysis.factorizability_residual(WavepacketGrid(
            np.arange(shape[0]) + 1.0, np.arange(shape[1]) + 1.0, r))
    assert abs(got - want) <= 2 * (r.size.bit_length() * want + shape[0]) * EPS


def _rate_atol(p, t):
    """Rounding allowance per cell of a peak-normalized closed-form grid.

    The factored and direct forms round the same arguments in different
    orders, fewer than 8 roundings of eps each.  A time carried to
    eps*max|t| moves each phase or exponent by that much times its rate
    (O1, O2, 2 g_e1, 2 g_e2, 2 loss), and chi5's expanded bracket cancels
    terms of size (O1 + 2|g51 - g_e1|)^2 against its peak O1^2.  Each side
    is then divided by its own rounded peak, which doubles the allowance.
    """
    s = effective_splittings(p)
    x = np.abs(t).max() * p.gamma31_si
    rates = (s.omega_e1 + s.omega_e2 + 2 * (s.gamma_e1 + s.gamma_e2)
             + 2 * wavepacket.hybrid_loss_rate(p) / p.gamma31_si)
    bracket = (1 + 2 * abs(p.gamma51 - s.gamma_e1) / s.omega_e1) ** 2
    return 2 * 8 * EPS * (bracket + rates * x)


def _direct_rate(p, which, t12, t13, ideal_rect):
    """The literal closed form `which` on the grid t12 x t13."""
    if which == "hybrid":
        amp = wavepacket_hybrid(t12[:, None], t13[None, :], p, ideal_rect=ideal_rect)
        return np.abs(amp) ** 2
    fn = {"chi5": wavepacket.rcc_chi5, "cascaded": rcc_cascaded_stub}[which]
    return fn(t12[:, None], t13[None, :], p)


@given(params, st.sampled_from(["chi5", "hybrid", "cascaded"]), st.booleans())
@settings(max_examples=30, deadline=None)
def test_blocked_analytic_grid_equals_whole_grid(kw, which, ideal_rect):
    # the grid assembled from 1D factors against the literal closed form,
    # within rounding, with the same cells exactly 0; chi5 on one shared
    # axis, the others on two different axes
    p = SystemParams(**kw)
    t12 = np.linspace(-20e-9, 600e-9, 197)
    t13 = t12 if which == "chi5" else np.linspace(-20e-9, 900e-9, 300)
    want = _direct_rate(p, which, t12, t13, ideal_rect)
    norm = float(want.max())
    got = wavepacket.analytic_rate_grid(p, t12, t13, which=which, ideal_rect=ideal_rect)
    atol = _rate_atol(p, t13)
    assert abs(got.normalization - norm) <= atol * norm
    # the normalization, taken from the factors, is the largest cell exactly
    assert got.values.max() == (1.0 if got.normalization > 0 else 0.0)
    assert np.all(np.abs(got.values - (want / norm if norm > 0 else want)) <= atol)
    assert np.array_equal(got.values == 0, want == 0)


def _crop(grid, tmin, tmax):
    """The cells of `grid` in [tmin, tmax] on both axes, taken by mask."""
    i = np.where((grid.tau12_axis >= tmin) & (grid.tau12_axis <= tmax))[0]
    j = np.where((grid.tau13_axis >= tmin) & (grid.tau13_axis <= tmax))[0]
    return grid.tau12_axis[i], grid.tau13_axis[j], grid.values[np.ix_(i, j)]


@pytest.mark.parametrize("name, ideal_rect, window_ns", [
    ("fig3a", False, (-30.0, 200.0)),  # chi5
    ("fig3d", False, (-50.0, 600.0)),  # hybrid with its loss
    ("fig3d", True, (-50.0, 600.0)),  # hybrid without it
    ("fig3d", False, (300.0, 600.0)),  # the global peak, at tau12 = 0, lies outside
    ("fig3a", False, (100.0, 100.5)),  # between two samples: no cell
], ids=["chi5", "hybrid", "hybrid-ideal", "off-peak", "empty"])
def test_windowed_analytic_export_equals_crop_of_full_grid(name, ideal_rect, window_ns,
                                                           tmp_path):
    # the closed form filled on the export window alone: the same axes, values
    # and normalization as the window cropped from the whole grid
    sc = scenarios.load_scenario(name)
    p, extent = sc.params, sc.oracle.extent or default_extent(sc.params)
    t = oracle._time_axis(N, 2 * extent / N, p.gamma31_si)
    rate = WavepacketGrid(t, t.copy(), np.zeros((N, N)), normalization=1.0)
    form = scenarios._analytic_form(p)
    full = wavepacket.analytic_rate_grid(p, t, t, form, ideal_rect)
    t12, t13, vals = _crop(full, window_ns[0] * 1e-9, window_ns[1] * 1e-9)
    assert (vals.size == 0) == (name == "fig3a" and window_ns[0] == 100.0)
    assert full.values.max() == 1.0 and (1.0 in vals) == (window_ns[0] < 0)

    window = tuple(scenarios._window(ax, *np.multiply(window_ns, 1e-9)) for ax in (t, t))
    got = wavepacket.analytic_rate_grid(p, t, t, form, ideal_rect, window)
    assert np.array_equal(got.tau12_axis, t12) and np.array_equal(got.tau13_axis, t13)
    assert np.array_equal(got.values, vals) and got.normalization == full.normalization

    sc = replace(sc, oracle=replace(sc.oracle, n_points=N, ideal_rect=ideal_rect),
                 outputs=("rcc2d_analytic",), tmin_ns=window_ns[0], tmax_ns=window_ns[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # the window lies on the axis
        [path], _ = scenarios.run_scenario(sc, tmp_path, "json", run=(rate, {}))
    payload = json.loads(path.read_text())
    assert payload["tau12_s"] == t12.tolist() and payload["tau13_s"] == t13.tolist()
    assert payload["values"] == vals.tolist()
    assert payload["header"][-1] == f"normalization: {full.normalization:.12e}"


def test_chi5_grid_needs_one_shared_uniform_axis():
    t = np.linspace(-20e-9, 600e-9, 197)
    bent = np.geomspace(1e-9, 600e-9, 197)
    for t12, t13 in ((t, np.linspace(-20e-9, 900e-9, 197)), (t, t[:-1]), (bent, bent)):
        with pytest.raises(ValidationError, match="shared|uniform"):
            wavepacket.analytic_rate_grid(SystemParams(), t12, t13)


@given(params, st.sampled_from(["chi5", "hybrid"]), st.booleans())
@settings(max_examples=30, deadline=None)
def test_factored_grid_and_tau13_marginal_match_direct_forms(kw, which, ideal_rect):
    # on one shared axis: the assembled grid against the literal closed form,
    # and the marginal from the factors alone against trace_from_grid of the
    # literal form's grid, whose allowance is the grid's summed over a
    # column plus the rounding of a running sum of n non-negative terms
    p = SystemParams(**kw)
    t = np.linspace(0.0, 900e-9, 300)
    direct = _direct_rate(p, which, t, t, ideal_rect)
    grid = wavepacket.analytic_rate_grid(p, t, t, which, ideal_rect)
    assert np.array_equal(grid.values == 0, direct == 0)
    want = analysis.trace_from_grid(WavepacketGrid(t, t, direct), axis="tau13")
    got = wavepacket.analytic_tau13_marginal(p, t, which, ideal_rect)
    atol = len(t) * 2 * EPS
    if direct.max() > 0:
        assert np.all(np.abs(grid.values - direct / direct.max()) <= _rate_atol(p, t))
        atol += len(t) * _rate_atol(p, t) * direct.max() / direct.sum(axis=0).max()
    assert np.all(np.abs(got - want.values) <= atol)
    assert np.array_equal(got == 0, want.values == 0)


def _threaded_stages(p, ideal_rect):
    """The output of every stage that runs on the block pool: the chi5 fill,
    the Phi blocks and the taper (the spectrum), the fft2 (the rate), the
    amplitude, both 1D transforms and the three closed-form grids."""
    cfg = OracleConfig(n_points=N, tukey_alpha=0.1, ideal_rect=ideal_rect)
    out = [sampled_spectrum(p, cfg).values, rcc_numeric(p, cfg).values,
           wavepacket_numeric(p, cfg).values]
    out += [rcc_cond_numeric(which, p, cfg).values for which in ("tau12", "tau13")]
    t = np.linspace(-20e-9, 600e-9, 197)
    out += [wavepacket.analytic_rate_grid(p, t, t, which=which).values
            for which in ("chi5", "hybrid", "cascaded")]
    return out


@given(params, st.booleans())
@settings(max_examples=15, deadline=None)
def test_threaded_stages_do_not_depend_on_worker_count(kw, ideal_rect):
    # one worker runs every block in the calling thread; the default and 3
    # workers (more than some hosts have) run them on the pool
    p = SystemParams(**kw)
    with mock.patch.object(blocks, "workers", lambda: 1):
        want = _threaded_stages(p, ideal_rect)
    runs = [_threaded_stages(p, ideal_rect)]
    with mock.patch.object(blocks, "workers", lambda: 3):
        runs.append(_threaded_stages(p, ideal_rect))
    for got in runs:
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_block_exception_reaches_caller_unchanged(workers):
    error = SingularPointError("raised in block 0")
    done = []

    def fn(rows):
        if rows.start == 0:
            raise error
        time.sleep(0.01)
        done.append(rows.start)

    with mock.patch.object(blocks, "workers", lambda: workers):
        with pytest.raises(SingularPointError) as info:
            blocks.map_blocks(fn, 12, 4)
    assert info.value is error
    # no block outlives the call: one worker stops at the failure, the
    # pool lets the other blocks finish before raising
    returned = sorted(done)
    time.sleep(0.05)
    assert sorted(done) == returned
    step = 4 // workers
    assert returned == ([] if workers == 1 else list(range(step, 12, step)))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_blocks_tiles_range_within_budget(workers):
    seen = []
    with mock.patch.object(blocks, "workers", lambda: workers):
        blocks.map_blocks(seen.append, 100, 64)
    seen.sort(key=lambda rows: rows.start)
    assert [i for rows in seen for i in range(100)[rows]] == list(range(100))
    assert max(rows.stop - rows.start for rows in seen) == 64 // workers


def test_concurrent_callers_share_the_pool():
    # more calling threads and blocks than cores, switching often: each
    # caller's transform still equals numpy's fft2 bitwise
    rng = np.random.default_rng(7)
    grids = [rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
             for _ in range(6)]
    want = [np.fft.fft2(g) for g in grids]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(blocks, "workers", lambda: 2 * os.cpu_count() + 1):
            callers = [threading.Thread(target=oracle._fft2, args=(g,)) for g in grids]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert all(np.array_equal(g, w) for g, w in zip(grids, want, strict=True))


@pytest.mark.parametrize("workers", [1, 3])
def test_regime_warning_fires_once_at_the_callers_line(workers):
    # the hybrid closed form on chi5-dominated parameters: one advisory per
    # grid, warned from this thread and pointing at the call below
    t = np.linspace(0.0, 600e-9, 256)
    seen = []
    with warnings.catch_warnings(), mock.patch.object(blocks, "workers", lambda: workers):
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, category, filename, lineno, *rest: \
            seen.append((str(message), filename, lineno, threading.current_thread()))
        line = inspect.currentframe().f_lineno + 1
        wavepacket.analytic_rate_grid(SystemParams(), t, t, which="hybrid")
    assert [m for m, *_ in seen if m.startswith("parameters classify as")] == [
        "parameters classify as chi5_dominated, not hybrid; closed form remains evaluable"]
    assert [(f, n, th) for _, f, n, th in seen] == [
        (__file__, line, threading.current_thread())]
