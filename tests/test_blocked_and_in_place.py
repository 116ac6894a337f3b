"""The blocked and in-place paths against their whole-grid, out-of-place
forms, bitwise, over random parameters: the Phi product of spectral_grid,
the in-place transforms of the oracle and the marginal subtraction of the
factorizability residual; the closed-form grids and tau13 marginals built
from 1D factors against the literal closed forms, within a rounding
allowance derived from eps; and every stage run on the block pool against
the same stage on one worker."""
import inspect
import os
import sys
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sswm import analysis, blocks, oracle, susceptibility, wavepacket
from sswm.errors import SingularPointError, ValidationError
from sswm.oracle import (OracleConfig, OracleRun, _rate_grid, default_extent,
                         rcc_cond_numeric, sampled_spectrum, wavepacket_numeric)
from sswm.params import SystemParams, effective_splittings
from sswm.susceptibility import PHI_SERIES_CUTOFF, spectral_grid
from sswm.wavepacket import WavepacketGrid

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


@pytest.mark.parametrize("block_rows", [1, 100, N // 2])
def test_in_place_rate_grid_is_independent_of_its_block_rows(block_rows):
    # odd block edges, one-row blocks and one block per half write the rate
    # into the spectrum's memory in the same order-safe way
    p = SystemParams(omega_c1=3.0, omega_c2=5.0, optical_depth=60.0)
    want = OracleRun(p, OracleConfig(n_points=N)).rate
    with mock.patch.object(oracle, "RATE_BLOCK_ROWS", block_rows):
        got = OracleRun(p, OracleConfig(n_points=N)).rate
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
    with mock.patch.object(susceptibility, "ABS_BLOCK_ROWS", block_rows):
        d2, d3, mag = susceptibility.chi5_magnitude_map(p, extent, N)
    assert np.array_equal(d2, grid.delta2_axis) and np.array_equal(d3, grid.delta3_axis)
    assert np.array_equal(mag, np.abs(grid.values))


@given(params, st.sampled_from([("tau12", "tau13"), ("tau13", "tau12")]))
@settings(max_examples=20, deadline=None)
def test_rate_free_run_traces_equal_standalone_transforms(kw, traces):
    # the last trace transforms the run's spectrum in place, the first a copy
    p = SystemParams(**kw)
    cfg = OracleConfig(n_points=N, tukey_alpha=0.1)
    run = OracleRun(p, cfg, traces=traces)
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
        amp = wavepacket.wavepacket_hybrid(t12[:, None], t13[None, :], p, ideal_rect=ideal_rect)
        return np.abs(amp) ** 2
    fn = {"chi5": wavepacket.rcc_chi5, "cascaded": wavepacket.rcc_cascaded_stub}[which]
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
    assert np.all(np.abs(got.values - (want / norm if norm > 0 else want)) <= atol)
    assert np.array_equal(got.values == 0, want == 0)


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
    the Phi blocks and the taper (the spectrum), the fft2 and its |F|^2
    quadrants (the rate), the amplitude, both 1D transforms and the three
    closed-form grids."""
    cfg = OracleConfig(n_points=N, tukey_alpha=0.1, ideal_rect=ideal_rect)
    out = [sampled_spectrum(p, cfg).values, OracleRun(p, cfg).rate.values,
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
