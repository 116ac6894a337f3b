"""The blocked and in-place paths against their whole-grid, out-of-place
forms, bitwise, over random parameters: the Phi product of spectral_grid,
the in-place transforms of the oracle, the marginal subtraction of the
factorizability residual and the closed-form rate grids; and every stage
run on the block pool against the same stage on one worker."""
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
from sswm.errors import SingularPointError
from sswm.oracle import (OracleConfig, OracleRun, _rate_grid, default_extent,
                         rcc_cond_numeric, sampled_spectrum, wavepacket_numeric)
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


def _threaded_stages(p, ideal_rect):
    """The output of every stage that runs on the block pool: the chi5 fill,
    the Phi blocks and the taper (the spectrum), the fft2 and its |F|^2
    quadrants (the rate), the amplitude, both 1D transforms and the three
    closed-form grids."""
    cfg = OracleConfig(n_points=N, tukey_alpha=0.1, ideal_rect=ideal_rect)
    out = [sampled_spectrum(p, cfg).values, OracleRun(p, cfg).rate.values,
           wavepacket_numeric(p, cfg).values]
    out += [rcc_cond_numeric(which, p, cfg).values for which in ("tau12", "tau13")]
    t = np.linspace(-20e-9, 600e-9, 3 * wavepacket.RATE_BLOCK_ROWS + 5)
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
    t = np.linspace(0.0, 600e-9, 4 * wavepacket.RATE_BLOCK_ROWS)
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
