"""Peak-memory guards at 2048^2: each stage holds its product and at most a
block-sized share of one more grid (a stage that turns the complex spectrum
into a real grid writes it into the spectrum's own memory), the CSV writer
holds one row of text, and the acceptance suite keeps no grid between
criteria.  tracemalloc sees every numpy buffer, and its counts do not
depend on the allocator or the machine."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sswm import acceptance, analysis, scenarios
from sswm.oracle import (OracleConfig, default_extent, normalized_l2_error, rcc_cond_numeric,
                         rcc_numeric, support_edge_mask)
from sswm.params import SystemParams
from sswm.susceptibility import chi5_magnitude_map, real_first_half, spectral_grid
from sswm.wavepacket import analytic_rate_grid

pytestmark = pytest.mark.filterwarnings("ignore:grid spacing", "ignore:extent")

N = 2048
COMPLEX_GRID = N * N * 16  # bytes of one 2048^2 complex grid (64 MB)
REAL_GRID = N * N * 8
HYB = SystemParams(omega_c1=2.0, omega_c2=2.0, optical_depth=111.0)


def _peak_rise(fn):
    """fn() and the traced bytes at its peak above those live at its start."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def hybrid_rate():
    return rcc_numeric(HYB, OracleConfig(extent=32.0, n_points=N))


def test_spectral_grid_peak():
    # chi5 * Phi: the complex output and the Phi blocks, PHI_BLOCK_ROWS rows
    # of two scratch arrays
    grid, rise = _peak_rise(lambda: spectral_grid(HYB, default_extent(HYB), N))
    assert grid.values.nbytes == COMPLEX_GRID
    assert rise <= 1.05 * COMPLEX_GRID


def test_oracle_run_with_rate_peak():
    # the spectrum, transformed and squared in place: the Phi blocks of the
    # build set the peak
    rate, rise = _peak_rise(lambda: rcc_numeric(HYB, OracleConfig(extent=32.0, n_points=N)))
    assert rate.values.nbytes == REAL_GRID
    assert rise <= 1.05 * COMPLEX_GRID


@pytest.mark.parametrize("name, fmt", [("fig3a", "csv"), ("fig3d", "json")])
def test_run_scenario_given_its_run_peak(name, fmt, tmp_path, monkeypatch):
    # the report, the rate's window streamed out and the closed form filled
    # on that window alone: block and window temporaries, no grid
    sc = scenarios.load_scenario(name)
    run = scenarios._scenario_run(sc)
    monkeypatch.setattr(scenarios, "_scenario_run", lambda sc: run)
    _, rise = _peak_rise(lambda: scenarios.run_scenario(sc, tmp_path, fmt))
    assert rise <= 0.1 * COMPLEX_GRID


def test_rate_free_oracle_run_peak():
    # the 1D trace streams blocks of sampled rows through per-thread
    # scratch: no n^2 array
    tr, rise = _peak_rise(lambda: rcc_cond_numeric("tau13", HYB,
                                                   OracleConfig(extent=32.0, n_points=N)))
    assert len(tr.values) == N
    assert rise <= 0.1 * COMPLEX_GRID


def test_scenario_with_both_numeric_traces_peak():
    # fig3c asking for both numeric directions: one spectrum, its rate made
    # in place, and each trace integrated from the rate
    sc = scenarios.load_scenario("fig3c")
    sc = replace(sc, outputs=("trace_tau12_numeric", "trace_tau13_numeric"))
    (rate, traces), rise = _peak_rise(lambda: scenarios._scenario_run(sc))
    assert rate.values.nbytes == REAL_GRID and sorted(traces) == ["tau12", "tau13"]
    assert rise <= 1.25 * COMPLEX_GRID


def test_chi5_magnitude_map_peak():
    # |chi5| written over the samples: no Phi blocks, and one row taken
    # aside
    p = SystemParams(omega_c1=40.0, omega_c2=40.0)
    (_, _, mag), rise = _peak_rise(lambda: chi5_magnitude_map(p, 320.0, N))
    assert mag.nbytes == REAL_GRID and mag.flags.c_contiguous
    assert rise <= 1.1 * COMPLEX_GRID


def test_real_first_half_peak():
    # each block of real rows lands on complex rows read before it, so only
    # row 0 is taken aside: one row above the complex input
    def write_abs():
        return real_first_half(np.full((N, N), 3 + 4j), np.abs)

    mag, rise = _peak_rise(write_abs)
    assert mag.shape == (N, N) and np.all(mag == 5.0)
    assert rise - COMPLEX_GRID <= 4 * N * 8


def test_fig2_given_its_map_peak(monkeypatch):
    # C1's peak search over row blocks (0.21 MB of candidates) and C2's
    # central-symmetry deviation in one reused row-block buffer (1 MB), which
    # sets the peak at 0.0354 real grids: no n^2 mask or difference; the
    # bound adds 0.0046 grids (0.15 MB)
    p = SystemParams(omega_c1=40.0, omega_c2=40.0)
    d2, d3, mag = chi5_magnitude_map(p, 320.0, N)
    monkeypatch.setattr(acceptance, "chi5_magnitude_map", lambda *args: (d2, d3, mag))
    (_, peaks, _, dev), rise = _peak_rise(lambda: acceptance.AcceptanceContext().fig2)
    assert len(peaks) == 4 and dev < 1e-12
    assert rise <= 0.04 * REAL_GRID


def test_csv_writer_peak(hybrid_rate, tmp_path):
    # 128 x 2048 cells streamed one tau12 row at a time: the text of a row,
    # not of the file
    t = hybrid_rate.tau12_axis
    axes = [("tau12_s", t[:128]), ("tau13_s", t)]
    _, rise = _peak_rise(lambda: scenarios._write_export(
        tmp_path / "rate.csv", ["scenario: x"], axes, hybrid_rate.values[:128],
        "value", "values", "csv"))
    assert len((tmp_path / "rate.csv").read_text().splitlines()) == 2 + 128 * N
    assert rise <= 0.05 * REAL_GRID


def test_factorizability_residual_peak(hybrid_rate):
    # two passes over row blocks of r / total in one block buffer
    _, rise = _peak_rise(lambda: analysis.factorizability_residual(hybrid_rate))
    assert rise <= 0.05 * COMPLEX_GRID


def test_ordering_violation_mass_peak(hybrid_rate):
    # one prefix length per row: no n x n mask (4 MB, 0.125 real grids)
    mass, rise = _peak_rise(lambda: analysis.ordering_violation_mass(hybrid_rate))
    assert 0 < mass < 1
    assert rise <= 0.01 * REAL_GRID


def test_normalized_l2_error_peak(hybrid_rate):
    # C3's comparison: row blocks and a `where` mask, no masked copies
    reference = hybrid_rate.values[::-1]
    mask = support_edge_mask(hybrid_rate.tau12_axis, hybrid_rate.tau13_axis)
    err, rise = _peak_rise(lambda: normalized_l2_error(hybrid_rate.values, reference, mask))
    assert err > 0
    assert rise <= 0.1 * REAL_GRID


@pytest.mark.parametrize("p,which", [(SystemParams(), "chi5"), (HYB, "hybrid"),
                                     (SystemParams(), "cascaded")])
def test_analytic_rate_grid_peak(hybrid_rate, p, which):
    t = hybrid_rate.tau12_axis
    grid, rise = _peak_rise(lambda: analytic_rate_grid(p, t, t, which=which))
    assert grid.values.nbytes == REAL_GRID
    assert rise <= 1.25 * REAL_GRID


@pytest.mark.parametrize("name", ["fig3f", "fig3a"])
def test_analytic_tau13_trace_peak(name):
    # the 4096-point closed-form tau13 marginal (hybrid on fig3f, chi5 on
    # fig3a) comes from 1D factors: no 4096^2 grid
    p = scenarios.load_scenario(name).params
    tr, rise = _peak_rise(lambda: scenarios._analytic_trace(p, "tau13", ideal_rect=False))
    assert len(tr.values) == 4096
    assert rise <= 0.01 * 4096 * 4096 * 8


@pytest.fixture(scope="module")
def acceptance_run(tmp_path_factory):
    """A full run_acceptance under tracemalloc: its report lines by criterion
    id, the traced bytes live after each criterion and the peak, both above
    those live at the start."""
    live = {}

    def measured(cid, fn):
        def run(ctx):
            result = fn(ctx)
            live[cid] = tracemalloc.get_traced_memory()[0] - start
            return result
        return run

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "CRITERIA", [(cid, measured(cid, fn), desc)
                                            for cid, fn, desc in acceptance.CRITERIA])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            results = acceptance.run_acceptance(tmp_path_factory.mktemp("acceptance"))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    return {r.cid: r.line() for r in results}, live, peak


def test_acceptance_keeps_no_grid_between_criteria(acceptance_run):
    lines, live, peak = acceptance_run
    assert list(live) == list(lines) == [cid for cid, _, _ in acceptance.CRITERIA]
    # the cached steps keep scalars and 1D traces: a few MB at most
    assert max(live.values()) < 4 * 2**20, live
    # the largest stage is one oracle run: its complex spectrum and the Phi
    # blocks of the build; the fig2 map stays within its samples' memory
    assert peak <= 1.05 * COMPLEX_GRID


@pytest.mark.parametrize("cid", ["C3", "C4", "C9", "C10", "C11"])
def test_acceptance_subset_lines_equal_full_run(acceptance_run, cid, tmp_path):
    # each criterion alone builds the cached step it reads, with the same values
    lines, _, _ = acceptance_run
    assert [r.line() for r in acceptance.run_acceptance(tmp_path, subset=[cid])] == [lines[cid]]
