"""Peak-memory guards at 2048^2: each stage holds its product and at most a
block-sized share of one more grid.  tracemalloc sees every numpy buffer, and
its counts do not depend on the allocator or the machine."""
import tracemalloc

import pytest

from sswm import analysis
from sswm.oracle import OracleConfig, OracleRun, default_extent
from sswm.params import SystemParams
from sswm.susceptibility import spectral_grid
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
    return OracleRun(HYB, OracleConfig(extent=32.0, n_points=N)).rate


def test_spectral_grid_peak():
    # chi5 * Phi: the complex output and the Phi blocks
    grid, rise = _peak_rise(lambda: spectral_grid(HYB, default_extent(HYB), N))
    assert grid.values.nbytes == COMPLEX_GRID
    assert rise <= 1.25 * COMPLEX_GRID


def test_oracle_run_with_rate_peak():
    # the spectrum, transformed in place, and the real rate grid beside it
    run, rise = _peak_rise(lambda: OracleRun(HYB, OracleConfig(extent=32.0, n_points=N),
                                             traces=("tau12", "tau13")))
    assert run.rate.values.nbytes == REAL_GRID
    assert rise <= 1.6 * COMPLEX_GRID


def test_factorizability_residual_peak(hybrid_rate):
    _, rise = _peak_rise(lambda: analysis.factorizability_residual(hybrid_rate))
    assert rise <= 1.25 * REAL_GRID


@pytest.mark.parametrize("p,which", [(SystemParams(), "chi5"), (HYB, "hybrid"),
                                     (SystemParams(), "cascaded")])
def test_analytic_rate_grid_peak(hybrid_rate, p, which):
    t = hybrid_rate.tau12_axis
    grid, rise = _peak_rise(lambda: analytic_rate_grid(p, t, t, which=which))
    assert grid.values.nbytes == REAL_GRID
    assert rise <= 1.25 * REAL_GRID
