import warnings

import pytest

from sswm.acceptance import AcceptanceContext
from sswm.oracle import OracleRun
from sswm.wavepacket import analytic_rate_grid


@pytest.fixture(scope="session")
def ctx():
    """The acceptance suite's shared values for the whole session."""
    return AcceptanceContext()


# The 2048^2 grids the acceptance context reduces and drops, built from its
# params and configs for the tests that read the grids themselves.


@pytest.fixture(scope="session")
def chi5_run(ctx):
    """The oracle run behind `ctx.chi5_point`, rate grid included."""
    return OracleRun(ctx.p_chi5, ctx.cfg_chi5)


@pytest.fixture(scope="session")
def rate_analytic(ctx, chi5_run):
    """The closed-form chi5 rate on the axes of `chi5_run`."""
    g = chi5_run.rate
    return analytic_rate_grid(ctx.p_chi5, g.tau12_axis, g.tau13_axis, which="chi5")


@pytest.fixture(scope="session")
def hybrid_run_111(ctx):
    """The oracle run behind `ctx.hybrid_point_111`, rate grid included."""
    return OracleRun(ctx.p_hybrid(111.0), ctx.cfg_hybrid)


@pytest.fixture(autouse=True)
def _quiet_regime_warnings():
    # regime-mismatch warnings are intentional advisories; tests that care
    # assert them explicitly with pytest.warns
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="parameters classify as")
        yield
