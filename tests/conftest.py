import warnings

import pytest

from sswm.acceptance import AcceptanceContext
from sswm.oracle import rcc_numeric
from sswm.wavepacket import analytic_rate_grid


@pytest.fixture(scope="session")
def ctx():
    """The acceptance suite's shared values for the whole session."""
    return AcceptanceContext()


# The 2048^2 grids the acceptance context reduces and drops, built from its
# params and configs for the tests that read the grids themselves.


@pytest.fixture(scope="session")
def chi5_rate(ctx):
    """The oracle rate grid behind `ctx.chi5_point`."""
    return rcc_numeric(ctx.p_chi5, ctx.cfg_chi5)


@pytest.fixture(scope="session")
def rate_analytic(ctx, chi5_rate):
    """The closed-form chi5 rate on the axes of `chi5_rate`."""
    g = chi5_rate
    return analytic_rate_grid(ctx.p_chi5, g.tau12_axis, g.tau13_axis, which="chi5")


@pytest.fixture(scope="session")
def hybrid_rate_111(ctx):
    """The oracle rate grid behind `ctx.hybrid_point_111`."""
    return rcc_numeric(ctx.p_hybrid(111.0), ctx.cfg_hybrid)


@pytest.fixture(autouse=True)
def _quiet_regime_warnings():
    # regime-mismatch warnings are intentional advisories; tests that care
    # assert them explicitly with pytest.warns
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="parameters classify as")
        yield
