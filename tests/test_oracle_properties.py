"""Property tests of the oracle over random parameters: the rate-grid route
to the conditional traces against the defining 1D transforms, and Parseval
between the sampled spectrum and the numeric wavepacket."""
import math
import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sswm.analysis import trace_from_grid
from sswm.oracle import (OracleConfig, rcc_cond_numeric, rcc_numeric, sampled_spectrum,
                         wavepacket_numeric)
from sswm.params import Regime, SystemParams, derived_frequencies

EPS = np.finfo(float).eps

chi5_params = st.builds(
    SystemParams,
    omega_c1=st.floats(5.0, 12.0), omega_c2=st.floats(5.0, 12.0),
    optical_depth=st.floats(10.0, 60.0), delta_p=st.floats(-150.0, -50.0),
    gamma51=st.floats(0.05, 0.5), gamma21=st.floats(0.005, 0.1))
hybrid_params = st.builds(
    SystemParams,
    omega_c1=st.floats(1.5, 3.0), omega_c2=st.floats(1.5, 3.0),
    optical_depth=st.floats(60.0, 150.0), gamma21=st.floats(0.005, 0.1))
regime_params = st.tuples(st.just(Regime.CHI5_DOMINATED), chi5_params) | st.tuples(
    st.just(Regime.HYBRID), hybrid_params)

configs = st.builds(
    OracleConfig,
    n_points=st.sampled_from([256, 512]),
    tukey_alpha=st.sampled_from([0.0, 0.1]),
    force_phi_unity=st.booleans(), ideal_rect=st.booleans())


def _draw(regime_and_params):
    regime, p = regime_and_params
    assume(derived_frequencies(p).regime is regime)
    return p


@given(regime_params, configs)
@settings(max_examples=40, deadline=None)
def test_run_traces_match_1d_transforms(rp, cfg):
    # trace_from_grid(|fft2|^2) equals the transform-square-integrate order
    # by the discrete Parseval identity along the integrated axis
    p = _draw(rp)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # coarse-grid advisories
        rate = rcc_numeric(p, cfg)
        for which in ("tau12", "tau13"):
            tr, ref = trace_from_grid(rate, which), rcc_cond_numeric(which, p, cfg)
            assert np.array_equal(tr.t_axis, ref.t_axis)
            assert np.max(np.abs(tr.values - ref.values)) <= 1e-13


@given(regime_params, configs)
@settings(max_examples=40, deadline=None)
def test_parseval_over_random_params(rp, cfg):
    """sum |chi5*Phi|^2 dd^2 == sum |B|^2 dt^2 / (2 pi)^2 to rounding.

    The bound is 3*n*eps + 16*log2(n^2)*eps relative.  The first term is the
    two time-cell widths: each is a difference of axis values near
    |t_0| = n*dt/2 that carry three roundings apiece (fftfreq, 2 pi, the SI
    scale).  The second covers the fft2 and the two n^2-term sums.
    """
    p = _draw(rp)
    n = cfg.n_points
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        grid = sampled_spectrum(p, cfg)
        amp = wavepacket_numeric(p, cfg)
    dd = float(grid.delta2_axis[1] - grid.delta2_axis[0])
    ps = float((np.abs(grid.values) ** 2).sum() * dd * dd)
    # the time axes are seconds: cells rescaled by gamma31_si to spectral units
    dt12 = float(amp.tau12_axis[1] - amp.tau12_axis[0]) * p.gamma31_si
    dt13 = float(amp.tau13_axis[1] - amp.tau13_axis[0]) * p.gamma31_si
    pt = float((np.abs(amp.values) ** 2).sum()) * dt12 * dt13 / (2 * math.pi) ** 2
    assert abs(ps - pt) / ps <= (3 * n + 16 * math.log2(n * n)) * EPS
