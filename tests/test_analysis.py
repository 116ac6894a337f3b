import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
import reference_forms as loop
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sswm import analysis
from sswm.analysis import (CoherenceFit, TimeTrace, coherence_fit, detect_precursor,
                           extract_period, factorizability_residual,
                           fit_coherence_time, local_maxima,
                           ordering_violation_mass, width_at_half_max)
from sswm.errors import InsufficientExtremaError, ValidationError, ZeroMassError
from sswm.oracle import rcc_numeric
from sswm.params import SystemParams, derived_frequencies
from sswm.scenarios import load_scenario
from sswm.wavepacket import analytic_rate_grid, rcc_cond12

G = SystemParams().gamma31_si
EPS = np.finfo(float).eps


class FakeGrid:
    def __init__(self, t12, t13, values):
        self.tau12_axis = np.asarray(t12, dtype=float)
        self.tau13_axis = np.asarray(t13, dtype=float)
        self.values = np.asarray(values, dtype=float)


def synthetic_trace(tau_c=100e-9, omega=2 * math.pi / 21e-9, n=20000,
                    tmax=800e-9, scale=1.0):
    t = np.linspace(0, tmax, n)
    y = scale * np.exp(-t / tau_c) * (1 + np.cos(omega * t)) / 2
    return TimeTrace(t_axis=t, values=y)


def test_trace_validation():
    with pytest.raises(ValidationError):
        TimeTrace(t_axis=np.array([0.0, 1.0, 0.5]), values=np.zeros(3))
    with pytest.raises(ValidationError):
        TimeTrace(t_axis=np.array([0.0, 1.0, 2.0]), values=-np.ones(3))


def test_coherence_time_synthetic():
    tr = synthetic_trace(tau_c=100e-9)
    assert fit_coherence_time(tr) == pytest.approx(100e-9, rel=0.02)


def test_coherence_time_conditional_closed_form():
    p = SystemParams()  # couplings 8
    t = np.linspace(0, 500e-9, 20000)
    tr = TimeTrace(t_axis=t, values=rcc_cond12(t, p))
    assert fit_coherence_time(tr) == pytest.approx(48e-9, rel=0.05)
    assert coherence_fit(tr).mode == "envelope_slope"


def test_coherence_time_width_mode_for_rect():
    t = np.linspace(0, 900e-9, 9000)
    y = ((t >= 0) & (t <= 735e-9)).astype(float)
    cf = coherence_fit(TimeTrace(t_axis=t, values=y))
    assert cf.mode == "width"
    assert cf.time_s == pytest.approx(735e-9, rel=0.005)


def test_coherence_time_monotone_decay():
    t = np.linspace(0, 600e-9, 6000)
    tr = TimeTrace(t_axis=t, values=np.exp(-t / 80e-9))
    assert fit_coherence_time(tr) == pytest.approx(80e-9, rel=0.02)


def test_coherence_crossing_for_curved_envelope():
    # difference of two exponentials: rising-then-falling envelope, the
    # log-linear slope is undefined; the 1/e crossing is the portable number
    t = np.linspace(0, 1200e-9, 40000)
    omega = 2 * math.pi / 21e-9
    env = np.exp(-t / 52e-9) - np.exp(-t / 48e-9)
    tr = TimeTrace(t_axis=t, values=env * (1 + np.cos(omega * t)) / 2)
    cf = coherence_fit(tr)
    assert cf.mode == "envelope_crossing"
    # reference computed on the envelope directly
    peak = env.max()
    t_cross = t[np.argmax(env):][env[np.argmax(env):] <= peak / math.e][0]
    assert cf.time_s == pytest.approx(t_cross, rel=0.05)


def test_coherence_crossing_extrapolates_past_the_trace_end():
    # the same curved envelope cut at 140 ns, before it falls to 1/e: the
    # crossing is extrapolated forward from the last pair of maxima
    t = np.linspace(0, 1200e-9, 40000)
    omega = 2 * math.pi / 21e-9
    env = np.exp(-t / 52e-9) - np.exp(-t / 48e-9)
    i_peak = int(np.argmax(env))
    t_cross = t[i_peak:][env[i_peak:] <= env.max() / math.e][0]
    cut = t <= 140e-9
    tr = TimeTrace(t_axis=t[cut], values=(env * (1 + np.cos(omega * t)) / 2)[cut])
    assert env[cut][-1] > env.max() / math.e
    cf = coherence_fit(tr)
    assert cf.mode == "envelope_crossing"
    assert cf.time_s > tr.t_axis[-1]
    assert cf.time_s == pytest.approx(t_cross, rel=0.05)


def test_monotone_decay_needs_its_last_sample_to_fall():
    # no interior maxima, a decay to e^-5, then one rising sample above the
    # floor: not monotone, so no envelope fit
    t = np.linspace(0, 400e-9, 2001)
    y = np.exp(-t / 80e-9)
    y[-1] = 1.5 * y[-2]
    with pytest.raises(InsufficientExtremaError, match="monotone"):
        coherence_fit(TimeTrace(t_axis=t, values=y))


def test_extract_period_constructed():
    omega = 15.975 * G
    t = np.linspace(0, 600e-9, 30000)
    y = np.cos(omega * t / 2) ** 2 * np.exp(-1.1 * G * t)
    period = extract_period(TimeTrace(t_axis=t, values=y))
    assert period == pytest.approx(2 * math.pi / omega, rel=0.02)
    assert period == pytest.approx(20.9e-9, abs=0.45e-9)


def test_extract_period_needs_maxima():
    t = np.linspace(0, 1e-6, 100)
    with pytest.raises(InsufficientExtremaError):
        extract_period(TimeTrace(t_axis=t, values=np.ones(100)))


@given(st.floats(0.1, 1e6))
@settings(max_examples=40, deadline=None)
def test_fits_invariant_under_rescaling(scale):
    tr = synthetic_trace(n=4000, tmax=600e-9)
    scaled = TimeTrace(t_axis=tr.t_axis, values=tr.values * scale)
    assert extract_period(scaled) == pytest.approx(extract_period(tr), rel=1e-9)
    assert fit_coherence_time(scaled) == pytest.approx(fit_coherence_time(tr), rel=1e-9)


def test_period_scaling_across_couplings():
    # conditional traces over the standard coupling triple: the fitted
    # period follows the closed-form splitting within 3%
    for oc in (2.0, 4.0, 8.0):
        p = SystemParams(omega_c1=oc, omega_c2=oc)
        d = derived_frequencies(p)
        t = np.linspace(0, 900e-9, 30000)
        tr = TimeTrace(t_axis=t, values=rcc_cond12(t, p))
        expected = 2 * math.pi / (d.omega_e1 * G)
        assert extract_period(tr) == pytest.approx(expected, rel=0.03)


def test_factorizability_separable_and_stub():
    t = np.linspace(0, 1, 301)
    f = np.exp(-3 * t) * (1 + np.cos(40 * t))
    g = np.exp(-t) * (1 - np.cos(25 * t))
    grid = FakeGrid(t, t, np.outer(f, g))
    assert factorizability_residual(grid) < 1e-10


def test_factorizability_bounds_and_errors():
    t = np.linspace(0, 1, 64)
    with pytest.raises(ZeroMassError):
        factorizability_residual(FakeGrid(t, t, np.zeros((64, 64))))
    with pytest.raises(ValidationError):
        factorizability_residual(FakeGrid(t, t, -np.ones((64, 64))))
    # disjoint supports on the two diagonals approach the upper bound
    v = np.zeros((64, 64))
    v[:32, :32] = 1.0
    v[32:, 32:] = 1.0
    assert 0 < factorizability_residual(FakeGrid(t, t, v)) <= 2.0


def test_factorizability_swap_symmetric():
    p = SystemParams()
    t = np.linspace(0, 400e-9, 256)
    grid = analytic_rate_grid(p, t, t, which="chi5")
    a = factorizability_residual(grid)
    b = factorizability_residual(FakeGrid(t, t, grid.values.T))
    assert a == pytest.approx(b, rel=1e-12)
    assert a > 0.1


def test_ordering_mass_analytic_zero():
    p = SystemParams()
    t = np.linspace(-100e-9, 400e-9, 384)
    grid = analytic_rate_grid(p, t, t, which="chi5")
    assert ordering_violation_mass(grid) == 0.0


def test_ordering_mass_mirrored_half():
    t = np.linspace(-1.0, 1.0, 201)
    t12 = t[:, None]
    t13 = t[None, :]
    inside = ((t12 >= 0) & (t13 >= t12)).astype(float)
    mirrored = inside + inside[::-1, ::-1]  # equal mass on the reflected wedge
    m = ordering_violation_mass(FakeGrid(t, t, mirrored))
    assert m == pytest.approx(0.5, abs=0.01)


def _masked_ordering_mass(grid):
    """The reference: one n x n out-of-wedge mask and a `where` sum."""
    r = np.asarray(grid.values, dtype=float)
    t12 = np.asarray(grid.tau12_axis)[:, None]
    t13 = np.asarray(grid.tau13_axis)[None, :]
    bad = t13 < t12
    bad |= t12 < 0
    return float(r.sum(where=bad) / r.sum())


def _check_ordering_mass_against_masked(grid):
    # the row pass adds the same cells in another order: within a rounding
    # per row (or per column) of the masked sum, relative, as every cell is >= 0
    got, want = ordering_violation_mass(grid), _masked_ordering_mass(grid)
    assert abs(got - want) <= max(grid.values.shape) * EPS * want
    return got, want


@pytest.mark.parametrize("name", ["fig3a", "fig3d", "C9"])
def test_ordering_mass_equals_masked_sum_on_oracle_rates(name, request):
    # the two presets' rates and C9's tapered chi5 point print the same digits
    if name == "C9":
        rate = request.getfixturevalue("chi5_rate")
    else:
        sc = load_scenario(name)
        rate = rcc_numeric(sc.params, sc.oracle)
    got, want = _check_ordering_mass_against_masked(rate)
    assert f"{got:.2e}" == f"{want:.2e}"


@pytest.mark.parametrize("shape, t12_span", [
    ((301, 301), (-1.0, 1.0)), ((256, 517), (-1.0, 1.0)), ((517, 256), (-0.5, 1.5)),
    ((1, 517), (-1.0, -0.5)), ((1, 517), (0.2, 0.3)), ((64, 300), (-2.0, -0.5)),
    ((300, 64), (0.1, 1.5))])
def test_ordering_mass_equals_masked_sum_on_random_grids(shape, t12_span):
    # increasing axes of random spacing, one row, tau12 all negative (every
    # cell outside the wedge) and all positive
    rng = np.random.default_rng(sum(shape))
    t12 = np.sort(rng.uniform(*t12_span, shape[0]))
    t13 = np.sort(rng.uniform(-1.0, 1.5, shape[1]))
    got, _ = _check_ordering_mass_against_masked(FakeGrid(t12, t13, rng.random(shape) ** 4))
    assert (got == pytest.approx(1.0, rel=shape[0] * EPS)) == (t12[-1] < 0)


def test_width_at_half_max_interpolates():
    t = np.linspace(0, 100.0, 1001)
    y = ((t >= 10) & (t <= 60)).astype(float)
    assert width_at_half_max(TimeTrace(t_axis=t, values=y)) == pytest.approx(50, abs=0.2)


def test_width_at_half_max_is_relative_to_the_peak():
    # a Gaussian of peak 4: the level is half the peak, whatever its scale
    t = np.linspace(-50.0, 50.0, 10001)
    sigma = 8.0
    y = 4.0 * np.exp(-0.5 * (t / sigma) ** 2)
    fwhm = 2 * math.sqrt(2 * math.log(2)) * sigma
    assert width_at_half_max(TimeTrace(t_axis=t, values=y)) == pytest.approx(fwhm, rel=1e-4)


def test_local_maxima_floor_and_refinement():
    t = np.linspace(0, 10, 1001)
    y = np.sin(2 * math.pi * t) ** 2 * np.exp(-t / 4)
    pk = local_maxima(TimeTrace(t_axis=t, values=y))
    assert len(pk) >= 5
    # refined positions sit near the quarter-integer antinodes (t = 1/4 + k/2)
    for tt, _ in pk[:3]:
        frac = (tt - 0.25) % 0.5
        assert min(frac, 0.5 - frac) < 0.02


def test_detect_precursor_synthetic():
    d = derived_frequencies(SystemParams(omega_c1=2.0, omega_c2=2.0,
                                         optical_depth=111.0))
    T = d.group_delay
    t = np.linspace(0, 1.1 * T, 4000)
    plateau = ((t >= 0) & (t <= T)).astype(float)
    spike = 3.0 * np.exp(-0.5 * ((t - 0.02 * T) / (0.004 * T)) ** 2)
    assert detect_precursor(TimeTrace(t_axis=t, values=plateau + spike), d)
    assert not detect_precursor(TimeTrace(t_axis=t, values=plateau), d)


@st.composite
def scan_traces(draw):
    """Traces of 1-60 samples for the fit scans: quantized values (ties,
    plateaus, zero runs, runs touching either end, one-sample runs), uniform
    values, monotone decays, damped oscillations and envelopes that never
    reach 1/e; each may carry a triple (b - ulp, b, b), a maximum whose
    parabola has den == 0."""
    n = draw(st.integers(1, 60))
    k = np.arange(n)
    kind = draw(st.sampled_from(["quantized", "uniform", "decay", "oscillation", "slow"]))
    if kind == "quantized":
        y = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
    elif kind == "uniform":
        y = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    elif kind == "decay":
        y = np.exp(-draw(st.floats(0.01, 1.0)) * k)
    elif kind == "oscillation":
        y = np.exp(-k / draw(st.floats(2.0, 40.0))) * np.cos(draw(st.floats(0.2, 2.0)) * k) ** 2
    else:  # at most e^-0.59 of the peak after 60 samples
        y = np.exp(-draw(st.floats(0.0, 0.01)) * k)
    if n >= 3 and draw(st.booleans()):
        j, b = draw(st.integers(0, n - 3)), float(draw(st.integers(1, 3)))
        y[j:j + 3] = np.nextafter(b, 0.0), b, b
    return TimeTrace(t_axis=draw(st.floats(-50.0, 50.0)) + draw(st.floats(0.01, 3.0)) * k,
                     values=y)


def _bits(f, *args):
    """The bytes of what `f` returns, or the type and text of what it raises,
    with the categories of the warnings it gives."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            out = f(*args)
        except Exception as exc:
            out = (type(exc), str(exc))
    if isinstance(out, CoherenceFit):
        out = tuple(float(x).hex() if isinstance(x, float) else x for x in astuple(out))
    elif not isinstance(out, tuple):
        out = (np.asarray(out).dtype, np.shape(out), np.asarray(out).tobytes())
    return out, {w.category for w in seen}


_PLATEAU = TimeTrace(t_axis=np.arange(9.0), values=np.array([0, 2, 2, 1, 3, 3, 3, 0, 1.0]))
_DEN_ZERO = TimeTrace(t_axis=np.arange(8.0), values=np.array(
    [0, np.nextafter(1.0, 0.0), 1, 1, 0, np.nextafter(2.0, 0.0), 2, 2]))
#: 15 runs above half the peak, whose lengths np.sum would add in another order
_MANY_RUNS = TimeTrace(t_axis=-31.36 + 1.83 * np.arange(60.0), values=np.array(
    [3, 0, 2, 3, 0, 2, 3, 2, 3, 0, 3, 0, 2, 2, 0, 1, 0, 2, 3, 3, 0, 0, 2, 3, 3, 2, 3, 0, 1, 1,
     0, 0, 0, 0, 0, 0, 0, 2, 2, 3, 3, 1, 2, 0, 3, 2, 3, 2, 0, 2, 0, 3, 0, 2, 0, 2, 3, 0, 3, 2.0]))


@given(scan_traces(), st.lists(st.sampled_from([0.9, 1.0, 1.05, 1.075, 1.08, 1.085, 1.2]),
                               min_size=1, max_size=30), st.floats(0.0, 1.0))
@example(_PLATEAU, [1.0, 1.075, 1.085, 1.075], 0.5)
@example(_DEN_ZERO, [1.2, 1.0, 1.08, 1.0, 1.05, 1.2, 1.085], 0.3)
@example(_MANY_RUNS, [1.0], 0.5)
@settings(max_examples=300, deadline=None)
def test_fit_scans_equal_their_loop_forms_bitwise(tr, ratios, frac):
    # each array form against the per-sample loop it replaced: the same
    # floats bit for bit, or the same error type and text, and the same
    # warning categories
    y, t = np.asarray(tr.values), tr.t_axis
    pairs = [("local_maxima", (tr,)), ("extract_period", (tr,)), ("coherence_fit", (tr,)),
             ("_dominant_spacing_cluster", (np.cumprod(ratios),))]
    pairs += [("_halfmax_span", (t, y, scale * y.max())) for scale in (0.5, 0.1, frac)]
    if len(y) >= 2 and y.min() > 0:
        pairs.append(("_envelope_crossing", (t, y)))
    pk = loop.local_maxima(tr) if len(y) >= 2 else []
    if len(pk) >= 2:
        pairs.append(("_dominant_spacing_cluster", (np.diff(pk[:, 0]),)))
    for name, args in pairs:
        assert _bits(getattr(analysis, name), *args) == _bits(getattr(loop, name), *args), name
