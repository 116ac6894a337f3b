import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sswm.analysis import (TimeTrace, extract_period, factorizability_residual,
                           fit_coherence_time, trace_from_grid)
from sswm.errors import OverdampedError, ValidationError
from sswm.params import SystemParams, derived_frequencies, effective_splittings
from sswm.wavepacket import (WavepacketGrid, analytic_rate_grid, analytic_tau13_marginal,
                             channel_weights, hybrid_loss_rate, rcc_chi5, rcc_cond12,
                             wavepacket_chi5)

from reference_forms import rcc_cascaded_stub, wavepacket_hybrid

P = SystemParams()  # couplings 8 gamma31, OD 37
HYB = SystemParams(omega_c1=2.0, omega_c2=2.0, optical_depth=111.0)
G = P.gamma31_si


def test_channel_weights_identity():
    w = channel_weights(P)
    o1 = effective_splittings(P).omega_e1
    assert w.p1 - w.p2 == pytest.approx(1j * o1, abs=1e-14)
    assert w.p2 == pytest.approx(w.p1.conjugate(), abs=1e-14)


def test_amplitude_zero_before_first_photon():
    assert wavepacket_chi5(-1e-9, 50e-9, P) == 0.0


def test_amplitude_zero_on_diagonal():
    # the four channel terms cancel pairwise when the two delays coincide
    for t in (0.0, 7e-9, 31e-9):
        assert wavepacket_chi5(t, t, P) == 0.0


def test_amplitude_oscillation_period():
    t12 = np.linspace(0, 250e-9, 4001)
    vals = np.abs(wavepacket_chi5(t12, t12 + 10e-9, P)) ** 2
    period = extract_period(TimeTrace(t_axis=t12, values=vals))
    o1 = effective_splittings(P).omega_e1
    assert period == pytest.approx(2 * math.pi / (o1 * G), rel=0.02)
    assert period == pytest.approx(20.9e-9, abs=0.4e-9)


def test_rate_zero_outside_support():
    assert rcc_chi5(-1e-12, 10e-9, P) == 0.0
    assert rcc_chi5(10e-9, 10e-9 - 1e-12, P) == 0.0
    t = np.linspace(-50e-9, 200e-9, 301)
    grid = rcc_chi5(t[:, None], t[None, :], P)
    t12 = t[:, None] + 0 * t[None, :]
    t13 = 0 * t[:, None] + t[None, :]
    assert np.all(grid[(t12 < 0) | (t13 < t12)] == 0.0)


def test_rate_zero_ring_spacing():
    # zeros sit where the second-arm phase advances by full turns
    o2 = effective_splittings(P).omega_e2 * G
    t12 = 13e-9
    for m in (1, 2, 5):
        s = 2 * math.pi * m / o2
        val = rcc_chi5(t12, t12 + s, P)
        scale = rcc_chi5(t12, t12 + s / 2, P)
        assert val <= 1e-20 * scale


def test_rate_envelope_decays():
    s = effective_splittings(P)
    t12 = np.linspace(0, 400e-9, 8001)
    tr12 = TimeTrace(t_axis=t12, values=rcc_chi5(t12, t12 + 10e-9, P))
    assert fit_coherence_time(tr12) == pytest.approx(1 / (2 * s.gamma_e1 * G), rel=0.02)
    ss = np.linspace(0, 400e-9, 8001)
    tr13 = TimeTrace(t_axis=ss, values=rcc_chi5(5e-9, 5e-9 + ss, P))
    assert fit_coherence_time(tr13) == pytest.approx(1 / (2 * s.gamma_e2 * G), rel=0.02)
    assert 1 / (2 * s.gamma_e1 * G) == pytest.approx(48e-9, abs=1e-9)
    assert 1 / (2 * s.gamma_e2 * G) == pytest.approx(52e-9, abs=1e-9)


underdamped = st.fixed_dictionaries({
    "omega_c1": st.floats(1.5, 40),
    "omega_c2": st.floats(1.5, 40),
    "gamma41": st.floats(0.05, 2),
    "gamma51": st.floats(0.05, 2),
    "gamma21": st.floats(0.005, 1.0),
})


@given(underdamped, st.floats(0, 15), st.floats(0, 15))
@settings(max_examples=60, deadline=None)
def test_rate_equals_half_squared_amplitude(kw, t12g, sg):
    p = SystemParams(**kw)
    t12 = t12g / (10 * p.gamma31_si)
    t13 = t12 + sg / (10 * p.gamma31_si)
    rate = rcc_chi5(t12, t13, p)
    amp2 = abs(wavepacket_chi5(t12, t13, p)) ** 2
    s = effective_splittings(p)
    scale = 4 * (s.omega_e1**2 + 4 * (p.gamma51 - s.gamma_e1) ** 2)
    # the literal 1 - cos loses digits where the rate is ~1e-12 of its peak
    assert rate == pytest.approx(amp2 / 2, rel=1e-9, abs=1e-12 * scale)


def test_cond12_origin_is_maximum():
    o1 = effective_splittings(P).omega_e1
    assert rcc_cond12(0.0, P) == pytest.approx(o1**2)
    t = np.linspace(0, 500e-9, 20001)
    vals = rcc_cond12(t, P)
    assert vals[0] == vals.max()
    assert rcc_cond12(0.0, P, normalize=True) == pytest.approx(1.0)


@pytest.mark.parametrize("oc", [2.0, 4.0, 8.0])
def test_cond12_frequency_and_damping(oc):
    p = SystemParams(omega_c1=oc, omega_c2=oc)
    s = effective_splittings(p)
    t = np.linspace(0, 800e-9, 40001)
    tr = TimeTrace(t_axis=t, values=rcc_cond12(t, p))
    assert extract_period(tr) == pytest.approx(2 * math.pi / (s.omega_e1 * G), rel=0.03)
    assert fit_coherence_time(tr) == pytest.approx(1 / (2 * s.gamma_e1 * G), rel=0.05)


def test_hybrid_support_is_the_rectangle():
    d = derived_frequencies(HYB)
    T = d.group_delay
    assert wavepacket_hybrid(1e-9, T + 1e-12, HYB, ideal_rect=True) == 0.0
    assert wavepacket_hybrid(1e-9, T - 1e-12, HYB, ideal_rect=True) != 0.0
    assert wavepacket_hybrid(-1e-12, 10e-9, HYB) == 0.0
    assert wavepacket_hybrid(10e-9, 5e-9, HYB) == 0.0


@pytest.mark.parametrize("od,width_ns", [(37, 245.4), (74, 490.7), (111, 736.1)])
def test_hybrid_rectangle_length(od, width_ns):
    p = replace(HYB, optical_depth=float(od))
    d = derived_frequencies(p)
    assert d.group_delay == pytest.approx(width_ns * 1e-9, abs=0.5e-9)
    t13 = np.linspace(0, 900e-9, 9001)
    vals = np.abs(wavepacket_hybrid(np.full_like(t13, 0.5e-9), t13, p, ideal_rect=True)) ** 2
    measured = fit_coherence_time(TimeTrace(t_axis=t13, values=vals / vals.max()))
    assert measured == pytest.approx(d.group_delay, rel=0.01)


def test_hybrid_tau12_profile_od_invariant():
    # the oscillating tau12 factor of the closed form is identical at every
    # OD: only the rectangle length moves
    t12 = np.linspace(0, 220e-9, 2201)
    profiles = []
    for od in (37.0, 74.0, 111.0):
        p = replace(HYB, optical_depth=od)
        t13 = 0.95 * derived_frequencies(p).group_delay
        vals = np.abs(wavepacket_hybrid(t12, np.full_like(t12, t13), p, ideal_rect=True)) ** 2
        profiles.append(vals / vals.max())
    assert np.allclose(profiles[0], profiles[1], atol=1e-12)
    assert np.allclose(profiles[0], profiles[2], atol=1e-12)


def test_hybrid_loss_rate_scale():
    # total attenuation over the rectangle approaches the ground dephasing
    rate = hybrid_loss_rate(HYB)
    assert rate == pytest.approx(HYB.gamma21 * G, rel=0.01)
    d = derived_frequencies(HYB)
    t13 = 0.9 * d.group_delay
    lossy = wavepacket_hybrid(1e-9, t13, HYB)
    ideal = wavepacket_hybrid(1e-9, t13, HYB, ideal_rect=True)
    assert abs(lossy) == pytest.approx(abs(ideal) * math.exp(-rate * t13), rel=1e-9)


def test_hybrid_gamma_e3_constant():
    # the sin(O1 t12/2) coefficient is gamma51 - gamma_e1
    s = effective_splittings(HYB)
    t12 = 20e-9 * G
    o1, g_e3 = s.omega_e1, HYB.gamma51 - s.gamma_e1
    want = ((o1 / 2 * math.cos(o1 * t12 / 2) + g_e3 * math.sin(o1 * t12 / 2))
            * math.exp(-s.gamma_e1 * t12))
    assert wavepacket_hybrid(20e-9, 100e-9, HYB, ideal_rect=True) == pytest.approx(
        want, rel=1e-12)


def test_hybrid_integrated_profile_flat_when_delay_dominates():
    # the tau12-integrated tau13 profile is flat once the rectangle is much
    # longer than the first-arm coherence time (OD 400 here); at OD 111 the
    # ordering constraint still shades the early plateau
    p = replace(HYB, optical_depth=400.0)
    d = derived_frequencies(p)
    t12 = np.linspace(0, 1.05 * d.group_delay, 1600)
    t13 = np.linspace(0, 1.05 * d.group_delay, 1500)
    grid = analytic_rate_grid(p, t12, t13, which="hybrid", ideal_rect=True)
    prof = trace_from_grid(grid, axis="tau13")
    sel = (prof.t_axis > 0.1 * d.group_delay) & (prof.t_axis < 0.9 * d.group_delay)
    vals = prof.values[sel]
    assert (vals.max() - vals.min()) / vals.max() < 0.01


def test_cascaded_stub_factorizes_exactly():
    t = np.linspace(0, 400e-9, 384)
    grid = analytic_rate_grid(P, t, t, which="cascaded")
    assert factorizability_residual(grid) < 1e-12


def test_cascaded_stub_second_arm_profile():
    # rcc_cond12(tau12) times the damped second-arm oscillation in tau13
    s = effective_splittings(P)
    t13 = 50e-9 * G
    m = (1 - math.cos(s.omega_e2 * t13)) * math.exp(-2 * s.gamma_e2 * t13)
    val = rcc_cascaded_stub(5e-9, 50e-9, P)
    assert val == pytest.approx(rcc_cond12(5e-9, P) * m, rel=1e-12)
    assert rcc_cascaded_stub(5e-9, -1e-9, P) == 0.0


def test_triphoton_landscape_not_factorizable():
    t = np.linspace(0, 400e-9, 384)
    grid = analytic_rate_grid(P, t, t, which="chi5")
    assert factorizability_residual(grid) > 0.1


def test_overdamped_rejected():
    p = SystemParams(omega_c1=0.05)
    with pytest.raises(OverdampedError):
        wavepacket_chi5(1e-9, 2e-9, p)
    with pytest.raises(OverdampedError):
        rcc_cond12(1e-9, p)
    with pytest.raises(OverdampedError, match="arm 1 overdamped"):
        channel_weights(p)


_T = np.linspace(0.0, 1e-7, 4)


@pytest.mark.parametrize("call, message", [
    (lambda: WavepacketGrid(_T, _T, np.zeros((4, 3))),
     "value array shape must match axis lengths"),
    (lambda: WavepacketGrid(_T, _T, -np.ones((4, 4))), "rate grids must be non-negative"),
    (lambda: WavepacketGrid(_T[::-1], _T, np.zeros((4, 4))),
     "time axes must be strictly increasing"),
    (lambda: analytic_rate_grid(P, _T, _T, which="hybrid_stub"),
     "unknown analytic rate 'hybrid_stub'"),
    (lambda: analytic_tau13_marginal(P, _T, which="cascaded"),
     "no tau13 marginal for analytic rate 'cascaded'"),
], ids=["shape", "negative", "axis-order", "which", "marginal-which"])
def test_grid_refusals(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_regime_mismatch_warns():
    with pytest.warns(UserWarning, match="classify"):
        rcc_chi5(1e-9, 2e-9, HYB)  # hybrid parameters in the chi5 form
    with pytest.warns(UserWarning, match="classify"):
        wavepacket_hybrid(1e-9, 2e-9, P)  # chi5 parameters in the hybrid form
