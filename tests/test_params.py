import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sswm.errors import OverdampedError, ValidationError
from sswm.params import (Entanglement, Regime, SystemParams, classify_entanglement,
                         classify_regime, derived_frequencies, effective_splittings,
                         eit_dispersion, C_LIGHT)

GAMMA31_SI = SystemParams().gamma31_si


def test_splittings_strong_coupling_value():
    p = SystemParams(omega_c1=8.0, gamma41=1.0, gamma51=0.1)
    s = effective_splittings(p)
    assert s.omega_e1 == pytest.approx(math.sqrt(256 - 0.81), rel=1e-12)
    assert s.omega_e1 == pytest.approx(15.975, abs=5e-4)
    # implied oscillation period crosses 21 ns
    period = 2 * math.pi / (s.omega_e1 * p.gamma31_si)
    assert period == pytest.approx(20.9e-9, abs=0.05e-9)


def test_splittings_equal_dephasing_exact():
    p = SystemParams(omega_c1=3.7, gamma41=0.3, gamma51=0.3)
    assert effective_splittings(p).omega_e1 == 2 * abs(p.omega_c1)


def test_splittings_overdamped_flag():
    p = SystemParams(omega_c1=0.1, gamma41=1.0, gamma51=0.1)
    s = effective_splittings(p)
    assert s.overdamped_1 and s.omega_e1 == 0.0
    assert not s.overdamped_2


def test_linewidths_exact():
    p = SystemParams(gamma41=0.8, gamma51=0.25, gamma21=0.05)
    s = effective_splittings(p)
    assert s.gamma_e1 == (0.8 + 0.25) / 2
    assert s.gamma_e2 == (0.05 + 1.0) / 2


@pytest.mark.parametrize("od,delay_ns", [(111, 736), (37, 245), (74, 491)])
def test_group_delay_values(od, delay_ns):
    p = SystemParams(omega_c2=2.0, optical_depth=od)
    e = eit_dispersion(p)
    assert e.group_delay == pytest.approx(delay_ns * 1e-9, rel=2e-3)
    assert e.group_velocity_nu3 <= C_LIGHT


def test_group_delay_bandwidth():
    p = SystemParams(omega_c2=2.0, optical_depth=111)
    e = eit_dispersion(p)
    assert e.delta_omega_g == pytest.approx(16 * math.pi / 111, rel=1e-12)
    # in SI units this sits near 8.5e6 rad/s
    assert e.delta_omega_g * p.gamma31_si == pytest.approx(8.5e6, rel=0.01)


def test_dispersion_requires_positive_od():
    # the dispersion has no OD = 0 limit, so the parameter record refuses it
    with pytest.raises(ValidationError, match="optical_depth must be > 0"):
        SystemParams(optical_depth=0.0)


def test_regime_chi5_dominated():
    d = derived_frequencies(SystemParams())  # couplings 8, OD 37
    assert 2 * d.gamma_e2 < d.delta_omega_g
    assert d.regime is Regime.CHI5_DOMINATED


def test_regime_hybrid():
    d = derived_frequencies(SystemParams(omega_c1=2.0, omega_c2=2.0, optical_depth=111))
    assert d.gamma_e2 * 2 == pytest.approx(1.02)
    assert d.delta_omega_g == pytest.approx(16 * math.pi / 111, rel=1e-12)
    assert d.delta_omega_g == pytest.approx(0.453, abs=1e-3)
    assert d.regime is Regime.HYBRID


def test_regime_tie_resolves_hybrid():
    # choose OD so that delta_omega_g == 2*gamma_e2 exactly
    p0 = SystemParams(omega_c1=2.0, omega_c2=2.0)
    target = 2 * effective_splittings(p0).gamma_e2
    od = 4 * math.pi * abs(p0.omega_c2) ** 2 / target
    d = derived_frequencies(p0.with_(optical_depth=od))
    assert d.regime is Regime.HYBRID


def test_regime_overdamped():
    d = derived_frequencies(SystemParams(omega_c1=0.05))
    assert d.regime is Regime.OVERDAMPED


def test_entanglement_exactly_equal_splittings():
    # gamma41 - gamma51 == gamma31 - gamma21 with equal couplings
    p = SystemParams(omega_c1=5.0, omega_c2=5.0, gamma41=1.08, gamma51=0.1,
                     gamma21=0.02)
    d = effective_splittings(p)
    assert d.omega_e1 == d.omega_e2
    assert classify_entanglement(d) is Entanglement.W_2X3X2


def test_entanglement_strong_coupling_point():
    p = SystemParams(omega_c1=40.0, omega_c2=40.0)
    d = effective_splittings(p)
    gap = abs(d.omega_e1 - d.omega_e2) / max(d.omega_e1, d.omega_e2)
    assert gap == pytest.approx(1.2e-5, abs=3e-6)
    assert classify_entanglement(d, tol=1e-3) is Entanglement.W_2X3X2


def test_entanglement_distinct_splittings():
    d = effective_splittings(SystemParams(omega_c1=8.0, omega_c2=2.0))
    assert classify_entanglement(d, tol=1e-3) is Entanglement.NONW_2X4X2


def test_entanglement_overdamped_raises():
    d = effective_splittings(SystemParams(omega_c1=0.05))
    with pytest.raises(OverdampedError):
        classify_entanglement(d)


underdamped = st.fixed_dictionaries({
    "omega_c1": st.floats(1.2, 50),
    "omega_c2": st.floats(1.2, 50),
    "gamma41": st.floats(0.01, 2),
    "gamma51": st.floats(0.01, 2),
    "gamma21": st.floats(0.005, 1.0),
})


@given(underdamped)
@settings(max_examples=60, deadline=None)
def test_splitting_bound_property(kw):
    p = SystemParams(**kw)
    s = effective_splittings(p)
    assert not s.overdamped
    assert 0 < s.omega_e1 <= 2 * abs(p.omega_c1)
    assert 0 < s.omega_e2 <= 2 * abs(p.omega_c2)
    if s.omega_e1 == 2 * abs(p.omega_c1):
        # equality only when the dephasing difference is unresolvable
        assert (p.gamma41 - p.gamma51) ** 2 < 1e-15 * 4 * abs(p.omega_c1) ** 2


@given(underdamped, st.floats(1e-4, 0.1))
@settings(max_examples=60, deadline=None)
def test_entanglement_symmetric_predicate(kw, tol):
    # arm 2's first dephasing is the unit gamma31, so the swap needs gamma41 = 1
    p = SystemParams(**{**kw, "gamma41": 1.0})
    swapped = SystemParams(
        omega_c1=p.omega_c2, gamma41=1.0, gamma51=p.gamma21,
        omega_c2=p.omega_c1, gamma21=p.gamma51)
    a = classify_entanglement(effective_splittings(p), tol)
    b = classify_entanglement(effective_splittings(swapped), tol)
    assert a is b


def test_group_delay_scaling():
    # linear in OD, inverse in |omega_c2|^2 once the vacuum transit is removed
    base = SystemParams(omega_c2=2.0, optical_depth=40.0)
    lc = base.length_L / C_LIGHT

    def slow_part(p):
        return eit_dispersion(p).group_delay - lc

    t0 = slow_part(base)
    for k in (2.0, 3.0, 7.5):
        assert slow_part(base.with_(optical_depth=40.0 * k)) == pytest.approx(
            k * t0, rel=1e-6)
        assert slow_part(base.with_(omega_c2=2.0 * math.sqrt(k))) == pytest.approx(
            t0 / k, rel=1e-6)


def test_params_validation():
    with pytest.raises(ValidationError):
        SystemParams(gamma21=0.0)
    with pytest.raises(ValidationError):
        SystemParams(omega_c1=0.0)
    with pytest.raises(ValidationError):
        SystemParams(length_L=-1.0)
    with pytest.raises(ValidationError):
        SystemParams(optical_depth=-3.0)
    with pytest.raises(ValidationError):
        SystemParams(delta_p=float("nan"))


@given(st.sampled_from(sorted(SystemParams.__dataclass_fields__)),
       st.sampled_from([math.nan, math.inf, -math.inf]))
@settings(max_examples=200, deadline=None)
def test_params_reject_every_nonfinite_field(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        SystemParams(**{name: value})



def test_content_hash_stability():
    assert SystemParams().content_hash() == SystemParams().content_hash()
    assert SystemParams().content_hash() != SystemParams(omega_c1=9.0).content_hash()
