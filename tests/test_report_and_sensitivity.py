"""Scenario-report values and the gamma21 sensitivity of the coherence fits."""
import numpy as np
import pytest

from sswm.analysis import extract_period, first_antinode_offset, fit_coherence_time
from sswm.oracle import OracleConfig, rcc_cond_numeric, rcc_numeric
from sswm.params import SystemParams
from sswm.scenarios import _scenario_run, load_scenario, scenario_report
from sswm.analysis import diagonal_offset_trace
from sswm.errors import ValidationError

pytestmark = pytest.mark.filterwarnings("ignore:grid spacing")


def test_fig3a_report_headline_values():
    from dataclasses import replace

    sc = load_scenario("fig3a")
    sc = replace(sc, oracle=replace(sc.oracle, n_points=1024))
    rep = scenario_report(sc, _scenario_run(sc)[0])
    assert rep.period12 == pytest.approx(21e-9, abs=1e-9)
    assert rep.tau_c_12 == pytest.approx(48e-9, rel=0.10)
    assert rep.tau_c_13 == pytest.approx(52e-9, rel=0.10)
    assert rep.factorizability_residual > 0.1
    assert rep.notes["regime"] == "chi5_dominated"
    assert any("period" in line for line in rep.lines())


def test_report_notes_a_failed_fit():
    # fig3a on a 4 gamma31 window: too few maxima along tau12 and along
    # tau13 - tau12; the report keeps both errors as notes and prints n/a
    # for each fit that failed
    from dataclasses import replace

    sc = load_scenario("fig3a")
    sc = replace(sc, oracle=replace(sc.oracle, n_points=256, extent=4.0))
    with pytest.warns(UserWarning, match="spectrum may be truncated"):
        rate = _scenario_run(sc)[0]
    rep = scenario_report(sc, rate)
    assert rep.period12 is None and rep.tau_c_12 is None and rep.period13 is None
    assert rep.notes["tau12 fit"] == "period fit needs >= 3 maxima, found 1"
    assert rep.notes["tau13 fit"] == "period fit needs >= 3 maxima, found 0"
    assert "period tau12          : n/a" in rep.lines()
    # the tau13 - tau12 trace has no maxima but decays monotonically: its
    # coherence time (envelope_slope, residual 0.131) prints on its own
    assert "coherence time tau13  : 46.03 ns" in rep.lines()


def test_dephasing_sensitivity_of_coherence():
    # a 10x larger ground dephasing shifts the second-arm coherence time far
    # outside its 10% acceptance window while leaving the period criterion
    # untouched
    cfg = OracleConfig(force_phi_unity=True, tukey_alpha=0.1, n_points=1024)
    p_bad = SystemParams(gamma21=0.2)
    grid = rcc_numeric(p_bad, cfg)
    sdir = diagonal_offset_trace(grid, first_antinode_offset(grid, p_bad))
    tau_c13 = fit_coherence_time(sdir)
    assert abs(tau_c13 - 52e-9) > 0.1 * 52e-9  # the 52 ns criterion now fails
    expected = 1 / ((p_bad.gamma21 + 1.0) * p_bad.gamma31_si)
    assert tau_c13 == pytest.approx(expected, rel=0.1)
    tr12 = rcc_cond_numeric("tau12", p_bad, cfg)
    assert extract_period(tr12) == pytest.approx(21e-9, abs=1e-9)  # unaffected


@pytest.mark.parametrize("offset", [0, 6, 10**60])
def test_diagonal_offset_trace_needs_its_row_on_the_grid(offset):
    # rows 2..7 of an 8-row grid lie past tau12 = 0 (row 2); an offset that
    # leaves no row there is an error, not an index fault
    t = np.arange(-2.0, 6.0)
    grid = type("Grid", (), {"tau12_axis": t, "tau13_axis": t, "values": np.ones((8, 8))})
    with pytest.raises(ValidationError, match="lies off the grid"):
        diagonal_offset_trace(grid, offset)
    assert len(diagonal_offset_trace(grid, 5).values) == 1
