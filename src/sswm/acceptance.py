"""The acceptance-criteria suite: every exit criterion as an executable check
with its tolerance pinned.  The shared oracle runs are made once and kept
only as the numbers and 1D traces the criteria read.

Oracle configuration used throughout: the default extent rule with a
Tukey(0.1) spectral taper.  The taper keeps truncation sidelobes inside the
causality budget while moving fitted periods by well under the documented
0.5% window sensitivity.  Comparisons against closed forms exclude a band of
`oracle.EDGE_HALFWIDTH_CELLS` cells around the tau12 = 0 support jump, where a
band-limited transform necessarily takes midpoint values.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import analysis
from .errors import ConfigError
from .oracle import (EDGE_HALFWIDTH_CELLS, OracleConfig, OracleRun, normalized_l2_error,
                     rcc_cond_numeric, support_edge_mask)
from .params import SystemParams, derived_frequencies, effective_splittings
# spectral_grid stays bound here: perfbench/tracer.py wraps it at each binding
from .susceptibility import chi5_magnitude_map, find_resonances, spectral_grid  # noqa: F401
from .wavepacket import analytic_rate_grid, rcc_chi5, rcc_cond12, wavepacket_chi5


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    description: str
    passed: bool
    measured: str
    tolerance: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.cid:>3}  {self.description}: {self.measured} (require {self.tolerance})"


@dataclass(frozen=True)
class Chi5Point:
    """What C3-C6, C9 and C10 read of the chi5-dominated oracle run and of
    its closed form on the same axes."""

    trace12: analysis.TimeTrace  # oracle tau12 conditional trace
    trace13: analysis.TimeTrace  # oracle tau13 conditional trace
    sdir: analysis.TimeTrace  # oracle rate along tau13 - tau12 at the first antinode
    l2_2d: float  # oracle vs closed-form rate, support edge masked
    ordering_numeric: float
    ordering_analytic: float
    residual: float  # factorizability residual of the closed form


@dataclass(frozen=True)
class HybridPoint:
    """What C8 and C11 read of the hybrid oracle run at OD 111."""

    trace12: analysis.TimeTrace
    near_diagonal: analysis.TimeTrace


class AcceptanceContext:
    """The criteria's shared inputs, each built once on first use.

    Each cached step builds its 2048^2 grids, reduces them to the scalars
    and 1D traces the criteria read, and drops them: `chi5_point` (the
    chi5-dominated oracle run and its closed form), `hybrid_point_111` (the
    hybrid oracle run at OD 111) and `fig2` (the strong-coupling |chi5|
    map).  Between criteria the context holds a few MB, and a full run
    peaks at one oracle run's footprint.  Code that needs the grids builds
    them from `p_chi5`, `cfg_chi5`, `p_hybrid` and `cfg_hybrid`.
    """

    def __init__(self) -> None:
        self.p_chi5 = SystemParams()  # couplings 8 gamma31, OD 37
        self.cfg_chi5 = OracleConfig(force_phi_unity=True, tukey_alpha=0.1)
        self.cfg_hybrid = OracleConfig(extent=32.0, tukey_alpha=0.1)

    def p_hybrid(self, od: float) -> SystemParams:
        return SystemParams(omega_c1=2.0, omega_c2=2.0, optical_depth=od)

    @cached_property
    def chi5_point(self) -> Chi5Point:
        run = OracleRun(self.p_chi5, self.cfg_chi5)
        num = run.rate
        sdir = analysis.diagonal_offset_trace(
            num, analysis.first_antinode_offset(num, self.p_chi5))
        ordering_numeric = analysis.ordering_violation_mass(num)
        ana = analytic_rate_grid(self.p_chi5, num.tau12_axis, num.tau13_axis, which="chi5")
        mask = support_edge_mask(num.tau12_axis, num.tau13_axis)
        l2_2d = normalized_l2_error(num.values, ana.values, mask)
        trace12, trace13 = run.trace("tau12"), run.trace("tau13")
        del run, num  # the closed form alone from here on
        return Chi5Point(trace12=trace12, trace13=trace13, sdir=sdir, l2_2d=l2_2d,
                         ordering_numeric=ordering_numeric,
                         ordering_analytic=analysis.ordering_violation_mass(ana),
                         residual=analysis.factorizability_residual(ana))

    @cached_property
    def hybrid_point_111(self) -> HybridPoint:
        run = OracleRun(self.p_hybrid(111.0), self.cfg_hybrid)
        return HybridPoint(run.trace("tau12"), analysis.near_diagonal_trace(run.rate))

    @cached_property
    def fig2(self) -> tuple[SystemParams, list[dict], float, float]:
        """What C1 and C2 read of the strong-coupling |chi5| map: params,
        resonance peaks, cell width and the central-symmetry deviation."""
        p = SystemParams(omega_c1=40.0, omega_c2=40.0)
        d2, d3, mag = chi5_magnitude_map(p, 320.0, 2048)
        peaks = find_resonances(mag, d2, d3)
        # the sub-grid symmetric about the fft axes' zero
        sub = mag[1:, 1:]
        diff = sub - sub[::-1, ::-1]
        dev = float(np.abs(diff, out=diff).max() / sub.max())
        return p, peaks, float(d3[1] - d3[0]), dev


def _pct(x: float) -> str:
    return f"{100 * x:.2f}%"


# --------------------------------------------------------------------------
# criteria


def c01_four_channels(ctx: AcceptanceContext) -> CriterionResult:
    p, peaks, cell, _ = ctx.fig2
    half = effective_splittings(p).omega_e2 / 2
    dev = max(abs(abs(pk["delta3"]) - half) for pk in peaks) if peaks else math.inf
    ok = len(peaks) == 4 and dev <= cell
    return CriterionResult(
        "C1", "four-channel spectrum at the strong-coupling point",
        ok, f"{len(peaks)} peaks, |delta3| off by {dev:.3f} gamma31",
        f"4 peaks, within one cell ({cell:.3f})")


def c02_central_symmetry(ctx: AcceptanceContext) -> CriterionResult:
    *_, dev = ctx.fig2
    ok = dev < 1e-12
    return CriterionResult(
        "C2", "central symmetry of |chi5|", ok, f"max deviation {dev:.2e}", "< 1e-12")


def c03_oracle_equivalence(ctx: AcceptanceContext) -> CriterionResult:
    pt = ctx.chi5_point
    err2d, tr = pt.l2_2d, pt.trace12
    ana12 = rcc_cond12(tr.t_axis, ctx.p_chi5, normalize=True)
    keep = np.abs(tr.t_axis) > EDGE_HALFWIDTH_CELLS * tr.dt
    err1d = normalized_l2_error(tr.values, ana12 / ana12.max(), keep)
    ok = err2d < 0.05 and err1d < 0.05
    return CriterionResult(
        "C3", "numeric oracle matches the closed forms",
        ok, f"L2(2D) {_pct(err2d)}, L2(marginal) {_pct(err1d)}", "both < 5%")


def c04_rabi_period(ctx: AcceptanceContext) -> CriterionResult:
    pt = ctx.chi5_point
    p12 = analysis.extract_period(pt.trace12) * 1e9
    p13 = analysis.extract_period(pt.sdir) * 1e9
    ok = abs(p12 - 21) <= 1 and abs(p13 - 21) <= 1
    return CriterionResult(
        "C4", "Rabi period along both delay directions",
        ok, f"tau12 {p12:.2f} ns, tau13-tau12 {p13:.2f} ns", "21 +- 1 ns")


def c05_coherence_times(ctx: AcceptanceContext) -> CriterionResult:
    pt = ctx.chi5_point
    t12 = analysis.fit_coherence_time(pt.trace12) * 1e9
    t13 = analysis.fit_coherence_time(pt.sdir) * 1e9
    ok = abs(t12 - 48) <= 4.8 and abs(t13 - 52) <= 5.2
    return CriterionResult(
        "C5", "triphoton coherence times",
        ok, f"tau12 {t12:.1f} ns, tau13-tau12 {t13:.1f} ns",
        "48 +- 10% and 52 +- 10%")


def c06_coherence_enhancement(ctx: AcceptanceContext) -> CriterionResult:
    cf = analysis.coherence_fit(ctx.chi5_point.trace13)
    t13 = cf.time_s * 1e9
    ok = abs(t13 - 150) <= 0.15 * 150 and t13 > 2 * 52
    return CriterionResult(
        "C6", "temporal-order-driven coherence enhancement (conditional tau13)",
        ok, f"{t13:.1f} ns ({cf.mode})", "150 +- 15% and > 2x 52 ns")


def _hybrid_row_trace(ctx: AcceptanceContext, od: float,
                      ideal_rect: bool) -> analysis.TimeTrace:
    """Closed-form tau13 cut adjacent to the support corner (tau12 = 0+)."""
    p = ctx.p_hybrid(od)
    d = derived_frequencies(p)
    t13 = np.linspace(0.0, 1.3 * d.group_delay, 4096)
    eps = t13[1] / 2  # one half-cell into the support
    with warnings.catch_warnings():
        # C7 evaluates the rectangle at OD 37 on purpose, where the regime
        # classifier calls the point chi5-dominated
        warnings.filterwarnings(
            "ignore", message="parameters classify as chi5_dominated, not hybrid")
        grid = analytic_rate_grid(p, np.array([eps, 2 * eps]), t13, which="hybrid",
                                  ideal_rect=ideal_rect)
    vals = grid.values[0]
    return analysis.TimeTrace(t_axis=t13, values=vals / vals.max())


def c07_hybrid_group_delay(ctx: AcceptanceContext) -> CriterionResult:
    targets = {37.0: 245.0, 74.0: 490.0, 111.0: 735.0}
    measured, ok = [], True
    for od, target in targets.items():
        cf = analysis.coherence_fit(_hybrid_row_trace(ctx, od, ideal_rect=True))
        width = cf.time_s * 1e9
        ok &= cf.mode == "width" and abs(width - target) <= 0.05 * target
        measured.append(f"OD {od:g}: {width:.1f} ns")
    return CriterionResult(
        "C7", "hybrid rectangle tracks the group delay",
        ok, "; ".join(measured), "245/490/735 ns +- 5%, width mode")


def c08_od_invariance(ctx: AcceptanceContext) -> CriterionResult:
    periods = []
    for od in (37.0, 74.0):
        tr = rcc_cond_numeric("tau12", ctx.p_hybrid(od), ctx.cfg_hybrid)
        periods.append(analysis.extract_period(tr))
    periods.append(analysis.extract_period(ctx.hybrid_point_111.trace12))
    spread = (max(periods) - min(periods)) / (sum(periods) / len(periods))
    ok = spread < 0.01
    return CriterionResult(
        "C8", "tau12 oscillation frequency invariant with OD",
        ok, f"spread {_pct(spread)} over OD 37/74/111", "< 1%")


def c09_temporal_ordering(ctx: AcceptanceContext) -> CriterionResult:
    m_ana, m_num = ctx.chi5_point.ordering_analytic, ctx.chi5_point.ordering_numeric
    ok = m_ana == 0.0 and m_num < 1e-3
    return CriterionResult(
        "C9", "strict temporal ordering",
        ok, f"analytic {m_ana:.1e}, numeric {m_num:.2e}",
        "exactly 0 and < 1e-3")


def c10_non_factorizability(ctx: AcceptanceContext) -> CriterionResult:
    resid = ctx.chi5_point.residual
    t = np.linspace(0.0, 400e-9, 512)
    stub = analytic_rate_grid(ctx.p_chi5, t, t, which="cascaded")
    resid_stub = analysis.factorizability_residual(stub)
    ok = resid > 0.1 and resid_stub < 1e-10
    return CriterionResult(
        "C10", "marginals cannot rebuild the triphoton landscape",
        ok, f"residual {resid:.3f}, cascaded stub {resid_stub:.1e}",
        "> 0.1 and < 1e-10")


def c11_precursor(ctx: AcceptanceContext) -> CriterionResult:
    d = derived_frequencies(ctx.p_hybrid(111.0))
    got_num = analysis.detect_precursor(ctx.hybrid_point_111.near_diagonal, d)
    tr_ana = _hybrid_row_trace(ctx, 111.0, ideal_rect=True)
    got_ana = analysis.detect_precursor(tr_ana, d)
    ok = got_num and not got_ana
    return CriterionResult(
        "C11", "precursor visible only in the full numeric wavepacket",
        ok, f"numeric {got_num}, ideal-rect analytic {got_ana}",
        "True / False")


def c12_algebra_check(ctx: AcceptanceContext) -> CriterionResult:
    p = ctx.p_chi5
    t12 = np.linspace(0.0, 250e-9, 301)[:, None]
    s = np.linspace(0.0, 250e-9, 299)[None, :]
    t13 = t12 + s
    rate = rcc_chi5(t12, t13, p)
    amp2 = np.abs(wavepacket_chi5(t12, t13, p)) ** 2
    sel = amp2 > 1e-12 * amp2.max()
    c0 = float(np.median(rate[sel] / amp2[sel]))
    dev = float(np.max(np.abs(rate[sel] - c0 * amp2[sel]) / (c0 * amp2[sel])))
    ok = dev < 1e-9
    return CriterionResult(
        "C12", "rate formula equals |amplitude|^2 up to one constant",
        ok, f"c0 = {c0:.6f}, max relative deviation {dev:.2e}", "< 1e-9")


CRITERIA = [
    ("C1", c01_four_channels, "four-channel spectrum"),
    ("C2", c02_central_symmetry, "central symmetry of |chi5|"),
    ("C3", c03_oracle_equivalence, "oracle vs closed forms, L2 < 5%"),
    ("C4", c04_rabi_period, "21 ns Rabi period both directions"),
    ("C5", c05_coherence_times, "48/52 ns coherence times"),
    ("C6", c06_coherence_enhancement, "150 ns conditional coherence"),
    ("C7", c07_hybrid_group_delay, "245/490/735 ns hybrid widths"),
    ("C8", c08_od_invariance, "tau12 frequency invariant with OD"),
    ("C9", c09_temporal_ordering, "zero mass outside the ordering wedge"),
    ("C10", c10_non_factorizability, "non-factorizable landscape"),
    ("C11", c11_precursor, "precursor true/false contrast"),
    ("C12", c12_algebra_check, "rate = |amplitude|^2 algebra"),
]


def list_criteria() -> list[tuple[str, str]]:
    return [(cid, desc) for cid, _, desc in CRITERIA]


def report_lines(results: list[CriterionResult]) -> list[str]:
    """One line per criterion, then the pass count."""
    n_pass = sum(r.passed for r in results)
    return [r.line() for r in results] + [f"{n_pass}/{len(results)} criteria passed"]


def run_acceptance(out_dir: Path, subset: list[str] | None = None) -> list[CriterionResult]:
    """Run (a subset of) the criteria and write their `report_lines` to
    acceptance_report.txt in `out_dir`; ConfigError names unknown ids."""
    valid = [cid for cid, _, _ in CRITERIA]
    unknown = [cid for cid in subset or () if cid not in valid]
    if unknown:
        raise ConfigError(f"unknown criterion id(s) {', '.join(map(repr, unknown))}; "
                          f"valid ids: {', '.join(valid)}")
    ctx = AcceptanceContext()
    results = [fn(ctx) for cid, fn, _ in CRITERIA if subset is None or cid in subset]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "acceptance_report.txt").write_text("\n".join(report_lines(results)) + "\n")
    return results
