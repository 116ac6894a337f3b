"""The acceptance-criteria suite: every exit criterion as an executable check
with its tolerance pinned, shared heavy artifacts computed once.

Oracle configuration used throughout: the default extent rule with a
Tukey(0.1) spectral taper.  The taper keeps truncation sidelobes inside the
causality budget while moving fitted periods by well under the documented
0.5% window sensitivity.  Comparisons against closed forms exclude a 2.5-cell
band around the tau12 = 0 support jump, where a band-limited transform
necessarily takes midpoint values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import analysis
from .oracle import (OracleConfig, OracleRun, normalized_l2_error, rcc_cond_numeric,
                     support_edge_mask)
from .params import SystemParams, derived_frequencies, effective_splittings
from .susceptibility import chi5, find_resonances, spectral_grid
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


class AcceptanceContext:
    """Lazily built shared artifacts (2048^2 grids are reused across criteria)."""

    def __init__(self) -> None:
        self.p_chi5 = SystemParams()  # couplings 8 gamma31, OD 37
        self.cfg_chi5 = OracleConfig(force_phi_unity=True, tukey_alpha=0.1)
        self.cfg_hybrid = OracleConfig(extent=32.0, tukey_alpha=0.1)

    def p_hybrid(self, od: float) -> SystemParams:
        return SystemParams(omega_c1=2.0, omega_c2=2.0, optical_depth=od)

    @cached_property
    def chi5_run(self) -> OracleRun:
        """Rate grid and both conditional traces at the chi5-dominated point."""
        return OracleRun(self.p_chi5, self.cfg_chi5, traces=("tau12", "tau13"))

    @cached_property
    def rate_analytic(self):
        g = self.chi5_run.rate
        return analytic_rate_grid(self.p_chi5, g.tau12_axis, g.tau13_axis, which="chi5")

    @cached_property
    def sdir_numeric(self):
        rate = self.chi5_run.rate
        return analysis.diagonal_offset_trace(
            rate, analysis.first_antinode_offset(rate, self.p_chi5))

    @cached_property
    def fig2_grid(self):
        p = SystemParams(omega_c1=40.0, omega_c2=40.0)
        return p, spectral_grid(p, 320.0, 2048, force_phi_unity=True)

    @cached_property
    def hybrid_run_111(self) -> OracleRun:
        """Rate grid (C11) and tau12 trace (C8) of the hybrid point at OD 111."""
        return OracleRun(self.p_hybrid(111.0), self.cfg_hybrid, traces=("tau12",))


def _pct(x: float) -> str:
    return f"{100 * x:.2f}%"


# --------------------------------------------------------------------------
# criteria


def c01_four_channels(ctx: AcceptanceContext) -> CriterionResult:
    p, grid = ctx.fig2_grid
    peaks = find_resonances(grid)
    cell = float(grid.delta3_axis[1] - grid.delta3_axis[0])
    half = effective_splittings(p).omega_e2 / 2
    dev = max(abs(abs(pk["delta3"]) - half) for pk in peaks) if peaks else math.inf
    ok = len(peaks) == 4 and dev <= cell
    return CriterionResult(
        "C1", "four-channel spectrum at the strong-coupling point",
        ok, f"{len(peaks)} peaks, |delta3| off by {dev:.3f} gamma31",
        f"4 peaks, within one cell ({cell:.3f})")


def c02_central_symmetry(ctx: AcceptanceContext) -> CriterionResult:
    _, grid = ctx.fig2_grid
    mag = np.abs(grid.values[1:, 1:])  # symmetric sub-grid of the fft axes
    dev = float(np.max(np.abs(mag - mag[::-1, ::-1])) / mag.max())
    ok = dev < 1e-12
    return CriterionResult(
        "C2", "central symmetry of |chi5|", ok, f"max deviation {dev:.2e}", "< 1e-12")


def c03_oracle_equivalence(ctx: AcceptanceContext) -> CriterionResult:
    num, ana = ctx.chi5_run.rate, ctx.rate_analytic
    mask = support_edge_mask(num.tau12_axis, num.tau13_axis)
    err2d = normalized_l2_error(num.values, ana.values, mask)

    tr = ctx.chi5_run.trace("tau12")
    ana12 = rcc_cond12(tr.t_axis, ctx.p_chi5, normalize=True)
    keep = np.abs(tr.t_axis) > 2.5 * tr.dt
    err1d = normalized_l2_error(tr.values, ana12 / ana12.max(), keep)
    ok = err2d < 0.05 and err1d < 0.05
    return CriterionResult(
        "C3", "numeric oracle matches the closed forms",
        ok, f"L2(2D) {_pct(err2d)}, L2(marginal) {_pct(err1d)}", "both < 5%")


def c04_rabi_period(ctx: AcceptanceContext) -> CriterionResult:
    p12 = analysis.extract_period(ctx.chi5_run.trace("tau12")) * 1e9
    p13 = analysis.extract_period(ctx.sdir_numeric) * 1e9
    ok = abs(p12 - 21) <= 1 and abs(p13 - 21) <= 1
    return CriterionResult(
        "C4", "Rabi period along both delay directions",
        ok, f"tau12 {p12:.2f} ns, tau13-tau12 {p13:.2f} ns", "21 +- 1 ns")


def c05_coherence_times(ctx: AcceptanceContext) -> CriterionResult:
    t12 = analysis.fit_coherence_time(ctx.chi5_run.trace("tau12")) * 1e9
    t13 = analysis.fit_coherence_time(ctx.sdir_numeric) * 1e9
    ok = abs(t12 - 48) <= 4.8 and abs(t13 - 52) <= 5.2
    return CriterionResult(
        "C5", "triphoton coherence times",
        ok, f"tau12 {t12:.1f} ns, tau13-tau12 {t13:.1f} ns",
        "48 +- 10% and 52 +- 10%")


def c06_coherence_enhancement(ctx: AcceptanceContext) -> CriterionResult:
    cf = analysis.coherence_fit(ctx.chi5_run.trace("tau13"))
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
    periods.append(analysis.extract_period(ctx.hybrid_run_111.trace("tau12")))
    spread = (max(periods) - min(periods)) / (sum(periods) / len(periods))
    ok = spread < 0.01
    return CriterionResult(
        "C8", "tau12 oscillation frequency invariant with OD",
        ok, f"spread {_pct(spread)} over OD 37/74/111", "< 1%")


def c09_temporal_ordering(ctx: AcceptanceContext) -> CriterionResult:
    m_ana = analysis.ordering_violation_mass(ctx.rate_analytic)
    m_num = analysis.ordering_violation_mass(ctx.chi5_run.rate)
    ok = m_ana == 0.0 and m_num < 1e-3
    return CriterionResult(
        "C9", "strict temporal ordering",
        ok, f"analytic {m_ana:.1e}, numeric {m_num:.2e}",
        "exactly 0 and < 1e-3")


def c10_non_factorizability(ctx: AcceptanceContext) -> CriterionResult:
    resid = analysis.factorizability_residual(ctx.rate_analytic)
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
    tr_num = analysis.near_diagonal_trace(ctx.hybrid_run_111.rate)
    got_num = analysis.detect_precursor(tr_num, d)
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


def run_acceptance(subset: list[str] | None = None,
                   out_dir: Path | None = None,
                   context: AcceptanceContext | None = None) -> list[CriterionResult]:
    """Run (a subset of) the criteria, print one line each, optionally save."""
    ctx = context or AcceptanceContext()
    results = []
    for cid, fn, _ in CRITERIA:
        if subset is not None and cid not in subset:
            continue
        res = fn(ctx)
        print(res.line())
        results.append(res)
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = out_dir / "acceptance_report.txt"
        report.write_text("\n".join(r.line() for r in results)
                          + f"\n{n_pass}/{len(results)} criteria passed\n")
    return results
