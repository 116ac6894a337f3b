#!/usr/bin/env python3
"""Compute the triple-coincidence landscape in the chi5-dominated regime both
ways (numeric transform and closed form), compare them, and fit the damped
Rabi oscillation observables.

Usage: python scripts/triphoton_landscape.py [outdir]
"""
import sys
from pathlib import Path

import numpy as np

from sswm import OracleConfig, SystemParams, derived_frequencies, extract_period, rcc_numeric
from sswm.analysis import (coherence_fit, diagonal_offset_trace, first_antinode_offset,
                           trace_from_grid)
from sswm.oracle import normalized_l2_error, support_edge_mask
from sswm.wavepacket import analytic_rate_grid

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
out.mkdir(parents=True, exist_ok=True)

p = SystemParams()  # couplings 8 gamma31
d = derived_frequencies(p)
print(f"regime: {d.regime.value}, entanglement: {d.entanglement.value}")

cfg = OracleConfig(force_phi_unity=True, tukey_alpha=0.1)
num = rcc_numeric(p, cfg)  # one spectrum, every product
ana = analytic_rate_grid(p, num.tau12_axis, num.tau13_axis, which="chi5")
mask = support_edge_mask(num.tau12_axis, num.tau13_axis)
err = normalized_l2_error(num.values, ana.values, mask)
print(f"oracle vs closed form: normalized L2 = {100 * err:.2f}%")

tr12 = trace_from_grid(num, "tau12")
sdir = diagonal_offset_trace(num, first_antinode_offset(num, p))
print(f"tau12: period {extract_period(tr12) * 1e9:.2f} ns, "
      f"coherence {coherence_fit(tr12).time_s * 1e9:.1f} ns")
print(f"tau13-tau12: period {extract_period(sdir) * 1e9:.2f} ns, "
      f"coherence {coherence_fit(sdir).time_s * 1e9:.1f} ns")

tr13 = trace_from_grid(num, "tau13")
print(f"conditional tau13 coherence: {coherence_fit(tr13).time_s * 1e9:.1f} ns "
      "(temporal-order-driven enhancement)")

sel = (num.tau12_axis >= -30e-9) & (num.tau12_axis <= 320e-9)
path = out / "rcc_2d_chi5_regime.csv"
with path.open("w") as fh:
    fh.write("# normalized triple-coincidence rate, chi5-dominated regime\n")
    fh.write("tau12_ns,tau13_ns,rate\n")
    idx = np.where(sel)[0]
    for i in idx:
        for j in idx:
            fh.write(f"{num.tau12_axis[i] * 1e9:.3f},{num.tau13_axis[j] * 1e9:.3f},"
                     f"{num.values[i, j]:.8e}\n")
print(f"wrote {path}")
