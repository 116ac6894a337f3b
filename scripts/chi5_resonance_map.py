#!/usr/bin/env python3
"""Map the four-peak fifth-order susceptibility spectrum at the strong-coupling
(W-state) operating point and print where the resonances land.

Usage: python scripts/chi5_resonance_map.py [outdir]
"""
import sys
from pathlib import Path

import numpy as np

from sswm import SystemParams, effective_splittings, find_resonances, spectral_grid

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
out.mkdir(parents=True, exist_ok=True)

p = SystemParams(omega_c1=40.0, omega_c2=40.0)
s = effective_splittings(p)
print(f"omega_e1 = {s.omega_e1:.4f} gamma31, omega_e2 = {s.omega_e2:.4f} gamma31")

grid = spectral_grid(p, extent=320.0, n_points=2048, force_phi_unity=True)
mag = np.abs(grid.values)
peaks = find_resonances(mag, grid.delta2_axis, grid.delta3_axis)
print(f"{len(peaks)} resonance peaks:")
for pk in peaks:
    print(f"  delta2 = {pk['delta2']:+8.3f}  delta3 = {pk['delta3']:+8.3f}  "
          f"|chi5| = {pk['magnitude']:.3e}")
print(f"expected |delta3| = omega_e2/2 = {s.omega_e2 / 2:.3f} gamma31")

# downsampled magnitude map for plotting
step = 4
mag = mag[::step, ::step]
d2 = grid.delta2_axis[::step]
d3 = grid.delta3_axis[::step]
path = out / "chi5_magnitude_map.csv"
with path.open("w") as fh:
    fh.write("# |chi5(delta2, delta3)| map, axes in gamma31 units\n")
    fh.write("delta2,delta3,abs_chi5\n")
    for i, a in enumerate(d2):
        for j, b in enumerate(d3):
            fh.write(f"{a:.6f},{b:.6f},{mag[i, j]:.8e}\n")
print(f"wrote {path}")
