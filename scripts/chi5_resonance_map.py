#!/usr/bin/env python3
"""Map the four-peak fifth-order susceptibility spectrum at the strong-coupling
(W-state) operating point and print where the resonances land.

Usage: python scripts/chi5_resonance_map.py [outdir]
"""
import sys
from pathlib import Path

from sswm import SystemParams, chi5_magnitude_map, effective_splittings, find_resonances

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
out.mkdir(parents=True, exist_ok=True)

p = SystemParams(omega_c1=40.0, omega_c2=40.0)
s = effective_splittings(p)
print(f"omega_e1 = {s.omega_e1:.4f} gamma31, omega_e2 = {s.omega_e2:.4f} gamma31")

d2, d3, mag = chi5_magnitude_map(p, extent=320.0, n_points=2048)
peaks = find_resonances(mag, d2, d3)
print(f"{len(peaks)} resonance peaks:")
for pk in peaks:
    print(f"  delta2 = {pk['delta2']:+8.3f}  delta3 = {pk['delta3']:+8.3f}  "
          f"|chi5| = {pk['magnitude']:.3e}")
print(f"expected |delta3| = omega_e2/2 = {s.omega_e2 / 2:.3f} gamma31")

# downsampled magnitude map for plotting
step = 4
mag = mag[::step, ::step]
d2 = d2[::step]
d3 = d3[::step]
path = out / "chi5_magnitude_map.csv"
with path.open("w") as fh:
    fh.write("# |chi5(delta2, delta3)| map, axes in gamma31 units\n")
    fh.write("delta2,delta3,abs_chi5\n")
    for i, a in enumerate(d2):
        for j, b in enumerate(d3):
            fh.write(f"{a:.6f},{b:.6f},{mag[i, j]:.8e}\n")
print(f"wrote {path}")
