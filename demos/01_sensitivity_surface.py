"""
The spatio-temporal sensitivity surface
=======================================

Evaluate the contrast sensitivity S(u, w) of the standing observer model
over a grid of spatial frequencies u (cyc/deg) and temporal frequencies
w (cyc/s), at a 2.5 degree object shown at 20 cd/m^2.

The headline structure: at low spatial frequencies the surface is
band-pass in w (flicker helps), at high spatial frequencies it is
low-pass (flicker only hurts).  This asymmetry is what makes an optimal
browsing speed possible in the first place.
"""

from pathlib import Path

import numpy as np

from cinecho.csf import ViewingConditions, derive_optics, stcsf

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

vc = ViewingConditions(luminance=20.0, x0=2.5)

# the luminance-dependent internals: pupil, retinal illuminance, and the
# adapted time constants of the two temporal filters
optics = derive_optics(vc)
print(f"pupil {optics.pupil_mm:.2f} mm, retinal illuminance "
      f"{optics.retinal_troland:.0f} Td")
print(f"temporal time constants tau1 = {optics.tau1 * 1e3:.2f} ms, "
      f"tau2 = {optics.tau2 * 1e3:.2f} ms")

u = np.array([0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
w = np.arange(0.0, 41.0, 1.0)
surface = stcsf(u[:, None], w[None, :], vc)

# dump the full surface as CSV for external plotting
table = out_dir / "sensitivity_surface.csv"
with table.open("w", encoding="utf-8") as fh:
    fh.write("u,w,sensitivity\n")
    for i in range(u.size):
        for j in range(w.size):
            fh.write(f"{u[i]:g},{w[j]:g},{surface[i, j]:.9g}\n")
print(f"wrote {table}")

# where does sensitivity peak in w for each spatial frequency?
print("\n   u [cyc/deg]   S(u,0)      peak S      at w [Hz]")
for i, ui in enumerate(u):
    j = int(np.argmax(surface[i]))
    print(f"  {ui:10.1f} {surface[i, 0]:10.1f} {surface[i].max():10.1f}"
          f" {w[j]:10.1f}")

# the low-frequency rows peak well above 0 Hz; the high-frequency rows
# peak at 0 Hz exactly
assert np.argmax(surface[0]) > 0
assert np.argmax(surface[-1]) == 0
