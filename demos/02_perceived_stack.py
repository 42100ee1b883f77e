"""
From pixel codes to a perceived stack
=====================================

Generate one healthy/lesion pair of synthetic image stacks, map the
stored 10-bit codes to screen luminance, and filter the result through
the sensitivity model to get each stack "in JND units": the amplitude a
feature needs to be just noticeable equals one.

The same stack browsed at different speeds produces different percepts;
here we watch the lesion's perceived contrast change with browsing speed.
"""

import numpy as np

from cinecho.display import DisplayModel
from cinecho.percept import apply_stcsf
from cinecho.stacks import GEOMETRY_PRESETS, LesionSpec, \
    generate_background, insert_lesion

geometry = GEOMETRY_PRESETS["dataset_b"]
display = DisplayModel()
ssr = 7.0

healthy = generate_background(geometry, seed=7, stack_id="demo-h")
lesion = insert_lesion(healthy, LesionSpec("microcalc", amplitude=60.0),
                       stack_id="demo-l")
print(f"geometry {geometry.width}x{geometry.height}x{geometry.n_slices}, "
      f"lesion on slices {lesion.lesion_slices}")

# codes -> cd/m^2; each stack's own mean sets the adaptation level of the
# model, and its width over ssr its apparent size
lum_healthy = display.code_to_luminance(healthy.data)
lum_lesion = display.code_to_luminance(lesion.data)
print(f"mean luminance {lum_healthy.mean():.0f} cd/m^2, "
      f"code range {healthy.data.min()}..{healthy.data.max()}")

center = (geometry.width // 2, geometry.height // 2,
          geometry.n_slices // 2)
rates = (1.0, 10.0, 25.0, 45.0)
# one call per stack perceives it at every browsing point (ssr, slice_rate):
# its contrast is tapered and transformed once
points = [(ssr, rate) for rate in rates]
lesion_jnd = []
for rate, seen_h, seen_l in zip(rates, apply_stcsf(lum_healthy, points),
                                apply_stcsf(lum_lesion, points)):
    # perceived lesion contrast: the JND difference at the lesion center
    diff = seen_l.data - seen_h.data
    lesion_jnd.append(diff[center])
    print(f"  {rate:4.0f} slice/s: lesion center at "
          f"{diff[center]:6.2f} JND, peak |background| "
          f"{np.abs(seen_h.data).max():6.2f} JND")

# faster browsing moves the stack's energy to higher temporal frequency,
# where (at these spatial frequencies) sensitivity first rises; the
# perceived contrast of the lesion grows with the browsing speed
assert np.all(np.diff(lesion_jnd) > 0), "lesion contrast should grow"
