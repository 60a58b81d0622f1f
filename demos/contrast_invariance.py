"""What a monotone brightness change can and cannot move.

Gradient orientations survive any monotone remap of intensities, so an
l1-normalized orientation histogram shrugs off affine gain and offset,
and even a nonlinear gamma leaves the dominant bin alone.
"""

import numpy as np

from orbitpool import (
    AffineContrast,
    CircularKernel,
    GammaContrast,
    Keypoint,
    SpatialKernel,
    apply_contrast,
    compute_gradients,
    dsp_descriptor,
    normalize,
    pooled_histogram,
)
from orbitpool.image import gradient_field_of_array
from orbitpool.textures import filtered_noise, ramp

img = filtered_noise(48, 48, seed=12)
kp = Keypoint(23.5, 23.5, 4.0)
base = dsp_descriptor(compute_gradients(img), kp)

print("descriptor under affine contrast  a*x + b  (no clipping)")
for a in (0.5, 2.0):
    for b in (-0.1, 0.1):
        raw = AffineContrast(a, b).apply(img.values)
        mapped = dsp_descriptor(gradient_field_of_array(raw), kp)
        err = np.max(np.abs(mapped.values - base.values))
        print(f"  a={a:3} b={b:+} -> max bin change {err:.2e}")

print()
print("histogram argmax under gamma (nonlinear but monotone)")
kern = CircularKernel(2 * np.pi / 8)
spatial = SpatialKernel(4.0)
for angle in (0.0, 0.7, 2.1):
    tilted = ramp(33, 33, angle=angle)
    h0 = normalize(pooled_histogram(compute_gradients(tilted), tilted.center, 10.0, spatial, kern))
    line = [f"ramp angle {angle:.1f}: argmax bin {np.argmax(h0.bins)}"]
    for gamma in (0.5, 2.0):
        g = apply_contrast(tilted, GammaContrast(gamma))
        hg = normalize(pooled_histogram(compute_gradients(g), g.center, 10.0, spatial, kern))
        line.append(f"gamma {gamma} -> {np.argmax(hg.bins)}")
    print("  " + ",  ".join(line))

print()
print("the gain cancels in the l1 normalization; the offset dies in the")
print("derivative; gamma rescales magnitudes but cannot reorder the bins.")
