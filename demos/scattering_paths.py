"""A walk through the Gabor scattering cascade.

Order 0 is just a local mean. Order 1 takes the modulus of a Gabor
response and averages it: each (scale, rotation) pair is one path, and
the finest-scale paths behave like the bins of an orientation histogram.
Order 2 re-filters the modulus and sees texture that order 1 averages
away.
"""

import numpy as np

from orbitpool import build_filter_bank, scatter
from orbitpool.textures import grating, ramp

bank = build_filter_bank()
print(f"filter bank: {len(bank.kernels)} scales x {bank.rotations} rotations, "
      f"kernel sides {[k[0].shape[0] for k in bank.kernels]}")

flat = ramp(32, 32, lo=0.55, hi=0.55)
vec = scatter(flat, bank)
print()
print("constant patch: every wavelet path is silent")
print(f"  order0 = {vec.order0:.3f} (the mean), "
      f"max |order1| = {vec.order1.max():.2e}, max |order2| = {vec.order2.max():.2e}")

print()
print("gratings light up the scale tuned to their frequency")
# rotations l and l + 4 are conjugate filters, so their modulus agrees on
# real images; report the angle mod pi to stay out of that exact tie.
xi = bank.xi
for freq, label in ((xi, "xi"), (xi / 2, "xi/2"), (xi / 4, "xi/4")):
    img = grating(32, 32, freq=freq, angle=2 * np.pi / 8)
    o1 = scatter(img, bank).order1
    j, l = np.unravel_index(np.argmax(o1), o1.shape)
    print(f"  frequency {label:>4}: strongest path (scale {j}, rotation {l % 4} mod pi)")

print()
print("order 2 path counts")
img = grating(32, 32, freq=xi / 2, angle=0.3)
vec = scatter(img, bank)
print(f"  flattened length {vec.flatten().size} = 1 + {vec.order1.size} + {vec.order2.size}")
print(f"  second-order pairs (coarser after finer): {vec.pairs}")
labels = vec.labels()
strongest = np.argmax(vec.flatten()[1 + vec.order1.size:])
print(f"  strongest order-2 path: {labels[1 + vec.order1.size + strongest]}")
