"""Shared test helpers: independent oracles and screened test patches."""

import math

import numpy as np

from orbitpool import textures
from orbitpool.image import MAG_EPSILON, ImageBuffer, compute_gradients


def wrapped_gaussian_oracle(delta, eps, wraps=50):
    """Scalar summation of the wrapped Gaussian, independent of the library."""
    total = 0.0
    for k in range(-wraps, wraps + 1):
        z = (delta + 2.0 * math.pi * k) / eps
        total += math.exp(-0.5 * z * z)
    return total / (eps * math.sqrt(2.0 * math.pi))


def fold_image(side=33, lo=0.1, hi=0.9, skew=1.0):
    """Two ramps meeting along the diagonal; skew scales the upper one."""
    uu, vv = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
    values = np.maximum(uu, skew * vv) / (side - 1)
    return ImageBuffer.from_array(lo + (hi - lo) * values / max(1.0, skew))


def clean_noise_seeds(count, side=32, limit=500):
    """Seeds of noise patches with no gradient magnitude near the validity cut.

    A gain of 0.5 or 2 flips a pixel's validity when its magnitude sits in
    [eps/2, 2*eps); the returned patches have no such pixel, so affine
    contrast changes leave the valid set untouched.
    """
    seeds = []
    seed = 0
    while len(seeds) < count and seed < limit:
        img = textures.filtered_noise(side, side, seed=seed)
        f = compute_gradients(img)
        m = f.magnitude[1:-1, 1:-1]
        if not ((m >= MAG_EPSILON / 2) & (m < 2 * MAG_EPSILON)).any():
            seeds.append(seed)
        seed += 1
    assert len(seeds) == count, "could not find enough clean patches"
    return seeds


def gaussian_blob(width, height, center=None, sigma=4.0, peak=0.9, floor=0.1):
    """Single bright blob on a dark background."""
    if center is None:
        center = ((width - 1) / 2.0, (height - 1) / 2.0)
    uu, vv = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
    d2 = (uu - center[0]) ** 2 + (vv - center[1]) ** 2
    return ImageBuffer.from_array(floor + (peak - floor) * np.exp(-0.5 * d2 / sigma**2))
