"""Procedural base textures so tests and benchmarks are self-contained.

All generators are deterministic given their arguments (and seed, where one
applies) and return ``ImageBuffer`` values in [0, 1].
"""

from __future__ import annotations

import numpy as np

from .image import ImageBuffer, blur_array


def ramp(width, height, angle=0.0, lo=0.05, hi=0.95):
    """Linear luminance ramp along ``angle`` (0 = left-to-right)."""
    uu, vv = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
    proj = uu * np.cos(angle) + vv * np.sin(angle)
    pmin, pmax = proj.min(), proj.max()
    span = pmax - pmin if pmax > pmin else 1.0
    return ImageBuffer.from_array(lo + (hi - lo) * (proj - pmin) / span)


def checkerboard(width, height, cell=8, lo=0.1, hi=0.9):
    """Axis-aligned checkerboard with square cells of side ``cell`` px."""
    uu, vv = np.meshgrid(np.arange(width), np.arange(height))
    board = ((uu // cell + vv // cell) % 2).astype(np.float64)
    return ImageBuffer.from_array(lo + (hi - lo) * board)


def grating(width, height, freq, angle=0.0, phase=0.0, contrast=0.45):
    """Sinusoidal grating: spatial frequency ``freq`` in radians/pixel."""
    uu, vv = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
    wave = np.sin(freq * (uu * np.cos(angle) + vv * np.sin(angle)) + phase)
    return ImageBuffer.from_array(0.5 + contrast * wave)


def gaussian_blob(width, height, center=None, sigma=4.0, peak=0.9, floor=0.1):
    """Single bright blob on a dark background."""
    if center is None:
        center = ((width - 1) / 2.0, (height - 1) / 2.0)
    uu, vv = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
    d2 = (uu - center[0]) ** 2 + (vv - center[1]) ** 2
    return ImageBuffer.from_array(floor + (peak - floor) * np.exp(-0.5 * d2 / sigma**2))


def filtered_noise(width, height, seed, smooth=2.0, lo=0.1, hi=0.9):
    """Gaussian-smoothed uniform noise stretched to [lo, hi]."""
    rng = np.random.default_rng(seed)
    raw = blur_array(rng.uniform(size=(height, width)), smooth)
    rmin, rmax = raw.min(), raw.max()
    span = rmax - rmin if rmax > rmin else 1.0
    return ImageBuffer.from_array(lo + (hi - lo) * (raw - rmin) / span)


def oriented_noise(width, height, seed, angle=None, smooth=1.0, stretch=6.0, lo=0.1, hi=0.9):
    """Noise smoothed anisotropically, giving it a dominant orientation.

    The long smoothing axis lies along ``angle`` (drawn from the seed when
    omitted), so gradients concentrate perpendicular to it.
    """
    rng = np.random.default_rng(seed)
    if angle is None:
        angle = rng.uniform(0.0, np.pi)
    pad = int(np.ceil(3 * smooth * stretch)) + 2
    big_w, big_h = width + 2 * pad, height + 2 * pad
    raw = rng.uniform(size=(big_h, big_w))
    # blur along rotated axes by compositing two axis-aligned passes on a
    # rotated field approximation: smear along `angle` with a line kernel
    n = max(3, int(round(smooth * stretch)))
    ts = np.arange(-n, n + 1, dtype=np.float64)
    ku = np.cos(angle) * ts
    kv = np.sin(angle) * ts
    weights = np.exp(-0.5 * (ts / (smooth * stretch / 3.0)) ** 2)
    weights /= weights.sum()
    acc = np.zeros_like(raw)
    for w, du, dv in zip(weights, ku, kv):
        acc += w * np.roll(np.roll(raw, int(round(dv)), axis=0), int(round(du)), axis=1)
    acc = blur_array(acc, smooth)
    acc = acc[pad : pad + height, pad : pad + width]
    rmin, rmax = acc.min(), acc.max()
    span = rmax - rmin if rmax > rmin else 1.0
    return ImageBuffer.from_array(lo + (hi - lo) * (acc - rmin) / span)


def benchmark_bases(count):
    """Deterministic family of 96 x 96 base textures for the synthetic benchmark.

    Mixes smoothed-noise fields (the bulk, seeds 2024, 2025, ...), a ramp,
    and a checkerboard so the set exercises flat gradients, strong edges,
    and generic texture.
    """
    bases = [
        ramp(96, 96, angle=0.35),
        checkerboard(96, 96, cell=11),
    ]
    k = 0
    while len(bases) < count:
        bases.append(filtered_noise(96, 96, seed=2024 + k, smooth=1.8))
        k += 1
    return bases[:count]
