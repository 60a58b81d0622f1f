"""Orientation statistics on the circle.

Gradient orientation is what survives when a monotone change of contrast
hits an image: directions stay put while magnitudes get rescaled.  This
module turns a gradient field into local orientation histograms that are
invariant to affine contrast changes.  Each pixel votes for every bin with
weight ``K(bin_center - orientation) * magnitude``, where ``K`` is a
wrapped Gaussian on the circle; votes are pooled over a disc with a
Gaussian spatial falloff and the result is normalized in l1 so a uniform
magnitude rescaling cancels exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .image import GradientField, SupportError

__all__ = [
    "CircularKernel",
    "SpatialKernel",
    "OrientationHistogram",
    "bin_centers",
    "pooled_histogram",
    "normalize",
    "soft_vote",
]


def bin_centers(bins: int) -> np.ndarray:
    """Centers of ``bins`` equal angular bins: 2*pi*b/bins for b = 0..bins-1."""
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    return np.arange(bins) * (2.0 * np.pi / bins)


@dataclass(frozen=True)
class CircularKernel:
    """Wrapped Gaussian density on the circle.

    The density is approximated by summing plain Gaussian branches over
    two full turns on each side of zero.  With these five branches the
    truncation error is below 1e-12 for any bandwidth up to one radian,
    which covers every use in this package.
    """

    bandwidth: float

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")

    def __call__(self, delta):
        delta = np.asarray(delta, dtype=float)
        two_pi = 2.0 * np.pi
        # wrap into [-pi, pi) first so every branch is as close to its
        # Gaussian center as possible
        delta = np.mod(delta + np.pi, two_pi) - np.pi
        inv = 1.0 / self.bandwidth
        norm = inv / math.sqrt(2.0 * np.pi)
        total = np.zeros_like(delta)
        for k in range(-2, 3):
            z = (delta + two_pi * k) * inv
            total = total + np.exp(-0.5 * z * z)
        return total * norm


@dataclass(frozen=True)
class SpatialKernel:
    """Isotropic Gaussian pixel weight, truncated at three standard deviations."""

    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def support_radius(self) -> float:
        return 3.0 * self.scale

    def __call__(self, du, dv):
        du = np.asarray(du, dtype=float)
        dv = np.asarray(dv, dtype=float)
        d2 = du * du + dv * dv
        w = np.exp(-0.5 * d2 / (self.scale * self.scale))
        return np.where(d2 <= self.support_radius**2, w, 0.0)


@dataclass(frozen=True)
class OrientationHistogram:
    """Masses over equal angular bins, plus the pre-normalization total.

    ``total_mass`` is set when the histogram is accumulated and is carried
    through normalization unchanged; a zero total marks a flat window whose
    normalized form is the uniform histogram with ``degenerate`` set.
    """

    bins: np.ndarray
    total_mass: float
    degenerate: bool = False

    def __post_init__(self):
        arr = np.asarray(self.bins, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("bins must be a nonempty 1-D array")
        if (arr < 0).any():
            raise ValueError("bin masses must be nonnegative")
        if self.total_mass < 0:
            raise ValueError("total_mass must be nonnegative")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "bins", arr)

    @property
    def size(self) -> int:
        return int(self.bins.size)


def soft_vote(orientations, weights, kernel: CircularKernel, bins: int) -> np.ndarray:
    """Accumulate kernel-weighted votes into ``bins`` angular bins.

    Each sample with orientation ``a`` and weight ``w`` adds
    ``w * kernel(center_b - a)`` to every bin ``b``.  Returns the raw
    (un-normalized) bin masses.

    ``weights`` may also be an ``(m, n)`` matrix over ``n`` samples: row
    ``i`` is then one histogram's weights, and the result is the
    ``(m, bins)`` array whose row ``i`` equals ``soft_vote(orientations,
    weights[i], kernel, bins)``.  The kernel is evaluated once for all
    rows, so histograms that share samples (the cells and window sizes of
    one descriptor) cost one evaluation.
    """
    orientations = np.asarray(orientations, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2:
        weights = weights.ravel()
    if weights.shape[-1] != orientations.size:
        raise ValueError("orientations and weights must have the same length")
    centers = bin_centers(bins)
    if orientations.size == 0:
        return np.zeros(weights.shape[:-1] + (bins,))
    delta = centers[:, None] - orientations[None, :]
    return (kernel(delta) @ weights.T).T


def pooled_histogram(
    field: GradientField,
    center: Tuple[float, float],
    radius: float,
    spatial: SpatialKernel,
    kernel: CircularKernel,
    bins: int = 8,
) -> OrientationHistogram:
    """Pool per-pixel orientation votes over a disc.

    Pixels within Euclidean ``radius`` of ``center`` (and inside the
    spatial kernel's own truncation radius) vote softly into ``bins``
    angular bins, weighted by gradient magnitude times the spatial weight.
    The result is un-normalized.

    Raises SupportError when the disc does not reach the image at all.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if bins < 4:
        raise ValueError(f"need at least 4 bins, got {bins}")
    cu, cv = float(center[0]), float(center[1])
    h, w = field.magnitude.shape
    u0 = max(0, int(math.ceil(cu - radius)))
    u1 = min(w - 1, int(math.floor(cu + radius)))
    v0 = max(0, int(math.ceil(cv - radius)))
    v1 = min(h - 1, int(math.floor(cv + radius)))
    if u0 > u1 or v0 > v1:
        raise SupportError(
            f"window of radius {radius} at ({cu}, {cv}) lies outside the {w}x{h} image"
        )
    uu, vv = np.meshgrid(np.arange(u0, u1 + 1), np.arange(v0, v1 + 1))
    du = uu - cu
    dv = vv - cv
    inside = du * du + dv * dv <= radius * radius
    sel = inside & field.valid[v0 : v1 + 1, u0 : u1 + 1]
    if not sel.any():
        return OrientationHistogram(np.zeros(bins), 0.0)
    weights = field.magnitude[v0 : v1 + 1, u0 : u1 + 1][sel] * spatial(du[sel], dv[sel])
    votes = soft_vote(field.orientation[v0 : v1 + 1, u0 : u1 + 1][sel], weights, kernel, bins)
    return OrientationHistogram(votes, float(votes.sum()))


def normalize(hist: OrientationHistogram) -> OrientationHistogram:
    """l1-normalize a histogram so bin masses sum to one.

    The pre-normalization ``total_mass`` is carried through unchanged,
    which makes the operation idempotent.  A zero-mass histogram maps to
    the uniform distribution with the degenerate flag set: flat windows
    still need to produce a value, and the flag lets a matcher discount
    them.
    """
    if hist.total_mass > 0:
        s = hist.bins.sum()
        return OrientationHistogram(hist.bins / s, hist.total_mass, hist.degenerate)
    uniform = np.full(hist.size, 1.0 / hist.size)
    return OrientationHistogram(uniform, hist.total_mass, True)
