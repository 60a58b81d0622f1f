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
    "vote_kernel",
    "wrap_angle",
]

TWO_PI = 2.0 * np.pi


def wrap_angle(angles) -> np.ndarray:
    """``np.mod(angles, 2*pi)``, bit for bit, as a float array.

    On [-2*pi, 4*pi) ``fmod`` returns the input or the input minus 2*pi,
    both exact, and ``np.mod`` adds 2*pi only to a negative remainder, so
    one conditional shift by 2*pi gives the same bits, a few times faster.
    Inputs outside that range, or NaN, take ``np.mod`` itself.
    """
    a = np.asarray(angles, dtype=float)
    if a.size and a.min() >= -TWO_PI and a.max() < 2.0 * TWO_PI:
        return np.where(a >= TWO_PI, a - TWO_PI, a + (a < 0) * TWO_PI)
    return np.mod(a, TWO_PI)


def bin_centers(bins: int) -> np.ndarray:
    """Centers of ``bins`` equal angular bins: 2*pi*b/bins for b = 0..bins-1."""
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    return np.arange(bins) * (2.0 * np.pi / bins)


# Up to this bandwidth a CircularKernel's branches at +-2 turns change no bit
# of its sum (see ``CircularKernel.__call__``).
_NARROW_BANDWIDTH = math.pi / math.sqrt(10.0)


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
        # wrap into [-pi, pi] first so every branch is as close to its
        # Gaussian center as possible
        delta = wrap_angle(np.asarray(delta, dtype=float) + np.pi)
        delta -= np.pi
        inv = 1.0 / self.bandwidth
        norm = inv / math.sqrt(2.0 * np.pi)
        # The branches are summed from k = -2 up, starting from the first
        # (all are nonnegative, so that is the same as starting from 0.0).
        # On [-pi, pi] branch k = +-2 is at most exp(-4 pi^2 / bandwidth^2)
        # times branch k = +-1, below 2**-54 when the bandwidth is at most
        # pi / sqrt(10): added first or last it then rounds away, and is
        # skipped.  Branches are worked out in place, in the same operations.
        turns = (-1, 0, 1) if self.bandwidth <= _NARROW_BANDWIDTH else (-2, -1, 0, 1, 2)
        total, z, branch = np.empty_like(delta), np.empty_like(delta), np.empty_like(delta)
        for k in turns:
            np.multiply(np.add(delta, TWO_PI * k, out=z) if k else delta, inv, out=z)
            out = total if k == turns[0] else branch
            np.multiply(-0.5, z, out=out)
            out *= z
            np.exp(out, out=out)
            if out is branch:
                total += branch
        total *= norm
        return total


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
    one descriptor) cost one evaluation.  Leading axes batch: orientations
    ``(..., n)`` and weights ``(..., m, n)`` give ``(..., m, bins)``, each
    batch element bit for bit its own ``(m, n)`` call.
    """
    orientations = np.asarray(orientations, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim < 3:
        orientations = orientations.ravel()
        if weights.ndim < 2:
            weights = weights.ravel()
    if weights.shape[-1] != orientations.shape[-1]:
        raise ValueError("orientations and weights must have the same length")
    columns = vote_kernel(orientations, kernel, bins)
    if weights.ndim == 1:
        return columns @ weights
    return np.swapaxes(columns @ np.swapaxes(weights, -1, -2), -1, -2)


def vote_kernel(orientations, kernel: CircularKernel, bins: int) -> np.ndarray:
    """The ``(..., bins, n)`` matrices ``kernel(center_b - a_i)`` that ``soft_vote`` weights.

    Orientations are ``(..., n)``.  Each entry depends on one orientation
    alone, so a sample's column is the same in whatever set of samples it
    is evaluated.
    """
    orientations = np.asarray(orientations, dtype=float)
    return kernel(bin_centers(bins)[:, None] - orientations[..., None, :])


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
