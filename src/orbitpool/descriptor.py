"""Grid descriptors, rotation canonization, and domain-size pooling.

A descriptor here is a C x C grid of l1-normalized orientation histograms
computed over a square window around a keypoint.  In-plane rotation is
handled by canonization: the window is expressed in a frame rotated by the
keypoint's principal orientation before cells and orientations are read
off.  Size, by contrast, is marginalized rather than canonized: the
size-pooled variant averages the un-normalized cell histograms over a
prior on window sizes and normalizes once at the end, which keeps the
affine-contrast cancellation intact while spreading the descriptor's
support over the sizes an unknown occlusion could leave co-visible.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, TextIO, Tuple

import numpy as np
from scipy import ndimage

from .image import GradientField, ImageBuffer, SupportError, gaussian_blur
from .orientation import CircularKernel, SpatialKernel, pooled_histogram, soft_vote

__all__ = [
    "Keypoint",
    "SizePrior",
    "Descriptor",
    "DescriptorConfig",
    "grid_keypoints",
    "dog_keypoints",
    "principal_orientations",
    "window_box",
    "accumulate_grid",
    "normalize_grid",
    "single_size_descriptor",
    "dsp_descriptor",
    "descriptor_distance",
    "write_rows",
    "read_rows",
]


@dataclass(frozen=True)
class Keypoint:
    """Location, nominal window size, and canonical orientation reference."""

    u: float
    v: float
    base_size: float
    orientation: float = 0.0

    def __post_init__(self):
        if not self.base_size > 0:
            raise ValueError(f"base_size must be positive, got {self.base_size}")


@dataclass(frozen=True)
class SizePrior:
    """Discrete prior over window-size multipliers.

    Stored as (multiplier, weight) pairs with multipliers strictly
    increasing and weights summing to one.  Duplicate multipliers in the
    input are coalesced by summing their weights, so a uniform prior over
    a repeated size collapses to the single-size case.
    """

    samples: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        merged = {}
        for mult, weight in self.samples:
            mult = float(mult)
            weight = float(weight)
            if not mult > 0:
                raise ValueError(f"size multiplier must be positive, got {mult}")
            if weight < 0:
                raise ValueError(f"weights must be nonnegative, got {weight}")
            merged[mult] = merged.get(mult, 0.0) + weight
        if not merged:
            raise ValueError("prior needs at least one sample")
        total = sum(merged.values())
        if total <= 0:
            raise ValueError("prior weights must not all be zero")
        pairs = tuple((m, w / total) for m, w in sorted(merged.items()))
        object.__setattr__(self, "samples", pairs)

    @classmethod
    def delta(cls, multiplier: float = 1.0) -> "SizePrior":
        return cls(((multiplier, 1.0),))

    @classmethod
    def uniform(cls, multipliers: Sequence[float]) -> "SizePrior":
        return cls(tuple((m, 1.0) for m in multipliers))

    @classmethod
    def default(cls) -> "SizePrior":
        return cls.uniform((0.7, 0.85, 1.0, 1.15, 1.3))

    @property
    def multipliers(self) -> Tuple[float, ...]:
        return tuple(m for m, _ in self.samples)

    @property
    def weights(self) -> Tuple[float, ...]:
        return tuple(w for _, w in self.samples)


@dataclass(frozen=True)
class DescriptorConfig:
    """Grid geometry and kernel parameters for descriptor extraction.

    ``bandwidth`` defaults to one orientation bin width; ``kappa_fraction``
    sets the per-cell Gaussian weight scale as a fraction of the cell side;
    ``support_factor`` converts a keypoint's base_size into a window side.
    """

    cells: int = 4
    bins: int = 8
    bandwidth: Optional[float] = None
    kappa_fraction: float = 0.5
    support_factor: float = 3.0

    def __post_init__(self):
        if self.cells < 1:
            raise ValueError("cells must be >= 1")
        if self.bins < 4:
            raise ValueError("bins must be >= 4")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        if not self.kappa_fraction > 0 or not self.support_factor > 0:
            raise ValueError("kappa_fraction and support_factor must be positive")

    @property
    def length(self) -> int:
        return self.cells * self.cells * self.bins

    def kernel(self) -> CircularKernel:
        eps = self.bandwidth if self.bandwidth is not None else 2.0 * np.pi / self.bins
        return CircularKernel(eps)


@dataclass(frozen=True)
class Descriptor:
    """Flat l1-normalized grid histogram with its provenance keypoint."""

    values: np.ndarray
    cells: int
    bins: int
    keypoint: Keypoint
    degenerate: bool = False

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size != self.cells * self.cells * self.bins:
            raise ValueError(
                f"descriptor length {arr.size} does not match {self.cells}x{self.cells}x{self.bins}"
            )
        if (arr < 0).any():
            raise ValueError("descriptor entries must be nonnegative")
        if not self.degenerate and abs(arr.sum() - 1.0) > 1e-9:
            raise ValueError("descriptor must be l1-normalized unless degenerate")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self):
        return int(self.values.size)


# ---------------------------------------------------------------------------
# detection


def grid_keypoints(img: ImageBuffer, stride: int = 16, base_size: Optional[float] = None) -> List[Keypoint]:
    """Deterministic keypoint lattice with margin equal to the base size."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    size = float(stride) if base_size is None else float(base_size)
    if not size > 0:
        raise ValueError(f"base_size must be positive, got {size}")

    def axis_positions(extent):
        pos, out = size, []
        while pos <= extent - size:
            out.append(pos)
            pos += stride
        return out

    us = axis_positions(img.width)
    vs = axis_positions(img.height)
    if not us or not vs:
        raise ValueError(
            f"{img.width}x{img.height} image is smaller than one descriptor support"
        )
    return [Keypoint(u, v, size) for v in vs for u in us]


def dog_keypoints(img: ImageBuffer, levels: int = 4, threshold: float = 0.01) -> List[Keypoint]:
    """Difference-of-Gaussians extrema over a small scale stack.

    Blurs the image at sigma_i = 1.6 * 2**(i/3) for i = 0..levels, forms
    the adjacent differences, and keeps strict 26-neighborhood extrema of
    absolute value above ``threshold`` in the interior difference layers.
    Each keypoint's base_size is the geometric mean of the two blur scales
    bracketing its layer.
    """
    if levels < 3:
        raise ValueError(f"need at least 3 levels, got {levels}")
    if min(img.width, img.height) < 8:
        raise ValueError("image too small for scale-space detection")
    sigmas = [1.6 * 2.0 ** (i / 3.0) for i in range(levels + 1)]
    blurred = [gaussian_blur(img, s).values for s in sigmas]
    stack = np.stack([blurred[i + 1] - blurred[i] for i in range(levels)])

    maxf = ndimage.maximum_filter(stack, size=3, mode="nearest")
    minf = ndimage.minimum_filter(stack, size=3, mode="nearest")
    cand = ((stack == maxf) | (stack == minf)) & (np.abs(stack) > threshold)
    cand[0] = cand[-1] = False
    cand[:, 0, :] = cand[:, -1, :] = False
    cand[:, :, 0] = cand[:, :, -1] = False

    keypoints = []
    for i, v, u in zip(*np.nonzero(cand)):
        val = stack[i, v, u]
        cube = stack[i - 1 : i + 2, v - 1 : v + 2, u - 1 : u + 2]
        others = np.delete(cube.ravel(), 13)
        if (val > others).all() or (val < others).all():
            keypoints.append(Keypoint(float(u), float(v), math.sqrt(sigmas[i] * sigmas[i + 1])))
    keypoints.sort(key=lambda k: (k.v, k.u, k.base_size))
    return keypoints


# ---------------------------------------------------------------------------
# canonization


def principal_orientations(
    field: GradientField,
    kp: Keypoint,
    l_max: int = 2,
    bins: int = 36,
) -> List[float]:
    """Dominant gradient directions around a keypoint.

    Builds an orientation histogram over a Gaussian window of scale
    1.5 * base_size, then returns the global peak together with any local
    peaks reaching 80% of it, each refined by fitting a parabola through
    the peak bin and its neighbors.  Flat support yields an empty list.
    """
    sigma = 1.5 * kp.base_size
    hist = pooled_histogram(
        field,
        (kp.u, kp.v),
        3.0 * sigma,
        SpatialKernel(sigma),
        CircularKernel(2.0 * np.pi / bins),
        bins=bins,
    )
    if hist.total_mass <= 0:
        return []
    h = hist.bins
    top = h.max()
    peaks = []
    for b in range(bins):
        left, right = h[(b - 1) % bins], h[(b + 1) % bins]
        if h[b] > left and h[b] > right and h[b] >= 0.8 * top:
            denom = left - 2.0 * h[b] + right
            offset = 0.0 if denom == 0 else 0.5 * (left - right) / denom
            angle = float(np.mod((b + offset) * 2.0 * np.pi / bins, 2.0 * np.pi))
            peaks.append((float(h[b]), angle))
    peaks.sort(key=lambda p: (-p[0], p[1]))
    return [angle for _, angle in peaks[:l_max]]


# ---------------------------------------------------------------------------
# extraction


def _window_extent(kp: Keypoint, size: float) -> Tuple[float, float, float, float]:
    """Least and greatest u, then v, over the corners of the keypoint's window."""
    half = size / 2.0
    c, s = math.cos(kp.orientation), math.sin(kp.orientation)
    corners = ((-half, -half), (half, -half), (-half, half), (half, half))
    us = [kp.u + c * ex - s * ey for ex, ey in corners]
    vs = [kp.v + s * ex + c * ey for ex, ey in corners]
    return min(us), max(us), min(vs), max(vs)


def window_box(kp: Keypoint, size: float, shape: Tuple[int, int]) -> Tuple[int, int, int, int]:
    """Inclusive pixel bounds (u0, u1, v0, v1) of a keypoint's window.

    The window is the square of side ``size`` centred on the keypoint and
    rotated by its orientation; the bounds are its bounding box on the
    pixel lattice, clipped to an image of ``shape`` (height, width).
    """
    umin, umax, vmin, vmax = _window_extent(kp, size)
    h, w = shape
    return (
        max(0, math.floor(umin)),
        min(w - 1, math.ceil(umax)),
        max(0, math.floor(vmin)),
        min(h - 1, math.ceil(vmax)),
    )


def _check_support(field: GradientField, kp: Keypoint, sides: Sequence[float]) -> None:
    """Raise one SupportError naming every side whose window leaves the image.

    The windows are concentric squares at one rotation, so none leaves
    unless the largest does.
    """
    h, w = field.magnitude.shape

    def leaves(side):
        umin, umax, vmin, vmax = _window_extent(kp, side)
        return umin < 0 or umax > w - 1 or vmin < 0 or vmax > h - 1

    if leaves(max(sides)):
        bad = ", ".join(f"{side:.2f}" for side in sides if leaves(side))
        raise SupportError(
            f"window sides out of bounds at ({kp.u:.1f}, {kp.v:.1f}) "
            f"rotated by {kp.orientation:.3f} in the {w}x{h} image: {bad}"
        )


def accumulate_grid(
    field: GradientField,
    kp: Keypoint,
    sides: Sequence[float],
    weights: Sequence[float],
    cfg: DescriptorConfig,
) -> np.ndarray:
    """Un-normalized C x C x B grid, summed over windows with the given weights.

    ``sides`` and ``weights`` pair up one to one.  Every window is a square
    of one of ``sides`` in the keypoint's rotated frame, cut into the same
    C x C cells.  A valid pixel inside a window
    adds weight * magnitude * (Gaussian weight about its cell's centre) to
    that cell; the grid is linear in these votes, so all cells of all
    windows take one soft vote over the pixels of the largest window.
    This is the one support check of every descriptor: when the largest
    window leaves the image, one SupportError lists each side that does.
    """
    _check_support(field, kp, sides)
    largest = max(sides)
    u0, u1, v0, v1 = window_box(kp, largest, field.magnitude.shape)

    du = np.arange(u0, u1 + 1, dtype=float) - kp.u
    dv = np.arange(v0, v1 + 1, dtype=float)[:, None] - kp.v
    c, s = math.cos(-kp.orientation), math.sin(-kp.orientation)
    ex = c * du - s * dv
    ey = s * du + c * dv

    half = largest / 2.0
    sel = (np.abs(ex) <= half) & (np.abs(ey) <= half) & field.valid[v0 : v1 + 1, u0 : u1 + 1]
    ex, ey = ex[sel], ey[sel]
    mag = field.magnitude[v0 : v1 + 1, u0 : u1 + 1][sel]
    rel = np.mod(field.orientation[v0 : v1 + 1, u0 : u1 + 1][sel] - kp.orientation, 2.0 * np.pi)

    # one row of pixel weights per cell, summed over the windows
    votes = np.zeros((cfg.cells * cfg.cells, rel.size))
    for side, weight in zip(sides, weights, strict=True):
        half = side / 2.0
        cell = side / cfg.cells
        pix = np.flatnonzero((np.abs(ex) <= half) & (np.abs(ey) <= half))
        wx, wy = ex[pix], ey[pix]
        cx = np.clip(np.floor((wx + half) / cell).astype(int), 0, cfg.cells - 1)
        cy = np.clip(np.floor((wy + half) / cell).astype(int), 0, cfg.cells - 1)
        sigma_k = cfg.kappa_fraction * cell
        centers = (np.arange(cfg.cells) + 0.5) * cell - half
        dcx = wx - centers[cx]
        dcy = wy - centers[cy]
        votes[cy * cfg.cells + cx, pix] += (
            weight * mag[pix] * np.exp(-0.5 * (dcx * dcx + dcy * dcy) / (sigma_k * sigma_k))
        )
    return soft_vote(rel, votes, cfg.kernel(), cfg.bins).ravel()


def normalize_grid(raw: np.ndarray, kp: Keypoint, cfg: DescriptorConfig) -> Descriptor:
    """l1-normalize a raw grid; a zero grid gives the uniform, degenerate descriptor."""
    total = raw.sum()
    if total > 0:
        return Descriptor(raw / total, cfg.cells, cfg.bins, kp)
    uniform = np.full(cfg.length, 1.0 / cfg.length)
    return Descriptor(uniform, cfg.cells, cfg.bins, kp, degenerate=True)


def single_size_descriptor(
    field: GradientField,
    kp: Keypoint,
    size: float,
    cfg: DescriptorConfig = DescriptorConfig(),
) -> Descriptor:
    """Descriptor over one window of side ``size``, l1-normalized globally."""
    if not size > 0:
        raise ValueError(f"size must be positive, got {size}")
    return normalize_grid(accumulate_grid(field, kp, (size,), (1.0,), cfg), kp, cfg)


def dsp_descriptor(
    field: GradientField,
    kp: Keypoint,
    prior: SizePrior = SizePrior.default(),
    cfg: DescriptorConfig = DescriptorConfig(),
) -> Descriptor:
    """Average the un-normalized grids over the size prior, normalize once.

    Each sample's window side is multiplier * base_size * support_factor;
    all samples share the C x C cell grid, so the average is bin-wise
    meaningful.  ``accumulate_grid`` checks the support and lists every
    side whose window does not fit.  Under ``SizePrior.delta()`` this is
    bit-identical to ``single_size_descriptor`` at side base_size *
    support_factor.
    """
    sides = [m * kp.base_size * cfg.support_factor for m in prior.multipliers]
    return normalize_grid(accumulate_grid(field, kp, sides, prior.weights, cfg), kp, cfg)


# ---------------------------------------------------------------------------
# comparison and row I/O


def descriptor_distance(a: Descriptor, b: Descriptor, metric: str = "euclidean") -> float:
    """Distance between two descriptors: 'euclidean' or 'bhattacharyya'."""
    if len(a) != len(b):
        raise ValueError(f"descriptor lengths differ: {len(a)} vs {len(b)}")
    if metric == "euclidean":
        diff = a.values - b.values
        return float(np.sqrt(np.dot(diff, diff)))
    if metric == "bhattacharyya":
        affinity = float(np.sqrt(a.values * b.values).sum())
        return float(-np.log(max(affinity, 1e-12)))
    raise ValueError(f"unknown metric {metric!r}")


def write_rows(
    out: TextIO,
    header: Mapping[str, object],
    rows: Iterable[Tuple[Keypoint, bool, Sequence[float]]],
) -> None:
    """Write a ``key=value,...`` header line, then one CSV line per row.

    Each row is (keypoint, degenerate flag, values) and is written as u,
    v, base_size, orientation, the flag as 0/1, then the values, every
    float in its exact ``repr``.  Header values may not contain a comma
    or a line break, since either would split the header on reading.
    """
    for key, value in header.items():
        if any(c in str(value) for c in ",\r\n"):
            raise ValueError(f"header value {key}={value!r} contains a comma or a line break")
    out.write(",".join(f"{key}={value}" for key, value in header.items()) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    for kp, degenerate, values in rows:
        line = [repr(float(x)) for x in (kp.u, kp.v, kp.base_size, kp.orientation)]
        line.append(str(int(degenerate)))
        line.extend(repr(float(x)) for x in values)
        writer.writerow(line)


def read_rows(stream: TextIO) -> Tuple[Dict[str, str], List[Tuple[Keypoint, bool, np.ndarray]]]:
    """Parse the format written by write_rows into header fields and rows."""
    header = stream.readline().strip()
    fields = dict(part.split("=", 1) for part in header.split(",") if "=" in part)
    rows = []
    for line in csv.reader(stream):
        if not line:
            continue
        if len(line) < 6:
            raise ValueError(f"row of {len(line)} fields, expected at least 6")
        kp = Keypoint(float(line[0]), float(line[1]), float(line[2]), float(line[3]))
        rows.append((kp, bool(int(line[4])), np.array([float(x) for x in line[5:]])))
    return fields, rows
