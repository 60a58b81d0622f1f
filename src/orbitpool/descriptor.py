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
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, TextIO, Tuple, Union

import numpy as np
from scipy import ndimage

from .image import GradientField, ImageBuffer, SupportError, gaussian_blur
from .orientation import (
    CircularKernel,
    SpatialKernel,
    pooled_histogram,
    soft_vote,
    vote_kernel,
    wrap_angle,
)

__all__ = [
    "Keypoint",
    "SizePrior",
    "Descriptor",
    "DescriptorConfig",
    "grid_keypoints",
    "dog_keypoints",
    "principal_orientations",
    "window_box",
    "window_inside",
    "accumulate_grid",
    "accumulate_grids",
    "normalize_grid",
    "normalize_grids",
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
        if not all(math.isfinite(x) for x in (self.u, self.v, self.base_size, self.orientation)):
            raise ValueError(f"keypoint fields must be finite, got {self}")
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
            if not math.isfinite(mult):
                raise ValueError(f"size multiplier must be finite, got {mult}")
            if not math.isfinite(weight):
                raise ValueError(f"weights must be finite, got {weight}")
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
        if not math.isfinite(total):
            raise ValueError("prior weights must have a finite sum")
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

    def sides(self, base_sizes: Sequence[float], support_factor: float) -> List[List[float]]:
        """Window sides multiplier * base_size * support_factor.

        One row per base size, one column per sample.
        """
        multipliers = self.multipliers
        return [[m * base * support_factor for m in multipliers] for base in base_sizes]


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
        if not np.isfinite(arr).all():
            raise ValueError("descriptor entries must be finite")
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


def grid_keypoints(img: ImageBuffer, stride: int, base_size: float) -> List[Keypoint]:
    """Deterministic keypoint lattice with margin equal to the base size."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    size = float(base_size)
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


def dog_keypoints(img: ImageBuffer) -> List[Keypoint]:
    """Difference-of-Gaussians extrema over a small scale stack.

    Blurs the image at sigma_i = 1.6 * 2**(i/3) for i = 0..4, forms the
    four adjacent differences, and keeps strict 26-neighborhood extrema of
    absolute value above 0.01 in the two interior difference layers.
    Each keypoint's base_size is the geometric mean of the two blur scales
    bracketing its layer.
    """
    if min(img.width, img.height) < 8:
        raise ValueError("image too small for scale-space detection")
    sigmas = [1.6 * 2.0 ** (i / 3.0) for i in range(5)]
    blurred = np.stack([gaussian_blur(img, s).values for s in sigmas])
    stack = blurred[1:] - blurred[:-1]

    maxf = ndimage.maximum_filter(stack, size=3, mode="nearest")
    minf = ndimage.minimum_filter(stack, size=3, mode="nearest")
    cand = ((stack == maxf) | (stack == minf)) & (np.abs(stack) > 0.01)
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


def principal_orientations(field: GradientField, kp: Keypoint) -> List[float]:
    """Dominant gradient directions around a keypoint, at most two.

    Builds a 36-bin orientation histogram over a Gaussian window of scale
    1.5 * base_size, then returns the global peak and the strongest other
    local peak reaching 80% of it, each refined by fitting a parabola
    through the peak bin and its neighbors.  Flat support yields an empty
    list.
    """
    bins = 36
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
    return [angle for _, angle in peaks[:2]]


# ---------------------------------------------------------------------------
# extraction


def _window_extent(kp: Keypoint, size: float) -> Tuple[float, float, float, float]:
    """Least and greatest u, then v, over the corners of the keypoint's window.

    The corners of the square of side ``size`` sit at (u + c*ex - s*ey,
    v + s*ex + c*ey) for ex, ey = +-size/2, with c and s the cosine and
    sine of the orientation.  The terms differ between corners only in
    sign and rounding is monotone, so each bound is the corner sum with
    both terms signed alike, to the bit.
    """
    half = size / 2.0
    cu = abs(math.cos(kp.orientation)) * half
    su = abs(math.sin(kp.orientation)) * half
    return kp.u - cu - su, kp.u + cu + su, kp.v - su - cu, kp.v + su + cu


def _inside(extent: Tuple[float, float, float, float], shape: Tuple[int, int]) -> bool:
    """Whether an extent from ``_window_extent`` lies inside an image of ``shape``.

    A non-finite extent (an overflowing side) counts as leaving the image.
    """
    umin, umax, vmin, vmax = extent
    h, w = shape
    return umin >= 0 and umax <= w - 1 and vmin >= 0 and vmax <= h - 1


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


def window_inside(kp: Keypoint, size: float, shape: Tuple[int, int]) -> bool:
    """Whether the keypoint's window of side ``size`` lies inside an image of ``shape``.

    The window is the same rotated square as in ``window_box``; a
    non-finite extent (an overflowing side) counts as leaving the image.
    """
    return _inside(_window_extent(kp, size), shape)


# keypoints whose windows are gathered and voted together, with the kernel
# evaluated once per distinct relative orientation in the chunk
GRID_CHUNK = 8


def accumulate_grids(
    field: GradientField,
    kps: Sequence[Keypoint],
    sides: Sequence[Sequence[float]],
    weights: Union[Sequence[float], Sequence[Sequence[float]]],
    cfg: DescriptorConfig,
) -> Tuple[List[int], np.ndarray]:
    """Un-normalized C x C x B grids of many keypoints, each summed over its windows.

    ``sides`` holds one row of window sides per keypoint, and ``weights``
    one weight per column, shared by every keypoint, or one row of
    weights per keypoint.  Every window is a square of its side in the
    keypoint's rotated frame, cut into the same C x C cells.  A valid
    pixel inside a window adds weight * magnitude * (Gaussian weight about
    its cell's centre) to that cell; the grid is linear in these votes, so
    all cells of all windows take one soft vote over the pixels of the
    largest window.  A field of ``(V, h, w)`` layers holds one layer per
    keypoint, and keypoint k reads layer k alone.

    Returns the indices of the keypoints whose largest window lies inside
    the image, and their flat grids, one row each; the others are dropped.
    Keypoints are taken ``GRID_CHUNK`` at a time.  Within a chunk the
    orientation kernel is evaluated once per distinct relative orientation
    in the chunk, however many pixels, windows and keypoints share it, and
    each grid is the same sum, in the same order, as for its keypoint alone.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim not in (1, 2) or not weights.shape[-1]:
        raise ValueError("need at least one window side")
    sides = np.asarray(sides, dtype=float).reshape(-1, weights.shape[-1])
    if len(sides) != len(kps):
        raise ValueError(f"{len(sides)} rows of sides for {len(kps)} keypoints")
    if weights.ndim == 2 and len(weights) != len(kps):
        raise ValueError(f"{len(weights)} rows of weights for {len(kps)} keypoints")
    *layers, h, w = field.magnitude.shape
    if layers and layers != [len(kps)]:
        raise ValueError(f"{layers[0]} field layers for {len(kps)} keypoints")
    kept, geometry, boxes = [], [], []
    for i, (kp, largest) in enumerate(zip(kps, sides.max(axis=1).tolist())):
        extent = _window_extent(kp, largest)
        if _inside(extent, (h, w)):
            # the window lies inside the image, so its box needs no clipping
            umin, umax, vmin, vmax = extent
            kept.append(i)
            geometry.append((kp.u, kp.v, kp.orientation, largest))
            boxes.append((math.floor(umin), math.ceil(umax), math.floor(vmin), math.ceil(vmax)))
    u, v, theta, largest = np.array(geometry).reshape(-1, 4).T
    u0, u1, v0, v1 = np.array(boxes, dtype=np.intp).reshape(-1, 4).T
    # each keypoint's first pixel in the flat field
    origin = np.array(kept, dtype=np.intp) * (h * w) if layers else np.zeros(len(kept), dtype=np.intp)
    sides = sides[kept]
    if weights.ndim == 2:
        weights = weights[kept]
    grids = np.empty((len(kept), cfg.length))
    for start in range(0, len(kept), GRID_CHUNK):
        chunk = slice(start, start + GRID_CHUNK)
        box = u0[chunk], u1[chunk], v0[chunk], v1[chunk]
        pixels = _window_pixels(field, u[chunk], v[chunk], theta[chunk], largest[chunk], box, origin[chunk])
        chunk_weights = weights[chunk] if weights.ndim == 2 else weights
        grids[chunk] = _vote_grids(field, pixels, theta[chunk], sides[chunk], chunk_weights, cfg)
    return kept, grids


def _window_pixels(field, u, v, theta, largest, box, origin):
    """The valid pixels of each keypoint's largest window, in row-major order.

    Works over each keypoint's window box, padded at its right and bottom
    to the largest box of the chunk.  A padding pixel lies a pixel or more
    outside its keypoint's window, far beyond round-off, so the window
    test drops it.  ``origin`` is the flat index of each keypoint's first
    pixel, that of its layer.  Returns the flat field index of every
    selected pixel, keypoint after keypoint, its offsets ex and ey in the
    keypoint's rotated frame, and the number of pixels per keypoint.
    """
    h, w = field.magnitude.shape[-2:]
    u0, u1, v0, v1 = box
    cols = u0[:, None] + np.arange((u1 - u0).max() + 1)
    rows = v0[:, None] + np.arange((v1 - v0).max() + 1)
    pix = (origin[:, None] + np.minimum(rows, h - 1) * w)[:, :, None] + np.minimum(cols, w - 1)[:, None, :]
    du = (cols - u[:, None])[:, None, :]
    dv = (rows - v[:, None])[:, :, None]
    c, s = np.array([(math.cos(-t), math.sin(-t)) for t in theta]).T[:, :, None, None]
    ex = c * du - s * dv
    ey = s * du + c * dv
    sel = np.maximum(np.abs(ex), np.abs(ey)) <= (largest / 2.0)[:, None, None]
    sel &= field.valid.reshape(-1)[pix]
    return pix[sel], ex[sel], ey[sel], sel.sum(axis=(1, 2))


def _vote_grids(field, pixels, theta, sides, weights, cfg):
    """Raw grids of one chunk of keypoints from their selected pixels.

    ``weights`` is one row of side weights for the chunk, or one row per
    keypoint.
    """
    pix, ex, ey, counts = pixels
    C = cfg.cells
    n = pix.size
    # a value per keypoint, spread over its pixels (one keypoint's
    # broadcasts as it is)
    def per_pixel(x):
        return x if counts.size == 1 else np.repeat(x, counts)

    orientation = field.orientation.reshape(-1)
    mag = field.magnitude.reshape(-1)[pix]
    reach = np.maximum(np.abs(ex), np.abs(ey))

    # one row of pixel weights per cell, summed over the windows from 0.0
    # on, one side at a time; the votes of a pixel outside a side go to a
    # last, discarded row
    votes = np.zeros((C * C + 1) * n)
    index = np.arange(n)
    cells = sides / C
    halves = sides / 2.0
    sigma_k = cfg.kappa_fraction * cells
    variances = sigma_k * sigma_k
    for j in range(sides.shape[1]):
        half, cell, var = per_pixel(halves[:, j]), per_pixel(cells[:, j]), per_pixel(variances[:, j])
        # a weight shared by the chunk multiplies as a scalar
        weight = per_pixel(weights[:, j]) if weights.ndim == 2 else weights[j]
        cx = np.minimum(np.floor((ex + half) / cell), C - 1)
        cy = np.minimum(np.floor((ey + half) / cell), C - 1)
        dcx = ex - ((cx + 0.5) * cell - half)
        dcy = ey - ((cy + 0.5) * cell - half)
        row = np.where(reach <= half, cy * C + cx, C * C)
        vote = weight * mag * np.exp(-0.5 * (dcx * dcx + dcy * dcy) / var)
        votes[(row * n + index).astype(np.intp)] += vote
    votes = votes.reshape(C * C + 1, n)[: C * C]

    # the kernel depends on a pixel's orientation relative to its keypoint
    # alone: evaluate it once per distinct value in the chunk, and give
    # each keypoint the product over its own columns, in its own pixel
    # order, so that it sums exactly as for that keypoint alone
    kernel = cfg.kernel()
    rel = wrap_angle(orientation[pix] - per_pixel(theta))
    if counts.size == 1:
        # the same product, on soft_vote for a test, not for speed: the
        # benchmark's tracer test wants a call per one-keypoint descriptor
        return soft_vote(rel, votes, kernel, cfg.bins).reshape(1, -1)
    distinct, column = np.unique(rel, return_inverse=True)
    # take keeps it C-ordered; a fancy-indexed [:, column] is F-ordered,
    # and its products round differently
    columns = vote_kernel(distinct, kernel, cfg.bins).take(column, axis=1)
    bounds = [0, *np.cumsum(counts).tolist()]
    return np.stack([(columns[:, a:b] @ votes[:, a:b].T).T.ravel() for a, b in zip(bounds, bounds[1:])])


def accumulate_grid(
    field: GradientField,
    kp: Keypoint,
    sides: Sequence[float],
    weights: Sequence[float],
    cfg: DescriptorConfig,
) -> np.ndarray:
    """The grid of ``accumulate_grids`` for one keypoint.

    This is the one support check of every descriptor: when the largest
    window leaves the image, one SupportError lists each side that does.
    """
    kept, grids = accumulate_grids(field, [kp], [sides], weights, cfg)
    if not kept:
        raise _support_error(kp, sides, field.magnitude.shape)
    return grids[0]


def _support_error(kp: Keypoint, sides: Sequence[float], shape: Tuple[int, int]) -> SupportError:
    """The error for a keypoint that ``accumulate_grids`` drops from an image of ``shape``."""
    bad = ", ".join(f"{side:.2f}" for side in sides if not window_inside(kp, side, shape))
    h, w = shape
    return SupportError(
        f"window sides out of bounds at ({kp.u:.1f}, {kp.v:.1f}) "
        f"rotated by {kp.orientation:.3f} in the {w}x{h} image: {bad}"
    )


def normalize_grids(raw: np.ndarray, cfg: DescriptorConfig) -> Tuple[np.ndarray, np.ndarray]:
    """l1-normalize raw grids row by row; a zero row gives the uniform row, flagged degenerate.

    Returns the normalized rows and the per-row degenerate flags.
    """
    total = raw.sum(axis=1, keepdims=True)
    degenerate = ~(total[:, 0] > 0)
    rows = raw / np.where(degenerate[:, None], 1.0, total)
    rows[degenerate] = 1.0 / cfg.length
    return rows, degenerate


def normalize_grid(raw: np.ndarray, kp: Keypoint, cfg: DescriptorConfig) -> Descriptor:
    """l1-normalize a raw grid; a zero grid gives the uniform, degenerate descriptor."""
    rows, degenerate = normalize_grids(raw[None, :], cfg)
    return Descriptor(rows[0], cfg.cells, cfg.bins, kp, degenerate=bool(degenerate[0]))


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
    (sides,) = prior.sides([kp.base_size], cfg.support_factor)
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
    """Parse the format written by write_rows into header fields and rows.

    Malformed input raises ``ValueError``.
    """
    header = stream.readline().strip()
    fields = dict(part.split("=", 1) for part in header.split(",") if "=" in part)
    rows = []
    try:
        for line in csv.reader(stream):
            if not line:
                continue
            if len(line) < 6:
                raise ValueError(f"row of {len(line)} fields, expected at least 6")
            kp = Keypoint(float(line[0]), float(line[1]), float(line[2]), float(line[3]))
            if line[4] not in ("0", "1"):
                raise ValueError(f"degenerate flag must be 0 or 1, got {line[4]!r}")
            rows.append((kp, line[4] == "1", np.array([float(x) for x in line[5:]])))
    except csv.Error as exc:
        raise ValueError(f"malformed row: {exc}") from exc
    return fields, rows
