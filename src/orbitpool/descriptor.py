"""Grid descriptors and domain-size pooling.

A descriptor here is a C x C grid of l1-normalized orientation histograms
computed over a square window around a keypoint.  The window is expressed
in a frame rotated by the keypoint's ``orientation`` field, which the
caller sets; the detectors here leave it at 0, a fixed frame, and rotation
is left to orbit search.  Size, too, is marginalized rather than
canonized: the size-pooled variant averages the un-normalized cell
histograms over a prior on window sizes and normalizes once at the end,
which keeps the affine-contrast cancellation intact while spreading the
descriptor's support over the sizes an unknown occlusion could leave
co-visible.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import ClassVar, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, TextIO, Tuple, Union

import numpy as np
from scipy import ndimage

from .image import GradientField, ImageBuffer, SupportError, gaussian_blur
from .orientation import CircularKernel, soft_vote, vote_kernel, wrap_angle

__all__ = [
    "Keypoint",
    "SizePrior",
    "Descriptor",
    "DescriptorConfig",
    "grid_keypoints",
    "dog_keypoints",
    "window_box",
    "window_inside",
    "accumulate_grid",
    "accumulate_pools",
    "normalize_grid",
    "normalize_grids",
    "quarter_turn",
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
    """Grid geometry for descriptor extraction: C x C cells of B orientation bins.

    The kernel's ``bandwidth`` is one bin width.  The constant
    ``kappa_fraction`` sets the per-cell Gaussian weight scale as a
    fraction of the cell side; ``support_factor`` converts a keypoint's
    base_size into a window side.
    """

    cells: int = 4
    bins: int = 8
    kappa_fraction: ClassVar[float] = 0.5
    support_factor: ClassVar[float] = 3.0

    def __post_init__(self):
        if self.cells < 1:
            raise ValueError("cells must be >= 1")
        if self.bins < 4:
            raise ValueError("bins must be >= 4")

    @property
    def length(self) -> int:
        return self.cells * self.cells * self.bins

    @property
    def bandwidth(self) -> float:
        return 2.0 * np.pi / self.bins

    def kernel(self) -> CircularKernel:
        return CircularKernel(self.bandwidth)


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
# extraction


def _window_extent(kp: Keypoint, size: float) -> Tuple[float, float, float, float]:
    """Least and greatest u, then v, over the corners of the keypoint's window.

    The corners of the square of side ``size`` sit at (u + c*ex - s*ey,
    v + s*ex + c*ey) for ex, ey = +-size/2, with c and s the cosine and
    sine of the orientation.  The terms differ between corners only in
    sign and rounding is monotone, so each bound is the corner sum with
    both terms signed alike, to the bit.
    """
    return _extent(kp.u, kp.v, abs(math.cos(kp.orientation)), abs(math.sin(kp.orientation)), size)


def _extent(u, v, c, s, size):
    """``_window_extent`` from the absolute cosine ``c`` and sine ``s``; numbers or arrays."""
    half = size / 2.0
    cu, su = c * half, s * half
    return u - cu - su, u + cu + su, v - su - cu, v + su + cu


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


# upright keypoints whose boxes are read and voted together
GRID_CHUNK = 8

def frozen(plan):
    """``plan`` with every array in it, through tuples, lists and named tuples, made read-only."""
    if isinstance(plan, np.ndarray):
        plan.setflags(write=False)
    elif isinstance(plan, (tuple, list)):
        for part in plan:
            frozen(part)
    return plan


def accumulate_pools(
    field: GradientField,
    kps: Sequence[Keypoint],
    pools: Sequence[Tuple[Sequence[Sequence[float]], Union[Sequence[float], Sequence[Sequence[float]]]]],
    cfg: DescriptorConfig,
) -> List[Tuple[List[int], np.ndarray]]:
    """Un-normalized C x C x B grids of many keypoints, for each pool, in one pass.

    A pool holds a row of window sides per keypoint, and a weight per
    column or a row of them per keypoint.  A valid pixel inside a window,
    a square of its side in the keypoint's rotated frame cut into C x C
    cells, adds weight * magnitude * (Gaussian weight about its cell's
    centre) to that cell, soft-voted over the orientation bins.  A
    ``(V, h, w)`` field holds one layer per keypoint.  Returns, per pool,
    the indices of the keypoints whose largest window of that pool lies
    inside the image, and their flat grids.

    Upright keypoints (orientation 0.0) are taken ``GRID_CHUNK`` at a
    time.  In an upright window a pixel's cell and Gaussian cell weight
    are a column term times a row term, and ``_upright_grids`` sums them
    so, over a box set by each pool's largest side; its sums associate
    differently from the per-pixel ones, by round-off.  On an unlayered
    field the orientation kernel is then worked out once per pixel for
    all chunks.  Each grid is the same sum, in the same order, as for its
    keypoint and pool alone.  A rotated keypoint, which only a caller
    builds, is described by ``_rotated_grid`` once per pool that keeps
    it, with the plain per-pixel arithmetic.

    The work that reads no pixel is ``_pool_plan``'s: the support
    checks, reaches and corners, the chunk lattices, the upright cell
    weights, the pixels of the kernel table and the list of rotated
    keypoints with their pools.  It depends only on
    the field's shape, the keypoints' positions and orientations, the
    sides, the weights and ``cfg``.  Here each chunk is planned just
    before ``pool_pass`` reads its pixels and nothing is kept, so a call
    holds one chunk's weights at a time; ``plan_pools`` lists a whole
    plan for a caller that reuses it over many fields of one shape.
    """
    return pool_pass(field, _pool_plan(field.magnitude.shape, kps, pools, cfg), cfg)


class PoolPlan(NamedTuple):
    """What ``accumulate_pools`` works out without reading a pixel.

    ``keeps`` holds each pool's mask over the ``gathered`` keypoints and
    ``used`` the pixels of the kernel table or None; upright chunks index
    their box pixels into ``used`` if set, else into the flat field, and
    ``upright`` yields the chunks' plans.  ``rotated`` lists each rotated
    keypoint as (its index in ``gathered``, the keypoint, and (pool,
    sides, weights) for each pool that keeps it).
    """

    gathered: np.ndarray
    keeps: List[np.ndarray]
    rotated: List[Tuple[int, Keypoint, List[Tuple[int, np.ndarray, np.ndarray]]]]
    used: Optional[np.ndarray]
    upright: Iterable


def plan_pools(shape, kps, pools, cfg: DescriptorConfig) -> PoolPlan:
    """The plan of ``accumulate_pools`` over a field of ``shape``, its chunks listed and every array read-only."""
    plan = _pool_plan(shape, kps, pools, cfg)
    return frozen(plan._replace(upright=list(plan.upright)))


def _pool_plan(shape, kps, pools, cfg):
    """The ``PoolPlan`` of ``accumulate_pools`` over a field of ``shape``, its chunks planned as they are taken."""
    checked = []
    for sides, weights in pools:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim not in (1, 2) or not weights.shape[-1]:
            raise ValueError("need at least one window side")
        sides = np.asarray(sides, dtype=float).reshape(-1, weights.shape[-1])
        if len(sides) != len(kps):
            raise ValueError(f"{len(sides)} rows of sides for {len(kps)} keypoints")
        if weights.ndim == 2 and len(weights) != len(kps):
            raise ValueError(f"{len(weights)} rows of weights for {len(kps)} keypoints")
        checked.append((sides, weights))
    *layers, h, w = shape
    if layers and layers != [len(kps)]:
        raise ValueError(f"{layers[0]} field layers for {len(kps)} keypoints")
    largest = np.array([sides.max(axis=1) for sides, _ in checked]).reshape(len(pools), len(kps))
    # _window_extent and _inside of each pool's largest window, to the bit
    u, v, theta, c, s = np.array(
        [(kp.u, kp.v, kp.orientation, abs(math.cos(kp.orientation)), abs(math.sin(kp.orientation))) for kp in kps]
    ).reshape(-1, 5).T
    with np.errstate(invalid="ignore"):  # an overflowing side times a zero sine
        umin, umax, vmin, vmax = _extent(u, v, c, s, largest)
    keeps = (umin >= 0) & (umax <= w - 1) & (vmin >= 0) & (vmax <= h - 1)
    # the keypoints that some pool keeps
    gathered = np.flatnonzero(keeps.any(axis=0))
    u, v, theta = (x[gathered] for x in (u, v, theta))
    # each keypoint's first pixel in the flat field
    origin = gathered * (h * w) if layers else np.zeros(len(gathered), dtype=np.intp)
    plans = [
        (keep[gathered], top[gathered], sides[gathered], np.broadcast_to(weights, sides.shape)[gathered])
        for (sides, weights), keep, top in zip(checked, keeps, largest)
    ]
    upright = theta == 0.0
    rotated = [
        (k, kps[i], [(p, sides[k], weights[k]) for p, (keep, _, sides, weights) in enumerate(plans) if keep[k]])
        for k, i in enumerate(gathered.tolist())
        if not upright[k]
    ]

    # a pool reads an upright keypoint over the box of 2r + 2 pixels a side
    # from r left of and above the keypoint's pixel, r half the pool's
    # largest side rounded up (-1 where the pool drops the keypoint), so
    # every product has a shape that the keypoint and pool alone set
    reach = np.array([np.where(keep, np.ceil(top / 2.0), -1) for keep, top, _, _ in plans], dtype=np.intp)
    reach = reach.reshape(len(pools), len(gathered)).T
    corner = np.floor(np.array([u, v])).astype(np.intp) - reach.max(axis=1, initial=0)
    used = index = None
    if not layers and upright.sum() > 1:
        # an upright window's relative orientation is its pixel's own: one
        # kernel column per pixel that some upright box holds, for all chunks
        held = np.zeros((h, w), dtype=bool)
        for u0, v0, r in zip(*corner[:, upright].tolist(), reach[upright].max(axis=1).tolist()):
            held[max(v0, 0) : v0 + 2 * r + 2, max(u0, 0) : u0 + 2 * r + 2] = True
        used = np.flatnonzero(held)
        index = np.zeros(h * w, dtype=np.intp)
        index[used] = np.arange(used.size)
    # keypoints of the same boxes are taken GRID_CHUNK at a time, each pool's
    # box centred in one of 2R + 2 pixels a side, R their largest r.  Their
    # rows of r are told apart by a 1-D key, the dense rank of the rows in
    # lexicographic order, built one pool at a time so that it stays below
    # the keypoint count
    upright_at = np.flatnonzero(upright)
    key = np.zeros(upright_at.size, dtype=np.intp)
    for column in reach[upright_at].T:
        key = np.unique(key * (column.max(initial=0) + 2) + column + 1, return_inverse=True)[1]

    def upright_chunks():
        for g in range(key.max(initial=-1) + 1):
            group = upright_at[key == g]
            signature = reach[group[0]].tolist()
            size = 2 * max(signature) + 2
            holding = [p for p, r in enumerate(signature) if r >= 0]
            for chunk in (group[start : start + GRID_CHUNK] for start in range(0, len(group), GRID_CHUNK)):
                u0, v0 = corner[:, chunk]
                cols, rows, pix = _box_lattice((h, w), u0, v0, size, origin[chunk])
                taken = [(signature[p], plans[p][2][chunk], plans[p][3][chunk]) for p in holding]
                operands = _upright_weights(cols, rows, u[chunk], v[chunk], taken, cfg)
                yield chunk, holding, pix if index is None else index[pix], operands

    return PoolPlan(gathered, [keep for keep, *_ in plans], rotated, used, upright_chunks())


def pool_pass(field: GradientField, plan: PoolPlan, cfg: DescriptorConfig) -> List[Tuple[List[int], np.ndarray]]:
    """The pixel half of ``accumulate_pools``: its result from a field and that field's plan."""
    grids = [np.empty((len(plan.gathered), cfg.length)) for _ in plan.keeps]
    for k, kp, pools in plan.rotated:
        layer = plan.gathered[k] if field.magnitude.ndim == 3 else 0
        for p, sides, weights in pools:
            grids[p][k] = _rotated_grid(field, layer, kp, sides, weights, cfg)
    table = None
    if plan.used is not None:
        kernel = vote_kernel(field.orientation.reshape(-1)[plan.used], cfg.kernel(), cfg.bins)
        valid, magnitude = (x.reshape(-1)[plan.used] for x in (field.valid, field.magnitude))
        table = np.where(valid, magnitude, 0.0), kernel
    for chunk, holding, pix, operands in plan.upright:
        for p, rows in zip(holding, _upright_grids(field, pix, operands, cfg, table)):
            grids[p][chunk] = rows
    return [(plan.gathered[keep].tolist(), grid[keep]) for keep, grid in zip(plan.keeps, grids)]


def _box_lattice(shape, u0, v0, size, origin):
    """The columns, rows and flat field indices of a chunk's boxes of ``size`` pixels a side from (u0, v0).

    Indices are clipped into the image: the caller weighs a pixel outside
    its keypoint's window by zero.  ``origin`` is the flat index of each
    keypoint's first pixel, that of its layer.
    """
    h, w = shape
    cols = u0[:, None] + np.arange(size)
    rows = v0[:, None] + np.arange(size)
    pix = (origin[:, None] + np.minimum(np.maximum(rows, 0), h - 1) * w)[:, :, None]
    pix = pix + np.minimum(np.maximum(cols, 0), w - 1)[:, None, :]
    return cols, rows, pix


def _cell_weights(offsets, sides, cells, kappa_fraction):
    """One-hot Gaussian cell weights along one axis of upright windows.

    ``offsets`` ``(k, n)`` are pixel offsets from each keypoint along one
    axis, ``sides`` ``(k, S)`` window sides.  Entry (k, s, c, i) is the
    Gaussian weight of offset i about the centre of its cell under side
    s when that cell is c and the offset lies inside the window, else 0.
    """
    half = (sides / 2.0)[:, :, None]
    cell = (sides / cells)[:, :, None]
    sigma_k = kappa_fraction * cell
    e = offsets[:, None, :]
    c = np.minimum(np.floor((e + half) / cell), cells - 1)
    d = e - ((c + 0.5) * cell - half)
    gauss = np.where(np.abs(e) <= half, np.exp(-0.5 * d * d / (sigma_k * sigma_k)), 0.0)
    return np.where(c[:, :, None, :] == np.arange(cells)[:, None], gauss[:, :, None, :], 0.0)


def _upright_weights(cols, rows, u, v, pools, cfg):
    """The pixel-free operands of ``_upright_grids`` for one chunk of upright keypoints.

    A pool is (r, its sides, its weights), the last two a row per
    keypoint, and it reads the box of 2r + 2 pixels a side centred in the
    chunk's boxes of ``cols`` and ``rows``.  Returns, per pool, its box
    as a slice, its column weights as ``soft_vote``'s weights, its row
    weights and its weights.
    """
    (k, size), C = cols.shape, cfg.cells
    R = size // 2 - 1
    # column weights, then row weights, of every pool's sides over the whole box
    offsets = np.concatenate((cols - u[:, None], rows - v[:, None]), axis=1)
    axes = _cell_weights(offsets, np.concatenate([sides for _, sides, _ in pools], axis=1), C, cfg.kappa_fraction)
    out, first = [], 0
    for r, sides, weights in pools:
        S, box, n = sides.shape[1], slice(R - r, R + r + 2), 2 * r + 2
        own, first = axes[:, first : first + S], first + S
        across, down = own[..., box], own[..., size + box.start : size + box.stop]
        out.append((box, across.reshape(k, 1, S * C, n), down, weights))
    return out


def _upright_grids(field, pix, pools, cfg, table):
    """Raw grids of one chunk of upright keypoints, for each pool, from separable weights.

    ``pix`` holds the flat field index of each box pixel and ``pools``
    comes from ``_upright_weights``.  Each box row votes its pixels'
    magnitudes times their column weights into (side, cell column, bin)
    through ``soft_vote``'s product, the row weights sum the rows into
    each side's grid, and the pool's weights sum its sides, in side
    order.  ``table``, if not None, is the valid magnitude and the
    kernel column of each of a set of pixels, ``pix`` indexing into
    them; they give the same products as ``soft_vote``.
    """
    k = len(pix)
    if table is None:
        mag = np.where(field.valid.reshape(-1)[pix], field.magnitude.reshape(-1)[pix], 0.0)
        orientation = field.orientation.reshape(-1)[pix]
    else:
        mag = table[0][pix]
        kernel = np.moveaxis(table[1].take(pix, axis=1), 0, 2)
    out = []
    for box, across, down, weights in pools:
        votes = np.ascontiguousarray(mag[:, box, box])[:, :, None, :] * across
        if table is None:
            per_row = soft_vote(orientation[:, box, box], votes, cfg.kernel(), cfg.bins)
        else:
            # the same product as soft_vote's, from the table's columns
            per_row = np.swapaxes(kernel[:, box, :, box] @ np.swapaxes(votes, -1, -2), -1, -2)
        S = down.shape[1]
        per_row = per_row.reshape(k, box.stop - box.start, S, cfg.cells * cfg.bins).transpose(0, 2, 1, 3)
        grids = (down @ per_row).reshape(k, S, cfg.length)
        out.append(sum(weights[:, j, None] * grids[:, j] for j in range(S)))
    return out


def _rotated_grid(field, layer, kp, sides, weights, cfg):
    """The raw grid of one rotated keypoint and one pool, pixel by pixel.

    Reads layer ``layer`` of the field over the box of the pool's largest
    window, in row-major order.  Each valid pixel inside a side's window
    adds weight * magnitude * Gaussian cell weight to its cell, summed
    from 0.0 in side order, and one kernel product votes the cells over
    the orientation bins relative to the keypoint's.
    """
    largest = max(sides)
    h, w = field.magnitude.shape[-2:]
    u0, u1, v0, v1 = window_box(kp, largest, (h, w))
    magnitude, orientation, valid = (
        x.reshape(-1, h, w)[layer, v0 : v1 + 1, u0 : u1 + 1] for x in (field.magnitude, field.orientation, field.valid)
    )
    cos, sin = math.cos(-kp.orientation), math.sin(-kp.orientation)
    du = np.arange(u0, u1 + 1, dtype=float) - kp.u
    dv = np.arange(v0, v1 + 1, dtype=float)[:, None] - kp.v
    ex, ey = cos * du - sin * dv, sin * du + cos * dv
    reach = np.maximum(np.abs(ex), np.abs(ey))
    sel = (reach <= largest / 2.0) & valid
    e, reach, mag = np.stack((ex[sel], ey[sel])), reach[sel], magnitude[sel]
    C = cfg.cells
    votes = np.zeros((C * C, mag.size))
    for side, weight in zip(sides, weights):
        half, cell = side / 2.0, side / C
        pix = np.flatnonzero(reach <= half)
        c = np.minimum(np.floor((e[:, pix] + half) / cell), C - 1)
        d = e[:, pix] - ((c + 0.5) * cell - half)
        sigma_k = cfg.kappa_fraction * cell
        gauss = np.exp(-0.5 * (d[0] * d[0] + d[1] * d[1]) / (sigma_k * sigma_k))
        votes[(c[1] * C + c[0]).astype(np.intp), pix] += weight * mag[pix] * gauss
    kernel = vote_kernel(wrap_angle(orientation[sel] - kp.orientation), cfg.kernel(), cfg.bins)
    return (kernel @ votes.T).T.ravel()


def accumulate_grid(
    field: GradientField,
    kp: Keypoint,
    sides: Sequence[float],
    weights: Sequence[float],
    cfg: DescriptorConfig,
) -> np.ndarray:
    """The grid of ``accumulate_pools`` for one keypoint and one pool.

    This is the one support check of every descriptor: when the largest
    window leaves the image, one SupportError lists each side that does.
    """
    kept, grids = accumulate_pools(field, [kp], [([sides], weights)], cfg)[0]
    if not kept:
        raise _support_error(kp, sides, field.magnitude.shape[-2:])
    return grids[0]


def _support_error(kp: Keypoint, sides: Sequence[float], shape: Tuple[int, int]) -> SupportError:
    """The error for a keypoint that ``accumulate_pools`` drops from an image of ``shape``."""
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


def quarter_turn(grid: np.ndarray, k: int, cfg: DescriptorConfig) -> np.ndarray:
    """A flat C x C x B grid as an upright window reads it after k quarter turns of the image.

    ``SimilarityTransform(rotation=pi/2)`` maps a pixel offset (du, dv) to
    (-dv, du), clockwise on screen with v pointing down.  So the (row,
    column) cells turn clockwise k times, and every gradient orientation
    grows by k pi/2: the bins roll by k B / 4.
    """
    if cfg.bins % 4:
        raise ValueError(f"a quarter turn needs bins divisible by 4, got {cfg.bins}")
    cells = np.rot90(grid.reshape(cfg.cells, cfg.cells, cfg.bins), -k, axes=(0, 1))
    return np.roll(cells, k * cfg.bins // 4, axis=2).ravel()


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
