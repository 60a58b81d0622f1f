"""Orbit-sampled likelihood: match a query against warped template views.

A template is built by warping one training image to each of finitely many
similarity-transform samples and extracting a fixed-frame descriptor per
sample.  Around every sample sits a small cloud of perturbation transforms
whose descriptors are weight-averaged before normalization, smoothing each
view so the discrete sampling of the transform orbit does not alias.  The
likelihood of a query descriptor is the maximum per-sample similarity; the
winning index says which transform sample explains the query best.

Descriptors here are deliberately not canonized: the query and every
template view are extracted at the same window size and reference
orientation, so the transform itself is what distinguishes the views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, TextIO, Tuple

import numpy as np

from .image import GRADIENT_MARGIN, ImageBuffer, SimilarityTransform, SupportError, gradient_field_of_array, warp_boxes
from .descriptor import (
    GRID_CHUNK,
    Descriptor,
    DescriptorConfig,
    Keypoint,
    _support_error,
    accumulate_pools,
    normalize_grid,
    read_rows,
    window_box,
    window_inside,
    write_rows,
)

__all__ = [
    "GroupSampleSet",
    "TemplateModel",
    "SOAResult",
    "perturbation_grid",
    "delta_perturbation",
    "build_template",
    "anti_aliased_score",
    "soa_likelihood",
    "save_template",
    "load_template",
]

Perturbations = Tuple[Tuple[SimilarityTransform, float], ...]


def delta_perturbation() -> Perturbations:
    """A single unweighted identity perturbation: no anti-aliasing."""
    return ((SimilarityTransform.identity(), 1.0),)


def perturbation_grid() -> Perturbations:
    """Uniform 3x3 cloud around the identity: rotation and log-scale offsets of 0 and +-0.1."""
    out = []
    for dr in (-0.1, 0.0, 0.1):
        for ds in (-0.1, 0.0, 0.1):
            out.append((SimilarityTransform(scale=math.exp(ds), rotation=dr), 1.0 / 9.0))
    return tuple(out)


def _named_cloud(anti_alias: str) -> Perturbations:
    """The perturbation cloud named 'grid' (``perturbation_grid``) or 'delta'."""
    if anti_alias == "grid":
        return perturbation_grid()
    if anti_alias == "delta":
        return delta_perturbation()
    raise ValueError(f"anti_alias must be 'grid' or 'delta', got {anti_alias!r}")


@dataclass(frozen=True)
class GroupSampleSet:
    """Transform samples plus a normalized perturbation cloud per sample."""

    samples: Tuple[SimilarityTransform, ...]
    anti_alias: Tuple[Perturbations, ...]

    def __post_init__(self):
        if len(self.samples) < 1:
            raise ValueError("need at least one transform sample")
        if len(self.anti_alias) != len(self.samples):
            raise ValueError("one perturbation list required per sample")
        normalized = []
        for cloud in self.anti_alias:
            if not cloud:
                raise ValueError("perturbation lists must be nonempty")
            weights = [w for _, w in cloud]
            if not all(math.isfinite(w) for w in weights):
                raise ValueError("perturbation weights must be finite")
            if any(w < 0 for w in weights):
                raise ValueError("perturbation weights must be nonnegative")
            total = sum(weights)
            if total <= 0:
                raise ValueError("perturbation weights must not all be zero")
            if not math.isfinite(total):
                raise ValueError("perturbation weights must have a finite sum")
            normalized.append(tuple((g, w / total) for g, w in cloud))
        object.__setattr__(self, "anti_alias", tuple(normalized))

    def __len__(self):
        return len(self.samples)

    @classmethod
    def rotation_group(cls, count: int = 4, anti_alias: str = "grid") -> "GroupSampleSet":
        """Rotations by 2*pi*k/count about the image center."""
        if count < 1:
            raise ValueError("count must be >= 1")
        cloud = _named_cloud(anti_alias)
        samples = tuple(SimilarityTransform(rotation=2.0 * np.pi * k / count) for k in range(count))
        return cls(samples, (cloud,) * count)

    @classmethod
    def default(cls, anti_alias: str = "grid") -> "GroupSampleSet":
        """Four rotations crossed with three log-spaced scales (N = 12)."""
        cloud = _named_cloud(anti_alias)
        samples = []
        for k in range(4):
            for s in (2.0**-0.5, 1.0, 2.0**0.5):
                samples.append(SimilarityTransform(scale=s, rotation=np.pi * k / 2.0))
        return cls(tuple(samples), (cloud,) * len(samples))


@dataclass(frozen=True)
class TemplateModel:
    """One anti-alias-averaged descriptor per transform sample."""

    source: str
    descriptors: Tuple[Descriptor, ...]
    samples: Optional[GroupSampleSet] = None

    def __post_init__(self):
        if len(self.descriptors) < 1:
            raise ValueError("template needs at least one descriptor")
        if self.samples is not None and len(self.samples) != len(self.descriptors):
            raise ValueError("descriptor count must match the sample set")

    def __len__(self):
        return len(self.descriptors)


def _warped_keypoint(kp: Keypoint, g: SimilarityTransform, center) -> Keypoint:
    u, v = g.map_pixel((kp.u, kp.v), center)
    return Keypoint(float(u), float(v), kp.base_size, kp.orientation)


def _view_box(kp: Keypoint, size: float, shape) -> Tuple[int, int, int, int]:
    """The pixels a view's descriptor reads: its window box plus ``GRADIENT_MARGIN``.

    The box is clipped to the image; where it meets the image border the
    crop's gradients pad exactly as the whole image's do.  It is the whole
    image when the window leaves the image, when rounding in the crop's
    own frame would say it does, or when the image is too small for
    gradients, so that every error is raised as it is there.
    """
    h, w = shape
    whole = (0, w - 1, 0, h - 1)
    if min(h, w) < 3 or not window_inside(kp, size, shape):
        return whole
    u0, u1, v0, v1 = window_box(kp, size, shape)
    m = GRADIENT_MARGIN
    box = (max(0, u0 - m), min(w - 1, u1 + m), max(0, v0 - m), min(h - 1, v1 + m))
    crop = (box[3] - box[2] + 1, box[1] - box[0] + 1)
    return box if window_inside(_shifted(kp, box), size, crop) else whole


def _shifted(kp: Keypoint, box) -> Keypoint:
    """The keypoint in the frame of a crop whose first pixel is ``(box[0], box[2])``."""
    return Keypoint(kp.u - box[0], kp.v - box[2], kp.base_size, kp.orientation)


def _uncovered(mask: np.ndarray, kp: Keypoint, size: float, shape, box) -> Optional[SupportError]:
    """The error for a window that ``mask``, the ``box`` crop of a warp's mask, does not cover."""
    u0, u1, v0, v1 = window_box(kp, size, shape)
    if mask[v0 - box[2] : v1 - box[2] + 1, u0 - box[0] : u1 - box[0] + 1].all():
        return None
    return SupportError(f"warped support at ({kp.u:.1f}, {kp.v:.1f}) leaves the image domain")


def _view_grids(img: ImageBuffer, views, size: float, cfg: DescriptorConfig):
    """Raw grids of views whose boxes share one shape, in one warp, gradient pass and vote.

    Each view is (inverse transform, moved keypoint, box, weight).
    Returns the grids, one row per view, and each view's error or None:
    an uncovered window, then a field too small for gradients, then a
    window leaving the image, in the order a lone view meets them.
    """
    inverses, moved, boxes, weights = zip(*views)
    shape = img.values.shape
    warped, inside = warp_boxes(img, inverses, boxes)
    errors = [_uncovered(mask, m, size, shape, box) for mask, m, box in zip(inside, moved, boxes)]
    out = np.zeros((len(views), cfg.length))
    try:
        field = gradient_field_of_array(warped)
    except ValueError as exc:
        return out, [exc if e is None else e for e in errors]
    shifted = [_shifted(m, box) for m, box in zip(moved, boxes)]
    kept, grids = accumulate_pools(field, shifted, [([[size]] * len(views), np.array(weights)[:, None])], cfg)[0]
    out[kept] = grids
    for k, kp in enumerate(shifted):
        if errors[k] is None and k not in kept:
            errors[k] = _support_error(kp, (size,), warped.shape[1:])
    return out, errors


def build_template(
    img: ImageBuffer,
    kp: Keypoint,
    samples: GroupSampleSet,
    cfg: DescriptorConfig = DescriptorConfig(),
    source: str = "template",
) -> TemplateModel:
    """Extract one averaged descriptor per transform sample.

    For each sample g_i and each perturbation g in its cloud, the image is
    warped by the composed transform g_i o g and a raw descriptor grid is
    accumulated at the mapped keypoint position with the window size and
    reference orientation held fixed; the weighted grids are added in
    cloud order and normalized once, exactly as in size pooling.

    Only the window's bounding box plus ``GRADIENT_MARGIN`` px (4 at
    ``PRE_SIGMA`` = 1) is warped and differentiated.  That is exact: a
    gradient reads the blurred image one pixel away, and the blur reads
    ``ceil(3 * PRE_SIGMA)`` px further, so every window pixel sees the
    same values as in the whole warp; where the box is clipped at the
    image border, the crop's reflected padding is the whole image's.  The
    crop starts at an integer pixel, so the keypoint shifted into it gives
    the same pixel offsets to the bit, and the descriptors are those of
    the whole-image warp.

    The views are planned first, then grouped by box shape and taken
    ``GRID_CHUNK`` at a time: one ``warp_boxes`` call, one gradient pass
    over the chunk's stack and one ``accumulate_pools`` call in which
    view k reads layer k.  Every layer, and every view's grid, is bit for
    bit that of the view alone, and only one chunk's layers are alive at
    a time.  If a view fails, the error raised is the first failing
    view's, in sample and cloud order, as a view-by-view loop would raise
    it; support errors name the keypoint in whole-image coordinates.
    """
    size = cfg.support_factor * kp.base_size
    shape = img.values.shape
    views, errors = [], []
    for g_i, cloud in zip(samples.samples, samples.anti_alias):
        for g, weight in cloud:
            try:
                composed = g_i.compose(g)
                moved = _warped_keypoint(kp, composed, img.center)
                views.append((composed.inverse(), moved, _view_box(moved, size, shape), weight))
                errors.append(None)
            except ValueError as exc:
                views.append(None)
                errors.append(exc)
    groups: Dict[Tuple[int, int], List[int]] = {}
    for i, view in enumerate(views):
        if view is not None:
            u0, u1, v0, v1 = view[2]
            groups.setdefault((v1 - v0, u1 - u0), []).append(i)
    grids = np.zeros((len(views), cfg.length))
    for members in groups.values():
        for start in range(0, len(members), GRID_CHUNK):
            chunk = members[start : start + GRID_CHUNK]
            chunk_grids, chunk_errors = _view_grids(img, [views[i] for i in chunk], size, cfg)
            grids[chunk] = chunk_grids
            for i, error in zip(chunk, chunk_errors):
                errors[i] = error
    failed = next((e for e in errors if e is not None), None)
    if failed is not None:
        raise failed
    rows = iter(grids)
    descriptors = []
    for cloud in samples.anti_alias:
        pooled = np.zeros(cfg.length)
        for _ in cloud:
            pooled += next(rows)
        descriptors.append(normalize_grid(pooled, kp, cfg))
    return TemplateModel(source, tuple(descriptors), samples)


def anti_aliased_score(template: TemplateModel, index: int, query: Descriptor) -> float:
    """Bhattacharyya affinity of the query to template sample ``index`` (1-based)."""
    if not 1 <= index <= len(template):
        raise IndexError(f"sample index {index} outside [1, {len(template)}]")
    a = template.descriptors[index - 1].values
    b = query.values
    if a.size != b.size:
        raise ValueError(f"descriptor lengths differ: {a.size} vs {b.size}")
    return float(np.sqrt(a * b).sum())


@dataclass(frozen=True)
class SOAResult:
    """Max score over template samples, with the winning 1-based index."""

    value: float
    argmax_index: int
    per_sample_scores: Tuple[float, ...]

    def __post_init__(self):
        scores = self.per_sample_scores
        if not scores:
            raise ValueError("need at least one score")
        best = max(scores)
        if self.value != best:
            raise ValueError("value must equal the maximum per-sample score")
        if scores.index(best) + 1 != self.argmax_index:
            raise ValueError("argmax_index must point at the first maximal score")


def soa_likelihood(template: TemplateModel, query: Descriptor) -> SOAResult:
    """Score the query against every sample and keep the best.

    Ties resolve to the smallest index; the full score list is returned
    for inspection.
    """
    rows = np.array([d.values for d in template.descriptors])
    if rows.shape[1] != query.values.size:
        raise ValueError(f"descriptor lengths differ: {rows.shape[1]} vs {query.values.size}")
    # each row sums as in anti_aliased_score, to the bit
    scores = tuple(np.sqrt(rows * query.values).sum(axis=1).tolist())
    best = max(scores)
    return SOAResult(best, scores.index(best) + 1, scores)


def save_template(template: TemplateModel, out: TextIO) -> None:
    """Header (source, count, grid shape, metric=affinity), then one row per sample."""
    first = template.descriptors[0]
    header = {"source": template.source, "n": len(template), "cells": first.cells,
              "bins": first.bins, "metric": "affinity"}
    write_rows(out, header, ((d.keypoint, d.degenerate, d.values) for d in template.descriptors))


def load_template(stream: TextIO) -> TemplateModel:
    """Parse the CSV format written by save_template."""
    fields, rows = read_rows(stream)
    missing = [key for key in ("n", "cells", "bins") if key not in fields]
    if missing:
        raise ValueError(f"template header lacks {', '.join(missing)}")
    cells, bins, count = int(fields["cells"]), int(fields["bins"]), int(fields["n"])
    if cells < 1 or bins < 1:
        raise ValueError(f"template grid must have positive cells and bins, got {cells} and {bins}")
    descriptors = tuple(Descriptor(values, cells, bins, kp, flag) for kp, flag, values in rows)
    if len(descriptors) != count:
        raise ValueError(f"template header promises {count} samples, found {len(descriptors)}")
    return TemplateModel(fields.get("source", "template"), descriptors)
