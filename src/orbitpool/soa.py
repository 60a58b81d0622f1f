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
from typing import Optional, TextIO, Tuple

import numpy as np

from .image import ImageBuffer, SimilarityTransform, SupportError, compute_gradients, warp
from .descriptor import (
    Descriptor,
    DescriptorConfig,
    Keypoint,
    accumulate_grid,
    normalize_grid,
    read_rows,
    window_box,
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


def perturbation_grid(rotation_delta: float = 0.1, log_scale_delta: float = 0.1) -> Perturbations:
    """Uniform 3x3 cloud around the identity: rotation and log-scale offsets."""
    out = []
    for dr in (-rotation_delta, 0.0, rotation_delta):
        for ds in (-log_scale_delta, 0.0, log_scale_delta):
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
            if any(w < 0 for w in weights):
                raise ValueError("perturbation weights must be nonnegative")
            total = sum(weights)
            if total <= 0:
                raise ValueError("perturbation weights must not all be zero")
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


def _require_covered(mask: np.ndarray, kp: Keypoint, size: float) -> None:
    u0, u1, v0, v1 = window_box(kp, size, mask.shape)
    if not mask[v0 : v1 + 1, u0 : u1 + 1].all():
        raise SupportError(
            f"warped support at ({kp.u:.1f}, {kp.v:.1f}) leaves the image domain"
        )


def build_template(
    img: ImageBuffer,
    kp: Keypoint,
    samples: GroupSampleSet,
    cfg: DescriptorConfig = DescriptorConfig(),
    source: str = "template",
) -> TemplateModel:
    """Extract one averaged descriptor per transform sample.

    For each sample g_i and each perturbation g in its cloud, the image is
    warped once by the composed transform g_i o g and a raw descriptor
    grid is accumulated at the mapped keypoint position with the window
    size and reference orientation held fixed; the weighted grids are
    averaged and normalized once, exactly as in size pooling.
    """
    size = cfg.support_factor * kp.base_size
    center = img.center
    descriptors = []
    for g_i, cloud in zip(samples.samples, samples.anti_alias):
        pooled = np.zeros(cfg.length)
        for g, weight in cloud:
            composed = g_i.compose(g)
            warped, mask = warp(img, composed)
            moved = _warped_keypoint(kp, composed, center)
            _require_covered(mask, moved, size)
            pooled += accumulate_grid(compute_gradients(warped), moved, (size,), (weight,), cfg)
        descriptors.append(normalize_grid(pooled, kp, cfg))
    return TemplateModel(source, tuple(descriptors), samples)


def anti_aliased_score(
    template: TemplateModel,
    index: int,
    query: Descriptor,
    metric: str = "affinity",
) -> float:
    """Similarity of the query to template sample ``index`` (1-based)."""
    if not 1 <= index <= len(template):
        raise IndexError(f"sample index {index} outside [1, {len(template)}]")
    a = template.descriptors[index - 1].values
    b = query.values
    if a.size != b.size:
        raise ValueError(f"descriptor lengths differ: {a.size} vs {b.size}")
    if metric == "affinity":
        return float(np.sqrt(a * b).sum())
    if metric == "euclidean":
        diff = a - b
        return float(-np.sqrt(np.dot(diff, diff)))
    raise ValueError(f"unknown metric {metric!r}")


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


def soa_likelihood(template: TemplateModel, query: Descriptor, metric: str = "affinity") -> SOAResult:
    """Score the query against every sample and keep the best.

    Ties resolve to the smallest index; the full score list is returned
    for inspection.
    """
    scores = tuple(
        anti_aliased_score(template, i, query, metric) for i in range(1, len(template) + 1)
    )
    best = max(scores)
    return SOAResult(best, scores.index(best) + 1, scores)


def save_template(template: TemplateModel, out: TextIO, metric: str = "affinity") -> None:
    """Header (source, count, grid shape, metric), then one row per sample."""
    first = template.descriptors[0]
    header = {"source": template.source, "n": len(template), "cells": first.cells,
              "bins": first.bins, "metric": metric}
    write_rows(out, header, ((d.keypoint, d.degenerate, d.values) for d in template.descriptors))


def load_template(stream: TextIO) -> TemplateModel:
    """Parse the CSV format written by save_template."""
    fields, rows = read_rows(stream)
    cells, bins = int(fields["cells"]), int(fields["bins"])
    count = int(fields["n"])
    descriptors = tuple(Descriptor(values, cells, bins, kp, flag) for kp, flag, values in rows)
    if len(descriptors) != count:
        raise ValueError(f"template header promises {count} samples, found {len(descriptors)}")
    return TemplateModel(fields.get("source", "template"), descriptors)
