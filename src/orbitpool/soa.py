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
import pickle
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .image import GRADIENT_MARGIN, ImageBuffer, SimilarityTransform, SupportError, check_gradient_shape, warp_sources
from .image import gradient_field_of_array, resample
from .descriptor import (
    GRID_CHUNK,
    Descriptor,
    DescriptorConfig,
    Keypoint,
    _support_error,
    frozen,
    normalize_grid,
    plan_pools,
    pool_pass,
    quarter_turn,
    window_box,
    window_inside,
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
]

Perturbations = Tuple[Tuple[SimilarityTransform, float], ...]

# How close a sample must be to a quarter turn of an earlier one, in scale,
# rotation and translation; how close each turned keypoint must be to the
# turn of its source, and how far every pixel offset must stay from a cell
# boundary (px); and how far inside the image a source box must map (px).
_SAMPLE_TOL = 1e-12
_POINT_TOL = 1e-9
_INSIDE_TOL = 1e-6


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

    def __post_init__(self):
        if len(self.descriptors) < 1:
            raise ValueError("template needs at least one descriptor")

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


def _chunk_plan(shape, views, size: float, cfg: DescriptorConfig):
    """The pixel-free part of warping, differentiating and voting views whose boxes share one shape.

    Each view is (transform, moved keypoint, box, weight).  Returns the
    chunk's ``warp_sources``, the pool plan of its stack, in which view k
    reads layer k (None if too small for gradients), and each view's
    error or None: an uncovered window, then a field too small for
    gradients, then a window leaving the image, as a lone view meets them.
    """
    transforms, moved, boxes, weights = zip(*views)
    sources = warp_sources(shape, [g.inverse() for g in transforms], boxes)
    errors = [_uncovered(mask, m, size, shape, box) for mask, m, box in zip(sources[2], moved, boxes)]
    try:
        check_gradient_shape(sources[2].shape)
    except ValueError as exc:
        return sources, None, [exc if e is None else e for e in errors]
    shifted = [_shifted(m, box) for m, box in zip(moved, boxes)]
    pools = plan_pools(sources[2].shape, shifted, [([[size]] * len(views), np.array(weights)[:, None])], cfg)
    kept = set(pools.gathered[pools.keeps[0]].tolist())
    for k, kp in enumerate(shifted):
        if errors[k] is None and k not in kept:
            errors[k] = _support_error(kp, (size,), sources[2].shape[1:])
    return sources, pools, errors


def _turn(point, k: int, center) -> Tuple[float, float]:
    """``point`` turned by k quarter turns about ``center``, as ``SimilarityTransform(rotation=k*pi/2)`` turns it."""
    du, dv = point[0] - center[0], point[1] - center[1]
    for _ in range(k % 4):
        du, dv = -dv, du
    return center[0] + du, center[1] + dv


def _quarter_turns(g: SimilarityTransform, source: SimilarityTransform) -> int:
    """The k in 1..3 with ``g`` = R(k pi/2) o ``source`` within ``_SAMPLE_TOL``, else 0."""
    turns = (g.rotation - source.rotation) / (math.pi / 2.0)
    k = round(turns)
    turned = _turn(source.translation, k, (0.0, 0.0))
    close = [abs(turns - k) * math.pi / 2.0, abs(g.scale - source.scale)]
    close += [abs(a - b) for a, b in zip(g.translation, turned)]
    return k % 4 if max(close) <= _SAMPLE_TOL else 0


def _exact_box(moved: Keypoint, box, size: float, shape) -> bool:
    """Whether a view's box is its window box plus ``GRADIENT_MARGIN``, neither clipped nor the fallback."""
    u0, u1, v0, v1 = window_box(moved, size, shape)
    m = GRADIENT_MARGIN
    return box == (u0 - m, u1 + m, v0 - m, v1 + m)


def _sound_source(view, size: float, cells: int, shape, center) -> bool:
    """Whether a planned view reads the same pixels as any quarter turn of it.

    Its box is exact and maps, through the view's inverse, at least
    ``_INSIDE_TOL`` px inside the image, so no mask or snap to the border
    can tell the views apart; and no pixel offset from the (upright)
    keypoint lies within ``_POINT_TOL`` of a cell boundary or window
    edge, where the floor of the cell index would move a whole cell.
    """
    composed, moved, box, _ = view
    if not _exact_box(moved, box, size, shape):
        return False
    h, w = shape
    su, sv = composed.inverse().map_pixel([(u, v) for u in box[:2] for v in box[2:]], center).T
    if min(su.min(), sv.min(), w - 1 - su.max(), h - 1 - sv.max()) < _INSIDE_TOL:
        return False
    half, cell = size / 2.0, size / cells
    edges = [x - half + m * cell for x in (moved.u, moved.v) for m in range(cells + 1)]
    return all(abs(e - round(e)) > _POINT_TOL for e in edges)


def _turned_view(view, source, k: int, size: float, shape, center) -> bool:
    """Whether a planned view is the quarter turn by k of the ``source`` view: its keypoint and exact box."""
    _, moved, box, _ = view
    _, source_moved, source_box, _ = source
    u, v = _turn((source_moved.u, source_moved.v), k, center)
    if max(abs(moved.u - u), abs(moved.v - v)) > _POINT_TOL:
        return False
    us, vs = zip(*(_turn(p, k, center) for p in ((source_box[0], source_box[2]), (source_box[1], source_box[3]))))
    return box == (min(us), max(us), min(vs), max(vs)) and _exact_box(moved, box, size, shape)


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

    Quarter turns about the image centre map the lattice onto itself when
    w + h is even.  A sample g_i = R(k pi/2) o g_j, within 1e-12, of an
    earlier warped sample g_j with the same cloud is not warped: its
    pooled raw grid is ``quarter_turn`` of g_j's.  That needs B divisible
    by 4 and an upright keypoint, and for every view pair the turned
    keypoint within 1e-9 of the warp's and the turned box the warp's;
    both boxes exact (neither clipped nor the whole-image fallback); the
    source box mapping at least 1e-6 px inside the image; and no pixel
    offset within 1e-9 of a cell boundary or window edge.  Such a sample
    is the warp's to round-off (within 1e-12), and it cannot fail where
    its source does not.  Every other sample is warped and is bit for
    bit the whole-image warp's.

    The warped views are planned first, then grouped by box shape and
    taken ``GRID_CHUNK`` at a time: one warp of the chunk's boxes (the
    two halves of ``warp_boxes``), one gradient pass over its stack and
    one ``accumulate_pools`` pass in which view k reads layer k.  Every
    layer, and every view's grid, is bit for bit that of the view alone,
    and only one chunk's layers are alive at a time.  If a view fails, the error raised is the first
    failing view's, in sample and cloud order, as a view-by-view loop
    would raise it; support errors name the keypoint in whole-image
    coordinates.

    None of this planning reads a pixel: the turned samples, the chunks
    with their ``warp_sources`` and pool plans, and the error, if any,
    depend only on the image shape, ``kp``, ``samples`` and ``cfg``.  The
    last ``PLANS`` plans are kept, keyed by the pickle of those
    arguments, which holds every float by its bits (-0.0 is not 0.0), and
    reused only for exactly the same ones, so an image of a known
    geometry is only resampled, differentiated, voted, pooled, turned
    and normalized.  A failing geometry is planned again on each call,
    as ``lru_cache`` keeps no raised error.  A plan holds 17 B per box
    pixel of each warped view plus the chunks' pool plans: 0.7 MB for
    ``GroupSampleSet.default()`` at a 24 px window, and ``PLANS`` times
    the largest plan is the cache's worst case.
    """
    count, chunks, spans = _template_plan(pickle.dumps((img.values.shape, kp, samples, cfg)))
    grids = np.zeros((count, cfg.length))
    for rows, sources, pools in chunks:
        ((_, chunk_grids),) = pool_pass(gradient_field_of_array(resample(img.values, sources)), pools, cfg)
        grids[rows] = chunk_grids
    pooled = []
    for span in spans:
        if isinstance(span, slice):
            total = np.zeros(cfg.length)
            for row in grids[span]:
                total += row
        else:
            total = quarter_turn(pooled[span[0]], span[1], cfg)
        pooled.append(total)
    return TemplateModel(source, tuple(normalize_grid(total, kp, cfg) for total in pooled))


# template plans kept, each for one (image shape, keypoint, samples, cfg)
PLANS = 8


@lru_cache(maxsize=PLANS)
def _template_plan(geometry: bytes):
    """What ``build_template`` works out without reading a pixel, or the error it raises.

    A plan is (the number of views, the warped chunks, each sample's
    pooling), a chunk (its views' rows, its ``warp_sources`` and its pool
    plan) and a sample's pooling the slice of its views' rows or (the
    earlier sample it is a quarter turn of, the turns).
    """
    shape, kp, samples, cfg = pickle.loads(geometry)
    size = cfg.support_factor * kp.base_size
    center = ((shape[1] - 1) / 2.0, (shape[0] - 1) / 2.0)
    turnable = cfg.bins % 4 == 0 and sum(shape) % 2 == 0 and kp.orientation == 0.0
    views, errors, spans, turned, sound = [], [], [], [], {}
    for g_i, cloud in zip(samples.samples, samples.anti_alias):
        first = len(views)
        for g, weight in cloud:
            try:
                composed = g_i.compose(g)
                moved = _warped_keypoint(kp, composed, center)
                views.append((composed, moved, _view_box(moved, size, shape), weight))
                errors.append(None)
            except ValueError as exc:
                views.append(None)
                errors.append(exc)
        own = slice(first, len(views))
        spans.append(own)
        turned.append(None)
        if not turnable or None in views[own]:
            continue
        # the first earlier warped sample that this one is a quarter turn of
        for j, (g_j, cloud_j) in enumerate(zip(samples.samples, samples.anti_alias[: len(turned) - 1])):
            k = 0 if turned[j] is not None else _quarter_turns(g_i, g_j)
            if not k or cloud_j != cloud:
                continue
            if j not in sound:
                sound[j] = None not in views[spans[j]] and all(
                    _sound_source(view, size, cfg.cells, shape, center) for view in views[spans[j]]
                )
            if sound[j] and all(
                _turned_view(view, base, k, size, shape, center) for view, base in zip(views[own], views[spans[j]])
            ):
                turned[-1] = (j, k)
                break
    groups: Dict[Tuple[int, int], List[int]] = {}
    for span, turn in zip(spans, turned):
        for i in range(span.start, span.stop):
            if views[i] is not None and turn is None:
                u0, u1, v0, v1 = views[i][2]
                groups.setdefault((v1 - v0, u1 - u0), []).append(i)
    chunks = []
    for members in groups.values():
        for start in range(0, len(members), GRID_CHUNK):
            chunk = members[start : start + GRID_CHUNK]
            sources, pools, chunk_errors = _chunk_plan(shape, [views[i] for i in chunk], size, cfg)
            chunks.append((np.array(chunk), sources, pools))
            for i, error in zip(chunk, chunk_errors):
                errors[i] = error
    failed = next((e for e in errors if e is not None), None)
    if failed is not None:
        raise failed
    pooling = [span if turn is None else turn for span, turn in zip(spans, turned)]
    return frozen((len(views), chunks, pooling))


def anti_aliased_score(template: TemplateModel, index: int, query: Descriptor) -> float:
    """Bhattacharyya affinity of the query to template sample ``index`` (1-based)."""
    if not 1 <= index <= len(template):
        raise IndexError(f"sample index {index} outside [1, {len(template)}]")
    a = template.descriptors[index - 1].values
    b = query.values
    if a.size != b.size:
        raise ValueError(f"descriptor lengths differ: {a.size} vs {b.size}")
    return float(np.sqrt(a * b).sum())


class SOAResult:
    """Max score over template samples, with the winning 1-based index.

    Only the scores are kept, as the bytes of a float64 array, far smaller
    than a tuple of floats; ``per_sample_scores`` gives the tuple, and
    ``argmax_index`` and ``value`` are read from them.  A ``value`` that
    is not the float maximum itself (an int, or a zero of the other sign)
    is kept as given.  Instances are immutable and compare equal field
    by field.
    """

    __slots__ = ("_packed", "_given")

    def __init__(self, value: float, argmax_index: int, per_sample_scores: Sequence[float]):
        scores = np.array(per_sample_scores, dtype=np.float64)
        if scores.ndim != 1 or not scores.size:
            raise ValueError("need at least one score")
        listed = scores.tolist()
        best = max(listed)
        if value != best:
            raise ValueError("value must equal the maximum per-sample score")
        if listed.index(best) + 1 != argmax_index:
            raise ValueError("argmax_index must point at the first maximal score")
        derived = type(value) is float and math.copysign(1.0, value) == math.copysign(1.0, best)
        for name, field in (("_packed", scores.tobytes()), ("_given", None if derived else value)):
            object.__setattr__(self, name, field)

    @property
    def _scores(self) -> np.ndarray:
        """The scores as a read-only array over the bytes."""
        return np.frombuffer(self._packed)

    @property
    def per_sample_scores(self) -> Tuple[float, ...]:
        return tuple(self._scores.tolist())

    @property
    def value(self) -> float:
        return self._scores[self.argmax_index - 1].item() if self._given is None else self._given

    @property
    def argmax_index(self) -> int:
        return int(self._scores.argmax()) + 1

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _fields(self):
        return self.value, self.argmax_index, self.per_sample_scores

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return SOAResult, self._fields()

    def __repr__(self):
        value, index, scores = self._fields()
        return f"SOAResult(value={value!r}, argmax_index={index!r}, per_sample_scores={scores!r})"


def soa_likelihood(template: TemplateModel, query: Descriptor) -> SOAResult:
    """Score the query against every sample and keep the best.

    Ties resolve to the smallest index; the full score list is returned
    for inspection.
    """
    rows = np.array([d.values for d in template.descriptors])
    if rows.shape[1] != query.values.size:
        raise ValueError(f"descriptor lengths differ: {rows.shape[1]} vs {query.values.size}")
    # each row sums as in anti_aliased_score, to the bit
    scores = np.sqrt(rows * query.values).sum(axis=1)
    listed = scores.tolist()
    best = max(listed)
    return SOAResult(best, listed.index(best) + 1, scores)
