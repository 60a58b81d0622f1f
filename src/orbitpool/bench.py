"""Synthetic matching benchmark: pair generation, matching, evaluation.

A pair is a base texture plus a warped, contrast-mapped, optionally
occluded copy with exact ground truth.  Matching projects the reference
keypoint lattice into the transformed view and asks whether descriptor
nearest neighbors recover the true counterpart; evaluation sweeps ratio
thresholds and reports precision, recall, and mean average precision per
descriptor kind.
"""

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

import numpy as np
from scipy.spatial.distance import cdist

from .descriptor import (
    DescriptorConfig,
    Keypoint,
    SizePrior,
    accumulate_grids,
    grid_keypoints,
    normalize_grids,
)
from .image import (
    AffineContrast,
    ContrastMap,
    GammaContrast,
    ImageBuffer,
    SimilarityTransform,
    apply_contrast,
    compute_gradients,
    extract_patch,
    load_image,
    patch_inside,
    save_pgm,
    warp,
)
from .scattering import (
    SAMPLE_SIDE,
    FilterBank,
    build_filter_bank,
    pool_vectors,
    scatter,
)
from .textures import benchmark_bases

KINDS = ("sift", "dsp-sift", "sc", "dsp-sc")
THRESHOLDS = (0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
#: A scattering row whose wavelet norm is at most this share of its
#: order-0 mean is flat: on a constant window the DC-free kernels leave
#: round-off of about 1e-16 of it; the benchmark's textured windows
#: give 1e-2 and more.
SCATTER_FLAT_TOL = 1e-12

_SCALE_LIMITS = (0.5, 2.0)
_ROTATION_LIMITS = (-math.pi, math.pi)
_CONTRAST_KINDS = ("none", "gamma", "affine", "mixed")


# ---------------------------------------------------------------------------
# pair synthesis


@dataclass(frozen=True)
class SynthSpec:
    """Nuisance ranges for pair generation.

    Degenerate ranges (lo == hi) pin the draw; the identity spec leaves
    the base untouched.
    """

    scale_range: Tuple[float, float] = (1.0, 1.0)
    rotation_range: Tuple[float, float] = (0.0, 0.0)
    contrast: str = "none"
    occlusion: float = 0.0

    def __post_init__(self):
        slo, shi = self.scale_range
        if not (_SCALE_LIMITS[0] <= slo <= shi <= _SCALE_LIMITS[1]):
            raise ValueError(f"scale range must lie within {_SCALE_LIMITS}, got {self.scale_range}")
        rlo, rhi = self.rotation_range
        if not (_ROTATION_LIMITS[0] <= rlo <= rhi <= _ROTATION_LIMITS[1]):
            raise ValueError(f"rotation range must lie within [-pi, pi], got {self.rotation_range}")
        if self.contrast not in _CONTRAST_KINDS:
            raise ValueError(f"contrast must be one of {_CONTRAST_KINDS}, got {self.contrast!r}")
        if not 0.0 <= self.occlusion <= 0.5:
            raise ValueError(f"occlusion fraction must lie in [0, 0.5], got {self.occlusion}")


@dataclass(frozen=True)
class SyntheticPair:
    """One benchmark pair with exact ground truth and a co-visibility mask.

    ``covisible_mask`` lives on the transformed image's grid: False outside
    the warp's source domain and inside the pasted occluder.
    """

    name: str
    reference: ImageBuffer
    transformed: ImageBuffer
    ground_truth: SimilarityTransform
    covisible_mask: np.ndarray
    contrast: Optional[ContrastMap] = None
    occluder: Optional[Tuple[int, int, int, int]] = None

    def __post_init__(self):
        mask = np.asarray(self.covisible_mask, dtype=bool)
        if mask.shape != self.transformed.values.shape:
            raise ValueError("mask shape must match the transformed image")
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "covisible_mask", mask)

    def covisible(self, point) -> bool:
        """Mask lookup at the nearest pixel; False outside the image."""
        u = int(round(float(point[0])))
        v = int(round(float(point[1])))
        h, w = self.covisible_mask.shape
        if u < 0 or u >= w or v < 0 or v >= h:
            return False
        return bool(self.covisible_mask[v, u])

    def project(self, point) -> np.ndarray:
        """Ground-truth position of a reference pixel in the transformed view."""
        return self.ground_truth.map_pixel(point, self.reference.center)


def _draw_contrast(kind: str, rng) -> Optional[ContrastMap]:
    if kind == "mixed":
        kind = ("none", "gamma", "affine")[rng.integers(0, 3)]
    if kind == "none":
        return None
    if kind == "gamma":
        return GammaContrast(float(np.exp(rng.uniform(np.log(0.5), np.log(2.0)))))
    return AffineContrast(float(rng.uniform(0.6, 1.4)), float(rng.uniform(-0.1, 0.1)))


def _occluder_box(shape, fraction, rng):
    h, w = shape
    area = fraction * w * h
    aspect = rng.uniform(0.5, 2.0)
    rw = int(np.clip(round(math.sqrt(area * aspect)), 1, w))
    rh = int(np.clip(round(area / rw), 1, h))
    u0 = int(rng.integers(0, w - rw + 1))
    v0 = int(rng.integers(0, h - rh + 1))
    return u0, v0, rw, rh


def make_pair(base: ImageBuffer, spec: SynthSpec, rng, name: str = "pair") -> SyntheticPair:
    """Draw one transformed view of ``base`` from the nuisance ranges."""
    scale = float(rng.uniform(*spec.scale_range))
    rotation = float(rng.uniform(*spec.rotation_range))
    gt = SimilarityTransform(scale=scale, rotation=rotation)
    transformed, mask = warp(base, gt)
    cmap = _draw_contrast(spec.contrast, rng)
    if cmap is not None:
        transformed = apply_contrast(transformed, cmap)
    occluder = None
    if spec.occlusion > 0.0:
        u0, v0, rw, rh = _occluder_box(transformed.values.shape, spec.occlusion, rng)
        vals = transformed.values.copy()
        vals[v0 : v0 + rh, u0 : u0 + rw] = rng.uniform(0.0, 1.0, size=(rh, rw))
        mask = mask.copy()
        mask[v0 : v0 + rh, u0 : u0 + rw] = False
        transformed = ImageBuffer.from_array(vals)
        occluder = (u0, v0, rw, rh)
    return SyntheticPair(name, base, transformed, gt, mask, cmap, occluder)


def synth_pairs(bases: Sequence[ImageBuffer], spec: SynthSpec, seed: int) -> List[SyntheticPair]:
    """One pair per base, each from an independent seed-derived stream."""
    if not bases:
        raise ValueError("need at least one base image")
    pairs = []
    for i, base in enumerate(bases):
        rng = np.random.default_rng([seed, i])
        pairs.append(make_pair(base, spec, rng, name=f"pair-{i:03d}"))
    return pairs


# ---------------------------------------------------------------------------
# pair directory I/O


def save_pair(pair: SyntheticPair, dirpath) -> None:
    """Write reference.pgm, transformed.pgm, mask.pgm, and meta.json."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    save_pgm(pair.reference, d / "reference.pgm")
    save_pgm(pair.transformed, d / "transformed.pgm")
    save_pgm(ImageBuffer.from_array(pair.covisible_mask.astype(np.float64)), d / "mask.pgm")
    meta = {
        "name": pair.name,
        "scale": pair.ground_truth.scale,
        "rotation": pair.ground_truth.rotation,
        "contrast": _contrast_meta(pair.contrast),
        "occluder": list(pair.occluder) if pair.occluder else None,
    }
    with open(d / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def _contrast_meta(cmap):
    if cmap is None:
        return None
    if isinstance(cmap, GammaContrast):
        return {"kind": "gamma", "gamma": cmap.gamma}
    if isinstance(cmap, AffineContrast):
        return {"kind": "affine", "gain": cmap.gain, "offset": cmap.offset}
    raise ValueError(f"cannot serialize contrast map {type(cmap).__name__}")


def _contrast_from_meta(meta):
    if meta is None:
        return None
    if meta["kind"] == "gamma":
        return GammaContrast(meta["gamma"])
    if meta["kind"] == "affine":
        return AffineContrast(meta["gain"], meta["offset"])
    raise ValueError(f"unknown contrast kind {meta['kind']!r}")


def load_pair(dirpath) -> SyntheticPair:
    """Read a pair directory written by save_pair."""
    d = Path(dirpath)
    meta_path = d / "meta.json"
    if not meta_path.exists():
        raise FileNotFoundError(f"no meta.json in {d}")
    with open(meta_path) as fh:
        meta = json.load(fh)
    reference = load_image(d / "reference.pgm")
    transformed = load_image(d / "transformed.pgm")
    mask = load_image(d / "mask.pgm").values > 0.5
    gt = SimilarityTransform(scale=meta["scale"], rotation=meta["rotation"])
    occluder = tuple(meta["occluder"]) if meta.get("occluder") else None
    return SyntheticPair(
        meta.get("name", d.name),
        reference,
        transformed,
        gt,
        mask,
        _contrast_from_meta(meta.get("contrast")),
        occluder,
    )


# ---------------------------------------------------------------------------
# matching


@dataclass(frozen=True)
class MatchConfig:
    """Knobs for benchmark matching.

    Keypoints form a lattice on the reference; the candidate pool in the
    transformed view sits at their ground-truth projections with the same
    nominal base size, so descriptor quality alone decides the match and
    the unknown scale stays a nuisance for the descriptor to absorb.
    """

    stride: int = 12
    base_size: float = 6.0
    ratio: float = 0.8
    radius: float = 3.0
    prior: SizePrior = field(default_factory=SizePrior.default)
    descriptor: DescriptorConfig = field(default_factory=DescriptorConfig)
    bank: Optional[FilterBank] = None

    def __post_init__(self):
        if not 0 < self.ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be finite and positive, got {self.radius}")

    def scattering_bank(self) -> FilterBank:
        return self.bank if self.bank is not None else _shared_bank()


_BANK_CACHE: List[FilterBank] = []


def _shared_bank() -> FilterBank:
    if not _BANK_CACHE:
        _BANK_CACHE.append(build_filter_bank())
    return _BANK_CACHE[0]


@dataclass(frozen=True)
class MatchRecord:
    """One tentative nearest-neighbor match, fully auditable."""

    ref_index: int
    ref_kp: Keypoint
    projected: Tuple[float, float]
    matched_index: int
    matched_kp: Keypoint
    distance: float
    ratio: float
    covisible_ref: bool
    covisible_matched: bool
    correct: bool


@dataclass(frozen=True)
class PairMatches:
    """Match records for one (pair, kind) run.

    ``candidates`` counts reference keypoints whose true counterpart is
    both co-visible and extractable: the recall denominator.  ``warning``
    flags a side with no usable keypoints.
    """

    pair: str
    kind: str
    records: Tuple[MatchRecord, ...]
    candidates: int
    warning: bool = False


Description = Tuple[List[int], np.ndarray, np.ndarray]


def describe_kinds(
    img: ImageBuffer,
    keypoints: Sequence[Keypoint],
    kinds: Sequence[str],
    prior: SizePrior,
    cfg: DescriptorConfig,
    bank: FilterBank,
) -> Dict[str, Description]:
    """The vectors matching compares, for each of ``kinds``, from one pass over the image.

    Maps each kind to the indices of its kept keypoints (those whose
    windows all fit), their descriptor matrix and per-row degenerate
    flags.  Windows have side multiplier * base_size *
    ``cfg.support_factor``: ``sift`` and ``sc`` under the delta prior,
    ``dsp-sift`` and ``dsp-sc`` under ``prior``.  The histogram kinds
    share one gradient field and take one ``accumulate_grids`` pass
    each.  The scattering kinds share one ``scatter`` per keypoint and
    window side, pooled by ``pool_vectors`` as in ``dsp_scatter``, so
    ``sc``, whose side is bit for bit ``dsp-sc``'s at multiplier 1.0,
    scatters nothing of its own under a prior holding 1.0; sides are
    checked with ``patch_inside`` before any is resampled.  Rows are
    bit-identical to describing each kind alone.  A histogram is
    degenerate when its window has no gradient mass, a scattering row
    when the norm of its wavelet coefficients is at most
    ``SCATTER_FLAT_TOL`` times its order-0 mean; such a row is all zeros.
    """
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown descriptor kind {kind!r}, expected one of {KINDS}")
    priors = {kind: SizePrior.delta() if kind in ("sift", "sc") else prior for kind in kinds}
    out = {}
    histogram = [kind for kind in priors if kind in ("sift", "dsp-sift")]
    if histogram:
        field = compute_gradients(img)
    for kind in histogram:
        sides = priors[kind].sides([kp.base_size for kp in keypoints], cfg.support_factor)
        kept, raw = accumulate_grids(field, keypoints, sides, priors[kind].weights, cfg)
        rows, degenerate = normalize_grids(raw, cfg)
        out[kind] = kept, (rows if kept else np.zeros((0, 1))), degenerate
    scattering = {kind: p for kind, p in priors.items() if kind in ("sc", "dsp-sc")}
    if scattering:
        out.update(_scattering_rows(img, keypoints, scattering, cfg, bank))
    return {kind: out[kind] for kind in priors}


def _scattering_rows(img, keypoints, priors, cfg, bank) -> Dict[str, Description]:
    """The rows of each scattering kind, each under its own prior in ``priors``."""
    found = {kind: ([], [], []) for kind in priors}
    for i, kp in enumerate(keypoints):
        center = (kp.u, kp.v)
        vectors = {}  # by window side
        for kind, prior in priors.items():
            (sides,) = prior.sides([kp.base_size], cfg.support_factor)
            if not all(patch_inside(center, side, SAMPLE_SIDE, img.values.shape) for side in sides):
                continue
            for side in sides:
                if side not in vectors:
                    vectors[side] = scatter(extract_patch(img, center, side, SAMPLE_SIDE), bank)
            vec = pool_vectors(prior.weights, [vectors[side] for side in sides])
            # order 0 is the local mean: brightness, not structure.  It
            # dominates the raw norm, so drop it and l2-normalize the
            # wavelet orders before euclidean matching, unless all they
            # hold is round-off.
            flat = vec.flatten()[1:]
            norm = np.linalg.norm(flat)
            degenerate = norm <= SCATTER_FLAT_TOL * abs(vec.order0)
            kept, rows, flags = found[kind]
            kept.append(i)
            rows.append(np.zeros_like(flat) if degenerate else flat / norm)
            flags.append(degenerate)
    return {
        kind: (kept, np.stack(rows) if rows else np.zeros((0, 1)), np.array(flags, dtype=bool))
        for kind, (kept, rows, flags) in found.items()
    }


def describe(
    img: ImageBuffer,
    keypoints: Sequence[Keypoint],
    kind: str,
    prior: SizePrior,
    cfg: DescriptorConfig,
    bank: FilterBank,
) -> Description:
    """The (kept indices, rows, degenerate flags) of one kind: the one-kind case of ``describe_kinds``."""
    return describe_kinds(img, keypoints, (kind,), prior, cfg, bank)[kind]


def match_kinds(
    pair: SyntheticPair, kinds: Sequence[str], mcfg: MatchConfig = MatchConfig()
) -> Dict[str, PairMatches]:
    """Nearest-neighbor matching with a Lowe ratio test, for each of ``kinds``.

    The lattice and its projections are built once, and each image is
    described once for all kinds by ``describe_kinds``.  A match is
    correct iff the matched keypoint lies within ``radius`` pixels of the
    ground-truth projection and both endpoints are co-visible per the
    pair's mask.
    """
    ref_kps = grid_keypoints(pair.reference, mcfg.stride, mcfg.base_size)
    projections = [pair.project((kp.u, kp.v)) for kp in ref_kps]
    pool_kps = [Keypoint(float(p[0]), float(p[1]), mcfg.base_size) for p in projections]

    args = (kinds, mcfg.prior, mcfg.descriptor, mcfg.scattering_bank())
    refs = describe_kinds(pair.reference, ref_kps, *args)
    pools = describe_kinds(pair.transformed, pool_kps, *args)
    out = {}
    for kind in refs:
        (ref_idx, ref_vecs, _), (pool_idx, pool_vecs, _) = refs[kind], pools[kind]
        pool_set = set(pool_idx)
        candidates = sum(
            1 for i in ref_idx if i in pool_set and pair.covisible(projections[i])
        )
        if not ref_idx or not pool_idx:
            out[kind] = PairMatches(pair.name, kind, (), candidates, warning=True)
            continue

        dists = cdist(ref_vecs, pool_vecs)
        records = []
        for row, i in enumerate(ref_idx):
            order = np.argsort(dists[row], kind="stable")
            j = int(order[0])
            d1 = float(dists[row, j])
            if len(order) < 2:
                ratio = 0.0
            else:
                d2 = float(dists[row, int(order[1])])
                ratio = d1 / d2 if d2 > 0.0 else 1.0
            if ratio > mcfg.ratio:
                continue
            matched = pool_idx[j]
            mkp = pool_kps[matched]
            proj = projections[i]
            cov_ref = pair.covisible(proj)
            cov_matched = pair.covisible((mkp.u, mkp.v))
            hit = math.hypot(proj[0] - mkp.u, proj[1] - mkp.v) <= mcfg.radius
            records.append(
                MatchRecord(
                    ref_index=i,
                    ref_kp=ref_kps[i],
                    projected=(float(proj[0]), float(proj[1])),
                    matched_index=matched,
                    matched_kp=mkp,
                    distance=d1,
                    ratio=ratio,
                    covisible_ref=cov_ref,
                    covisible_matched=cov_matched,
                    correct=bool(hit and cov_ref and cov_matched),
                )
            )
        out[kind] = PairMatches(pair.name, kind, tuple(records), candidates)
    return out


def match_pair(pair: SyntheticPair, kind: str, mcfg: MatchConfig = MatchConfig()) -> PairMatches:
    """The matches of one kind: the one-kind case of ``match_kinds``."""
    return match_kinds(pair, (kind,), mcfg)[kind]


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class EvalRecord:
    pair: str
    kind: str
    threshold: float
    correct: int
    accepted: int
    candidates: int

    @property
    def precision(self) -> float:
        return self.correct / self.accepted if self.accepted else 0.0

    @property
    def recall(self) -> float:
        return self.correct / self.candidates if self.candidates else 0.0


def _pr_area(rows: Sequence["EvalRecord"]) -> float:
    """Average precision: step area under the threshold-swept PR curve.

    Recall is non-decreasing in the ratio threshold, so the sweep traces
    the curve left to right; each recall increment is credited at the
    precision reached there.
    """
    area, prev = 0.0, 0.0
    for r in sorted(rows, key=lambda r: r.threshold):
        area += (r.recall - prev) * r.precision
        prev = r.recall
    return area


@dataclass(frozen=True)
class EvalReport:
    """Threshold-sweep records plus per-kind mean average precision."""

    records: Tuple[EvalRecord, ...]
    mean_ap: Dict[str, float]
    runtime_seconds: float
    flagged: Tuple[Tuple[str, str], ...] = ()

    def average_precision(self, pair: str, kind: str) -> float:
        rows = [r for r in self.records if r.pair == pair and r.kind == kind]
        if not rows:
            raise KeyError(f"no records for ({pair!r}, {kind!r})")
        return _pr_area(rows)

    def write_csv(self, out: TextIO) -> None:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["pair", "kind", "threshold", "precision", "recall"])
        for r in self.records:
            writer.writerow([r.pair, r.kind, repr(r.threshold), repr(r.precision), repr(r.recall)])

    def save(self, path) -> None:
        with open(path, "w") as fh:
            self.write_csv(fh)


def _sweep(pm: PairMatches) -> List[EvalRecord]:
    out = []
    for t in THRESHOLDS:
        accepted = [r for r in pm.records if r.ratio <= t]
        correct = sum(1 for r in accepted if r.correct)
        out.append(EvalRecord(pm.pair, pm.kind, t, correct, len(accepted), pm.candidates))
    return out


def evaluate(
    pairs: Sequence[SyntheticPair],
    kinds: Sequence[str] = KINDS,
    mcfg: Optional[MatchConfig] = None,
) -> EvalReport:
    """Match every (pair, kind) and sweep the ratio ``THRESHOLDS``.

    Each pair is matched once for all kinds by ``match_kinds``, so each
    of its images is described once.  The report's rows follow the
    stable sorted (pair name, kind) order of the tasks; pairs that share
    a name stay apart, as distinct objects.
    """
    if not pairs:
        raise ValueError("need at least one pair")
    if not kinds:
        raise ValueError("need at least one descriptor kind")
    if mcfg is None:
        mcfg = MatchConfig(ratio=max(THRESHOLDS))
    start = time.perf_counter()

    by_pair = {id(p): match_kinds(p, kinds, mcfg) for p in pairs}
    tasks = sorted(
        ((p, k) for p in pairs for k in kinds), key=lambda t: (t[0].name, t[1])
    )
    matched = [by_pair[id(p)][k] for p, k in tasks]

    records: List[EvalRecord] = []
    flagged = []
    ap: Dict[str, List[float]] = {k: [] for k in kinds}
    for pm in matched:
        rows = _sweep(pm)
        records.extend(rows)
        ap[pm.kind].append(_pr_area(rows))
        if pm.warning or not pm.records:
            flagged.append((pm.pair, pm.kind))
    mean_ap = {k: float(np.mean(v)) for k, v in ap.items()}

    return EvalReport(
        records=tuple(records),
        mean_ap=mean_ap,
        runtime_seconds=time.perf_counter() - start,
        flagged=tuple(flagged),
    )


def directional_benchmark(
    num_bases: int = 20,
    scales: Sequence[float] = (0.7, 0.8, 1.2, 1.4),
    kinds: Sequence[str] = KINDS,
    seed: int = 77,
    mcfg: Optional[MatchConfig] = None,
    occlusion: float = 0.0,
) -> EvalReport:
    """Self-contained scale-nuisance benchmark over procedural textures.

    Every base is paired with each fixed scale factor; size pooling is the
    only defense the descriptors have, which is exactly the comparison the
    report's mean_ap summarizes.
    """
    bases = benchmark_bases(num_bases)
    pairs = []
    for i, base in enumerate(bases):
        for s in scales:
            spec = SynthSpec(scale_range=(s, s), occlusion=occlusion)
            rng = np.random.default_rng([seed, i, int(round(s * 100))])
            pairs.append(make_pair(base, spec, rng, name=f"b{i:02d}-x{s}"))
    return evaluate(pairs, kinds, mcfg=mcfg)
