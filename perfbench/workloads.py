"""The benchmark's workloads: inputs from a seed, the timed item, scoring, checks.

A workload's set-up builds its inputs and runs one warm-up item.  A round
is its full item list, permuted by the seed; the timed phase runs whole
rounds.  ``score`` turns one round's results into the two mean-AP figures
plus check failures, and ``check`` runs the oracles outside the timed
phase.

Library functions are always reached through their module
(``bench.evaluate``, ``soa.build_template``), so the tracer's patched
module attributes see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

import checks
from orbitpool import bench, descriptor, image, scattering, soa, textures

# directional_benchmark's own seed and scale factors; its 20 bases come
# from textures.benchmark_bases with the library's default texture seed
DIRECTIONAL_SEED = 77
DIRECTIONAL_BASES = 20
SCALES = (0.7, 0.8, 1.2, 1.4)

ORBIT_SIDE = 96
ORBIT_TEXTURES = 24
ORBIT_OFF_GRID = 16
ORBIT_KP = descriptor.Keypoint(47.5, 47.5, 8.0)
ORBIT_CFG = descriptor.DescriptorConfig()
ORBIT_WINDOW = ORBIT_CFG.support_factor * ORBIT_KP.base_size


@dataclass
class Inputs:
    items: list  # one round, in the seed's order
    context: dict


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Inputs]
    run_item: Callable[[Inputs, object], object]
    score: Callable[[Inputs, list], Tuple[float, float, List[str]]]
    check: Callable[[Inputs, int], List[str]]


def _permuted(items, seed):
    order = np.random.default_rng([seed, 0]).permutation(len(items))
    return [items[i] for i in order]


# ---------------------------------------------------------------------------
# scale pairs: scale-hist and scale-scatter


def _directional_pairs(base_indices: Sequence[int], scales: Sequence[float] = SCALES):
    """The directional benchmark's pairs for a subset of its bases and scales."""
    bases = textures.benchmark_bases(DIRECTIONAL_BASES)
    pairs = []
    for i in base_indices:
        for s in scales:
            spec = bench.SynthSpec(scale_range=(s, s))
            rng = np.random.default_rng([DIRECTIONAL_SEED, i, int(round(s * 100))])
            pairs.append(bench.make_pair(bases[i], spec, rng, name=f"b{i:02d}-x{s}"))
    return pairs


def _scale_workload(name, kinds, base_indices, scales, check):
    def setup(seed):
        bank = scattering.build_filter_bank() if kinds[0] == "sc" else None
        mcfg = bench.MatchConfig(ratio=max(bench.THRESHOLDS), bank=bank)
        pairs = _directional_pairs(base_indices, scales)
        inputs = Inputs(_permuted(pairs, seed), {"mcfg": mcfg, "pairs": pairs})
        run_item(inputs, pairs[-1])
        return inputs

    def run_item(inputs, pair):
        return bench.evaluate([pair], kinds, mcfg=inputs.context["mcfg"])

    def score(inputs, results):
        per_kind = {k: [] for k in kinds}
        failures = []
        for pair, report in results:
            ap, bad = checks.ap_from_rows(report)
            failures += [f"{pair.name}: {msg}" for msg in bad]
            for k in kinds:
                per_kind[k].append((pair.name, ap[k][0]))
        single, pooled = (math.fsum(v for _, v in sorted(per_kind[k])) / len(per_kind[k]) for k in kinds)
        return single, pooled, failures + checks.pooling_failures(single, pooled)

    return Workload(name, setup, run_item, score, check)


def _lattice_picks(inputs, rng, count, margin):
    """Seeded (pair name, image, keypoint) picks on the match lattice,
    at least ``margin`` px inside the image."""
    mcfg = inputs.context["mcfg"]
    picks = []
    for _ in range(count):
        pair = inputs.context["pairs"][rng.integers(len(inputs.context["pairs"]))]
        img = (pair.reference, pair.transformed)[rng.integers(2)]
        lattice = [
            kp
            for kp in descriptor.grid_keypoints(img, mcfg.stride, mcfg.base_size)
            if margin <= kp.u <= img.width - 1 - margin and margin <= kp.v <= img.height - 1 - margin
        ]
        picks.append((pair.name, img, lattice[rng.integers(len(lattice))]))
    return picks


def _histogram_check(inputs, seed):
    """Pixel oracle against single_size_descriptor and dsp_descriptor."""
    mcfg = inputs.context["mcfg"]
    cfg, prior = mcfg.descriptor, mcfg.prior
    side = mcfg.base_size * cfg.support_factor
    sides = [m * side for m in prior.multipliers]
    # room for the widest pooled window at any rotation
    margin = math.ceil(max(sides) / 2.0 * math.sqrt(2.0)) + 1
    rng = np.random.default_rng([seed, 1])
    failures = []
    for n, (pair, img, kp) in enumerate(_lattice_picks(inputs, rng, 3, margin)):
        if n == 2:
            kp = descriptor.Keypoint(kp.u, kp.v, kp.base_size, float(rng.uniform(0.0, 2.0 * math.pi)))
        field = image.compute_gradients(img)
        name = f"{pair} ({kp.u}, {kp.v}, {kp.orientation:.3f})"
        single = descriptor.single_size_descriptor(field, kp, side, cfg)
        failures += checks.histogram_failures(
            f"sift {name}", checks.oracle_descriptor(field, kp, [side], [1.0], cfg), single.values
        )
        pooled = descriptor.dsp_descriptor(field, kp, prior, cfg)
        failures += checks.histogram_failures(
            f"dsp-sift {name}", checks.oracle_descriptor(field, kp, sides, prior.weights, cfg), pooled.values
        )
    return failures


def _scattering_check(inputs, seed):
    """FFT against direct scattering on one patch; symmetry on pooled vectors."""
    mcfg = inputs.context["mcfg"]
    bank = mcfg.scattering_bank()
    side = mcfg.base_size * mcfg.descriptor.support_factor
    margin = math.ceil(max(mcfg.prior.multipliers) * side / 2.0) + 1
    failures = []
    rng = np.random.default_rng([seed, 1])
    for n, (pair, img, kp) in enumerate(_lattice_picks(inputs, rng, 2, margin)):
        name = f"{pair} ({kp.u}, {kp.v})"
        if n == 0:
            patch = image.extract_patch(img, (kp.u, kp.v), side, 32)
            fft = scattering.scatter(patch, bank, method="fft")
            direct = scattering.scatter(patch, bank, method="direct")
            failures += checks.scattering_failures(f"sc {name}", fft, direct)
        pooled = scattering.dsp_scatter(img, kp, mcfg.prior, bank=bank)
        failures += checks.scattering_failures(f"dsp-sc {name}", pooled)
    return failures


# ---------------------------------------------------------------------------
# orbit-template


@dataclass(frozen=True)
class OrbitItem:
    index: int
    texture: image.ImageBuffer
    queries: Tuple[image.ImageBuffer, ...]
    true_indices: Tuple[int, ...]  # 1-based sample per query; first four are exact


def _orbit_item(seed, index):
    texture = textures.filtered_noise(ORBIT_SIDE, ORBIT_SIDE, seed=[seed, index], smooth=1.8)
    queries, truths = [], []
    # GroupSampleSet.default(): 4 quarter turns x scales 2**-0.5, 1, 2**0.5
    for k in range(4):
        warped, _ = image.warp(texture, image.SimilarityTransform(rotation=np.pi * k / 2.0))
        queries.append(warped)
        truths.append(3 * k + 2)
    rng = np.random.default_rng([seed, index, 1])
    for _ in range(ORBIT_OFF_GRID):
        sample = int(rng.integers(12))
        turn, level = divmod(sample, 3)
        g = image.SimilarityTransform(
            scale=2.0 ** (0.5 * (level - 1) + rng.uniform(-0.2, 0.2)),
            rotation=np.pi * turn / 2.0 + rng.uniform(-0.3, 0.3),
        )
        gamma = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        warped, _ = image.warp(texture, g)
        queries.append(image.apply_contrast(warped, image.GammaContrast(gamma)))
        truths.append(sample + 1)
    return OrbitItem(index, texture, tuple(queries), tuple(truths))


def _orbit_setup(seed):
    items = [_orbit_item(seed, i) for i in range(ORBIT_TEXTURES)]
    context = {
        "grid": soa.GroupSampleSet.default(),
        "delta": soa.GroupSampleSet.default(anti_alias="delta"),
    }
    inputs = Inputs(_permuted(items, seed), context)
    _orbit_run(inputs, items[0])
    return inputs


def _orbit_run(inputs, item):
    grid = soa.build_template(item.texture, ORBIT_KP, inputs.context["grid"], ORBIT_CFG)
    delta = soa.build_template(item.texture, ORBIT_KP, inputs.context["delta"], ORBIT_CFG)
    out = []
    for query in item.queries:
        field = image.compute_gradients(query)
        d = descriptor.single_size_descriptor(field, ORBIT_KP, ORBIT_WINDOW, ORBIT_CFG)
        out.append((soa.soa_likelihood(delta, d), soa.soa_likelihood(grid, d)))
    return out


def _orbit_score(inputs, results):
    failures = []
    rr_delta, rr_grid = [], []
    for item, scored in sorted(results, key=lambda r: r[0].index):
        deltas = [d for d, _ in scored]
        grids = [g for _, g in scored]
        failures += checks.orbit_failures(
            f"texture {item.index}", deltas[:4], grids[:4], item.true_indices[:4], 3
        )
        for (d, g), true in zip(scored, item.true_indices):
            rr_delta.append(checks.reciprocal_rank(d.per_sample_scores, true))
            rr_grid.append(checks.reciprocal_rank(g.per_sample_scores, true))
    return math.fsum(rr_delta) / len(rr_delta), math.fsum(rr_grid) / len(rr_grid), failures


def _orbit_check(inputs, seed):
    """Pixel oracle on the query descriptors of one seeded texture."""
    rng = np.random.default_rng([seed, 1])
    item = inputs.items[rng.integers(len(inputs.items))]
    failures = []
    for q in (0, 1, 4):
        field = image.compute_gradients(item.queries[q])
        got = descriptor.single_size_descriptor(field, ORBIT_KP, ORBIT_WINDOW, ORBIT_CFG)
        want = checks.oracle_descriptor(field, ORBIT_KP, [ORBIT_WINDOW], [1.0], ORBIT_CFG)
        failures += checks.histogram_failures(f"texture {item.index} query {q}", want, got.values)
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        _scale_workload(
            "scale-hist",
            ("sift", "dsp-sift"),
            range(0, DIRECTIONAL_BASES, 4),
            SCALES,
            _histogram_check,
        ),
        _scale_workload(
            "scale-scatter",
            ("sc", "dsp-sc"),
            range(0, DIRECTIONAL_BASES, 10),
            (SCALES[0], SCALES[-1]),
            _scattering_check,
        ),
        Workload(
            "orbit-template",
            _orbit_setup,
            _orbit_run,
            _orbit_score,
            _orbit_check,
        ),
    )
}
