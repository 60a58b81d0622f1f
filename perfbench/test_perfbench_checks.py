"""The benchmark's checks pass on the library and fail on perturbed outputs.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from orbitpool import bench, descriptor, image, scattering, soa, textures  # noqa: E402

CFG = descriptor.DescriptorConfig()


def _nudged(values, eps=1e-7):
    """Move a little mass between two entries; the l1 norm is unchanged."""
    v = np.array(values, dtype=float)
    v[0] += eps
    v[1] -= eps
    return v


@pytest.fixture(scope="module")
def field():
    return image.compute_gradients(textures.filtered_noise(48, 48, seed=5, smooth=1.8))


@pytest.mark.parametrize("orientation", [0.0, 0.7])
def test_histogram_oracle_single_size(field, orientation):
    kp = descriptor.Keypoint(24.0, 23.0, 4.0, orientation)
    got = descriptor.single_size_descriptor(field, kp, 12.0, CFG)
    want = checks.oracle_descriptor(field, kp, [12.0], [1.0], CFG)
    assert checks.histogram_failures("sift", want, got.values) == []
    assert checks.histogram_failures("sift", want, _nudged(got.values))


def test_histogram_oracle_pooled(field):
    kp = descriptor.Keypoint(24.0, 24.0, 4.0)
    prior = descriptor.SizePrior.default()
    got = descriptor.dsp_descriptor(field, kp, prior, CFG)
    sides = [m * 12.0 for m in prior.multipliers]
    want = checks.oracle_descriptor(field, kp, sides, prior.weights, CFG)
    assert checks.histogram_failures("dsp-sift", want, got.values) == []
    assert checks.histogram_failures("dsp-sift", want, _nudged(got.values))
    # pooling the normalized grids instead of the raw ones is a real bug
    # the oracle must see
    per_size = [checks.oracle_descriptor(field, kp, [s], [1.0], CFG) for s in sides]
    wrong = np.average(per_size, axis=0, weights=prior.weights)
    assert checks.histogram_failures("dsp-sift", want, wrong)


@pytest.fixture(scope="module")
def patch_vectors():
    img = textures.filtered_noise(64, 64, seed=9, smooth=1.8)
    patch = image.extract_patch(img, (31.0, 30.0), 18.0, 32)
    bank = scattering.build_filter_bank()
    return (
        scattering.scatter(patch, bank, method="fft"),
        scattering.scatter(patch, bank, method="direct"),
    )


def test_scattering_checks(patch_vectors):
    fft, direct = patch_vectors
    assert checks.scattering_failures("sc", fft, direct) == []
    o1 = fft.order1.copy()
    o1[1, 2] *= 1.0 + 1e-6
    bent = scattering.ScatteringVector(fft.order0, o1, fft.order2, fft.pairs)
    msgs = checks.scattering_failures("sc", bent, direct)
    assert any("direct" in m for m in msgs)
    assert any("order 1" in m for m in msgs)
    o2 = fft.order2.copy()
    o2[0, 1, 6] *= 1.0 + 1e-6
    bent = scattering.ScatteringVector(fft.order0, fft.order1, o2, fft.pairs)
    assert any("second index" in m for m in checks.scattering_failures("sc", bent))


@pytest.fixture(scope="module")
def report():
    base = textures.filtered_noise(64, 64, seed=3, smooth=1.8)
    spec = bench.SynthSpec(scale_range=(0.8, 0.8))
    pair = bench.make_pair(base, spec, np.random.default_rng(0), name="p")
    return bench.evaluate([pair], ("sift",))


def test_ap_check(report):
    ap, failures = checks.ap_from_rows(report)
    assert failures == []
    assert ap["sift"][0] == pytest.approx(report.mean_ap["sift"], abs=1e-15)
    # one more correct match at the loosest threshold: the stated mean AP
    # no longer follows from the rows
    last = report.records[-1]
    bumped = dataclasses.replace(last, correct=last.correct + 1, accepted=last.accepted + 1)
    bent = dataclasses.replace(report, records=report.records[:-1] + (bumped,))
    assert any("rows give" in m for m in checks.ap_from_rows(bent)[1])
    # a recall that falls as the threshold rises
    first = report.records[0]
    dropped = dataclasses.replace(report.records[1], correct=first.correct - 1)
    bent = dataclasses.replace(report, records=(first, dropped) + report.records[2:])
    assert any("recall falls" in m for m in checks.ap_from_rows(bent)[1])


def test_pooling_check():
    assert checks.pooling_failures(0.80, 0.85) == []
    assert checks.pooling_failures(0.85, 0.85) == []
    assert checks.pooling_failures(0.85, 0.80)


@pytest.fixture(scope="module")
def orbit_results():
    img = textures.filtered_noise(64, 64, seed=11, smooth=1.8)
    kp = descriptor.Keypoint(31.5, 31.5, 6.0)
    grid = soa.build_template(img, kp, soa.GroupSampleSet.default())
    delta = soa.build_template(img, kp, soa.GroupSampleSet.default(anti_alias="delta"))
    deltas, grids = [], []
    for k in range(4):
        q, _ = image.warp(img, image.SimilarityTransform(rotation=np.pi * k / 2.0))
        d = descriptor.single_size_descriptor(image.compute_gradients(q), kp, 18.0)
        deltas.append(soa.soa_likelihood(delta, d))
        grids.append(soa.soa_likelihood(grid, d))
    return deltas, grids, [3 * k + 2 for k in range(4)]


def test_orbit_checks(orbit_results):
    deltas, grids, truths = orbit_results
    assert checks.orbit_failures("t", deltas, grids, truths, 3) == []
    # a true-sample score a hair below 1
    scores = list(deltas[1].per_sample_scores)
    scores[truths[1] - 1] -= 1e-9
    low = soa.SOAResult(max(scores), scores.index(max(scores)) + 1, tuple(scores))
    msgs = checks.orbit_failures("t", [deltas[0], low] + deltas[2:], grids, truths, 3)
    assert any("not 1" in m for m in msgs)
    # the anti-aliased winner fails to follow the quarter turns
    assert checks.orbit_failures("t", deltas, [grids[0]] * 4, truths, 3)
    # the delta winner lands on the wrong sample
    assert checks.orbit_failures("t", deltas[1:] + deltas[:1], grids, truths, 3)


def test_reciprocal_rank():
    assert checks.reciprocal_rank((0.2, 0.9, 0.5), 2) == 1.0
    assert checks.reciprocal_rank((0.2, 0.9, 0.5), 3) == 0.5
    assert checks.reciprocal_rank((0.9, 0.9, 0.5), 2) == 1.0


def test_tracer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = tracing.layer_metrics(tracing.Tracer(), 1, 1, 0.0, 0.0)
    assert {name: unit for name, (_, unit) in got.items()} == want


def test_tracer_counts_and_restores(field):
    original = image.compute_gradients
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bench.compute_gradients is not original
        tracer.phase = tracing.TIMED
        kp = descriptor.Keypoint(24.0, 24.0, 4.0)
        descriptor.dsp_descriptor(field, kp)
        with pytest.raises(image.SupportError):
            descriptor.dsp_descriptor(field, descriptor.Keypoint(3.0, 3.0, 4.0))
    finally:
        tracer.uninstall()
    assert bench.compute_gradients is original and image.compute_gradients is original
    m = tracing.layer_metrics(tracer, 1, 1, 0.0, 0.0)
    cells = CFG.cells * CFG.cells * len(descriptor.SizePrior.default().multipliers)
    assert m["descriptor.dsp_descriptor.calls"][0] == 2
    assert m["descriptor.support_errors"][0] == 1
    assert m["descriptor.kept_ratio"][0] == 0.5
    # one soft_vote per non-empty cell and size, and at most one per cell
    assert 0 < m["orientation.soft_vote.calls"][0] <= cells
    assert m["orientation.soft_vote.votes"][0] % CFG.bins == 0
