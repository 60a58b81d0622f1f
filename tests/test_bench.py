import io
import math

import numpy as np
import pytest

from orbitpool import bench
from orbitpool.bench import (
    KINDS,
    SCATTER_FLAT_TOL,
    THRESHOLDS,
    EvalRecord,
    EvalReport,
    MatchConfig,
    SynthSpec,
    _pr_area,
    _sweep,
    describe,
    describe_kinds,
    evaluate,
    load_pair,
    make_pair,
    match_pair,
    save_pair,
    synth_pairs,
)
from orbitpool.descriptor import (
    DescriptorConfig,
    Keypoint,
    SizePrior,
    dog_keypoints,
    dsp_descriptor,
    grid_keypoints,
)
from orbitpool.image import ImageBuffer, SupportError, compute_gradients
from orbitpool.scattering import build_filter_bank, dsp_scatter
from orbitpool import textures


def noise_base(seed, side=96):
    return textures.filtered_noise(side, side, seed=seed, smooth=1.8)


class TestSynthSpec:
    def test_defaults_are_identity(self):
        spec = SynthSpec()
        assert spec.scale_range == (1.0, 1.0)
        assert spec.occlusion == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scale_range": (0.4, 1.0)},
            {"scale_range": (1.0, 2.5)},
            {"scale_range": (1.5, 1.2)},
            {"rotation_range": (-4.0, 0.0)},
            {"occlusion": 0.6},
            {"occlusion": -0.1},
            {"contrast": "posterize"},
        ],
    )
    def test_rejects_bad_ranges(self, kwargs):
        with pytest.raises(ValueError):
            SynthSpec(**kwargs)


class TestMakePair:
    def test_identity_spec_copies_base(self):
        base = noise_base(3)
        pair = make_pair(base, SynthSpec(), np.random.default_rng(0))
        assert np.array_equal(pair.transformed.values, base.values)
        assert pair.covisible_mask.all()
        assert pair.occluder is None
        assert pair.contrast is None

    def test_draws_stay_inside_ranges(self):
        spec = SynthSpec(scale_range=(0.7, 1.3), rotation_range=(-0.5, 0.5), contrast="mixed")
        for seed in range(6):
            pair = make_pair(noise_base(4), spec, np.random.default_rng(seed))
            assert 0.7 <= pair.ground_truth.scale <= 1.3
            assert -0.5 <= pair.ground_truth.rotation <= 0.5

    def test_occluder_area_and_mask(self):
        base = noise_base(5, side=100)
        pair = make_pair(base, SynthSpec(occlusion=0.25), np.random.default_rng(2))
        u0, v0, rw, rh = pair.occluder
        assert abs(rw * rh - 2500) <= rw
        box = np.zeros((100, 100), dtype=bool)
        box[v0 : v0 + rh, u0 : u0 + rw] = True
        # identity warp, so the occluder is the only masked-out region
        assert np.array_equal(~pair.covisible_mask, box)
        assert np.array_equal(pair.transformed.values[~box], base.values[~box])
        assert not np.array_equal(pair.transformed.values[box], base.values[box])

    def test_scale_pair_masks_border(self):
        pair = make_pair(noise_base(6), SynthSpec(scale_range=(0.7, 0.7)), np.random.default_rng(1))
        assert not pair.covisible_mask.all()
        # shrunk content leaves the outer ring unexplained by any source pixel
        assert not pair.covisible_mask[0].any()

    def test_project_matches_transform(self):
        pair = make_pair(noise_base(7), SynthSpec(scale_range=(1.2, 1.2)), np.random.default_rng(3))
        p = pair.project((30.0, 40.0))
        q = pair.ground_truth.map_pixel((30.0, 40.0), pair.reference.center)
        assert np.allclose(p, q)

    def test_covisible_outside_image(self):
        pair = make_pair(noise_base(8), SynthSpec(), np.random.default_rng(4))
        assert not pair.covisible((-5.0, 10.0))
        assert not pair.covisible((10.0, 500.0))
        assert pair.covisible((48.0, 48.0))


class TestSynthPairs:
    def test_empty_bases_rejected(self):
        with pytest.raises(ValueError):
            synth_pairs([], SynthSpec(), seed=1)

    def test_seed_determinism_bit_identical(self):
        bases = [noise_base(10), noise_base(11)]
        spec = SynthSpec(scale_range=(0.8, 1.4), rotation_range=(-1.0, 1.0), contrast="mixed", occlusion=0.2)
        a = synth_pairs(bases, spec, seed=42)
        b = synth_pairs(bases, spec, seed=42)
        for pa, pb in zip(a, b):
            assert pa.name == pb.name
            assert np.array_equal(pa.transformed.values, pb.transformed.values)
            assert np.array_equal(pa.covisible_mask, pb.covisible_mask)
            assert pa.ground_truth == pb.ground_truth
            assert pa.occluder == pb.occluder

    def test_different_seeds_differ(self):
        bases = [noise_base(10)]
        spec = SynthSpec(scale_range=(0.8, 1.4))
        a = synth_pairs(bases, spec, seed=1)[0]
        b = synth_pairs(bases, spec, seed=2)[0]
        assert a.ground_truth.scale != b.ground_truth.scale


class TestPairIO:
    def test_roundtrip(self, tmp_path):
        spec = SynthSpec(scale_range=(1.2, 1.2), rotation_range=(0.3, 0.3), contrast="gamma", occlusion=0.1)
        pair = make_pair(noise_base(12), spec, np.random.default_rng(5), name="rt")
        save_pair(pair, tmp_path / "rt")
        back = load_pair(tmp_path / "rt")
        assert back.name == "rt"
        assert back.ground_truth.scale == pair.ground_truth.scale
        assert back.ground_truth.rotation == pair.ground_truth.rotation
        assert back.occluder == pair.occluder
        assert np.array_equal(back.covisible_mask, pair.covisible_mask)
        # images survive 8-bit quantization
        assert np.allclose(back.reference.values, pair.reference.values, atol=1 / 255 + 1e-12)
        assert np.allclose(back.transformed.values, pair.transformed.values, atol=1 / 255 + 1e-12)
        assert type(back.contrast) is type(pair.contrast)

    @pytest.mark.parametrize("contrast, occlusion", [("none", 0.0), ("gamma", 0.1), ("affine", 0.2)])
    def test_saved_pair_saves_unchanged(self, tmp_path, contrast, occlusion):
        # the first save quantizes to 8 bits; saving what it loads again
        # must change nothing
        spec = SynthSpec(scale_range=(0.7, 1.4), rotation_range=(-1.0, 1.0), contrast=contrast, occlusion=occlusion)
        save_pair(make_pair(noise_base(13), spec, np.random.default_rng(6), name="rt2"), tmp_path / "a")
        first = load_pair(tmp_path / "a")
        save_pair(first, tmp_path / "b")
        second = load_pair(tmp_path / "b")
        for name in ("reference", "transformed"):
            assert getattr(second, name).values.tobytes() == getattr(first, name).values.tobytes()
        assert second.covisible_mask.tobytes() == first.covisible_mask.tobytes()
        assert (second.name, second.ground_truth, second.contrast, second.occluder) == (
            first.name, first.ground_truth, first.contrast, first.occluder
        )
        for file in ("reference.pgm", "transformed.pgm", "mask.pgm", "meta.json"):
            assert (tmp_path / "b" / file).read_bytes() == (tmp_path / "a" / file).read_bytes()

    def test_missing_meta(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_pair(tmp_path)


class TestMatchConfig:
    def test_callers_values_accepted(self):
        for ratio in (0.8, 0.95, 1.0, max(THRESHOLDS)):
            assert MatchConfig(ratio=ratio, radius=3.0).ratio == ratio

    @pytest.mark.parametrize("ratio", [math.nan, 0.0, -0.5, 1.5, math.inf])
    def test_ratio_outside_unit_interval_rejected(self, ratio):
        with pytest.raises(ValueError, match="ratio must be in"):
            MatchConfig(ratio=ratio)

    @pytest.mark.parametrize("radius", [math.nan, 0.0, -3.0, math.inf])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            MatchConfig(radius=radius)


class TestMatchPair:
    @pytest.mark.parametrize("kind", ["sift", "dsp-sift"])
    def test_identity_pair_mostly_correct(self, kind):
        pair = make_pair(noise_base(13), SynthSpec(), np.random.default_rng(0), name="id")
        pm = match_pair(pair, kind)
        assert len(pm.records) > 0
        assert not pm.warning
        correct = sum(r.correct for r in pm.records)
        assert correct >= 0.95 * len(pm.records)

    @pytest.mark.parametrize("kind", ["sc", "dsp-sc"])
    def test_identity_pair_mostly_correct_scattering(self, kind):
        pair = make_pair(noise_base(13, side=64), SynthSpec(), np.random.default_rng(0), name="id")
        pm = match_pair(pair, kind)
        assert len(pm.records) > 0
        correct = sum(r.correct for r in pm.records)
        assert correct >= 0.95 * len(pm.records)

    def test_unknown_kind(self):
        pair = make_pair(noise_base(13), SynthSpec(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            match_pair(pair, "orb")

    def test_occluded_counterparts_leave_denominator(self):
        base = noise_base(14)
        pair = make_pair(base, SynthSpec(occlusion=0.25), np.random.default_rng(8), name="occ")
        clean = make_pair(base, SynthSpec(), np.random.default_rng(8), name="clean")
        pm = match_pair(pair, "sift")
        pm_clean = match_pair(clean, "sift")
        u0, v0, rw, rh = pair.occluder
        inside = [
            kp for kp in grid_keypoints(pair.reference, 12, 6.0)
            if u0 <= kp.u < u0 + rw and v0 <= kp.v < v0 + rh
        ]
        assert inside, "occluder should cover part of the keypoint lattice"
        assert pm.candidates <= pm_clean.candidates - len(inside)

    def test_no_correct_credit_inside_occluder(self):
        for seed in range(4):
            pair = make_pair(noise_base(15 + seed), SynthSpec(occlusion=0.25),
                             np.random.default_rng(seed), name=f"occ{seed}")
            u0, v0, rw, rh = pair.occluder
            pm = match_pair(pair, "dsp-sift", MatchConfig(ratio=0.95))
            for r in pm.records:
                if r.correct:
                    assert r.covisible_ref and r.covisible_matched
                    pu, pv = r.projected
                    assert not (u0 <= round(pu) < u0 + rw and v0 <= round(pv) < v0 + rh)

    def test_flat_image_warns_or_rejects_everything(self):
        flat = ImageBuffer.from_array(np.full((96, 96), 0.5))
        pair = make_pair(flat, SynthSpec(), np.random.default_rng(0), name="flat")
        pm = match_pair(pair, "sift")
        # degenerate descriptors all coincide: the ratio test kills every match
        assert len(pm.records) == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_black_image_rows_are_degenerate(self, kind):
        black = ImageBuffer.from_array(np.zeros((48, 48)))
        mcfg = MatchConfig()
        kept, matrix, degenerate = describe(
            black, grid_keypoints(black, 16, 8.0), kind,
            mcfg.prior, mcfg.descriptor, mcfg.scattering_bank(),
        )
        assert kept == [4]  # the center of the 3x3 lattice is the only full window
        assert degenerate.tolist() == [True]

    def test_support_factor_sets_the_window_of_every_kind(self):
        # sift and sc read the same window side, base_size * support_factor,
        # so a smaller factor keeps the same extra keypoints near the border
        img = textures.benchmark_bases(2)[1]
        mcfg = MatchConfig()
        kps = grid_keypoints(img, mcfg.stride, mcfg.base_size)
        counts = []
        for factor in (2.0, 3.0):
            cfg = DescriptorConfig(support_factor=factor)
            sift, sc = (
                describe(img, kps, kind, SizePrior.delta(), cfg, mcfg.scattering_bank())[0]
                for kind in ("sift", "sc")
            )
            assert sc == sift
            counts.append(len(sc))
        assert counts == [49, 36]

    @pytest.mark.parametrize("kind", KINDS)
    def test_flat_image_rows_are_degenerate(self, kind):
        # a nonzero constant leaves scattering round-off of about 1e-17,
        # which must not be normalized up to a unit vector
        flat = ImageBuffer.from_array(np.full((80, 80), 0.5))
        mcfg = MatchConfig()
        kept, matrix, degenerate = describe(
            flat, grid_keypoints(flat, 16, 8.0), kind,
            mcfg.prior, mcfg.descriptor, mcfg.scattering_bank(),
        )
        assert len(kept) > 1
        assert degenerate.all()
        if kind in ("sc", "dsp-sc"):
            assert not matrix.any()

    @pytest.mark.parametrize("kind", ["sift", "dsp-sift"])
    def test_histogram_rows_equal_one_descriptor_per_keypoint(self, kind):
        # DoG keypoints mix base sizes; the rotated lattice mixes chunks
        # and crosses the border
        pair = make_pair(noise_base(21), SynthSpec(scale_range=(1.2, 1.2)), np.random.default_rng(4), name="p")
        mcfg = MatchConfig()
        prior = mcfg.prior if kind == "dsp-sift" else SizePrior.delta()
        for img in (pair.reference, pair.transformed):
            lattice = grid_keypoints(img, 7, 5.0)
            rotated = [Keypoint(kp.u + 0.25, kp.v - 0.5, kp.base_size, 0.9) for kp in lattice]
            for kps in (dog_keypoints(img), rotated):
                kept, matrix, degenerate = describe(img, kps, kind, mcfg.prior, mcfg.descriptor, None)
                field = compute_gradients(img)
                want = []
                for i, kp in enumerate(kps):
                    try:
                        want.append((i, dsp_descriptor(field, kp, prior, mcfg.descriptor)))
                    except SupportError:
                        continue
                assert 0 < len(kept) < len(kps)
                assert kept == [i for i, _ in want]
                assert matrix.tobytes() == np.stack([d.values for _, d in want]).tobytes()
                assert degenerate.tolist() == [d.degenerate for _, d in want]

    def test_brute_force_oracle_on_scale_pair(self):
        pair = make_pair(noise_base(16), SynthSpec(scale_range=(1.2, 1.2)),
                         np.random.default_rng(9), name="s12")
        mcfg = MatchConfig(ratio=0.8)
        pm = match_pair(pair, "dsp-sift", mcfg)

        ref_kps = grid_keypoints(pair.reference, 12, 6.0)
        projections = [pair.project((kp.u, kp.v)) for kp in ref_kps]
        ref_field = compute_gradients(pair.reference)
        qry_field = compute_gradients(pair.transformed)
        ref_vecs, pool_vecs, pool_ids = {}, [], []
        for i, kp in enumerate(ref_kps):
            try:
                ref_vecs[i] = dsp_descriptor(ref_field, kp).values
            except ValueError:
                pass
        for i, p in enumerate(projections):
            try:
                pool_vecs.append(dsp_descriptor(qry_field, Keypoint(p[0], p[1], 6.0)).values)
                pool_ids.append(i)
            except ValueError:
                pass

        expected = {}
        for i, vec in ref_vecs.items():
            dists = [math.sqrt(float(np.sum((vec - q) ** 2))) for q in pool_vecs]
            order = sorted(range(len(dists)), key=lambda j: dists[j])
            d1, d2 = dists[order[0]], dists[order[1]]
            ratio = d1 / d2 if d2 > 0 else 1.0
            if ratio > 0.8:
                continue
            m = pool_ids[order[0]]
            proj, mp = projections[i], projections[m]
            hit = math.hypot(proj[0] - mp[0], proj[1] - mp[1]) <= 3.0
            correct = hit and pair.covisible(proj) and pair.covisible(mp)
            expected[i] = (m, correct)

        got = {r.ref_index: (r.matched_index, r.correct) for r in pm.records}
        assert got == expected


def scattering_oracle(img, kps, prior, bank):
    """Rows of a scattering kind from one ``dsp_scatter`` per keypoint."""
    kept, rows, flags = [], [], []
    for i, kp in enumerate(kps):
        try:
            vec = dsp_scatter(img, kp, prior, bank)
        except SupportError:
            continue
        flat = vec.flatten()[1:]
        norm = np.linalg.norm(flat)
        flag = norm <= SCATTER_FLAT_TOL * abs(vec.order0)
        kept.append(i)
        rows.append(np.zeros_like(flat) if flag else flat / norm)
        flags.append(flag)
    return kept, np.stack(rows), flags


class TestDescribeKinds:
    """One description of an image for all kinds equals describing kind by kind."""

    @pytest.fixture(scope="class")
    def pairs(self):
        ramp = textures.benchmark_bases(1)[0]
        return [
            make_pair(ramp, SynthSpec(scale_range=(0.7, 0.7)), np.random.default_rng([77, 0, 70]), name="ramp"),
            make_pair(noise_base(26), SynthSpec(scale_range=(1.2, 1.2), rotation_range=(0.4, 0.4)),
                      np.random.default_rng(3), name="noise"),
        ]

    @pytest.mark.parametrize(
        "prior, layout",
        [
            (SizePrior.default(), "rotated"),  # keypoints cross the border and are dropped
            (SizePrior.uniform((0.8, 1.2)), "rotated"),  # no 1.0 side for sc to take
            (SizePrior.uniform((0.9, 1.0, 1.1)), "inside"),  # every side of every keypoint fits
        ],
    )
    def test_rows_equal_one_kind_at_a_time(self, pairs, prior, layout):
        mcfg = MatchConfig()
        bank = mcfg.scattering_bank()
        for pair in pairs:
            for img in (pair.reference, pair.transformed):
                lattice = grid_keypoints(img, 11, 5.0)
                if layout == "rotated":
                    kps = [Keypoint(kp.u + 0.25, kp.v - 0.5, kp.base_size, 0.9) for kp in lattice]
                else:
                    kps = [kp for kp in lattice if 15.0 <= min(kp.u, kp.v, 95.0 - kp.u, 95.0 - kp.v)]
                every = describe_kinds(img, kps, KINDS, prior, mcfg.descriptor, bank)
                assert list(every) == list(KINDS)
                for kind in KINDS:
                    kept, matrix, degenerate = every[kind]
                    one = describe(img, kps, kind, prior, mcfg.descriptor, bank)
                    assert kept == one[0]
                    assert matrix.tobytes() == one[1].tobytes()
                    assert degenerate.tobytes() == one[2].tobytes()
                    if layout == "rotated":
                        assert 0 < len(kept) < len(kps)
                    else:
                        assert len(kept) == len(kps)
                for kind in ("sc", "dsp-sc"):
                    want = scattering_oracle(img, kps, SizePrior.delta() if kind == "sc" else prior, bank)
                    kept, matrix, degenerate = every[kind]
                    assert kept == want[0]
                    assert matrix.tobytes() == want[1].tobytes()
                    assert degenerate.tolist() == want[2]

    def test_repeated_kinds_give_one_entry(self):
        img = noise_base(27, side=64)
        mcfg = MatchConfig()
        kps = grid_keypoints(img, 12, 6.0)
        args = (mcfg.prior, mcfg.descriptor, mcfg.scattering_bank())
        every = describe_kinds(img, kps, ["sc", "sift", "sc"], *args)
        assert list(every) == ["sc", "sift"]
        assert every["sc"][1].tobytes() == describe(img, kps, "sc", *args)[1].tobytes()

    def test_bank_too_large_for_the_sample_raises(self):
        # the largest kernel of a 4-scale bank is 53 px, and every window
        # is resampled to 32
        img = noise_base(28, side=64)
        mcfg = MatchConfig()
        with pytest.raises(SupportError, match="largest kernel"):
            describe(img, grid_keypoints(img, 12, 6.0), "sc", mcfg.prior, mcfg.descriptor,
                     build_filter_bank(scales=4))


class TestWorkCounts:
    def test_each_image_described_once(self, monkeypatch):
        pair = make_pair(noise_base(29, side=72), SynthSpec(scale_range=(1.3, 1.3)),
                         np.random.default_rng(5), name="w")
        mcfg = MatchConfig(ratio=max(THRESHOLDS))
        ref_kps = grid_keypoints(pair.reference, mcfg.stride, mcfg.base_size)
        pool_kps = [Keypoint(*pair.project((kp.u, kp.v)), mcfg.base_size) for kp in ref_kps]
        args = (("sc", "dsp-sc"), mcfg.prior, mcfg.descriptor, mcfg.scattering_bank())
        want_scatters = 0
        for img, kps in ((pair.reference, ref_kps), (pair.transformed, pool_kps)):
            described = describe_kinds(img, kps, *args)
            for i, kp in enumerate(kps):
                sides = set()
                for kind, prior in (("sc", SizePrior.delta()), ("dsp-sc", mcfg.prior)):
                    if i in described[kind][0]:
                        sides.update(prior.sides([kp.base_size], mcfg.descriptor.support_factor)[0])
                want_scatters += len(sides)

        calls = {"compute_gradients": 0, "scatter": 0, "extract_patch": 0, "support_errors": 0}

        def counted(name, fn):
            def wrapper(*a, **k):
                calls[name] += 1
                try:
                    return fn(*a, **k)
                except SupportError:
                    calls["support_errors"] += 1
                    raise
            return wrapper

        for name in ("compute_gradients", "scatter", "extract_patch"):
            monkeypatch.setattr(bench, name, counted(name, getattr(bench, name)))
        report = evaluate([pair], KINDS, mcfg)
        assert len(report.records) == len(KINDS) * len(THRESHOLDS)
        assert calls == {
            "compute_gradients": 2,
            "scatter": want_scatters,
            "extract_patch": want_scatters,
            "support_errors": 0,
        }


class TestPRArea:
    def test_step_area_hand_case(self):
        rows = [
            EvalRecord("p", "sift", 0.6, correct=1, accepted=2, candidates=2),
            EvalRecord("p", "sift", 0.7, correct=2, accepted=4, candidates=2),
        ]
        # recall steps 0 -> 0.5 -> 1.0, precision 0.5 at both
        assert _pr_area(rows) == pytest.approx(0.5)

    def test_perfect_matcher_scores_one(self):
        rows = [EvalRecord("p", "k", t, 10, 10, 10) for t in THRESHOLDS]
        assert _pr_area(rows) == pytest.approx(1.0)

    def test_empty_scores_zero(self):
        rows = [EvalRecord("p", "k", t, 0, 0, 10) for t in THRESHOLDS]
        assert _pr_area(rows) == 0.0


class TestEvaluate:
    def test_validates_inputs(self):
        pair = make_pair(noise_base(17), SynthSpec(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            evaluate([], ["sift"])
        with pytest.raises(ValueError):
            evaluate([pair], [])
        with pytest.raises(ValueError):
            evaluate([pair], ["freak"])

    def test_identity_pair_ap_near_one(self):
        pair = make_pair(noise_base(18, side=64), SynthSpec(), np.random.default_rng(0), name="id")
        report = evaluate([pair], KINDS)
        for kind in KINDS:
            assert report.mean_ap[kind] >= 0.95
        assert report.runtime_seconds > 0

    def test_flat_pairs_flagged_with_zero_ap(self):
        flat = ImageBuffer.from_array(np.full((96, 96), 0.5))
        pair = make_pair(flat, SynthSpec(), np.random.default_rng(0), name="flat")
        report = evaluate([pair], ["sift"])
        assert report.mean_ap["sift"] == 0.0
        assert ("flat", "sift") in report.flagged

    def test_csv_schema_and_totals(self):
        pairs = [
            make_pair(noise_base(19), SynthSpec(), np.random.default_rng(0), name="a"),
            make_pair(noise_base(20), SynthSpec(scale_range=(1.2, 1.2)),
                      np.random.default_rng(1), name="b"),
        ]
        report = evaluate(pairs, ["sift"])
        buf = io.StringIO()
        report.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "pair,kind,threshold,precision,recall"
        assert len(lines) == 1 + 2 * len(THRESHOLDS)

        # hand-sum one pair's records against the CSV rows
        mcfg = MatchConfig(ratio=max(THRESHOLDS))
        for pair in pairs:
            pm = match_pair(pair, "sift", mcfg)
            for t in THRESHOLDS:
                acc = [r for r in pm.records if r.ratio <= t]
                cor = sum(1 for r in acc if r.correct)
                prec = cor / len(acc) if acc else 0.0
                rec = cor / pm.candidates if pm.candidates else 0.0
                row = next(
                    ln for ln in lines[1:]
                    if ln.startswith(f"{pair.name},sift,{t!r},")
                )
                _, _, _, p_s, r_s = row.split(",")
                assert float(p_s) == pytest.approx(prec)
                assert float(r_s) == pytest.approx(rec)

        per_pair = [report.average_precision(p.name, "sift") for p in pairs]
        assert report.mean_ap["sift"] == pytest.approx(float(np.mean(per_pair)))

    def test_rows_sorted_by_pair_kind_threshold(self):
        pairs = [
            make_pair(noise_base(21), SynthSpec(), np.random.default_rng(0), name="zz"),
            make_pair(noise_base(22), SynthSpec(), np.random.default_rng(1), name="aa"),
        ]
        report = evaluate(pairs, ["dsp-sift", "sift"])
        keys = [(r.pair, r.kind, r.threshold) for r in report.records]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("kinds", [["sift", "dsp-sift"], ["sift", "sift"]])
    def test_rows_in_task_order_for_shared_names(self, kinds):
        # two distinct pairs named alike: sorted (name, kind) tasks
        # interleave them by kind, and each must keep its own matches
        flat = ImageBuffer.from_array(np.full((64, 64), 0.5))
        pairs = [
            make_pair(noise_base(30, side=64), SynthSpec(scale_range=(1.2, 1.2)), np.random.default_rng(0), name="p"),
            make_pair(flat, SynthSpec(), np.random.default_rng(1), name="p"),
            make_pair(noise_base(31, side=64), SynthSpec(), np.random.default_rng(2), name="a"),
        ]
        mcfg = MatchConfig(ratio=max(THRESHOLDS))
        report = evaluate(pairs, kinds, mcfg)

        tasks = sorted(((p, k) for p in pairs for k in kinds), key=lambda t: (t[0].name, t[1]))
        records, flagged, ap = [], [], {k: [] for k in kinds}
        for p, k in tasks:
            pm = match_pair(p, k, mcfg)
            rows = _sweep(pm)
            records.extend(rows)
            ap[k].append(_pr_area(rows))
            if pm.warning or not pm.records:
                flagged.append((pm.pair, pm.kind))
        want = EvalReport(tuple(records), {k: float(np.mean(v)) for k, v in ap.items()}, 0.0, tuple(flagged))

        got_csv, want_csv = io.StringIO(), io.StringIO()
        report.write_csv(got_csv)
        want.write_csv(want_csv)
        assert got_csv.getvalue().encode() == want_csv.getvalue().encode()
        assert report.flagged == want.flagged
        assert ("p", "sift") in report.flagged
        assert report.mean_ap == want.mean_ap

    def test_byte_identical_reports(self):
        pairs = synth_pairs([noise_base(23), noise_base(24)],
                            SynthSpec(scale_range=(0.8, 1.3), occlusion=0.15), seed=7)
        outs = []
        for _ in range(2):
            report = evaluate(pairs, ["sift", "dsp-sift"])
            buf = io.StringIO()
            report.write_csv(buf)
            outs.append(buf.getvalue().encode())
        assert outs[0] == outs[1]

    def test_save_writes_file(self, tmp_path):
        pair = make_pair(noise_base(25), SynthSpec(), np.random.default_rng(0), name="f")
        report = evaluate([pair], ["sift"])
        report.save(tmp_path / "report.csv")
        text = (tmp_path / "report.csv").read_text()
        assert text.startswith("pair,kind,threshold,precision,recall\n")
        buf = io.StringIO()
        report.write_csv(buf)
        assert text == buf.getvalue()
