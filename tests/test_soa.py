"""Orbit sampling: template construction, anti-aliased scores, max rule."""

import io
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitpool import soa, textures
from orbitpool.descriptor import (
    Descriptor,
    DescriptorConfig,
    Keypoint,
    accumulate_grid,
    normalize_grid,
    single_size_descriptor,
    window_box,
)
from orbitpool.image import SimilarityTransform, SupportError, compute_gradients, warp
from orbitpool.soa import (
    GroupSampleSet,
    SOAResult,
    TemplateModel,
    anti_aliased_score,
    build_template,
    delta_perturbation,
    load_template,
    perturbation_grid,
    save_template,
    soa_likelihood,
)

# Even side puts the image center on half-integer coordinates, so pixel
# offsets from a centered keypoint are half-integers and never land exactly
# on a descriptor cell boundary.  That keeps quarter-turn warps an exact
# descriptor permutation, which the closure tests below rely on.
CENTER_KP = Keypoint(31.5, 31.5, 6.6)
SIZE = 3.0 * 6.6


def fixed_frame_descriptor(img):
    return single_size_descriptor(compute_gradients(img), CENTER_KP, SIZE)


class TestGroupSampleSet:
    def test_rotation_group_counts(self):
        s = GroupSampleSet.rotation_group(4)
        assert len(s) == 4
        for cloud in s.anti_alias:
            assert len(cloud) == 9
            assert abs(sum(w for _, w in cloud) - 1.0) < 1e-9

    def test_default_set(self):
        s = GroupSampleSet.default()
        assert len(s) == 12
        scales = sorted({g.scale for g in s.samples})
        npt.assert_allclose(scales, [2**-0.5, 1.0, 2**0.5])

    def test_weights_normalized(self):
        cloud = ((SimilarityTransform.identity(), 2.0), (SimilarityTransform(rotation=0.1), 6.0))
        s = GroupSampleSet((SimilarityTransform.identity(),), (cloud,))
        weights = [w for _, w in s.anti_alias[0]]
        npt.assert_allclose(weights, [0.25, 0.75])

    @pytest.mark.parametrize("make", [GroupSampleSet.rotation_group, GroupSampleSet.default])
    def test_anti_alias_names(self, make):
        assert len(make(anti_alias="delta").anti_alias[0]) == 1
        assert len(make(anti_alias="grid").anti_alias[0]) == 9
        for name in ("gird", "Grid", ""):
            with pytest.raises(ValueError, match="anti_alias"):
                make(anti_alias=name)

    def test_validation(self):
        with pytest.raises(ValueError):
            GroupSampleSet((), ())
        with pytest.raises(ValueError):
            GroupSampleSet((SimilarityTransform.identity(),), ())
        bad = ((SimilarityTransform.identity(), -1.0),)
        with pytest.raises(ValueError):
            GroupSampleSet((SimilarityTransform.identity(),), (bad,))

    @pytest.mark.parametrize(
        "weights, message",
        [
            ((math.nan, 1.0), "must be finite"),
            ((math.inf, 1.0), "must be finite"),
            ((1.0, -math.inf), "must be finite"),
            ((1e308, 1e308), "must have a finite sum"),
        ],
    )
    def test_non_finite_weights_rejected(self, weights, message):
        cloud = tuple((SimilarityTransform(rotation=0.1 * k), w) for k, w in enumerate(weights))
        with pytest.raises(ValueError, match=message):
            GroupSampleSet((SimilarityTransform.identity(),), (cloud,))


class TestBuildTemplate:
    def test_identity_collapse(self):
        img = textures.filtered_noise(64, 64, seed=0)
        samples = GroupSampleSet((SimilarityTransform.identity(),), (delta_perturbation(),))
        t = build_template(img, CENTER_KP, samples)
        plain = fixed_frame_descriptor(img)
        npt.assert_array_equal(t.descriptors[0].values, plain.values)

    def test_delta_cloud_equals_direct_recomputation(self):
        img = textures.filtered_noise(64, 64, seed=1)
        samples = GroupSampleSet.rotation_group(4, anti_alias="delta")
        t = build_template(img, CENTER_KP, samples)
        for i, g in enumerate(samples.samples):
            warped, _ = warp(img, g)
            direct = fixed_frame_descriptor(warped)
            npt.assert_array_equal(t.descriptors[i].values, direct.values)

    def test_two_rotation_cloud_average_oracle(self):
        img = textures.filtered_noise(64, 64, seed=2)
        cloud = (
            (SimilarityTransform(rotation=-0.1), 0.5),
            (SimilarityTransform(rotation=0.1), 0.5),
        )
        samples = GroupSampleSet((SimilarityTransform.identity(),), (cloud,))
        t = build_template(img, CENTER_KP, samples)

        cfg = DescriptorConfig()
        raws = []
        for g, _ in cloud:
            warped, _ = warp(img, g)
            raws.append(accumulate_grid(compute_gradients(warped), CENTER_KP, (SIZE,), (1.0,), cfg))
        expected = 0.5 * raws[0] + 0.5 * raws[1]
        npt.assert_allclose(t.descriptors[0].values, expected / expected.sum(), atol=1e-9)

    def test_uncovered_support_raises(self):
        img = textures.filtered_noise(64, 64, seed=3)
        samples = GroupSampleSet(
            (SimilarityTransform(scale=0.5),), (delta_perturbation(),)
        )
        with pytest.raises(SupportError):
            build_template(img, Keypoint(31.5, 31.5, 12.0), samples)


def whole_image_template(img, kp, samples, cfg):
    """Template descriptors from whole-image warps: warp the whole image,
    take its gradients, accumulate at the moved keypoint."""
    size = cfg.support_factor * kp.base_size
    descriptors = []
    for g_i, cloud in zip(samples.samples, samples.anti_alias):
        pooled = np.zeros(cfg.length)
        for g, weight in cloud:
            composed = g_i.compose(g)
            warped, mask = warp(img, composed)
            u, v = composed.map_pixel((kp.u, kp.v), img.center)
            moved = Keypoint(float(u), float(v), kp.base_size, kp.orientation)
            u0, u1, v0, v1 = window_box(moved, size, mask.shape)
            if not mask[v0 : v1 + 1, u0 : u1 + 1].all():
                raise SupportError(
                    f"warped support at ({moved.u:.1f}, {moved.v:.1f}) leaves the image domain"
                )
            pooled += accumulate_grid(compute_gradients(warped), moved, (size,), (weight,), cfg)
        descriptors.append(normalize_grid(pooled, kp, cfg).values)
    return descriptors


@st.composite
def border_cases(draw):
    """An image, a keypoint and one or two transform samples under either
    cloud, such that the first sample moves the keypoint's window to end
    between 1 px outside and 4 px inside one image border."""
    w = draw(st.integers(36, 60))
    h = draw(st.just(w) | st.integers(36, 60))
    img = textures.filtered_noise(w, h, seed=draw(st.integers(0, 2**32 - 1)))
    cfg = DescriptorConfig()
    base = draw(st.floats(1.5, 4.0))
    orientation = draw(st.just(0.0) | st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    turn = st.integers(0, 3).map(lambda k: k * math.pi / 2.0)
    # mostly zooming in, so that windows near a border are often covered
    transform = st.builds(
        SimilarityTransform,
        st.floats(-0.1, 0.4).map(math.exp),
        turn | st.tuples(turn, st.floats(-0.1, 0.1)).map(sum),
        st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    )
    samples = draw(st.lists(transform, min_size=1, max_size=2))
    cloud = draw(st.sampled_from([delta_perturbation(), perturbation_grid()]))

    # half the width of the rotated window's bounding box
    reach = 0.5 * cfg.support_factor * base * (abs(math.cos(orientation)) + abs(math.sin(orientation)))
    gap = draw(st.floats(-1.0, 4.0))
    border = draw(st.sampled_from(["left", "right", "top", "bottom"]))
    along = draw(st.floats(0.0, 1.0))
    if border in ("left", "right"):
        u = gap + reach if border == "left" else w - 1 - gap - reach
        v = reach + along * (h - 1 - 2 * reach)
    else:
        v = gap + reach if border == "top" else h - 1 - gap - reach
        u = reach + along * (w - 1 - 2 * reach)
    su, sv = samples[0].inverse().map_pixel((u, v), img.center)
    kp = Keypoint(float(su), float(sv), base, orientation)
    return img, kp, GroupSampleSet(tuple(samples), (cloud,) * len(samples)), cfg


class TestWindowedTemplate:
    """build_template warps and differentiates one window box per view; the
    whole-image path above is its oracle, bit for bit and error for error."""

    @settings(max_examples=80, deadline=None)
    @given(border_cases())
    def test_matches_whole_image_warps(self, case):
        img, kp, samples, cfg = case
        try:
            want = whole_image_template(img, kp, samples, cfg)
        except SupportError as exc:
            with pytest.raises(SupportError) as got:
                build_template(img, kp, samples, cfg)
            assert str(got.value) == str(exc)
            return
        got = build_template(img, kp, samples, cfg)
        for d, values in zip(got.descriptors, want):
            npt.assert_array_equal(d.values, values)

    def test_window_on_the_border_after_rounding(self):
        # The window's right edge is 70 + 2**-47, which rounds to 70, the
        # last column; shifted into its crop the same edge is 44 + 2**-47,
        # which is exact and so one ulp past the crop.  The view must
        # still give the whole image's descriptor.
        img = textures.filtered_noise(71, 61, seed=1)
        kp = Keypoint(50.0 + 2.0**-47, 30.0, 20.0)
        cfg = DescriptorConfig(support_factor=2.0)
        samples = GroupSampleSet((SimilarityTransform.identity(),), (delta_perturbation(),))
        got = build_template(img, kp, samples, cfg)
        npt.assert_array_equal(got.descriptors[0].values, whole_image_template(img, kp, samples, cfg)[0])

    @pytest.mark.parametrize("anti_alias", ["delta", "grid"])
    @pytest.mark.parametrize(
        "kp",
        [Keypoint(30.0, 30.0, 4.0), Keypoint(6.0, 30.0, 2.0), Keypoint(30.0, 56.25, 1.5)],
    )
    def test_window_edges_on_pixels(self, kp, anti_alias):
        # A window edge that falls on a pixel puts that pixel in the
        # window, so its gradient reads the full GRADIENT_MARGIN of the crop.
        img = textures.filtered_noise(64, 64, seed=11)
        cfg = DescriptorConfig()
        samples = GroupSampleSet.rotation_group(4, anti_alias=anti_alias)
        got = build_template(img, kp, samples, cfg)
        for d, values in zip(got.descriptors, whole_image_template(img, kp, samples, cfg)):
            npt.assert_array_equal(d.values, values)

    @pytest.mark.parametrize(
        "sample, kp, message",
        [
            # the moved window leaves the image
            (
                SimilarityTransform(translation=(-27.0, 0.0)),
                Keypoint(31.5, 31.5, 4.0),
                "window sides out of bounds at (4.5, 31.5) rotated by 0.000 in the 64x64 image: 12.00",
            ),
            # the moved window is inside the image but not inside the warp
            (
                SimilarityTransform(scale=0.5, translation=(10.0, 5.0)),
                Keypoint(31.5, 31.5, 12.0),
                "warped support at (41.5, 36.5) leaves the image domain",
            ),
        ],
    )
    def test_support_errors_name_whole_image_coordinates(self, sample, kp, message):
        img = textures.filtered_noise(64, 64, seed=3)
        samples = GroupSampleSet((sample,), (delta_perturbation(),))
        with pytest.raises(SupportError) as exc:
            build_template(img, kp, samples)
        assert str(exc.value) == message

    def assert_matches_oracle(self, img, kp, samples, cfg=DescriptorConfig()):
        got = build_template(img, kp, samples, cfg)
        want = whole_image_template(img, kp, samples, cfg)
        assert len(got.descriptors) == len(want)
        for d, values in zip(got.descriptors, want):
            npt.assert_array_equal(d.values, values)

    def test_unequal_cloud_weights(self):
        img = textures.filtered_noise(64, 64, seed=12)
        cloud = tuple(
            (SimilarityTransform(scale=math.exp(0.05 * k), rotation=0.04 * (k - 2), translation=(0.3 * k, -0.2)), w)
            for k, w in enumerate((0.5, 3.0, 1.0, 0.125, 2.0))
        )
        samples = GroupSampleSet(
            (SimilarityTransform.identity(), SimilarityTransform(scale=1.2, rotation=2.0)), (cloud, cloud[::-1])
        )
        assert len({w for _, w in samples.anti_alias[0]}) == 5
        self.assert_matches_oracle(img, Keypoint(31.0, 29.5, 4.0, 0.4), samples)

    def test_views_of_different_box_shapes(self):
        # the views' boxes differ in shape, and one is clipped at the
        # left border, so they fall into several chunks of one template
        img = textures.filtered_noise(64, 64, seed=13)
        kp = Keypoint(20.0, 30.0, 3.0)
        cfg = DescriptorConfig()
        size = cfg.support_factor * kp.base_size
        translations = [(0.0, 0.0), (0.5, 0.25), (-12.0, 0.0), (10.25, -3.5), (0.0, 12.75)]
        samples = GroupSampleSet(
            tuple(SimilarityTransform(translation=t) for t in translations), (perturbation_grid(),) * len(translations)
        )
        boxes = []
        for g_i, cloud in zip(samples.samples, samples.anti_alias):
            for g, _ in cloud:
                moved = soa._warped_keypoint(kp, g_i.compose(g), img.center)
                boxes.append(soa._view_box(moved, size, img.values.shape))
        assert len({(v1 - v0, u1 - u0) for u0, u1, v0, v1 in boxes}) > 2
        assert any(box[0] == 0 for box in boxes)
        self.assert_matches_oracle(img, kp, samples, cfg)

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1)])
    def test_first_failing_view_raises(self, order):
        # views 1 and 2 fail with different errors, and the one earlier in
        # sample order is raised.  View 2 moves the keypoint where view 0
        # does, so its box shape is processed first, before view 1's whole
        # image box.
        img = textures.filtered_noise(64, 64, seed=3)
        kp = Keypoint(31.5, 31.5, 12.0)
        views = [
            SimilarityTransform(translation=(10.0, 5.0)),
            SimilarityTransform(translation=(-27.0, 0.0)),
            SimilarityTransform(scale=0.5, translation=(10.0, 5.0)),
        ]
        messages = [
            None,
            "window sides out of bounds at (4.5, 31.5) rotated by 0.000 in the 64x64 image: 36.00",
            "warped support at (41.5, 36.5) leaves the image domain",
        ]
        samples = GroupSampleSet(tuple(views[i] for i in order), (delta_perturbation(),) * 3)
        with pytest.raises(SupportError) as want:
            whole_image_template(img, kp, samples, DescriptorConfig())
        with pytest.raises(SupportError) as got:
            build_template(img, kp, samples)
        assert str(got.value) == str(want.value) == messages[order[1]]

    @pytest.mark.parametrize("anti_alias", ["grid", "delta"])
    def test_orbit_template_configuration(self, anti_alias):
        img = textures.filtered_noise(96, 96, seed=[1, 0], smooth=1.8)
        self.assert_matches_oracle(img, Keypoint(47.5, 47.5, 8.0), GroupSampleSet.default(anti_alias=anti_alias))

    def test_too_small_image_names_whole_image(self):
        img = textures.filtered_noise(40, 2, seed=3)
        samples = GroupSampleSet((SimilarityTransform.identity(),), (delta_perturbation(),))
        with pytest.raises(ValueError, match="image too small for gradients: 40x2"):
            build_template(img, Keypoint(20.0, 0.5, 0.1), samples)


class TestAntiAliasedScore:
    def make_template(self):
        img = textures.filtered_noise(64, 64, seed=4)
        samples = GroupSampleSet.rotation_group(4, anti_alias="delta")
        return img, build_template(img, CENTER_KP, samples)

    def test_self_affinity_one(self):
        _, t = self.make_template()
        for i in range(1, 5):
            score = anti_aliased_score(t, i, t.descriptors[i - 1])
            assert abs(score - 1.0) < 1e-9

    def test_disjoint_one_hot_zero(self):
        kp = Keypoint(0.0, 0.0, 1.0)
        a = np.zeros(8)
        a[0] = 1.0
        b = np.zeros(8)
        b[5] = 1.0
        t = TemplateModel("x", (Descriptor(a, 1, 8, kp),))
        assert anti_aliased_score(t, 1, Descriptor(b, 1, 8, kp)) == 0.0

    def test_frozen_arithmetic(self):
        kp = Keypoint(0.0, 0.0, 1.0)
        a = Descriptor(
            np.array([0.25, 0.25, 0.125, 0.125, 0.0625, 0.0625, 0.0625, 0.0625]), 1, 8, kp
        )
        b = Descriptor(np.full(8, 0.125), 1, 8, kp)
        t = TemplateModel("x", (a,))
        assert abs(anti_aliased_score(t, 1, b) - 0.9571067811865475) < 1e-12

    def test_index_bounds(self):
        _, t = self.make_template()
        with pytest.raises(IndexError):
            anti_aliased_score(t, 0, t.descriptors[0])
        with pytest.raises(IndexError):
            anti_aliased_score(t, 5, t.descriptors[0])


class TestSOAResult:
    def test_validates_value(self):
        with pytest.raises(ValueError):
            SOAResult(0.5, 1, (0.1, 0.9))

    def test_validates_argmax(self):
        with pytest.raises(ValueError):
            SOAResult(0.9, 2, (0.9, 0.9))

    def test_tie_goes_to_first(self):
        r = SOAResult(0.9, 1, (0.9, 0.9))
        assert r.argmax_index == 1


class TestSOALikelihood:
    def test_identical_descriptors_tie(self):
        kp = Keypoint(0.0, 0.0, 1.0)
        d = Descriptor(np.full(8, 0.125), 1, 8, kp)
        t = TemplateModel("x", (d, d, d))
        r = soa_likelihood(t, d)
        assert r.argmax_index == 1
        assert len(set(r.per_sample_scores)) == 1

    def test_lattice_rotation_queries_pick_their_sample(self):
        img = textures.filtered_noise(64, 64, seed=6)
        for anti_alias in ("delta", "grid"):
            samples = GroupSampleSet.rotation_group(4, anti_alias=anti_alias)
            t = build_template(img, CENTER_KP, samples)
            for k in range(4):
                y, _ = warp(img, SimilarityTransform(rotation=np.pi * k / 2.0))
                r = soa_likelihood(t, fixed_frame_descriptor(y))
                assert r.argmax_index == k + 1

    def test_group_closure_invariance(self):
        img = textures.filtered_noise(64, 64, seed=7)
        samples = GroupSampleSet.rotation_group(4)
        t = build_template(img, CENTER_KP, samples)
        base = soa_likelihood(t, fixed_frame_descriptor(img))
        for k in range(1, 4):
            y, _ = warp(img, SimilarityTransform(rotation=np.pi * k / 2.0))
            r = soa_likelihood(t, fixed_frame_descriptor(y))
            assert abs(r.value - base.value) < 1e-6
            expected = (base.argmax_index - 1 + k) % 4 + 1
            assert r.argmax_index == expected

    def test_monotone_in_sample_count(self):
        img = textures.filtered_noise(64, 64, seed=8)
        full = GroupSampleSet.rotation_group(4, anti_alias="delta")
        query = fixed_frame_descriptor(
            warp(img, SimilarityTransform(rotation=np.pi))[0]
        )
        values = []
        for n in (1, 2, 3, 4):
            subset = GroupSampleSet(full.samples[:n], full.anti_alias[:n])
            t = build_template(img, CENTER_KP, subset)
            values.append(soa_likelihood(t, query).value)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_unrelated_noise_scores_below_self_match(self):
        img = textures.oriented_noise(64, 64, seed=100, angle=0.7)
        samples = GroupSampleSet.rotation_group(4)
        t = build_template(img, CENTER_KP, samples)
        self_scores = []
        for i, g in enumerate(samples.samples):
            y, _ = warp(img, g)
            self_scores.append(soa_likelihood(t, fixed_frame_descriptor(y)).per_sample_scores[i])
        floor = min(self_scores)
        trials, wins = 40, 0
        for k in range(trials):
            noise = textures.filtered_noise(64, 64, seed=500 + k)
            if soa_likelihood(t, fixed_frame_descriptor(noise)).value < floor:
                wins += 1
        assert wins / trials >= 0.95

    def test_deterministic(self):
        img = textures.filtered_noise(64, 64, seed=9)
        t = build_template(img, CENTER_KP, GroupSampleSet.rotation_group(4))
        q = fixed_frame_descriptor(img)
        assert soa_likelihood(t, q) == soa_likelihood(t, q)


class TestTemplateIO:
    def test_roundtrip(self):
        img = textures.filtered_noise(64, 64, seed=10)
        t = build_template(
            img, CENTER_KP, GroupSampleSet.rotation_group(4, anti_alias="delta"), source="noise-10"
        )
        buf = io.StringIO()
        save_template(t, buf)
        buf.seek(0)
        back = load_template(buf)
        assert back.source == "noise-10"
        assert len(back) == 4
        for orig, parsed in zip(t.descriptors, back.descriptors):
            npt.assert_array_equal(parsed.values, orig.values)

    def test_count_mismatch_rejected(self):
        img = textures.filtered_noise(64, 64, seed=10)
        t = build_template(img, CENTER_KP, GroupSampleSet.rotation_group(2, anti_alias="delta"))
        buf = io.StringIO()
        save_template(t, buf)
        text = buf.getvalue().replace("n=2", "n=3")
        with pytest.raises(ValueError):
            load_template(io.StringIO(text))

    def test_indexed_rows_rejected(self):
        img = textures.filtered_noise(64, 64, seed=10)
        t = build_template(img, CENTER_KP, GroupSampleSet.rotation_group(2, anti_alias="delta"))
        buf = io.StringIO()
        save_template(t, buf)
        header, *rows = buf.getvalue().splitlines()
        text = "\n".join([header] + [f"{i},{row}" for i, row in enumerate(rows, start=1)])
        with pytest.raises(ValueError):
            load_template(io.StringIO(text))

    def test_non_finite_value_rejected(self):
        img = textures.filtered_noise(64, 64, seed=10)
        t = build_template(img, CENTER_KP, GroupSampleSet.rotation_group(2, anti_alias="delta"))
        buf = io.StringIO()
        save_template(t, buf)
        header, first, *rest = buf.getvalue().splitlines()
        first = first.rsplit(",", 1)[0] + ",nan"
        with pytest.raises(ValueError, match="finite"):
            load_template(io.StringIO("\n".join([header, first, *rest])))

    @pytest.mark.parametrize("field", ["n", "cells", "bins"])
    def test_missing_header_field_named(self, field):
        img = textures.filtered_noise(64, 64, seed=10)
        t = build_template(img, CENTER_KP, GroupSampleSet.rotation_group(2, anti_alias="delta"))
        buf = io.StringIO()
        save_template(t, buf)
        header, *rows = buf.getvalue().splitlines()
        header = ",".join(part for part in header.split(",") if not part.startswith(f"{field}="))
        with pytest.raises(ValueError, match=f"template header lacks {field}"):
            load_template(io.StringIO("\n".join([header, *rows])))

    @pytest.mark.parametrize("cells, bins", [(0, 8), (-2, 8), (4, 0)])
    def test_nonpositive_grid_rejected(self, cells, bins):
        rows = "\n".join(["0.0,0.0,1.0,0.0,1," + ",".join(["0.0"] * 128)] * 2)
        with pytest.raises(ValueError, match="positive cells and bins"):
            load_template(io.StringIO(f"source=x,n=2,cells={cells},bins={bins}\n{rows}"))

    @pytest.mark.parametrize("source", ["shots/a,b.pgm", "x\ny", "x\ry"])
    def test_header_separators_in_source_rejected(self, source):
        img = textures.filtered_noise(64, 64, seed=10)
        t = build_template(
            img, CENTER_KP, GroupSampleSet.rotation_group(1, anti_alias="delta"), source=source
        )
        buf = io.StringIO()
        with pytest.raises(ValueError):
            save_template(t, buf)
        assert buf.getvalue() == ""
