"""Orbit sampling: template construction, anti-aliased scores, max rule."""

import dataclasses
import math
import pickle

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
    quarter_turn,
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
    perturbation_grid,
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
            if i == 0:
                npt.assert_array_equal(t.descriptors[i].values, direct.values)
            else:
                # samples 1-3 are quarter turns of sample 0, permuted, not warped
                npt.assert_allclose(t.descriptors[i].values, direct.values, rtol=0, atol=1e-12)

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
        # The 40 px window's right edge is 70 + 2**-47, which rounds to
        # 70, the last column; shifted into its crop the same edge is
        # 44 + 2**-47, which is exact and so one ulp past the crop.  The
        # view must still give the whole image's descriptor.
        img = textures.filtered_noise(71, 61, seed=1)
        kp = Keypoint(50.0 + 2.0**-47, 30.0, 40.0 / 3.0)
        cfg = DescriptorConfig()
        assert cfg.support_factor * kp.base_size == 40.0
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

    def assert_matches_oracle(self, img, kp, samples, cfg=DescriptorConfig(), turned=()):
        # warped samples equal the oracle bit for bit, the ``turned`` ones within 1e-12
        got = build_template(img, kp, samples, cfg)
        want = whole_image_template(img, kp, samples, cfg)
        assert len(got.descriptors) == len(want)
        for i, (d, values) in enumerate(zip(got.descriptors, want)):
            if i in turned:
                npt.assert_allclose(d.values, values, rtol=0, atol=1e-12)
            else:
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
        samples = GroupSampleSet.default(anti_alias=anti_alias)
        # samples 3-11 are quarter turns of samples 0-2
        self.assert_matches_oracle(img, Keypoint(47.5, 47.5, 8.0), samples, turned=range(3, 12))

    def test_too_small_image_names_whole_image(self):
        img = textures.filtered_noise(40, 2, seed=3)
        samples = GroupSampleSet((SimilarityTransform.identity(),), (delta_perturbation(),))
        with pytest.raises(ValueError, match="image too small for gradients: 40x2"):
            build_template(img, Keypoint(20.0, 0.5, 0.1), samples)


def warped_samples(img, kp, samples, cfg):
    """Build the template from a fresh plan and return it with the indices of the samples whose views were warped."""
    inverses = []
    real = soa.warp_sources

    def spy(shape, chunk, boxes):
        inverses.extend(chunk)
        return real(shape, chunk, boxes)

    soa._template_plan.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(soa, "warp_sources", spy)
        template = build_template(img, kp, samples, cfg, source="spied")
    assert template.source == "spied"
    warped = [
        i
        for i, (g_i, cloud) in enumerate(zip(samples.samples, samples.anti_alias))
        if all(g_i.compose(g).inverse() in inverses for g, _ in cloud)
    ]
    assert len(inverses) == sum(len(samples.anti_alias[i]) for i in warped)
    return template, warped


def turned_sample_sets(draw):
    """A sample set with quarter turns in it: a named one, or turns of one random similarity."""
    name = draw(st.sampled_from(["rot4", "rot8", "default", "turns"]))
    anti_alias = draw(st.sampled_from(["delta", "grid"]))
    if name == "rot4":
        return GroupSampleSet.rotation_group(4, anti_alias=anti_alias)
    if name == "rot8":
        return GroupSampleSet.rotation_group(8, anti_alias=anti_alias)
    if name == "default":
        return GroupSampleSet.default(anti_alias=anti_alias)
    g = SimilarityTransform(
        math.exp(draw(st.floats(-0.2, 0.3))),
        draw(st.floats(-0.3, 0.3)),
        draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))),
    )
    turns = draw(st.lists(st.integers(0, 3), min_size=2, max_size=4))
    samples = tuple(SimilarityTransform(rotation=k * math.pi / 2.0).compose(g) for k in turns)
    return GroupSampleSet(samples, (soa._named_cloud(anti_alias),) * len(samples))


@st.composite
def turned_cases(draw):
    """An image of either parity of w + h, an upright keypoint near its centre and a sample set with turns."""
    w = draw(st.integers(40, 60))
    h = draw(st.just(w) | st.integers(40, 60))
    img = textures.filtered_noise(w, h, seed=draw(st.integers(0, 2**32 - 1)))
    u = (w - 1) / 2.0 + draw(st.floats(-4.0, 4.0))
    v = (h - 1) / 2.0 + draw(st.floats(-4.0, 4.0))
    kp = Keypoint(u, v, draw(st.floats(1.5, 3.5)))
    return img, kp, turned_sample_sets(draw), DescriptorConfig()


class TestQuarterTurns:
    """A sample that is a quarter turn of an earlier warped sample takes that
    sample's grid, permuted, wherever the turned view provably reads the same
    pixels; it then equals the warp within 1e-12, and warped samples stay bit
    for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_quarter_turn_is_the_turned_image_grid(self, k):
        img = textures.oriented_noise(64, 64, seed=3, angle=0.4)
        cfg = DescriptorConfig()
        grid = accumulate_grid(compute_gradients(img), CENTER_KP, (SIZE,), (1.0,), cfg)
        turned, _ = warp(img, SimilarityTransform(rotation=k * math.pi / 2.0))
        want = accumulate_grid(compute_gradients(turned), CENTER_KP, (SIZE,), (1.0,), cfg)
        assert np.abs(want - grid).max() > 1e-3
        npt.assert_allclose(quarter_turn(grid, k, cfg), want, rtol=0, atol=1e-12)

    def test_quarter_turn_moves_cells_and_bins(self):
        # a vote in row 0, column 1, bin 0 turns clockwise on screen (v
        # points down) to row 1, column 2, and its orientation to bin 2
        cfg = DescriptorConfig(cells=3, bins=8)
        grid = np.zeros((3, 3, 8))
        grid[0, 1, 0] = 1.0
        turned = quarter_turn(grid.ravel(), 1, cfg).reshape(3, 3, 8)
        assert turned[1, 2, 2] == 1.0 and turned.sum() == 1.0
        npt.assert_array_equal(quarter_turn(grid.ravel(), 4, cfg), grid.ravel())
        with pytest.raises(ValueError, match="bins divisible by 4"):
            quarter_turn(np.zeros(3 * 3 * 6), 1, DescriptorConfig(cells=3, bins=6))

    @settings(max_examples=40, deadline=None)
    @given(turned_cases())
    def test_turned_samples_match_whole_image_warps(self, case):
        img, kp, samples, cfg = case
        try:
            want = whole_image_template(img, kp, samples, cfg)
        except SupportError as exc:
            with pytest.raises(SupportError) as got:
                build_template(img, kp, samples, cfg)
            assert str(got.value) == str(exc)
            return
        got, warped = warped_samples(img, kp, samples, cfg)
        if sum(img.values.shape) % 2:
            assert warped == list(range(len(samples)))
        for i, (d, values) in enumerate(zip(got.descriptors, want)):
            if i in warped:
                npt.assert_array_equal(d.values, values)
            else:
                npt.assert_allclose(d.values, values, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "samples, warped",
        [
            (GroupSampleSet.default(), [0, 1, 2]),
            (GroupSampleSet.default(anti_alias="delta"), [0, 1, 2]),
            (GroupSampleSet.rotation_group(8), [0, 1]),
            (GroupSampleSet.rotation_group(8, anti_alias="delta"), [0, 1]),
        ],
    )
    def test_views_warped(self, samples, warped):
        # default() warps 27 of its 108 grid views and 3 of its 12 delta views
        img = textures.filtered_noise(96, 96, seed=[1, 0], smooth=1.8)
        _, got = warped_samples(img, Keypoint(47.5, 47.5, 8.0), samples, DescriptorConfig())
        assert got == warped

    @pytest.mark.parametrize(
        "shape, kp, cfg",
        [
            # bins not divisible by 4
            ((64, 64), CENTER_KP, DescriptorConfig(bins=6)),
            # odd w + h: the turned lattice is not the lattice
            ((63, 64), Keypoint(31.5, 31.0, 2.2), DescriptorConfig()),
            # the view box is clipped at the left border
            ((64, 64), Keypoint(6.3, 31.7, 2.0), DescriptorConfig()),
            # the window's left edge, 31.3 - 3.3, lies on a pixel
            ((64, 64), Keypoint(31.3, 31.7, 2.2), DescriptorConfig()),
            # the middle cell boundary, 31.0 - 3.3 + 2 * 1.65, lies on a pixel
            ((64, 64), Keypoint(31.0, 31.7, 2.2), DescriptorConfig()),
            # the box starts at column 0, on the domain edge
            ((64, 64), Keypoint(7.4, 31.7, 2.0), DescriptorConfig()),
            # a rotated keypoint
            ((64, 64), Keypoint(31.2, 31.7, 2.2, 0.5), DescriptorConfig()),
        ],
    )
    @pytest.mark.parametrize("anti_alias", ["delta", "grid"])
    def test_broken_condition_takes_the_warp(self, shape, kp, cfg, anti_alias):
        h, w = shape
        img = textures.filtered_noise(w, h, seed=21)
        samples = GroupSampleSet.rotation_group(4, anti_alias=anti_alias)
        got, warped = warped_samples(img, kp, samples, cfg)
        assert warped == [0, 1, 2, 3]
        for d, values in zip(got.descriptors, whole_image_template(img, kp, samples, cfg)):
            npt.assert_array_equal(d.values, values)

    def test_box_a_hair_inside_the_domain_is_turned(self):
        # as the domain-edge case above, one pixel further in
        img = textures.filtered_noise(64, 64, seed=21)
        kp = Keypoint(8.4, 31.7, 2.0)
        samples = GroupSampleSet.rotation_group(4, anti_alias="delta")
        _, warped = warped_samples(img, kp, samples, DescriptorConfig())
        assert warped == [0]

    @pytest.mark.parametrize(
        "views, message",
        [
            # sample 0 is a sound source and sample 1 its turn, so sample 2 fails first
            (
                [
                    SimilarityTransform(),
                    SimilarityTransform(rotation=math.pi / 2.0),
                    SimilarityTransform(translation=(-27.0, 0.0)),
                ],
                "window sides out of bounds at (4.5, 31.5) rotated by 0.000 in the 64x64 image: 12.00",
            ),
            # sample 0 fails, so sample 1, its turn, is warped and fails too
            (
                [
                    SimilarityTransform(scale=0.5, translation=(10.0, 5.0)),
                    SimilarityTransform(scale=0.5, rotation=math.pi / 2.0, translation=(-5.0, 10.0)),
                    SimilarityTransform(),
                ],
                "warped support at (41.5, 36.5) leaves the image domain",
            ),
        ],
    )
    def test_first_failing_view_raises(self, views, message):
        img = textures.filtered_noise(64, 64, seed=3)
        kp = Keypoint(31.5, 31.5, 4.0 if views[0].scale == 1.0 else 12.0)
        samples = GroupSampleSet(tuple(views), (delta_perturbation(),) * len(views))
        with pytest.raises(SupportError) as want:
            whole_image_template(img, kp, samples, DescriptorConfig())
        with pytest.raises(SupportError) as got:
            build_template(img, kp, samples)
        assert str(got.value) == str(want.value) == message


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

    def test_frozen_value_object(self):
        r = SOAResult(0.9, 2, [0.25, 0.9, 0.5])
        assert r.per_sample_scores == (0.25, 0.9, 0.5)
        assert all(type(x) is float for x in r.per_sample_scores)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.value = 0.5
        with pytest.raises(ValueError, match="read-only"):
            r._scores[0] = 1.0
        assert r == SOAResult(0.9, 2, (0.25, 0.9, 0.5)) and hash(r) == hash(SOAResult(0.9, 2, (0.25, 0.9, 0.5)))
        assert r != SOAResult(0.9, 2, (0.25, 0.9, 0.75))
        assert pickle.loads(pickle.dumps(r)) == r
        assert repr(r) == "SOAResult(value=0.9, argmax_index=2, per_sample_scores=(0.25, 0.9, 0.5))"

    def test_value_kept_as_given(self):
        r = SOAResult(1, 1, [1.0])
        assert repr(r) == "SOAResult(value=1, argmax_index=1, per_sample_scores=(1.0,))"
        assert type(pickle.loads(pickle.dumps(r)).value) is int
        assert math.copysign(1.0, SOAResult(-0.0, 1, [0.0, -1.0]).value) == -1.0
        assert repr(SOAResult(-0.0, 1, [-0.0, 0.0])) == "SOAResult(value=-0.0, argmax_index=1, per_sample_scores=(-0.0, 0.0))"
        assert repr(SOAResult(0.0, 2, [-1.0, 0.0, -0.0])) == "SOAResult(value=0.0, argmax_index=2, per_sample_scores=(-1.0, 0.0, -0.0))"


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

    def test_scores_are_the_per_sample_scores(self):
        # bit for bit anti_aliased_score of each sample; ties go to the first
        img = textures.filtered_noise(64, 64, seed=11)
        t = build_template(img, CENTER_KP, GroupSampleSet.rotation_group(4))
        t = TemplateModel("t", t.descriptors + t.descriptors[1:2])
        for query in (fixed_frame_descriptor(img), t.descriptors[1]):
            r = soa_likelihood(t, query)
            assert r.per_sample_scores == tuple(anti_aliased_score(t, i, query) for i in range(1, len(t) + 1))
            assert r.value == max(r.per_sample_scores)
            assert r.argmax_index == r.per_sample_scores.index(r.value) + 1
        assert soa_likelihood(t, t.descriptors[1]).argmax_index == 2
        short = Descriptor(np.full(8, 0.125), 1, 8, CENTER_KP)
        with pytest.raises(ValueError, match="descriptor lengths differ: 128 vs 8"):
            soa_likelihood(t, short)

    def test_deterministic(self):
        img = textures.filtered_noise(64, 64, seed=9)
        t = build_template(img, CENTER_KP, GroupSampleSet.rotation_group(4))
        q = fixed_frame_descriptor(img)
        assert soa_likelihood(t, q) == soa_likelihood(t, q)
