"""Grid descriptors: detection, canonization, size pooling, distances."""

import dataclasses
import io
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitpool import textures
from orbitpool.descriptor import (
    Descriptor,
    DescriptorConfig,
    Keypoint,
    SizePrior,
    accumulate_grid,
    descriptor_distance,
    dog_keypoints,
    dsp_descriptor,
    grid_keypoints,
    principal_orientations,
    read_rows,
    single_size_descriptor,
    write_rows,
)
from orbitpool.image import (
    AffineContrast,
    ImageBuffer,
    SimilarityTransform,
    SupportError,
    compute_gradients,
    gaussian_blur,
    gradient_field_of_array,
    warp,
)
from conftest import clean_noise_seeds, fold_image, wrapped_gaussian_oracle


class TestKeypoint:
    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            Keypoint(1.0, 1.0, 0.0)


class TestSizePrior:
    def test_delta(self):
        p = SizePrior.delta(1.0)
        assert p.multipliers == (1.0,) and p.weights == (1.0,)

    def test_uniform_normalizes(self):
        p = SizePrior.uniform((0.8, 1.0, 1.2))
        npt.assert_allclose(p.weights, 1 / 3)
        assert abs(sum(p.weights) - 1.0) < 1e-9

    def test_duplicates_coalesce(self):
        p = SizePrior.uniform((1.1, 1.1))
        assert p.multipliers == (1.1,)
        assert p.weights == (1.0,)

    def test_sorted_multipliers(self):
        p = SizePrior.uniform((1.3, 0.7, 1.0))
        assert p.multipliers == (0.7, 1.0, 1.3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SizePrior(())

    def test_rejects_nonpositive_multiplier(self):
        with pytest.raises(ValueError):
            SizePrior(((0.0, 1.0),))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_multiplier(self, bad):
        with pytest.raises(ValueError, match="size multiplier must be finite"):
            SizePrior(((1.0, 1.0), (bad, 1.0)))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_weight(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            SizePrior(((1.0, 1.0), (1.2, bad)))

    def test_rejects_overflowing_weight_sum(self):
        with pytest.raises(ValueError, match="finite sum"):
            SizePrior(((1.0, 1e308), (1.2, 1e308)))

    def test_default_prior(self):
        p = SizePrior.default()
        assert p.multipliers == (0.7, 0.85, 1.0, 1.15, 1.3)


class TestDescriptorType:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            Descriptor(np.full(100, 0.01), 4, 8, Keypoint(0, 0, 1.0))

    def test_normalization_checked(self):
        with pytest.raises(ValueError):
            Descriptor(np.full(128, 0.5), 4, 8, Keypoint(0, 0, 1.0))

    def test_degenerate_skips_norm_check(self):
        d = Descriptor(np.zeros(128), 4, 8, Keypoint(0, 0, 1.0), degenerate=True)
        assert len(d) == 128


class TestDetection:
    def test_grid_lattice_count(self):
        img = ImageBuffer(np.full((64, 64), 0.5))
        kps = grid_keypoints(img, stride=16, base_size=16)
        assert len(kps) == 9
        positions = sorted({(k.u, k.v) for k in kps})
        assert positions == [(u, v) for u in (16.0, 32.0, 48.0) for v in (16.0, 32.0, 48.0)]

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            grid_keypoints(ImageBuffer(np.full((8, 8), 0.5)), stride=16, base_size=16)

    def test_dog_constant_empty(self):
        assert dog_keypoints(ImageBuffer(np.full((48, 48), 0.5))) == []

    def test_dog_blob_against_exhaustive_scan(self):
        img = textures.gaussian_blob(48, 48, center=(24.0, 24.0), sigma=3.0)
        kps = dog_keypoints(img)
        assert any(math.hypot(k.u - 24, k.v - 24) <= 2.0 for k in kps)

        # oracle: rebuild the stack and scan every interior voxel directly
        sigmas = [1.6 * 2.0 ** (i / 3.0) for i in range(5)]
        blurred = [gaussian_blur(img, s).values for s in sigmas]
        stack = np.stack([blurred[i + 1] - blurred[i] for i in range(4)])
        expected = []
        for i in range(1, 3):
            for v in range(1, 47):
                for u in range(1, 47):
                    val = stack[i, v, u]
                    if abs(val) <= 0.01:
                        continue
                    cube = stack[i - 1 : i + 2, v - 1 : v + 2, u - 1 : u + 2].ravel()
                    others = np.delete(cube, 13)
                    if (val > others).all() or (val < others).all():
                        expected.append((float(u), float(v), math.sqrt(sigmas[i] * sigmas[i + 1])))
        got = sorted((k.u, k.v, k.base_size) for k in kps)
        npt.assert_allclose(sorted(expected), got)


class TestPrincipalOrientations:
    def test_ramp_single_peak_near_zero(self):
        f = compute_gradients(textures.ramp(33, 33, angle=0.0))
        angles = principal_orientations(f, Keypoint(16.0, 16.0, 2.0))
        assert len(angles) == 1
        width = 2 * np.pi / 36
        assert min(angles[0], 2 * np.pi - angles[0]) < width

    def test_rotated_ramp_covariance(self):
        img = textures.filtered_noise(33, 33, seed=20)
        f = compute_gradients(img)
        kp = Keypoint(16.0, 16.0, 2.0)
        base = principal_orientations(f, kp)
        rot, _ = warp(img, SimilarityTransform(rotation=np.pi / 2))
        turned = principal_orientations(compute_gradients(rot), kp)
        assert len(base) == len(turned)
        for a in base:
            expected = (a + np.pi / 2) % (2 * np.pi)
            nearest = min(turned, key=lambda t: abs(np.angle(np.exp(1j * (t - expected)))))
            assert abs(np.angle(np.exp(1j * (nearest - expected)))) < 1e-9

    def test_fold_two_peaks_meet_oracle(self):
        img = fold_image()
        f = compute_gradients(img)
        kp = Keypoint(16.0, 16.0, 2.0)
        angles = principal_orientations(f, kp)
        assert len(angles) == 2
        width = 2 * np.pi / 36

        # oracle: brute-force 36-bin histogram over the same window
        B, sigma, radius = 36, 3.0, 9.0
        hist = [0.0] * B
        for v in range(33):
            for u in range(33):
                du, dv = u - 16.0, v - 16.0
                d2 = du * du + dv * dv
                if d2 > radius * radius or not f.valid[v, u]:
                    continue
                w = f.magnitude[v, u] * math.exp(-0.5 * d2 / (sigma * sigma))
                for b in range(B):
                    delta = 2 * math.pi * b / B - f.orientation[v, u]
                    hist[b] += w * wrapped_gaussian_oracle(delta, 2 * math.pi / B, wraps=2)
        order = np.argsort(hist)[::-1][:2]
        oracle_angles = sorted(2 * math.pi * b / B for b in order)
        for got, want in zip(sorted(angles), oracle_angles):
            assert abs(np.angle(np.exp(1j * (got - want)))) < width

    def test_flat_support_empty(self):
        f = compute_gradients(ImageBuffer(np.full((33, 33), 0.5)))
        assert principal_orientations(f, Keypoint(16.0, 16.0, 2.0)) == []


class TestSingleSizeDescriptor:
    def test_length_and_normalization(self):
        f = compute_gradients(textures.filtered_noise(33, 33, seed=1))
        d = single_size_descriptor(f, Keypoint(16.0, 16.0, 4.0), 12.0)
        assert len(d) == 128
        assert abs(d.values.sum() - 1.0) < 1e-9
        assert not d.degenerate

    def test_constant_patch_degenerate_uniform(self):
        f = compute_gradients(ImageBuffer(np.full((33, 33), 0.5)))
        d = single_size_descriptor(f, Keypoint(16.0, 16.0, 4.0), 12.0)
        assert d.degenerate
        npt.assert_allclose(d.values, 1 / 128)

    def test_ramp_against_per_cell_oracle(self):
        cfg = DescriptorConfig()
        img = textures.ramp(33, 33, angle=0.0)
        f = compute_gradients(img)
        kp = Keypoint(16.0, 16.0, 4.0)
        size = 12.0
        d = single_size_descriptor(f, kp, size, cfg)

        # oracle: scalar re-accumulation pixel by pixel
        C, B = cfg.cells, cfg.bins
        half, cell = size / 2.0, size / C
        sigma_k = cfg.kappa_fraction * cell
        eps = 2 * math.pi / B
        grid = np.zeros((C, C, B))
        for v in range(33):
            for u in range(33):
                if not f.valid[v, u]:
                    continue
                ex, ey = u - kp.u, v - kp.v
                if abs(ex) > half or abs(ey) > half:
                    continue
                cx = min(C - 1, max(0, int(math.floor((ex + half) / cell))))
                cy = min(C - 1, max(0, int(math.floor((ey + half) / cell))))
                ccx = (cx + 0.5) * cell - half
                ccy = (cy + 0.5) * cell - half
                w = f.magnitude[v, u] * math.exp(
                    -0.5 * ((ex - ccx) ** 2 + (ey - ccy) ** 2) / (sigma_k * sigma_k)
                )
                for b in range(B):
                    delta = 2 * math.pi * b / B - f.orientation[v, u]
                    grid[cy, cx, b] += w * wrapped_gaussian_oracle(delta, eps, wraps=2)
        flat = grid.ravel()
        npt.assert_allclose(d.values, flat / flat.sum(), atol=1e-12)
        # a ramp points every cell at the same orientation bin
        per_cell = d.values.reshape(C * C, B)
        assert (np.argmax(per_cell, axis=1) == 0).all()

    def test_support_error(self):
        f = compute_gradients(textures.ramp(33, 33))
        with pytest.raises(SupportError):
            single_size_descriptor(f, Keypoint(3.0, 3.0, 4.0), 12.0)

    def test_rotated_support_error(self):
        # a rotated window needs extra margin for its corners
        f = compute_gradients(textures.ramp(33, 33))
        kp = Keypoint(6.0, 16.0, 4.0, orientation=np.pi / 4)
        with pytest.raises(SupportError):
            single_size_descriptor(f, kp, 12.0)


class TestDspDescriptor:
    def test_delta_prior_reduces_exactly(self):
        f = compute_gradients(textures.filtered_noise(41, 41, seed=3))
        kp = Keypoint(20.0, 20.0, 4.0)
        single = single_size_descriptor(f, kp, 12.0)
        pooled = dsp_descriptor(f, kp, SizePrior.delta(1.0))
        npt.assert_array_equal(pooled.values, single.values)
        raw_a = accumulate_grid(f, kp, (12.0,), (1.0,), DescriptorConfig())
        raw_b = 1.0 * raw_a
        npt.assert_array_equal(raw_a, raw_b)

    def test_duplicate_sample_prior_collapses(self):
        f = compute_gradients(textures.filtered_noise(41, 41, seed=3))
        kp = Keypoint(20.0, 20.0, 3.0)
        a = dsp_descriptor(f, kp, SizePrior.uniform((1.1, 1.1)))
        b = dsp_descriptor(f, kp, SizePrior.delta(1.1))
        npt.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("multiplier", [1e308, 1e300])
    def test_overflowing_window_leaves_the_image(self, multiplier):
        # 1e308 * 12 overflows the window side to inf, whose corners are
        # nan; both count as leaving the image
        f = compute_gradients(textures.filtered_noise(41, 41, seed=3))
        with pytest.raises(SupportError, match="out of bounds"):
            dsp_descriptor(f, Keypoint(20.0, 20.0, 4.0), SizePrior.delta(multiplier))

    def test_two_size_prior_matches_average_oracle(self):
        cfg = DescriptorConfig()
        f = compute_gradients(textures.ramp(41, 41, angle=1.0))
        kp = Keypoint(20.0, 20.0, 4.0)
        pooled = dsp_descriptor(f, kp, SizePrior.uniform((0.8, 1.2)), cfg)
        raw = 0.5 * accumulate_grid(f, kp, (0.8 * 12.0,), (1.0,), cfg) + 0.5 * accumulate_grid(
            f, kp, (1.2 * 12.0,), (1.0,), cfg
        )
        npt.assert_allclose(pooled.values, raw / raw.sum(), atol=1e-9)

    def test_sample_order_irrelevant(self):
        f = compute_gradients(textures.filtered_noise(41, 41, seed=9))
        kp = Keypoint(20.0, 20.0, 3.0)
        a = dsp_descriptor(f, kp, SizePrior.uniform((0.7, 1.0, 1.3)))
        b = dsp_descriptor(f, kp, SizePrior.uniform((1.3, 0.7, 1.0)))
        npt.assert_array_equal(a.values, b.values)

    def test_out_of_bounds_sizes_listed(self):
        f = compute_gradients(textures.ramp(41, 41))
        kp = Keypoint(20.0, 20.0, 11.0)
        with pytest.raises(SupportError) as err:
            dsp_descriptor(f, kp, SizePrior.default())
        assert "42.90" in str(err.value)

    def test_one_error_lists_only_the_sides_that_leave(self):
        f = compute_gradients(textures.ramp(41, 41))
        kp = Keypoint(17.0, 20.0, 11.0)
        with pytest.raises(SupportError) as err:
            dsp_descriptor(f, kp, SizePrior.default())
        assert str(err.value).endswith(": 37.95, 42.90")

    def test_affine_contrast_invariance(self):
        seed = clean_noise_seeds(1, side=41)[0]
        img = textures.filtered_noise(41, 41, seed=seed)
        kp = Keypoint(20.0, 20.0, 4.0)
        base = dsp_descriptor(compute_gradients(img), kp)
        for gain, offset in ((0.5, 0.1), (2.0, -0.1)):
            raw = AffineContrast(gain, offset).apply(img.values)
            d = dsp_descriptor(gradient_field_of_array(raw), kp)
            npt.assert_allclose(d.values, base.values, rtol=1e-6)


SIDE = 32
CLEAN_SEEDS = clean_noise_seeds(8, side=SIDE)


def pixel_loop_grid(field, kp, sides, weights, cfg):
    """Scalar re-accumulation of the prior-weighted grid, pixel by pixel."""
    C, B = cfg.cells, cfg.bins
    eps = 2 * math.pi / B
    c, s = math.cos(-kp.orientation), math.sin(-kp.orientation)
    grid = np.zeros(C * C * B)
    h, w = field.magnitude.shape
    for v in range(h):
        for u in range(w):
            if not field.valid[v, u]:
                continue
            du, dv = u - kp.u, v - kp.v
            ex, ey = c * du - s * dv, s * du + c * dv
            rel = (field.orientation[v, u] - kp.orientation) % (2 * math.pi)
            kernel = None
            for side, weight in zip(sides, weights):
                half, cell = side / 2.0, side / C
                if abs(ex) > half or abs(ey) > half:
                    continue
                if kernel is None:
                    kernel = np.array(
                        [wrapped_gaussian_oracle(2 * math.pi * b / B - rel, eps, wraps=2) for b in range(B)]
                    )
                cx = min(C - 1, max(0, int(math.floor((ex + half) / cell))))
                cy = min(C - 1, max(0, int(math.floor((ey + half) / cell))))
                ox = ex - ((cx + 0.5) * cell - half)
                oy = ey - ((cy + 0.5) * cell - half)
                sigma_k = cfg.kappa_fraction * cell
                mass = weight * field.magnitude[v, u] * math.exp(-0.5 * (ox * ox + oy * oy) / (sigma_k * sigma_k))
                start = (cy * C + cx) * B
                grid[start : start + B] += mass * kernel
    return grid


@st.composite
def keypoints_and_priors(draw):
    """A keypoint whose largest rotated window fits a SIDE x SIDE image,
    with a 1-3 sample size prior around it."""
    base = draw(st.floats(1.5, 3.0))
    mults = draw(st.lists(st.floats(0.6, 1.4), min_size=1, max_size=3))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(mults), max_size=len(mults)))
    prior = SizePrior(tuple(zip(mults, weights)))
    reach = max(prior.multipliers) * base * DescriptorConfig().support_factor / math.sqrt(2.0)
    u, v = (draw(st.floats(reach + 1.0, SIDE - 2.0 - reach)) for _ in range(2))
    orientation = draw(st.floats(0.0, 2 * math.pi, exclude_max=True))
    return Keypoint(u, v, base, orientation), prior


class TestDescriptorProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), keypoints_and_priors())
    def test_pixel_loop_oracle(self, seed, case):
        kp, prior = case
        cfg = DescriptorConfig()
        f = compute_gradients(textures.filtered_noise(SIDE, SIDE, seed=seed))
        sides = [m * kp.base_size * cfg.support_factor for m in prior.multipliers]
        pooled = pixel_loop_grid(f, kp, sides, prior.weights, cfg)
        npt.assert_allclose(dsp_descriptor(f, kp, prior, cfg).values, pooled / pooled.sum(), rtol=0, atol=1e-12)
        single = pixel_loop_grid(f, kp, sides[-1:], (1.0,), cfg)
        got = single_size_descriptor(f, kp, sides[-1], cfg).values
        npt.assert_allclose(got, single / single.sum(), rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), keypoints_and_priors())
    def test_delta_prior_is_bit_exact(self, seed, case):
        kp, prior = case
        cfg = DescriptorConfig()
        f = compute_gradients(textures.filtered_noise(SIDE, SIDE, seed=seed))
        m = prior.multipliers[-1]
        pooled = dsp_descriptor(f, kp, SizePrior.delta(m), cfg)
        single = single_size_descriptor(f, kp, m * kp.base_size * cfg.support_factor, cfg)
        npt.assert_array_equal(pooled.values, single.values)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(CLEAN_SEEDS), keypoints_and_priors(), st.floats(0.5, 2.0), st.floats(-0.5, 0.5))
    def test_affine_contrast_exact(self, seed, case, gain, offset):
        kp, prior = case
        img = textures.filtered_noise(SIDE, SIDE, seed=seed)
        base = dsp_descriptor(compute_gradients(img), kp, prior)
        raw = AffineContrast(gain, offset).apply(img.values)
        mapped = dsp_descriptor(gradient_field_of_array(raw), kp, prior)
        npt.assert_allclose(mapped.values, base.values, rtol=0, atol=1e-12)


class TestRotationCanonization:
    def test_quarter_turn_with_recomputed_reference(self):
        img = textures.filtered_noise(33, 33, seed=13)
        f = compute_gradients(img)
        kp0 = Keypoint(16.0, 16.0, 3.0)
        alpha = principal_orientations(f, kp0)[0]
        d0 = single_size_descriptor(f, dataclasses.replace(kp0, orientation=alpha), 9.0)

        rot, _ = warp(img, SimilarityTransform(rotation=np.pi / 2))
        f1 = compute_gradients(rot)
        target = (alpha + np.pi / 2) % (2 * np.pi)
        candidates = principal_orientations(f1, kp0)
        alpha1 = min(candidates, key=lambda t: abs(np.angle(np.exp(1j * (t - target)))))
        assert abs(np.angle(np.exp(1j * (alpha1 - target)))) < 1e-9
        d1 = single_size_descriptor(f1, dataclasses.replace(kp0, orientation=alpha1), 9.0)
        npt.assert_allclose(d1.values, d0.values, atol=1e-3)


class TestDistance:
    def test_zero_on_equal(self):
        kp = Keypoint(0.0, 0.0, 1.0)
        d = Descriptor(np.full(8, 0.125), 1, 8, kp)
        assert descriptor_distance(d, d, "euclidean") == 0.0
        assert abs(descriptor_distance(d, d, "bhattacharyya")) < 1e-12

    def test_disjoint_one_hot(self):
        kp = Keypoint(0.0, 0.0, 1.0)
        a = np.zeros(8)
        a[0] = 1.0
        b = np.zeros(8)
        b[3] = 1.0
        da, db = Descriptor(a, 1, 8, kp), Descriptor(b, 1, 8, kp)
        assert abs(descriptor_distance(da, db, "euclidean") - math.sqrt(2)) < 1e-12
        assert abs(descriptor_distance(da, db, "bhattacharyya") - (-math.log(1e-12))) < 1e-9

    def test_frozen_arithmetic_oracle(self):
        kp = Keypoint(0.0, 0.0, 1.0)
        a = Descriptor(
            np.array([0.25, 0.25, 0.125, 0.125, 0.0625, 0.0625, 0.0625, 0.0625]), 1, 8, kp
        )
        b = Descriptor(np.full(8, 0.125), 1, 8, kp)
        assert abs(descriptor_distance(a, b, "euclidean") - 0.21650635094610965) < 1e-12
        assert abs(descriptor_distance(a, b, "bhattacharyya") - 0.04384031466636472) < 1e-12

    def test_length_mismatch(self):
        kp = Keypoint(0.0, 0.0, 1.0)
        a = Descriptor(np.full(8, 0.125), 1, 8, kp)
        b = Descriptor(np.full(32, 1 / 32), 2, 8, kp)
        with pytest.raises(ValueError):
            descriptor_distance(a, b)

    def test_unknown_metric(self):
        kp = Keypoint(0.0, 0.0, 1.0)
        d = Descriptor(np.full(8, 0.125), 1, 8, kp)
        with pytest.raises(ValueError):
            descriptor_distance(d, d, "cosine")


GRID_HEADER = {"cells": 4, "bins": 8, "metric": "bhattacharyya"}


def write_descriptors(descs):
    buf = io.StringIO()
    write_rows(buf, GRID_HEADER, ((d.keypoint, d.degenerate, d.values) for d in descs))
    return buf


class TestDumpFormat:
    def test_roundtrip(self):
        f = compute_gradients(textures.filtered_noise(41, 41, seed=2))
        kps = [Keypoint(20.0, 20.0, 4.0), Keypoint(14.0, 22.0, 4.0)]
        descs = [dsp_descriptor(f, k) for k in kps]
        buf = write_descriptors(descs)
        buf.seek(0)
        fields, back = read_rows(buf)
        assert fields == {key: str(value) for key, value in GRID_HEADER.items()}
        assert len(back) == 2
        for orig, (kp, flag, values) in zip(descs, back):
            npt.assert_array_equal(values, orig.values)
            assert kp == orig.keypoint and flag == orig.degenerate

    def test_header_and_row_shape(self):
        f = compute_gradients(textures.filtered_noise(41, 41, seed=2))
        d = dsp_descriptor(f, Keypoint(20.0, 20.0, 4.0))
        buf = write_descriptors([d])
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "cells=4,bins=8,metric=bhattacharyya"
        assert len(lines[1].split(",")) == 5 + 128

    @pytest.mark.parametrize("flag", ["7", "-1", "2", "01", "true", ""])
    def test_degenerate_flag_must_be_zero_or_one(self, flag):
        d = Descriptor(np.full(128, 1 / 128), 4, 8, Keypoint(20.0, 20.0, 4.0), degenerate=True)
        header, row = write_descriptors([d]).getvalue().splitlines()
        fields = row.split(",")
        assert fields[4] == "1"
        fields[4] = flag
        with pytest.raises(ValueError, match="degenerate flag must be 0 or 1"):
            read_rows(io.StringIO("\n".join([header, ",".join(fields)])))

    @pytest.mark.parametrize("column", [0, 1, 2, 3])
    @pytest.mark.parametrize("text", ["inf", "nan"])
    def test_non_finite_keypoint_rejected(self, column, text):
        d = Descriptor(np.full(128, 1 / 128), 4, 8, Keypoint(20.0, 20.0, 4.0))
        header, row = write_descriptors([d]).getvalue().splitlines()
        fields = row.split(",")
        fields[column] = text
        with pytest.raises(ValueError, match="finite"):
            read_rows(io.StringIO("\n".join([header, ",".join(fields)])))
