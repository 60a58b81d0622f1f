"""Circular kernels, pooled orientation histograms, l1 normalization."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitpool import textures
from orbitpool.image import (
    MAG_EPSILON,
    AffineContrast,
    ContrastMap,
    GammaContrast,
    ImageBuffer,
    SimilarityTransform,
    SupportError,
    apply_contrast,
    compute_gradients,
    gradient_field_of_array,
    warp,
)
from orbitpool.orientation import (
    CircularKernel,
    OrientationHistogram,
    SpatialKernel,
    bin_centers,
    normalize,
    pooled_histogram,
    soft_vote,
    wrap_angle,
)
from conftest import clean_noise_seeds, fold_image, wrapped_gaussian_oracle


class PiecewiseLinearContrast(ContrastMap):
    """Monotone lookup: entry k of n sits at input k / (n - 1), linear in between."""

    def __init__(self, entries):
        self.entries = np.asarray(entries, dtype=np.float64)

    def apply(self, values):
        x = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
        return np.interp(x, np.linspace(0.0, 1.0, self.entries.size), self.entries)


class TestCircularKernel:
    def test_mode_at_zero(self):
        k = CircularKernel(0.4)
        deltas = np.linspace(-np.pi, np.pi, 721)
        values = k(deltas)
        assert k(0.0) >= values.max() - 1e-15

    def test_symmetry_and_periodicity(self):
        k = CircularKernel(0.25)
        for d in (0.3, 1.1, 2.9):
            assert abs(k(d) - k(-d)) < 1e-15
            assert abs(k(d) - k(d + 2 * np.pi)) < 1e-12
        assert abs(k(np.pi) - k(-np.pi)) < 1e-15

    def test_unit_mass(self):
        grid = np.linspace(0.0, 2 * np.pi, 4001, endpoint=False)
        step = 2 * np.pi / 4001
        for eps in (0.1, 0.3, 2 * np.pi / 8, 1.0):
            mass = CircularKernel(eps)(grid).sum() * step
            assert abs(mass - 1.0) < 1e-6

    def test_against_heavy_wrap_oracle(self):
        k = CircularKernel(0.3)
        value = k(np.pi / 4)
        oracle = wrapped_gaussian_oracle(np.pi / 4, 0.3)
        assert abs(value - oracle) < 1e-6
        assert abs(value - 0.043200133153528913) < 1e-12

    def test_five_branches_suffice_below_one_radian(self):
        for eps in (0.2, 0.5, 1.0):
            k = CircularKernel(eps)
            for d in (0.0, 1.0, np.pi):
                assert abs(k(d) - wrapped_gaussian_oracle(d, eps)) < 1e-12

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            CircularKernel(0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.floats(1e-3, 1.6), st.sampled_from([math.pi / math.sqrt(10.0), 2 * math.pi / 8, 1.0])),
        st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=50),
    )
    def test_bit_identical_to_five_branches(self, bandwidth, deltas):
        # narrow kernels skip the branches at +-2 turns: they must round away
        edges = [np.pi, -np.pi, np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0), 0.0, -0.0]
        delta = np.array(deltas + edges)
        want = np.mod(delta + np.pi, 2.0 * np.pi) - np.pi
        inv = 1.0 / bandwidth
        total = np.zeros_like(want)
        for k in range(-2, 3):
            z = (want + 2.0 * np.pi * k) * inv
            total = total + np.exp(-0.5 * z * z)
        want = total * (inv / math.sqrt(2.0 * np.pi))
        npt.assert_array_equal(CircularKernel(bandwidth)(delta).view(np.int64), want.view(np.int64))


class TestWrapAngle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-2 * np.pi, 4 * np.pi, exclude_max=True), min_size=1, max_size=40))
    @example([-2 * np.pi, np.nextafter(4 * np.pi, 0.0), 2 * np.pi, np.nextafter(2 * np.pi, 0.0), -0.0, 0.0])
    @example([-1e-300, 5e-324, np.nextafter(-2 * np.pi, 0.0), np.nextafter(0.0, -1.0), 3 * np.pi])
    def test_bit_identical_to_mod_on_the_fast_range(self, values):
        a = np.array(values)
        npt.assert_array_equal(wrap_angle(a).view(np.int64), np.mod(a, 2 * np.pi).view(np.int64))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    @example([4 * np.pi, 0.0])
    @example([np.nextafter(-2 * np.pi, -7.0), 1.0])
    def test_bit_identical_to_mod_off_the_fast_range(self, values):
        a = np.array(values)
        npt.assert_array_equal(wrap_angle(a).view(np.int64), np.mod(a, 2 * np.pi).view(np.int64))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=20))
    def test_any_input_matches_mod(self, values):
        a = np.array(values)
        with np.errstate(invalid="ignore"):
            npt.assert_array_equal(wrap_angle(a), np.mod(a, 2 * np.pi))

    def test_empty(self):
        assert wrap_angle([]).shape == (0,)


class TestSpatialKernel:
    def test_peak_at_origin(self):
        sk = SpatialKernel(2.0)
        assert sk(0.0, 0.0) == 1.0
        assert sk(1.0, 1.0) < 1.0

    def test_truncation(self):
        sk = SpatialKernel(2.0)
        assert sk(6.1, 0.0) == 0.0
        assert sk(5.9, 0.0) > 0.0

    def test_nonnegative(self):
        sk = SpatialKernel(1.5)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-10, 10, (100, 2))
        assert (sk(pts[:, 0], pts[:, 1]) >= 0).all()


class TestPooledHistogram:
    def test_flat_window_all_zero(self):
        f = compute_gradients(ImageBuffer(np.full((21, 21), 0.5)))
        h = pooled_histogram(f, (10.0, 10.0), 6.0, SpatialKernel(3.0), CircularKernel(0.5))
        npt.assert_array_equal(h.bins, 0.0)
        assert h.total_mass == 0.0

    def test_ramp_concentrates_in_one_bin(self):
        f = compute_gradients(textures.ramp(33, 33, angle=0.0))
        h = pooled_histogram(f, (16.0, 16.0), 10.0, SpatialKernel(5.0), CircularKernel(2 * np.pi / 8))
        assert np.argmax(h.bins) == 0
        # single orientation present: leakage to the two neighbors is symmetric
        npt.assert_allclose(h.bins[1], h.bins[7], rtol=1e-9)
        assert h.bins[0] > h.bins[1]

    def test_orthogonal_fold_against_double_loop_oracle(self):
        img = fold_image()
        f = compute_gradients(img)
        center, radius, sigma, eps, B = (16.0, 16.0), 10.0, 5.0, 2 * np.pi / 8, 8
        h = pooled_histogram(f, center, radius, SpatialKernel(sigma), CircularKernel(eps), B)

        # independent accumulation, one pixel and one bin at a time
        oracle = [0.0] * B
        for v in range(33):
            for u in range(33):
                du, dv = u - center[0], v - center[1]
                d2 = du * du + dv * dv
                if d2 > radius * radius or not f.valid[v, u]:
                    continue
                w = f.magnitude[v, u] * math.exp(-0.5 * d2 / (sigma * sigma))
                if d2 > (3 * sigma) ** 2:
                    w = 0.0
                for b in range(B):
                    delta = 2 * math.pi * b / B - f.orientation[v, u]
                    oracle[b] += w * wrapped_gaussian_oracle(delta, eps, wraps=2)
        npt.assert_allclose(h.bins, oracle, rtol=1e-9)
        # equal-slope fold: masses at orientation 0 and pi/2 agree
        npt.assert_allclose(h.bins[0], h.bins[2], rtol=1e-9)

    def test_window_outside_image(self):
        f = compute_gradients(textures.ramp(16, 16))
        with pytest.raises(SupportError):
            pooled_histogram(f, (100.0, 100.0), 4.0, SpatialKernel(2.0), CircularKernel(0.5))

    def test_rejects_too_few_bins(self):
        f = compute_gradients(textures.ramp(16, 16))
        with pytest.raises(ValueError):
            pooled_histogram(f, (8.0, 8.0), 4.0, SpatialKernel(2.0), CircularKernel(0.5), bins=3)


class TestNormalize:
    def test_arithmetic(self):
        h = normalize(OrientationHistogram(np.array([2.0, 2.0, 4.0]), 8.0))
        npt.assert_allclose(h.bins, [0.25, 0.25, 0.5])
        assert h.total_mass == 8.0
        assert not h.degenerate

    def test_zero_mass_goes_uniform(self):
        h = normalize(OrientationHistogram(np.zeros(8), 0.0))
        npt.assert_allclose(h.bins, 1 / 8)
        assert h.degenerate

    def test_scale_cancellation(self):
        raw = np.array([0.1, 0.7, 0.2, 0.4])
        a = normalize(OrientationHistogram(raw, raw.sum()))
        b = normalize(OrientationHistogram(3.7 * raw, 3.7 * raw.sum()))
        npt.assert_allclose(a.bins, b.bins, rtol=1e-12)

    def test_idempotent(self):
        h = normalize(OrientationHistogram(np.array([1.0, 2.0, 3.0, 4.0]), 10.0))
        again = normalize(h)
        npt.assert_array_equal(again.bins, h.bins)
        assert again.total_mass == h.total_mass
        assert again.degenerate == h.degenerate

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = rng.uniform(0, 5, 8)
            h = normalize(OrientationHistogram(raw, raw.sum()))
            assert abs(h.bins.sum() - 1.0) < 1e-9


class TestInvarianceProperties:
    def test_affine_contrast_invariance(self):
        spatial, kernel = SpatialKernel(5.0), CircularKernel(2 * np.pi / 8)
        for seed in clean_noise_seeds(5):
            img = textures.filtered_noise(32, 32, seed=seed)
            base = normalize(
                pooled_histogram(compute_gradients(img), (16.0, 16.0), 10.0, spatial, kernel)
            )
            for gain in (0.5, 2.0):
                for offset in (-0.1, 0.1):
                    raw = AffineContrast(gain, offset).apply(img.values)
                    h = normalize(
                        pooled_histogram(
                            gradient_field_of_array(raw), (16.0, 16.0), 10.0, spatial, kernel
                        )
                    )
                    npt.assert_allclose(h.bins, base.bins, rtol=1e-6)

    def test_monotone_contrast_preserves_argmax(self):
        rng = np.random.default_rng(42)
        spatial, kernel = SpatialKernel(5.0), CircularKernel(2 * np.pi / 8)
        maps = [GammaContrast(0.5), GammaContrast(2.0), PiecewiseLinearContrast((0.0, 0.05, 0.35, 0.4, 0.95, 1.0))]
        images = [textures.ramp(29, 29, angle=rng.uniform(0, 2 * np.pi), lo=0.1, hi=0.9) for _ in range(8)]
        images.append(fold_image(skew=0.6))
        for img in images:
            f = compute_gradients(img)
            sel = f.valid
            assert f.magnitude[sel].min() > 10 * MAG_EPSILON
            base = pooled_histogram(f, (14.0, 14.0), 9.0, spatial, kernel)
            for cmap in maps:
                mapped = apply_contrast(img, cmap)
                h = pooled_histogram(compute_gradients(mapped), (14.0, 14.0), 9.0, spatial, kernel)
                assert np.argmax(h.bins) == np.argmax(base.bins)

    def test_rotation_covariance_quarter_turn(self):
        img = textures.filtered_noise(25, 25, seed=7)
        rot, _ = warp(img, SimilarityTransform(rotation=2 * np.pi / 4))
        spatial, kernel = SpatialKernel(4.0), CircularKernel(2 * np.pi / 4)
        h0 = normalize(
            pooled_histogram(compute_gradients(img), (12.0, 12.0), 8.0, spatial, kernel, bins=4)
        )
        h1 = normalize(
            pooled_histogram(compute_gradients(rot), (12.0, 12.0), 8.0, spatial, kernel, bins=4)
        )
        npt.assert_allclose(h1.bins, np.roll(h0.bins, 1), atol=1e-6)


class TestHelpers:
    def test_soft_vote_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        oris = rng.uniform(0, 2 * np.pi, 40)
        weights = rng.uniform(0, 1, 40)
        k = CircularKernel(0.5)
        got = soft_vote(oris, weights, k, 8)
        expected = [
            sum(w * wrapped_gaussian_oracle(2 * math.pi * b / 8 - o, 0.5, wraps=2) for o, w in zip(oris, weights))
            for b in range(8)
        ]
        npt.assert_allclose(got, expected, rtol=1e-9)

    def test_soft_vote_matrix_rows(self):
        rng = np.random.default_rng(6)
        oris = rng.uniform(0, 2 * np.pi, 40)
        weights = rng.uniform(0, 1, (5, 40))
        k = CircularKernel(0.5)
        got = soft_vote(oris, weights, k, 8)
        assert got.shape == (5, 8)
        for row, w in zip(got, weights):
            npt.assert_allclose(row, soft_vote(oris, w, k, 8), rtol=0, atol=1e-12)
        npt.assert_array_equal(soft_vote([], np.zeros((5, 0)), k, 8), np.zeros((5, 8)))
        with pytest.raises(ValueError):
            soft_vote(oris, weights[:, 1:], k, 8)

    def test_soft_vote_batched_equals_each_matrix_alone(self):
        # leading axes batch: each (m, n) matrix votes bit for bit as in
        # its own call, and each row as its own 1-D call up to rounding
        rng = np.random.default_rng(7)
        oris = rng.uniform(0, 2 * np.pi, (3, 4, 25))
        weights = rng.uniform(0, 1, (3, 4, 20, 25))
        k = CircularKernel(0.5)
        got = soft_vote(oris, weights, k, 8)
        assert got.shape == (3, 4, 20, 8)
        for i in range(3):
            for j in range(4):
                assert got[i, j].tobytes() == soft_vote(oris[i, j], weights[i, j], k, 8).tobytes()
                for row, w in zip(got[i, j], weights[i, j]):
                    npt.assert_allclose(row, soft_vote(oris[i, j], w, k, 8), rtol=0, atol=1e-12)
        with pytest.raises(ValueError):
            soft_vote(oris[..., 1:], weights, k, 8)

    def test_bin_centers(self):
        npt.assert_allclose(bin_centers(4), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
