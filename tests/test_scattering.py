"""Gabor bank construction, scattering paths, and size pooling."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitpool import textures
from orbitpool.descriptor import Keypoint, SizePrior
from orbitpool.image import ImageBuffer, SupportError, extract_patch
from orbitpool.scattering import build_filter_bank, dsp_scatter, scatter


@pytest.fixture(scope="module")
def bank():
    return build_filter_bank()


def lowpass_weights(side, sigma):
    c = (side - 1) / 2.0
    uu, vv = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
    w = np.exp(-0.5 * ((uu - c) ** 2 + (vv - c) ** 2) / (sigma * sigma))
    return w / w.sum()


def conv_by_rolling(values, kernel):
    """Circular convolution built from shifts only; independent oracle."""
    r = (kernel.shape[0] - 1) // 2
    acc = np.zeros(values.shape, dtype=complex)
    for ky in range(-r, r + 1):
        for kx in range(-r, r + 1):
            acc += kernel[ky + r, kx + r] * np.roll(values, (ky, kx), axis=(0, 1))
    return acc


class TestFilterBank:
    def test_counting_small(self):
        b = build_filter_bank(scales=1, rotations=2)
        assert len(b.kernels) == 1 and len(b.kernels[0]) == 2

    def test_default_geometry(self, bank):
        assert bank.scales == 3 and bank.rotations == 8
        # truncation at 4 * sigma * 2**j
        for j, side in enumerate((9, 15, 27)):
            for kern in bank.kernels[j]:
                assert kern.shape == (side, side)
        assert bank.max_radius == 13

    def test_dc_corrected(self, bank):
        for row in bank.kernels:
            for kern in row:
                assert abs(kern.sum()) / np.abs(kern).sum() < 1e-3
                assert abs(kern.sum()) < 1e-12

    def test_unit_modulus_mass(self, bank):
        for row in bank.kernels:
            for kern in row:
                assert abs(np.abs(kern).sum() - 1.0) < 1e-12

    def test_half_turn_conjugation(self, bank):
        L = bank.rotations
        for j in range(bank.scales):
            for l in range(L // 2):
                npt.assert_allclose(
                    bank.kernels[j][l + L // 2], np.conj(bank.kernels[j][l]), atol=1e-9
                )

    def test_dilation_halves_peak_frequency(self, bank):
        # sweep pure sinusoids: response of kernel (j, 0) to frequency f
        freqs = np.linspace(0.15, 3.0, 115)

        def peak(j):
            kern = bank.kernels[j][0]
            r = (kern.shape[0] - 1) // 2
            xs = np.arange(-r, r + 1, dtype=float)
            profile = kern.sum(axis=0)  # theta = 0: kernel varies along x
            responses = [abs((profile * np.exp(-1j * f * xs)).sum()) for f in freqs]
            return freqs[int(np.argmax(responses))]

        ratio = peak(0) / peak(1)
        assert 1.8 < ratio < 2.2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_filter_bank(scales=0)
        with pytest.raises(ValueError):
            build_filter_bank(rotations=1)


class TestScatter:
    def test_constant_patch(self, bank):
        patch = ImageBuffer(np.full((32, 32), 0.6))
        for method in ("fft", "direct"):
            vec = scatter(patch, bank, method=method)
            assert abs(vec.order0 - 0.6) < 1e-12
            assert vec.order1.max() < 1e-6
            assert vec.order2.max() < 1e-6

    def test_structure(self, bank):
        patch = textures.filtered_noise(32, 32, seed=0)
        vec = scatter(patch, bank)
        assert vec.order1.shape == (3, 8)
        assert vec.pairs == ((0, 1), (0, 2), (1, 2))
        assert vec.order2.shape == (3, 8, 8)
        assert vec.flatten().shape == (1 + 24 + 3 * 64,)
        labels = vec.labels()
        assert len(labels) == vec.flatten().size
        assert labels[0] == "0" and labels[1] == "1:0,0"
        assert labels[25] == "2:0,0>1,0"

    def test_nonnegative(self, bank):
        for seed in range(3):
            vec = scatter(textures.filtered_noise(32, 32, seed=seed), bank)
            assert vec.flatten().min() >= 0.0

    def test_patch_too_small(self, bank):
        with pytest.raises(SupportError):
            scatter(ImageBuffer(np.full((16, 16), 0.5)), bank)

    @pytest.mark.parametrize("method", ["fft", "direct"])
    def test_largest_kernel_must_fit(self, bank, method):
        # the coarsest kernels are 27 px square: a 26 px side is one short
        with pytest.raises(SupportError):
            scatter(textures.filtered_noise(26, 40, seed=0), bank, method=method)

    def test_smallest_fitting_patch(self, bank):
        assert scatter(textures.filtered_noise(27, 27, seed=0), bank).order1.shape == (3, 8)

    def test_order_one_against_rolling_oracle(self, bank):
        patch = textures.filtered_noise(32, 32, seed=5)
        weights = lowpass_weights(32, bank.phi_sigma)
        oracle = np.empty((3, 8))
        for j in range(3):
            for l in range(8):
                resp = np.abs(conv_by_rolling(patch.values, bank.kernels[j][l]))
                oracle[j, l] = (resp * weights).sum()
        for method in ("fft", "direct"):
            vec = scatter(patch, bank, method=method)
            npt.assert_allclose(vec.order1, oracle, atol=1e-6)

    def test_sinusoid_path_selectivity(self, bank):
        # grating tuned to scale j*=1, rotation l*=2 (90 degrees)
        theta = 2 * np.pi * 2 / 8
        freq = bank.xi / 2.0
        uu, vv = np.meshgrid(np.arange(32, dtype=float), np.arange(32, dtype=float))
        phase = freq * (uu * np.cos(theta) + vv * np.sin(theta))
        patch = ImageBuffer.from_array(0.5 + 0.35 * np.cos(phase))

        vec = scatter(patch, bank)
        j_star, l_star = np.unravel_index(np.argmax(vec.order1), vec.order1.shape)
        assert j_star == 1
        # a real grating excites l and its half-turn partner equally
        assert l_star in (2, 6)

        weights = lowpass_weights(32, bank.phi_sigma)
        oracle = np.empty((3, 8))
        for j in range(3):
            for l in range(8):
                resp = np.abs(conv_by_rolling(patch.values, bank.kernels[j][l]))
                oracle[j, l] = (resp * weights).sum()
        npt.assert_allclose(vec.order1, oracle, atol=1e-6)
        oj, ol = np.unravel_index(np.argmax(oracle), oracle.shape)
        assert (j_star, l_star % 4) == (oj, ol % 4)

    def test_fft_and_direct_agree(self, bank):
        for side in (32, 48):
            patch = textures.filtered_noise(side, side, seed=3)
            a = scatter(patch, bank, method="fft").flatten()
            b = scatter(patch, bank, method="direct").flatten()
            npt.assert_allclose(a, b, atol=1e-12)

    def test_translation_stability(self, bank):
        base = textures.gaussian_blob(48, 48, center=(24.0, 24.0), sigma=4.0)
        shifted = ImageBuffer(np.roll(base.values, (0, 2), axis=(0, 1)))
        s0 = scatter(base, bank).flatten()
        s1 = scatter(shifted, bank).flatten()
        rel = np.linalg.norm(s0 - s1) / np.linalg.norm(s0)
        assert rel < 0.2

    def test_contrast_gain_homogeneity(self, bank):
        patch = textures.filtered_noise(32, 32, seed=8)
        half = ImageBuffer(0.5 * patch.values)
        s1 = scatter(patch, bank).flatten()
        s2 = scatter(half, bank).flatten()
        npt.assert_allclose(s2, 0.5 * s1, rtol=1e-9)
        npt.assert_allclose(s2 / s2.sum(), s1 / s1.sum(), rtol=1e-9)


def small_cases(rotations=st.integers(2, 9)):
    """(seed, height, width, scales, rotations) of a random patch and a
    small bank; the direct path takes seconds on the default bank."""
    return st.tuples(
        st.integers(0, 2**32 - 1), st.integers(32, 40), st.integers(32, 40), st.sampled_from((1, 2)), rotations
    )


def random_case(case):
    seed, h, w, scales, rotations = case
    patch = ImageBuffer(np.random.default_rng(seed).random((h, w)))
    return patch, build_filter_bank(scales=scales, rotations=rotations)


class TestScatterProperties:
    @settings(max_examples=15, deadline=None)
    @given(small_cases())
    def test_fft_equals_direct(self, case):
        patch, bank = random_case(case)
        a = scatter(patch, bank, method="fft")
        b = scatter(patch, bank, method="direct")
        npt.assert_allclose(a.flatten(), b.flatten(), rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(small_cases(st.sampled_from((2, 4, 6, 8))))
    def test_half_turn_symmetry(self, case):
        patch, bank = random_case(case)
        vec = scatter(patch, bank)
        h = bank.rotations // 2
        npt.assert_array_equal(vec.order1[:, :h], vec.order1[:, h:])
        npt.assert_array_equal(vec.order2[:, :h], vec.order2[:, h:])
        npt.assert_array_equal(vec.order2[:, :, :h], vec.order2[:, :, h:])


class TestDspScatter:
    def test_delta_prior_reduces_exactly(self, bank):
        img = textures.filtered_noise(64, 64, seed=4)
        kp = Keypoint(32.0, 32.0, 6.0)
        pooled = dsp_scatter(img, kp, SizePrior.delta(1.0), bank)
        patch = extract_patch(img, (32.0, 32.0), 18.0, 32)
        single = scatter(patch, bank)
        assert pooled.order0 == single.order0
        npt.assert_array_equal(pooled.order1, single.order1)
        npt.assert_array_equal(pooled.order2, single.order2)

    def test_two_size_average_oracle(self, bank):
        img = textures.filtered_noise(64, 64, seed=4)
        kp = Keypoint(32.0, 32.0, 6.0)
        pooled = dsp_scatter(img, kp, SizePrior.uniform((0.8, 1.2)), bank)
        a = scatter(extract_patch(img, (32.0, 32.0), 0.8 * 18.0, 32), bank).flatten()
        b = scatter(extract_patch(img, (32.0, 32.0), 1.2 * 18.0, 32), bank).flatten()
        npt.assert_allclose(pooled.flatten(), 0.5 * (a + b), atol=1e-9)

    def test_constant_image(self, bank):
        img = ImageBuffer(np.full((64, 64), 0.3))
        vec = dsp_scatter(img, Keypoint(32.0, 32.0, 5.0), SizePrior.default(), bank)
        assert vec.order1.max() < 1e-6
        assert vec.order2.max() < 1e-6

    def test_out_of_bounds_sizes_listed(self, bank):
        img = textures.filtered_noise(64, 64, seed=1)
        with pytest.raises(SupportError) as err:
            dsp_scatter(img, Keypoint(32.0, 32.0, 18.0), SizePrior.default(), bank)
        assert "70.20" in str(err.value)
