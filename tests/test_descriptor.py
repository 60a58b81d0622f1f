"""Grid descriptors: detection, rotated frames, size pooling, distances."""

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
    GRID_CHUNK,
    SizePrior,
    accumulate_grid,
    accumulate_pools,
    descriptor_distance,
    dog_keypoints,
    dsp_descriptor,
    grid_keypoints,
    normalize_grid,
    normalize_grids,
    read_rows,
    single_size_descriptor,
    window_box,
    window_inside,
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
from orbitpool.orientation import bin_centers
from conftest import clean_noise_seeds, gaussian_blob, wrapped_gaussian_oracle


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
        img = gaussian_blob(48, 48, center=(24.0, 24.0), sigma=3.0)
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


def bits(a):
    """The exact bit pattern of a float array, for bit-for-bit comparison."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def reference_kernel(delta, bandwidth):
    """The wrapped Gaussian as five branches after ``np.mod``, summed from k = -2 up."""
    delta = np.mod(delta + np.pi, 2.0 * np.pi) - np.pi
    inv = 1.0 / bandwidth
    total = np.zeros_like(delta)
    for k in range(-2, 3):
        z = (delta + 2.0 * np.pi * k) * inv
        total = total + np.exp(-0.5 * z * z)
    return total * (inv / math.sqrt(2.0 * np.pi))


def reference_extent(kp, size):
    """Least and greatest u, then v, over the four corners of a keypoint's window."""
    half = size / 2.0
    c, s = math.cos(kp.orientation), math.sin(kp.orientation)
    corners = ((-half, -half), (half, -half), (-half, half), (half, half))
    us = [kp.u + c * ex - s * ey for ex, ey in corners]
    vs = [kp.v + s * ex + c * ey for ex, ey in corners]
    return min(us), max(us), min(vs), max(vs)


def reference_grid(field, kp, sides, weights, cfg):
    """One keypoint's raw grid computed on its own, one side at a time.

    This is the plain per-keypoint arithmetic the batched path must
    repeat bit for bit; None when the largest window leaves the image.
    """
    h, w = field.magnitude.shape
    largest = max(sides)
    umin, umax, vmin, vmax = reference_extent(kp, largest)
    if not (umin >= 0 and umax <= w - 1 and vmin >= 0 and vmax <= h - 1):
        return None
    u0, u1, v0, v1 = math.floor(umin), math.ceil(umax), math.floor(vmin), math.ceil(vmax)
    du = np.arange(u0, u1 + 1, dtype=float) - kp.u
    dv = np.arange(v0, v1 + 1, dtype=float)[:, None] - kp.v
    c, s = math.cos(-kp.orientation), math.sin(-kp.orientation)
    ex = c * du - s * dv
    ey = s * du + c * dv
    half = largest / 2.0
    sel = (np.abs(ex) <= half) & (np.abs(ey) <= half) & field.valid[v0 : v1 + 1, u0 : u1 + 1]
    ex, ey = ex[sel], ey[sel]
    mag = field.magnitude[v0 : v1 + 1, u0 : u1 + 1][sel]
    rel = np.mod(field.orientation[v0 : v1 + 1, u0 : u1 + 1][sel] - kp.orientation, 2.0 * np.pi)
    C = cfg.cells
    votes = np.zeros((C * C, rel.size))
    for side, weight in zip(sides, weights):
        half, cell = side / 2.0, side / C
        pix = np.flatnonzero((np.abs(ex) <= half) & (np.abs(ey) <= half))
        wx, wy = ex[pix], ey[pix]
        cx = np.clip(np.floor((wx + half) / cell).astype(int), 0, C - 1)
        cy = np.clip(np.floor((wy + half) / cell).astype(int), 0, C - 1)
        sigma_k = cfg.kappa_fraction * cell
        centers = (np.arange(C) + 0.5) * cell - half
        dcx, dcy = wx - centers[cx], wy - centers[cy]
        votes[cy * C + cx, pix] += weight * mag[pix] * np.exp(-0.5 * (dcx * dcx + dcy * dcy) / (sigma_k * sigma_k))
    if rel.size == 0:
        return np.zeros(cfg.length)
    kernel = reference_kernel(bin_centers(cfg.bins)[:, None] - rel[None, :], 2.0 * np.pi / cfg.bins)
    return (kernel @ votes.T).T.ravel()


def assert_reference_grids(raw, want, kps, kept):
    """Compare batched grids with ``reference_grid``'s for the ``kept`` keypoints.

    Rotated keypoints repeat the reference bit for bit.  Upright ones take
    the separable path, whose sums associate differently: each entry lies
    within 1e-14 of its row's l1 mass.
    """
    want = np.array([want[k] for k in kept], dtype=float).reshape(raw.shape)
    upright = np.array([kps[k].orientation == 0.0 for k in kept], dtype=bool)
    npt.assert_array_equal(bits(raw[~upright]), bits(want[~upright]))
    mass = np.abs(want[upright]).sum(axis=1, keepdims=True)
    assert (np.abs(raw[upright] - want[upright]) <= 1e-14 * mass).all()


@st.composite
def keypoint_sets(draw):
    """Up to three chunks of keypoints: mixed base sizes, shared and own
    orientations, some with windows touching or crossing the border."""
    shared = draw(st.floats(0.0, 2 * math.pi, exclude_max=True))
    position = st.one_of(st.floats(0.0, SIDE - 1.0), st.integers(0, SIDE - 1).map(float))
    keypoint = st.builds(
        Keypoint,
        position,
        position,
        st.one_of(st.sampled_from([1.5, 2.0, 2.5]), st.floats(1.0, 3.0)),
        st.one_of(st.just(0.0), st.just(shared), st.floats(-7.0, 7.0)),
    )
    return draw(st.lists(keypoint, max_size=3 * GRID_CHUNK))


def half_flat_field(seed):
    """Noise whose left third is flat, so some windows hold no gradient mass."""
    values = textures.filtered_noise(SIDE, SIDE, seed=seed).values.copy()
    values[:, : SIDE // 3] = 0.5
    return compute_gradients(ImageBuffer.from_array(values))


def few_orientation_values(name):
    """SIDE x SIDE images whose pixels share few gradient orientations."""
    if name == "ramp":
        return textures.ramp(SIDE, SIDE, angle=0.3).values
    if name == "checkerboard":
        return textures.checkerboard(SIDE, SIDE, cell=4).values
    if name == "half-constant":
        values = textures.ramp(SIDE, SIDE, angle=1.1).values.copy()
        values[:, SIDE // 2 :] = 0.5
        return values
    return np.full((SIDE, SIDE), 0.5)


FEW_ORIENTATION_FIELDS = ("ramp", "checkerboard", "half-constant", "flat")
LATTICE_ORIENTATIONS = {
    "unrotated": lambda k: 0.0,
    "shared": lambda k: 0.9,
    "three": lambda k: (0.0, 0.9, 4.1)[k % 3],
    "rotated": lambda k: 0.4 * k - 3.0,
}


def lattice_with(orientation):
    """Keypoints with overlapping windows, more than one chunk of them inside the image."""
    points = [(float(u), float(v)) for v in range(3, SIDE, 5) for u in range(3, SIDE, 5)]
    return [Keypoint(u, v, 2.0, orientation(k)) for k, (u, v) in enumerate(points)]


class TestAccumulateGrids:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), keypoint_sets(), keypoints_and_priors())
    def test_batched_equals_per_keypoint(self, seed, kps, case):
        _, prior = case
        cfg = DescriptorConfig()
        f = half_flat_field(seed)
        sides = prior.sides([kp.base_size for kp in kps], cfg.support_factor)
        kept, raw = accumulate_pools(f, kps, [(sides, prior.weights)], cfg)[0]
        rows, degenerate = normalize_grids(raw, cfg)

        want = [reference_grid(f, kp, sides[i], prior.weights, cfg) for i, kp in enumerate(kps)]
        assert kept == [i for i, grid in enumerate(want) if grid is not None]
        assert_reference_grids(raw, want, kps, kept)

        described = []
        for i, kp in enumerate(kps):
            try:
                described.append((i, dsp_descriptor(f, kp, prior, cfg)))
            except SupportError:
                continue
        assert kept == [i for i, _ in described]
        npt.assert_array_equal(bits(rows), bits([d.values for _, d in described]).reshape(-1, cfg.length))
        assert degenerate.tolist() == [d.degenerate for _, d in described]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), keypoint_sets(), st.data())
    def test_layered_field_with_own_weights(self, seed, kps, data):
        # keypoint k reads layer k of a (V, h, w) field and weighs its
        # windows with its own row of weights
        cfg = DescriptorConfig()
        stack = np.random.default_rng(seed).uniform(size=(len(kps), SIDE, SIDE))
        sides = [[0.8 * cfg.support_factor * kp.base_size, cfg.support_factor * kp.base_size] for kp in kps]
        weight = st.floats(0.01, 4.0)
        weights = data.draw(st.lists(st.tuples(weight, weight), min_size=len(kps), max_size=len(kps)))
        pools = [(sides, np.reshape(weights, (-1, 2)))]
        kept, raw = accumulate_pools(gradient_field_of_array(stack), kps, pools, cfg)[0]
        want = [
            reference_grid(gradient_field_of_array(stack[k]), kp, sides[k], weights[k], cfg) for k, kp in enumerate(kps)
        ]
        assert kept == [k for k, grid in enumerate(want) if grid is not None]
        assert_reference_grids(raw, want, kps, kept)

    @pytest.mark.parametrize("orientation", sorted(LATTICE_ORIENTATIONS))
    @pytest.mark.parametrize("name", FEW_ORIENTATION_FIELDS)
    def test_pixels_sharing_relative_orientations(self, name, orientation):
        # different pixels of one chunk share a relative orientation here,
        # and so a kernel column, which noise fields almost never give
        cfg = DescriptorConfig()
        f = compute_gradients(ImageBuffer.from_array(few_orientation_values(name)))
        kps = lattice_with(LATTICE_ORIENTATIONS[orientation])
        prior = SizePrior.default()
        sides = prior.sides([kp.base_size for kp in kps], cfg.support_factor)
        kept, raw = accumulate_pools(f, kps, [(sides, prior.weights)], cfg)[0]
        want = [reference_grid(f, kp, sides[i], prior.weights, cfg) for i, kp in enumerate(kps)]
        assert kept == [i for i, grid in enumerate(want) if grid is not None]
        assert len(kept) > GRID_CHUNK
        assert_reference_grids(raw, want, kps, kept)
        assert raw.any() == (name != "flat")

    @pytest.mark.parametrize("orientation", sorted(LATTICE_ORIENTATIONS))
    def test_layered_field_sharing_relative_orientations(self, orientation):
        cfg = DescriptorConfig()
        kps = lattice_with(LATTICE_ORIENTATIONS[orientation])
        layers = [few_orientation_values(FEW_ORIENTATION_FIELDS[k % 4]) for k in range(len(kps))]
        sides = [[0.8 * cfg.support_factor * kp.base_size, cfg.support_factor * kp.base_size] for kp in kps]
        weights = (0.25, 0.75)
        kept, raw = accumulate_pools(gradient_field_of_array(np.stack(layers)), kps, [(sides, weights)], cfg)[0]
        want = [
            reference_grid(gradient_field_of_array(layers[k]), kp, sides[k], weights, cfg) for k, kp in enumerate(kps)
        ]
        assert kept == [k for k, grid in enumerate(want) if grid is not None]
        assert len(kept) > GRID_CHUNK
        assert_reference_grids(raw, want, kps, kept)

    def test_layers_and_weight_rows_must_match_keypoints(self):
        cfg = DescriptorConfig()
        field = gradient_field_of_array(np.random.default_rng(1).uniform(size=(3, SIDE, SIDE)))
        kps = [Keypoint(16.0, 16.0, 2.0)] * 2
        with pytest.raises(ValueError, match="3 field layers for 2 keypoints"):
            accumulate_pools(field, kps, [([[6.0]] * 2, (1.0,))], cfg)[0]
        with pytest.raises(ValueError, match="3 rows of weights for 2 keypoints"):
            accumulate_pools(half_flat_field(0), kps, [([[6.0]] * 2, [[1.0]] * 3)], cfg)[0]

    def test_no_keypoints(self):
        f = half_flat_field(0)
        kept, raw = accumulate_pools(f, [], [(np.zeros((0, 2)), (0.5, 0.5))], DescriptorConfig())[0]
        assert kept == [] and raw.shape == (0, 128)

    def test_sides_must_match_keypoints_and_weights(self):
        f = half_flat_field(0)
        kps = [Keypoint(16.0, 16.0, 2.0)] * 2
        with pytest.raises(ValueError, match="rows of sides"):
            accumulate_pools(f, kps, [([[6.0, 7.0]], (0.5, 0.5))], DescriptorConfig())[0]
        with pytest.raises(ValueError, match="at least one window side"):
            accumulate_pools(f, kps, [(np.zeros((2, 0)), ())], DescriptorConfig())[0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-50.0, 50.0),
        st.floats(-50.0, 50.0),
        st.floats(-10.0, 10.0),
        st.one_of(st.integers(1, 40).map(float), st.floats(0.01, 40.0)),
    )
    def test_window_bounds_match_the_corners(self, u, v, orientation, size):
        kp = Keypoint(u, v, 1.0, orientation)
        umin, umax, vmin, vmax = reference_extent(kp, size)
        shape = (23, 31)
        assert window_inside(kp, size, shape) == (umin >= 0 and umax <= 30 and vmin >= 0 and vmax <= 22)
        assert window_box(kp, size, shape) == (
            max(0, math.floor(umin)), min(30, math.ceil(umax)), max(0, math.floor(vmin)), min(22, math.ceil(vmax))
        )

    def test_windows_touching_the_border_are_kept(self):
        f = half_flat_field(3)
        cfg = DescriptorConfig()
        # side 6: the window spans [u - 3, u + 3], so u = 3 and u = SIDE - 4 touch the border
        kps = [Keypoint(3.0, 3.0, 2.0), Keypoint(SIDE - 4.0, SIDE - 4.0, 2.0), Keypoint(2.5, 16.0, 2.0)]
        kept, _ = accumulate_pools(f, kps, [([[6.0]] * 3, (1.0,))], cfg)[0]
        assert kept == [0, 1]

    def test_normalize_grids_rows_match_normalize_grid(self):
        cfg = DescriptorConfig(cells=1)
        raw = np.random.default_rng(4).uniform(size=(5, cfg.length))
        raw[2] = 0.0
        rows, degenerate = normalize_grids(raw, cfg)
        kp = Keypoint(0.0, 0.0, 1.0)
        for row, flag, grid in zip(rows, degenerate, raw):
            d = normalize_grid(grid, kp, cfg)
            npt.assert_array_equal(bits(row), bits(d.values))
            assert flag == d.degenerate
        assert degenerate.tolist() == [False, False, True, False, False]


SIZE_PRIORS = st.sampled_from(
    [
        SizePrior.delta(),  # sift's one window
        SizePrior.default(),  # dsp-sift's five, 1.0 among them
        SizePrior.uniform((0.8, 1.2)),  # no 1.0
        SizePrior.uniform((0.5, 0.8)),  # every window inside sift's
        SizePrior.uniform((1.0, 1.6)),
        SizePrior(((0.7, 0.0), (1.0, 1.0), (1.4, 0.0))),  # zero-weight sizes still set the window
    ]
)


def pools_of(priors, kps, cfg, weights=None):
    """The (sides, weights) pool of each prior; the first takes ``weights``, one row per keypoint, if given."""
    bases = [kp.base_size for kp in kps]
    pools = [(prior.sides(bases, cfg.support_factor), prior.weights) for prior in priors]
    if weights is not None:
        pools[0] = (pools[0][0], weights)
    return pools


class TestAccumulatePools:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        keypoint_sets(),
        st.lists(SIZE_PRIORS, min_size=1, max_size=3),
        st.sampled_from(["half-flat", "flat", "layered"]),
        st.booleans(),
    )
    def test_one_pass_equals_each_pool_alone(self, seed, kps, priors, name, own_weights):
        # mixed base sizes, shared and own orientations and windows that
        # one pool keeps and another drops at the border, over a field
        # with flat windows, a flat field whose chunks hold no valid pixel,
        # and a layered field
        cfg = DescriptorConfig()
        rng = np.random.default_rng(seed)
        stack = rng.uniform(size=(len(kps), SIDE, SIDE))
        if name == "layered":
            field = gradient_field_of_array(stack)
            layers = [gradient_field_of_array(layer) for layer in stack]
        else:
            flat = ImageBuffer(np.full((SIDE, SIDE), 0.5))
            field = half_flat_field(seed) if name == "half-flat" else compute_gradients(flat)
            layers = [field] * len(kps)
        own = rng.uniform(0.01, 4.0, size=(len(kps), len(priors[0].weights))) if own_weights else None
        pools = pools_of(priors, kps, cfg, own)
        got = accumulate_pools(field, kps, pools, cfg)
        assert len(got) == len(pools)
        for (kept, raw), (sides, weights) in zip(got, pools):
            rows = np.broadcast_to(weights, (len(kps), np.shape(weights)[-1]))
            want = [reference_grid(layers[k], kp, sides[k], rows[k], cfg) for k, kp in enumerate(kps)]
            assert kept == [k for k, grid in enumerate(want) if grid is not None]
            assert_reference_grids(raw, want, kps, kept)
            alone_kept, alone = accumulate_pools(field, kps, [(sides, weights)], cfg)[0]
            assert alone_kept == kept
            npt.assert_array_equal(bits(alone), bits(raw))

    def test_each_pool_keeps_its_own_keypoints(self):
        # side 6 (sift) fits at u = 3 where dsp-sift's 7.8 does not, and
        # 4.8 (a prior below 1.0) at u = 2.5 where sift's does not; the
        # gathered window is the largest one that fits
        cfg = DescriptorConfig()
        f = half_flat_field(5)
        kps = [Keypoint(u, v, 2.0) for v in (12.0, 20.5) for u in (3.0, 2.5, 2.0, 4.0, 16.0, 27.6, 28.0, 28.5)]
        priors = (SizePrior.delta(), SizePrior.default(), SizePrior.uniform((0.5, 0.8)))
        pools = pools_of(priors, kps, cfg)
        got = accumulate_pools(f, kps, pools, cfg)
        sift, dsp, small = (set(kept) for kept, _ in got)
        assert dsp < sift < small
        assert len(small) > GRID_CHUNK
        for (kept, raw), (sides, weights) in zip(got, pools):
            alone_kept, alone = accumulate_pools(f, kps, [(sides, weights)], cfg)[0]
            assert alone_kept == kept
            npt.assert_array_equal(bits(alone), bits(raw))

    def test_large_windows_alone_in_a_batch_and_with_other_pools(self):
        # windows wider than 32 pixels, where the order in which a BLAS
        # product sums can change with the product's shape
        cfg = DescriptorConfig()
        rng = np.random.default_rng(17)
        field = compute_gradients(textures.filtered_noise(96, 96, seed=17))
        position = lambda: float(rng.uniform(20.0, 76.0))
        kps = [Keypoint(position(), position(), float(rng.uniform(4.0, 9.0)), 0.7 * (k % 4 == 0)) for k in range(24)]
        pools = pools_of((SizePrior.delta(), SizePrior.default(), SizePrior.uniform((1.0, 1.6))), kps, cfg)
        for (kept, raw), (sides, weights) in zip(accumulate_pools(field, kps, pools, cfg), pools):
            assert len(kept) > GRID_CHUNK
            alone_kept, alone = accumulate_pools(field, kps, [(sides, weights)], cfg)[0]
            assert alone_kept == kept
            npt.assert_array_equal(bits(alone), bits(raw))
            for k, row in zip(kept, raw):
                one = accumulate_pools(field, [kps[k]], [([sides[k]], weights)], cfg)[0][1]
                npt.assert_array_equal(bits(one[0]), bits(row))


class TestUprightPath:
    def test_upright_keypoints_never_gather_pixels(self, monkeypatch):
        # lattices, detected keypoints and template views are upright, and
        # take the separable path; a rotated keypoint still gathers
        from orbitpool import bench, descriptor, soa

        def refuse(*args):
            raise AssertionError("_window_pixels reached")

        monkeypatch.setattr(descriptor, "_window_pixels", refuse)
        img = textures.filtered_noise(64, 64, seed=7)
        mcfg = bench.MatchConfig()
        for kps in (grid_keypoints(img, 12, 6.0), dog_keypoints(img)):
            described = bench.describe_kinds(img, kps, bench.HISTOGRAM_KINDS, mcfg.prior, mcfg.descriptor, None)
            assert all(kept for kept, _, _ in described.values())
        samples = soa.GroupSampleSet.rotation_group(4, anti_alias="delta")
        template = soa.build_template(img, Keypoint(31.5, 31.5, 6.6), samples)
        assert not any(d.degenerate for d in template.descriptors)
        with pytest.raises(AssertionError, match="_window_pixels reached"):
            accumulate_grid(compute_gradients(img), Keypoint(32.0, 32.0, 4.0, 0.5), (12.0,), (1.0,), DescriptorConfig())


class TestRotationCanonization:
    def test_quarter_turn_with_recomputed_reference(self):
        # a window in the frame of reference alpha, and the same window in
        # a view turned a quarter, its reference recomputed as alpha + pi/2
        img = textures.filtered_noise(33, 33, seed=13)
        kp0 = Keypoint(16.0, 16.0, 3.0)
        alpha = 0.7
        d0 = single_size_descriptor(compute_gradients(img), dataclasses.replace(kp0, orientation=alpha), 9.0)

        rot, _ = warp(img, SimilarityTransform(rotation=np.pi / 2))
        f1 = compute_gradients(rot)
        d1 = single_size_descriptor(f1, dataclasses.replace(kp0, orientation=alpha + np.pi / 2), 9.0)
        npt.assert_allclose(d1.values, d0.values, atol=1e-3)
        # the reference is what matches them: kept at alpha, they differ
        stale = single_size_descriptor(f1, dataclasses.replace(kp0, orientation=alpha), 9.0)
        assert np.abs(stale.values - d0.values).max() > 1e-2


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
