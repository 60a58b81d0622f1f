"""Image foundation: I/O, smoothing, gradients, warps, contrast maps."""

import math
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitpool.image import (
    _SNAP_EPS,
    _bilinear_sample,
    PRE_SIGMA,
    AffineContrast,
    GammaContrast,
    ImageBuffer,
    ImageFormatError,
    SimilarityTransform,
    SupportError,
    apply_contrast,
    blur_array,
    compute_gradients,
    extract_patch,
    gaussian_blur,
    gradient_field_of_array,
    load_image,
    patch_inside,
    save_pgm,
    warp,
    warp_boxes,
)
from orbitpool import textures
from orbitpool.cli import main


# ---------------------------------------------------------------------------
# loading


class TestLoadImage:
    def test_pgm_rescale(self, tmp_path):
        p = tmp_path / "tiny.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_image(p)
        npt.assert_allclose(img.values, [[0.0, 1.0], [128 / 255, 64 / 255]])

    def test_pgm_with_comment(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([10, 20]))
        img = load_image(p)
        assert img.width == 2 and img.height == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_image(tmp_path / "nope.pgm")

    def test_unsupported_format(self, tmp_path):
        p = tmp_path / "junk.img"
        p.write_bytes(b"GARBAGE!" * 4)
        with pytest.raises(ImageFormatError):
            load_image(p)

    def test_16bit_pgm_rejected(self, tmp_path):
        p = tmp_path / "deep.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ImageFormatError):
            load_image(p)

    def test_png_rgb_luminance(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        p = tmp_path / "red.png"
        PIL.new("RGB", (2, 2), (255, 0, 0)).save(p)
        img = load_image(p)
        npt.assert_allclose(img.values, 0.299, atol=1e-12)

    def test_png_gray(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        p = tmp_path / "gray.png"
        PIL.new("L", (3, 2), 128).save(p)
        img = load_image(p)
        npt.assert_allclose(img.values, 128 / 255)

    def test_png_without_pillow(self, tmp_path, monkeypatch, capsys):
        # without Pillow every PNG takes this path
        monkeypatch.setitem(sys.modules, "PIL", None)
        p = tmp_path / "file.png"
        p.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(24))
        with pytest.raises(ImageFormatError, match="requires Pillow"):
            load_image(p)
        assert main(["describe", str(p)]) == 2
        assert "requires Pillow" in capsys.readouterr().err

    def test_pgm_roundtrip(self, tmp_path):
        img = textures.filtered_noise(17, 13, seed=5)
        p = tmp_path / "dump.pgm"
        save_pgm(img, p)
        back = load_image(p)
        assert back.width == 17 and back.height == 13
        npt.assert_allclose(back.values, img.values, atol=1 / 255 + 1e-12)


class TestImageBuffer:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ImageBuffer(np.array([[0.0, 1.5]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ImageBuffer(np.array([[0.0, np.nan]]))

    def test_read_only(self):
        img = textures.ramp(4, 4)
        with pytest.raises(ValueError):
            img.values[0, 0] = 0.5


# ---------------------------------------------------------------------------
# smoothing


class TestGaussianBlur:
    def test_sigma_zero_identity(self):
        img = textures.filtered_noise(12, 9, seed=1)
        out = gaussian_blur(img, 0.0)
        npt.assert_array_equal(out.values, img.values)

    def test_constant_fixed_point(self):
        img = ImageBuffer(np.full((8, 8), 0.375))
        for sigma in (0.5, 1.0, 2.5):
            npt.assert_allclose(gaussian_blur(img, sigma).values, 0.375, atol=1e-12)

    def test_impulse_peak_matches_direct_summation(self):
        # oracle: build the truncated 2-D kernel by brute-force normalization
        arr = np.zeros((11, 11))
        arr[5, 5] = 1.0
        out = gaussian_blur(ImageBuffer(arr), 1.0)
        xs = np.arange(-3, 4, dtype=float)
        k1 = np.exp(-0.5 * xs**2)
        k2 = np.outer(k1, k1) / (k1.sum() ** 2)
        assert abs(out.values[5, 5] - k2[3, 3]) < 1e-12
        assert abs(out.values[5, 5] - 0.15924112569070245) < 1e-12

    def test_mean_preserved_for_interior_support(self):
        rng = np.random.default_rng(7)
        arr = np.zeros((32, 32))
        arr[10:22, 10:22] = rng.uniform(size=(12, 12))
        out = blur_array(arr, 1.5)
        assert abs(out.mean() - arr.mean()) < 1e-6

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            gaussian_blur(textures.ramp(4, 4), -1.0)


# ---------------------------------------------------------------------------
# gradients


class TestComputeGradients:
    def test_horizontal_ramp(self):
        img = textures.ramp(24, 24, angle=0.0)
        f = compute_gradients(img)
        assert f.valid[2:-2, 2:-2].all()
        npt.assert_allclose(f.orientation[f.valid], 0.0, atol=1e-9)
        # away from the border-handling zone the slope is constant
        mags = f.magnitude[5:-5, 5:-5]
        npt.assert_allclose(mags, mags[0, 0], rtol=1e-9)

    def test_vertical_ramp(self):
        img = textures.ramp(24, 24, angle=np.pi / 2)
        f = compute_gradients(img)
        npt.assert_allclose(f.orientation[f.valid], np.pi / 2, atol=1e-9)

    def test_constant_image_all_invalid(self):
        f = compute_gradients(ImageBuffer(np.full((9, 9), 0.5)))
        assert not f.valid.any()
        npt.assert_allclose(f.magnitude, 0.0, atol=1e-15)

    def test_too_small(self):
        with pytest.raises(ValueError):
            compute_gradients(ImageBuffer(np.full((2, 5), 0.5)))

    def test_orientation_range(self):
        f = compute_gradients(textures.filtered_noise(20, 20, seed=3))
        assert (f.orientation >= 0).all() and (f.orientation < 2 * np.pi).all()

    def test_affine_contrast_gradient_covariance(self):
        # positive-gain affine contrast leaves orientation unchanged and
        # scales magnitude by the gain, on the unclipped path
        img = textures.filtered_noise(28, 28, seed=11)
        raw = AffineContrast(gain=1.7, offset=-0.2).apply(img.values)
        f0 = compute_gradients(img)
        f1 = gradient_field_of_array(raw)
        both = f0.valid & f1.valid
        assert both.sum() > 100
        npt.assert_allclose(f1.magnitude[both], 1.7 * f0.magnitude[both], rtol=1e-9)
        dtheta = np.angle(np.exp(1j * (f1.orientation[both] - f0.orientation[both])))
        npt.assert_allclose(dtheta, 0.0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(3, 30), st.integers(3, 30), st.integers(0, 2**32 - 1))
    def test_stack_layers_match_single_layers(self, layers, h, w, seed):
        # layers of a (V, h, w) stack are differentiated alone, bit for bit;
        # raw values may leave [0, 1], as an affine contrast's do
        stack = np.random.default_rng(seed).uniform(-0.5, 1.5, size=(layers, h, w))
        field = gradient_field_of_array(stack)
        for k in range(layers):
            alone = gradient_field_of_array(stack[k])
            for name in ("magnitude", "orientation", "valid"):
                assert getattr(field, name)[k].tobytes() == getattr(alone, name).tobytes()

    @pytest.mark.parametrize("shape", [(3, 3), (3, 11), (11, 3), (4, 9)])
    def test_stack_of_small_layers(self, shape):
        stack = np.stack([textures.filtered_noise(shape[1], shape[0], seed=s).values for s in range(4)])
        field = gradient_field_of_array(stack)
        assert field.magnitude.shape == stack.shape
        for k, layer in enumerate(stack):
            alone = gradient_field_of_array(layer)
            for name in ("magnitude", "orientation", "valid"):
                assert getattr(field, name)[k].tobytes() == getattr(alone, name).tobytes()

    @pytest.mark.parametrize("name", ["flat", "signed-zero", "ramps", "noise", "stack"])
    def test_orientation_is_np_mod_of_arctan2(self, name):
        # np.mod(arctan2(dv, du), 2*pi) to the bit: flat pixels (du = dv =
        # 0), signed zeros, axis-aligned slopes (arctan2 at 0 and pi) and
        # unclipped values
        rng = np.random.default_rng(13)
        if name == "flat":
            values = np.full((12, 12), 0.5)
        elif name == "signed-zero":
            # the blur keeps -0.0 only where its whole window is -0.0, so
            # one +0.0 pixel gives du and dv of either zero, and arctan2
            # gives -0.0, pi and -pi
            values = np.full((15, 15), -0.0)
            values[7, 7] = 0.0
        elif name == "ramps":
            values = np.stack([textures.ramp(16, 16, angle=np.pi * k / 4).values for k in range(8)])
        elif name == "noise":
            values = rng.uniform(-0.5, 1.5, size=(20, 23))
        else:
            values = np.stack([np.full((9, 9), -0.0), rng.uniform(size=(9, 9)), np.tile(-np.arange(9.0), (9, 1))])
        sm = blur_array(values, PRE_SIGMA)
        du, dv = np.zeros_like(sm), np.zeros_like(sm)
        du[..., :, 1:-1] = 0.5 * (sm[..., :, 2:] - sm[..., :, :-2])
        dv[..., 1:-1, :] = 0.5 * (sm[..., 2:, :] - sm[..., :-2, :])
        raw = np.arctan2(dv, du)
        if name == "signed-zero":
            assert (np.signbit(raw) & (raw == 0)).any() and (raw == -np.pi).any() and (raw == np.pi).any()
        want = np.mod(raw, 2.0 * np.pi)
        assert gradient_field_of_array(values).orientation.tobytes() == want.tobytes()

    def test_stack_too_small_names_layer_size(self):
        with pytest.raises(ValueError, match="image too small for gradients: 5x2"):
            gradient_field_of_array(np.zeros((3, 2, 5)))


# ---------------------------------------------------------------------------
# warps


class TestWarp:
    def test_identity(self):
        img = textures.filtered_noise(15, 15, seed=2)
        out, mask = warp(img, SimilarityTransform.identity())
        npt.assert_array_equal(out.values, img.values)
        assert mask.all()

    def test_quarter_turn_is_permutation(self):
        img = textures.filtered_noise(17, 17, seed=4)
        out, mask = warp(img, SimilarityTransform(rotation=np.pi / 2))
        assert mask.all()
        # the rotated image must contain exactly the original multiset of values
        npt.assert_array_equal(np.sort(out.values, axis=None), np.sort(img.values, axis=None))
        # and rotating four times returns the original exactly
        cur = img
        for _ in range(4):
            cur, _ = warp(cur, SimilarityTransform(rotation=np.pi / 2))
        npt.assert_array_equal(cur.values, img.values)

    def test_quarter_turn_with_inverse_is_identity(self):
        img = textures.filtered_noise(16, 16, seed=9)
        g = SimilarityTransform(rotation=np.pi / 2)
        once, _ = warp(img, g)
        back, mask = warp(once, g.inverse())
        assert mask.all()
        npt.assert_array_equal(back.values, img.values)

    def test_scale_round_trip_against_resampling_oracle(self):
        # oracle: naive per-pixel inverse-mapped bilinear resampling
        def oracle_warp(values, scale):
            h, w = values.shape
            cu, cv = (w - 1) / 2.0, (h - 1) / 2.0
            out = np.zeros_like(values)
            ok = np.zeros(values.shape, dtype=bool)
            for v in range(h):
                for u in range(w):
                    su = (u - cu) / scale + cu
                    sv = (v - cv) / scale + cv
                    if abs(su - round(su)) < 1e-9:
                        su = round(su)
                    if abs(sv - round(sv)) < 1e-9:
                        sv = round(sv)
                    if not (0 <= su <= w - 1 and 0 <= sv <= h - 1):
                        continue
                    u0, v0 = int(np.floor(su)), int(np.floor(sv))
                    fu, fv = su - u0, sv - v0
                    u1, v1 = min(u0 + 1, w - 1), min(v0 + 1, h - 1)
                    top = values[v0, u0] * (1 - fu) + values[v0, u1] * fu
                    bot = values[v1, u0] * (1 - fu) + values[v1, u1] * fu
                    out[v, u] = top * (1 - fv) + bot * fv
                    ok[v, u] = True
            return out, ok

        img = textures.filtered_noise(21, 21, seed=6)
        up, _ = warp(img, SimilarityTransform(scale=2.0))
        down, mask = warp(up, SimilarityTransform(scale=0.5))

        o_up, _ = oracle_warp(img.values, 2.0)
        o_down, o_mask = oracle_warp(o_up, 0.5)
        npt.assert_array_equal(mask, o_mask)
        npt.assert_allclose(down.values[mask], o_down[mask], atol=1e-12)
        # odd-sized image: the round trip lands back on lattice points exactly
        npt.assert_allclose(down.values[mask], img.values[mask], atol=1e-12)

    def test_out_of_domain_masked_zero(self):
        img = textures.ramp(12, 12, lo=0.2, hi=0.9)
        out, mask = warp(img, SimilarityTransform(translation=(30.0, 0.0)))
        assert not mask.any()
        npt.assert_array_equal(out.values, 0.0)

    def test_translation_mask_geometry(self):
        img = textures.filtered_noise(10, 10, seed=8)
        out, mask = warp(img, SimilarityTransform(translation=(3.0, 0.0)))
        assert not mask[:, :3].any()
        assert mask[:, 3:].all()
        npt.assert_array_equal(out.values[:, 3:], img.values[:, :-3])


@st.composite
def similarities(draw):
    """Random similarity: log-scale in [-1, 1], any rotation, shifts up to 15 px."""
    return SimilarityTransform(
        math.exp(draw(st.floats(-1.0, 1.0))),
        draw(st.floats(-2.0 * math.pi, 2.0 * math.pi)),
        (draw(st.floats(-15.0, 15.0)), draw(st.floats(-15.0, 15.0))),
    )


@st.composite
def images_and_boxes(draw):
    """A noise image and an inclusive box (u0, u1, v0, v1) in it; each edge
    of the box lies on the image border about half the time."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    img = textures.filtered_noise(w, h, seed=draw(st.integers(0, 2**32 - 1)))

    def span(n):
        lo = draw(st.just(0) | st.integers(0, n - 1))
        hi = draw(st.just(n - 1) | st.integers(lo, n - 1))
        return lo, hi

    return img, span(w) + span(h)


class TestWindowedWarp:
    @settings(max_examples=150, deadline=None)
    @given(images_and_boxes(), similarities())
    def test_box_is_crop_of_whole_warp(self, case, g):
        img, (u0, u1, v0, v1) = case
        whole, whole_mask = warp(img, g)
        crop, mask = warp_boxes(img, [g.inverse()], [(u0, u1, v0, v1)])
        assert crop[0].tobytes() == whole.values[v0 : v1 + 1, u0 : u1 + 1].tobytes()
        assert mask[0].tobytes() == whole_mask[v0 : v1 + 1, u0 : u1 + 1].tobytes()

    @pytest.mark.parametrize("box", [(0, 8, 0, 3), (0, 3, -1, 3), (3, 2, 0, 3), (0, 0, 4, 3)])
    def test_box_outside_image_rejected(self, box):
        img = textures.filtered_noise(8, 5, seed=1)
        with pytest.raises(ValueError, match="box"):
            warp_boxes(img, [SimilarityTransform.identity()], [box])

    def test_warped_image_is_read_only(self):
        out, _ = warp(textures.filtered_noise(8, 5, seed=1), SimilarityTransform(rotation=0.3))
        with pytest.raises(ValueError):
            out.values[0, 0] = 0.5

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 33), st.integers(0, 2**32 - 1), st.integers(-8, 8))
    def test_quarter_turn_is_pixel_permutation(self, side, seed, turns):
        img = textures.filtered_noise(side, side, seed=seed)
        out, mask = warp(img, SimilarityTransform(rotation=turns * math.pi / 2.0))
        assert mask.all()
        npt.assert_array_equal(out.values, np.rot90(img.values, -turns))


class TestWarpBoxes:
    @settings(max_examples=60, deadline=None)
    @given(images_and_boxes(), st.lists(st.tuples(similarities(), st.integers(0, 39), st.integers(0, 39)), min_size=1, max_size=4))
    def test_layers_are_single_view_warps(self, case, views):
        # every view warps its own transform over its own box, all boxes
        # of one shape
        img, (u0, u1, v0, v1) = case
        h, w = img.values.shape
        boxes = []
        for _, du, dv in views:
            du, dv = du % (w - u1 + u0), dv % (h - v1 + v0)
            boxes.append((du, du + u1 - u0, dv, dv + v1 - v0))
        values, masks = warp_boxes(img, [g.inverse() for g, _, _ in views], boxes)
        for k, ((g, _, _), (a0, a1, b0, b1)) in enumerate(zip(views, boxes)):
            whole, whole_mask = warp(img, g)
            assert values[k].tobytes() == whole.values[b0 : b1 + 1, a0 : a1 + 1].tobytes()
            assert masks[k].tobytes() == whole_mask[b0 : b1 + 1, a0 : a1 + 1].tobytes()

    def test_boxes_of_different_shapes_rejected(self):
        img = textures.filtered_noise(8, 5, seed=1)
        g = SimilarityTransform.identity()
        with pytest.raises(ValueError, match="one shape"):
            warp_boxes(img, [g, g], [(0, 3, 0, 3), (0, 4, 0, 3)])


def two_index_sample(values, su, sv):
    """Bilinear sampling with 2-D fancy indexes, which ``_bilinear_sample`` matches bit for bit."""
    h, w = values.shape
    su = np.where(np.abs(su - np.round(su)) < _SNAP_EPS, np.round(su), su)
    sv = np.where(np.abs(sv - np.round(sv)) < _SNAP_EPS, np.round(sv), sv)
    u0 = np.floor(su).astype(np.intp)
    v0 = np.floor(sv).astype(np.intp)
    fu = su - u0
    fv = sv - v0
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    top = values[v0, u0] * (1.0 - fu) + values[v0, u1] * fu
    bot = values[v1, u0] * (1.0 - fu) + values[v1, u1] * fu
    return top * (1.0 - fv) + bot * fv


class TestBilinearSample:
    def test_flat_gathers_equal_two_dimensional_indexes(self):
        rng = np.random.default_rng(41)
        values = rng.uniform(size=(23, 31))
        # a stack of grids, and rows and columns broadcast against each
        # other as extract_patches passes them, with lattice hits and the
        # last row and column
        su = rng.uniform(0.0, 30.0, size=(4, 9, 11))
        sv = rng.uniform(0.0, 22.0, size=(4, 9, 11))
        su[0] = np.round(su[0])
        su[1, :, -1], sv[1, -1, :] = 30.0, 22.0
        cases = [
            (su, sv),
            (su[:, :1, :], sv[:, :, :1]),
            (np.array(30.0 - 1e-10), np.array([0.0, 3.5, 22.0])),
        ]
        for u, v in cases:
            got = _bilinear_sample(values, u, v)
            want = two_index_sample(values, u, v)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestSimilarityTransform:
    def test_compose_matches_sequential_apply(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g1 = SimilarityTransform(rng.uniform(0.5, 2), rng.uniform(-3, 3), tuple(rng.uniform(-5, 5, 2)))
            g2 = SimilarityTransform(rng.uniform(0.5, 2), rng.uniform(-3, 3), tuple(rng.uniform(-5, 5, 2)))
            pts = rng.uniform(-10, 10, (7, 2))
            npt.assert_allclose(g1.compose(g2).apply(pts), g1.apply(g2.apply(pts)), atol=1e-9)

    def test_inverse(self):
        g = SimilarityTransform(1.7, 0.6, (2.0, -3.5))
        pts = np.array([[1.0, 2.0], [-4.0, 0.5]])
        npt.assert_allclose(g.inverse().apply(g.apply(pts)), pts, atol=1e-12)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            SimilarityTransform(scale=0.0)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"scale": math.inf}, "scale"),
            ({"scale": math.nan}, "scale"),
            ({"rotation": math.nan}, "rotation"),
            ({"rotation": -math.inf}, "rotation"),
            ({"translation": (math.inf, 0.0)}, "translation"),
            ({"translation": (0.0, math.nan)}, "translation"),
        ],
    )
    def test_non_finite_fields_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SimilarityTransform(**kwargs)

    def test_overflowing_composition_rejected(self):
        big = SimilarityTransform(scale=1e200)
        with pytest.raises(ValueError, match="scale must be finite"):
            big.compose(big)


class TestExtractPatch:
    def test_native_side_is_exact_crop(self):
        img = textures.filtered_noise(21, 21, seed=12)
        patch = extract_patch(img, (10.0, 10.0), side=7, out_side=7)
        npt.assert_array_equal(patch.values, img.values[7:14, 7:14])

    def test_out_of_bounds_raises(self):
        img = textures.ramp(16, 16)
        with pytest.raises(SupportError):
            extract_patch(img, (2.0, 2.0), side=10, out_side=8)


@st.composite
def patch_requests(draw):
    """An image shape and a patch request, its centre often within
    ``_SNAP_EPS`` of where the patch's outermost samples meet the border."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    out_side = draw(st.integers(1, 40))
    side = draw(st.floats(1e-3, 60.0))
    reach = ((out_side - 1) / 2.0) * (side / out_side)

    def coordinate(extent):
        near = draw(st.floats(-3 * _SNAP_EPS, 3 * _SNAP_EPS))
        return draw(
            st.one_of(
                st.floats(-5.0, extent + 5.0),
                st.just(reach + near),
                st.just(extent - 1 - reach + near),
            )
        )

    return (h, w), (coordinate(w), coordinate(h)), side, out_side


class TestPatchInside:
    @settings(max_examples=400, deadline=None)
    @given(patch_requests())
    def test_true_exactly_when_extract_patch_resamples(self, request):
        shape, center, side, out_side = request
        img = ImageBuffer.from_array(np.zeros(shape))
        # the bound the sample grid itself reaches
        offs = (np.arange(out_side, dtype=np.float64) - (out_side - 1) / 2.0) * (side / out_side)
        su, sv = center[0] + offs, center[1] + offs
        h, w = shape
        fits = bool(
            su.min() >= -_SNAP_EPS and su.max() <= w - 1 + _SNAP_EPS
            and sv.min() >= -_SNAP_EPS and sv.max() <= h - 1 + _SNAP_EPS
        )
        assert patch_inside(center, side, out_side, shape) == fits
        try:
            patch = extract_patch(img, center, side, out_side)
        except SupportError:
            assert not fits
        else:
            assert fits
            assert patch.values.shape == (out_side, out_side)

    def test_non_finite_leaves_the_image(self):
        assert patch_inside((10.0, 10.0), 4.0, 8, (20, 20))
        assert not patch_inside((10.0, 10.0), math.inf, 8, (20, 20))
        assert not patch_inside((math.nan, 10.0), 4.0, 8, (20, 20))


# ---------------------------------------------------------------------------
# contrast maps


class TestContrast:
    def test_affine_identity(self):
        img = textures.filtered_noise(9, 9, seed=1)
        out = apply_contrast(img, AffineContrast(1.0, 0.0))
        npt.assert_allclose(out.values, img.values, atol=1e-15)

    def test_gamma_identity(self):
        img = textures.filtered_noise(9, 9, seed=1)
        out = apply_contrast(img, GammaContrast(1.0))
        npt.assert_allclose(out.values, img.values, atol=1e-15)

    def test_affine_arithmetic(self):
        img = ImageBuffer(np.array([[0.3]]))
        out = apply_contrast(img, AffineContrast(2.0, -0.1))
        npt.assert_allclose(out.values, 0.5, atol=1e-15)

    def test_affine_raw_unclipped(self):
        img = ImageBuffer(np.array([[0.9, 0.0]]))
        raw = AffineContrast(2.0, -0.1).apply(img.values)
        npt.assert_allclose(raw, [[1.7, -0.1]])

    def test_clipping(self):
        img = ImageBuffer(np.array([[0.9, 0.0]]))
        out = apply_contrast(img, AffineContrast(2.0, -0.1))
        npt.assert_allclose(out.values, [[1.0, 0.0]])

    def test_gamma_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GammaContrast(0.0)

    def test_affine_rejects_nonpositive_gain(self):
        with pytest.raises(ValueError):
            AffineContrast(-1.0, 0.0)
