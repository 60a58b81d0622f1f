"""Pixel-level foundation: luminance grids, smoothing, gradients, warps, contrast.

Conventions used throughout the package:

* images are row-major ``float64`` grids with values in ``[0, 1]``;
* ``(u, v)`` denotes (column, row), i.e. ``values[v, u]``;
* gradient orientation is ``atan2(dv, du)`` wrapped to ``[0, 2*pi)``, so a
  horizontal luminance ramp has orientation 0 and a vertical one ``pi/2``;
* geometric transforms act about the image center ``((w-1)/2, (h-1)/2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

#: Gradient magnitudes below this (luminance per pixel) carry no usable
#: orientation; such pixels are flagged invalid and contribute nothing to
#: any histogram downstream.
MAG_EPSILON = 1e-4

#: Scale in pixels of the Gaussian blur applied before differencing.
PRE_SIGMA = 1.0

#: Pixels a gradient reads on each side: the blur radius ``ceil(3 *
#: PRE_SIGMA)`` plus one for the central difference.  Gradients computed
#: on a crop equal those of the whole image at every pixel at least this
#: far from each crop edge that is not also an image edge.
GRADIENT_MARGIN = math.ceil(3.0 * PRE_SIGMA) + 1

#: Rec.601 luminance weights, fixed for determinism.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)

#: Source coordinates this close to a lattice point are snapped onto it, so
#: quarter-turn rotations and integer translations resample without
#: interpolation error.
_SNAP_EPS = 1e-9


class ImageFormatError(ValueError):
    """Raised for image files in a format this package does not read."""


class ImageDataError(ValueError):
    """Raised for image files that cannot be decoded at all."""


class SupportError(ValueError):
    """Raised when a requested window or warp falls outside the image."""


@dataclass(frozen=True)
class ImageBuffer:
    """A 2-D luminance grid with values in ``[0, 1]``.

    ``values`` has shape ``(height, width)`` and is made read-only on
    construction; all operations return new buffers.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image must be a 2-D grid, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("image values must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("image values must lie in [0, 1]")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def width(self):
        return self.values.shape[1]

    @property
    def height(self):
        return self.values.shape[0]

    @property
    def center(self):
        """Image center ``(cu, cv)`` in pixel coordinates."""
        return ((self.width - 1) / 2.0, (self.height - 1) / 2.0)

    @classmethod
    def from_array(cls, arr, clip=False):
        """Wrap ``arr`` as an image, optionally clipping into ``[0, 1]``."""
        arr = np.asarray(arr, dtype=np.float64)
        if clip:
            arr = np.clip(arr, 0.0, 1.0)
        return cls(arr)


@dataclass(frozen=True)
class GradientField:
    """Per-pixel gradient magnitude and orientation with a validity flag.

    ``orientation`` is in ``[0, 2*pi)``; ``valid`` is False on the one-pixel
    border and wherever ``magnitude < MAG_EPSILON``.  The arrays are
    ``(h, w)``, or ``(V, h, w)`` for a stack of V equally sized layers.
    """

    magnitude: np.ndarray
    orientation: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        for name in ("magnitude", "orientation", "valid"):
            arr = getattr(self, name)
            arr.setflags(write=False)


@dataclass(frozen=True)
class SimilarityTransform:
    """Planar similarity ``p -> scale * R(rotation) p + translation``.

    The action is on coordinates relative to the image center; ``warp``
    supplies the center shift. Composition and inverse stay in the group.
    """

    scale: float = 1.0
    rotation: float = 0.0
    translation: tuple = (0.0, 0.0)

    def __post_init__(self):
        translation = (float(self.translation[0]), float(self.translation[1]))
        fields = (("scale", (self.scale,)), ("rotation", (self.rotation,)), ("translation", translation))
        for name, values in fields:
            if not all(math.isfinite(x) for x in values):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        object.__setattr__(self, "translation", translation)

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, (0.0, 0.0))

    def matrix(self):
        """2x2 linear part ``scale * R(rotation)``."""
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        return self.scale * np.array([[c, -s], [s, c]])

    def apply(self, points):
        """Apply to centered coordinates, shape (..., 2) as (u, v)."""
        pts = np.asarray(points, dtype=np.float64)
        out = pts @ self.matrix().T
        out[..., 0] += self.translation[0]
        out[..., 1] += self.translation[1]
        return out

    def compose(self, other):
        """Return ``self o other`` (apply ``other`` first)."""
        t = self.apply(np.array(other.translation))
        return SimilarityTransform(
            self.scale * other.scale,
            self.rotation + other.rotation,
            (float(t[0]), float(t[1])),
        )

    def inverse(self):
        c, s = math.cos(-self.rotation), math.sin(-self.rotation)
        tu, tv = self.translation
        iu = -(c * tu - s * tv) / self.scale
        iv = -(s * tu + c * tv) / self.scale
        return SimilarityTransform(1.0 / self.scale, -self.rotation, (iu, iv))

    def map_pixel(self, point, center):
        """Map a pixel coordinate through the center-anchored action."""
        p = np.asarray(point, dtype=np.float64) - np.asarray(center)
        q = self.apply(p)
        return q + np.asarray(center)


class ContrastMap:
    """Monotone nondecreasing map of luminance values on [0, 1]."""

    def apply(self, values):
        raise NotImplementedError


@dataclass(frozen=True)
class AffineContrast(ContrastMap):
    """``x -> gain * x + offset`` with positive gain (may leave [0, 1])."""

    gain: float
    offset: float = 0.0

    def __post_init__(self):
        if not self.gain > 0:
            raise ValueError(f"gain must be positive, got {self.gain}")

    def apply(self, values):
        return self.gain * np.asarray(values, dtype=np.float64) + self.offset


@dataclass(frozen=True)
class GammaContrast(ContrastMap):
    """``x -> x ** gamma`` with positive gamma; fixes [0, 1] setwise."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    def apply(self, values):
        return np.power(np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0), self.gamma)


def apply_contrast(img, cmap):
    """Apply a contrast map pointwise, clipping the result into [0, 1]."""
    return ImageBuffer.from_array(cmap.apply(img.values), clip=True)


# ---------------------------------------------------------------------------
# smoothing and gradients


def _gaussian_kernel_1d(sigma):
    radius = int(math.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def blur_array(values, sigma):
    """Separable Gaussian blur of a raw array along its last two axes; no range clamping.

    Kernel truncated at radius ``ceil(3 * sigma)`` and renormalized to unit
    mass; borders reflect (symmetric half-sample).  A ``(V, h, w)`` stack
    blurs each layer alone, bit for bit as its own 2-D call.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    values = np.asarray(values, dtype=np.float64)
    if sigma == 0:
        return values.copy()
    k = _gaussian_kernel_1d(sigma)
    out = ndimage.convolve1d(values, k, axis=-2, mode="reflect")
    out = ndimage.convolve1d(out, k, axis=-1, mode="reflect")
    return out


def gaussian_blur(img, sigma):
    """Gaussian-blur an image; ``sigma=0`` returns the input unchanged."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return img
    return ImageBuffer.from_array(blur_array(img.values, sigma), clip=True)


def gradient_field_of_array(values):
    """Gradient field of a raw (possibly unclipped) luminance array.

    Central differences after a Gaussian blur of scale ``PRE_SIGMA``; the
    one-pixel border and every pixel with magnitude below ``MAG_EPSILON``
    are invalid.  A ``(V, h, w)`` stack gives a field of the same shape
    whose layer k is, bit for bit, the field of layer k alone.
    """
    values = np.asarray(values, dtype=np.float64)
    check_gradient_shape(values.shape)
    sm = blur_array(values, PRE_SIGMA)
    du = np.zeros_like(sm)
    dv = np.zeros_like(sm)
    du[..., :, 1:-1] = 0.5 * (sm[..., :, 2:] - sm[..., :, :-2])
    dv[..., 1:-1, :] = 0.5 * (sm[..., 2:, :] - sm[..., :-2, :])
    mag = np.hypot(du, dv)
    # np.mod(., 2*pi) to the bit on arctan2's range [-pi, pi], -0.0 included
    ori = np.arctan2(dv, du)
    ori += (ori < 0) * (2.0 * np.pi)
    valid = mag >= MAG_EPSILON
    valid[..., 0, :] = valid[..., -1, :] = False
    valid[..., :, 0] = valid[..., :, -1] = False
    return GradientField(mag, ori, valid)


def check_gradient_shape(shape):
    """Raise the ``ValueError`` of ``gradient_field_of_array`` for arrays of ``shape`` too small for gradients."""
    h, w = shape[-2:]
    if w < 3 or h < 3:
        raise ValueError(f"image too small for gradients: {w}x{h}")


def compute_gradients(img):
    """Gradient field of an image; see ``gradient_field_of_array``."""
    return gradient_field_of_array(img.values)


# ---------------------------------------------------------------------------
# geometric resampling


def _bilinear_sample(values, su, sv):
    """Bilinear sample at source coords, with lattice snapping.

    ``su`` and ``sv`` broadcast against each other to the output shape.
    Callers guarantee ``0 <= su <= w-1`` and ``0 <= sv <= h-1``; exact
    lattice hits (within 1e-9) are returned without interpolation so that
    quarter-turn rotations are pure pixel permutations.
    """
    h, w = values.shape
    su = np.where(np.abs(su - np.round(su)) < _SNAP_EPS, np.round(su), su)
    sv = np.where(np.abs(sv - np.round(sv)) < _SNAP_EPS, np.round(sv), sv)
    u0 = np.floor(su).astype(np.intp)
    v0 = np.floor(sv).astype(np.intp)
    fu = su - u0
    fv = sv - v0
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    # flat gathers: exact copies, as the 2-D indexes give, but faster
    flat = values.ravel()
    p00 = flat.take(v0 * w + u0)
    p01 = flat.take(v0 * w + u1)
    p10 = flat.take(v1 * w + u0)
    p11 = flat.take(v1 * w + u1)
    top = p00 * (1.0 - fu) + p01 * fu
    bot = p10 * (1.0 - fu) + p11 * fu
    return top * (1.0 - fv) + bot * fv


def warp(img, transform):
    """Warp an image by a similarity transform about its center.

    Inverse-mapped bilinear interpolation; returns ``(warped, mask)`` where
    ``mask`` is False outside the source domain (those pixels are set to 0).
    This is the one-view, whole-image case of ``warp_boxes``.
    """
    h, w = img.values.shape
    values, masks = warp_boxes(img, [transform.inverse()], [(0, w - 1, 0, h - 1)])
    # The layer is fresh, finite and in [0, 1], so it is wrapped without
    # the copy ImageBuffer makes.  That copy, made once warp_boxes has freed
    # its temporaries, would also put the long-lived image low in the heap,
    # where the free space above it is trimmed and regrown around every
    # later large temporary (about 100,000 page faults per scale-scatter
    # benchmark pair instead of 7).
    values.setflags(write=False)
    warped = object.__new__(ImageBuffer)
    object.__setattr__(warped, "values", values[0])
    return warped, masks[0]


def warp_boxes(img, inverses, boxes):
    """Warp an image once per view, each view over its own pixel box.

    View k resamples the inclusive box ``boxes[k] = (u0, u1, v0, v1)`` of
    the output, mapping each output pixel to the source through
    ``inverses[k]``, the inverse of the view's transform.  All boxes have
    one shape (bh, bw).  Returns the ``(V, bh, bw)`` stacks of warped
    values, clipped into [0, 1], and of masks (False where the source
    point falls outside the image; those values are 0).  Layer k is the
    ``[v0:v1+1, u0:u1+1]`` crop of the whole-image ``warp`` by that view's
    transform, bit for bit.

    ``warp_sources`` is the half that reads no pixel, which a caller
    warping many images of one shape alike computes once; ``resample``
    is the other.
    """
    sources = warp_sources(img.values.shape, inverses, boxes)
    return resample(img.values, sources), sources[2]


def warp_sources(shape, inverses, boxes):
    """The pixel-free half of ``warp_boxes`` for an image of ``shape`` (height, width).

    Returns the ``(V, bh, bw)`` source coordinates su and sv of every
    output pixel, clipped into the image, and the masks of the points
    that were inside it before clipping.
    """
    h, w = shape
    if len(inverses) != len(boxes):
        raise ValueError(f"{len(inverses)} transforms for {len(boxes)} boxes")
    for box in boxes:
        u0, u1, v0, v1 = box
        if not (0 <= u0 <= u1 < w and 0 <= v0 <= v1 < h):
            raise ValueError(f"box {box} is not inside the {w}x{h} image")
    u0, u1, v0, v1 = np.array(boxes, dtype=np.intp).reshape(-1, 4).T
    sizes = {(int(a), int(b)) for a, b in zip(v1 - v0 + 1, u1 - u0 + 1)}
    if len(sizes) != 1:
        raise ValueError(f"need boxes of one shape, got {sorted(sizes)}")
    cu, cv = (w - 1) / 2.0, (h - 1) / 2.0
    top = v0.min()
    uu, vv = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(top, v1.max() + 1, dtype=np.float64))
    grid = np.stack([uu - cu, vv - cv], axis=-1)
    su, sv = np.empty((2, len(boxes), *sizes.pop()))
    for k, inv in enumerate(inverses):
        # the matrix product's rounding depends on a point's place in its
        # row, so whole rows are mapped and then cut to the box's columns
        src = inv.apply(grid[v0[k] - top : v1[k] - top + 1])[:, u0[k] : u1[k] + 1]
        np.add(src[..., 0], cu, out=su[k])
        np.add(src[..., 1], cv, out=sv[k])
    inside = (su >= -_SNAP_EPS) & (su <= w - 1 + _SNAP_EPS) & (sv >= -_SNAP_EPS) & (sv <= h - 1 + _SNAP_EPS)
    return np.clip(su, 0.0, w - 1.0), np.clip(sv, 0.0, h - 1.0), inside


def resample(values, sources):
    """The pixel half of ``warp_boxes``: sample ``values`` at ``warp_sources``' points, 0 outside, clipped into [0, 1]."""
    su, sv, inside = sources
    out = _bilinear_sample(values, su, sv)
    out[~inside] = 0.0
    return np.clip(out, 0.0, 1.0, out=out)


def patch_inside(center, side, out_side, shape):
    """Whether ``extract_patch`` can resample the window of side ``side`` at ``center``.

    The outermost samples of its ``out_side`` x ``out_side`` grid sit at
    ``center -+ ((out_side - 1) / 2) * (side / out_side)``, the same
    float operations as the grid's own ends, so this decides exactly as
    resampling would.  They may lie up to ``_SNAP_EPS`` outside an image
    of ``shape`` (height, width); a non-finite bound counts as leaving it.
    """
    h, w = shape
    cu, cv = center
    reach = ((out_side - 1) / 2.0) * (side / out_side)
    return (
        cu - reach >= -_SNAP_EPS
        and cu + reach <= w - 1 + _SNAP_EPS
        and cv - reach >= -_SNAP_EPS
        and cv + reach <= h - 1 + _SNAP_EPS
    )


def extract_patches(img, centers, sides, out_side):
    """Resample square windows of sides ``sides`` around ``centers`` to ``out_side`` px.

    Returns the ``(N, out_side, out_side)`` stack, clipped into ``[0, 1]``,
    from one bilinear pass that gives each window the bits it gets alone.
    Output sample ``a`` lies at ``center + (a - (out_side-1)/2) * side/out_side``,
    so ``side == out_side`` at an integer-centered window is an exact crop.
    Raises ``SupportError`` for the first window that ``patch_inside``
    finds leaving the image, before any is resampled.
    """
    values = img.values
    h, w = values.shape
    for (cu, cv), side in zip(centers, sides):
        if side <= 0:
            raise ValueError(f"patch side must be positive, got {side}")
        if not patch_inside((cu, cv), side, out_side, (h, w)):
            raise SupportError(f"patch of side {side} at ({cu}, {cv}) leaves the {w}x{h} image")
    cu, cv = np.array(centers, dtype=np.float64).reshape(-1, 2, 1, 1).transpose(1, 0, 2, 3)
    steps = np.array(sides, dtype=np.float64).reshape(-1, 1, 1) / out_side
    offs = (np.arange(out_side, dtype=np.float64) - (out_side - 1) / 2.0) * steps
    su = np.clip(cu + offs, 0.0, w - 1.0)
    sv = np.clip(cv + offs.transpose(0, 2, 1), 0.0, h - 1.0)
    return np.clip(_bilinear_sample(values, su, sv), 0.0, 1.0)


def extract_patch(img, center, side, out_side):
    """Resample one window: the one-window case of ``extract_patches``."""
    return ImageBuffer(extract_patches(img, [center], [side], out_side)[0])


# ---------------------------------------------------------------------------
# file I/O: binary PGM (P5) and 8-bit PNG


def _read_pgm(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ImageFormatError(f"{path}: not a binary (P5) PGM file")
    # header tokens: magic, width, height, maxval; '#' comments allowed
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageDataError(f"{path}: truncated PGM header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise ImageDataError(f"{path}: malformed PGM header") from exc
    if maxval > 255:
        raise ImageFormatError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    if width < 1 or height < 1 or maxval < 1:
        raise ImageDataError(f"{path}: bad PGM dimensions {width}x{height}")
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise ImageDataError(f"{path}: PGM raster truncated")
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if arr.max() > maxval:
        raise ImageDataError(f"{path}: PGM pixel value {arr.max()} above maxval {maxval}")
    return arr.astype(np.float64) / maxval


def _read_png(path):
    try:
        from PIL import Image, UnidentifiedImageError
    except ImportError as exc:
        raise ImageFormatError("PNG support requires Pillow") from exc
    try:
        with Image.open(path) as im:
            mode = im.mode
            if mode == "L":
                arr = np.asarray(im, dtype=np.float64) / 255.0
            elif mode == "RGB":
                rgb = np.asarray(im, dtype=np.float64) / 255.0
                arr = rgb @ np.asarray(LUMA_WEIGHTS)
            else:
                raise ImageFormatError(f"{path}: unsupported PNG mode {mode!r} (need 8-bit L or RGB)")
    except UnidentifiedImageError as exc:
        raise ImageDataError(f"{path}: cannot decode PNG") from exc
    return arr


def load_image(path):
    """Load an 8-bit PGM (binary P5) or PNG (grayscale/RGB) as luminance.

    RGB converts with Rec.601 weights; values rescale to [0, 1]. Missing
    files raise ``FileNotFoundError``; unsupported formats raise
    ``ImageFormatError``; undecodable data raises ``ImageDataError``.
    """
    import os

    path = os.fspath(path)
    if not os.path.exists(path):
        raise FileNotFoundError(f"image not found: {path}")
    with open(path, "rb") as fh:
        magic = fh.read(8)
    if magic.startswith(b"P5"):
        arr = _read_pgm(path)
    elif magic.startswith(b"\x89PNG\r\n\x1a\n"):
        arr = _read_png(path)
    else:
        raise ImageFormatError(f"{path}: unsupported image format (need P5 PGM or PNG)")
    return ImageBuffer.from_array(np.clip(arr, 0.0, 1.0))


def save_pgm(img, path):
    """Write an image as binary (P5) 8-bit PGM, for debug dumps."""
    arr = np.clip(np.round(img.values * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())
