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
    border and wherever ``magnitude < MAG_EPSILON``.
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
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        object.__setattr__(self, "translation", (float(self.translation[0]), float(self.translation[1])))

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
    """Separable Gaussian blur of a raw array; no range clamping.

    Kernel truncated at radius ``ceil(3 * sigma)`` and renormalized to unit
    mass; borders reflect (symmetric half-sample).
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    values = np.asarray(values, dtype=np.float64)
    if sigma == 0:
        return values.copy()
    k = _gaussian_kernel_1d(sigma)
    out = ndimage.convolve1d(values, k, axis=0, mode="reflect")
    out = ndimage.convolve1d(out, k, axis=1, mode="reflect")
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
    are invalid.
    """
    values = np.asarray(values, dtype=np.float64)
    h, w = values.shape
    if w < 3 or h < 3:
        raise ValueError(f"image too small for gradients: {w}x{h}")
    sm = blur_array(values, PRE_SIGMA)
    du = np.zeros_like(sm)
    dv = np.zeros_like(sm)
    du[:, 1:-1] = 0.5 * (sm[:, 2:] - sm[:, :-2])
    dv[1:-1, :] = 0.5 * (sm[2:, :] - sm[:-2, :])
    mag = np.hypot(du, dv)
    ori = np.mod(np.arctan2(dv, du), 2.0 * np.pi)
    valid = mag >= MAG_EPSILON
    valid[0, :] = valid[-1, :] = False
    valid[:, 0] = valid[:, -1] = False
    return GradientField(mag, ori, valid)


def compute_gradients(img):
    """Gradient field of an image; see ``gradient_field_of_array``."""
    return gradient_field_of_array(img.values)


# ---------------------------------------------------------------------------
# geometric resampling


def _bilinear_sample(values, su, sv):
    """Bilinear sample at source coords, with lattice snapping.

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
    p00 = values[v0, u0]
    p01 = values[v0, u1]
    p10 = values[v1, u0]
    p11 = values[v1, u1]
    top = p00 * (1.0 - fu) + p01 * fu
    bot = p10 * (1.0 - fu) + p11 * fu
    return top * (1.0 - fv) + bot * fv


def warp(img, transform, box=None):
    """Warp an image by a similarity transform about its center.

    Inverse-mapped bilinear interpolation; returns ``(warped, mask)`` where
    ``mask`` is False outside the source domain (those pixels are set to 0).
    With ``box=(u0, u1, v0, v1)`` only that inclusive pixel box of the
    output is resampled: the result is the ``[v0:v1+1, u0:u1+1]`` crop of
    the whole warp and of its mask, bit for bit.
    """
    values = img.values
    h, w = values.shape
    u0, u1, v0, v1 = (0, w - 1, 0, h - 1) if box is None else box
    if not (0 <= u0 <= u1 < w and 0 <= v0 <= v1 < h):
        raise ValueError(f"box {box} is not inside the {w}x{h} image")
    cu, cv = img.center
    inv = transform.inverse()
    # the matrix product's rounding depends on a point's place in its row,
    # so whole rows are mapped and then cut to the box's columns
    uu, vv = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(v0, v1 + 1, dtype=np.float64))
    pts = np.stack([uu - cu, vv - cv], axis=-1)
    src = inv.apply(pts)[:, u0 : u1 + 1]
    su = src[..., 0] + cu
    sv = src[..., 1] + cv
    inside = (su >= -_SNAP_EPS) & (su <= w - 1 + _SNAP_EPS) & (sv >= -_SNAP_EPS) & (sv <= h - 1 + _SNAP_EPS)
    su_c = np.clip(su, 0.0, w - 1.0)
    sv_c = np.clip(sv, 0.0, h - 1.0)
    out = _bilinear_sample(values, su_c, sv_c)
    out[~inside] = 0.0
    return ImageBuffer.from_array(out, clip=True), inside


def extract_patch(img, center, side, out_side):
    """Resample a square window of physical side ``side`` to ``out_side`` px.

    Output sample ``a`` lies at ``center + (a - (out_side-1)/2) * side/out_side``,
    so ``side == out_side`` at an integer-centered window is an exact crop.
    Raises ``SupportError`` when the window leaves the image.
    """
    if side <= 0:
        raise ValueError(f"patch side must be positive, got {side}")
    values = img.values
    h, w = values.shape
    cu, cv = center
    step = side / out_side
    offs = (np.arange(out_side, dtype=np.float64) - (out_side - 1) / 2.0) * step
    su = cu + offs[None, :]
    sv = cv + offs[:, None]
    if su.min() < -_SNAP_EPS or su.max() > w - 1 + _SNAP_EPS or sv.min() < -_SNAP_EPS or sv.max() > h - 1 + _SNAP_EPS:
        raise SupportError(
            f"patch of side {side} at ({cu}, {cv}) leaves the {w}x{h} image"
        )
    su = np.broadcast_to(np.clip(su, 0.0, w - 1.0), (out_side, out_side))
    sv = np.broadcast_to(np.clip(sv, 0.0, h - 1.0), (out_side, out_side))
    return ImageBuffer.from_array(_bilinear_sample(values, su, sv), clip=True)


def for_each_side(center, sides, fn):
    """``[fn(side) for side in sides]``, all or nothing.

    Every side whose ``fn`` raises ``SupportError`` is collected, and one
    ``SupportError`` naming the center and all of those sides is raised.
    ``dsp_scatter`` uses this so one message lists each patch of the size
    prior that leaves the image.
    """
    out, bad = [], []
    for side in sides:
        try:
            out.append(fn(side))
        except SupportError:
            bad.append(side)
    if bad:
        raise SupportError(
            "window sides out of bounds at ({:.1f}, {:.1f}): {}".format(
                center[0], center[1], ", ".join(f"{s:.2f}" for s in bad)
            )
        )
    return out


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
    return arr.astype(np.float64) / maxval


def _read_png(path):
    try:
        from PIL import Image, UnidentifiedImageError
    except ImportError as exc:  # pragma: no cover
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
