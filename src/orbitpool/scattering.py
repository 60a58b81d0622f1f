"""Two-layer Gabor scattering for patches, and its size-pooled variant.

The transform convolves a patch with a bank of oriented band-pass filters,
takes the complex modulus, and averages the result under a wide Gaussian
window, then repeats the convolve-modulus step once more along coarser
scales before averaging again.  Each path collapses to a single scalar, so
a patch becomes a short nonnegative coefficient vector: order 0 is the
windowed mean, order 1 indexes (scale, rotation), order 2 indexes scale
pairs with the second scale strictly coarser.

Filters are Morlet-style Gabors: a complex carrier under an elongated
Gaussian envelope, with the DC component subtracted at construction so
constant patches produce no band-pass response, and the modulus mass
normalized to one.  All convolutions are circular; the frequency-domain
path is the one used, and the direct path is the reference it must match.
Transforms go through ``scipy.fft`` on its default single worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np
from scipy import fft, ndimage

from .image import ImageBuffer, SupportError, extract_patches, patch_inside
from .descriptor import DescriptorConfig, Keypoint, SizePrior

__all__ = [
    "FilterBank",
    "ScatteringVector",
    "build_filter_bank",
    "scatter",
    "scatter_windows",
    "pool_vectors",
    "dsp_scatter",
]

#: Side in pixels that ``dsp_scatter`` resamples every window to, so the
#: vectors of all window sizes share one index set.
SAMPLE_SIDE = 32

#: Windows that ``scatter_windows`` resamples and scatters as one stack.
#: At 4, the default bank's largest spectrum stack (1 MB) and its moduli
#: fit in a 2 MB L2 cache; 8 adds 2 MB of peak memory and no speed, and
#: fewer leave more of the per-call overhead.
SCATTER_CHUNK = 4

#: Carrier frequency (radians per pixel) of the finest filters.
XI = 3.0 * np.pi / 4.0
#: Envelope scale in pixels of the finest filters; scale j uses SIGMA * 2**j.
SIGMA = 0.8
#: Envelope aspect ratio: the width across the carrier over the width along it.
SLANT = 0.5


@dataclass(frozen=True)
class FilterBank:
    """Immutable bank of band-pass kernels plus low-pass averaging scale.

    ``kernels[j][l]`` is the complex filter at dyadic scale j and rotation
    angle 2*pi*l/L, so the bank covers the full circle and, for even L,
    the filter at l + L/2 is the complex conjugate of the one at l.  A
    real signal gives both the same modulus, so the frequency-domain path
    of ``scatter`` needs only the ``distinct_rotations`` orientations
    ``l < L/2`` (all L when L is odd).  ``phi_sigma`` is the scale of the
    Gaussian averaging window applied after each modulus.  The kernel FFTs
    of those orientations and the averaging weights are cached per patch
    shape; the cache is excluded from comparison and never affects
    results.
    """

    scales: int
    rotations: int
    xi: float
    sigma: float
    slant: float
    kernels: Tuple[Tuple[np.ndarray, ...], ...]
    phi_sigma: float
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def max_radius(self) -> int:
        return (self.kernels[-1][0].shape[0] - 1) // 2

    @property
    def distinct_rotations(self) -> int:
        L = self.rotations
        return L // 2 if L % 2 == 0 else L

    @property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        """The order-2 scale pairs (j1, j2), j1 < j2, in coefficient order."""
        J = self.scales
        return tuple((j1, j2) for j1 in range(J) for j2 in range(j1 + 1, J))

    def check_fits(self, shape: Tuple[int, int]) -> None:
        """Raise ``SupportError`` unless the largest kernel fits a patch of ``shape``."""
        h, w = shape
        if 2 * self.max_radius + 1 > min(h, w):
            raise SupportError(
                f"largest kernel side {2 * self.max_radius + 1} exceeds the "
                f"{w}x{h} patch; use a smaller bank or a larger patch"
            )

    def lowpass_weights(self, shape: Tuple[int, int]) -> np.ndarray:
        """Normalized Gaussian averaging window of scale ``phi_sigma``."""
        key = ("weights", shape)
        weights = self._cache.get(key)
        if weights is None:
            h, w = shape
            cu, cv = (w - 1) / 2.0, (h - 1) / 2.0
            uu, vv = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
            weights = np.exp(-0.5 * ((uu - cu) ** 2 + (vv - cv) ** 2) / (self.phi_sigma * self.phi_sigma))
            weights /= weights.sum()
            weights.flags.writeable = False
            self._cache[key] = weights
        return weights

    def kernel_ffts(self, shape: Tuple[int, int]) -> np.ndarray:
        """``(J, distinct_rotations, h, w)`` kernel FFTs embedded in ``shape``,
        origin at (0, 0)."""
        key = ("ffts", shape)
        stack = self._cache.get(key)
        if stack is None:
            h, w = shape
            stack = np.zeros((self.scales, self.distinct_rotations, h, w), dtype=complex)
            for j in range(self.scales):
                for l in range(self.distinct_rotations):
                    k = self.kernels[j][l]
                    r = (k.shape[0] - 1) // 2
                    buf = np.zeros((h, w), dtype=complex)
                    buf[: k.shape[0], : k.shape[1]] = k
                    stack[j, l] = fft.fft2(np.roll(buf, (-r, -r), axis=(0, 1)))
            stack.flags.writeable = False
            self._cache[key] = stack
        return stack


def _gabor_kernel(sigma: float, xi: float, theta: float, slant: float) -> np.ndarray:
    radius = int(math.ceil(4.0 * sigma))
    coords = np.arange(-radius, radius + 1, dtype=float)
    xx, yy = np.meshgrid(coords, coords)
    c, s = math.cos(theta), math.sin(theta)
    xr = c * xx + s * yy
    yr = -s * xx + c * yy
    envelope = np.exp(-(xr * xr + (yr * yr) / (slant * slant)) / (2.0 * sigma * sigma))
    carrier = np.exp(1j * xi * xr)
    # subtracting the envelope-weighted mean of the carrier kills the DC
    # response exactly
    beta = (envelope * carrier).sum() / envelope.sum()
    psi = envelope * (carrier - beta)
    psi /= np.abs(psi).sum()
    psi.flags.writeable = False
    return psi


def build_filter_bank(scales: int = 3, rotations: int = 8) -> FilterBank:
    """Construct the Gabor bank: dilations by 2**j, rotations by 2*pi*l/L."""
    if scales < 1:
        raise ValueError(f"need at least one scale, got {scales}")
    if rotations < 2:
        raise ValueError(f"need at least two rotations, got {rotations}")
    kernels = tuple(
        tuple(
            _gabor_kernel(SIGMA * 2.0**j, XI / 2.0**j, 2.0 * np.pi * l / rotations, SLANT)
            for l in range(rotations)
        )
        for j in range(scales)
    )
    return FilterBank(scales, rotations, XI, SIGMA, SLANT, kernels, SIGMA * 2.0**scales)


@dataclass(frozen=True)
class ScatteringVector:
    """Collapsed scattering coefficients of one patch.

    ``order1[j, l]`` averages the modulus of the (j, l) response;
    ``order2[p, l1, l2]`` does the same for the cascade whose scale pair
    is ``pairs[p]`` (always j1 < j2).  Every entry is finite and
    nonnegative.
    """

    order0: float
    order1: np.ndarray
    order2: np.ndarray
    pairs: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        o1 = np.asarray(self.order1, dtype=float)
        o2 = np.asarray(self.order2, dtype=float)
        if not (math.isfinite(self.order0) and np.isfinite(o1).all() and np.isfinite(o2).all()):
            raise ValueError("scattering coefficients must be finite")
        if self.order0 < 0 or (o1 < 0).any() or (o2 < 0).any():
            raise ValueError("scattering coefficients must be nonnegative")
        if o2.shape[0] != len(self.pairs):
            raise ValueError("order2 leading dimension must match the scale pairs")
        for arr in (o1, o2):
            arr.flags.writeable = False
        object.__setattr__(self, "order1", o1)
        object.__setattr__(self, "order2", o2)

    def flatten(self) -> np.ndarray:
        return np.concatenate(([self.order0], self.order1.ravel(), self.order2.ravel()))

    def labels(self) -> List[str]:
        out = ["0"]
        J, L = self.order1.shape
        out.extend(f"1:{j},{l}" for j in range(J) for l in range(L))
        for j1, j2 in self.pairs:
            out.extend(f"2:{j1},{l1}>{j2},{l2}" for l1 in range(L) for l2 in range(L))
        return out


def _conv_direct(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    real = ndimage.convolve(values, kernel.real, mode="wrap")
    imag = ndimage.convolve(values, kernel.imag, mode="wrap")
    return real + 1j * imag


def scatter(patch: ImageBuffer, bank: FilterBank, method: str = "fft") -> ScatteringVector:
    """Scattering coefficients of a patch, collapsed to one value per path.

    ``method`` selects the convolution path: 'fft' or 'direct'.  For even
    L the frequency-domain path computes the orientations in [0, pi) only
    and copies them to l + L/2, where a real patch gives the same modulus;
    the direct path computes every orientation and is the reference the
    other must match.  Both need the largest kernel to fit in the patch.
    """
    if method not in ("fft", "direct"):
        raise ValueError(f"unknown method {method!r}")
    values = patch.values
    bank.check_fits(values.shape)
    pairs = bank.pairs
    if method == "fft":
        order0, order1, order2 = _cascade_fft(values[None], bank)
        return ScatteringVector(float(order0[0]), order1[0], order2[0], pairs)

    J, L = bank.scales, bank.rotations
    h, w = values.shape
    weights = bank.lowpass_weights(values.shape)
    order0 = float((weights * values).sum())
    u1 = np.empty((J, L, h, w))
    for j in range(J):
        for l in range(L):
            u1[j, l] = np.abs(_conv_direct(values, bank.kernels[j][l]))
    order1 = (u1 * weights).sum(axis=(2, 3))

    order2 = np.zeros((len(pairs), L, L))
    for p, (j1, j2) in enumerate(pairs):
        for l1 in range(L):
            for l2 in range(L):
                resp = np.abs(_conv_direct(u1[j1, l1], bank.kernels[j2][l2]))
                order2[p, l1, l2] = (resp * weights).sum()

    return ScatteringVector(order0, order1, order2, pairs)


def _cascade_fft(values: np.ndarray, bank: FilterBank) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orders 0, 1 and 2 of an ``(N, h, w)`` stack of patches, in the frequency domain.

    Order 1 is one inverse transform of the ``(J, N, H, h, w)`` stack over
    the H distinct orientations; order 2 is one transform of ``u1[j1]``
    per j1 and one inverse transform of an ``(N, H, H, h, w)`` stack per
    scale pair.  The results are tiled back to all L orientations.  Each
    patch gets the same bits in any stack: every mean is a matmul of
    ``(..., H, h*w)`` moduli with the flat weights, one gemv per ``(H,
    h*w)`` core, and order 0 is summed patch by patch.  Every spectrum
    handed to ``averaged_modulus`` is a fresh product, so its inverse
    transform may overwrite it; the cached kernel FFTs and the patches
    are only read.
    """
    J, L, H = bank.scales, bank.rotations, bank.distinct_rotations
    shape = values.shape[1:]
    ffts = bank.kernel_ffts(shape)
    weights = bank.lowpass_weights(shape)
    flat_weights = weights.ravel()

    def averaged_modulus(spectra):
        u = np.abs(fft.ifft2(spectra, overwrite_x=True))
        return u, u.reshape(*u.shape[:-2], -1) @ flat_weights

    order0 = np.array([(weights * v).sum() for v in values])
    u1, half1 = averaged_modulus(fft.fft2(values)[None, :, None] * ffts[:, None])
    fu = [fft.fft2(u1[j1])[:, :, None] for j1 in range(J - 1)]
    half2 = np.empty((len(values), len(bank.pairs), H, H))
    for p, (j1, j2) in enumerate(bank.pairs):
        half2[:, p] = averaged_modulus(fu[j1] * ffts[j2])[1]
    tile = np.arange(L) % H
    return order0, half1.transpose(1, 0, 2)[:, :, tile], half2[:, :, tile][:, :, :, tile]


def scatter_windows(img: ImageBuffer, centers, sides, bank: FilterBank) -> Tuple[np.ndarray, ...]:
    """Order-0, order-1 and order-2 arrays of windows resampled to ``SAMPLE_SIDE`` px.

    Window k has side ``sides[k]`` around ``centers[k]``.  The windows are
    taken ``SCATTER_CHUNK`` at a time, each stack with one
    ``extract_patches`` call and one ``_cascade_fft`` cascade, and row k
    is bit for bit ``scatter(extract_patch(img, centers[k], sides[k],
    SAMPLE_SIDE), bank)``.  Raises ``SupportError`` before any window is
    resampled when the bank's largest kernel does not fit the sample.
    """
    bank.check_fits((SAMPLE_SIDE, SAMPLE_SIDE))
    n, L = len(sides), bank.rotations
    out = np.empty(n), np.empty((n, bank.scales, L)), np.empty((n, len(bank.pairs), L, L))
    for start in range(0, n, SCATTER_CHUNK):
        chunk = slice(start, start + SCATTER_CHUNK)
        patches = extract_patches(img, centers[chunk], sides[chunk], SAMPLE_SIDE)
        for whole, part in zip(out, _cascade_fft(patches, bank)):
            whole[chunk] = part
    return out


def pool_vectors(weights, windows):
    """Coefficient-wise ``sum(w * window)`` over paired weights and windows.

    ``windows`` holds one coefficient array per weight along its first
    axis.  The sum starts from 0, so one window of weight 1.0 pools to
    itself, bit for bit.
    """
    return sum(w * window for w, window in zip(weights, windows))


def dsp_scatter(img: ImageBuffer, kp: Keypoint, prior: SizePrior, bank: FilterBank) -> ScatteringVector:
    """Average scattering vectors over the size prior.

    Each prior sample selects a window of side multiplier * base_size *
    support_factor around the keypoint, with the constant
    ``DescriptorConfig.support_factor``; windows are resampled to
    ``SAMPLE_SIDE`` px and scattered by ``scatter_windows`` so coefficient
    vectors share an index set, then pooled coefficient-wise with the
    prior weights by ``pool_vectors``, as ``bench.describe`` pools them.
    Every side is checked with ``patch_inside`` before any is resampled,
    and when any window does not fit one ``SupportError`` lists each
    offending side.
    """
    center = (kp.u, kp.v)
    (sides,) = prior.sides([kp.base_size], DescriptorConfig.support_factor)
    bad = [side for side in sides if not patch_inside(center, side, SAMPLE_SIDE, img.values.shape)]
    if bad:
        raise SupportError(
            "window sides out of bounds at ({:.1f}, {:.1f}): {}".format(
                kp.u, kp.v, ", ".join(f"{s:.2f}" for s in bad)
            )
        )
    windows = scatter_windows(img, [center] * len(sides), sides, bank)
    order0, order1, order2 = (pool_vectors(prior.weights, orders) for orders in windows)
    return ScatteringVector(float(order0), order1, order2, bank.pairs)
