"""orbitpool: descriptors that pool over domain sizes and sampled orbits.

The package builds contrast-invariant orientation statistics, SIFT-like
grid descriptors with domain-size pooling, a Gabor scattering transform
(plain and size-pooled), and templates scored by the max over a sampled
set of planar-similarity warps. A synthetic benchmark harness and a small
CLI tie the pieces together. The top level exports what the demos and the
README quick start use, and the error classes; everything else is
imported from its own module.
"""

from .image import (
    AffineContrast,
    GammaContrast,
    ImageDataError,
    ImageFormatError,
    SimilarityTransform,
    SupportError,
    apply_contrast,
    compute_gradients,
    warp,
)
from .orientation import CircularKernel, SpatialKernel, normalize, pooled_histogram
from .descriptor import (
    Keypoint,
    SizePrior,
    descriptor_distance,
    dsp_descriptor,
    single_size_descriptor,
)
from .scattering import build_filter_bank, scatter
from .soa import GroupSampleSet, build_template, soa_likelihood

__all__ = [
    "AffineContrast",
    "CircularKernel",
    "GammaContrast",
    "GroupSampleSet",
    "ImageDataError",
    "ImageFormatError",
    "Keypoint",
    "SimilarityTransform",
    "SizePrior",
    "SpatialKernel",
    "SupportError",
    "apply_contrast",
    "build_filter_bank",
    "build_template",
    "compute_gradients",
    "descriptor_distance",
    "dsp_descriptor",
    "normalize",
    "pooled_histogram",
    "scatter",
    "single_size_descriptor",
    "soa_likelihood",
    "warp",
]

__version__ = "0.1.0"
