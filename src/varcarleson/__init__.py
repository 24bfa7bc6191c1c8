"""Numerical toolkit for vector-valued variational time-frequency analysis.

Modules
-------
core        coordinate spaces, sampled signals, signal generators
variation   r-variation seminorms of finite paths
fourier     partial Fourier integrals and variational operators
wavepacket  smooth bumps, the two-sided multiplier, truncated wave packets
tfs         time-frequency-scale geometry: grids, trees, strips, fields
outersize   local sizes, outer sizes, super-level covers, outer quasinorms
embedding   wave-packet embedding maps and their comparison checks
cli         the ``vc`` command line driver
"""

from .core import (
    ConfigurationError,
    FrequencySelection,
    NormedSpace,
    SampledSignal,
    SequenceSignal,
    duality_pairing,
    make_signal,
    norm_eval,
)
from .variation import Path, variation_norm, variation_norm_bruteforce

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "FrequencySelection",
    "NormedSpace",
    "Path",
    "SampledSignal",
    "SequenceSignal",
    "duality_pairing",
    "make_signal",
    "norm_eval",
    "variation_norm",
    "variation_norm_bruteforce",
    "__version__",
]
