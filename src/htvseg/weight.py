"""Edge-indicator weight for blending first- and second-order penalties.

w(x) = 1 / (1 + contrast * |grad f_sigma(x)|^2), where f_sigma is the
observed image smoothed by a periodic Gaussian of standard deviation
``sigma``; the smoothing is an FFT periodic convolution on the blur
operator's path, ``degrade._convolve``. The weight lives in (0, 1]: near 1
on flat regions (letting the second-order term dominate) and small across
strong edges (shifting weight onto the first-order term, which preserves
jumps).
"""

from __future__ import annotations

import numpy as np

from .degrade import _convolve, _transfer_function
from .grid import grad

DEFAULT_SIGMA = 1.0
DEFAULT_CONTRAST = 10.0


def gaussian_smooth(f: np.ndarray, sigma: float) -> np.ndarray:
    """Periodic Gaussian smoothing, truncated at radius ceil(3*sigma).

    The sampled 1-D Gaussian, normalized to sum 1, is applied along both
    axes at once as its outer product. sigma = 0 returns a copy of the
    input unchanged.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    f = np.asarray(f, dtype=float)
    if sigma == 0:
        return f.copy()
    r = int(np.ceil(3.0 * sigma))
    x = np.arange(-r, r + 1, dtype=float)
    taps = np.exp(-(x * x) / (2.0 * sigma * sigma))
    taps /= taps.sum()
    return _convolve(f, _transfer_function(np.outer(taps, taps), f.shape))


def edge_weight(f: np.ndarray, sigma: float = DEFAULT_SIGMA,
                contrast: float = DEFAULT_CONTRAST) -> np.ndarray:
    """Edge-indicator field w = 1 / (1 + contrast * |grad f_sigma|^2), in (0, 1]."""
    if contrast < 0:
        raise ValueError(f"contrast must be >= 0, got {contrast}")
    fs = gaussian_smooth(f, sigma)
    p = grad(fs)
    mag2 = p[..., 0] ** 2 + p[..., 1] ** 2
    return 1.0 / (1.0 + contrast * mag2)
