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

from .degrade import _convolve, _sampled_gaussian
from .grid import check_pixels, grad

DEFAULT_SIGMA = 1.0
DEFAULT_CONTRAST = 10.0
# The most taps, 2*ceil(3*sigma) + 1, the smoothing profile may have: 8 MiB
# of float64 taps, which sigma up to 174762 stays within. Without a bound a
# huge sigma asks for an array that cannot be allocated.
MAX_SMOOTH_TAPS = 2 ** 20


def smoothing_radius(sigma: float, name: str = "sigma") -> int:
    """The radius r = ceil(3*sigma) of the smoothing profile, once sigma is
    checked: finite, >= 0, and its 2r + 1 taps within MAX_SMOOTH_TAPS.
    ``name`` is what an error calls sigma."""
    if not 0 <= sigma < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {sigma}")
    r = int(np.ceil(3.0 * sigma))
    if 2 * r + 1 > MAX_SMOOTH_TAPS:
        raise ValueError(f"{name} {sigma:g} needs {2 * r + 1} smoothing taps, "
                         f"more than {MAX_SMOOTH_TAPS}")
    return r


def gaussian_smooth(f: np.ndarray, sigma: float) -> np.ndarray:
    """Periodic Gaussian smoothing, truncated at radius ceil(3*sigma).

    The taps are the outer square of the normalized 1-D profile of the
    blur's sampled Gaussian, r = ceil(3*sigma) taps either side of the
    center, so the transfer function is the outer product of two real 1-D
    transforms, and no 2-D taps are built. sigma = 0 returns a copy of the
    input unchanged; a sigma whose profile :func:`smoothing_radius` rejects
    raises ValueError.
    """
    r = smoothing_radius(sigma)
    f = np.asarray(f, dtype=float)
    if sigma == 0:
        return f.copy()
    profile = _sampled_gaussian(r, sigma)
    profile /= profile.sum()
    # The profile wrapped onto each axis, center at 0, is even: real DFTs.
    rows, cols = (np.fft.fft(np.bincount((np.arange(2 * r + 1) - r) % size,
                                         profile, size)).real
                  for size in f.shape)
    return _convolve(f, np.multiply.outer(rows, cols[: f.shape[1] // 2 + 1]))


def edge_weight(f: np.ndarray, sigma: float = DEFAULT_SIGMA,
                contrast: float = DEFAULT_CONTRAST) -> np.ndarray:
    """Edge-indicator field w = 1 / (1 + contrast * |grad f_sigma|^2), in (0, 1].

    An f without pixels, with NaN or infinite pixels, or with pixels above
    ``grid.MAX_PIXEL`` in magnitude, whose squares would overflow, raises
    ValueError naming it.
    |grad f_sigma|^2 and w are formed in the planes of f_sigma and of the
    gradient's y component, with the bits of the expression above."""
    if not 0 <= contrast < np.inf:
        raise ValueError(f"contrast must be finite and >= 0, got {contrast}")
    check_pixels("image f", f)
    fs = gaussian_smooth(f, sigma)
    p = grad(fs)
    w = np.square(p[..., 0], out=fs)
    w += np.square(p[..., 1], out=p[..., 1])
    w *= contrast
    w += 1.0
    return np.divide(1.0, w, out=w)
