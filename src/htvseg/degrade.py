"""Blur kernels, the degradation operator, and synthetic noise.

The degradation model is f = A(g) + eta, where A is either the identity or
a circular (periodic) convolution with a normalized blur kernel, and eta is
zero-mean Gaussian noise. Every periodic convolution, this blur and the
edge weight's smoothing alike, runs through :func:`_convolve` against the
half-spectrum (first n//2 + 1 columns) of the FFT of the kernel embedded in
the grid with its center tap at (0, 0). Fields are real, so the transforms
are the real-input ``rfft2``/``irfft2`` pair.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

# Transfer-function magnitudes below this count as a zero of the operator.
KERNEL_SINGULAR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class BlurKernel:
    """Finite, nonnegative, unit-sum convolution kernel with odd dimensions."""

    taps: np.ndarray

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=float)
        if taps.ndim != 2:
            raise ValueError("kernel taps must be a 2-D array")
        if taps.shape[0] % 2 == 0 or taps.shape[1] % 2 == 0:
            raise ValueError(f"kernel dimensions must be odd, got {taps.shape}")
        if not np.isfinite(taps).all():
            raise ValueError("kernel taps must be finite, got NaN or inf")
        if np.any(taps < 0):
            raise ValueError("kernel taps must be nonnegative")
        if abs(taps.sum() - 1.0) > 1e-12:
            raise ValueError(f"kernel taps must sum to 1, got {taps.sum()!r}")
        object.__setattr__(self, "taps", taps)

    @property
    def rows(self) -> int:
        return self.taps.shape[0]

    @property
    def cols(self) -> int:
        return self.taps.shape[1]


def gaussian_kernel(s: int, sigma_g: float) -> BlurKernel:
    """Sampled isotropic Gaussian on an s-by-s grid, normalized to sum 1.

    Parameters
    ----------
    s : odd kernel size in pixels, an integer.
    sigma_g : standard deviation of the Gaussian, finite and > 0.
    """
    if not isinstance(s, numbers.Integral):
        raise ValueError(f"kernel size must be an integer, got {s!r}")
    if s < 1 or s % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 1, got {s}")
    if not np.isfinite(sigma_g):
        raise ValueError(f"sigma_g must be finite, got {sigma_g}")
    if sigma_g <= 0:
        raise ValueError(f"sigma_g must be positive, got {sigma_g}")
    g1 = _sampled_gaussian(s // 2, sigma_g)
    taps = np.outer(g1, g1)
    return BlurKernel(taps / taps.sum())


def _sampled_gaussian(r: int, sigma: float) -> np.ndarray:
    """exp(-x^2 / (2 sigma^2)) at the 2r + 1 integers x = -r..r, unnormalized."""
    x = np.arange(-r, r + 1, dtype=float)
    return np.exp(-(x * x) / (2.0 * sigma * sigma))


def motion_kernel(length: float, theta_deg: float) -> BlurKernel:
    """Linear motion blur: a straight segment of the given pixel length
    through the kernel center at angle ``theta_deg``, rasterized by
    depositing ceil(length) evenly spaced unit samples with bilinear
    weights and normalizing.

    An axis-aligned integer length L therefore yields exactly L taps of
    value 1/L; theta 90 is the transpose of theta 0.
    """
    for name, value in (("length", length), ("angle", theta_deg)):
        if not np.isfinite(value):
            raise ValueError(f"motion {name} must be finite, got {value}")
    if length < 1:
        raise ValueError(f"motion length must be >= 1, got {length}")
    n_samples = int(np.ceil(length))
    theta = np.deg2rad(theta_deg)
    di, dj = np.sin(theta), np.cos(theta)

    if n_samples == 1:
        t = np.zeros(1)
    else:
        half = (length - 1.0) / 2.0
        t = np.linspace(-half, half, n_samples)

    r = int(np.ceil((length - 1.0) / 2.0)) + 1
    size = 2 * r + 1
    acc = np.zeros((size, size))
    for tk in t:
        yi, xj = r + tk * di, r + tk * dj
        # Snap to the lattice so e.g. cos(90 deg) = 6e-17 leaves no ghost taps.
        if abs(yi - round(yi)) < 1e-9:
            yi = round(yi)
        if abs(xj - round(xj)) < 1e-9:
            xj = round(xj)
        i0, j0 = int(np.floor(yi)), int(np.floor(xj))
        fi, fj = yi - i0, xj - j0
        acc[i0, j0] += (1 - fi) * (1 - fj)
        acc[i0, j0 + 1] += (1 - fi) * fj
        acc[i0 + 1, j0] += fi * (1 - fj)
        acc[i0 + 1, j0 + 1] += fi * fj

    # Trim zero borders symmetrically so the center tap stays centered.
    nz_i, nz_j = np.nonzero(acc)
    ri = max(abs(nz_i - r).max(), 0)
    rj = max(abs(nz_j - r).max(), 0)
    acc = acc[r - ri : r + ri + 1, r - rj : r + rj + 1]
    return BlurKernel(acc / acc.sum())


def _transfer_function(taps: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Half-spectrum transfer function, shape (m, n//2 + 1), of periodic
    convolution with ``taps``. Taps beyond the grid wrap around and add up."""
    m, n = shape
    r, c = taps.shape
    psf = np.zeros(shape)
    rows = (np.arange(r) - r // 2) % m
    cols = (np.arange(c) - c // 2) % n
    np.add.at(psf, np.ix_(rows, cols), taps)
    return np.ascontiguousarray(np.fft.fft2(psf)[:, : n // 2 + 1])


@dataclass(frozen=True, eq=False)
class LinearOperatorA:
    """Degradation operator: identity or periodic convolution on a fixed grid.
    A convolution holds its half-spectrum transfer function, shape
    (m, n//2 + 1); the identity is the operator with no transfer function,
    its symbol is 1 everywhere."""

    shape: tuple[int, int]
    transfer: np.ndarray | None = field(repr=False, default=None)

    @staticmethod
    def identity(shape: tuple[int, int]) -> "LinearOperatorA":
        return LinearOperatorA(tuple(shape))

    @staticmethod
    def convolution(kernel: BlurKernel, shape: tuple[int, int]) -> "LinearOperatorA":
        shape = tuple(shape)
        if kernel.rows > shape[0] or kernel.cols > shape[1]:
            raise ValueError(f"kernel {kernel.taps.shape} larger than grid {shape}")
        return LinearOperatorA(shape, _transfer_function(kernel.taps, shape))

    @property
    def invertible(self) -> bool:
        """True when no transfer coefficient vanishes (trivial kernel/null space);
        |Ahat(k)| = |Ahat(-k)|, so the half-spectrum holds every magnitude."""
        if self.transfer is None:
            return True
        return bool(np.min(np.abs(self.transfer)) > KERNEL_SINGULAR_TOL)

    def gain_half(self) -> np.ndarray | float:
        """|Ahat|^2 on the half-spectrum that ``np.fft.rfft2`` returns,
        shape (m, n//2 + 1); the scalar 1.0 for the identity."""
        if self.transfer is None:
            return 1.0
        return np.abs(self.transfer) ** 2

    def _check_shape(self, g: np.ndarray):
        if g.shape != self.shape:
            raise ValueError(f"field shape {g.shape} does not match operator grid {self.shape}")


def _convolve(g: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Periodic convolution of a real field with the operator whose
    half-spectrum transfer function, shape (m, n//2 + 1), is ``half``."""
    return np.fft.irfft2(half * np.fft.rfft2(g), s=g.shape)


def apply(A: LinearOperatorA, g: np.ndarray) -> np.ndarray:
    """Apply the degradation operator: A(g)."""
    g = np.asarray(g, dtype=float)
    A._check_shape(g)
    if A.transfer is None:
        return g.copy()
    return _convolve(g, A.transfer)


def apply_adjoint(A: LinearOperatorA, u: np.ndarray) -> np.ndarray:
    """Apply the adjoint operator, <A g, u> = <g, A* u>."""
    u = np.asarray(u, dtype=float)
    A._check_shape(u)
    if A.transfer is None:
        return u.copy()
    return _convolve(u, np.conj(A.transfer))


def add_gaussian_noise(g: np.ndarray, variance: float, seed: int) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise of the given variance.

    The result is not clipped; observed images may leave [0, 1]. The same
    seed always produces the same noise field. The variance must be finite
    and >= 0.
    """
    if not np.isfinite(variance):
        raise ValueError(f"variance must be finite, got {variance}")
    if variance < 0:
        raise ValueError(f"variance must be >= 0, got {variance}")
    g = np.asarray(g, dtype=float)
    if variance == 0:
        return g.copy()
    rng = np.random.default_rng(seed)
    return g + rng.normal(0.0, np.sqrt(variance), size=g.shape)


def save_kernel(kernel: BlurKernel, path) -> None:
    """Write a kernel as plain text: 'rows cols' header, then row-major taps."""
    with open(path, "w") as fh:
        fh.write(f"{kernel.rows} {kernel.cols}\n")
        for row in kernel.taps:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
