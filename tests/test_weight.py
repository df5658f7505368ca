"""Edge-indicator weight: formula checks, smoothing oracle, invariants."""

import re

import numpy as np
import pytest

from htvseg import grid
from htvseg.degrade import _convolve, _transfer_function, gaussian_kernel
from htvseg.weight import edge_weight, gaussian_smooth, smoothing_radius


def smooth_oracle(f, sigma):
    """Direct double-loop periodic convolution with independently built
    truncated Gaussian taps (radius ceil(3*sigma))."""
    m, n = f.shape
    r = int(np.ceil(3.0 * sigma))
    offs = np.arange(-r, r + 1)
    taps = np.exp(-offs.astype(float) ** 2 / (2.0 * sigma * sigma))
    taps /= taps.sum()
    out = np.zeros_like(f)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for a, wa in zip(offs, taps):
                for b, wb in zip(offs, taps):
                    acc += wa * wb * f[(i - a) % m, (j - b) % n]
            out[i, j] = acc
    return out


def test_constant_image_gives_weight_one():
    w = edge_weight(np.full((6, 7), 0.3))
    assert np.array_equal(w, np.ones((6, 7)))


def test_zero_contrast_gives_weight_one():
    rng = np.random.default_rng(0)
    w = edge_weight(rng.normal(size=(5, 5)), sigma=1.0, contrast=0.0)
    assert np.array_equal(w, np.ones((5, 5)))


def test_sigma_zero_skips_smoothing():
    rng = np.random.default_rng(1)
    f = rng.normal(size=(6, 6))
    p = grid.grad(f)
    expected = 1.0 / (1.0 + 10.0 * (p[..., 0] ** 2 + p[..., 1] ** 2))
    assert np.array_equal(edge_weight(f, sigma=0.0, contrast=10.0), expected)


def test_smooth_matches_double_loop_oracle():
    rng = np.random.default_rng(2)
    f = rng.normal(size=(9, 8))
    for sigma in (0.5, 1.0, 1.7):
        assert np.max(np.abs(gaussian_smooth(f, sigma) - smooth_oracle(f, sigma))) < 1e-12


@pytest.mark.parametrize("shape", [(1, 1), (5, 7), (9, 8), (24, 24), (13, 40)])
def test_smooth_matches_two_dimensional_transfer(shape):
    """The separable transfer function reproduces periodic convolution with
    the 2-D taps of ``gaussian_kernel`` on the blur's path, whose transfer
    function is the 2-D transform of the wrapped taps, also where the taps
    wrap."""
    f = np.random.default_rng(shape[1]).normal(size=shape)
    for sigma in (0.5, 1.0, 1.7, 4.0):
        r = int(np.ceil(3.0 * sigma))
        taps = gaussian_kernel(2 * r + 1, sigma).taps
        reference = _convolve(f, _transfer_function(taps, shape))
        assert np.max(np.abs(gaussian_smooth(f, sigma) - reference)) <= 1e-14


def test_smooth_preserves_mass_and_handles_wrap():
    f = np.zeros((8, 8))
    f[0, 0] = 1.0
    s = gaussian_smooth(f, 1.0)
    assert abs(s.sum() - 1.0) < 1e-12
    # periodic wrap: the impulse leaks symmetrically across the seam
    assert s[7, 0] == pytest.approx(s[1, 0])
    assert s[0, 7] == pytest.approx(s[0, 1])
    assert np.array_equal(gaussian_smooth(f, 0.0), f)
    with pytest.raises(ValueError):
        gaussian_smooth(f, -1.0)


def test_smooth_wide_sigma_builds_only_1d_taps():
    """sigma = 1e5 spans 600001 taps a side: the 2-D square of them would
    not fit in memory. Wrapped onto 24 pixels the profile is flat to about
    1e-8, so the result is near the mean, and mass is kept."""
    f = np.random.default_rng(4).uniform(size=(24, 24))
    out = gaussian_smooth(f, 1e5)
    assert out.sum() == pytest.approx(f.sum(), rel=1e-12)
    assert np.allclose(out, f.mean(), rtol=0.0, atol=1e-6)


def test_step_edge_profile():
    f = np.zeros((32, 32))
    f[:, 16:] = 1.0
    w = edge_weight(f, sigma=1.0, contrast=10.0)
    assert w[:, 15].max() < 0.5  # steepest forward difference, across the jump
    assert w[:, 8].min() > 0.99  # flat interior
    assert w[:, 24].min() > 0.99


def test_range_and_contrast_monotonicity():
    rng = np.random.default_rng(3)
    f = rng.uniform(0.0, 1.0, size=(10, 10))
    w1 = edge_weight(f, sigma=1.0, contrast=5.0)
    w2 = edge_weight(f, sigma=1.0, contrast=20.0)
    for w in (w1, w2):
        assert np.all(w > 0.0) and np.all(w <= 1.0)
    assert np.all(w2 <= w1)
    with pytest.raises(ValueError):
        edge_weight(f, contrast=-1.0)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
def test_smooth_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
        gaussian_smooth(np.zeros((4, 4)), sigma)


def test_smooth_rejects_sigma_past_tap_budget():
    """sigma = 1e12 would need a profile of 6e12 taps (43.7 TiB); it fails
    by name before anything is allocated. At the budget's edge, sigma =
    174762 needs 1048573 taps and passes, 174763 needs 1048579 and fails."""
    with pytest.raises(ValueError,
                       match=r"sigma 1e\+12 needs 6000000000001 smoothing taps"):
        edge_weight(np.zeros((8, 8)), 1e12)
    assert smoothing_radius(174762.0) == 524286
    with pytest.raises(ValueError, match="sigma 174763 needs 1048579 smoothing taps"):
        smoothing_radius(174763.0)


@pytest.mark.parametrize("contrast", [np.nan, np.inf, -1.0])
def test_edge_weight_rejects_bad_contrast(contrast):
    with pytest.raises(ValueError, match="contrast must be finite and >= 0"):
        edge_weight(np.zeros((4, 4)), 1.0, contrast)


def test_edge_weight_matches_formula_bit_for_bit():
    """The weight formed in place has the bits of the formula evaluated
    with fresh temporaries, and shares no memory with f."""
    f = np.random.default_rng(5).uniform(0.0, 1.0, size=(24, 20))
    p = grid.grad(gaussian_smooth(f, 1.3))
    expected = 1.0 / (1.0 + 7.0 * (p[..., 0] ** 2 + p[..., 1] ** 2))
    w = edge_weight(f, 1.3, 7.0)
    assert np.array_equal(w, expected)
    assert w.flags.c_contiguous and not np.shares_memory(w, f)


@pytest.mark.parametrize("value,message", [
    (1e308, "image f spans [0.5, 1e+308]; pixel magnitudes above 1e+100"),
    (-1e308, "image f spans [-1e+308, 0.5]; pixel magnitudes above 1e+100"),
    (np.nan, "image f has 1 non-finite entry (NaN or inf)"),
])
def test_edge_weight_rejects_huge_or_non_finite_pixel(value, message):
    """A pixel whose square overflows, or a NaN, fails up front naming the
    image, with no numpy warning (warnings are errors here)."""
    f = np.full((16, 16), 0.5)
    f[3, 4] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        edge_weight(f)
