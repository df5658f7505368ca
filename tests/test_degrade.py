"""Kernels, the degradation operator and noise: formula oracles, a spatial
double-loop convolution oracle, adjointness, determinism."""

import numpy as np
import pytest

from htvseg.degrade import (BlurKernel, LinearOperatorA, add_gaussian_noise,
                            apply, apply_adjoint, gaussian_kernel, load_kernel,
                            motion_kernel, save_kernel)


def conv_oracle(kernel, g):
    """Periodic convolution with the kernel centered at its middle tap,
    computed by direct double-loop summation."""
    m, n = g.shape
    ci, cj = kernel.rows // 2, kernel.cols // 2
    out = np.zeros_like(g)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for a in range(kernel.rows):
                for b in range(kernel.cols):
                    acc += kernel.taps[a, b] * g[(i - (a - ci)) % m, (j - (b - cj)) % n]
            out[i, j] = acc
    return out


def test_kernel_invariants():
    with pytest.raises(ValueError):
        BlurKernel(np.ones((2, 3)) / 6)  # even rows
    with pytest.raises(ValueError):
        BlurKernel(np.array([[0.5, 0.6, -0.1]]))  # negative tap
    with pytest.raises(ValueError):
        BlurKernel(np.ones((3, 3)))  # sums to 9
    k = BlurKernel(np.full((3, 3), 1.0 / 9.0))
    assert abs(k.taps.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kernel_rejects_non_finite_taps(bad):
    with pytest.raises(ValueError, match="finite"):
        BlurKernel(np.array([[bad, 0.5, 0.5]]))


def test_load_kernel_rejects_nan_tap(tmp_path):
    path = tmp_path / "kernel.txt"
    path.write_text("1 3\nnan 0.5 0.5\n")
    with pytest.raises(ValueError, match="finite"):
        load_kernel(path)


def test_gaussian_kernel_trivial_sizes():
    assert np.array_equal(gaussian_kernel(1, 2.0).taps, [[1.0]])
    flat = gaussian_kernel(3, 1e6).taps
    assert np.all(np.abs(flat - 1.0 / 9.0) < 1e-6)


def test_gaussian_kernel_formula_oracle():
    s, sig = 5, 5.0
    k = gaussian_kernel(s, sig)
    r = s // 2
    expected = np.empty((s, s))
    for a in range(s):
        for b in range(s):
            x, y = a - r, b - r
            expected[a, b] = np.exp(-(x * x + y * y) / (2.0 * sig * sig))
    expected /= expected.sum()
    assert np.max(np.abs(k.taps - expected)) < 1e-12


def test_gaussian_kernel_rejects_bad_args():
    with pytest.raises(ValueError):
        gaussian_kernel(4, 1.0)
    with pytest.raises(ValueError):
        gaussian_kernel(3, 0.0)


def test_motion_kernel_degenerate_and_axis_aligned():
    assert np.array_equal(motion_kernel(1, 33.0).taps, [[1.0]])
    k = motion_kernel(5, 0.0)
    assert np.array_equal(k.taps, np.full((1, 5), 0.2))
    k90 = motion_kernel(5, 90.0)
    assert np.array_equal(k90.taps, k.taps.T)
    with pytest.raises(ValueError):
        motion_kernel(0.5, 0.0)


def test_motion_kernel_oblique_invariants():
    for length, theta in [(5, 45.0), (7, 30.0), (4.5, 120.0), (3, 10.0)]:
        k = motion_kernel(length, theta)
        assert k.rows % 2 == 1 and k.cols % 2 == 1
        assert np.all(k.taps >= 0)
        assert abs(k.taps.sum() - 1.0) < 1e-12


def test_apply_identity_and_delta():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(8, 9))
    A = LinearOperatorA.identity(g.shape)
    assert np.array_equal(apply(A, g), g)
    delta = BlurKernel(np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
    Ad = LinearOperatorA.convolution(delta, g.shape)
    assert np.max(np.abs(apply(Ad, g) - g)) < 1e-12


def test_apply_matches_spatial_oracle():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(16, 16))
    k = gaussian_kernel(5, 5.0)
    A = LinearOperatorA.convolution(k, g.shape)
    assert np.max(np.abs(apply(A, g) - conv_oracle(k, g))) <= 1e-10


@pytest.mark.parametrize("shape", [(4, 4), (5, 7), (16, 16), (32, 32)])
def test_apply_matches_oracle_various_grids(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    taps = rng.uniform(0.0, 1.0, size=(3, 3))
    k = BlurKernel(taps / taps.sum())
    g = rng.normal(size=shape)
    assert np.max(np.abs(apply(LinearOperatorA.convolution(k, shape), g)
                         - conv_oracle(k, g))) <= 1e-10


def test_apply_preserves_mean():
    rng = np.random.default_rng(2)
    g = rng.normal(size=(12, 10))
    A = LinearOperatorA.convolution(motion_kernel(5, 30.0), g.shape)
    assert abs(apply(A, g).mean() - g.mean()) <= 1e-10


def test_adjoint_identity_and_symmetry():
    rng = np.random.default_rng(3)
    g, u = rng.normal(size=(9, 9)), rng.normal(size=(9, 9))
    taps = rng.uniform(0.0, 1.0, size=(3, 5))
    A = LinearOperatorA.convolution(BlurKernel(taps / taps.sum()), g.shape)
    lhs = np.sum(apply(A, g) * u)
    rhs = np.sum(g * apply_adjoint(A, u))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    # symmetric kernel is self-adjoint
    S = LinearOperatorA.convolution(gaussian_kernel(5, 2.0), g.shape)
    assert np.max(np.abs(apply(S, u) - apply_adjoint(S, u))) < 1e-12


def test_invertible_flag():
    assert LinearOperatorA.identity((8, 8)).invertible
    assert LinearOperatorA.convolution(gaussian_kernel(5, 5.0), (16, 16)).invertible
    # [1/4, 1/2, 1/4] along columns: transfer hits zero at the Nyquist column
    k = BlurKernel(np.array([[0.25, 0.5, 0.25]]))
    assert not LinearOperatorA.convolution(k, (4, 4)).invertible


def test_convolution_rejects_kernel_larger_than_grid():
    k = gaussian_kernel(5, 1.0)
    for shape in [(4, 8), (8, 4), (3, 3)]:
        with pytest.raises(ValueError, match="larger than grid"):
            LinearOperatorA.convolution(k, shape)
    assert LinearOperatorA.convolution(k, (5, 5)).transfer.shape == (5, 3)


@pytest.mark.parametrize("shape", [(8, 10), (7, 9)])
def test_transfer_is_half_spectrum(shape):
    rng = np.random.default_rng(4)
    taps = rng.uniform(0.0, 1.0, size=(3, 5))
    k = BlurKernel(taps / taps.sum())
    m, n = shape
    psf = np.zeros(shape)
    for a in range(k.rows):
        for b in range(k.cols):
            psf[(a - k.rows // 2) % m, (b - k.cols // 2) % n] += k.taps[a, b]
    transfer = LinearOperatorA.convolution(k, shape).transfer
    assert transfer.shape == (m, n // 2 + 1)
    assert np.array_equal(transfer, np.fft.fft2(psf)[:, : n // 2 + 1])


def test_shape_mismatch_errors():
    A = LinearOperatorA.identity((4, 4))
    with pytest.raises(ValueError):
        apply(A, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        apply_adjoint(A, np.zeros((3, 4)))


def test_noise_basics():
    g = np.linspace(0.0, 1.0, 20).reshape(4, 5)
    assert np.array_equal(add_gaussian_noise(g, 0.0, seed=5), g)
    a = add_gaussian_noise(g, 0.02, seed=5)
    b = add_gaussian_noise(g, 0.02, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, add_gaussian_noise(g, 0.02, seed=6))
    with pytest.raises(ValueError):
        add_gaussian_noise(g, -0.1, seed=0)


def test_noise_sample_variance():
    g = np.zeros((256, 256))
    eta = add_gaussian_noise(g, 0.01, seed=12) - g
    assert 0.009 <= eta.var() <= 0.011
    assert abs(eta.mean()) < 1e-3


def test_kernel_file_round_trip(tmp_path):
    k = motion_kernel(6.5, 37.0)
    path = tmp_path / "kern.txt"
    save_kernel(k, path)
    k2 = load_kernel(path)
    assert k2.taps.shape == k.taps.shape
    assert np.array_equal(k2.taps, k.taps)  # %.17g keeps doubles exact


def test_kernel_file_rejects_short_payload(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 3\n1 2\n")
    with pytest.raises(ValueError):
        load_kernel(path)
