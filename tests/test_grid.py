"""Discrete operator tests: hand-evaluated stencils, adjointness against
brute-force matrix assembly, norms vs naive summation."""

import numpy as np
import pytest

from htvseg import grid


def op_matrix(op, in_shape):
    """Assemble the dense matrix of a linear operator by unit-vector probing."""
    n_in = int(np.prod(in_shape))
    cols = []
    for k in range(n_in):
        e = np.zeros(n_in)
        e[k] = 1.0
        cols.append(op(e.reshape(in_shape)).ravel())
    return np.array(cols).T


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (2, 2), (5, 7)])
def test_grad_of_constant_is_zero(shape):
    u = np.full(shape, 3.7)
    assert np.all(grid.grad(u) == 0.0)
    assert np.all(grid.grad2(u) == 0.0)


def test_grad_2x2_hand_values():
    # forward differences with wrap on [[0,1],[2,3]], worked by hand
    u = np.array([[0.0, 1.0], [2.0, 3.0]])
    p = grid.grad(u)
    assert np.array_equal(p[..., 0], [[2.0, 2.0], [-2.0, -2.0]])
    assert np.array_equal(p[..., 1], [[1.0, -1.0], [1.0, -1.0]])


def test_grad_row_ramp_wrap():
    n = 6
    u = np.arange(n, dtype=float).reshape(1, n)
    p = grid.grad(u)
    expected = np.ones(n)
    expected[-1] = 1.0 - n
    assert np.array_equal(p[0, :, 1], expected)
    assert np.all(p[..., 0] == 0.0)  # single row, x-difference wraps to itself


def test_grad2_2x2_hand_values():
    u = np.array([[0.0, 1.0], [2.0, 3.0]])
    q = grid.grad2(u)
    assert np.array_equal(q[..., grid.XX], [[4.0, 4.0], [-4.0, -4.0]])
    assert np.array_equal(q[..., grid.XY], [[0.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(q[..., grid.YX], [[0.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(q[..., grid.YY], [[2.0, -2.0], [2.0, -2.0]])


@pytest.mark.parametrize("shape", [(5, 7), (6, 8), (1, 9), (8, 1)])
def test_differences_match_roll_reference(shape):
    """Slice arithmetic reproduces the np.roll formulation bit for bit, for
    the differences and for grad/grad2 built from them."""
    def fwd(u, axis):
        return np.roll(u, -1, axis=axis) - u

    def bwd(u, axis):
        return u - np.roll(u, 1, axis=axis)

    u = np.random.default_rng(shape[0] * 10 + shape[1]).normal(size=shape)
    for axis in (0, 1):
        assert np.array_equal(grid.diff_forward(u, axis), fwd(u, axis))
        assert np.array_equal(grid.diff_backward(u, axis), bwd(u, axis))
    assert np.array_equal(grid.grad(u), np.stack((fwd(u, 0), fwd(u, 1)), axis=-1))
    expected = np.stack((bwd(fwd(u, 0), 0), bwd(fwd(u, 1), 0),
                         fwd(bwd(u, 0), 1), fwd(bwd(u, 1), 1)), axis=-1)
    assert np.array_equal(grid.grad2(u), expected)


def test_grad2_matches_composed_differences():
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.normal(size=(6, 9))
        q = grid.grad2(u)
        fx, fy = grid.diff_forward(u, 0), grid.diff_forward(u, 1)
        assert np.array_equal(q[..., grid.XX], grid.diff_backward(fx, 0))
        assert np.array_equal(q[..., grid.XY], grid.diff_backward(fy, 0))
        assert np.array_equal(q[..., grid.YX], grid.diff_forward(grid.diff_backward(u, 0), 1))
        assert np.array_equal(q[..., grid.YY], grid.diff_forward(grid.diff_backward(u, 1), 1))


def test_grad2_linear_ramp_interior():
    m = 8
    u = np.arange(m, dtype=float)[:, None] * np.ones((1, 5))
    xx = grid.grad2(u)[..., grid.XX]
    assert np.all(xx[1:m - 1, :] == 0.0)  # second difference of a linear ramp
    assert np.all(xx[0, :] == m)
    assert np.all(xx[m - 1, :] == -m)


def test_div_hand_values():
    u = np.array([[0.0, 1.0], [2.0, 3.0]])
    d = grid.div(grid.grad(u))
    assert np.array_equal(d, [[6.0, 2.0], [-2.0, -6.0]])


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (3, 1), (2, 2), (3, 4), (8, 8)])
def test_adjointness_random(shape):
    """<grad u, p> = -<u, div p> and <grad2 u, p> = +<u, div2 p>."""
    rng = np.random.default_rng(42)
    for _ in range(20):
        u = rng.normal(size=shape)
        p2 = rng.normal(size=shape + (2,))
        p4 = rng.normal(size=shape + (4,))
        lhs1 = grid.inner(grid.grad(u), p2)
        rhs1 = -grid.inner(u, grid.div(p2))
        assert abs(lhs1 - rhs1) <= 1e-10 * max(1.0, abs(lhs1))
        lhs2 = grid.inner(grid.grad2(u), p4)
        rhs2 = grid.inner(u, grid.div2(p4))
        assert abs(lhs2 - rhs2) <= 1e-10 * max(1.0, abs(lhs2))


def test_div_is_negative_transpose_of_grad_matrix():
    shape = (3, 4)
    g_mat = op_matrix(grid.grad, shape)

    def div_flat(x):
        return grid.div(x.reshape(shape + (2,)))

    d_mat = op_matrix(lambda p: div_flat(p), shape + (2,))
    assert np.allclose(d_mat, -g_mat.T, atol=1e-14)


def test_div2_is_transpose_of_grad2_matrix():
    shape = (4, 4)
    g_mat = op_matrix(grid.grad2, shape)
    d_mat = op_matrix(lambda p: grid.div2(p.reshape(shape + (4,))), shape + (4,))
    assert np.allclose(d_mat, g_mat.T, atol=1e-14)


def test_div2_single_entry_matches_matrix_column():
    shape = (4, 4)
    g_mat = op_matrix(grid.grad2, shape)
    p = np.zeros(shape + (4,))
    p[1, 2, grid.XY] = 1.0
    col = g_mat.T[:, np.flatnonzero(p.ravel())[0]]
    assert np.allclose(grid.div2(p).ravel(), col, atol=1e-14)


def test_periodicity_constant_along_axis():
    u = np.tile(np.arange(5.0), (4, 1))  # constant along rows (axis 0)
    assert np.all(grid.grad(u)[..., 0] == 0.0)
    v = np.tile(np.arange(4.0)[:, None], (1, 5))
    assert np.all(grid.grad(v)[..., 1] == 0.0)


def test_linearity_exact_on_integers():
    rng = np.random.default_rng(3)
    u = rng.integers(-50, 50, size=(6, 6)).astype(float)
    w = rng.integers(-50, 50, size=(6, 6)).astype(float)
    assert np.array_equal(grid.grad(2.0 * u + 3.0 * w),
                          2.0 * grid.grad(u) + 3.0 * grid.grad(w))
    assert np.array_equal(grid.grad2(2.0 * u + 3.0 * w),
                          2.0 * grid.grad2(u) + 3.0 * grid.grad2(w))


def test_constants_in_kernel_of_composites():
    ones = np.ones((5, 6))
    assert np.all(grid.div(grid.grad(ones)) == 0.0)
    assert np.all(grid.div2(grid.grad2(ones)) == 0.0)


def test_pixel_magnitude():
    p = np.zeros((3, 3, 2))
    assert np.array_equal(grid.pixel_magnitude(p), np.zeros((3, 3)))
    p[1, 1] = (3.0, 4.0)
    assert np.array_equal(grid.pixel_magnitude(p), [[0, 0, 0], [0, 5, 0], [0, 0, 0]])
    rng = np.random.default_rng(8)
    q = rng.normal(size=(4, 5, 4))
    naive = np.empty((4, 5))
    for i in range(4):
        for j in range(5):
            naive[i, j] = np.sqrt(np.sum(q[i, j] ** 2))
    assert np.max(np.abs(grid.pixel_magnitude(q) - naive)) < 1e-12


def test_norm_l2_and_inner():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4, 2))
    naive = np.sqrt(sum(x * x for x in a.ravel()))
    assert abs(grid.norm_l2(a) - naive) < 1e-12
    with pytest.raises(ValueError):
        grid.inner(np.zeros((2, 2)), np.zeros((2, 3)))
