"""Discrete operator tests: hand-evaluated stencils, adjointness against
brute-force matrix assembly, norms vs naive summation; and the input
range check the pipeline's entry points share."""

import re
import tracemalloc

import numpy as np
import pytest

from htvseg import cluster, grid, metrics, weight


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


@pytest.mark.parametrize("shape", [(5, 7), (6, 8), (1, 9), (8, 1), (1, 1), (3, 2)])
def test_differences_match_roll_reference(shape):
    """The shifted subtraction reproduces the np.roll formulation bit for
    bit, for the differences and for grad/grad2 built from them, also where
    the shift spans the whole field or one row."""
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


@pytest.mark.parametrize("diff", [grid.diff_forward, grid.diff_backward])
def test_axis1_difference_into_out_allocates_no_buffers(diff):
    """Along y the difference is one flat subtraction and a column write,
    so numpy buffers no strided 2-D slices."""
    u = np.random.default_rng(3).normal(size=(256, 256))
    out = np.empty_like(u)
    diff(u, 1, out)
    tracemalloc.start()
    try:
        diff(u, 1, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096


@pytest.mark.parametrize("diff", [grid.diff_forward, grid.diff_backward])
def test_difference_rejects_bad_fields_and_outputs(diff):
    m, n = 4, 5
    u = np.ones((m, n))
    for out in (np.empty((m, 2 * n))[:, ::2], np.empty((n, m)),
                np.empty((m, n), order="F")):
        with pytest.raises(ValueError):
            diff(u, 1, out)
    for bad in (np.ones(n), np.ones((2, m, n))):
        with pytest.raises(ValueError):
            diff(bad, 0)
    with pytest.raises(ValueError):
        diff(u, 2)


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


def magnitude(p):
    """``grid.pixel_magnitude`` of ``p`` with a scratch plane of its own."""
    return grid.pixel_magnitude(p, np.empty(p.shape[:-1]))


def test_pixel_magnitude():
    p = np.zeros((3, 3, 2))
    assert np.array_equal(magnitude(p), np.zeros((3, 3)))
    p[1, 1] = (3.0, 4.0)
    assert np.array_equal(magnitude(p), [[0, 0, 0], [0, 5, 0], [0, 0, 0]])
    rng = np.random.default_rng(8)
    q = rng.normal(size=(4, 5, 4))
    naive = np.empty((4, 5))
    for i in range(4):
        for j in range(5):
            naive[i, j] = np.sqrt(np.sum(q[i, j] ** 2))
    assert np.max(np.abs(magnitude(q) - naive)) < 1e-12


def test_norm_l2_and_inner():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4, 2))
    naive = np.sqrt(sum(x * x for x in a.ravel()))
    assert abs(grid.norm_l2(a) - naive) < 1e-12
    with pytest.raises(ValueError):
        grid.inner(np.zeros((2, 2)), np.zeros((2, 3)))


def planes_contiguous(p):
    return all(p[..., k].flags.c_contiguous for k in range(p.shape[-1]))


@pytest.mark.parametrize("shape", [(1, 1), (5, 7), (6, 8)])
def test_vector_fields_are_planar(shape):
    """grad, grad2 and vector_zeros hand out channel-last views whose every
    channel is a C-contiguous plane."""
    u = np.random.default_rng(1).normal(size=shape)
    for p, channels in ((grid.grad(u), 2), (grid.grad2(u), 4),
                        (grid.grad2(u, 3), 3), (grid.vector_zeros(shape, 4), 4)):
        assert p.shape == shape + (channels,)
        assert planes_contiguous(p)
        assert not p.flags.c_contiguous or shape == (1, 1)


@pytest.mark.parametrize("shape", [(5, 7), (6, 8), (1, 9)])
def test_operators_agree_on_planar_and_channel_last(shape):
    """Every operator gives bit-identical results on a planar field and on
    its channel-last copy, and on a strided plane and its contiguous copy."""
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    p2, p3, p4 = (grid.vector_zeros(shape, c) for c in (2, 3, 4))
    for p in (p2, p3, p4):
        p[...] = rng.normal(size=p.shape)
    for p in (p2, p3, p4):
        last = np.ascontiguousarray(p)
        assert last.flags.c_contiguous and not planes_contiguous(last)
        for op in (magnitude, grid.norm_l2,
                   grid.div if p.shape[-1] == 2 else grid.div2):
            assert np.array_equal(op(p), op(last))
            assert np.array_equal(op(p), op(np.asfortranarray(p)))
    strided = np.ascontiguousarray(p4)[..., grid.XY]
    assert not strided.flags.c_contiguous
    for op in (grid.grad, grid.grad2):
        assert np.array_equal(op(strided), op(strided.copy()))


def test_norm_l2_reads_planar_field_in_place():
    p = grid.grad2(np.random.default_rng(2).normal(size=(256, 256)))
    expected = np.sqrt(sum(np.sum(p[..., k] ** 2) for k in range(4)))
    tracemalloc.start()
    try:
        value = grid.norm_l2(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p[..., 0].nbytes
    assert abs(value - expected) <= 1e-12 * expected


@pytest.mark.parametrize("shape", [(7, 9), (8, 10)])
def test_div2_matches_four_term_reference(shape):
    """The one mixed stencil equals the four composed-difference terms, the
    adjoints of grad2's components, up to rounding."""
    fwd, bwd = grid.diff_forward, grid.diff_backward
    p = np.random.default_rng(shape[0]).normal(size=shape + (4,))
    expected = (bwd(fwd(p[..., grid.XX], 0), 0) + bwd(fwd(p[..., grid.XY], 0), 1)
                + fwd(bwd(p[..., grid.YX], 1), 0) + fwd(bwd(p[..., grid.YY], 1), 1))
    got = grid.div2(p)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_div2_reads_only_the_sum_of_the_mixed_channels():
    p = np.random.default_rng(4).normal(size=(6, 9, 4))
    swapped = p[..., [grid.XX, grid.YX, grid.XY, grid.YY]]
    moved = p.copy()
    moved[..., grid.XY] = p[..., grid.XY] + p[..., grid.YX]
    moved[..., grid.YX] = 0.0
    expected = grid.div2(p)
    assert np.array_equal(grid.div2(swapped), expected)
    assert np.array_equal(grid.div2(moved), expected)


@pytest.mark.parametrize("shape", [(7, 9), (16, 16), (1, 5)])
def test_symmetric_layout_matches_four_channels(shape):
    """A symmetric (xx, xy, yy) field and its expansion (xx, xy, xy, yy)
    agree under every operator, on data whose XY and YX differ in rounding
    (a field with a dyadic grid of values would hide that): grad2 and div2
    bit for bit, the magnitude and the norms to rounding, and grad2/div2
    stay adjoint under ``inner`` on three channels."""
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    u = rng.uniform(0.0, 1.0, size=shape) / 3.0
    four = grid.grad2(u)
    three = grid.grad2(u, 3)
    if shape == (16, 16):
        assert np.count_nonzero(four[..., grid.XY] != four[..., grid.YX]) > u.size // 10
    for k, channel in enumerate((grid.XX, grid.XY, grid.YY)):
        assert np.array_equal(three[..., k], four[..., channel])
    with pytest.raises(ValueError, match="3 or 4 channels"):
        grid.grad2(u, 2)

    p, r = (rng.normal(size=shape + (3,)) / 3.0 for _ in range(2))
    expanded, r_expanded = (a[..., [0, 1, 1, 2]] for a in (p, r))
    assert np.array_equal(grid.div2(p), grid.div2(expanded))
    assert np.allclose(magnitude(p), magnitude(expanded),
                       rtol=1e-15, atol=0.0)
    assert grid.norm_l2(p) == pytest.approx(grid.norm_l2(expanded), rel=1e-14)
    assert grid.inner(p, r) == pytest.approx(grid.inner(expanded, r_expanded),
                                             rel=1e-12)
    lhs, rhs = grid.inner(grid.grad2(u, 3), p), grid.inner(u, grid.div2(p))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("channels", [2, 3, 4])
@pytest.mark.parametrize("layout", ["planar", "channel-last"])
def test_divergence_of_an_owned_field_matches_plain_call(channels, layout):
    """div and div2 with ``overwrite_p`` give the plain call's bits, on
    Vec2, Sym3 and Vec4 fields. A planar field lends its planes as work
    planes, so the call allocates one plane, the result; a channel-last
    field has no contiguous planes to lend and is left unchanged."""
    shape = (40, 36)
    rng = np.random.default_rng(channels)
    op = grid.div if channels == 2 else grid.div2
    p = grid.vector_zeros(shape, channels)
    p[...] = rng.normal(size=p.shape) / 3.0
    if layout == "channel-last":
        p = np.ascontiguousarray(p)
    expected = op(p)
    owned = p.copy(order="K")
    tracemalloc.start()
    try:
        got = op(owned, overwrite_p=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expected)
    plane = got.nbytes
    if layout == "planar":
        assert peak < 1.5 * plane
        assert not np.array_equal(owned, p)
    else:
        assert peak >= (2 if channels == 2 else 3) * plane
        assert np.array_equal(owned, p)


def test_grad2_shares_the_y_difference_between_xy_and_yy(monkeypatch):
    """D-y(D+y u) is D+y(D-y u) to the bit, so a Sym3Field takes five
    differences and a Vec4Field seven, and the planes are still the
    composed differences of the docstring."""
    fwd, bwd = grid.diff_forward, grid.diff_backward
    u = np.random.default_rng(8).uniform(0.0, 1.0, size=(9, 12)) / 3.0
    expected = [bwd(fwd(u, 0), 0), bwd(fwd(u, 1), 0), fwd(bwd(u, 0), 1),
                fwd(bwd(u, 1), 1)]
    difference, calls = grid._difference, []

    def counting(*args, **kwargs):
        calls.append(1)
        return difference(*args, **kwargs)

    monkeypatch.setattr(grid, "_difference", counting)
    for channels, count, planes in ((3, 5, (0, 1, 3)), (4, 7, (0, 1, 2, 3))):
        calls.clear()
        p = grid.grad2(u, channels)
        assert len(calls) == count
        for k, plane in enumerate(planes):
            assert np.array_equal(p[..., k], expected[plane])


@pytest.mark.parametrize("name,call,shape", [
    ("image x", lambda a: grid.check_pixels("image x", a), (0, 3)),
    ("image f", weight.edge_weight, (0, 0)),
    ("image to stretch", cluster.stretch, (0, 3)),
    ("values to cluster", lambda a: cluster.kmeans_1d(a, 2), (0,)),
    ("image to label", lambda a: cluster.label(a, np.array([0.2, 0.8])), (3, 0)),
    ("truth", lambda a: metrics.sa(a.astype(int), a.astype(int)), (0,)),
])
def test_empty_input_fails_naming_it_and_its_shape(name, call, shape):
    """An input without entries fails in the shared range check, naming
    the input and its shape, not in numpy's reduction of an empty array."""
    with pytest.raises(ValueError,
                       match=re.escape(f"{name} of shape {shape} has no pixels")):
        call(np.zeros(shape))


@pytest.mark.parametrize("bad,count", [([np.nan], 1), ([np.inf, -np.inf], 2),
                                       ([np.nan, np.inf, np.nan], 3)])
def test_finite_range_counts_non_finite_entries(bad, count):
    a = np.concatenate((np.linspace(0.0, 1.0, 5), bad))
    word = "entry" if count == 1 else "entries"
    with pytest.raises(ValueError, match=re.escape(
            f"a has {count} non-finite {word} (NaN or inf), from src")):
        grid.finite_range("a", a, "src")
