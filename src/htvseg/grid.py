"""Discrete differential operators on a periodic pixel grid.

All operators act on m-by-n scalar fields (float arrays). Vector fields are
indexed channel-last:

    Vec2Field : (m, n, 2)  -- (x, y) first-order gradient components
    Vec4Field : (m, n, 4)  -- (xx, xy, yx, yy) second-order components
    Sym3Field : (m, n, 3)  -- (xx, xy, yy) symmetric second-order components

A Sym3Field is a Vec4Field whose XY and YX components are equal, stored
once: its xy plane stands for both. Every function here keys on the
channel count, so a second-order field may come in either layout and the
two agree: ``div2`` applies its mixed stencil to 2 p_xy, and
``pixel_magnitude``, ``norm_l2`` and ``inner`` weight the xy plane by 2,
so each equals its value on the expanded Vec4Field up to rounding. The
solver keeps its second-order fields as Sym3Fields; ``grad2`` makes
either layout.

The fields this module makes (``grad``, ``grad2``, ``vector_zeros``) are
stored planar: one C-contiguous (C, m, n) buffer, handed out as the
channel-last view ``np.moveaxis(buf, 0, -1)``. Every channel ``p[..., k]``
is then a contiguous plane, so the stencils, the shrinkage and the norms
walk memory with unit stride. A ufunc on planar fields alone (``a - b``)
allocates its result planar too (order "K"), while ``ndarray.copy()``
without ``order="K"`` makes a transposing channel-last copy. Every
function here also accepts channel-last input in any layout and returns
the same values, bit for bit.

"x" is the row axis (axis 0) and "y" the column axis (axis 1). Boundaries
are periodic, so every difference wraps around and each operator is a
circulant (circular convolution) on the grid. Periodic differences along
different axes therefore commute: D-x D+y = D+y D-x.

Sign conventions exposed here:

    <grad(u),  p> = -<u, div(p)>    (div is minus the adjoint of grad)
    <grad2(u), p> = +<u, div2(p)>   (div2 is exactly the adjoint of grad2)

The adjoints of grad2's XY and YX components are the same operator,
D-y D+x, so ``div2`` applies it once to ``p_xy + p_yx`` (to ``2 p_xy`` on a
Sym3Field): three stencils, not four. A Vec4Field from ``grad2`` forms
each of its four components by its own composition of differences, so on
non-dyadic data XY and YX may differ in their last bit; a Sym3Field forms
XY alone, bit for bit as the Vec4Field does.

A difference is one subtraction of the raveled field from itself shifted
by the axis stride (n rows apart along x, one element along y), then one
for the wrapped row or column, which also overwrites the cross-row values
the shift forms along y; no rolled copy, no buffered strided slice. Inner
products reduce row-major C-ordered buffers with ``np.sum``, and l2 norms
reduce the channel-major (planar) sequence with ``np.einsum``; each fixes a
single deterministic summation order, whatever the layout of the input.
"""

from __future__ import annotations

import numpy as np

# Channel layout of a Vec4Field. A Sym3Field shares XX and XY and keeps yy
# last too, at index 2: ``p[..., -1]`` is the yy plane of either.
XX, XY, YX, YY = 0, 1, 2, 3

# Largest pixel magnitude an image may have. The edge weight, the data
# term and the residual norms square pixel differences and sum them over
# the grid, which overflows from about 1e150 on; real intensities are
# nowhere near either.
MAX_PIXEL = 1e100


def finite_range(name: str, a: np.ndarray, source: str | None = None
                 ) -> tuple[float, float]:
    """The range (lo, hi) of ``a``, from two reductions: NaN propagates
    through both. Raise ValueError naming ``a`` and, when given, the
    ``source`` it came from, when it has no entries, giving its shape, or
    when it holds NaN or infinite entries, counting them."""
    a = np.asarray(a)
    origin = "" if source is None else f", from {source}"
    if a.size == 0:
        raise ValueError(f"{name} of shape {a.shape} has no pixels{origin}")
    lo, hi = float(np.min(a)), float(np.max(a))
    if -np.inf < lo and hi < np.inf:
        return lo, hi
    bad = a.size - int(np.count_nonzero(np.isfinite(a)))
    raise ValueError(f"{name} has {bad} non-finite "
                     f"entr{'y' if bad == 1 else 'ies'} (NaN or inf){origin}")


def check_pixels(name: str, image: np.ndarray, source: str | None = None
                 ) -> None:
    """:func:`finite_range`'s checks, and a ValueError giving the range
    when a pixel exceeds MAX_PIXEL in magnitude."""
    lo, hi = finite_range(name, image, source)
    if -MAX_PIXEL <= lo and hi <= MAX_PIXEL:
        return
    origin = "" if source is None else f", from {source}"
    raise ValueError(f"{name} spans [{lo:.6g}, {hi:.6g}]{origin}; pixel "
                     f"magnitudes above {MAX_PIXEL:g} overflow the pipeline")


def _symmetric(p: np.ndarray) -> bool:
    """Whether ``p`` is a Sym3Field, whose xy plane counts twice."""
    return p.ndim == 3 and p.shape[-1] == 3


def _planar(alloc, shape, channels: int) -> np.ndarray:
    """A channel-last view of a new (channels, *shape) buffer from ``alloc``."""
    return np.moveaxis(alloc((channels, *shape)), 0, -1)


def vector_zeros(shape, channels: int) -> np.ndarray:
    """Zero vector field of shape ``shape + (channels,)``, stored planar."""
    return _planar(np.zeros, shape, channels)


def _difference(u: np.ndarray, axis: int, out: np.ndarray | None,
                backward: bool) -> np.ndarray:
    """Periodic difference u[i+1] - u[i] of an m-by-n field along ``axis``,
    stored at i (forward) or at i+1 (backward). ``out``, when given, must be
    a C-contiguous array of u's shape that does not overlap u."""
    u = np.ascontiguousarray(u, dtype=float)
    if u.ndim != 2 or not -2 <= axis < 2:
        raise ValueError(f"no axis {axis} in an m-by-n field: {u.shape}")
    if out is None:
        out = np.empty(u.shape)
    elif out.shape != u.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {u.shape} array")
    stride = 1 if axis % 2 else u.shape[1]
    flat, dest = u.ravel(), out.ravel()
    np.subtract(flat[stride:], flat[:-stride],
                out=dest[stride:] if backward else dest[:-stride])
    # The wrapped row (column along y) overwrites what the shift left there.
    ends, into = (u.T, out.T) if axis % 2 else (u, out)
    np.subtract(ends[0], ends[-1], out=into[0] if backward else into[-1])
    return out


def diff_forward(u: np.ndarray, axis: int, out: np.ndarray | None = None
                 ) -> np.ndarray:
    """Forward difference u[i+1] - u[i] along ``axis``, wrapping at the end.
    Written into ``out`` (C-contiguous, not overlapping u) when given."""
    return _difference(u, axis, out, backward=False)


def diff_backward(u: np.ndarray, axis: int, out: np.ndarray | None = None
                  ) -> np.ndarray:
    """Backward difference u[i] - u[i-1] along ``axis``, wrapping at the start.
    Written into ``out`` (C-contiguous, not overlapping u) when given."""
    return _difference(u, axis, out, backward=True)


def grad(u: np.ndarray) -> np.ndarray:
    """First-order gradient of a scalar field by forward differences.

    Parameters
    ----------
    u : (m, n) array

    Returns
    -------
    (m, n, 2) planar array with components (D+x u, D+y u).
    """
    u = np.asarray(u, dtype=float)
    out = _planar(np.empty, u.shape, 2)
    diff_forward(u, 0, out[..., 0])
    diff_forward(u, 1, out[..., 1])
    return out


def grad2(u: np.ndarray, channels: int = 4) -> np.ndarray:
    """Second-order gradient of a scalar field.

    Components, in channel order (xx, xy, yx, yy):

        D-x(D+x u),  D-x(D+y u),  D+y(D-x u),  D+y(D-y u)

    With ``channels=3`` the Sym3Field (xx, xy, yy) leaves out YX, the same
    operator as XY; its planes are those of the Vec4Field, bit for bit.

    Parameters
    ----------
    u : (m, n) array
    channels : 4 or 3

    Returns
    -------
    (m, n, channels) planar array.
    """
    if channels not in (3, 4):
        raise ValueError(f"grad2 makes 3 or 4 channels, not {channels}")
    u = np.asarray(u, dtype=float)
    out = _planar(np.empty, u.shape, channels)
    scratch = np.empty(u.shape)
    diff_backward(diff_forward(u, 0, scratch), 0, out[..., XX])
    if channels == 4:
        diff_forward(diff_backward(u, 0, scratch), 1, out[..., YX])
    # D-y(D+y u) takes the subtractions of D+y(D-y u), in the same order on
    # the same operands, so YY shares D+y u with XY.
    diff_forward(u, 1, scratch)
    diff_backward(scratch, 0, out[..., XY])
    diff_backward(scratch, 1, out[..., -1])
    return out


def _work_planes(p: np.ndarray, count: int, overwrite_p: bool) -> list:
    """``count`` (m, n) planes to work in: the first planes of ``p`` when
    the caller gives them up and they are C-contiguous (a planar field),
    else new ones."""
    planes = [p[..., k] for k in range(count)]
    if overwrite_p and all(plane.flags.c_contiguous for plane in planes):
        return planes
    return [np.empty(p.shape[:-1]) for _ in range(count)]


def div(p: np.ndarray, overwrite_p: bool = False) -> np.ndarray:
    """Divergence of a 2-vector field: D-x p_x + D-y p_y.

    Satisfies <grad(u), p> = -<u, div(p)> for every scalar field u. With
    ``overwrite_p`` a planar float ``p`` is the caller's to give up, and
    its x plane takes the y term, one new plane fewer; the result is the
    same bits either way.
    """
    p = np.asarray(p, dtype=float)
    (work,) = _work_planes(p, 1, overwrite_p)
    out = diff_backward(p[..., 0], 0)
    out += diff_backward(p[..., 1], 1, work)
    return out


def div2(p: np.ndarray, overwrite_p: bool = False) -> np.ndarray:
    """Second-order divergence: the exact adjoint of :func:`grad2`.

    Satisfies <grad2(u), p> = <u, div2(p)> (plus sign) for every u. Each
    term is the adjoint of the matching grad2 component, with forward and
    backward differences swapped and composition order reversed. The XY
    and YX adjoints, D-y D+x and D+x D-y, are one operator, so it is
    applied once, to p_xy + p_yx, or to 2 p_xy on a Sym3Field, which
    therefore gives the bits of its expanded Vec4Field.

    The terms are formed in two work planes and summed into the result's
    plane. With ``overwrite_p`` a planar float ``p`` is the caller's to
    give up, and its xx and xy planes are the work planes: one new plane
    instead of three, and the same bits either way.
    """
    p = np.asarray(p, dtype=float)
    other = p[..., XY] if _symmetric(p) else p[..., YX]
    last = p[..., -1]
    first, second = _work_planes(p, 2, overwrite_p)
    out = np.empty(p.shape[:-1])
    diff_backward(diff_forward(p[..., XX], 0, out), 0, first)
    mixed = np.add(p[..., XY], other, out=second)
    diff_backward(diff_forward(mixed, 0, out), 1, second)
    np.add(first, second, out=out)
    out += diff_forward(diff_backward(last, 1, first), 1, second)
    return out


def pixel_magnitude(p: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Per-pixel Euclidean magnitude of a vector field: (m, n) array. On a
    Sym3Field it is sqrt(xx^2 + 2 xy^2 + yy^2), the magnitude of the
    expanded Vec4Field.

    The squares are summed channel by channel, which needs no temporary of
    the vector field's size and is several times faster than a reduction
    over the short channel axis. Each channel's square after the first is
    formed in ``scratch``, the caller's (m, n) float plane, which the
    caller may reuse afterwards; the magnitude is a new plane.
    """
    acc = np.square(p[..., 0])
    for channel in range(1, p.shape[-1]):
        square = np.square(p[..., channel], out=scratch)
        if channel == XY and _symmetric(p):
            square *= 2.0
        acc += square
    return np.sqrt(acc, out=acc)


def norm_l2(a: np.ndarray) -> float:
    """l2 norm over all entries (pixels and channels alike). A 3-D array is
    a vector field, and its entries are summed channel by channel, so a
    planar field is read in place, with no copy. The xy plane of a
    Sym3Field counts twice, once more after the others."""
    a = np.asarray(a, dtype=float)
    symmetric = _symmetric(a)
    if a.ndim == 3:
        a = np.moveaxis(a, -1, 0)
    planes = np.ascontiguousarray(a)
    flat = planes.ravel()
    total = np.einsum("i,i->", flat, flat)
    if symmetric:
        xy = planes[XY].ravel()
        total += np.einsum("i,i->", xy, xy)
    return float(np.sqrt(total))


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product summing elementwise products in row-major order. The
    products of the xy planes of two Sym3Fields count twice."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    products = a * b
    if _symmetric(products):
        products[..., XY] *= 2.0
    return float(np.sum(products))
