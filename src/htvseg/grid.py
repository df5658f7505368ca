"""Discrete differential operators on a periodic pixel grid.

All operators act on m-by-n scalar fields (float arrays). Vector fields are
stored channel-last:

    Vec2Field : (m, n, 2)  -- (x, y) first-order gradient components
    Vec4Field : (m, n, 4)  -- (xx, xy, yx, yy) second-order components

"x" is the row axis (axis 0) and "y" the column axis (axis 1). Boundaries
are periodic, so every difference wraps around and each operator is a
circulant (circular convolution) on the grid.

Sign conventions exposed here:

    <grad(u),  p> = -<u, div(p)>    (div is minus the adjoint of grad)
    <grad2(u), p> = +<u, div2(p)>   (div2 is exactly the adjoint of grad2)

Differences are slice arithmetic on the periodic grid: one subtraction for
the interior and one for the wrapped end, with no rolled copy. Inner
products reduce row-major C-ordered buffers with ``np.sum`` and l2 norms
with ``np.einsum``, each of which fixes a single deterministic summation
order.
"""

from __future__ import annotations

import functools

import numpy as np

# Channel layout of a Vec4Field.
XX, XY, YX, YY = 0, 1, 2, 3


@functools.cache
def _ends(ndim: int, axis: int) -> tuple:
    """Index tuples along ``axis`` of an ndim-array: all but the last entry,
    all but the first, the first, the last."""
    def along(index):
        full = [slice(None)] * ndim
        full[axis] = index
        return tuple(full)
    return (along(slice(None, -1)), along(slice(1, None)),
            along(slice(None, 1)), along(slice(-1, None)))


def diff_forward(u: np.ndarray, axis: int) -> np.ndarray:
    """Forward difference u[i+1] - u[i] along ``axis``, wrapping at the end."""
    u = np.asarray(u, dtype=float)
    init, tail, first, last = _ends(u.ndim, axis)
    out = np.empty(u.shape)
    np.subtract(u[tail], u[init], out=out[init])
    np.subtract(u[first], u[last], out=out[last])
    return out


def diff_backward(u: np.ndarray, axis: int) -> np.ndarray:
    """Backward difference u[i] - u[i-1] along ``axis``, wrapping at the start."""
    u = np.asarray(u, dtype=float)
    init, tail, first, last = _ends(u.ndim, axis)
    out = np.empty(u.shape)
    np.subtract(u[tail], u[init], out=out[tail])
    np.subtract(u[first], u[last], out=out[first])
    return out


def grad(u: np.ndarray) -> np.ndarray:
    """First-order gradient of a scalar field by forward differences.

    Parameters
    ----------
    u : (m, n) array

    Returns
    -------
    (m, n, 2) array with components (D+x u, D+y u).
    """
    u = np.asarray(u, dtype=float)
    return np.stack((diff_forward(u, 0), diff_forward(u, 1)), axis=-1)


def grad2(u: np.ndarray) -> np.ndarray:
    """Second-order gradient of a scalar field.

    Components, in channel order (xx, xy, yx, yy):

        D-x(D+x u),  D-x(D+y u),  D+y(D-x u),  D+y(D-y u)

    Parameters
    ----------
    u : (m, n) array

    Returns
    -------
    (m, n, 4) array.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape + (4,), dtype=float)
    out[..., XX] = diff_backward(diff_forward(u, 0), 0)
    out[..., XY] = diff_backward(diff_forward(u, 1), 0)
    out[..., YX] = diff_forward(diff_backward(u, 0), 1)
    out[..., YY] = diff_forward(diff_backward(u, 1), 1)
    return out


def div(p: np.ndarray) -> np.ndarray:
    """Divergence of a 2-vector field: D-x p_x + D-y p_y.

    Satisfies <grad(u), p> = -<u, div(p)> for every scalar field u.
    """
    p = np.asarray(p, dtype=float)
    return diff_backward(p[..., 0], 0) + diff_backward(p[..., 1], 1)


def div2(p: np.ndarray) -> np.ndarray:
    """Second-order divergence: the exact adjoint of :func:`grad2`.

    Satisfies <grad2(u), p> = <u, div2(p)> (plus sign) for every u. Each
    term is the adjoint of the matching grad2 component, with forward and
    backward differences swapped and composition order reversed.
    """
    p = np.asarray(p, dtype=float)
    out = diff_backward(diff_forward(p[..., XX], 0), 0)
    out += diff_backward(diff_forward(p[..., XY], 0), 1)
    out += diff_forward(diff_backward(p[..., YX], 1), 0)
    out += diff_forward(diff_backward(p[..., YY], 1), 1)
    return out


def pixel_magnitude(p: np.ndarray) -> np.ndarray:
    """Per-pixel Euclidean magnitude of a vector field: (m, n) array.

    The squares are summed channel by channel, which needs no temporary of
    the vector field's size and is several times faster than a reduction
    over the short channel axis.
    """
    acc = np.square(p[..., 0])
    for channel in range(1, p.shape[-1]):
        acc += np.square(p[..., channel])
    return np.sqrt(acc, out=acc)


def norm_l1_iso(p: np.ndarray) -> float:
    """Isotropic l1 norm: sum over pixels of the per-pixel magnitude."""
    return float(np.sum(pixel_magnitude(np.asarray(p, dtype=float))))


def norm_l2(a: np.ndarray) -> float:
    """l2 norm over all entries (pixels and channels alike)."""
    a = np.asarray(a, dtype=float).ravel()
    return float(np.sqrt(np.einsum("i,i->", a, a)))


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product summing elementwise products in row-major order."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))
