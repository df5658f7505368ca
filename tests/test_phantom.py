"""Synthetic test images: label geometry and gray-value assignment."""

import numpy as np
import pytest

from htvseg import phantom


def disk_pixel_count(m, n, radius):
    """Strictly-inside disk membership around the centered grid."""
    ci, cj = (m - 1) / 2.0, (n - 1) / 2.0
    count = 0
    for i in range(m):
        for j in range(n):
            if (i - ci) ** 2 + (j - cj) ** 2 < radius * radius:
                count += 1
    return count


@pytest.mark.parametrize("m,n,radius", [(16, 16, 5.0), (17, 23, 6.5), (64, 64, 20.0)])
def test_two_phase_disk_pixel_count(m, n, radius):
    p = phantom.make_two_phase(m, n, shape="disk", radius=radius)
    assert np.sum(p.truth == 2) == disk_pixel_count(m, n, radius)
    assert set(np.unique(p.truth)) <= {1, 2}


def test_two_phase_disk_values():
    p = phantom.make_two_phase(8, 8, shape="disk", c0=0.2, c1=0.8, radius=3.0)
    assert np.array_equal(p.image, np.where(p.truth == 2, 0.8, 0.2))
    assert p.image.dtype == np.float64
    assert p.truth.dtype == np.int32


def test_two_phase_disk_zero_radius_all_background():
    p = phantom.make_two_phase(8, 8, shape="disk", radius=0.0)
    assert np.all(p.truth == 1)


def test_two_phase_disk_covering_radius_all_foreground():
    p = phantom.make_two_phase(8, 8, shape="disk", radius=100.0)
    assert np.all(p.truth == 2)


def test_two_phase_disk_symmetry():
    p = phantom.make_two_phase(32, 32, shape="disk", radius=10.0)
    assert np.array_equal(p.truth, p.truth[::-1, :])
    assert np.array_equal(p.truth, p.truth[:, ::-1])
    assert np.array_equal(p.truth, p.truth.T)


def test_two_phase_bars_alternate_by_column():
    p = phantom.make_two_phase(6, 16, shape="bars", bar_width=4)
    cols = p.truth[0]
    assert np.array_equal(p.truth, np.tile(cols, (6, 1)))
    expected = 1 + (np.arange(16) // 4) % 2
    assert np.array_equal(cols, expected)


@pytest.mark.parametrize("n,width", [(80, 10), (12, 2)])
def test_two_phase_bars_default_width(n, width):
    p = phantom.make_two_phase(4, n, shape="bars")
    assert f" w={width} " in p.descriptor
    assert np.array_equal(p.truth[0], 1 + (np.arange(n) // width) % 2)


def test_two_phase_text_has_both_phases():
    p = phantom.make_two_phase(48, 48, shape="text")
    assert set(np.unique(p.truth)) == {1, 2}
    # glyph strokes are axis-aligned rectangles, so the label image
    # contains full-width runs of foreground
    assert (p.truth == 2).any(axis=1).sum() > 4


def test_two_phase_rejects_unknown_shape():
    with pytest.raises(ValueError):
        phantom.make_two_phase(8, 8, shape="blob")
    with pytest.raises(ValueError):
        phantom.make_two_phase(1, 8)


def test_three_phase_nesting():
    p = phantom.make_three_phase(64, 64)
    # the square sits strictly inside the disk
    assert np.all(p.truth[p.truth == 3] == 3)
    ring = (p.truth == 2)
    inner = (p.truth == 3)
    outer = (p.truth == 1)
    assert ring.sum() > 0 and inner.sum() > 0 and outer.sum() > 0
    # (dilate the inner square one pixel; it must stay inside disk+square)
    grown = inner | np.roll(inner, 1, 0) | np.roll(inner, -1, 0) \
        | np.roll(inner, 1, 1) | np.roll(inner, -1, 1)
    assert not np.any(grown & outer)


def test_three_phase_values_and_defaults():
    p = phantom.make_three_phase(32, 32, c0=0.1, c1=0.5, c2=0.9)
    consts = np.array([0.1, 0.5, 0.9])
    assert np.array_equal(p.image, consts[p.truth - 1])


def test_three_phase_inner_square_geometry():
    r_in = 4.0
    p = phantom.make_three_phase(32, 32, r_out=10.0, r_in=r_in)
    ci = cj = (32 - 1) / 2.0
    ii, jj = np.meshgrid(np.arange(32) - ci, np.arange(32) - cj, indexing="ij")
    square = np.maximum(np.abs(ii), np.abs(jj)) < r_in
    assert np.array_equal(p.truth == 3, square)


def test_three_phase_degenerate_radii():
    p = phantom.make_three_phase(16, 16, r_out=0.0, r_in=0.0)
    assert np.all(p.truth == 1)


@pytest.mark.parametrize("make,kwargs,message", [
    (phantom.make_two_phase, dict(shape="disk", radius=np.nan),
     "radius must be finite and >= 0, got nan"),
    (phantom.make_two_phase, dict(shape="disk", radius=np.inf),
     "radius must be finite and >= 0, got inf"),
    (phantom.make_two_phase, dict(shape="bars", bar_width=1e30),
     "bar_width must be in [1, 24], got 1e+30"),
    (phantom.make_two_phase, dict(shape="bars", bar_width=np.nan),
     "bar_width must be in [1, 24], got nan"),
    (phantom.make_three_phase, dict(r_out=np.nan), "r_out must be finite and >= 0, got nan"),
    (phantom.make_three_phase, dict(r_out=8.0, r_in=np.nan),
     "r_in must be finite and >= 0, got nan"),
])
def test_phantom_rejects_non_finite_geometry(make, kwargs, message):
    with pytest.raises(ValueError) as info:
        make(24, 24, **kwargs)
    assert message in str(info.value)


@pytest.mark.parametrize("make,levels,message", [
    (phantom.make_two_phase, dict(c0=0.8, c1=0.2),
     "need 0 <= c0 < c1 <= 1, got c0=0.8, c1=0.2"),
    (phantom.make_two_phase, dict(c0=0.5, c1=0.5),
     "need 0 <= c0 < c1 <= 1, got c0=0.5, c1=0.5"),
    (phantom.make_three_phase, dict(c0=0.1, c1=0.9, c2=0.5),
     "need 0 <= c0 < c1 < c2 <= 1, got (0.1, 0.9, 0.5)"),
])
def test_phantom_rejects_levels_out_of_order(make, levels, message):
    with pytest.raises(ValueError) as info:
        make(8, 8, **levels)
    assert str(info.value) == message
