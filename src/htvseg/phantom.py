"""Synthetic piecewise-constant test images with exact ground-truth labels.

Rasterization rule: a pixel belongs to a shape when its center lies strictly
inside the shape, so counts are reproducible by direct enumeration and a
radius of 0 produces no foreground at all.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Phantom:
    image: np.ndarray
    truth: np.ndarray
    descriptor: str


def _check_size(m: int, n: int):
    for name, size in (("m", m), ("n", n)):
        if not isinstance(size, numbers.Integral):
            raise ValueError(f"phantom size {name} must be an integer, got {size!r}")
    if m < 2 or n < 2:
        raise ValueError(f"phantom size must be at least 2x2, got {m}x{n}")


def _check_radius(name: str, radius: float):
    if not 0 <= radius < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {radius}")


def _center_grid(m: int, n: int):
    ci, cj = (m - 1) / 2.0, (n - 1) / 2.0
    ii, jj = np.meshgrid(np.arange(m) - ci, np.arange(n) - cj, indexing="ij")
    return ii, jj


def make_two_phase(m: int, n: int, shape: str = "disk", c0: float = 0.2,
                   c1: float = 0.8, radius: float | None = None,
                   bar_width: float | None = None) -> Phantom:
    """Two-constant image: background c0 (label 1), foreground c1 (label 2).

    shape is one of 'disk' (centered, radius in pixels), 'bars' (alternating
    vertical bars of bar_width columns, 1 <= bar_width <= n, truncated to
    an integer) or 'text' (block-letter strokes).
    """
    _check_size(m, n)
    if not (0.0 <= c0 < c1 <= 1.0):
        raise ValueError(f"need 0 <= c0 < c1 <= 1, got c0={c0}, c1={c1}")

    if shape == "disk":
        if radius is None:
            radius = min(m, n) / 3.0
        _check_radius("radius", radius)
        ii, jj = _center_grid(m, n)
        fg = ii * ii + jj * jj < radius * radius
        desc = f"two-phase disk {m}x{n} r={radius:g} c=({c0:g},{c1:g})"
    elif shape == "bars":
        if bar_width is None:
            bar_width = max(2, n // 8)
        if not 1 <= bar_width <= n:
            raise ValueError(f"bar_width must be in [1, {n}], got {bar_width}")
        bar_width = int(bar_width)
        cols = (np.arange(n) // bar_width) % 2 == 1
        fg = np.broadcast_to(cols, (m, n)).copy()
        desc = f"two-phase bars {m}x{n} w={bar_width} c=({c0:g},{c1:g})"
    elif shape == "text":
        fg = np.zeros((m, n), dtype=bool)
        r0, r1 = int(0.2 * m), int(0.8 * m)
        fg[r0:r1, int(0.2 * n):int(0.3 * n)] = True
        for top, bot in ((0.2, 0.3), (0.45, 0.55), (0.7, 0.8)):
            fg[int(top * m):int(bot * m), int(0.2 * n):int(0.6 * n)] = True
        fg[int(0.35 * m):int(0.65 * m), int(0.7 * n):int(0.85 * n)] = True
        desc = f"two-phase text {m}x{n} c=({c0:g},{c1:g})"
    else:
        raise ValueError(f"unknown shape {shape!r} (expected disk|bars|text)")

    truth = np.where(fg, 2, 1).astype(np.int32)
    image = np.array([c0, c1])[truth - 1]
    return Phantom(image=image, truth=truth, descriptor=desc)


def make_three_phase(m: int, n: int, c0: float = 0.1, c1: float = 0.5,
                     c2: float = 0.9, r_out: float | None = None,
                     r_in: float | None = None) -> Phantom:
    """Three nested regions: background c0 (label 1), a centered disk c1
    (label 2), and an inscribed centered square c2 (label 3, half-side r_in)."""
    _check_size(m, n)
    if not (0.0 <= c0 < c1 < c2 <= 1.0):
        raise ValueError(f"need 0 <= c0 < c1 < c2 <= 1, got ({c0}, {c1}, {c2})")
    if r_out is None:
        r_out = 0.35 * min(m, n)
    if r_in is None:
        r_in = 0.15 * min(m, n)
    _check_radius("r_out", r_out)
    _check_radius("r_in", r_in)

    ii, jj = _center_grid(m, n)
    disk = ii * ii + jj * jj < r_out * r_out
    square = np.maximum(np.abs(ii), np.abs(jj)) < r_in
    truth = np.ones((m, n), dtype=np.int32)
    truth[disk] = 2
    truth[disk & square] = 3
    image = np.array([c0, c1, c2])[truth - 1]
    desc = f"three-phase {m}x{n} r_out={r_out:g} r_in={r_in:g} c=({c0:g},{c1:g},{c2:g})"
    return Phantom(image=image, truth=truth, descriptor=desc)
