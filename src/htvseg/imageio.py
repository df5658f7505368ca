"""Image file formats: binary PGM (P5) plus two tiny raw formats.

PGM carries 8- or 16-bit integer samples (16-bit big-endian, per the
format); loading reads either and divides by maxval so images enter the
pipeline in [0,1], saving writes 8-bit samples, quantized with
round-half-to-even. The raw formats exist for exact
round-trips: 'RF64' holds row-major little-endian float64 fields, 'RI32'
row-major little-endian int32 label maps. Both start with a magic line and
an ASCII "rows cols" line.
"""

from __future__ import annotations

import re

import numpy as np

PGM_MAX_16BIT = 65535


# Magic, then width, height and maxval, each after whitespace or comments
# that run to a line break, and one whitespace byte before the raster. A
# comment must end at a line break, so no byte can start two separator
# tokens and a header of '#'s parses in linear time.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\r\n]*[\r\n])+(\d+)" * 3 + rb"\s")


def _parse_pgm_header(data: bytes):
    """Return (width, height, maxval, offset of first raster byte)."""
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValueError("malformed PGM header: expected 'P5', width, height "
                         "and maxval separated by whitespace or comments, "
                         "then one whitespace byte")
    width, height, maxval = (int(value) for value in header.groups())
    if width < 1 or height < 1:
        raise ValueError(f"bad PGM dimensions {width}x{height}")
    if not 0 < maxval <= PGM_MAX_16BIT:
        raise ValueError(f"PGM maxval out of range: {maxval}")
    return width, height, maxval, header.end()


def _load_pgm(data: bytes) -> np.ndarray:
    width, height, maxval, offset = _parse_pgm_header(data)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    need = width * height * dtype.itemsize
    raster = data[offset:offset + need]
    if len(raster) < need:
        raise ValueError("truncated PGM raster")
    samples = np.frombuffer(raster, dtype=dtype).reshape(height, width)
    if samples.max(initial=0) > maxval:
        raise ValueError(f"PGM sample exceeds maxval {maxval}")
    return samples.astype(float) / maxval


def _read_raw(data: bytes, magic: bytes, dtype: str) -> np.ndarray:
    """Parse an RF64 or RI32 file, whose payload has the given dtype."""
    end_magic = data.find(b"\n")
    end_dims = data.find(b"\n", end_magic + 1)
    if end_magic < 0 or end_dims < 0 or data[:end_magic] != magic:
        raise ValueError(f"malformed {magic.decode()} file")
    try:
        rows, cols = (int(tok) for tok in data[end_magic + 1:end_dims].split())
    except ValueError as exc:
        raise ValueError(f"malformed {magic.decode()} dimension line") from exc
    if rows < 1 or cols < 1:
        raise ValueError(f"bad {magic.decode()} dimensions {rows}x{cols}")
    offset, count = end_dims + 1, rows * cols
    if len(data) - offset < count * np.dtype(dtype).itemsize:
        raise ValueError(f"truncated {magic.decode()} payload")
    return np.frombuffer(data, dtype, count, offset).reshape(rows, cols).copy()


def _write_raw(a: np.ndarray, path, magic: bytes, dtype: str) -> None:
    """Write ``a`` as an RF64 or RI32 file, its payload as the given dtype."""
    with open(path, "wb") as fh:
        fh.write(magic + b"\n")
        fh.write(f"{a.shape[0]} {a.shape[1]}\n".encode())
        fh.write(np.ascontiguousarray(a, dtype=dtype))


def load_image(path) -> np.ndarray:
    """Load a PGM or RF64 file as a 2-D float array (PGM scaled to [0,1])."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"P5":
        return _load_pgm(data)
    if data[:4] == b"RF64":
        return _read_raw(data, b"RF64", "<f8")
    raise ValueError(f"unrecognized image format in {path!r}")


def save_pgm(field: np.ndarray, path) -> None:
    """Quantize a [0,1] field (values clipped) to an 8-bit binary PGM.
    Rounding is numpy's round-half-to-even."""
    field = np.asarray(field, dtype=float)
    if field.ndim != 2:
        raise ValueError("can only save 2-D fields")
    samples = np.clip(field, 0.0, 1.0)
    samples *= 255
    np.rint(samples, out=samples)
    height, width = field.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode())
        fh.write(np.ascontiguousarray(samples, dtype="u1"))


def save_raw_float(field: np.ndarray, path) -> None:
    """Write a float field as RF64; load_image round-trips it bit-exactly."""
    field = np.asarray(field, dtype=float)
    if field.ndim != 2:
        raise ValueError("can only save 2-D fields")
    _write_raw(field, path, b"RF64", "<f8")


def save_labels(labels: np.ndarray, path) -> None:
    """Write an integer label map as RI32 (row-major little-endian int32)."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError("can only save 2-D label maps")
    _write_raw(labels, path, b"RI32", "<i4")


def load_labels(path) -> np.ndarray:
    """Read a label map written by save_labels."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _read_raw(data, b"RI32", "<i4")
