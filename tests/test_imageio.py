"""PGM parsing/quantization and the raw float/label round-trip formats."""

import numpy as np
import pytest

from htvseg import imageio


def test_load_pgm_8bit_values(tmp_path):
    path = tmp_path / "a.pgm"
    raster = bytes([0, 128, 255, 64])
    path.write_bytes(b"P5\n2 2\n255\n" + raster)
    img = imageio.load_image(path)
    assert img.shape == (2, 2)
    assert np.array_equal(img, np.array([[0, 128], [255, 64]]) / 255.0)


def test_load_pgm_16bit_big_endian(tmp_path):
    path = tmp_path / "a.pgm"
    samples = np.array([[0, 65535], [32768, 1]], dtype=">u2")
    path.write_bytes(b"P5\n2 2\n65535\n" + samples.tobytes())
    img = imageio.load_image(path)
    assert img[0, 1] == 1.0
    assert img[1, 0] == 32768 / 65535
    assert img[1, 1] == 1 / 65535


def test_load_pgm_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "a.pgm"
    header = b"P5 # magic\n# a comment line\n 2 # width\n\t2\n255\n"
    path.write_bytes(header + bytes(4))
    img = imageio.load_image(path)
    assert img.shape == (2, 2)
    assert np.all(img == 0.0)


def test_load_pgm_nonsquare_orientation(tmp_path):
    # width 3, height 2: raster is row-major
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n3 2\n255\n" + bytes([255, 0, 0, 0, 0, 255]))
    img = imageio.load_image(path)
    assert img.shape == (2, 3)
    assert img[0, 0] == 1.0 and img[1, 2] == 1.0


@pytest.mark.parametrize("blob", [
    b"P2\n2 2\n255\n" + bytes(4),       # ascii PGM, unsupported
    b"P5\n2 2\n255",                    # header never terminated
    b"P5\n2 2\n255\n" + bytes(3),       # short raster
    b"P5\n2 2\n0\n" + bytes(4),         # maxval 0
    b"P5\n2 2\n70000\n" + bytes(16),    # maxval too large
    b"P5\n2 -2\n255\n" + bytes(4),      # negative is a malformed byte
])
def test_load_pgm_rejects_malformed(tmp_path, blob):
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(ValueError):
        imageio.load_image(path)


def test_load_pgm_rejects_sample_above_maxval(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 1\n100\n" + bytes([50, 101]))
    with pytest.raises(ValueError):
        imageio.load_image(path)


def test_save_pgm_round_half_to_even(tmp_path):
    # exact .5 lattice points: banker's rounding sends them to even samples
    path = tmp_path / "a.pgm"
    field = np.array([[0.5 / 255, 1.5 / 255, 2.5 / 255, 3.5 / 255]])
    imageio.save_pgm(field, path)
    data = path.read_bytes()
    assert data.endswith(bytes([0, 2, 2, 4]))


def test_save_pgm_clips_out_of_range(tmp_path):
    path = tmp_path / "a.pgm"
    imageio.save_pgm(np.array([[-0.5, 1.5]]), path)
    assert path.read_bytes().endswith(bytes([0, 255]))


def test_save_pgm_16bit_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    field = rng.uniform(0.0, 1.0, size=(5, 7))
    path = tmp_path / "a.pgm"
    imageio.save_pgm(field, path, maxval=65535)
    back = imageio.load_image(path)
    assert np.max(np.abs(back - field)) <= 0.5 / 65535 + 1e-12


def test_save_pgm_rejects_bad_args(tmp_path):
    with pytest.raises(ValueError):
        imageio.save_pgm(np.zeros((2, 2)), tmp_path / "a.pgm", maxval=0)
    with pytest.raises(ValueError):
        imageio.save_pgm(np.zeros(4), tmp_path / "a.pgm")


def test_raw_float_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    field = rng.normal(size=(9, 4))
    field[0, 0] = np.pi
    path = tmp_path / "f.rf64"
    imageio.save_raw_float(field, path)
    back = imageio.load_image(path)
    assert np.array_equal(back, field)
    assert back.dtype == np.float64


def test_raw_float_rejects_truncation(tmp_path):
    path = tmp_path / "f.rf64"
    imageio.save_raw_float(np.zeros((3, 3)), path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError):
        imageio.load_image(path)


def test_labels_round_trip(tmp_path):
    labels = np.array([[1, 2, 3], [3, 2, 1]], dtype=np.int32)
    path = tmp_path / "l.ri32"
    imageio.save_labels(labels, path)
    back = imageio.load_labels(path)
    assert np.array_equal(back, labels)
    assert back.dtype == np.int32


def test_labels_reject_wrong_magic(tmp_path):
    path = tmp_path / "l.ri32"
    imageio.save_raw_float(np.zeros((2, 2)), path)
    with pytest.raises(ValueError):
        imageio.load_labels(path)


def test_load_image_unknown_format(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(ValueError):
        imageio.load_image(path)


@pytest.mark.parametrize("array, save, head", [
    (np.asfortranarray(np.arange(12.0).reshape(3, 4) / 7), imageio.save_raw_float, b"RF64\n3 4\n"),
    ((np.arange(80.0).reshape(8, 10) / 3)[::2, ::3], imageio.save_raw_float, b"RF64\n4 4\n"),
    (np.arange(6, dtype=np.int64).reshape(2, 3) + 1, imageio.save_labels, b"RI32\n2 3\n"),
])
def test_raw_writers_match_header_plus_tobytes(tmp_path, array, save, head):
    path = tmp_path / "a.raw"
    save(array, path)
    dtype = "<f8" if array.dtype.kind == "f" else "<i4"
    assert path.read_bytes() == head + array.astype(dtype).tobytes()
    back = imageio.load_image(path) if dtype == "<f8" else imageio.load_labels(path)
    assert np.array_equal(back, array)
    assert back.flags.writeable and back.flags.c_contiguous
