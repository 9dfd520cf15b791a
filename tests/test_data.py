"""Packed dataset format, synthetic generator, portable image files."""

import re

import numpy as np
import pytest

from qmiheat.data import (
    PackedDataset,
    SynthSpec,
    generate_synthetic,
    generate_synthetic_split,
    image_to_float,
    load_packed,
    read_ppm,
    to_float,
    write_packed,
    write_pgm,
    write_ppm,
)
from qmiheat.errors import DataFormatError


def _toy_dataset(n=4, h=8, w=6, seed=0):
    rng = np.random.default_rng(seed)
    return PackedDataset(
        pixels=rng.integers(0, 256, size=(n, h, w, 3), dtype=np.uint8),
        labels=(np.arange(n) % 2).astype(np.uint8),
    )


def test_packed_round_trip_is_byte_exact(tmp_path):
    ds = _toy_dataset()
    p = tmp_path / "a.pids"
    write_packed(ds, p)
    back = load_packed(p)
    assert np.array_equal(back.pixels, ds.pixels)
    assert np.array_equal(back.labels, ds.labels)
    p2 = tmp_path / "b.pids"
    write_packed(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_packed_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.pids"
    p.write_bytes(b"QIDS" + b"\x00" * 16)
    with pytest.raises(DataFormatError) as err:
        load_packed(p)
    assert "magic" in str(err.value)


def test_packed_rejects_truncation_with_expected_size(tmp_path):
    ds = _toy_dataset()
    p = tmp_path / "t.pids"
    write_packed(ds, p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-5])
    with pytest.raises(DataFormatError) as err:
        load_packed(p)
    msg = str(err.value)
    assert str(len(blob)) in msg and str(len(blob) - 5) in msg


def test_packed_rejects_bad_label_naming_record(tmp_path):
    ds = _toy_dataset(n=3, h=2, w=2)
    p = tmp_path / "l.pids"
    write_packed(ds, p)
    blob = bytearray(p.read_bytes())
    record = 1 + 3 * 2 * 2
    header = 20
    blob[header + 2 * record] = 7  # label byte of record 2
    p.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError) as err:
        load_packed(p)
    msg = str(err.value)
    assert "record 2" in msg and "7" in msg


def test_packed_rejects_wrong_channel_count(tmp_path):
    import struct

    p = tmp_path / "c.pids"
    p.write_bytes(struct.pack("<4s4I", b"PIDS", 0, 4, 4, 1))
    with pytest.raises(DataFormatError) as err:
        load_packed(p)
    assert "channels" in str(err.value)


def test_dataset_validation():
    with pytest.raises(ValueError):
        PackedDataset(
            pixels=np.zeros((2, 4, 4, 3), dtype=np.uint8),
            labels=np.array([0, 2], dtype=np.uint8),
        )
    with pytest.raises(ValueError):
        PackedDataset(
            pixels=np.zeros((2, 4, 4), dtype=np.uint8),
            labels=np.zeros(2, dtype=np.uint8),
        )


def test_to_float_scales_and_transposes():
    ds = _toy_dataset(n=2, h=4, w=5)
    x = to_float(ds)
    assert x.shape == (2, 3, 4, 5)
    assert x.dtype == np.float32
    assert x.max() <= 1.0 and x.min() >= 0.0
    assert x[1, 2, 3, 4] == pytest.approx(ds.pixels[1, 3, 4, 2] / 255.0)
    assert x.flags.c_contiguous
    want = ds.pixels.astype(np.float32).transpose(0, 3, 1, 2) / np.float32(255)
    assert x.tobytes() == np.ascontiguousarray(want).tobytes()
    assert to_float(ds, np.array([1])).tobytes() == x[1:].tobytes()


def test_image_to_float_single_frame():
    img = np.full((6, 7, 3), 255, dtype=np.uint8)
    x = image_to_float(img)
    assert x.shape == (1, 3, 6, 7)
    assert np.allclose(x, 1.0)
    ds = _toy_dataset(n=1, h=6, w=7)
    assert image_to_float(ds.pixels[0]).tobytes() == to_float(ds).tobytes()
    assert image_to_float(ds.pixels[0]).flags.c_contiguous
    with pytest.raises(ValueError):
        image_to_float(np.zeros((6, 7), dtype=np.uint8))


def test_image_conversion_and_writers_reject_frames_that_are_not_uint8(tmp_path):
    """A cast would score a float frame of 0.7 as black, or write it as
    zeros; every other dtype is refused, naming it, and so is a frame of
    the wrong shape, naming the shape."""
    p = tmp_path / "out.img"
    consumers = (
        image_to_float,
        lambda frame: write_ppm(frame, p),
        lambda frame: write_pgm(frame[..., 0], p),
    )
    for dtype in (np.float32, np.float64, np.int64, np.uint16, bool):
        frame = np.full((6, 7, 3), 0.7).astype(dtype)
        for consume in consumers:
            with pytest.raises(ValueError, match=f"uint8 image, got dtype {np.dtype(dtype)}"):
                consume(frame)
    for write, frame, form in (
        (write_ppm, np.zeros((6, 7), dtype=np.uint8), r"\(h, w, 3\)"),
        (write_pgm, np.zeros((6, 7, 3), dtype=np.uint8), r"\(h, w\)"),
    ):
        shape = re.escape(str(frame.shape))
        with pytest.raises(ValueError, match=f"expected an {form} image, got shape {shape}"):
            write(frame, p)
    assert not p.exists()


def test_synthetic_is_deterministic_and_balanced():
    spec = SynthSpec(size=32, count_per_class=10, seed=5)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.pixels, b.pixels)
    assert np.array_equal(a.labels, b.labels)
    assert len(a) == 20
    assert int(a.labels.sum()) == 10
    # alternating labels keep any window balanced
    assert np.array_equal(a.labels[:4], [0, 1, 0, 1])
    c = generate_synthetic(SynthSpec(size=32, count_per_class=10, seed=6))
    assert not np.array_equal(a.pixels, c.pixels)


def test_synthetic_classes_differ_in_brightness():
    ds = generate_synthetic(SynthSpec(size=32, count_per_class=200, seed=0))
    m1 = ds.pixels[ds.labels == 1].mean()
    m0 = ds.pixels[ds.labels == 0].mean()
    # class 1 carries a bright disc on the same background family
    assert m1 > m0 + 1.0


def test_synthetic_split_sizes_and_disjoint_seeds():
    train, test = generate_synthetic_split(32, 50, 20, seed=3)
    assert len(train) == 100
    assert len(test) == 40
    assert train.image_hw == (32, 32)
    # different streams: no shared images between the two sets
    assert not np.array_equal(train.pixels[:40], test.pixels)


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(size=48, count_per_class=5, seed=0)
    with pytest.raises(ValueError):
        SynthSpec(size=32, count_per_class=0, seed=0)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(5, 9, 3), dtype=np.uint8)
    p = tmp_path / "img.ppm"
    write_ppm(img, p)
    back = read_ppm(p)
    assert np.array_equal(back, img)


def test_ppm_reader_handles_comments(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6\n# a comment line\n2 1\n# more\n255\n" + bytes(6))
    img = read_ppm(p)
    assert img.shape == (1, 2, 3)
    assert img.sum() == 0


def test_ppm_reader_rejects_wrong_magic_and_truncation(tmp_path):
    p = tmp_path / "x.ppm"
    p.write_bytes(b"P5\n2 1\n255\n" + bytes(2))
    with pytest.raises(DataFormatError):
        read_ppm(p)
    q = tmp_path / "y.ppm"
    q.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    with pytest.raises(DataFormatError):
        read_ppm(q)
    # (-1) * (-2) pixels match a 6-byte payload
    r = tmp_path / "z.ppm"
    r.write_bytes(b"P6\n-1 -2\n255\n" + bytes(6))
    with pytest.raises(DataFormatError, match="z.ppm: width must be positive, got -1"):
        read_ppm(r)


def test_pgm_writer_produces_standard_header(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    p = tmp_path / "g.pgm"
    write_pgm(img, p)
    blob = p.read_bytes()
    assert blob.startswith(b"P5\n4 3\n255\n")
    assert blob[-12:] == img.tobytes()
