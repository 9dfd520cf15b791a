"""Dataset container, packed on-disk format, and synthetic data generation.

The packed format (PIDS) is a flat binary file: a 20-byte header (magic,
count, height, width, channels) followed by one record per sample, each a
label byte plus raw interleaved RGB bytes in row-major order.

The synthetic task is binary blob detection: class-1 images contain a
bright disc of random radius and position over textured noise, class-0
images are texture only.  Per-image brightness varies widely so that raw
pixel sums carry little signal and a linear classifier stays well below
the conv stack's accuracy.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .config import write_file
from .errors import DataFormatError

_MAGIC = b"PIDS"
_HEADER = struct.Struct("<4s4I")

# Synthetic-generator knobs.  Background brightness spans a wide range so
# intensity sums carry little class signal; disc centers fall anywhere on
# the canvas (edge discs are clipped) so no spatial prior leaks either.
_BASE_LO, _BASE_HI = 40.0, 150.0
_GRATING_AMP = 18.0
_NOISE_SIGMA = 12.0
_DISC_DELTA_LO, _DISC_DELTA_HI = 55.0, 95.0
_DISC_RADIUS_LO, _DISC_RADIUS_HI = 0.18, 0.30


@dataclass
class PackedDataset:
    """In-memory dataset: uint8 pixels (N, h, w, 3) and uint8 binary labels."""

    pixels: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        px = np.ascontiguousarray(self.pixels, dtype=np.uint8)
        lb = np.ascontiguousarray(self.labels, dtype=np.uint8)
        if px.ndim != 4 or px.shape[3] != 3:
            raise ValueError(f"pixels must be (N, h, w, 3), got {px.shape}")
        if lb.shape != (px.shape[0],):
            raise ValueError("labels must be one byte per sample")
        if lb.size and lb.max() > 1:
            raise ValueError("labels must be 0 or 1")
        self.pixels = px
        self.labels = lb

    def __len__(self):
        return self.pixels.shape[0]

    @property
    def image_hw(self):
        return self.pixels.shape[1], self.pixels.shape[2]


def to_float(dataset, idx=None):
    """Pixels of the samples ``idx`` (all by default) as float32 NCHW in
    [0, 1]; no mean subtraction."""
    return _unit_nchw(dataset.pixels if idx is None else dataset.pixels[idx])


def check_image(pixels, gray=False):
    """``pixels`` as an array, checked to be a uint8 (h, w, 3) image, or
    with ``gray`` an (h, w) one.

    Any other dtype is a ValueError: a cast would read a float frame in
    [0, 1] as black.
    """
    px = np.asarray(pixels)
    if px.ndim != (2 if gray else 3) or px.shape[2:] not in ((), (3,)):
        form = "(h, w)" if gray else "(h, w, 3)"
        raise ValueError(f"expected an {form} image, got shape {px.shape}")
    if px.dtype != np.uint8:
        raise ValueError(f"expected a uint8 image, got dtype {px.dtype}")
    return px


def image_to_float(pixels):
    """Single uint8 HWC image to a 1 x 3 x h x w float32 batch in [0, 1]."""
    return _unit_nchw(check_image(pixels)[None])


def _unit_nchw(px):
    """uint8 NHWC to float32 NCHW divided by 255, in one pass."""
    n, h, w, c = px.shape
    out = np.empty((n, c, h, w), dtype=np.float32)
    return np.divide(px.transpose(0, 3, 1, 2), np.float32(255), out=out)


def write_packed(dataset, path):
    n = len(dataset)
    h, w = dataset.image_hw
    records = np.column_stack((dataset.labels, dataset.pixels.reshape(n, 3 * h * w)))
    write_file(path, _HEADER.pack(_MAGIC, n, h, w, 3), records)


def load_packed(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise DataFormatError(
            f"{path}: file is {len(blob)} bytes, header needs {_HEADER.size}"
        )
    magic, count, h, w, channels = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise DataFormatError(f"{path}: bad magic at offset 0, expected PIDS")
    if channels != 3:
        raise DataFormatError(f"{path}: channels must be 3, header says {channels}")
    if h < 1 or w < 1:
        raise DataFormatError(f"{path}: bad image dims {h}x{w} in header")
    record = 1 + 3 * h * w
    expected = _HEADER.size + count * record
    if len(blob) != expected:
        raise DataFormatError(
            f"{path}: expected {expected} bytes for {count} records, got {len(blob)}"
        )
    raw = np.frombuffer(blob, dtype=np.uint8, offset=_HEADER.size)
    raw = raw.reshape(count, record)
    labels = raw[:, 0].copy()
    bad = np.nonzero(labels > 1)[0]
    if bad.size:
        k = int(bad[0])
        raise DataFormatError(
            f"{path}: label byte {labels[k]} at record {k} "
            f"(offset {_HEADER.size + k * record}), labels must be 0 or 1"
        )
    pixels = raw[:, 1:].reshape(count, h, w, 3).copy()
    return PackedDataset(pixels=pixels, labels=labels)


@dataclass
class SynthSpec:
    """Parameters of the synthetic disc-detection dataset."""

    size: int
    count_per_class: int
    seed: int

    def __post_init__(self):
        if self.size not in (32, 64):
            raise ValueError(f"size must be 32 or 64, got {self.size}")
        if self.count_per_class < 1:
            raise ValueError("count_per_class must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def generate_synthetic(spec):
    """Deterministic balanced dataset; classes alternate 0,1,0,1,...

    Alternation keeps any contiguous slice (and thus every training batch)
    near-balanced.
    """
    rng = np.random.default_rng(spec.seed)
    n = 2 * spec.count_per_class
    size = spec.size
    pixels = np.empty((n, size, size, 3), dtype=np.uint8)
    labels = np.empty(n, dtype=np.uint8)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    for i in range(n):
        label = i % 2
        img = _textured_background(rng, yy, xx)
        if label == 1:
            img += _disc(rng, yy, xx, size)
        img += rng.normal(0.0, _NOISE_SIGMA, size=(size, size, 3))
        pixels[i] = np.clip(img, 0.0, 255.0).astype(np.uint8)
        labels[i] = label
    return PackedDataset(pixels=pixels, labels=labels)


def _textured_background(rng, yy, xx):
    base = rng.uniform(_BASE_LO, _BASE_HI)
    theta = rng.uniform(0.0, np.pi)
    freq = rng.uniform(0.15, 0.55)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    grating = np.sin(freq * (xx * np.cos(theta) + yy * np.sin(theta)) + phase)
    luma = base + _GRATING_AMP * grating
    tint = rng.uniform(-10.0, 10.0, size=3)
    return luma[:, :, None] + tint[None, None, :]


def _disc(rng, yy, xx, size):
    # Center anywhere on the canvas: at worst a quarter-disc stays visible,
    # and no center-of-image placement prior leaks into pixel statistics.
    radius = rng.uniform(_DISC_RADIUS_LO, _DISC_RADIUS_HI) * size
    cy = rng.uniform(0.0, size)
    cx = rng.uniform(0.0, size)
    delta = rng.uniform(_DISC_DELTA_LO, _DISC_DELTA_HI)
    inside = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2
    return (delta * inside)[:, :, None] * np.ones(3)[None, None, :]


def generate_synthetic_split(size, train_per_class, test_per_class, seed):
    """Train/test pair from consecutive seeds (disjoint streams)."""
    train = generate_synthetic(SynthSpec(size, train_per_class, seed))
    test = generate_synthetic(SynthSpec(size, test_per_class, seed + 1))
    return train, test


def _read_token(blob, off, path):
    # P6/P5 headers: tokens separated by whitespace, # starts a comment.
    while True:
        if off >= len(blob):
            raise DataFormatError(f"{path}: truncated header at offset {off}")
        c = blob[off : off + 1]
        if c == b"#":
            while off < len(blob) and blob[off : off + 1] != b"\n":
                off += 1
        elif c.isspace():
            off += 1
        else:
            break
    start = off
    while off < len(blob) and not blob[off : off + 1].isspace():
        off += 1
    return blob[start:off], off


def read_ppm(path):
    """Binary PPM (P6) to a uint8 (h, w, 3) array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    tok, off = _read_token(blob, 0, path)
    if tok != b"P6":
        raise DataFormatError(f"{path}: expected P6 magic, got {tok!r}")
    dims = []
    for name in ("width", "height", "maxval"):
        tok, off = _read_token(blob, off, path)
        try:
            value = int(tok)
        except ValueError:
            raise DataFormatError(f"{path}: bad {name} token {tok!r}") from None
        if value < 1:
            raise DataFormatError(f"{path}: {name} must be positive, got {value}")
        dims.append(value)
    w, h, maxval = dims
    if maxval != 255:
        raise DataFormatError(f"{path}: only maxval 255 supported, got {maxval}")
    off += 1
    need = 3 * h * w
    if len(blob) - off < need:
        raise DataFormatError(
            f"{path}: pixel data truncated, need {need} bytes, have {len(blob) - off}"
        )
    px = np.frombuffer(blob, dtype=np.uint8, count=need, offset=off)
    return px.reshape(h, w, 3).copy()


def write_ppm(pixels, path):
    """uint8 (h, w, 3) RGB as binary PPM (P6)."""
    _write_pnm(pixels, path, gray=False)


def write_pgm(pixels, path):
    """uint8 (h, w) grayscale as binary PGM (P5)."""
    _write_pnm(pixels, path, gray=True)


def _write_pnm(pixels, path, gray):
    px = check_image(pixels, gray=gray)
    header = b"%s\n%d %d\n255\n" % (b"P5" if gray else b"P6", px.shape[1], px.shape[0])
    write_file(path, header, px.tobytes())
