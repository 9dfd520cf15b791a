"""Whole-frame inference, heatmap rendering, and throughput benchmarks.

Both scans take one uint8 (h, w, 3) frame, as read from a PPM, and
convert it to float themselves.  Full-image inference applies the
conv/pool stack once per frame; the sliding-window oracle literally
crops every stride-aligned window and runs the training-size forward
pass.  Padded convolutions make the two differ wherever a window has
real neighboring pixels, so full-image semantics are canonical for
heatmaps and the oracle pins the weight-sharing arithmetic under
constructed zero context.
"""

import time
from dataclasses import asdict, dataclass

import numpy as np

from .config import serialize_config, write_file
from .data import check_image, image_to_float
from .errors import DataFormatError
from .models import STRIDE_PX, VARIANTS, WINDOW_PX, forward_scores, output_geometry

_HMAP_MAGIC = "HMAP"


@dataclass
class Heatmap:
    """Grid of 2-channel window scores over a source image.

    grid[i, j] scores the window at pixel offset (i*stride, j*stride);
    channel 0 is the negative class, channel 1 the positive class.  The
    stride and window follow from the variant.
    """

    grid: np.ndarray
    variant: str
    source_h: int
    source_w: int

    def __post_init__(self):
        g = np.ascontiguousarray(self.grid, dtype=np.float32)
        if g.ndim != 3 or g.shape[2] != 2:
            raise ValueError(f"grid must be (gh, gw, 2), got {g.shape}")
        geo = output_geometry(self.variant, self.source_h, self.source_w)
        if (geo.grid_h, geo.grid_w) != g.shape[:2]:
            raise ValueError(
                f"grid {g.shape[:2]} does not match geometry "
                f"({geo.grid_h}, {geo.grid_w}) for {self.source_h}x{self.source_w}"
            )
        self.grid = g

    @property
    def stride_px(self):
        return STRIDE_PX[self.variant]

    @property
    def window_px(self):
        return WINDOW_PX[self.variant]


@dataclass
class BenchReport:
    """Throughput measurement at one resolution."""

    variant: str
    height: int
    width: int
    frames: int
    wall_time_s: float

    @property
    def fps(self):
        return self.frames / self.wall_time_s


def fully_conv_inference(model, image):
    """One pass of the whole stack over a uint8 (h, w, 3) frame."""
    x = image_to_float(image)
    h, w = x.shape[2], x.shape[3]
    output_geometry(model.variant, h, w)  # rejects frames smaller than the window
    scores = forward_scores(model, x)
    grid = scores[0].transpose(1, 2, 0)
    return Heatmap(grid=grid, variant=model.variant, source_h=h, source_w=w)


def sliding_window_oracle(model, image):
    """Reference semantics: run each stride-aligned window of a uint8
    (h, w, 3) frame separately."""
    x = image_to_float(image)
    h, w = x.shape[2], x.shape[3]
    geo = output_geometry(model.variant, h, w)
    s, win = geo.stride_px, geo.window_px
    grid = np.empty((geo.grid_h, geo.grid_w, 2), dtype=np.float32)
    for i in range(geo.grid_h):
        for j in range(geo.grid_w):
            window = x[:, :, i * s : i * s + win, j * s : j * s + win]
            grid[i, j] = forward_scores(model, window).reshape(2)
    return Heatmap(grid=grid, variant=model.variant, source_h=h, source_w=w)


def heatmap_values(heatmap):
    """Scalar per cell: positive score minus negative score."""
    return heatmap.grid[:, :, 1].astype(np.float64) - heatmap.grid[:, :, 0]


def render_heatmap(heatmap):
    """Min-max normalized 8-bit grayscale, one pixel per grid cell.

    A constant grid renders mid-gray; the map is monotone in the score
    difference either way.
    """
    values = heatmap_values(heatmap)
    lo, hi = float(values.min()), float(values.max())
    if hi - lo <= 0.0:
        return np.full(values.shape, 128, dtype=np.uint8)
    scaled = (values - lo) * (255.0 / (hi - lo))
    return np.clip(np.rint(scaled), 0, 255).astype(np.uint8)


def render_overlay(heatmap, source_pixels):
    """Nearest-neighbor upscale of the rendered grid to source dims,
    blended half-and-half with the luma of the uint8 (h, w, 3) source."""
    px = check_image(source_pixels)
    if px.shape[:2] != (heatmap.source_h, heatmap.source_w):
        raise ValueError(
            f"source is {px.shape[:2]}, heatmap was built from "
            f"({heatmap.source_h}, {heatmap.source_w})"
        )
    small = render_heatmap(heatmap)
    gh, gw = small.shape
    rows = np.minimum(np.arange(heatmap.source_h) * gh // heatmap.source_h, gh - 1)
    cols = np.minimum(np.arange(heatmap.source_w) * gw // heatmap.source_w, gw - 1)
    up = small[rows[:, None], cols[None, :]].astype(np.float64)
    luma = px @ np.array([0.299, 0.587, 0.114])
    return np.clip(np.rint(0.5 * luma + 0.5 * up), 0, 255).astype(np.uint8)


def benchmark_fps(model, height, width, n_frames=5, warmup=1):
    """fps of full-frame inference on synthetic uint8 noise frames.

    Frames are pre-generated from a fixed seed, so the timed part is what
    every real frame pays: the uint8-to-float conversion and the scan.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    output_geometry(model.variant, height, width)
    rng = np.random.default_rng(0)
    frames = [
        rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
        for _ in range(min(n_frames, 4))
    ]
    for i in range(warmup):
        fully_conv_inference(model, frames[i % len(frames)])
    t0 = time.perf_counter()
    for i in range(n_frames):
        fully_conv_inference(model, frames[i % len(frames)])
    wall = time.perf_counter() - t0
    return BenchReport(
        variant=model.variant,
        height=height,
        width=width,
        frames=n_frames,
        wall_time_s=wall,
    )


def serialize_bench_report(report):
    return serialize_config({**asdict(report), "fps": report.fps})


def write_heatmap(heatmap, path):
    """Six-line text header, then the grid as little-endian f32."""
    header = (
        f"{_HMAP_MAGIC}\n"
        f"variant {heatmap.variant}\n"
        f"grid {heatmap.grid.shape[0]} {heatmap.grid.shape[1]}\n"
        f"stride {heatmap.stride_px}\n"
        f"window {heatmap.window_px}\n"
        f"source {heatmap.source_h} {heatmap.source_w}\n"
    )
    write_file(path, header.encode("ascii"), heatmap.grid.astype("<f4", copy=False).tobytes())


def load_heatmap(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = 0
    for _ in range(6):
        nl = blob.find(b"\n", nl) + 1
        if nl == 0:
            raise DataFormatError(f"{path}: header must have 6 lines")
    lines = blob[:nl].decode("ascii", errors="replace").splitlines()
    if lines[0] != _HMAP_MAGIC:
        raise DataFormatError(f"{path}: bad magic {lines[0]!r}, expected HMAP")

    def fields(line, name, count):
        parts = line.split()
        if len(parts) != count + 1 or parts[0] != name:
            raise DataFormatError(f"{path}: bad header line {line!r}")
        return parts[1:]

    variant = fields(lines[1], "variant", 1)[0]
    if variant not in VARIANTS:
        raise DataFormatError(f"{path}: unknown variant {variant!r}")
    try:
        gh, gw = (int(v) for v in fields(lines[2], "grid", 2))
        stride = int(fields(lines[3], "stride", 1)[0])
        window = int(fields(lines[4], "window", 1)[0])
        src_h, src_w = (int(v) for v in fields(lines[5], "source", 2))
    except ValueError:
        raise DataFormatError(f"{path}: non-integer header field") from None
    if gh < 1 or gw < 1:
        raise DataFormatError(f"{path}: grid dims must be positive, got {gh} {gw}")
    need = gh * gw * 2 * 4
    if len(blob) - nl != need:
        raise DataFormatError(
            f"{path}: grid payload is {len(blob) - nl} bytes, expected {need}"
        )
    if (stride, window) != (STRIDE_PX[variant], WINDOW_PX[variant]):
        raise DataFormatError(
            f"{path}: stride {stride}px / window {window}px do not match "
            f"{variant} ({STRIDE_PX[variant]}px / {WINDOW_PX[variant]}px)"
        )
    grid = np.frombuffer(blob, dtype="<f4", offset=nl).reshape(gh, gw, 2)
    try:
        return Heatmap(
            grid=grid.copy(), variant=variant, source_h=src_h, source_w=src_w
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
