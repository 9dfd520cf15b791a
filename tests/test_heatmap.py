"""Dense scoring, rendering, heatmap and bench-report files."""

import numpy as np
import pytest

from qmiheat.errors import DataFormatError
from qmiheat.heatmap import (
    BenchReport,
    Heatmap,
    benchmark_fps,
    fully_conv_inference,
    heatmap_values,
    load_heatmap,
    render_heatmap,
    render_overlay,
    serialize_bench_report,
    sliding_window_oracle,
    write_heatmap,
)
from qmiheat.config import parse_config
from qmiheat.models import build_model, forward_scores, output_geometry
from qmiheat.data import image_to_float


def _image(h, w, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (h, w, 3), dtype=np.uint8)


def _grid_for(variant, source_h, source_w, fill):
    geo = output_geometry(variant, source_h, source_w)
    grid = np.zeros((geo.grid_h, geo.grid_w, 2), dtype=np.float32)
    grid[:, :, 1] = np.asarray(fill, dtype=np.float32)
    return Heatmap(grid=grid, variant=variant, source_h=source_h, source_w=source_w)


@pytest.mark.parametrize("variant,size", [("rf32", 32), ("rf64", 64)])
def test_training_size_frame_is_one_cell_equal_to_plain_forward(variant, size):
    model = build_model(variant, seed=4)
    img = _image(size, size, seed=4)
    hm = fully_conv_inference(model, img)
    assert hm.grid.shape == (1, 1, 2)
    direct = forward_scores(model, image_to_float(img)).reshape(2)
    assert np.array_equal(hm.grid[0, 0], direct)

    oracle = sliding_window_oracle(model, img)
    assert np.array_equal(oracle.grid, hm.grid)


def test_grid_shape_follows_geometry():
    model = build_model("rf32", seed=0)
    for h, w in [(32, 48), (64, 96), (96, 160), (33, 47)]:
        hm = fully_conv_inference(model, _image(h, w, seed=h + w))
        geo = output_geometry("rf32", h, w)
        assert hm.grid.shape == (geo.grid_h, geo.grid_w, 2)
        assert hm.stride_px == geo.stride_px
        assert hm.window_px == geo.window_px
        assert (hm.source_h, hm.source_w) == (h, w)


def test_hd_frame_grid_dimensions():
    geo = output_geometry("rf32", 1080, 1920)
    assert (geo.grid_h, geo.grid_w) == (66, 119)
    geo64 = output_geometry("rf64", 1080, 1920)
    assert (geo64.grid_h, geo64.grid_w) == (32, 59)


def test_zero_frame_scores_are_exactly_constant():
    """Fresh models carry zero biases, so a black frame propagates zeros
    end to end and every cell lands on the same score pair."""
    model = build_model("rf32", seed=9)
    hm = fully_conv_inference(model, np.zeros((64, 96, 3), dtype=np.uint8))
    assert np.all(hm.grid == 0.0)


def test_interior_cells_shift_with_the_image():
    """Sliding the frame one stride left moves every interior cell one
    column; only border cells feel the padding."""
    model = build_model("rf32", seed=2)
    wide = _image(128, 144, seed=5)
    a = fully_conv_inference(model, wide[:, :128]).grid
    b = fully_conv_inference(model, wide[:, 16:144]).grid
    m = 2
    gh, gw = a.shape[:2]
    inner_b = b[m : gh - m, m : gw - 1 - m]
    inner_a = a[m : gh - m, m + 1 : gw - m]
    assert inner_b.size > 0
    assert np.abs(inner_b - inner_a).max() <= 1e-5


def test_heatmap_values_is_score_difference():
    hm = _grid_for("rf32", 32, 48, fill=[[0.25, -1.5]])
    hm.grid[0, 0, 0] = 0.75
    values = heatmap_values(hm)
    assert values.dtype == np.float64
    assert values.shape == (1, 2)
    assert values[0, 0] == pytest.approx(0.25 - 0.75)
    assert values[0, 1] == pytest.approx(-1.5)


def test_render_constant_grid_is_mid_gray():
    hm = _grid_for("rf32", 32, 48, fill=0.3)
    img = render_heatmap(hm)
    assert img.dtype == np.uint8
    assert img.shape == (1, 2)
    assert np.all(img == 128)


def test_render_spans_full_range_and_stays_monotone():
    hm = _grid_for("rf32", 32, 64, fill=[[0.0, 0.5, 1.0]])
    img = render_heatmap(hm)
    assert img.tolist() == [[0, 128, 255]]


def test_overlay_matches_source_dimensions():
    model = build_model("rf32", seed=1)
    src = _image(48, 64, seed=3)
    hm = fully_conv_inference(model, src)
    out = render_overlay(hm, src)
    assert out.shape == (48, 64)
    assert out.dtype == np.uint8
    with pytest.raises(ValueError):
        render_overlay(hm, _image(48, 65, seed=0))
    # A float frame would be cast, its luma read near black.
    with pytest.raises(ValueError, match="expected a uint8 image, got dtype float64"):
        render_overlay(hm, src / 255.0)
    with pytest.raises(ValueError, match=r"expected an \(h, w, 3\) image, got shape \(48, 64\)"):
        render_overlay(hm, src[..., 0])


def test_heatmap_file_round_trip(tmp_path):
    model = build_model("rf64", seed=6)
    hm = fully_conv_inference(model, _image(64, 128, seed=6))
    p = tmp_path / "scores.hmap"
    write_heatmap(hm, p)
    header = b"HMAP\nvariant rf64\ngrid 1 3\nstride 32\nwindow 64\nsource 64 128\n"
    blob = p.read_bytes()
    assert blob[: len(header)] == header
    assert len(blob) == len(header) + 1 * 3 * 2 * 4
    back = load_heatmap(p)
    assert np.array_equal(back.grid, hm.grid)
    assert back.variant == hm.variant
    assert back.stride_px == hm.stride_px
    assert back.window_px == hm.window_px
    assert (back.source_h, back.source_w) == (hm.source_h, hm.source_w)


def test_heatmap_file_rejects_corruption(tmp_path):
    model = build_model("rf32", seed=0)
    hm = fully_conv_inference(model, _image(32, 48, seed=0))
    p = tmp_path / "scores.hmap"
    write_heatmap(hm, p)
    blob = p.read_bytes()

    bad_magic = tmp_path / "m.hmap"
    bad_magic.write_bytes(b"XMAP" + blob[4:])
    with pytest.raises(DataFormatError, match="magic"):
        load_heatmap(bad_magic)

    short = tmp_path / "s.hmap"
    short.write_bytes(blob.split(b"\n", 1)[0] + b"\n")
    with pytest.raises(DataFormatError, match="6 lines"):
        load_heatmap(short)

    trimmed = tmp_path / "t.hmap"
    trimmed.write_bytes(blob[:-4])
    with pytest.raises(DataFormatError, match="payload"):
        load_heatmap(trimmed)

    lines = blob.split(b"\n")
    lines[1] = b"variant rf99"
    odd_variant = tmp_path / "v.hmap"
    odd_variant.write_bytes(b"\n".join(lines))
    with pytest.raises(DataFormatError, match="variant"):
        load_heatmap(odd_variant)

    lines = blob.split(b"\n")
    lines[3] = b"stride sixteen"
    nonint = tmp_path / "n.hmap"
    nonint.write_bytes(b"\n".join(lines))
    with pytest.raises(DataFormatError, match="non-integer"):
        load_heatmap(nonint)

    # (-1) * (-2) cells match a 16-byte payload
    header = b"\n".join(blob.split(b"\n")[:6]).replace(b"grid 1 2", b"grid -1 -2")
    negative = tmp_path / "neg.hmap"
    negative.write_bytes(header + b"\n" + bytes(16))
    with pytest.raises(DataFormatError, match="neg.hmap: grid dims must be positive"):
        load_heatmap(negative)


def test_bench_report_round_trip_is_lossless():
    report = BenchReport(
        variant="rf64",
        height=1080,
        width=1920,
        frames=5,
        wall_time_s=0.30000000000000004,
    )
    text = serialize_bench_report(report)
    fields = parse_config(text)
    assert list(fields) == [
        "variant", "height", "width", "frames", "wall_time_s", "fps"
    ]
    assert fields["variant"] == "rf64"
    assert (int(fields["height"]), int(fields["width"])) == (1080, 1920)
    assert int(fields["frames"]) == 5
    assert float(fields["wall_time_s"]) == report.wall_time_s
    assert float(fields["fps"]) == report.fps


def test_benchmark_fps_small_run():
    model = build_model("rf32", seed=0)
    report = benchmark_fps(model, 64, 64, n_frames=2, warmup=1)
    assert report.frames == 2
    assert (report.height, report.width) == (64, 64)
    assert report.variant == "rf32"
    assert report.wall_time_s > 0
    assert report.fps == 2 / report.wall_time_s
    with pytest.raises(ValueError):
        benchmark_fps(model, 64, 64, n_frames=0)
    with pytest.raises(ValueError, match="warmup"):
        benchmark_fps(model, 64, 64, warmup=-1)


def test_heatmap_validates_grid_against_geometry():
    with pytest.raises(ValueError, match="does not match geometry"):
        Heatmap(
            grid=np.zeros((2, 2, 2), dtype=np.float32),
            variant="rf32",
            source_h=32,
            source_w=32,
        )
    with pytest.raises(ValueError, match="grid must be"):
        Heatmap(
            grid=np.zeros((1, 1, 3), dtype=np.float32),
            variant="rf32",
            source_h=32,
            source_w=32,
        )


def test_heatmap_rejects_stride_or_window_foreign_to_the_variant(tmp_path):
    model = build_model("rf32", seed=0)
    p = tmp_path / "scores.hmap"
    write_heatmap(fully_conv_inference(model, _image(32, 48, seed=0)), p)
    lines = p.read_bytes().split(b"\n")
    lines[3] = b"stride 7"
    lines[4] = b"window 99"
    odd = tmp_path / "odd.hmap"
    odd.write_bytes(b"\n".join(lines))
    with pytest.raises(DataFormatError, match=r"odd\.hmap: stride 7px / window 99px"):
        load_heatmap(odd)


def test_dense_scans_take_uint8_frames_only():
    model = build_model("rf32", seed=0)
    batch = np.random.default_rng(0).random((1, 3, 32, 48), dtype=np.float32)
    for scan in (fully_conv_inference, sliding_window_oracle):
        with pytest.raises(ValueError, match=r"expected an \(h, w, 3\) image"):
            scan(model, batch)
