"""End-to-end command-line behavior, mostly in-process via run_cli."""

import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from conftest import NON_DEFAULT_CONFIG

import qmiheat
from qmiheat.cli import _build_parser, _train_config, run_cli
from qmiheat.config import load_config
from qmiheat.data import (
    PackedDataset,
    SynthSpec,
    generate_synthetic,
    generate_synthetic_split,
    load_packed,
    write_packed,
    write_ppm,
)
from qmiheat.models import build_model, load_model, save_model
from qmiheat.training import TrainConfig


def _pgm_dims(path):
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n")
    w, h = (int(v) for v in blob.split(b"\n", 3)[1].split())
    header_len = len(blob) - h * w
    assert blob[:header_len].endswith(b"255\n")
    return h, w


@pytest.fixture()
def split_files(tmp_path):
    train_set, test_set = generate_synthetic_split(32, 24, 8, seed=21)
    train_p = tmp_path / "train.pids"
    test_p = tmp_path / "test.pids"
    write_packed(train_set, train_p)
    write_packed(test_set, test_p)
    return train_p, test_p


def test_synth_writes_the_seeded_dataset(tmp_path, capsys):
    out = tmp_path / "set.pids"
    code = run_cli(["synth", "--out", str(out), "--per-class", "3", "--seed", "5"])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    ds = load_packed(out)
    want = generate_synthetic(SynthSpec(size=32, count_per_class=3, seed=5))
    assert np.array_equal(ds.pixels, want.pixels)
    assert np.array_equal(ds.labels, want.labels)


def test_synth_size_64(tmp_path):
    out = tmp_path / "big.pids"
    assert run_cli(["synth", "--out", str(out), "--size", "64", "--per-class", "2"]) == 0
    assert load_packed(out).pixels.shape == (4, 64, 64, 3)


def test_train_writes_run_files(tmp_path, split_files, capsys):
    train_p, test_p = split_files
    out_dir = tmp_path / "runs"
    code = run_cli(
        [
            "train",
            "--train", str(train_p),
            "--test", str(test_p),
            "--out-dir", str(out_dir),
            "--epochs", "1",
            "--batch", "8",
            "--runs", "2",
        ]
    )
    assert code == 0
    assert "mean_max_accuracy=" in capsys.readouterr().out
    for i in (1, 2):
        model = load_model(out_dir / f"model_run{i}.vggh")
        assert model.variant == "rf32"
        hist = np.loadtxt(out_dir / f"history_run{i}.csv", delimiter=",", skiprows=1)
        assert hist.shape == (4,) and hist[0] == 1
    summary = (out_dir / "summary.txt").read_text()
    assert "runs=2" in summary
    assert "mean_max_accuracy=" in summary
    cfg = load_config(out_dir / "config.txt")
    assert cfg["epochs"] == "1"
    assert cfg["batch_size"] == "8"


def test_train_flags_override_config_file(tmp_path, split_files):
    train_p, test_p = split_files
    cfg_p = tmp_path / "base.cfg"
    cfg_p.write_text("epochs=9\nbatch_size=8\neta=0.0\n")
    out_dir = tmp_path / "runs"
    code = run_cli(
        [
            "train",
            "--train", str(train_p),
            "--test", str(test_p),
            "--out-dir", str(out_dir),
            "--config", str(cfg_p),
            "--epochs", "1",
        ]
    )
    assert code == 0
    saved = load_config(out_dir / "config.txt")
    assert saved["epochs"] == "1"  # flag wins
    assert saved["batch_size"] == "8"  # file setting survives
    assert saved["eta"] == "0.0"


def test_every_config_field_round_trips_through_its_train_flag():
    flags = {
        "variant": "--variant",
        "loss_kind": "--loss",
        "eta": "--eta",
        "batch_size": "--batch",
        "epochs": "--epochs",
        "lr_initial": "--lr-initial",
        "lr_final": "--lr-final",
        "momentum": "--momentum",
        "seed": "--seed",
    }
    assert list(flags) == [f.name for f in fields(TrainConfig)]
    parser = _build_parser()
    for name, flag in flags.items():
        value = getattr(NON_DEFAULT_CONFIG, name)
        args = parser.parse_args(
            ["train", "--train", "a", "--test", "b", "--out-dir", "c", flag, str(value)]
        )
        assert getattr(_train_config(args), name) == value


def test_train_determinism_across_invocations(tmp_path, split_files):
    train_p, test_p = split_files
    args = lambda d: [
        "train",
        "--train", str(train_p),
        "--test", str(test_p),
        "--out-dir", str(d),
        "--epochs", "1",
        "--batch", "8",
        "--runs", "2",
    ]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args(d1)) == 0
    assert run_cli(args(d2)) == 0
    for name in (
        "model_run1.vggh",
        "model_run2.vggh",
        "history_run1.csv",
        "history_run2.csv",
        "summary.txt",
        "config.txt",
    ):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_eval_prints_accuracy(tmp_path, split_files, capsys):
    _, test_p = split_files
    model_p = tmp_path / "m.vggh"
    save_model(build_model("rf32", 0), model_p)
    code = run_cli(["eval", "--model", str(model_p), "--data", str(test_p)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("accuracy=")
    acc = float(out.split("=", 1)[1])
    assert 0.0 <= acc <= 1.0


def test_eval_rejects_images_of_another_window(tmp_path, capsys):
    """rf32 on 64 px images and rf64 on 32 px images exit 1 before any
    forward pass, naming the data file, its image size, the variant and
    its window."""
    for variant, size, window in (("rf32", 64, 32), ("rf64", 32, 64)):
        model_p = tmp_path / f"{variant}.vggh"
        save_model(build_model(variant, 0), model_p)
        data_p = tmp_path / f"set{size}.pids"
        write_packed(generate_synthetic(SynthSpec(size, 2, 0)), data_p)
        code = run_cli(["eval", "--model", str(model_p), "--data", str(data_p)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            f"{data_p}: images are {size}x{size}, {variant} takes "
            f"{window}x{window} windows" in captured.err
        )


def test_train_rejects_images_of_another_window(tmp_path, capsys):
    """A --train or --test set of another window size exits 1 before the
    output directory is made, naming the file, its image size, the variant
    and its window."""
    good_p = tmp_path / "set32.pids"
    bad_p = tmp_path / "set64.pids"
    write_packed(generate_synthetic(SynthSpec(32, 2, 0)), good_p)
    write_packed(generate_synthetic(SynthSpec(64, 2, 0)), bad_p)
    for train_p, test_p in ((bad_p, good_p), (good_p, bad_p)):
        out_dir = tmp_path / "runs"
        code = run_cli(
            [
                "train",
                "--train", str(train_p),
                "--test", str(test_p),
                "--out-dir", str(out_dir),
                "--epochs", "1",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            f"{bad_p}: images are 64x64, rf32 takes 32x32 windows" in captured.err
        )
        assert not out_dir.exists()


def test_train_rejects_an_empty_set_before_making_the_out_dir(tmp_path, capsys):
    """An empty --train or --test set exits 1 with a message that names
    the file, and leaves no output directory behind."""
    good_p = tmp_path / "set32.pids"
    empty_p = tmp_path / "empty.pids"
    write_packed(generate_synthetic(SynthSpec(32, 2, 0)), good_p)
    write_packed(PackedDataset(np.zeros((0, 32, 32, 3), np.uint8), np.zeros(0)), empty_p)
    for train_p, test_p in ((empty_p, good_p), (good_p, empty_p)):
        out_dir = tmp_path / "runs"
        code = run_cli(
            [
                "train",
                "--train", str(train_p),
                "--test", str(test_p),
                "--out-dir", str(out_dir),
                "--epochs", "1",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{empty_p}: dataset is empty" in captured.err
        assert not out_dir.exists()


def test_heatmap_command_writes_grid_and_renders(tmp_path, capsys):
    model_p = tmp_path / "m.vggh"
    save_model(build_model("rf32", 2), model_p)
    rng = np.random.default_rng(0)
    image = rng.integers(0, 256, (48, 64, 3), dtype=np.uint8)
    img_p = tmp_path / "frame.ppm"
    write_ppm(image, img_p)
    out_p = tmp_path / "scores.hmap"
    render_p = tmp_path / "grid.pgm"
    overlay_p = tmp_path / "overlay.pgm"
    code = run_cli(
        [
            "heatmap",
            "--model", str(model_p),
            "--image", str(img_p),
            "--out", str(out_p),
            "--render", str(render_p),
            "--overlay", str(overlay_p),
        ]
    )
    assert code == 0
    assert "grid 2x3" in capsys.readouterr().out
    from qmiheat.heatmap import load_heatmap

    hm = load_heatmap(out_p)
    assert hm.grid.shape == (2, 3, 2)
    assert _pgm_dims(render_p) == (2, 3)
    assert _pgm_dims(overlay_p) == (48, 64)


def test_bench_report_and_output_file(tmp_path, capsys):
    out_p = tmp_path / "bench.txt"
    code = run_cli(
        [
            "bench",
            "--height", "64",
            "--width", "64",
            "--frames", "1",
            "--warmup", "0",
            "--out", str(out_p),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "fps=" in printed
    assert out_p.read_text() == printed
    for flag, value, field in (("--frames", "0", "n_frames"), ("--warmup", "-3", "warmup")):
        code = run_cli(["bench", "--height", "32", "--width", "32", flag, value])
        assert code == 1
        captured = capsys.readouterr()
        assert f"{field} must be" in captured.err
        assert captured.out == ""


def test_rank_command(tmp_path, capsys):
    table_p = tmp_path / "scores.csv"
    table_p.write_text(
        "method,a,b,c,d\n"
        "baseline,0.9568,0.8841,0.9684,0.9194\n"
        "regularized,0.9744,0.8896,0.9696,0.9303\n"
    )
    plot_p = tmp_path / "ranks.pgm"
    code = run_cli(["rank", "--table", str(table_p), "--plot", str(plot_p)])
    assert code == 0
    out = capsys.readouterr().out
    assert "critical difference: 0.980000" in out
    assert "regularized vs baseline: significantly different" in out
    assert _pgm_dims(plot_p) == (2 * 20 + 2 * 24, 480)


def test_rank_control_out_of_range_is_usage_error(tmp_path, capsys):
    table_p = tmp_path / "scores.csv"
    table_p.write_text("method,a\nx,0.5\ny,0.6\n")
    assert run_cli(["rank", "--table", str(table_p), "--control", "7"]) == 1
    assert "out of range" in capsys.readouterr().err


def test_rank_non_finite_q_alpha_is_usage_error(tmp_path, capsys):
    table_p = tmp_path / "scores.csv"
    table_p.write_text("method,a\nx,0.5\ny,0.6\n")
    for value in ("nan", "inf"):
        assert run_cli(["rank", "--table", str(table_p), "--q-alpha", value]) == 1
        captured = capsys.readouterr()
        assert "q_alpha must be finite" in captured.err
        assert captured.out == ""


def test_non_ascii_byte_in_table_or_config_is_a_data_error(tmp_path, split_files, capsys):
    table_p = tmp_path / "bad.csv"
    table_p.write_bytes(b"method,a\nx,0.5\ny,0.\xff6\n")
    assert run_cli(["rank", "--table", str(table_p)]) == 2
    err = capsys.readouterr().err
    assert "bad.csv: non-ASCII byte 0xff at offset 19" in err

    train_p, test_p = split_files
    config_p = tmp_path / "bad.cfg"
    config_p.write_bytes(b"epochs=1\n\xffbatch_size=8\n")
    code = run_cli(
        [
            "train",
            "--train", str(train_p),
            "--test", str(test_p),
            "--out-dir", str(tmp_path / "o"),
            "--config", str(config_p),
        ]
    )
    assert code == 2
    assert "bad.cfg: non-ASCII byte 0xff at offset 9" in capsys.readouterr().err


def test_negative_image_dims_are_a_data_error(tmp_path, capsys):
    model_p = tmp_path / "m.vggh"
    save_model(build_model("rf32", seed=0), model_p)
    img_p = tmp_path / "negative.ppm"
    img_p.write_bytes(b"P6\n-1 -2\n255\n" + bytes(6))
    code = run_cli(
        [
            "heatmap",
            "--model", str(model_p),
            "--image", str(img_p),
            "--out", str(tmp_path / "scores.hmap"),
        ]
    )
    assert code == 2
    assert "negative.ppm: width must be positive, got -1" in capsys.readouterr().err


def test_heatmap_on_an_image_smaller_than_the_window_names_it(tmp_path, capsys):
    model_p = tmp_path / "m.vggh"
    save_model(build_model("rf32", seed=0), model_p)
    img_p = tmp_path / "tiny.ppm"
    write_ppm(np.zeros((16, 20, 3), dtype=np.uint8), img_p)
    out_p = tmp_path / "scores.hmap"
    code = run_cli(
        ["heatmap", "--model", str(model_p), "--image", str(img_p), "--out", str(out_p)]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{img_p}: input 16x20 smaller than the 32px window" in captured.err
    assert not out_p.exists()


def test_missing_input_file_is_a_data_error(tmp_path, capsys):
    assert run_cli(["eval", "--model", "/nonexistent.vggh", "--data", "/n.pids"]) == 2
    assert "data error" in capsys.readouterr().err


def test_corrupt_model_file_is_a_data_error(tmp_path, split_files, capsys):
    _, test_p = split_files
    bad = tmp_path / "bad.vggh"
    bad.write_bytes(b"not a model at all")
    assert run_cli(["eval", "--model", str(bad), "--data", str(test_p)]) == 2
    assert "data error" in capsys.readouterr().err


def test_model_relabelled_to_another_variant_is_a_data_error(tmp_path, capsys):
    model_p = tmp_path / "relabelled.vggh"
    save_model(build_model("rf64", seed=0), model_p)
    blob = bytearray(model_p.read_bytes())
    blob[8] = 0  # variant id of rf32
    model_p.write_bytes(bytes(blob))
    img_p = tmp_path / "frame.ppm"
    write_ppm(np.zeros((64, 96, 3), dtype=np.uint8), img_p)
    code = run_cli(
        [
            "heatmap",
            "--model", str(model_p),
            "--image", str(img_p),
            "--out", str(tmp_path / "scores.hmap"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert "relabelled.vggh: layer 0" in err


def test_diverging_training_exits_3(tmp_path, split_files, capsys):
    train_p, test_p = split_files
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli(
            [
                "train",
                "--train", str(train_p),
                "--test", str(test_p),
                "--out-dir", str(tmp_path / "o"),
                "--epochs", "3",
                "--batch", "8",
                "--eta", "0.0",
                "--lr-initial", "1e4",
                "--lr-final", "1e4",
            ]
        )
    assert code == 3
    err = capsys.readouterr().err
    assert "training diverged: epoch" in err
    assert "batch" in err


def test_bad_parameter_value_from_flags_is_a_data_error(tmp_path, split_files, capsys):
    train_p, test_p = split_files
    for flag, value, field in (
        ("--eta", "2.0", "eta"),
        ("--seed", "-1", "seed"),
        ("--momentum", "1.5", "momentum"),
        ("--lr-initial", "-0.1", "lr_initial"),
        ("--lr-final", "nan", "lr_final"),
    ):
        code = run_cli(
            [
                "train",
                "--train", str(train_p),
                "--test", str(test_p),
                "--out-dir", str(tmp_path / "o"),
                flag, value,
            ]
        )
        assert code == 2
        assert f"data error: command line: {field}" in capsys.readouterr().err


def test_out_of_range_config_file_value_is_a_data_error(tmp_path, split_files, capsys):
    train_p, test_p = split_files
    config_p = tmp_path / "run.cfg"
    for line, field in (
        ("seed=-1", "seed"),
        ("momentum=1.5", "momentum"),
        ("lr_initial=-0.1", "lr_initial"),
        ("lr_final=nan", "lr_final"),
    ):
        config_p.write_text(f"epochs=1\n{line}\n")
        argv = [
            "train",
            "--train", str(train_p),
            "--test", str(test_p),
            "--out-dir", str(tmp_path / "o"),
            "--config", str(config_p),
        ]
        assert run_cli(argv) == 2
        assert f"data error: {config_p}: {field}" in capsys.readouterr().err
        # with flags as well, the message names both sources
        assert run_cli(argv + ["--batch", "8"]) == 2
        err = capsys.readouterr().err
        assert f"data error: {config_p} and command line: {field}" in err


def test_sizes_too_large_to_allocate_are_usage_errors(tmp_path, capsys):
    # Both sizes exceed a 128 TiB address space, so nothing is allocated.
    out = tmp_path / "x.pids"
    for argv in (
        ["bench", "--width", "100000000", "--height", "100000000"],
        ["synth", "--out", str(out), "--per-class", "10000000000000"],
    ):
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("qmiheat: error: Unable to allocate")
    assert not out.exists()


def test_zero_runs_is_a_usage_error(tmp_path, split_files, capsys):
    train_p, test_p = split_files
    code = run_cli(
        [
            "train",
            "--train", str(train_p),
            "--test", str(test_p),
            "--out-dir", str(tmp_path / "o"),
            "--epochs", "1",
            "--runs", "0",
        ]
    )
    assert code == 1
    assert "--runs" in capsys.readouterr().err


def test_unknown_flags_exit_1(capsys):
    assert run_cli(["synth", "--out", "x.pids", "--shape", "7"]) == 1
    assert run_cli(["trian"]) == 1
    capsys.readouterr()


def test_module_entry_point_runs_in_a_subprocess(tmp_path):
    out = tmp_path / "tiny.pids"
    # The child imports the same package as this process, installed or not.
    src = os.path.dirname(os.path.dirname(qmiheat.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "qmiheat", "synth", "--out", str(out), "--per-class", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert load_packed(out).pixels.shape == (2, 32, 32, 3)
