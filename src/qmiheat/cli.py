"""Command-line surface: synth, train, eval, heatmap, bench, rank.

Exit codes: 0 success, 1 usage error, 2 data error, 3 training
diverged.  Unreadable or malformed files exit 2, as do
training-configuration values out of range (whether they came from flags
or a config file); any other bad invocation exits 1, including a size
too large to allocate.  A training run that meets non-finite scores or
parameters stops and exits 3, naming the epoch and batch.
"""

import argparse
import os
import re
import sys
from dataclasses import fields

from .config import load_config, save_config, write_file
from .data import (
    SynthSpec,
    generate_synthetic,
    load_packed,
    read_ppm,
    write_packed,
    write_pgm,
)
from .errors import DataFormatError, TrainingDivergedError
from .heatmap import (
    benchmark_fps,
    fully_conv_inference,
    render_heatmap,
    render_overlay,
    serialize_bench_report,
    write_heatmap,
)
from .losses import LOSSES
from .models import VARIANTS, WINDOW_PX, build_model, load_model, save_model
from .ranking import DEFAULT_Q, format_report, load_score_table, rank_methods, render_rank_plot
from .training import (
    TrainConfig,
    check_window,
    config_from_mapping,
    config_keys,
    config_to_mapping,
    evaluate,
    repeated_experiment,
    write_history,
    write_summary,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # data errors, so route usage failures to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="qmiheat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.set_defaults(handler=_cmd_synth)
    p.add_argument("--out", required=True, help="output packed-dataset path")
    p.add_argument("--size", type=int, default=32, choices=tuple(WINDOW_PX.values()))
    p.add_argument("--per-class", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train one or more runs")
    p.set_defaults(handler=_cmd_train)
    p.add_argument("--train", required=True, dest="train_path")
    p.add_argument("--test", required=True, dest="test_path")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="key=value config file; flags override it")
    # One flag per TrainConfig field, its dest the field's config key.
    choices = {"variant": VARIANTS, "loss": tuple(LOSSES)}
    for key, f in zip(config_keys(), fields(TrainConfig)):
        flag = "--batch" if key == "batch_size" else f"--{key.replace('_', '-')}"
        p.add_argument(flag, dest=key, type=f.type, choices=choices.get(key))
    p.add_argument("--runs", type=int, default=1)

    p = sub.add_parser("eval", help="accuracy of a model on a dataset")
    p.set_defaults(handler=_cmd_eval)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("heatmap", help="full-frame inference on one image")
    p.set_defaults(handler=_cmd_heatmap)
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True, help="binary PPM (P6) input")
    p.add_argument("--out", required=True, help="output heatmap path")
    p.add_argument("--render", help="also write the grid as a PGM image")
    p.add_argument("--overlay", help="also write a source-size PGM overlay")

    p = sub.add_parser("bench", help="full-frame inference throughput")
    p.set_defaults(handler=_cmd_bench)
    p.add_argument("--model", help="model file; omit to build fresh")
    p.add_argument("--variant", choices=VARIANTS, default="rf32")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=1920)
    p.add_argument("--height", type=int, default=1080)
    p.add_argument("--frames", type=int, default=5)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--out", help="write the report here as well")

    p = sub.add_parser("rank", help="critical-difference report for a score table")
    p.set_defaults(handler=_cmd_rank)
    p.add_argument("--table", required=True, help="comma-separated score table")
    p.add_argument("--q-alpha", type=float, default=DEFAULT_Q)
    p.add_argument("--control", type=int, default=0, help="row index of the control")
    p.add_argument("--plot", help="write a PGM rank plot here")

    return parser


def _cmd_synth(args):
    spec = SynthSpec(size=args.size, count_per_class=args.per_class, seed=args.seed)
    write_packed(generate_synthetic(spec), args.out)
    print(f"wrote {args.out}: {2 * args.per_class} samples of {args.size}x{args.size}")
    return 0


def _train_config(args):
    mapping = {}
    sources = []
    if args.config:
        mapping.update(load_config(args.config))
        sources.append(args.config)
    values = vars(args)
    flags = {key: values[key] for key in config_keys() if values[key] is not None}
    if flags or not sources:
        sources.append("command line")
    mapping.update(flags)
    return config_from_mapping(mapping, source=" and ".join(sources))


_RUN_FILE = re.compile(r"(?:model_run([1-9][0-9]*)\.vggh|history_run([1-9][0-9]*)\.csv)\Z")


def _check_out_dir(out_dir, runs):
    """DataFormatError naming an --out-dir that is a file, a missing parent
    of it, or the first model or history file in it of a run numbered
    above ``runs``, which this run would leave beside its own."""
    if not os.path.isdir(out_dir):
        if os.path.exists(out_dir):
            raise DataFormatError(f"{out_dir}: output directory is a file")
        parent = os.path.dirname(os.path.normpath(out_dir)) or "."
        if not os.path.isdir(parent):
            raise DataFormatError(f"{parent}: parent of --out-dir is not a directory")
        return
    stale = sorted(
        (int(m[1] or m[2]), name)
        for name in os.listdir(out_dir)
        if (m := _RUN_FILE.match(name)) and int(m[1] or m[2]) > runs
    )
    if stale:
        path = os.path.join(out_dir, stale[0][1])
        raise DataFormatError(f"{path}: output of a run beyond --runs {runs}")


def _cmd_train(args):
    if args.runs < 1:
        raise ValueError("--runs must be >= 1")
    _check_out_dir(args.out_dir, args.runs)
    config = _train_config(args)
    train_set = load_packed(args.train_path)
    test_set = load_packed(args.test_path)
    for path, dataset in ((args.train_path, train_set), (args.test_path, test_set)):
        if len(dataset) == 0:
            raise ValueError(f"{path}: dataset is empty")
        check_window(config.variant, dataset, f"{path}: images")
    # Every run is kept in memory (~70 KB each) and written once all have
    # succeeded, so a diverged run leaves no directory and no file behind.
    summary, runs = repeated_experiment(config, train_set, test_set, k=args.runs)
    if not os.path.isdir(args.out_dir):
        os.mkdir(args.out_dir)
    for i, (model, history) in enumerate(runs, start=1):
        save_model(model, os.path.join(args.out_dir, f"model_run{i}.vggh"))
        write_history(history, os.path.join(args.out_dir, f"history_run{i}.csv"))
    write_summary(summary, os.path.join(args.out_dir, "summary.txt"))
    save_config(config_to_mapping(config), os.path.join(args.out_dir, "config.txt"))
    print(
        f"runs={args.runs} mean_max_accuracy={summary.mean!r} "
        f"std={summary.std!r}"
    )
    return 0


def _cmd_eval(args):
    model = load_model(args.model)
    dataset = load_packed(args.data)
    try:
        acc = evaluate(model, dataset)
    except ValueError as exc:
        raise ValueError(f"{args.data}: {exc}") from None
    print(f"accuracy={acc!r}")
    return 0


def _cmd_heatmap(args):
    model = load_model(args.model)
    pixels = read_ppm(args.image)
    try:
        hm = fully_conv_inference(model, pixels)
    except ValueError as exc:
        raise ValueError(f"{args.image}: {exc}") from None
    write_heatmap(hm, args.out)
    if args.render:
        write_pgm(render_heatmap(hm), args.render)
    if args.overlay:
        write_pgm(render_overlay(hm, pixels), args.overlay)
    print(
        f"wrote {args.out}: grid {hm.grid.shape[0]}x{hm.grid.shape[1]} "
        f"(stride {hm.stride_px}px, window {hm.window_px}px)"
    )
    return 0


def _cmd_bench(args):
    model = load_model(args.model) if args.model else build_model(args.variant, args.seed)
    report = benchmark_fps(
        model, args.height, args.width, n_frames=args.frames, warmup=args.warmup
    )
    text = serialize_bench_report(report)
    sys.stdout.write(text)
    if args.out:
        write_file(args.out, text.encode("ascii"))
    return 0


def _cmd_rank(args):
    table = load_score_table(args.table)
    if not 0 <= args.control < len(table.methods):
        raise ValueError(f"--control {args.control} out of range")
    result = rank_methods(table, q_alpha=args.q_alpha, control_index=args.control)
    sys.stdout.write(format_report(table, result))
    if args.plot:
        write_pgm(render_rank_plot(table, result), args.plot)
    return 0


# The options that name a file or directory their command writes.
_OUTPUTS = ("out", "out_dir", "render", "overlay", "plot")


def _check_outputs(args):
    """DataFormatError naming the first output option given empty, else the
    first file output that is a directory or lies in a missing one.
    ``_cmd_train`` checks --out-dir itself, after --runs."""
    given = [(dest, getattr(args, dest, None)) for dest in _OUTPUTS]
    for dest, path in given:
        if path == "":
            raise DataFormatError(f"--{dest.replace('_', '-')}: output path is empty")
    for dest, path in given:
        if path is None or dest == "out_dir":
            continue
        if os.path.isdir(path):
            raise DataFormatError(f"{path}: output is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise DataFormatError(f"{path}: output directory does not exist")


def run_cli(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        _check_outputs(args)
        return args.handler(args)
    # Ahead of ValueError, which DataFormatError subclasses.
    except (DataFormatError, OSError) as exc:
        print(f"qmiheat: data error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as exc:
        print(f"qmiheat: error: {exc}", file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"qmiheat: training diverged: {exc}", file=sys.stderr)
        return 3


def main():
    return run_cli(sys.argv[1:])
