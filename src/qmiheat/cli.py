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
import sys

from .config import load_config, save_config
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
from .models import VARIANTS, build_model, load_model, save_model
from .ranking import DEFAULT_Q, format_report, load_score_table, rank_methods, render_rank_plot
from .training import (
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
    p.add_argument("--out", required=True, help="output packed-dataset path")
    p.add_argument("--size", type=int, default=32, choices=(32, 64))
    p.add_argument("--per-class", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train one or more runs")
    p.add_argument("--train", required=True, dest="train_path")
    p.add_argument("--test", required=True, dest="test_path")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--loss", choices=("hinge", "ce"))
    p.add_argument("--eta", type=float)
    p.add_argument("--batch", type=int, dest="batch_size", metavar="BATCH")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lr-initial", type=float)
    p.add_argument("--lr-final", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--runs", type=int, default=1)

    p = sub.add_parser("eval", help="accuracy of a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("heatmap", help="full-frame inference on one image")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True, help="binary PPM (P6) input")
    p.add_argument("--out", required=True, help="output heatmap path")
    p.add_argument("--render", help="also write the grid as a PGM image")
    p.add_argument("--overlay", help="also write a source-size PGM overlay")

    p = sub.add_parser("bench", help="full-frame inference throughput")
    p.add_argument("--model", help="model file; omit to build fresh")
    p.add_argument("--variant", choices=VARIANTS, default="rf32")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=1920)
    p.add_argument("--height", type=int, default=1080)
    p.add_argument("--frames", type=int, default=5)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--out", help="write the report here as well")

    p = sub.add_parser("rank", help="critical-difference report for a score table")
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


def _cmd_train(args):
    if args.runs < 1:
        raise ValueError("--runs must be >= 1")
    config = _train_config(args)
    train_set = load_packed(args.train_path)
    test_set = load_packed(args.test_path)
    for path, dataset in ((args.train_path, train_set), (args.test_path, test_set)):
        if len(dataset) == 0:
            raise ValueError(f"{path}: dataset is empty")
        check_window(config.variant, dataset, f"{path}: images")
    os.makedirs(args.out_dir, exist_ok=True)

    def save_run(i, model, history):
        save_model(model, os.path.join(args.out_dir, f"model_run{i + 1}.vggh"))
        write_history(history, os.path.join(args.out_dir, f"history_run{i + 1}.csv"))

    summary = repeated_experiment(
        config, train_set, test_set, k=args.runs, on_run=save_run
    )
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


def _bench_model(args):
    if args.model:
        return load_model(args.model)
    return build_model(args.variant, args.seed)


def _cmd_bench(args):
    report = benchmark_fps(
        _bench_model(args),
        args.height,
        args.width,
        n_frames=args.frames,
        warmup=args.warmup,
    )
    text = serialize_bench_report(report)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
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


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "heatmap": _cmd_heatmap,
    "bench": _cmd_bench,
    "rank": _cmd_rank,
}


def run_cli(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except DataFormatError as exc:
        print(f"qmiheat: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
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


if __name__ == "__main__":
    sys.exit(main())
