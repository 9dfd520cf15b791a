#!/usr/bin/env python3
"""qmiheat benchmark: one workload in one process, closed loop, one client.

    python3 perfbench/run.py --workload train-rf32 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nothing is built.  Inputs are generated from
``--seed``.  Ops run back to back until ``--seconds`` of measuring have
passed, and every op's output is checked.

``--trace 0`` installs no wrappers and reports the end-to-end metrics of
BENCHMARK.json.  ``--trace 1`` wraps the calls across layer boundaries
(see tracer.py) and reports the per-layer metrics; comparing its
``trace.op_p50_ms`` with the untraced ``op_p50_ms`` gives the tracing
overhead measured end to end.

The second-to-last stdout line is run metadata; the last line is
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 2 means the
benchmark could not run at all (no package source, no BENCHMARK.json).
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

_T_START = perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# One BLAS thread, on any machine, so numbers stay comparable.  On a
# two-core shared machine a second BLAS thread bought about 10% on the
# dense workloads but made their tail latency depend on what else ran on
# the other core.  Must be set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# An untraced run splits its seconds over this many fresh processes, one
# after another: timings here vary more between processes than within one.
# It reports the median of the processes' set-up time, peak RSS and
# throughput, and op latency percentiles over the ops of all processes
# pooled.  Each process times its own set-up: import, input generation,
# model build and warm-up (the workload's probe, see workloads.py).
PROCESSES = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "qmiheat", "__init__.py")):
        fail(f"no package source under {SRC}; run from a qmiheat checkout")
    sys.path.insert(0, SRC)
    import numpy as np

    from qmiheat import data, heatmap, models, training

    if not os.path.abspath(models.__file__).startswith(SRC + os.sep):
        fail(f"imported qmiheat from {models.__file__}, not from {SRC}")
    return np, argparse.Namespace(data=data, heatmap=heatmap, models=models, training=training)


def declared_metrics():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description="Run one qmiheat benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def run_ops(workload, seconds, span):
    ops = []
    start = perf_counter()
    while not ops or perf_counter() - start < seconds:
        ops.append(workload.op(len(ops), span))
    return ops


def process_metrics(ops, setup_s):
    """The end-to-end metrics one process reports; the latencies are pooled
    across processes by ``coordinate``."""
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "items_per_s": (sum(o.items for o in ops) / sum(o.item_wall_s for o in ops), "1/s"),
    }


def per_layer_metrics(tracer, ops, op_sgd_marks, setup_parts, stages, sgemm_gflops, call_cost_s,
                      eval_items):
    from tracer import CONV_SPANS

    n = len(ops)
    op_s = sum(o.wall_s for o in ops)
    busy, self_s = tracer.busy, tracer.self_s
    m = {}

    def per_op_ms(seconds):
        return 1e3 * seconds / n

    conv_busy = conv_flop = 0.0
    for span in CONV_SPANS:
        kind = span.split("_")[-1]
        for stage in sorted(stages.values()):
            key = f"{span}.{stage}"
            m[f"layers.conv_{kind}.{stage}.ms"] = (per_op_ms(busy[key]), "ms")
            rate = tracer.flop[key] / busy[key] / 1e9 if busy[key] else 0.0
            m[f"layers.conv_{kind}.{stage}.gflops"] = (rate, "GFLOP/s")
        for key in busy:
            if key.startswith(span + "."):
                conv_busy += busy[key]
                conv_flop += tracer.flop[key]
    for name in ("pool_fwd", "pool_bwd", "pool_infer", "relu_fwd", "relu_bwd", "relu_infer",
                 "sgd_step"):
        m[f"layers.{name}.ms"] = (per_op_ms(busy[f"layers.{name}"]), "ms")
    for name in ("qmi.potentials", "qmi.gradient", "losses.hinge", "data.to_float",
                 "data.image_to_float"):
        m[f"{name}.ms"] = (per_op_ms(busy[name]), "ms")
    for name, span in (("models.forward_training", "models.forward_training"),
                       ("models.backprop", "models.backprop"),
                       ("models.forward_scores", "models.forward_scores"),
                       ("training.loop", "training.train"),
                       ("heatmap.fully_conv", "heatmap.fully_conv")):
        m[f"{name}.self_ms"] = (per_op_ms(self_s[span]), "ms")

    steps_ms = []
    for lo, hi in op_sgd_marks:
        ends = tracer.sgd_ends[lo:hi]
        steps_ms += [1e3 * (b - a) for a, b in zip(ends, ends[1:])]
    m["training.step_p50_ms"] = (percentile(steps_ms, 50) if steps_ms else 0.0, "ms")
    m["training.step_p90_ms"] = (percentile(steps_ms, 90) if steps_ms else 0.0, "ms")
    eval_s = busy["training.evaluate"]
    m["training.eval_samples_per_s"] = (
        eval_items * tracer.calls["training.evaluate"] / eval_s if eval_s else 0.0, "1/s")
    m["data.generate_synthetic.s"] = (setup_parts.get("data.generate_synthetic.s", 0.0), "s")

    layer_calls = sum(c for k, c in tracer.calls.items() if k.startswith("layers."))
    m["layers.calls_per_op"] = (layer_calls / n, "count")
    m["layers.gflop_per_op"] = (conv_flop / 1e9 / n, "GFLOP")
    m["machine.sgemm_gflops"] = (sgemm_gflops, "GFLOP/s")
    conv_rate = conv_flop / conv_busy / 1e9 if conv_busy else 0.0
    m["layers.conv.peak_frac"] = (conv_rate / sgemm_gflops, "fraction")
    m["trace.overhead_frac"] = (sum(tracer.calls.values()) * call_cost_s / op_s, "fraction")
    m["trace.unattributed_frac"] = (1.0 - tracer.attributed_s / op_s, "fraction")
    m["trace.op_p50_ms"] = (percentile([o.wall_s * 1e3 for o in ops], 50), "ms")
    return m


def sgemm_gflops(np, size=1024, reps=7):
    """Median float32 GEMM rate with this run's BLAS threads."""
    rng = np.random.default_rng(0)
    a = rng.random((size, size), dtype=np.float32)
    b = rng.random((size, size), dtype=np.float32)
    a @ b
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        a @ b
        times.append(perf_counter() - t0)
    return 2.0 * size**3 / statistics.median(times) / 1e9


def run_metadata(np, args, ops, absent, workload, import_s, setup_s):
    try:
        from qmiheat import backend

        active = backend.active_backend()
    except (ImportError, AttributeError):
        active = "absent"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "ops": len(ops),
        "import_s": import_s,
        "setup_s": setup_s,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "backend": active,
        "git_sha": git_sha(),
        "absent_layers": absent,
        "output_sha256": workload.output_digest(),
    }


def git_sha():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(args, import_s, np, q):
    """Set up, check and time one workload in this process.

    Returns the run's metadata, its metrics, one list of problems per
    attempted op or check, and each op's latency in ms.
    """
    import tracer as tracing
    from workloads import conv_stages, make_workload, scratch_directory

    with scratch_directory(ROOT) as scratch:
        workload = make_workload(args.workload, q, scratch, tiny=args.tiny)
        t0 = perf_counter()
        setup_parts = workload.setup(args.seed)
        setup_s = import_s + perf_counter() - t0
        checks = [workload.reference_problems()]
        absent = []
        modules = {"models": q.models, "training": q.training, "heatmap": q.heatmap}
        stages = conv_stages(q.models)
        if args.trace:
            # The same probe under wrappers must give the untraced bytes.
            restore, absent = tracing.install(tracing.Tracer(stages), modules)
            try:
                traced_probe = workload.probe()
            finally:
                restore()
            checks.append([] if traced_probe == workload.probe_bytes
                          else ["probe output differs with the tracer installed"])
            tracer = tracing.Tracer(stages)
            restore, _ = tracing.install(tracer, modules)
            marks = []

            def span(name):
                if name == "training.train":
                    marks.append(len(tracer.sgd_ends))
                return tracer.span(name)

            try:
                ops = run_ops(workload, args.seconds, span)
            finally:
                restore()
            marks.append(len(tracer.sgd_ends))
            op_marks = list(zip(marks, marks[1:]))
            metrics = per_layer_metrics(
                tracer, ops, op_marks, setup_parts, stages, sgemm_gflops(np),
                tracing.per_call_overhead_s(stages), len(getattr(workload, "test_set", ())),
            )
        else:
            ops = run_ops(workload, args.seconds, nullcontext)
            metrics = process_metrics(ops, setup_s)
        meta = run_metadata(np, args, ops, absent, workload, import_s, setup_s)
    return meta, metrics, checks + [o.problems for o in ops], [o.wall_s * 1e3 for o in ops]


def run_child(args):
    """One measuring process of an untraced run; its parsed report."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds / PROCESSES),
           "--trace", "0", "--child"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(proc.returncode or 2)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def coordinate(args):
    """Untraced run: PROCESSES fresh processes in turn, medians across them
    and latency percentiles over their pooled ops."""
    reports = [run_child(args) for _ in range(PROCESSES)]
    metrics = {
        name: (statistics.median(r["metrics"][name][0] for r in reports), unit)
        for name, (_, unit) in reports[0]["metrics"].items()
    }
    lat_ms = [ms for r in reports for ms in r["op_ms"]]
    metrics["op_p50_ms"] = (percentile(lat_ms, 50), "ms")
    metrics["op_p90_ms"] = (percentile(lat_ms, 90), "ms")
    outcomes = [found for r in reports for found in r["outcomes"]]
    digests = {r["meta"]["output_sha256"] for r in reports}
    if len(digests) > 1:
        outcomes.append(["processes given the same seed produced different outputs"])
    meta = dict(reports[0]["meta"])
    meta["seconds"] = args.seconds
    meta["ops"] = sum(r["meta"]["ops"] for r in reports)
    meta["processes"] = PROCESSES
    meta["per_process"] = [
        dict({name: value for name, (value, _) in r["metrics"].items()}, ops=len(r["op_ms"]))
        for r in reports
    ]
    return meta, metrics, outcomes


def main(argv=None):
    end_to_end, per_layer = declared_metrics()
    args = parse_args(argv)
    if args.trace or args.child:
        np, q = import_package()
        meta, metrics, outcomes, op_ms = measure(args, perf_counter() - _T_START, np, q)
        if args.child:
            print(json.dumps({"meta": meta, "metrics": metrics, "outcomes": outcomes,
                              "op_ms": op_ms}))
            return 0
    else:
        meta, metrics, outcomes = coordinate(args)

    declared = per_layer if args.trace else end_to_end
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        fail(f"metrics emitted {sorted(emitted.items())} differ from BENCHMARK.json "
             f"{sorted(declared.items())}")
    problems = [p for found in outcomes for p in found]
    meta["problems"] = problems[:20]
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(1 for found in outcomes if found),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
