#!/usr/bin/env python3
"""Run benchmark workloads over several seeds and report each metric's
median and spread, one process at a time, each run as long as
BENCHMARK.json's ``run_seconds``.

    python3 perfbench/sweep.py                      # every workload, seeds 1..10
    python3 perfbench/sweep.py --runs 1 --trace     # seed 1, plus one traced run each
    python3 perfbench/sweep.py --out perfbench/baseline.json

Spread is (q3 - q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``.  An end-to-end metric is marked
steady when its spread is below a third of its bound in BENCHMARK.json.
The untraced and traced runs of one seed must produce the same output
(``output_sha256``); a mismatch is reported as a failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1]), wall


def summarize(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="seeds 1..RUNS per workload")
    p.add_argument("--trace", action="store_true", help="also one traced run per workload")
    p.add_argument("--out", help="write the runs and summary as JSON here")
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": seconds, "workloads": {}}
    all_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            meta, result, wall = run_once(workload, seed, seconds, 0)
            runs.append({"meta": meta, "result": result, "wall_s": wall})
            values = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"{workload} seed {seed}: {wall:.1f}s wall, {meta['ops']} ops, "
                  f"failed {result['failed']}/{result['attempted']}, {values}", file=sys.stderr)
        entry = {"runs": runs, "summary": {}}
        print(f"\n{workload}  ({args.runs} runs x {seconds} s)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread = summarize(values)
            steady = spread < bounds[name] / 3
            entry["summary"][name] = {"unit": metric["unit"], "median": median, "q1": q1,
                                      "q3": q3, "spread": spread, "bound": bounds[name]}
            print(f"  {name:<14} {median:>12.4f} {metric['unit']:<5} spread {spread:6.3f} "
                  f"(bound {bounds[name]:.2f}){'' if steady else '  NOT STEADY'}")
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        ok = failed == 0 and all(r["result"]["correct"] for r in runs)
        print(f"  failed ops     {failed} of {attempted}")
        if args.trace:
            meta, result, wall = run_once(workload, 1, seconds, 1)
            entry["traced"] = {"meta": meta, "result": result, "wall_s": wall}
            same = meta["output_sha256"] == runs[0]["meta"]["output_sha256"]
            ok = ok and result["correct"] and same
            print(f"  traced seed 1: failed {result['failed']} of "
                  f"{result['attempted']}, output {'matches' if same else 'DIFFERS FROM'} "
                  f"the untraced run, absent layers {meta['absent_layers']}")
            for name, m in result["metrics"].items():
                print(f"    {name:<32} {m['value']:>14.6g} {m['unit']}")
        all_ok = all_ok and ok
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
