"""Run one workload on several seeds and report how steady each metric is.

    python3 perfbench/spread.py --workload conv-mnist --seeds 1-10
    python3 perfbench/spread.py --workload conv-mnist --seeds 11-20 \\
        --against perfbench/.out/spread-conv-mnist-trace0-seeds1-10.json

For every metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  A spread
above a third of the metric's bound in BENCHMARK.json is flagged.  With
``--against`` it also compares medians with an earlier set and flags a
metric that got worse by more than its bound.  Raw results go to
``perfbench/.out/spread-<workload>-trace<t>-seeds<seeds>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=REPO_ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", help="an earlier spread-*.json to compare medians with")
    args = parser.parse_args()
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, bench["run_seconds"], args.trace)
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        runs.append({"seed": seed, "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        print(f"seed {seed}: " + "  ".join(
            f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items() if k in bounds
        ), file=sys.stderr)

    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["medians"]
    medians, flagged = {}, []
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  note")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        median, q1, q3, spread = summarize(values)
        medians[name] = median
        notes = []
        bound = bounds.get(name)
        if bound is not None and name != "setup_s" and spread > bound / 3:
            notes.append(f"spread above bound/3 ({bound / 3:.3f})")
        if earlier and bound is not None and earlier.get(name):
            change = median / earlier[name] - 1
            worse = change if better[name] == "lower" else -change
            notes.append(f"{change:+.1%} vs earlier")
            if worse > bound:
                notes.append(f"worse by more than the bound {bound}")
        if any("bound" in n for n in notes):
            flagged.append(name)
        print(f"{name:32} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3%}  {'; '.join(notes)}")

    out = os.path.join(BENCH_DIR, ".out", f"spread-{args.workload}-trace{args.trace}-seeds{args.seeds}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"workload": args.workload, "runs": runs, "medians": medians}, f, indent=1)
    print(f"wrote {out}; flagged: {flagged or 'none'}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
