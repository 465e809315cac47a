"""Benchmark for marginnet: one named workload per process.

    python3 perfbench/run.py --workload mlp-desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke            # every workload at minimum size
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

The library is imported from the src/ beside this directory.  A run
sets up the workload several times (the median is ``setup_s``), then
runs operations back to back for ``--seconds``, checks every output, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with only step
and phase boundary timers in place.  ``--trace 1`` alternates untraced
and traced operations and reports the per-layer metrics from the
traced ones, plus the tracing overhead.  The line before the result
holds an ``info`` object (environment, fingerprints, informational
metrics); both are also written to ``perfbench/.out/``.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

PROCESS_START = time.perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, ".out")
WORK_ROOT = os.path.join(BENCH_DIR, ".work")
MANIFEST = os.path.join(REPO_ROOT, "BENCHMARK.json")

# Pinned before numpy is imported.  One BLAS thread is steadier on a
# shared machine and never exceeds nproc.  numpy asks the kernel for
# transparent huge pages on large arrays, and how many it gets varies
# from process to process: infer-ensemble's run_s moved between 1.3 s
# and 1.9 s with them, and by under 10% without them.
BLAS_THREADS = 1
ENVIRONMENT = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
RUN_SECONDS = 30

# (name, unit, better, bound).  The timing bounds are the largest
# allowed: on a shared 2-vCPU machine the same code ran up to 15% faster
# or slower from one minute to the next.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import marginnet from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC_DIR, "marginnet", "__init__.py")):
        fail(f"no marginnet package under {SRC_DIR}; run from a full checkout")
    os.environ.update(ENVIRONMENT)
    sys.path.insert(0, SRC_DIR)
    import marginnet

    if os.path.dirname(os.path.abspath(marginnet.__file__)) != os.path.join(SRC_DIR, "marginnet"):
        fail(f"imported marginnet from {marginnet.__file__}, not {SRC_DIR}")


def warm_up():
    """Imports plus the first BLAS and LAPACK calls; returns seconds since
    the process started."""
    import numpy as np

    import spans  # noqa: F401
    import workloads  # noqa: F401

    a = np.random.default_rng(0).normal(size=(784, 784))
    np.linalg.eigh(a @ a.T)
    return time.perf_counter() - PROCESS_START


def environment(cpus):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": BLAS_THREADS,
        },
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "nproc": os.cpu_count(),
        "cpus_rotated": cpus,
        "cpu": cpu,
        "platform": platform.platform(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def percentile_ms(values, q):
    """The q-th percentile in ms, or None unless ten samples lie beyond it."""
    n = len(values)
    if n * (100 - q) / 100 < 10:
        return None
    return 1000 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def next_cpu(cpus, i):
    """Move this process to the i-th allowed CPU, round robin.

    The guest scheduler cannot see contention on the host, so a process
    left alone can spend a whole run on one slow vCPU: on the 2-vCPU
    machine the benchmark was built on, whole runs of mlp-desk came out
    40% slower that way.  Rotating spreads every run over all CPUs.
    """
    os.sched_setaffinity(0, {cpus[i % len(cpus)]})


def set_up(workload, seed, run_dir, cpus):
    """Set up ``setup_reps`` times in fresh directories; keep the last."""
    times, state = [], None
    for rep in range(workload.setup_reps):
        next_cpu(cpus, rep)
        work_dir = os.path.join(run_dir, f"setup{rep}")
        os.makedirs(work_dir)
        start = time.perf_counter()
        state = workload.setup(work_dir, seed)
        times.append(time.perf_counter() - start)
        if rep:
            shutil.rmtree(os.path.join(run_dir, f"setup{rep - 1}"))
    return state, times


def measure(workload, state, seconds, trace, cpus):
    """Run operations until the next one would overrun ``seconds``.
    With ``trace``, odd operations are traced."""
    from spans import PhaseClock, Tracer, patched
    from workloads import sha256

    clock, tracer = PhaseClock(), Tracer() if trace else None
    untraced_s, attempted, failed = [], 0, 0
    problems, first_prints, test_error_pct = [], None, None
    start = time.perf_counter()
    while True:
        traced = trace and attempted % 2 == 1
        # A traced run moves on after each untraced/traced pair, so both
        # halves of a pair run on the same CPU.
        next_cpu(cpus, attempted // 2 if trace else attempted)
        attempted += 1
        op_start = time.perf_counter()
        try:
            if traced:
                with tracer.operation():
                    outcome = workload.operation(state, PhaseClock())
            else:
                with patched(clock.patches(workload.clock_points)):
                    outcome = workload.operation(state, clock)
            op_s = time.perf_counter() - op_start
            found = outcome.problems + workload.check(state, outcome)
            prints = {k: sha256(p) for k, p in outcome.files.items()}
            if first_prints is None:
                first_prints, test_error_pct = prints, outcome.test_error_pct
            elif prints != first_prints:
                changed = sorted(k for k in prints if prints[k] != first_prints.get(k))
                found.append(f"output bytes differ from the first operation's: {changed}")
        except Exception as e:  # one failed operation must not end the run
            op_s = time.perf_counter() - op_start
            found = [f"{type(e).__name__}: {e}"]
        if not traced:
            untraced_s.append(op_s)
        if found:
            failed += 1
            problems.extend(f"operation {attempted}: {p}" for p in found)
        elapsed = time.perf_counter() - start
        if attempted >= (2 if trace else 1) and elapsed + op_s > seconds:
            break
    return dict(
        clock=clock, tracer=tracer, untraced_s=untraced_s, attempted=attempted,
        failed=failed, problems=problems, fingerprints=first_prints or {},
        test_error_pct=test_error_pct,
    )


def informational(m, clock):
    """Metrics reported where the workload defines them, never gated."""
    out = {"failed_frac": (m["failed"] / m["attempted"], "ratio")}
    if clock.step_s:
        out["step_ms_p50"] = (1000 * statistics.median(clock.step_s), "ms")
    p90 = percentile_ms(clock.step_s, 90)
    if p90 is not None:
        out["step_ms_p90"] = (p90, "ms")
    for phase, name in (("train", "train_samples_per_s"), ("eval", "eval_rows_per_s"),
                        ("ensemble", "ensemble_rows_per_s")):
        if clock.seconds[phase] > 0:
            out[name] = (clock.rate(phase), "1/s")
    if m["test_error_pct"] is not None:
        out["test_error_pct"] = (m["test_error_pct"], "%")
    return out


def run(args):
    warmup_s = warm_up()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.size)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(WORK_ROOT, f"{tag}-{os.getpid()}")
    os.makedirs(OUT_DIR, exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    try:
        state, setup_times = set_up(workload, args.seed, run_dir, cpus)
        m = measure(workload, state, args.seconds, args.trace, cpus)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    clock = m["clock"]
    if args.trace:
        tracer = m["tracer"]
        metrics = tracer.summary(statistics.fmean(m["untraced_s"]), warmup_s)
        tracer.dump(os.path.join(OUT_DIR, f"{tag}.spans.jsonl"))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (statistics.median(m["untraced_s"]), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "operations": len(m["untraced_s"]),
        "operation_s": m["untraced_s"],
        "steps": len(clock.step_s),
        "setup_reps": len(setup_times),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in informational(m, clock).items()},
        "process.warmup_s": warmup_s,
        "fingerprints": m["fingerprints"],
        "problems": m["problems"],
        "environment": environment(cpus),
    }
    result = {
        "correct": not m["problems"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as f:
        json.dump({"info": info, "result": result}, f, indent=1)
    for problem in m["problems"][:5]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))


def manifest():
    import spans
    import workloads

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower" if u == "s" else "higher"}
                      for n, u in spans.per_layer_metrics()],
    }


def smoke():
    """Run every workload at minimum size, traced and untraced, and check
    that each prints exactly the metrics BENCHMARK.json declares."""
    import_library()
    with open(MANIFEST) as f:
        declared = json.load(f)
    errors = []
    if declared != manifest():
        errors.append("BENCHMARK.json is out of date; run --write-manifest")
    for workload in declared["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, __file__, "--workload", workload["name"], "--seed", "1",
                    "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
            label = f"{workload['name']} --trace {trace}"
            start = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
            took = time.perf_counter() - start
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            errors += [f"{label}: {e}" for e in check_result(result, declared[key])]
            print(f"{label}: {len(result['metrics'])} metrics in {took:.1f} s", file=sys.stderr)
    for e in errors:
        print(f"smoke: {e}", file=sys.stderr)
    print("smoke: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def check_result(result, declared):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    names = [d["name"] for d in declared]
    if sorted(metrics) != sorted(names):
        errors.append(f"metrics differ: missing {sorted(set(names) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(names))}")
    for d in declared:
        got = metrics.get(d["name"])
        if got is None:
            continue
        if got.get("unit") != d["unit"]:
            errors.append(f"{d['name']}: unit {got.get('unit')!r}, declared {d['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{d['name']}: value {value!r}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true", help="self-test at minimum size")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from the tables in this package")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.write_manifest:
        import_library()
        with open(MANIFEST, "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
