"""rapidnet benchmark: four closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload infer_ti_b1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh child process
(perfbench/worker.py) with OPENBLAS/OMP/MKL thread counts set before numpy
loads, capped at the CPUs this process may use.  rapidnet is imported from the
checkout's `src/`; without it the command fails before measuring anything.

The human-readable lines name every end-to-end metric with its unit; the last
line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  A traced run spends half its time untraced, to report the trace
overhead, and writes its spans and per-layer table to perfbench/out/.  The
command exits 1 when any correctness gate failed.

--inject perturbs one fused weight or makes one input non-finite, so the
self-test (perfbench/test_gates.py) can show that the gates fire.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("infer_ti_b1", "infer_ti_b8", "train_micro", "export_load")
NEEDS_PREP = ("infer_ti_b1", "infer_ti_b8")
DEADLINE_S = 170.0

# Gated end-to-end metrics; every workload reports each of them.
END_TO_END = {"setup_s": "s", "latency_p50_ms": "ms", "throughput_per_s": "1/s",
              "peak_rss_mb": "MB"}
# What throughput_per_s counts on each workload, as printed.
THROUGHPUT_NAME = {"images": "images_per_s", "samples": "train_samples_per_s",
                   "cycles": "cycles_per_s"}
_SUFFIX_UNITS = (("_pct", "%"), ("ms", "ms"), (".calls", "count"), ("gmacs_per_s", "GMAC/s"),
                 ("melems_per_s", "Melem/s"), ("mb_per_s", "MB/s"), ("mb_computed", "MB"),
                 ("macs_per_byte", "MAC/B"), ("_share", "share"), ("_coverage", "share"))


def per_layer_unit(name: str) -> str:
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def thread_count() -> int:
    return max(1, min(os.cpu_count() or 1, len(os.sched_getaffinity(0))))


def _child(role: str, job: dict, env: dict, deadline: float) -> subprocess.CompletedProcess:
    timeout = max(1.0, deadline - time.monotonic())
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), role, json.dumps(job)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=timeout, check=True)


def run_workload(workload: str, seed: int, seconds: int, trace: bool, inject: str) -> dict:
    """Prepare (when needed) and run one workload in child processes."""
    threads = str(thread_count())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONDONTWRITEBYTECODE="1")
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT)
    job = {"root": ROOT, "workload": workload, "seed": seed, "seconds": seconds,
           "trace": trace, "inject": inject, "work": work,
           "trace_file": os.path.join(OUT, f"trace-{workload}-seed{seed}.json")}
    deadline = time.monotonic() + DEADLINE_S
    try:
        if workload in NEEDS_PREP:
            _child("prep", job, env, deadline)
        proc = _child("run", job, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["workload"], res["seed"] = workload, seed
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump(res, fh)
    return res


def end_to_end(res: dict) -> dict:
    lat = res["latencies_ms"]
    return {
        "setup_s": statistics.median(res["setup_s"]),
        "latency_p50_ms": statistics.median(lat),
        "throughput_per_s": res["items_per_op"] * len(lat) / (sum(lat) / 1e3),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def report(res: dict) -> None:
    """Human-readable lines: every end-to-end metric by name and unit."""
    env = res["env"]
    lat = res["latencies_ms"]
    m = end_to_end(res)
    print(f"workload {res['workload']}  seed {res['seed']}  threads {env['threads_requested']}"
          f" (OpenBLAS reports {env['blas_threads']}, affinity {env['affinity_cpus']} cpus)"
          f"  numpy {env['numpy']}  scipy {env['scipy']}  {env['blas']}")
    print(f"  setup_s              {m['setup_s']:.4f} s   "
          f"(median of {len(res['setup_s'])} set-ups)")
    print(f"  latency_p50_ms       {m['latency_p50_ms']:.3f} ms  ({len(lat)} operations)")
    if len(lat) >= 100:  # at least ten samples beyond p90
        p90 = statistics.quantiles(lat, n=10)[-1]
        print(f"  latency_p90_ms       {p90:.3f} ms")
    else:
        print(f"  latency_p90_ms       n/a (needs 100 operations, have {len(lat)})")
    name = THROUGHPUT_NAME[res["unit"]]
    print(f"  {name:<20} {m['throughput_per_s']:.4f} 1/s  (throughput_per_s, "
          f"{res['items_per_op']} {res['unit']} per operation)")
    print(f"  peak_rss_mb          {m['peak_rss_mb']:.1f} MB")
    print(f"  error_rate           {res['failed'] / res['attempted']:.4f}  "
          f"({res['failed']} failed of {res['attempted']})")
    if "per_layer" in res:
        pl = res["per_layer"]
        print(f"  trace: op spans cover {100 * pl['model.forward.op_coverage']:.1f}% of "
              f"model.forward; trace overhead {pl['trace_overhead_pct']:.2f}%; "
              f"spans in perfbench/out/trace-{res['workload']}-seed{res['seed']}.json")
        print("  top layers            calls/op     ms/op    MMAC/op   GMAC/s   share")
        for row in res["layer_table"][:10]:
            print(f"    {row['layer']:<30} {row['calls_per_op']:6.1f} {row['ms_per_op']:9.3f}"
                  f" {row['macs_per_op'] / 1e6:10.2f} {row['gmacs_per_s']:8.2f}"
                  f" {100 * row['share']:6.1f}%")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("none", "weight", "nonfinite"), default="none")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "rapidnet", "__init__.py")):
        print(f"error: no rapidnet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.inject)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"error: workload {name} did not complete: {exc}", file=sys.stderr)
            return 2
        report(res)
        results.append(res)

    def metrics_of(res):
        values = res["per_layer"] if args.trace else end_to_end(res)
        unit = per_layer_unit if args.trace else END_TO_END.__getitem__
        return {k: {"value": v, "unit": unit(k)} for k, v in values.items()}

    if len(results) == 1:
        metrics = metrics_of(results[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in metrics_of(r).items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
