"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

    python3 perfbench/spread.py --workloads infer_ti_b1 train_micro --seeds 1-10 \
        --seconds 25 [--traced-seed 1] [--out perfbench/baseline.json]

Runs perfbench/run.py once per (workload, seed), one after another, and for
each end-to-end metric reports the median and the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median.  The spread of each metric must stay within its bound in
BENCHMARK.json (setup_s excepted); aim for a third of it.  With --traced-seed,
one traced run per workload adds its per-layer metrics and top-10 layers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
            "values": values}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One benchmark run: its last-line result and the detail file run.py wrote."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"result-{workload}-seed{seed}-trace{trace}.json")) as fh:
        return result, json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}

    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads:
        values: dict = {}
        runs = []
        for seed in args.seeds:
            result, detail = run(workload, seed, args.seconds, 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            lat = detail["latencies_ms"]
            runs.append({"seed": seed, "operations": len(lat), "failed": result["failed"],
                         "latency_p90_ms": (statistics.quantiles(lat, n=10)[-1]
                                            if len(lat) >= 100 else None)})
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name} {m['value']:.4f}" for name, m in result["metrics"].items()), flush=True)
        stats = {name: spread(v) for name, v in values.items()}
        entry = {"env": detail["env"], "end_to_end": stats, "runs": runs}
        if args.traced_seed is not None:
            result, detail = run(workload, args.traced_seed, args.seconds, 1)
            entry["traced"] = {"seed": args.traced_seed,
                               "per_layer": {k: m["value"] for k, m in result["metrics"].items()},
                               "top_layers": detail["layer_table"][:10]}
        summary["workloads"][workload] = entry
        for name, s in stats.items():
            share = s["iqr_share"] / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            print(f"{workload:<12} {name:<17} median {s['median']:12.4f}  "
                  f"IQR/median {s['iqr_share']:.4f}  ({share:.2f} of bound {bounds[name]})",
                  flush=True)
    print(f"largest spread, setup_s excepted: {worst:.2f} of its bound")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
