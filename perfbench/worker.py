"""Child process of perfbench/run.py: one workload in a fresh interpreter.

    python3 perfbench/worker.py prep|run '<json job>'

run.py sets the BLAS/OpenMP thread variables before this process starts, so
numpy loads with them, and imports rapidnet from the checkout's `src/`.
`prep` writes the workload's prepared files (fused checkpoint, f64 reference
logits) to the work directory; `run` times the set-up and the operation loop
and prints one JSON object on stdout.  Running prep in its own process keeps
its memory out of `run`'s peak RSS.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time


def _import_rapidnet(root: str) -> None:
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import rapidnet

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(rapidnet.__file__).startswith(src + os.sep):
        raise SystemExit(f"rapidnet imported from {rapidnet.__file__}, not {src}")


def environment() -> dict:
    """Thread settings as requested and as OpenBLAS reports them, plus versions."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "threads_requested": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
    }
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                env["blas_threads"] = fn()
                break
    return env


def measure(w, seconds: float, tracer=None, root_name: str = "") -> tuple:
    """Closed loop: one operation at a time until `seconds` of loop time pass.

    Returns (latencies_ms, gate results).  Checks run outside the timed
    region; with a tracer, each operation is one root span.
    """
    lat, ok = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.op = len(lat)
            root = tracer.open(root_name)
        t0 = time.perf_counter_ns()
        result = w.op()
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.close(root)
        lat.append((t1 - t0) / 1e6)
        ok.append(w.check(result))
        del result
    return lat, ok


def run(job: dict) -> dict:
    import workloads

    w = workloads.make(job["workload"], job["work"], job["seed"])
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    setup_s = []
    for _ in range(w.setup_reps):
        t0 = time.perf_counter()
        w.setup()
        setup_s.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.uninstall()
    w.after_setup(job["inject"])

    w.op()  # warm-up: first-touch page faults and lazy imports, not timed or gated
    out = {"env": environment(), "unit": w.unit, "items_per_op": w.items_per_op,
           "setup_s": setup_s}
    if tracer is None:
        lat, ok = measure(w, job["seconds"])
    else:
        # Half the time untraced, half traced: the ratio is the trace overhead.
        # The end-to-end numbers printed for a traced run come from the first half.
        lat, ok = measure(w, job["seconds"] / 2)
        for net in w.models():
            tracer.register(net)
        tracer.phase = "run"
        tracer.install()
        try:
            traced, traced_ok = measure(w, job["seconds"] / 2, tracer, job["workload"] + ".op")
        finally:
            tracer.uninstall()
        ok += traced_ok
        metrics, table = tracing.layer_metrics(tracer, len(traced), w.setup_reps)
        metrics["trace_overhead_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(lat) - 1.0)
        out["per_layer"] = metrics
        out["layer_table"] = table
        tracer.write(job["trace_file"], table)
    if not w.final_check():
        ok[-1] = False  # the run as a whole missed its gate: count the last operation
    out.update(latencies_ms=lat, attempted=len(ok), failed=ok.count(False),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return out


def main() -> int:
    role, job = sys.argv[1], json.loads(sys.argv[2])
    _import_rapidnet(job["root"])
    if role == "prep":
        import workloads

        workloads.make(job["workload"], job["work"], job["seed"]).prepare()
        return 0
    print(json.dumps(run(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
