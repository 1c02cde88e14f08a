"""Measuring process of the qchar benchmark.

Runs the first ``--ops`` operations of one workload in this fresh
interpreter, so qchar's group-table caches start cold as they do for
``qchar run``.  Operations run closed loop, one at a time.  Prints one
JSON object as the last line of standard output.  Normally started by
``run.py``, which sets the thread pins and ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np

import workloads

MAX_PRINTED_FAILURES = 5


def environment() -> dict:
    import qchar.groups
    import qchar.kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "backend": qchar.kernels.active_backend(),
        "has_numba": qchar.kernels.HAS_NUMBA,
        "order_cap": qchar.groups.ORDER_CAP,
    }


def measure(workload: str, seed: int, ops: int, tracer=None) -> dict:
    """Closed-loop run; failures are counted and reported, never dropped."""
    cycle = workloads.cycle_length(workload)
    digest = hashlib.sha256()
    latencies: list[float] = []
    slots: list[int] = []
    failures: list[str] = []
    attempted = 0
    busy = 0.0
    for op in itertools.islice(workloads.stream(workload, seed), ops):
        attempted += 1
        t0 = None
        try:
            prepared = op.prepare()
            if tracer is not None:
                tracer.start_op(attempted)
            t0 = time.perf_counter()
            report, text, raw = op.run(prepared)
            dt = time.perf_counter() - t0
        except Exception as exc:  # any exception is a failed operation
            if t0 is not None:
                busy += time.perf_counter() - t0
            failures.append(f"op {attempted} {op.kind}: {type(exc).__name__}: {exc}")
            if len(failures) <= MAX_PRINTED_FAILURES:
                traceback.print_exc(file=sys.stderr)
            if attempted <= cycle:
                digest.update(f"error:{type(exc).__name__}\n".encode())
            continue
        finally:
            if tracer is not None:
                tracer.stop_op()
        busy += dt
        if attempted <= cycle:
            digest.update(text.encode() + b"\n")
        try:
            problem = op.check(prepared, report, raw)
        except Exception as exc:  # a report the check cannot read is a failure too
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(f"op {attempted} {op.kind}: {problem}")
            continue
        latencies.append(dt)
        slots.append((attempted - 1) % cycle)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_PRINTED_FAILURES],
        "latencies_s": latencies,
        "slots": slots,
        "cycle_length": cycle,
        "busy_s": busy,
        "digest": digest.hexdigest(),
        "digest_ops": min(cycle, attempted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="write the trace spans here")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    result = measure(args.workload, args.seed, args.ops, tracer)
    result["env"] = environment()
    if tracer is not None:
        result["layer_metrics"] = tracer.metrics(result["attempted"])
        result["layer_seconds"] = tracer.layer_seconds()
        if args.spans:
            tracer.write(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
