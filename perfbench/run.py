"""qchar benchmark: one command, four seeded workloads, checked results.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Workloads: corpus, chains, sweep, large-groups (see workloads.py).

A run is a fixed number of whole cycles of the workload's schedule, sized
so that it lasts about ``--seconds`` on the reference machine
(workloads.CYCLE_SECONDS); parent and change therefore do identical work.

With ``--trace 0`` the command measures set-up time (fresh interpreters
importing qchar, plus scenario loading for corpus), then runs the workload
in one fresh measuring process and prints the end-to-end metrics.  With
``--trace 1`` it runs the workload for half the time with every layer's
entry points wrapped (tracing.py), runs the same operations untraced in a
second fresh process to get the tracing overhead, and prints the
per-layer metrics.

Every operation's outcome is checked; the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}.  The lines
before it restate the metrics for people, with the environment stamp, the
failed ratio, the tail percentile used and the sha256 digest of the
canonical reports of the first cycle of operations.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: set before numpy loads, inherited by every child.
THREAD_PINS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"

sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 9
MIN_BEYOND_TAIL = 10
DEADLINE_S = 170.0

# Prints the system-wide monotonic clock once qchar is ready, so set-up time
# ends there and does not include the interpreter's exit.
SETUP_CODE = ("import sys, time, qchar.cli\n"
              "if sys.argv[1:]:\n    qchar.cli._load_scenarios(sys.argv[1:])\n"
              "print(time.monotonic())\n")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def remaining(start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 0:
        raise TimeoutError("benchmark exceeded its time budget")
    return left


def run_worker(start: float, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=remaining(start), check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(start: float, workload: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter until it has imported
    qchar (and, for corpus, loaded one cycle of the generated scenarios
    through qchar's own validating loader)."""
    extra: list[str] = []
    path = WORK_DIR / f"corpus-{os.getpid()}.json"
    try:
        if workload == "corpus":
            WORK_DIR.mkdir(exist_ok=True)
            ops = workloads.stream(workload, seed)
            doc = {"schema": "qchar-scenario-1",
                   "scenarios": [next(ops).inputs for _ in range(workloads.cycle_length(workload))]}
            path.write_text(json.dumps(doc), encoding="utf-8")
            extra = [str(path)]
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.monotonic()
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *extra], cwd=ROOT,
                                  env=child_env(), stdout=subprocess.PIPE, text=True,
                                  check=True, timeout=remaining(start))
            times.append(float(proc.stdout) - t0)
    finally:
        path.unlink(missing_ok=True)
    return statistics.median(times)


def typical_cycle_s(latencies: list[float], slots: list[int]) -> float:
    """Sum over the schedule's slots of each slot's median latency: the
    time of a typical cycle, unmoved by a few slow operations or the cold
    first cycle.  Failed operations have no latency; a run with any is
    reported as not correct."""
    by_slot: dict[int, list[float]] = {}
    for dt, slot in zip(latencies, slots):
        by_slot.setdefault(slot, []).append(dt)
    return sum(statistics.median(v) for v in by_slot.values())


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with MIN_BEYOND_TAIL samples beyond
    it: (value, that percentile, samples beyond)."""
    xs = sorted(latencies)
    rank = max(1, len(xs) - MIN_BEYOND_TAIL)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def end_to_end(start: float, args) -> tuple[dict, dict]:
    setup_s = measure_setup(start, args.workload, args.seed)
    res = run_worker(start, "--workload", args.workload, "--seed", str(args.seed),
                     "--ops", str(workloads.operation_count(args.workload, args.seconds)))
    lat = res["latencies_s"]
    if not lat:
        raise RuntimeError("no operation completed")
    value, pct, beyond = tail(lat)
    print(f"tail: p{pct:.4g} with {beyond} of {len(lat)} completed operations beyond it")
    print(f"cycles: {res['attempted'] / res['cycle_length']:g} of {res['cycle_length']} "
          f"operations; mean rate {len(lat) / res['busy_s']:.6g}/s")
    metrics = {
        "ops_per_s": res["cycle_length"] / typical_cycle_s(lat, res["slots"]),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": value * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return res, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def per_layer(start: float, args) -> tuple[dict, dict]:
    WORK_DIR.mkdir(exist_ok=True)
    spans = WORK_DIR / f"spans-{args.workload}.jsonl"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    common += ["--ops", str(workloads.operation_count(args.workload, args.seconds / 2))]
    traced = run_worker(start, *common, "--trace", "1", "--spans", str(spans))
    plain = run_worker(start, *common)
    if plain["digest"] != traced["digest"]:
        raise RuntimeError("traced and untraced runs produced different reports")
    traced["failed"] = max(traced["failed"], plain["failed"])
    values = dict(traced["layer_metrics"])
    values["trace.overhead_ratio"] = traced["busy_s"] / plain["busy_s"]
    busy = traced["busy_s"]
    shares = ", ".join(f"{layer} {100.0 * s / busy:.1f}%"
                       for layer, s in traced["layer_seconds"].items())
    print(f"layer self time as a share of {busy:.3f} s traced busy time: {shares}")
    print(f"spans written to {spans.relative_to(ROOT)}")
    return traced, {k: {"value": values[k], "unit": unit}
                    for k, (unit, _) in tracing.METRICS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qchar" / "__init__.py").is_file():
        print(f"qchar sources not found under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    print(f"qchar benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    try:
        res, metrics = (per_layer if args.trace else end_to_end)(start, args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = dict(res["env"], git_commit=git_commit())
    print("env: " + json.dumps(env, sort_keys=True))
    attempted, failed = res["attempted"], res["failed"]
    print(f"operations: attempted {attempted}, failed {failed}, "
          f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    for line in res["failures"]:
        print(f"  failure: {line}")
    print(f"report digest: sha256:{res['digest']} over the first {res['digest_ops']} operations")
    for name, m in metrics.items():
        print(f"  {name:<45} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
