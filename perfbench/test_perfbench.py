"""Tests of the benchmark itself: seeded inputs, report digests, metric names.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _fingerprints(workload: str, seed: int) -> list[str]:
    ops = itertools.islice(workloads.stream(workload, seed), workloads.cycle_length(workload))
    return [workloads.fingerprint(op.inputs) for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = _fingerprints(workload, 7)
    assert first == _fingerprints(workload, 7)
    assert first != _fingerprints(workload, 8)


# enough operations to cover every operation kind of corpus, and the
# first (cold) operations of the others
@pytest.mark.parametrize("workload, ops", [("corpus", 18), ("chains", 3), ("sweep", 2),
                                           ("large-groups", 3)])
def test_same_seed_gives_identical_report_digest(workload, ops):
    first = worker.measure(workload, 7, ops)
    second = worker.measure(workload, 7, ops)
    assert first["failed"] == 0, first["failures"]
    assert first["digest"] == second["digest"]
    assert first["digest"] != worker.measure(workload, 8, ops)["digest"]


def test_typical_cycle_sums_slot_medians():
    # slot 0 has a cold first run and slot 1 one slow outlier; neither counts
    latencies = [9.0, 1.0, 2.0, 1.0, 2.0, 7.0]
    assert run.typical_cycle_s(latencies, [0, 1, 0, 1, 0, 1]) == 2.0 + 1.0


def test_runs_are_whole_cycles():
    for workload in workloads.WORKLOADS:
        cycle = workloads.cycle_length(workload)
        assert workloads.operation_count(workload, 0.01) == workloads.MIN_CYCLES * cycle
        assert workloads.operation_count(workload, 25) % cycle == 0


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(50, 0, -1)])
    assert (value, pct, beyond) == (40.0, 80.0, 10)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[section]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
