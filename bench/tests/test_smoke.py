"""Smoke test of the benchmark: every workload once, untraced and traced.

    python3 -m pytest bench/tests

With --seconds 1 each run makes a single pass (a traced run one untraced and
one traced pass), so the whole test takes a couple of minutes on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload: str, trace: int) -> dict:
    return json.loads((ROOT / "bench" / "out" / f"{workload}-seed0-trace{trace}.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_declared_metrics_without_failures(workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in declared}
    if workload.startswith("design"):
        traced = result["metrics"]["search.best_ones"]["value"]
        assert traced > 0
        assert record(workload, 0)["best_ones"] == traced == record(workload, 1)["best_ones"]
