"""Smoke test of the benchmark itself: every workload at toy size, both
modes, every declared metric printed with its declared unit.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    table, result = run_bench(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workload != "elastic_churn":  # only elastic_churn may hit the leave race
        assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    rows = {line.split()[0]: line.split() for line in table if not line.startswith("#")}
    for m in declared:
        measured = result["metrics"][m["name"]]
        assert measured["unit"] == m["unit"]
        assert isinstance(measured["value"], (int, float))
        assert rows[m["name"]][2] == m["unit"], rows[m["name"]]

