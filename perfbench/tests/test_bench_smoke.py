"""Toy-size runs of the benchmark: every metric is printed with its unit.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))

from tracer import span_table  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_toy_run_prints_every_metric(workload, trace):
    proc = _run(
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--docs", "20",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {
        name: (m["unit"], type(m["value"]) in (int, float))
        for name, m in result["metrics"].items()
    } == {m["name"]: (m["unit"], True) for m in declared}


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run("--workload", "all-modes-guard", "--seed", "1", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_child_coverage():
    # outer [0, 10] holds children [1, 3] and [4, 8]; the second holds [5, 6]
    trace = {
        "names": ["outer", "child", "grandchild"],
        "name_id": [0, 1, 1, 2],
        "parent": [-1, 0, 0, 2],
        "start": [0.0, 1.0, 4.0, 5.0],
        "end": [10.0, 3.0, 8.0, 6.0],
        "counts": {},
    }
    table = span_table(trace)
    assert table["outer"]["self_s"] == pytest.approx(4.0)
    assert table["child"]["self_s"] == pytest.approx(5.0)
    assert table["child"]["calls"] == 2
    assert table["grandchild"]["self_s"] == pytest.approx(1.0)
