"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Every workload must print all end-to-end metrics with no failed op, and its
traced run must print every per-layer metric and record spans for every layer
the workload reaches.  Without ``src/`` the benchmark must fail without a
result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Layers whose spans each workload's traced run must record
LAYERS_REACHED = {
    "small_n_fidelity": {"rng", "models", "stats"},
    "clt_large_n": {"rng", "models", "stats", "montecarlo"},
    "sizebias_coupling": {"rng", "stats", "sizebias"},
    "cli_tables": {"cli", "exact", "perm", "models", "stats", "rng"},
}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_tiny(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    info = json.loads(info_line)["info"]
    if trace:
        assert info["absent_bindings"] == []
        assert LAYERS_REACHED[workload] <= set(info["layers_reached"])
        assert abs(info["self_over_traced_wall"] - 1.0) <= 0.05
    else:
        assert result["metrics"]["success_rate"]["value"] == 1.0


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "cli_tables", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
