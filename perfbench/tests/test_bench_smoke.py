"""Tiny-size runs of every workload, untraced and traced, and the exit contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads_run_py_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.SIZES)
    assert SPEC["command"] == ["python3", f"{BENCH.name}/run.py"]
    assert SPEC["paths"] == [BENCH.name]


@pytest.mark.parametrize("workload", list(workloads.SIZES))
def test_end_to_end_tiny(workload):
    result = run.run_workload(workload, seed=3, seconds=0, trace=False, size="tiny")
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    # warm-up round + 5 set-up rounds, plus at least 3 repeats
    runs_per_round = len(workloads.commands(workload, 3, BENCH, "tiny"))
    assert result["attempted"] >= (6 + 3) * runs_per_round
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.SIZES))
def test_trace_tiny(workload):
    result = run.run_workload(workload, seed=3, seconds=0, trace=True, size="tiny")
    assert result["problems"] == []
    assert result["correct"]
    metrics = result["metrics"]
    assert metrics["trace.repeats"]["value"] >= 2
    assert {k: m["unit"] for k, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["cli.main.calls"]["value"] == len(
        workloads.commands(workload, 3, BENCH, "tiny"))
    subcommand_calls = {
        name: m["value"] for name, m in metrics.items()
        if name.startswith("cli.cmd_") and name.endswith(".calls")
    }
    assert sum(subcommand_calls.values()) == metrics["cli.main.calls"]["value"]
    assert metrics["trace.self_sum_s"]["value"] == pytest.approx(
        metrics["trace.traced_wall_s"]["value"], abs=1e-3)


def test_trace_counters_on_estimate():
    result = run.run_workload("simulate-estimate", seed=3, seconds=0, trace=True,
                              size="tiny")
    m = {name: v["value"] for name, v in result["metrics"].items()}
    p = workloads.SIZES["simulate-estimate"]["tiny"]
    lattice = int(p["k"] * workloads.T) + 1
    assert m["samplers.rows_drawn"] == p["n"]
    assert m["empirical.rows_ranked"] == p["n"] * workloads.D
    assert m["empirical.tail_rows_used"] == workloads.D * lattice
    assert m["empirical.lattice_cells"] == lattice ** workloads.D
    assert m["empirical.rank_waste_ratio"] == pytest.approx(p["n"] / lattice)
    assert m["reportio.rows_written"] == p["n"] + lattice ** workloads.D
    assert m["reportio.bytes_read"] > 0
    assert m["reportio.bytes_written"] > m["reportio.bytes_read"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "classify-rate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
