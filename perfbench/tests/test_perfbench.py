"""Tests of the benchmark itself, on tiny batches.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# counts the program computes, which must not depend on timing or on the run
EXACT_COUNTS = (
    "automata.product_states",
    "automata.product_transitions",
    "automata.registry_size",
    "verifier.closure_ops",
    "falsity.valuations",
    "falsity.queries",
)


def bench(workload: str, seed: int, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result(workload: str, seed: int, trace: int) -> dict:
    run = bench(workload, seed, trace)
    assert run.returncode == 0, run.stdout + run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_batch_checks_all_pass(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        res = result(workload, 3, trace)
        assert res["correct"] is True
        assert res["failed"] == 0 and res["attempted"] >= 1
        assert set(res["metrics"]) == {m["name"] for m in SPEC[kind]}
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(v["unit"] == units[k] for k, v in res["metrics"].items())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    first = result(workload, 5, 1)["metrics"]
    second = result(workload, 5, 1)["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_traced_layers_account_for_the_check():
    metrics = {k: v["value"] for k, v in result("case-study", 1, 1)["metrics"].items()}
    assert (metrics["automata.product_states"], metrics["automata.product_transitions"]) == (57, 185)
    assert (metrics["verifier.illegal_states"], metrics["verifier.bad_states"]) == (21, 57)
    assert metrics["verifier.witness_steps"] == 2
    attributed = metrics["trace.check_s"] - metrics["trace.unattributed_s"]
    assert attributed * metrics["trace.overhead_ratio"] >= 0.9 * metrics["trace.check_s"]


def test_receptive_pairs_are_kept_whole():
    metrics = {k: v["value"] for k, v in result("dense-receptive", 2, 1)["metrics"].items()}
    assert metrics["verifier.witness_steps"] == 0
    assert metrics["verifier.pruned_states"] == metrics["automata.product_states"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    run = bench("case-study", 1, 0, root=tmp_path)
    assert run.returncode != 0
    assert '"correct"' not in run.stdout
