"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the repository root (a few minutes)::

    python3 -m pytest -q perfbench/selftest.py

They check that tracing changes no result (every traced run executes
each unit untraced and traced with the same inputs and fails on any
difference), that the work counts repeat exactly from run to run, that
the checks pass on a second seed, that ``BENCHMARK.json`` declares
exactly the metrics the benchmark prints, and that the benchmark fails
cleanly without the simulator's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOADS, per_layer_units  # noqa: E402

#: Per-layer counts that must repeat exactly for a given seed.
REPEATABLE = (
    "engine.steps.",
    "core.step_calls.",
    "sweep.points_",
    "provenance.stamps",
)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return completed


def result(workload: str, seed: int, trace: int) -> dict:
    completed = bench(workload, seed, trace)
    assert completed.returncode == 0, completed.stderr
    document = json.loads(completed.stdout.splitlines()[-1])
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"], completed.stdout
    assert document["failed"] == 0
    return document


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_match_untraced_and_repeat_counts(workload):
    first = result(workload, 7, 1)["metrics"]
    second = result(workload, 7, 1)["metrics"]
    assert set(first) == set(per_layer_units())
    counts = {
        name: entry["value"]
        for name, entry in first.items()
        if name.startswith(REPEATABLE)
    }
    assert counts == {name: second[name]["value"] for name in counts}
    assert any(counts.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_pass_on_a_second_seed(workload):
    metrics = result(workload, 2, 0)["metrics"]
    assert set(metrics) == set(END_TO_END)
    assert all(entry["value"] > 0 for entry in metrics.values())


def test_benchmark_json_declares_the_printed_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {
        m["name"]: m["unit"] for m in declared["per_layer"]
    } == per_layer_units()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_fails_without_the_simulator():
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            HERE, bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        completed = bench(WORKLOADS[0], 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert completed.returncode != 0
    assert not completed.stdout.strip()
