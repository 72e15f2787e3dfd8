"""Smoke test of the kg-lab benchmark.

    python3 -m pytest kgbench/tests -q

Runs every workload briefly with a fixed seed, from the root of the
checkout this file sits in. Takes about a minute.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "kgbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def _run(workload, trace, seed=SEED):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_spec_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_command_prints_every_metric_with_its_unit(workload):
    report, result = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= workloads.MIN_OPS
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    text = "\n".join(report)
    for name, unit in expected.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b", text, re.M), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_the_same_seed(workload):
    runs = [_run(workload, trace=1)[1] for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in runs:
        assert result["correct"]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    counts = [name for name, unit in expected.items()
              if unit in ("count", "B") or name.endswith("distinct_ratio")]
    first, second = ({name: r["metrics"][name]["value"] for name in counts} for r in runs)
    assert first == second


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_generates_identical_inputs(workload, tmp_path):
    import kg_lab

    def digest(seed, work):
        work.mkdir()
        return workloads.inputs_digest(workloads.WORKLOADS[workload](kg_lab, seed, work))

    first = digest(SEED, tmp_path / "a")
    assert digest(SEED, tmp_path / "b") == first
    assert digest(SEED + 1, tmp_path / "c") != first
