"""Smoke test of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py``.
Every workload runs at a tiny size; each named metric must be printed
with its unit, and a deliberately corrupted output copy must count as a
failed op.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(*args):
    proc = _run(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _tiny(workload, trace, *extra):
    return _result("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--size", "tiny", *extra)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    result = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] >= 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed_op(workload):
    result = _tiny(workload, 0, "--corrupt", "1")
    assert result["correct"] is False
    assert result["failed"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
