"""Every benchmark input, and the README's example config, still parses,
and the outputs of the small benchmark configs pass the benchmark's checks.

``perfbench/workloads.py`` generates the benchmark's configs from a seed;
a config the reader refuses, or an output its oracle refuses (the sweep
and cold-cli checks compare the CSV header exactly, so one more column
fails them), would surface only as failed operations in the slow
benchmark run.  The generator and ``perfbench/oracles.py`` are loaded
from their files without writing bytecode next to them.
"""

import importlib.util
import random
import re
import sys
from pathlib import Path

import pytest

from subcurv.cli import main, parse_config, scenario_from_config

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
ORACLES = ROOT / "perfbench" / "oracles.py"


def _load(monkeypatch, name, path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_workloads(monkeypatch):
    return _load(monkeypatch, "perfbench_workloads", WORKLOADS)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_workload_config_parses(monkeypatch, seed):
    workloads = _load_workloads(monkeypatch)
    count = 0
    for workload in workloads.WORKLOADS:
        for config in workloads.configs(workload, seed):
            doc = parse_config(config["text"])
            assert doc.scenario_raw is not None, config["id"]
            count += 1
    assert count == 429  # 8 sweep + 21 touch + 400 cold-cli


def test_every_scenario_of_one_seed_builds(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    for workload in workloads.WORKLOADS:
        for config in workloads.configs(workload, 1):
            scenario_from_config(parse_config(config["text"]))


def test_readme_example_config_parses():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration files", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    doc = parse_config(block)
    assert doc.structure_raw and doc.functions and doc.fields_raw and doc.scenario_raw


def test_small_benchmark_outputs_pass_the_oracles(monkeypatch, tmp_path):
    # each config of --size tiny runs through the CLI, as the benchmark's
    # cold-cli ops do (sweep at --jobs 2, as its in-process ops run)
    workloads = _load_workloads(monkeypatch)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # oracles imports it by name
    oracles = _load(monkeypatch, "perfbench_oracles", ORACLES)
    rng = random.Random(0)
    checked = 0
    for workload in workloads.WORKLOADS:
        for cfg in workloads.configs(workload, 101, "tiny"):
            path, report, table = (tmp_path / f"{cfg['id']}.{ext}" for ext in ("ini", "json", "csv"))
            path.write_text(cfg["text"], encoding="utf-8")
            if cfg.get("kind") == "curvature":
                args = ["curvature", "--config", str(path), "--function", "phi", "--p", cfg["p"],
                        "--grid", str(cfg["grid"]), "--format", "csv", "--out", str(table)]
            else:
                args = ["scenario", "run", "--config", str(path), "--out", str(report),
                        "--csv", str(table), "--jobs", "2" if workload == "sweep" else "1"]
            assert main(args) == 0, cfg["id"]
            report_text = report.read_text(encoding="utf-8") if report.exists() else None
            csv_text = table.read_text(encoding="utf-8")
            if workload == "sweep":
                error = oracles.check_sweep(cfg, report_text, csv_text)
            elif workload == "touch":
                error = oracles.check_touch(cfg, report_text, csv_text)
            else:
                error = oracles.check_cold(cfg, report_text, csv_text, rng)
            assert error is None, f"{cfg['id']}: {error}"
            checked += 1
    assert checked == 10  # 2 sweep + 4 touch + 4 cold-cli
