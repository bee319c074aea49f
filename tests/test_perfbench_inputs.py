"""Every benchmark input, and the README's example config, still parses.

``perfbench/workloads.py`` generates the benchmark's configs from a seed;
a config the reader refuses would surface only as failed operations in
the slow benchmark run.  The generator is loaded from its file without
writing bytecode next to it.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from subcurv.cli import parse_config, scenario_from_config

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _load_workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
