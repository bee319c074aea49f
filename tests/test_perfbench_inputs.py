"""Every benchmark input, and the README's example config, still parses,
the outputs of the small benchmark configs pass the benchmark's checks,
and one pass of a workload's configs fits the symbolic memo.

``perfbench/workloads.py`` generates the benchmark's configs from a seed;
a config the reader refuses, or an output its oracle refuses (the sweep
and cold-cli checks compare the CSV header exactly, so one more column
fails them), would surface only as failed operations in the slow
benchmark run.  The generator and ``perfbench/oracles.py`` are loaded
from their files without writing bytecode next to them.
"""

import hashlib
import importlib.util
import random
import re
import sys
from collections import OrderedDict
from pathlib import Path

import pytest

from subcurv import calculus as ca
from subcurv import smp
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


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# One digest per node from its kind, its payload (with the type of a
# rational and the bits of a constant's float) and its operands' digests
# in order: equal for equal trees in any process, free of object ids.
_TREE_DIGEST = {
    ca.Const: lambda node, _: _sha(
        f"C {type(node.value).__name__} {node.value} {node._float.hex()}"),
    ca.Var: lambda node, _: _sha(f"V {node.index}"),
    ca.Add: lambda node, kids: _sha("A " + " ".join(kids)),
    ca.Mul: lambda node, kids: _sha("M " + " ".join(kids)),
    ca.Pow: lambda node, kids: _sha(
        f"P {type(node.exponent).__name__} {node.exponent} {kids[0]}"),
}


def _trees(monkeypatch):
    """(label, tree) for the parsed trees of every workload config of seed 1
    (u, v, phi, cometric entries, density) and for the built (H, |dphi|*^2)
    of u and v of each builtin scenario."""
    workloads = _load_workloads(monkeypatch)
    for workload in workloads.WORKLOADS:
        for config in workloads.configs(workload, 1):
            doc = parse_config(config["text"])
            sc = scenario_from_config(doc)
            where = f"{workload}/{config['id']}"
            yield f"{where}/u", sc.u.expr
            yield f"{where}/v", sc.v.expr
            if doc.structure_raw is not None:
                S = doc.structure()
                if "phi" in doc.functions:
                    yield f"{where}/phi", doc.function("phi", S.coords).expr
                for l, row in enumerate(S.cometric):
                    for k, entry in enumerate(row):
                        yield f"{where}/cometric.{l}.{k}", entry
                yield f"{where}/density", S.volume_density
    for name in smp.builtin_names():
        sc = smp.builtin_scenario(name)
        for graph in ("u", "v"):
            h, sq = sc.operator.build(getattr(sc, graph).expr)
            yield f"builtin/{name}/{graph}/H", h
            yield f"builtin/{name}/{graph}/sq", sq


def test_every_tree_is_the_pinned_tree(monkeypatch):
    # a guard for changes to the smart constructors and the parser: any
    # change to any of these trees (a node, an order, a constant's type or
    # float) moves the digest
    memo: dict = {}
    lines = [f"{label} {ca._fold(tree, _TREE_DIGEST, memo)}\n"
             for label, tree in _trees(monkeypatch)]
    assert len(lines) == 8792
    assert _sha("".join(lines)) == "4cff6b096ed7fe092400815ea7c2d60b87b93acadb6bc5a2448879f2c92907fe"


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


def test_tiny_sweep_configs_run_twice_in_one_process_at_jobs_2(monkeypatch, tmp_path):
    # the benchmark's warm steady state: the second run of a config finds its
    # builds and generated code in this process's memos
    workloads = _load_workloads(monkeypatch)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    oracles = _load(monkeypatch, "perfbench_oracles", ORACLES)
    configs = workloads.configs("sweep", 101, "tiny")
    for cfg in configs:
        path = tmp_path / f"{cfg['id']}.ini"
        path.write_text(cfg["text"], encoding="utf-8")
        outputs = []
        for run, jobs in enumerate(("2", "2", "1")):
            report, table = (tmp_path / f"{cfg['id']}-{run}.{ext}" for ext in ("json", "csv"))
            args = ["scenario", "run", "--config", str(path), "--out", str(report),
                    "--csv", str(table), "--jobs", jobs]
            assert main(args) == 0, cfg["id"]
            outputs.append((report.read_text(encoding="utf-8"), table.read_text(encoding="utf-8")))
            assert oracles.check_sweep(cfg, *outputs[-1]) is None, f"{cfg['id']} run {run}"
        assert outputs[0] == outputs[1] == outputs[2], cfg["id"]
    assert len(configs) == 2


def test_a_second_benchmark_pass_builds_nothing(monkeypatch):
    # the benchmark's steady state: parsed texts share calculus.built with
    # the operator builds, tangent fields and bracket words, and one pass of
    # a workload's seed-101 configs must fit it, so that the next pass finds
    # every key it uses
    workloads = _load_workloads(monkeypatch)
    real, misses = ca.built, []

    def counting(key, make):
        if key not in ca._BUILT:
            misses.append(key)
        return real(key, make)

    monkeypatch.setattr(ca, "built", counting)
    for workload, jobs in (("touch", 1), ("sweep", 2)):
        memo = OrderedDict()
        monkeypatch.setattr(ca, "_BUILT", memo)
        configs = workloads.configs(workload, 101)
        per_pass = []
        for _ in range(2):
            misses.clear()
            for cfg in configs:
                smp.run_scenario(scenario_from_config(parse_config(cfg["text"])), jobs)
            per_pass.append(len(misses))
        # every key of the first pass is still kept, parsed texts among them
        assert per_pass == [len(memo), 0], workload
        assert any(key[0] == "parse" for key in memo), workload
