"""The benchmark's layer tracer still fits the library it wraps.

``perfbench/tracer.py`` rebinds subcurv's functions and wraps every
compiled kernel, reading ``f.source``; a change to ``compile_expr`` or to
a wrapped name would otherwise surface only in the slow benchmark smoke
test.  The tracer is loaded from its file without writing bytecode next
to it.
"""

import functools
import importlib.util
import sys
from collections import OrderedDict
from pathlib import Path

import pytest

from subcurv import calculus as ca
from subcurv import cli, smp

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _intrinsic_pair():
    op = smp.IntrinsicOperator(2)
    u = ca.parse_expr("eta2^2/2 + tau/3 + 1/5", op.chart)
    return smp.ComparisonScenario("intrinsic", op, u, u, box=((-0.5, 0.5),) * 4, grid_counts=3)


def _report_bytes(make):
    return cli.dumps_report(smp.run_scenario(make()).as_dict())


@pytest.mark.parametrize(
    "make",
    [lambda: smp.builtin_scenario("h1-counterexample"), _intrinsic_pair],
    ids=["h1", "intrinsic"],
)
def test_traced_run_counts_kernel_calls_and_keeps_the_report(monkeypatch, make):
    plain = _report_bytes(make)
    # a fresh memo: the untraced run's kernels would answer every compile, and the
    # traced run's wrapped kernels leave with this memo
    monkeypatch.setattr(ca, "_BUILT", OrderedDict())
    tracer = _load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        traced = _report_bytes(make)
    finally:
        tracer.uninstall()
    assert traced == plain
    summary = tracer.summary()
    totals = summary["totals"]
    assert totals["calculus.kernel_eval"][0] > 0
    assert totals["calculus.compile_expr"][0] > 0
    assert totals["smp.operator_build"][0] > 0
    # nodes are interned: no two distinct node objects share a structure
    counters = summary["counters"]
    assert counters["dag_nodes_structural"] == counters["dag_nodes_id"] > 0
    # uninstall put the originals back
    assert _report_bytes(make) == plain


def test_traced_run_on_a_warm_memo_still_counts_the_symbolic_layers(monkeypatch):
    # the symbolic memo sits inside each traced function, so a build that
    # it answers is still a call, and the report keeps its bytes
    make = functools.partial(smp.builtin_scenario, "h1-counterexample")
    plain = _report_bytes(make)
    tracer = _load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        traced = _report_bytes(make)
    finally:
        tracer.uninstall()
    assert traced == plain
    totals = tracer.summary()["totals"]
    for name in ("smp.operator_build", "brackets.lie_bracket", "brackets.tangent_distribution_fields"):
        assert totals[name][0] > 0, name


def test_traced_propagation_counts_every_trajectory_and_step(monkeypatch):
    # the benchmark's smp.integrate_field.* and smp.rk4_* metrics read the
    # module attribute that _propagate calls
    make = functools.partial(smp.builtin_scenario, "vertical-hyperplane")
    steps = []
    real = smp.integrate_field

    def counting(*args, **kwargs):
        traj = real(*args, **kwargs)
        steps.append(len(traj.points) - 1)
        return traj

    monkeypatch.setattr(smp, "integrate_field", counting)
    plain = _report_bytes(make)
    monkeypatch.setattr(smp, "integrate_field", real)
    tracer = _load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        traced = _report_bytes(make)
    finally:
        tracer.uninstall()
    assert traced == plain
    summary = tracer.summary()
    assert len(steps) == summary["totals"]["smp.integrate_field"][0] == 96
    assert summary["counters"]["rk4_steps_computed"] == sum(steps) > 0


def test_every_traced_operator_class_defines_its_own_build(monkeypatch):
    # the tracer wraps cls.__dict__["build"], where a build inherited
    # from a shared base class would be missing
    for cls_name in _load_tracer(monkeypatch).OPERATOR_CLASSES:
        assert "build" in vars(getattr(smp, cls_name)), cls_name
