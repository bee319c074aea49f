"""The benchmark's layer tracer still fits the library it wraps.

``perfbench/tracer.py`` rebinds subcurv's functions and wraps every
compiled kernel, reading ``f.source``; a change to ``compile_expr`` or to
a wrapped name would otherwise surface only in the slow benchmark smoke
test.  The tracer is loaded from its file without writing bytecode next
to it.
"""

import importlib.util
import sys
from pathlib import Path

from subcurv import cli, smp

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report_bytes(name):
    return cli.dumps_report(smp.run_scenario(smp.builtin_scenario(name)).as_dict())


def test_traced_run_counts_kernel_calls_and_keeps_the_report(monkeypatch):
    plain = _report_bytes("h1-counterexample")
    tracer = _load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        traced = _report_bytes("h1-counterexample")
    finally:
        tracer.uninstall()
    assert traced == plain
    totals = tracer.summary()["totals"]
    assert totals["calculus.kernel_eval"][0] > 0
    assert totals["calculus.compile_expr"][0] > 0
    # uninstall put the originals back
    assert _report_bytes("h1-counterexample") == plain
