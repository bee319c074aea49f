"""Layer spans recorded from outside subcurv.

``Tracer.install()`` replaces public functions of subcurv's modules with
timing wrappers.  Each wrapped name is rebound in every subcurv module
that holds the same function object, because callers look names up in
their own module (``smp.bracket_generate_rank``, ``brackets.matrix_rank``,
``compile_expr`` in each importing module, ...).  ``uninstall()`` puts
the originals back.

Rules:

* One span stack per thread.  Pool threads of the threaded sweep start
  with an empty stack; their kernel time, as thread CPU time, is charged
  under a lock to the span open on the thread that installed the tracer
  (it waits in ``run_scenario`` for them).
* A call of a name already open on the thread's stack is folded into the
  outer span, so recursive ``cli.dumps_report`` and nested structure
  constructors are timed once, at the outermost call.
* Compiled kernels are wrapped too; their per-point calls are folded
  into a count and a total per thread, never one span per call.
* Spans stay in memory (``self.spans``) and are written out by the
  caller at the end of the run.
* Bookkeeping done on a span's result (DAG walks) is charged to the
  parent as child time, so it never shows as any layer's self time.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

_perf = time.perf_counter
_cpu = time.thread_time

# span name -> [(module, attribute)] of the originals to wrap
WRAPPED = {
    "calculus.parse_expr": [("calculus", "parse_expr")],
    "calculus.differentiate": [("calculus", "differentiate")],
    "calculus.simplify": [("calculus", "simplify")],
    "calculus.substitute": [("calculus", "substitute")],
    "calculus.evaluate": [("calculus", "evaluate")],
    "calculus.compile_expr": [("calculus", "compile_expr")],
    "core.p_mean_curvature_expr": [("core", "p_mean_curvature_expr")],
    "core.conorm_sq_expr": [("core", "conorm_sq_expr")],
    "heisenberg.structure": [
        ("heisenberg", "standard_structure"),
        ("heisenberg", "cylinder_structure"),
        ("heisenberg", "drift_graph_structure"),
    ],
    "heisenberg.graph_exprs": [
        ("heisenberg", "graph_HF_exprs"),
        ("heisenberg", "la_graph_exprs"),
        ("heisenberg", "intrinsic_graph_exprs"),
        ("heisenberg", "radial_curvature_expr"),
    ],
    "brackets.bracket_generate_rank": [("brackets", "bracket_generate_rank")],
    "brackets.lie_bracket": [("brackets", "lie_bracket")],
    "brackets.tangent_distribution_fields": [("brackets", "tangent_distribution_fields")],
    "numerics.matrix_rank": [("numerics", "matrix_rank")],
    "numerics.newton_minimize": [("numerics", "newton_minimize")],
    "smp.run_scenario": [("smp", "run_scenario")],
    "smp.integrate_field": [("smp", "integrate_field")],
    "cli.parse_config": [("cli", "parse_config")],
    "cli.scenario_from_config": [("cli", "scenario_from_config")],
    "cli.dumps_report": [("cli", "dumps_report")],
    "cli.write_scenario_csv": [("cli", "write_scenario_csv")],
}

# operator classes whose ``build`` returns (H, |dphi|^2) on the chart
OPERATOR_CLASSES = (
    "GenericOperator", "GraphHFOperator", "IntrinsicOperator",
    "LaGraphOperator", "RadialCylinderOperator",
)


def dag_counts(expr):
    """(structurally distinct nodes, id-distinct nodes) of an expression DAG."""
    ids = {}
    struct = {}
    stack = [(expr, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in ids:
            continue
        kids = getattr(node, "children", None)
        if kids is None:
            base = getattr(node, "base", None)
            kids = (base,) if base is not None else ()
            child = getattr(node, "child", None)
            if child is not None:
                kids = (child,)
        if not ready:
            stack.append((node, True))
            stack.extend((c, False) for c in kids if id(c) not in ids)
            continue
        payload = (
            getattr(node, "value", None),
            getattr(node, "index", None),
            getattr(node, "exponent", None),
        )
        key = (type(node).__name__, payload, tuple(ids[id(c)] for c in kids))
        ids[id(node)] = struct.setdefault(key, len(struct))
    return len(struct), len(ids)


class _ThreadState:
    __slots__ = ("stack", "active", "kcalls", "ksec")

    def __init__(self):
        self.stack = []
        self.active = set()
        self.kcalls = 0
        self.ksec = 0.0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patched = []
        self._root = None
        self._next_id = 0
        self.op = None
        self.spans = []
        self.reset()

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def reset(self):
        """Start a new accumulation window (one pass over the traced ops)."""
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counters = defaultdict(float)
        with self._lock:
            for st in self._states:
                st.kcalls, st.ksec = 0, 0.0

    # -- spans --------------------------------------------------------------

    def _charge_orphan(self, dt):
        root = self._root
        if root is not None and root.stack:
            with self._lock:
                root.stack[-1][3] += dt

    def _wrap(self, name, orig, post=None):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            if name in st.active:
                return orig(*args, **kwargs)
            parent = st.stack[-1][1] if st.stack else None
            tracer._next_id += 1
            frame = [name, tracer._next_id, _perf(), 0.0]
            st.stack.append(frame)
            st.active.add(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = _perf()
                st.stack.pop()
                st.active.discard(name)
                dur = t1 - frame[2]
                if st.stack:
                    st.stack[-1][3] += dur
                with tracer._lock:
                    tot = tracer.totals[name]
                    tot[0] += 1
                    tot[1] += dur
                    tot[2] += dur - frame[3]
                tracer.spans.append((tracer.op, frame[1], parent, name, frame[2], t1))
            if post is not None:
                t2 = _perf()
                post(result, st)
                if st.stack:
                    st.stack[-1][3] += _perf() - t2
            return result

        return functools.wraps(orig)(wrapper)

    def _wrap_kernel(self, f):
        tracer = self

        def kernel(point, _f=f):
            st = tracer._state()
            if st.stack or st is tracer._root:
                t0 = _perf()
                try:
                    return _f(point)
                finally:
                    dt = _perf() - t0
                    st.kcalls += 1
                    st.ksec += dt
                    if st.stack:
                        st.stack[-1][3] += dt
            # pool thread: its wall time would include waiting for the GIL
            # while the other thread runs, so count its CPU time instead
            t0 = _cpu()
            try:
                return _f(point)
            finally:
                dt = _cpu() - t0
                st.kcalls += 1
                st.ksec += dt
                tracer._charge_orphan(dt)

        kernel.source = f.source
        return kernel

    # -- result bookkeeping ---------------------------------------------------

    def _count_dag(self, expr):
        unique, nodes = dag_counts(expr)
        self.counters["dag_nodes_structural"] += unique
        self.counters["dag_nodes_id"] += nodes

    def _post_compile(self, f, st):
        self.counters["kernel_lines"] += len(f.source.splitlines())

    def _post_h(self, h, st):
        # the generic operator's H is counted once, after restriction to the graph
        if "smp.operator_build" not in st.active:
            self._count_dag(h)

    def _post_build(self, result, st):
        self._count_dag(result[0])

    def _post_rank(self, report, st):
        self.counters["words_generated"] += report.words_generated
        self.counters["words_built"] += self._words_in_rank
        self._words_in_rank = 0

    def _post_bracket(self, field, st):
        if "brackets.bracket_generate_rank" in st.active:
            self._words_in_rank += 1

    def _post_newton(self, result, st):
        self.counters["newton_converged"] += 1 if result[1] else 0

    def _post_integrate(self, result, st):
        self.counters["rk4_steps_computed"] += len(result.points) - 1

    def _post_run(self, report, st):
        data = report.as_dict()
        self.counters["rk4_steps_used"] += sum(p["steps_used"] for p in data["propagation"])
        npts = 1
        for _, _, count in data["grid"]["axes"]:
            npts *= count
        self.counters["grid_points"] += npts
        self.counters["points_masked"] += sum(1 for row in report.table if row[-2] or row[-1])

    def _post_text(self, key):
        def post(text, st):
            self.counters[key] += len(text.encode("utf-8"))
        return post

    # -- install / uninstall ----------------------------------------------------

    def install(self):
        import subcurv
        from subcurv import brackets, calculus, cli, core, heisenberg, numerics, smp

        modules = {
            "calculus": calculus, "core": core, "heisenberg": heisenberg,
            "brackets": brackets, "numerics": numerics, "smp": smp, "cli": cli,
        }
        holders = list(modules.values()) + [subcurv]
        self._root = self._state()
        self._words_in_rank = 0
        posts = {
            "calculus.compile_expr": self._post_compile,
            "core.p_mean_curvature_expr": self._post_h,
            "brackets.bracket_generate_rank": self._post_rank,
            "brackets.lie_bracket": self._post_bracket,
            "numerics.newton_minimize": self._post_newton,
            "smp.integrate_field": self._post_integrate,
            "smp.run_scenario": self._post_run,
            "cli.dumps_report": self._post_text("dumps_report_bytes"),
            "cli.write_scenario_csv": self._post_text("write_scenario_csv_bytes"),
        }
        for name, sites in WRAPPED.items():
            for mod_name, attr in sites:
                orig = getattr(modules[mod_name], attr)
                if name == "calculus.compile_expr":
                    wrapped = self._wrap(name, self._compile_with_kernels(orig), posts[name])
                else:
                    wrapped = self._wrap(name, orig, posts.get(name))
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            self._patched.append((holder, key, orig))
                            setattr(holder, key, wrapped)
        for cls_name in OPERATOR_CLASSES:
            cls = getattr(smp, cls_name)
            orig = cls.__dict__["build"]
            self._patched.append((cls, "build", orig))
            setattr(cls, "build", self._wrap("smp.operator_build", orig, self._post_build))

    def _compile_with_kernels(self, orig):
        def compile_expr(e, nvars):
            return self._wrap_kernel(orig(e, nvars))
        return compile_expr

    def uninstall(self):
        for holder, key, orig in reversed(self._patched):
            setattr(holder, key, orig)
        self._patched = []
        self._root = None

    # -- summary ----------------------------------------------------------------

    def summary(self) -> dict:
        """Totals since the last reset: {name: [calls, total_s, self_s]}, counters."""
        with self._lock:
            kcalls = sum(st.kcalls for st in self._states)
            ksec = sum(st.ksec for st in self._states)
        totals = {k: list(v) for k, v in self.totals.items()}
        totals["calculus.kernel_eval"] = [kcalls, ksec, ksec]
        return {"totals": totals, "counters": dict(self.counters)}
