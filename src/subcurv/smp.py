"""Strong-maximum-principle comparison harness.

A scenario pairs two graphs u, v over a chart with a curvature operator
and tolerances.  The harness measures: ordering (v >= u), the touching
set, the curvature gap max(H(v) - H(u)) over jointly nonsingular grid
points, singular fractions, the bracket-closure rank of the tangent
distribution at touching points, and propagation of the touching along
integral curves of tangent fields.  Classification is a pure function of
those measurements; the harness never asserts a theorem, only
instance-level consistency.

Each graph is swept once over the grid's points (a ``GridSpec``, a lazy
sequence) by one loop generated for it (:func:`core.compile_sweep`) into a
record that every later measurement reads by grid position, so no norm is
evaluated after the sweep; a grid point carries no curvature value where
the graph is singular or H cannot be evaluated there.  The touching and
singular clusters and the 5-cell balls work on these flat positions and
derive an index along an axis from its stride (:func:`core.row_major_strides`).
If the data comes in with the larger graph labelled u, the engine swaps
the two records, and every later measurement (rank and propagation
included) reads the lower graph as u: exchanging u and v changes only
the report's ``swapped`` flag.  At ``jobs >= 2`` this process builds and
compiles v's kernel, and a forked child runs it while u is swept here (:class:`_ForkedSweep`).

Each operator states its map to the ambient manifold, where the rank
condition is checked, once, as expressions: ``projection`` (the chart
coordinates of an ambient point), ``embedding`` (the ambient point over
the chart coordinates, with the graph value as the last variable) and the
graph's ambient ``axis``.  ``phi(u) = u o projection - x^axis`` defines
the graph there, ``lift(chart_pt, u_val)`` evaluates the embedding, and
the propagation stop test is generated from the projection.  The rank
target is the hypersurface dimension ``structure.dim - 1``.  ``lift``
raises ``ValueError`` outside the chart, and a scenario's box must lift
at every corner.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import marshal
import math
import operator
import os
import signal
from fractions import Fraction
from typing import Optional, Sequence

from . import calculus as ca
from .calculus import CoordSystem, Expr
from .core import (
    GridSpec,
    IndefiniteCometric,
    ScalarField,
    SingularPoint,
    SubriemannianStructure,
    VectorFieldExpr,
    compile_sweep,
    conorm_sq_expr,
    default_eps_sing,
    eps_sing_ok,
    grid_clusters,
    is_singular,
    newton_refiner,
    p_mean_curvature_expr,
    require_finite,
    row_major_strides,
    undefined_at,
)
from .brackets import bracket_generate_rank, tangent_distribution_fields
from .heisenberg import (
    cylinder_structure,
    graph_HF_exprs,
    intrinsic_chart,
    intrinsic_graph_exprs,
    la_graph_exprs,
    radial_curvature_expr,
    standard_drift,
    standard_structure,
    drift_graph_structure,
)

__all__ = [
    "Tolerances",
    "GenericOperator",
    "GraphHFOperator",
    "IntrinsicOperator",
    "LaGraphOperator",
    "RadialCylinderOperator",
    "ComparisonScenario",
    "ScenarioReport",
    "IntegrationResult",
    "PropagationResult",
    "integrate_field",
    "propagate_max",
    "variation_check",
    "run_scenario",
    "classify",
    "builtin_scenario",
    "builtin_names",
]


class ParameterError(ValueError):
    """A refused scenario parameter.  ``parameters`` names the keyword at
    fault first, then any other keyword its rule reads."""

    def __init__(self, message: str, *parameters: str):
        super().__init__(message)
        self.parameters = parameters


class Tolerances:
    """Harness tolerances; defaults separate exact zeros from grid noise."""

    __slots__ = ("eps_touch", "eps_order", "eps_h", "eps_sing")

    def __init__(
        self,
        eps_touch: float = 1e-6,
        eps_order: float = 1e-9,
        eps_h: float = 1e-7,
        eps_sing: Optional[float] = None,
    ):
        self.eps_touch = float(eps_touch)
        self.eps_order = float(eps_order)
        self.eps_h = float(eps_h)
        self.eps_sing = default_eps_sing() if eps_sing is None else float(eps_sing)
        for key in ("eps_touch", "eps_order", "eps_h"):
            if not getattr(self, key) >= 0:
                raise ParameterError(f"{key} must be >= 0, got {getattr(self, key)!r}", key)
        if not eps_sing_ok(self.eps_sing):
            raise ParameterError(
                f"eps_sing must be > 0 and square to a positive float, got {self.eps_sing!r}", "eps_sing")

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


# ---------------------------------------------------------------------------
# Operator selectors
# ---------------------------------------------------------------------------


class _GraphOperator:
    """``phi`` and ``lift`` of every operator, from its ``projection``,
    ``embedding`` and ``axis`` (see the module docstring)."""

    def phi(self, u: Expr) -> Expr:
        return ca.sub(ca.substitute(u, dict(enumerate(self.projection))), ca.var(self.axis))

    def lift(self, chart_pt, u_val: float):
        pt = (*chart_pt, u_val)
        return tuple(ca.evaluate(e, pt) for e in self.embedding)


class GenericOperator(_GraphOperator):
    """Weighted-divergence curvature of the graph x^g = u on a structure.

    The defining function is u - x^g (compatible with shifting the graph
    coordinate); H and the squared covector norm are restricted to the
    graph through the embedding with w = u, which also moves each later
    coordinate down one index.  The ambient manifold is the structure
    itself.
    """

    kind = "generic"

    def __init__(self, structure: SubriemannianStructure, p=0, graph_dir=None):
        self.structure = structure
        self.p = Fraction(p)
        if self.p < 0:
            raise ValueError("p must be >= 0")
        dim = structure.dim
        g = self.axis = dim - 1 if graph_dir is None else int(graph_dir)
        if not 0 <= g < dim:
            raise ValueError("graph direction outside chart")
        self.chart = CoordSystem(n for i, n in enumerate(structure.coords.names) if i != g)
        self.projection = [ca.var(i) for i in range(dim) if i != g]
        chart = [ca.var(k) for k in range(dim - 1)]
        self.embedding = chart[:g] + [ca.var(dim - 1)] + chart[g:]  # x^g = w

    def build(self, u: Expr):
        S = self.structure

        def make():
            phi = self.phi(u)
            on_graph = ca.substitute(self.embedding, {len(self.chart): u})
            exprs = [p_mean_curvature_expr(S, phi, self.p), conorm_sq_expr(S, phi)]
            return tuple(ca.substitute(exprs, dict(enumerate(on_graph))))

        return ca.built((self.kind, S.cometric, S.volume_density, self.p, self.axis, u), make)

    def params(self) -> dict:
        return {
            "p": str(self.p),
            "graph_dir": self.structure.coords.names[self.axis],
        }


class GraphHFOperator(GenericOperator):
    """div((grad u + F)/|grad u + F|) for graphs over R^m with drift F: the
    generic graph over the last coordinate of the drift-graph structure on
    R^(m+1), with its closed-form curvature."""

    kind = "graph_HF"

    def __init__(self, F: Sequence[Expr], m: int):
        super().__init__(drift_graph_structure(F, m))
        self.F = list(F)
        self.m = m

    def build(self, u: Expr):
        return ca.built((self.kind, tuple(self.F), self.m, u), lambda: graph_HF_exprs(self.F, u, self.m))

    def params(self) -> dict:
        return {"F": [ca.unparse(f, self.chart) for f in self.F]}


class _TranslationGraphOperator(_GraphOperator):
    """Graphs x^1 = u(eta, tau) along x1-translations, on the (eta, tau)
    chart with eta^j = x^j (2 <= j <= n), eta^(n+j) = y^j and
    tau = z + sign x^1 eta^(n+1); the ambient manifold is the standard
    group chart."""

    axis = 0

    def __init__(self, n: int):
        self.n = n
        self.chart = intrinsic_chart(n)
        self.structure = standard_structure(n)
        eta = [ca.var(c) for c in range(2 * n - 1)]
        tau, w = ca.var(2 * n - 1), ca.var(2 * n)
        self.projection = [ca.var(c + 1) for c in range(2 * n - 1)]
        self.projection.append(ca.add(ca.var(2 * n), ca.mul(self.sign, ca.var(0), ca.var(n))))
        self.embedding = [w, *eta, ca.add(tau, ca.mul(-self.sign, w, eta[n - 1]))]

    def params(self) -> dict:
        return {"n": self.n}


class IntrinsicOperator(_TranslationGraphOperator):
    """Intrinsic-graph curvature: tau = z - x^1 eta^(n+1)."""

    kind = "intrinsic"
    sign = -1

    def build(self, u: Expr):
        return ca.built((self.kind, self.n, u), lambda: intrinsic_graph_exprs(u, self.n))


class LaGraphOperator(_TranslationGraphOperator):
    """Curvature of graphs transversal to x1-translations: tau = z + x^1 eta^(n+1)."""

    kind = "la_graph"
    sign = 1

    def build(self, u: Expr):
        return ca.built((self.kind, self.n, u), lambda: la_graph_exprs(u, self.n))


class RadialCylinderOperator(_GraphOperator):
    """Rotationally symmetric graphs z = u(r) on the punctured cylinder,
    r = sqrt(sum of the 2n squared horizontal coordinates) > 0; the
    ambient manifold is the cylinder structure."""

    kind = "radial_cylinder"

    def __init__(self, n: int):
        self.n = n
        self.chart = CoordSystem(("r",))
        self.structure = cylinder_structure(n)
        self.axis = 2 * n
        self.projection = [ca.sqrt_(ca.add(*[ca.pow_(ca.var(i), 2) for i in range(2 * n)]))]
        self.embedding = [ca.var(0), *[ca.ZERO] * (2 * n - 1), ca.var(1)]

    def lift(self, chart_pt, u_val: float):
        if not chart_pt[0] > 0:
            raise ValueError(f"the radial chart needs r > 0, got r = {chart_pt[0]}")
        return super().lift(chart_pt, u_val)

    def build(self, u: Expr):
        return ca.built((self.kind, self.n, u), lambda: radial_curvature_expr(u, self.n))

    def params(self) -> dict:
        return {"n": self.n}


# ---------------------------------------------------------------------------
# Scenario and report
# ---------------------------------------------------------------------------


class ComparisonScenario:
    """Two graphs, an operator, a grid, and tolerances."""

    def __init__(
        self,
        name: str,
        operator,
        u: Expr,
        v: Expr,
        box,
        grid_counts=65,
        tolerances: Optional[Tolerances] = None,
        T: float = 0.5,
        step: float = 1e-3,
        max_propagation_starts: int = 8,
        rank_depth: int = 2,
        description: str = "",
    ):
        self.name = name
        self.operator = operator
        chart = operator.chart
        try:
            self.u = ScalarField(u, chart, box)
            self.v = ScalarField(v, chart, box)
            self.box = tuple((float(lo), float(hi)) for lo, hi in box)
            for corner in itertools.product(*self.box):
                operator.lift(corner, 0.0)  # raises where the box leaves the chart
        except ValueError as exc:
            raise ParameterError(str(exc), "box") from exc
        if isinstance(grid_counts, int):
            grid_counts = tuple(grid_counts for _ in self.box)
        self.grid_counts = tuple(int(c) for c in grid_counts)
        if len(self.grid_counts) != len(self.box):
            raise ParameterError("one grid count per box axis", "grid_counts")
        npoints = math.prod(self.grid_counts)
        if npoints > MAX_GRID_POINTS:  # refused before any point exists
            raise ParameterError(f"grid {self.grid_counts} asks for {npoints} points, "
                                 f"over the bound of {MAX_GRID_POINTS}", "grid_counts")
        try:
            self.grid()  # a degenerate axis with more than one point fails here
        except ValueError as exc:
            raise ParameterError(str(exc), "box", "grid_counts") from exc
        self.tolerances = tolerances or Tolerances()
        self.T = float(T)
        self.step = float(step)
        _rk4_steps(self.T, self.step)
        self.max_propagation_starts = int(max_propagation_starts)
        if self.max_propagation_starts < 0:
            raise ParameterError("max_propagation_starts must be >= 0", "max_propagation_starts")
        self.rank_depth = int(rank_depth)
        if self.rank_depth < 1:
            raise ParameterError("rank_depth must be >= 1", "rank_depth")
        self.description = description

    def grid(self) -> GridSpec:
        return GridSpec(
            [
                (lo, hi, count)
                for (lo, hi), count in zip(self.box, self.grid_counts)
            ]
        )


class ScenarioReport:
    """Measurements plus the classification derived from them, and the CSV's
    columns over ``grid`` in grid order: ``du`` (v - u), ``h_u``, ``h_v``."""

    def __init__(self, data: dict, grid: GridSpec, du: list, h_u: list, h_v: list):
        self.data, self.grid, self.du, self.h_u, self.h_v = data, grid, du, h_u, h_v

    @property
    def table(self) -> list:
        """The CSV's rows, built on each call, with the masks as 0/1 ints."""
        return [(*pt, d, a, b, int(a is None), int(b is None))
                for pt, d, a, b in zip(self.grid, self.du, self.h_u, self.h_v)]

    @property
    def classification(self) -> str:
        return self.data["classification"]

    def as_dict(self) -> dict:
        return self.data

    def __repr__(self):
        return f"ScenarioReport({self.data['scenario']}: {self.classification})"


# ---------------------------------------------------------------------------
# Grid sweep machinery
# ---------------------------------------------------------------------------


def _kernel(op, name: str, expr: Expr, eps_sq: float):
    """Graph ``name``'s sweep: ``op.build``, then :func:`core.compile_sweep`, each memoized per process."""
    try:
        built = op.build(expr)
    except OverflowError as exc:  # a constant folded while building H left the float range
        raise ca.EvaluationError(f"graph {name}: outside the float range while building H ({exc})") from None
    return compile_sweep(*built, len(op.chart), eps_sq, graph=(name, expr))


class _SweptGraph:
    """One graph swept over the grid by its :func:`_kernel`, or by a ``child``
    (:class:`_ForkedSweep`) that runs it: ``expr``, the ``values``, the masked curvature
    ``h`` and ``low``, the positions whose squared norm is not ``>= eps_sq``, with that
    norm.  An indefinite cometric names the graph and its ambient point (``op.lift``)."""

    __slots__ = ("expr", "values", "h", "low")

    def __init__(self, op, name: str, expr: Expr, points, eps_sq: float, child=None):
        self.expr = expr
        sweep = child.result if child is not None else _kernel(op, name, expr, eps_sq)
        try:
            self.values, self.h, self.low = sweep(points)
        except IndefiniteCometric as exc:
            pt = exc.point
            raise IndefiniteCometric(op.lift(pt, ca.evaluate(expr, pt)), exc.sq, name) from None


class _ForkedSweep:
    """v's kernel (``sweep``, built and compiled here) run over ``points`` by a
    forked child while this process sweeps u.  The child only runs it, sends a
    successful record over a pipe and leaves by ``os._exit``.  :meth:`result`
    reaps it and returns its record, or after an exception, a non-zero exit or
    a signal runs ``sweep`` here, so v's error keeps its type and message.
    :meth:`close` kills and reaps a child not yet reaped."""

    def __init__(self, sweep, points):
        self.sweep = sweep
        fd, w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                os.close(fd)
                with open(w, "wb") as out:
                    out.write(marshal.dumps(sweep(points)))
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        self.pipe = open(fd, "rb")

    def result(self, points):
        data = self.pipe.read()  # to EOF: the child has exited
        status = os.waitpid(self.pid, 0)[1]
        self.pid = None
        return marshal.loads(data) if status == 0 else self.sweep(points)

    def close(self):
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


class _ScenarioEngine:
    """Compiles and sweeps the scenario once, in the orientation v >= u.

    Everything is measured in ``__init__``.  When the data arrives with
    the larger graph labelled u, the engine swaps its two graph records
    (the scenario is never changed), so every measurement below reads one
    orientation: ``u`` is always the lower graph, also in the column
    ``du`` (v - u), in ``hits`` (|v - u| <= eps_touch) and in the ordering's
    first least ``du``.  One record serves u and v when they are one
    expression; else, at ``jobs >= 2`` where ``os.fork`` exists, a forked child runs
    v's kernel, built and compiled here (no fork if that raises); none outlives ``__init__``.
    """

    def __init__(self, scenario: ComparisonScenario, jobs: int = 1):
        self.sc = scenario
        op = scenario.operator
        self.nvars = len(op.chart)
        self.tol = tol = scenario.tolerances
        self.grid = grid = scenario.grid()
        eps_sq = tol.eps_sing ** 2
        u_expr, v_expr = scenario.u.expr, scenario.v.expr  # interned: equal means identical
        sweep = None
        if jobs >= 2 and v_expr is not u_expr and hasattr(os, "fork"):
            with contextlib.suppress(Exception):  # no fork: v's error follows u's sweep, as at jobs = 1
                sweep = _kernel(op, "v", v_expr, eps_sq)  # built and compiled here; the child only sweeps
        child = _ForkedSweep(sweep, grid) if sweep else None
        try:
            u = _SweptGraph(op, "u", u_expr, grid, eps_sq)
            v = u if v_expr is u_expr else _SweptGraph(op, "v", v_expr, grid, eps_sq, child)
        finally:
            if child is not None:
                child.close()
        du = list(map(operator.sub, v.values, u.values))
        require_finite("v - u", du, grid)
        eps = tol.eps_order
        du_min, du_max = min(du), max(du)
        holds = du_min >= -eps or du_max <= eps
        # data that arrived with the larger graph labelled u is relabelled
        self.swapped = not du_min >= -eps and du_max <= eps
        if self.swapped:
            u, v = v, u
            du = list(map(operator.neg, du))
        self.u, self.v, self.du = u, v, du
        near = map(tol.eps_touch.__ge__, map(abs, du))
        self.hits = list(itertools.compress(range(len(du)), near))
        k_min = du.index(min(du))
        self.ordering = {
            "min_v_minus_u": du[k_min],
            "argmin": list(grid[k_min]),
            "holds": holds,
        }

    # -- measurements ----------------------------------------------------

    def touching_clusters(self):
        """The clusters of ``hits`` (:func:`core.grid_clusters`), each with one
        Newton-refined representative: the cell farthest in index steps from the
        faces of the axes with more than one point, the first in grid order."""
        if not self.hits:
            return []
        du, shape = self.du, self.grid.shape
        diff = ca.sub(self.v.expr, self.u.expr)
        refine = newton_refiner(diff, self.nvars, self.grid)
        # each axis: its stride, its count and the index steps from each index to the nearer face
        axes = [(s, c, [min(i, c - 1 - i) for i in range(c)]) for s, c in zip(row_major_strides(shape), shape)]
        out = []
        for cells in grid_clusters(self.hits, shape):
            columns = [[k // s % c for k in cells] for s, c, _ in axes]  # each cell's index on each axis
            faces = [list(map(steps.__getitem__, col)) for col, (_, c, steps) in zip(columns, axes) if c > 1]
            depth = list(map(min, zip(*faces))) if faces else [0]  # a grid of one point: one cell
            j = depth.index(max(depth))
            k, pt = cells[j], self.grid[cells[j]]
            refined, ok = refine(pt)
            value = ca.evaluate(diff, refined) if ok and _in_box(refined, self.sc.box) else None
            ok = value is not None and abs(value) <= self.tol.eps_touch
            rep = {"index": [col[j] for col in columns], "point": list(pt),
                   "refined_point": [float(c) for c in refined] if ok else list(pt),
                   "value": value if ok else du[k], "refined": ok}
            out.append({"cells": len(cells), "index_lo": list(map(min, columns)),
                        "index_hi": list(map(max, columns)),
                        "max_abs_v_minus_u": max(map(abs, map(du.__getitem__, cells))),
                        "representative": rep})
        return out

    def gap(self):
        """max H(v) - H(u) over jointly nonsingular grid points, at the first one."""
        gaps = [None if a is None or b is None else b - a for a, b in zip(self.u.h, self.v.h)]
        found = [g for g in gaps if g is not None]
        best = max(found, default=None)
        return {
            "max": best,
            "argmax": list(self.grid[gaps.index(best)]) if found else None,
            "points_evaluated": len(found),
        }

    def singular(self, graph: _SweptGraph):
        """Fraction and connected clusters (grid adjacency) of the cells
        where ``graph`` carries no curvature value; no scan without one."""
        cells = [k for k, h in enumerate(graph.h) if h is None] if None in graph.h else []
        return len(cells) / len(self.grid), len(grid_clusters(cells, self.grid.shape))

    @functools.cached_property
    def box_stop(self):
        """``(stop, devs)``, generated once: ``stop(p)`` is true once the
        ``projection`` of ``p`` has no value or leaves the box (:func:`_in_box`);
        else it appends |v - u| there to ``devs``, v then u inline by one
        emitter, so what they share is evaluated once."""
        op = self.sc.operator
        proj_lines, project = ca.emitter(op.structure.dim, temp="q")
        chart = [project(e) for e in op.projection]
        cs = ", ".join(f"c{i}" for i in range(len(chart))) + ","
        inside = " and ".join(f"{lo!r} <= c{i} <= {hi!r}" for i, (lo, hi) in enumerate(self.sc.box))
        lines, emit = ca.emitter(self.nvars, "c{}")
        v, u = emit(self.v.expr), emit(self.u.expr)
        src = (
            "def f(p):\n    try:\n" + "".join(f"        {line}\n" for line in proj_lines)
            + f"        {cs} = {', '.join(chart)},\n    except _FAULTS:\n        return True\n"
            f"    if not ({inside}):\n        return True\n"
            + "".join(f"    {line}\n" for line in lines)
            + f"    record(abs({v} - {u}))\n    return False\n"
        )
        devs = []
        return ca.compile_source(src, "f", "box-stop", inf=math.inf, record=devs.append), devs


def _in_box(pt, box) -> bool:
    return all(lo <= c <= hi for c, (lo, hi) in zip(pt, box))


# ---------------------------------------------------------------------------
# Public measurement operations
# ---------------------------------------------------------------------------


class IntegrationResult:
    """Fixed-step one-step integration output; ``end`` is completed, stopped or aborted."""

    __slots__ = ("points", "end", "completed", "note")

    def __init__(self, points, end, note=""):
        self.points = points
        self.end = end
        self.completed = end == "completed"
        self.note = note

    @property
    def endpoint(self):
        return self.points[-1]

    def __len__(self):
        return len(self.points)


# a trajectory keeps every point: 10**6 points of five coordinates take about 0.2 GB
MAX_RK4_STEPS = 10**6

# a grid costs up to about 0.9 kB of peak RSS per point (measured: 0.5 kB in
# a scenario run, 0.85 kB in ``curvature --grid N --format json``), so
# 5 * 10**5 points stay under about 0.5 GB
MAX_GRID_POINTS = 5 * 10**5


def _rk4_steps(T: float, step: float) -> int:
    """The number of steps that integrate over time T at most ``step`` apart:
    ``ceil(|T| / step)``, and at least one unless T is 0.  A step that is not
    positive, or a count that is not finite or over :data:`MAX_RK4_STEPS`,
    raises ``ValueError``."""
    if step <= 0:
        raise ParameterError("step must be positive", "step")
    count = abs(T) / step
    if not count <= MAX_RK4_STEPS:
        raise ParameterError(
            f"|T| / step asks for {count!r} RK4 steps, over the bound of {MAX_RK4_STEPS}", "T", "step")
    return max(1, math.ceil(count)) if T != 0 else 0


def integrate_field(
    X: VectorFieldExpr, x0: Sequence[float], T: float, step: float, stop=None
) -> IntegrationResult:
    """Classical 4th-order integration of dx/dt = X(x) over [0, T].

    Negative T integrates backwards, in ``ceil(|T| / step)`` equal steps;
    a step that is not positive, or more than :data:`MAX_RK4_STEPS` steps,
    raises ``ValueError``.  Evaluation failure ends the partial trajectory
    as ``"aborted"``.  ``stop(point)``, when given, is called on the start
    point and on each new point; the first point for which it returns true
    ends the trajectory as ``"stopped"``.  A zero field rests after its
    first step: its later points repeat that point with no ``stop`` call,
    so ``stop`` must be pure.
    """
    nsteps = _rk4_steps(T, step)
    h = T / nsteps if nsteps else 0.0
    x = tuple(float(c) for c in x0)
    return IntegrationResult(*X.integrator()(x, h, nsteps, stop))


class PropagationResult:
    __slots__ = (
        "start",
        "field_index",
        "direction",
        "max_deviation",
        "first_violation_step",
        "steps_used",
        "exited_box",
        "ok",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def propagate_max(
    scenario: ComparisonScenario,
    start: Sequence[float],
    fields: Sequence[VectorFieldExpr],
    T: Optional[float] = None,
    step: Optional[float] = None,
) -> list:
    """Propagate a touching point along tangent fields, both directions.

    The fields live on the ambient structure; each trajectory starts at
    the graph lift of ``start``, ends at its first point whose chart
    projection leaves the box, and |v - u| is tracked along the chart
    projection.  Success for a trajectory means it stays within
    eps_touch.
    """
    if scenario.operator.structure.frame_fields is None:
        raise ValueError("scenario operator's ambient structure has no frames")
    engine = _ScenarioEngine(scenario)
    start = tuple(start)
    lifted = scenario.operator.lift(start, ca.evaluate(engine.u.expr, start))
    return _propagate(engine, fields, start, lifted, T, step)


def _propagate(engine, fields, start, lifted, T=None, step=None):
    """The records of :func:`propagate_max` from chart point ``start``,
    whose lift onto the lower graph is ``lifted``."""
    sc = engine.sc
    T = sc.T if T is None else float(T)
    step = sc.step if step is None else float(step)
    eps = engine.tol.eps_touch
    stop, devs = engine.box_stop  # devs: |v - u| at each point inside the box that stop saw
    out = []
    for fi, X in enumerate(fields):
        for direction in (1.0, -1.0):
            devs.clear()
            # stops at the first point whose projection leaves the box or has
            # no value; a field component with no value aborts it inside the box
            traj = integrate_field(X, lifted, direction * T, step, stop=stop)
            max_dev = max([0.0, *devs])
            first_violation = next((si for si, dev in enumerate(devs) if dev > eps), None)
            out.append(
                PropagationResult(
                    start=list(start),
                    field_index=fi,
                    direction=int(direction),
                    max_deviation=max_dev,
                    first_violation_step=first_violation,
                    steps_used=max(len(traj.points) - 1 - (traj.end == "stopped"), 0),
                    exited_box=traj.end == "stopped",
                    ok=max_dev <= eps,
                )
            )
    return out


# ---------------------------------------------------------------------------
# Variational consistency check
# ---------------------------------------------------------------------------


def variation_check(
    F: Sequence[Expr],
    u: ScalarField,
    f: ScalarField,
    grid: int = 64,
) -> float:
    """Weak-form residual of the graph curvature operator.

    Computes R = int(N_F(u) . grad f) + int(f H_F(u)) by tensor-product
    midpoint quadrature over f's box and returns |R| / (int|f| + 1); the
    identity R = 0 is the integration-by-parts statement that H_F is the
    divergence of the unit horizontal normal.  f must vanish on the box
    boundary.  :func:`core.compile_sweep` sweeps N_F(u) . grad f + f H_F(u)
    over the midpoints where f is not 0, and a point it masks there raises
    :class:`SingularPoint` if singular, else an evaluation error naming it;
    a face point or midpoint where f has no value raises one naming f.
    """
    if f.box is None:
        raise ValueError("test function needs a domain box")
    m = len(f.coords)
    if len(F) != m:
        raise ValueError("drift dimension mismatch")
    box = f.box
    f_fn = ca.compile_expr(f.expr, m)

    def f_at(pt):
        try:
            return f_fn(pt)
        except ca.FAULTS as exc:
            raise undefined_at("test function f", pt, exc) from None

    # boundary vanishing check on face grids
    for axis in range(m):
        for edge in box[axis]:
            face = [(edge, edge, 1) if i == axis else (lo, hi, 9) for i, (lo, hi) in enumerate(box)]
            for pt in GridSpec(face).points():
                if abs(f_at(pt)) > 1e-12:
                    raise ValueError(f"test function does not vanish on the boundary at {pt}")
    h_expr, norm_sq = graph_HF_exprs(F, u.expr, m)
    inv_norm = ca.pow_(norm_sq, Fraction(-1, 2))
    integrand = ca.add(
        *[ca.mul(ca.add(ca.differentiate(u.expr, j), F[j]), inv_norm, ca.differentiate(f.expr, j))
          for j in range(m)],
        ca.mul(f.expr, h_expr),
    )
    eps_sq = default_eps_sing() ** 2

    widths = [(hi - lo) / grid for (lo, hi) in box]
    vol = math.prod(widths)
    mids = [[lo + (k + 0.5) * w for k in range(grid)] for (lo, _), w in zip(box, widths)]
    total = total_abs_f = 0.0
    support = []  # outside it nothing contributes, and nothing is evaluated
    for pt in itertools.product(*mids):
        fv = f_at(pt)
        total_abs_f += abs(fv) * vol
        if fv != 0.0:
            support.append(pt)
    _, terms, low = compile_sweep(integrand, norm_sq, m, eps_sq)(support)
    for k, term in enumerate(terms):
        if term is None:
            pt = support[k]
            if k in low and is_singular(low[k], pt, eps_sq):
                raise SingularPoint(f"singular point inside test support at {pt}")
            raise undefined_at("weak-form integrand", pt, "no finite value")
        total += term * vol
    return abs(total) / (total_abs_f + 1.0)


# ---------------------------------------------------------------------------
# Orchestration and classification
# ---------------------------------------------------------------------------


def _coincide_check(engine):
    """``(coincides, separation_witness)`` of a nonempty touching set: every
    touching point's 5-cell index ball stays within eps_touch exactly when
    every grid point touches, as the grid is connected.  The witness is the
    first point beyond eps_touch in the touching points' balls, in grid order."""
    du, eps = engine.du, engine.tol.eps_touch
    if len(engine.hits) == len(du):
        return True, None
    shape = engine.grid.shape
    strides = row_major_strides(shape)
    radius = 5

    def ball(k):  # offsets along each axis (k's index there is i), summing to a grid position
        return itertools.product(*[range(max(0, i - radius) * s, min(c, i + radius + 1) * s, s)
                                   for s, c in zip(strides, shape) for i in (k // s % c,)])

    far = next(nb for k in engine.hits for nb in ball(k) if abs(du[sum(nb)]) > eps)
    return False, [o // s for o, s in zip(far, strides)]


def classify(measurements: dict) -> str:
    """Classification as a pure function of recorded measurements.
    ``inconclusive`` never comes from :func:`run_scenario`: there, a
    touching set either coincides or separates."""
    if not measurements["ordering"]["holds"]:
        return "hypothesis-violated"
    gap = measurements["curvature_gap"]["max"]
    if gap is not None and gap > measurements["tolerances"]["eps_h"]:
        return "hypothesis-violated"
    if measurements["touching_count"] == 0:
        return "smp-consistent"
    if measurements["coincides_near_touching"]:
        return "coincide-near-touching"
    if measurements["separates_near_touching"]:
        label = "counterexample-detected"
        rank = measurements["rank"]
        if rank is not None and rank["rank"] < rank["expected"]:
            label += ";rank-condition-failed"
        return label
    return "inconclusive"


def run_scenario(scenario: ComparisonScenario, jobs: int = 1) -> ScenarioReport:
    """Execute every measurement and classify.

    Classification rules: ordering or curvature-comparison failure means
    hypothesis-violated; touching with coincidence on every 5-cell
    neighborhood ball means coincide-near-touching; touching with a
    strict separation inside some ball, under intact hypotheses, means
    counterexample-detected (with rank-condition-failed appended when the
    bracket closure misses the hypersurface dimension at the touching
    point); anything else is smp-consistent or inconclusive.

    ``jobs >= 2`` runs v's kernel, built and compiled here, in a forked child
    while u is swept here, where ``os.fork`` exists and u and v differ; the
    report, or the error, is the same at every ``jobs``.
    """
    engine = _ScenarioEngine(scenario, jobs)
    u, hits = engine.u, engine.hits
    touching = engine.touching_clusters()
    gap = engine.gap()
    frac_u, clusters_u = engine.singular(u)
    frac_v, clusters_v = engine.singular(engine.v)
    coincides, separation_witness = _coincide_check(engine) if hits else (False, None)
    separates = bool(hits) and not coincides

    # rank verdict at the first touching point (grid order), when the
    # operator's ambient structure has frames
    op = scenario.operator
    rank_data = None
    propagation = []
    eps_sq = engine.tol.eps_sing ** 2
    # a position outside ``low`` has squared norm >= eps_sq
    singular_touch = any(
        u.low.get(k, eps_sq) < eps_sq or engine.v.low.get(k, eps_sq) < eps_sq
        for k in hits
    )
    if hits and op.structure.frame_fields is not None:
        # the rank hypothesis is checked on the lower graph, at regular points
        fields = tangent_distribution_fields(op.structure, op.phi(u.expr))
        rank_k = next((k for k in hits if k not in u.low), None)
        if rank_k is not None:
            rank_point = engine.grid[rank_k]
            lifted = op.lift(rank_point, u.values[rank_k])
            target = op.structure.dim - 1  # the dimension of the hypersurface
            report = bracket_generate_rank(fields, lifted, max_depth=scenario.rank_depth,
                                           target_rank=target)
            rank_data = {
                "rank": report.rank,
                "depth": report.depth,
                "words_generated": report.words_generated,
                "pivot_tol": report.pivot_tol,
                "expected": target,
                "point": list(rank_point),
            }
            for k in hits[: scenario.max_propagation_starts]:
                if k not in u.low:
                    start = engine.grid[k]
                    lifted = op.lift(start, u.values[k])
                    propagation.extend(r.as_dict() for r in _propagate(engine, fields, start, lifted))

    measurements = {
        "schema_version": "2",
        "scenario": scenario.name,
        "description": scenario.description,
        "operator": {"kind": op.kind, **op.params()},
        "grid": engine.grid.as_dict(),
        "tolerances": engine.tol.as_dict(),
        "swapped": engine.swapped,
        "ordering": engine.ordering,
        "touching_count": len(hits),
        "touching_clusters": touching,
        "curvature_gap": gap,
        "singular_fraction_u": frac_u,
        "singular_fraction_v": frac_v,
        "singular_clusters_u": clusters_u,
        "singular_clusters_v": clusters_v,
        "singular_touch": singular_touch,
        "coincides_near_touching": coincides,
        "separates_near_touching": separates,
        "separation_witness": separation_witness,
        "rank": rank_data,
        "propagation": propagation,
    }
    measurements["notes"] = (["singular-touch: a touching grid point is singular for u or v; "
                              "whether it is an isolated singular point is not measured"]
                             if singular_touch else [])
    measurements["classification"] = classify(measurements)
    return ScenarioReport(measurements, engine.grid, engine.du, engine.u.h, engine.v.h)


# ---------------------------------------------------------------------------
# Builtin scenarios
# ---------------------------------------------------------------------------


def _h1_counterexample() -> ComparisonScenario:
    op = GraphHFOperator(standard_drift(2), 2)
    x1, x2 = ca.var(0), ca.var(1)
    u = ca.add(ca.mul(x1, x2), ca.pow_(x2, 2))
    v = ca.mul(x1, x2)
    return ComparisonScenario(
        "h1-counterexample",
        op,
        u,
        v,
        box=((0.5, 1.5), (-0.4, 0.4)),
        description=(
            "two zero-curvature graphs over the plane that touch along a "
            "segment without coinciding; the tangent distribution has "
            "bracket rank 1 < 2"
        ),
    )


def _translate_coincide() -> ComparisonScenario:
    S = standard_structure(1)
    op = GenericOperator(S, p=0, graph_dir=2)
    x1, y1 = ca.var(0), ca.var(1)
    u = ca.add(ca.pow_(x1, 2), ca.pow_(y1, 2))
    v = u  # pullback by the zero translation
    return ComparisonScenario(
        "translate-coincide",
        op,
        u,
        v,
        box=((0.5, 1.5), (-0.5, 0.5)),
        description="a graph compared against its zero-translation pullback",
    )


def _cylinder_sphere_paraboloid() -> ComparisonScenario:
    n = 2
    S = cylinder_structure(n)
    op = GenericOperator(S, p=0, graph_dir=2 * n)
    r_lo = 0.6
    c = 1.0
    # paraboloid coefficient from value matching at the inner radius:
    # radial slope matching has no solution (the normals are never
    # parallel), so the graphs touch along the inner boundary circle.
    c_par = math.sqrt(c - r_lo ** 4) / (2 * r_lo ** 2)
    r_sq = ca.add(*[ca.pow_(ca.var(i), 2) for i in range(2 * n)])
    v = ca.mul(
        ca.const(Fraction(1, 2)),
        ca.pow_(ca.sub(ca.const(c), ca.pow_(r_sq, 2)), Fraction(1, 2)),
    )
    u = ca.mul(ca.const(c_par), r_sq)
    box = ((0.6, 0.68),) + (((-0.04, 0.04)),) * (2 * n - 1)
    return ComparisonScenario(
        "cylinder-sphere-paraboloid",
        op,
        u,
        v,
        box=box,
        grid_counts=9,
        description=(
            "a zero-curvature sphere cap against a constant-curvature "
            "paraboloid touching along a circle; the curvature comparison "
            "goes the wrong way once the ordering is normalized"
        ),
    )


def _hyperplane_z() -> ComparisonScenario:
    op = GraphHFOperator(standard_drift(2), 2)
    return ComparisonScenario(
        "hyperplane-z",
        op,
        ca.ZERO,
        ca.ZERO,
        box=((-1.0, 1.0), (-1.0, 1.0)),
        description=(
            "the flat horizontal graph: zero curvature away from one "
            "isolated singular point at the origin"
        ),
    )


def _vertical_hyperplane() -> ComparisonScenario:
    n = 2
    op = LaGraphOperator(n)
    c = ca.const(Fraction(3, 10))
    return ComparisonScenario(
        "vertical-hyperplane",
        op,
        c,
        c,
        box=(((-0.5, 0.5)),) * (2 * n),
        grid_counts=9,
        description=(
            "a vertical hyperplane as a transversal graph: zero curvature, "
            "no singular points, full tangent bracket rank"
        ),
    )


_BUILTINS = {
    "h1-counterexample": _h1_counterexample,
    "translate-coincide": _translate_coincide,
    "cylinder-sphere-paraboloid": _cylinder_sphere_paraboloid,
    "hyperplane-z": _hyperplane_z,
    "vertical-hyperplane": _vertical_hyperplane,
}


def builtin_names() -> list:
    return sorted(_BUILTINS)


def builtin_scenario(name: str) -> ComparisonScenario:
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(builtin_names())}"
        ) from None
    return factory()
