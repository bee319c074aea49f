"""Strong-maximum-principle comparison harness.

A scenario pairs two graphs u, v over a chart with a curvature operator
and tolerances.  The harness measures: ordering (v >= u), the touching
set, the curvature gap max(H(v) - H(u)) over jointly nonsingular grid
points, singular fractions, the bracket-closure rank of the tangent
distribution at touching points, and propagation of the touching along
integral curves of tangent fields.  Classification is a pure function of
those measurements; the harness never asserts a theorem, only
instance-level consistency.

The pair is oriented once, when the grid is swept: if the data comes in
with the larger graph labelled u, the engine relabels its own copies of
the two graphs, their kernels and the per-point rows, and every later
measurement (rank and propagation included) reads the lower graph as u.
Exchanging u and v therefore changes only the report's ``swapped`` flag.
A grid point carries no curvature value where the graph is singular or
H cannot be evaluated there (:func:`core.masked_curvature`).

Each operator carries its own map to the ambient manifold where the rank
condition is checked: ``structure`` (None when there is none),
``expected_rank``, ``phi(u)`` (the defining function of the graph there),
``lift(chart_pt, u_val)`` and ``project(pt)``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from . import calculus as ca
from .calculus import CoordSystem, Expr, EvaluationError
from .core import (
    GridSpec,
    ScalarField,
    SingularPoint,
    SubriemannianStructure,
    VectorFieldExpr,
    conorm_sq_expr,
    default_eps_sing,
    grid_clusters,
    masked_curvature,
    newton_refiner,
    p_mean_curvature_expr,
)
from .brackets import bracket_generate_rank, lie_bracket, tangent_distribution_fields
from .heisenberg import (
    cylinder_structure,
    graph_coords,
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
    "touching_set",
    "curvature_gap",
    "variation_check",
    "run_scenario",
    "classify",
    "builtin_scenario",
    "builtin_names",
    "BUILTIN_DESCRIPTIONS",
]


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

    def as_dict(self) -> dict:
        return {
            "eps_touch": self.eps_touch,
            "eps_order": self.eps_order,
            "eps_h": self.eps_h,
            "eps_sing": self.eps_sing,
        }


# ---------------------------------------------------------------------------
# Operator selectors
# ---------------------------------------------------------------------------


class GenericOperator:
    """Weighted-divergence curvature of the graph x^g = u on a structure.

    The defining function is u - x^g (compatible with shifting the graph
    coordinate); H and the squared covector norm are restricted to the
    graph by substituting x^g = u, then reindexed to the chart.  The
    ambient manifold is the structure itself.
    """

    kind = "generic"

    def __init__(self, structure: SubriemannianStructure, p=0, graph_dir=None):
        self.structure = structure
        self.p = Fraction(p)
        if self.p < 0:
            raise ValueError("p must be >= 0")
        self.graph_dir = structure.dim - 1 if graph_dir is None else int(graph_dir)
        if not 0 <= self.graph_dir < structure.dim:
            raise ValueError("graph direction outside chart")
        names = [
            n for i, n in enumerate(structure.coords.names) if i != self.graph_dir
        ]
        self.chart = CoordSystem(names)
        self.expected_rank = structure.dim - 1

    def phi(self, u: Expr) -> Expr:
        g = self.graph_dir
        up = {k: ca.var(k if k < g else k + 1) for k in range(self.structure.dim - 1)}
        return ca.sub(ca.substitute(u, up), ca.var(g))

    def lift(self, chart_pt, u_val: float):
        pt = list(chart_pt)
        pt.insert(self.graph_dir, u_val)
        return tuple(pt)

    def project(self, pt):
        g = self.graph_dir
        return tuple(pt[:g]) + tuple(pt[g + 1 :])

    def build(self, u: Expr):
        S = self.structure
        g = self.graph_dir
        phi = self.phi(u)
        h_full = p_mean_curvature_expr(S, phi, self.p)
        sing_full = conorm_sq_expr(S, phi)
        on_graph = {g: ca.add(phi, ca.var(g))}  # x^g = u
        down = {k: ca.var(k - 1) for k in range(g + 1, S.dim)}
        h = ca.substitute(ca.substitute(h_full, on_graph), down)
        sing = ca.substitute(ca.substitute(sing_full, on_graph), down)
        return h, sing

    def params(self) -> dict:
        return {
            "p": str(self.p),
            "graph_dir": self.structure.coords.names[self.graph_dir],
        }


class GraphHFOperator:
    """div((grad u + F)/|grad u + F|) for graphs over R^m with drift F;
    the ambient manifold is the drift-graph structure on R^(m+1)."""

    kind = "graph_HF"

    def __init__(self, F: Sequence[Expr], m: int):
        self.structure = drift_graph_structure(F, m)
        self.F = list(F)
        self.m = m
        self.chart = graph_coords(m)
        self.expected_rank = m

    def phi(self, u: Expr) -> Expr:
        return ca.sub(u, ca.var(self.m))

    def lift(self, chart_pt, u_val: float):
        return tuple(chart_pt) + (u_val,)

    def project(self, pt):
        return tuple(pt[:-1])

    def build(self, u: Expr):
        return graph_HF_exprs(self.F, u, self.m)

    def params(self) -> dict:
        return {"F": [ca.unparse(f, self.chart) for f in self.F]}


class IntrinsicOperator:
    """Intrinsic-graph curvature on the (eta, tau) chart (no ambient map)."""

    kind = "intrinsic"
    structure = None

    def __init__(self, n: int):
        self.n = n
        self.chart = intrinsic_chart(n)

    def build(self, u: Expr):
        return intrinsic_graph_exprs(u, self.n)

    def params(self) -> dict:
        return {"n": self.n}


class LaGraphOperator:
    """Curvature of graphs transversal to x1-translations, (eta, tau) chart.
    Ambient: the standard group chart, tau = z + x^1 eta^(n+1), graph x^1."""

    kind = "la_graph"

    def __init__(self, n: int):
        self.n = n
        self.chart = intrinsic_chart(n)
        self.structure = standard_structure(n)
        self.expected_rank = 2 * n

    def phi(self, u: Expr) -> Expr:
        n = self.n
        # eta^(c+2) -> std coordinate c+1; tau -> z + x^1 * y^1
        up = {c: ca.var(c + 1) for c in range(2 * n - 1)}
        up[2 * n - 1] = ca.add(ca.var(2 * n), ca.mul(ca.var(0), ca.var(n)))
        return ca.sub(ca.substitute(u, up), ca.var(0))

    def lift(self, chart_pt, u_val: float):
        n = self.n
        eta_n1 = chart_pt[n - 1]
        tau = chart_pt[2 * n - 1]
        z = tau - u_val * eta_n1
        return (u_val,) + tuple(chart_pt[: 2 * n - 1]) + (z,)

    def project(self, pt):
        n = self.n
        tau = pt[2 * n] + pt[0] * pt[n]
        return tuple(pt[1 : 2 * n]) + (tau,)

    def build(self, u: Expr):
        return la_graph_exprs(u, self.n)

    def params(self) -> dict:
        return {"n": self.n}


class RadialCylinderOperator:
    """Rotationally symmetric graphs z = u(r) on the punctured cylinder
    (no ambient map)."""

    kind = "radial_cylinder"
    structure = None

    def __init__(self, n: int):
        self.n = n
        self.chart = CoordSystem(("r",))

    def build(self, u: Expr):
        h = radial_curvature_expr(u, self.n)
        du = ca.differentiate(u, 0)
        sing = ca.add(ca.pow_(du, 2), ca.pow_(ca.var(0), 2))
        return h, sing

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
        self.u = ScalarField(u, chart, box)
        self.v = ScalarField(v, chart, box)
        self.box = tuple((float(lo), float(hi)) for lo, hi in box)
        if isinstance(grid_counts, int):
            grid_counts = tuple(grid_counts for _ in self.box)
        self.grid_counts = tuple(int(c) for c in grid_counts)
        if len(self.grid_counts) != len(self.box):
            raise ValueError("one grid count per box axis")
        self.grid()  # a degenerate axis with more than one point fails here
        self.tolerances = tolerances or Tolerances()
        self.T = float(T)
        self.step = float(step)
        if self.step <= 0:
            raise ValueError("step must be positive")
        self.max_propagation_starts = int(max_propagation_starts)
        self.rank_depth = int(rank_depth)
        if self.rank_depth < 1:
            raise ValueError("rank_depth must be >= 1")
        self.description = description

    def grid(self) -> GridSpec:
        return GridSpec(
            [
                (lo, hi, count)
                for (lo, hi), count in zip(self.box, self.grid_counts)
            ]
        )


class ScenarioReport:
    """Measurements plus the classification derived from them."""

    def __init__(self, data: dict):
        self.data = data

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


class _ScenarioEngine:
    """Compiles and sweeps the scenario once, in the orientation v >= u.

    Everything is measured in ``__init__``.  When the data arrives with
    the larger graph labelled u, the engine relabels its own expressions,
    kernels and rows once (the scenario is never changed), so every
    measurement below reads one orientation: ``u_expr``/``u_fn``/
    ``sing_u_fn`` always belong to the lower graph.
    """

    def __init__(self, scenario: ComparisonScenario):
        self.sc = scenario
        op = scenario.operator
        self.nvars = nvars = len(op.chart)
        self.tol = tol = scenario.tolerances
        self.grid = scenario.grid()
        self.indices, self.points = zip(*self.grid.points())
        u_expr, v_expr = scenario.u.expr, scenario.v.expr
        hu, sing_u = op.build(u_expr)
        hv, sing_v = op.build(v_expr)
        u_fn = ca.compile_expr(u_expr, nvars)
        v_fn = ca.compile_expr(v_expr, nvars)
        sing_u_fn = ca.compile_expr(sing_u, nvars)
        sing_v_fn = ca.compile_expr(sing_v, nvars)
        eps_sq = tol.eps_sing ** 2
        u_vals = _graph_values(u_fn, "u", self.points)
        du = [b - a for a, b in zip(u_vals, _graph_values(v_fn, "v", self.points))]
        h_u = masked_curvature(ca.compile_expr(hu, nvars), sing_u_fn, self.points, eps_sq)
        h_v = masked_curvature(ca.compile_expr(hv, nvars), sing_v_fn, self.points, eps_sq)
        eps = tol.eps_order
        du_min, du_max = min(du), max(du)
        holds = du_min >= -eps or du_max <= eps
        # data that arrived with the larger graph labelled u is relabelled
        self.swapped = not du_min >= -eps and du_max <= eps
        if self.swapped:
            u_expr, v_expr, u_fn, v_fn = v_expr, u_expr, v_fn, u_fn
            sing_u_fn, sing_v_fn, h_u, h_v = sing_v_fn, sing_u_fn, h_v, h_u
            du = [-d for d in du]
        self.u_expr, self.v_expr, self.u_fn, self.v_fn = u_expr, v_expr, u_fn, v_fn
        self.sing_u_fn, self.sing_v_fn = sing_u_fn, sing_v_fn
        # per-point rows (v - u, H_u, H_v, u masked, v masked)
        self.rows = [(d, a, b, a is None, b is None) for d, a, b in zip(du, h_u, h_v)]
        k_min = min(range(len(du)), key=du.__getitem__)
        self.ordering = {
            "min_v_minus_u": du[k_min],
            "argmin": list(self.points[k_min]),
            "holds": holds,
        }

    # -- measurements ----------------------------------------------------

    def touching(self):
        """Grid points with |v-u| <= eps_touch, Newton-refined."""
        rows = self.rows
        eps = self.tol.eps_touch
        hit_ids = [k for k, r in enumerate(rows) if abs(r[0]) <= eps]
        diff = ca.sub(self.v_expr, self.u_expr)
        refine = newton_refiner(diff, self.nvars, self.grid)
        diff_fn = ca.compile_expr(diff, self.nvars)
        out = []
        for k in hit_ids:
            pt = self.points[k]
            refined, converged = refine(pt)
            ok = converged and abs(diff_fn(refined)) <= eps and _in_box(refined, self.sc.box)
            out.append(
                {
                    "index": list(self.indices[k]),
                    "point": list(pt),
                    "refined_point": [float(c) for c in refined] if ok else list(pt),
                    "value": diff_fn(refined) if ok else rows[k][0],
                    "refined": ok,
                }
            )
        return out

    def gap(self):
        """max H(v) - H(u) over jointly nonsingular grid points."""
        best = best_k = None
        evaluated = 0
        for k, (_, hu, hv, su, sv) in enumerate(self.rows):
            if su or sv:
                continue
            evaluated += 1
            g = hv - hu
            if best is None or g > best:
                best, best_k = g, k
        return {
            "max": best,
            "argmax": list(self.points[best_k]) if best_k is not None else None,
            "points_evaluated": evaluated,
        }

    def singular(self, col: int):
        """Fraction and connected clusters (grid adjacency) of the cells
        masked in row column ``col`` (3 for u, 4 for v)."""
        cells = [self.indices[k] for k, r in enumerate(self.rows) if r[col]]
        return len(cells) / len(self.rows), len(grid_clusters(cells))

    def table(self):
        """Per-point CSV table rows: coords, v-u, H_u, H_v, sing flags."""
        return [
            list(pt) + [du, hu, hv, int(su), int(sv)]
            for pt, (du, hu, hv, su, sv) in zip(self.points, self.rows)
        ]


def _graph_values(fn, name: str, points) -> list:
    """The graph's values on the grid; a domain hole names the graph and
    the chart point."""
    out = []
    try:
        for pt in points:
            out.append(fn(pt))
    except EvaluationError as exc:
        raise EvaluationError(
            f"graph {name} undefined at chart point {pt}: {exc}"
        ) from None
    return out


def _in_box(pt, box) -> bool:
    return all(lo <= c <= hi for c, (lo, hi) in zip(pt, box))


# ---------------------------------------------------------------------------
# Public measurement operations
# ---------------------------------------------------------------------------


def touching_set(scenario: ComparisonScenario, jobs: int = 1) -> list:
    """Points where the two graphs touch, with the ordering minimum.

    Returns the refined touching records; the ordering summary (min of
    v - u and its location) is available through :func:`run_scenario`.
    ``jobs`` is accepted and never changes the result; the sweep runs
    sequentially.
    """
    return _ScenarioEngine(scenario).touching()


def curvature_gap(scenario: ComparisonScenario, jobs: int = 1) -> dict:
    """max(H(v) - H(u)) over jointly nonsingular grid points + witness.

    ``jobs`` is accepted and never changes the result; the sweep runs
    sequentially.
    """
    return _ScenarioEngine(scenario).gap()


class IntegrationResult:
    """Fixed-step one-step integration output."""

    __slots__ = ("points", "completed", "note")

    def __init__(self, points, completed, note=""):
        self.points = points
        self.completed = completed
        self.note = note

    @property
    def endpoint(self):
        return self.points[-1]

    def __len__(self):
        return len(self.points)


def integrate_field(
    X: VectorFieldExpr, x0: Sequence[float], T: float, step: float, stop=None
) -> IntegrationResult:
    """Classical 4th-order integration of dx/dt = X(x) over [0, T].

    Negative T integrates backwards.  Evaluation failure aborts with the
    partial trajectory flagged.  ``stop(point)``, when given, is called
    on the start point and on each new point; the first point for which
    it returns true ends the trajectory, flagged incomplete.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    n = len(X.coords)
    rhs = X.kernel()
    nsteps = max(1, math.ceil(abs(T) / step)) if T != 0 else 0
    h = T / nsteps if nsteps else 0.0
    pts = [tuple(float(c) for c in x0)]
    if stop is not None and stop(pts[0]):
        return IntegrationResult(pts, False, "stopped at step 0")
    x = list(pts[0])
    for k in range(1, nsteps + 1):
        try:
            k1 = rhs(x)
            k2 = rhs([x[i] + 0.5 * h * k1[i] for i in range(n)])
            k3 = rhs([x[i] + 0.5 * h * k2[i] for i in range(n)])
            k4 = rhs([x[i] + h * k3[i] for i in range(n)])
        except (EvaluationError, OverflowError) as exc:
            return IntegrationResult(pts, False, f"integration aborted: {exc}")
        x = [
            x[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
            for i in range(n)
        ]
        pts.append(tuple(x))
        if stop is not None and stop(pts[-1]):
            return IntegrationResult(pts, False, f"stopped at step {k}")
    return IntegrationResult(pts, True)


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
    include_brackets: bool = False,
) -> list:
    """Propagate a touching point along tangent fields, both directions.

    The fields live on the ambient structure; each trajectory starts at
    the graph lift of ``start``, ends at its first point whose chart
    projection leaves the box, and |v - u| is tracked along the chart
    projection.  Success for a trajectory means it stays within
    eps_touch.
    """
    S = scenario.operator.structure
    if S is None or S.frame_fields is None:
        raise ValueError("scenario operator has no ambient structure with frames")
    engine = _ScenarioEngine(scenario)
    return _propagate(engine, list(fields), start, T, step, include_brackets)


def _propagate(engine, fields, start, T=None, step=None, include_brackets=False):
    sc = engine.sc
    op = sc.operator
    T = sc.T if T is None else float(T)
    step = sc.step if step is None else float(step)
    if include_brackets:
        extra = []
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                extra.append(lie_bracket(fields[i], fields[j]))
        fields = fields + extra
    u_fn, v_fn = engine.u_fn, engine.v_fn
    eps = engine.tol.eps_touch
    u0 = u_fn(tuple(start))
    lifted = op.lift(tuple(start), u0)
    out = []
    for fi, X in enumerate(fields):
        for direction in (1.0, -1.0):
            devs = []  # |v - u| at each trajectory point inside the box

            def leaves_box(pt, devs=devs):
                chart_pt = op.project(pt)
                if not _in_box(chart_pt, sc.box):
                    return True
                devs.append(abs(v_fn(chart_pt) - u_fn(chart_pt)))
                return False

            # stops at the first point outside the box, so an incomplete
            # trajectory either left the box or hit an evaluation failure
            traj = integrate_field(X, lifted, direction * T, step, stop=leaves_box)
            max_dev = 0.0
            first_violation = None
            for si, dev in enumerate(devs):
                if dev > max_dev:
                    max_dev = dev
                if dev > eps and first_violation is None:
                    first_violation = si
            out.append(
                PropagationResult(
                    start=list(start),
                    field_index=fi,
                    direction=int(direction),
                    max_deviation=max_dev,
                    first_violation_step=first_violation,
                    steps_used=max(len(devs) - 1, 0),
                    exited_box=not traj.completed,
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
    boundary; singular points of u inside the support abort.
    """
    if f.box is None:
        raise ValueError("test function needs a domain box")
    m = len(f.coords)
    if len(F) != m:
        raise ValueError("drift dimension mismatch")
    box = f.box
    f_fn = ca.compile_expr(f.expr, m)
    # boundary vanishing check on face grids
    for axis in range(m):
        for edge in (0, 1):
            face_axes = [
                (box[i][0], box[i][1], 9 if i != axis else 1) for i in range(m)
            ]
            lo, hi = box[axis]
            face_axes[axis] = (lo if edge == 0 else hi, lo if edge == 0 else hi, 1)
            for _, pt in GridSpec(face_axes).points():
                if abs(f_fn(pt)) > 1e-12:
                    raise ValueError(
                        f"test function does not vanish on the boundary at {pt}"
                    )
    h_expr, norm_sq = graph_HF_exprs(F, u.expr, m)
    comps = [ca.add(ca.differentiate(u.expr, j), F[j]) for j in range(m)]
    inv_norm = ca.pow_(norm_sq, Fraction(-1, 2))
    n_fns = [ca.compile_expr(ca.mul(c, inv_norm), m) for c in comps]
    norm_fn = ca.compile_expr(norm_sq, m)
    h_fn = ca.compile_expr(h_expr, m)
    grad_f_fns = [
        ca.compile_expr(ca.differentiate(f.expr, j), m) for j in range(m)
    ]
    eps_sq = default_eps_sing() ** 2

    counts = [grid] * m
    widths = [(hi - lo) / grid for (lo, hi) in box]
    vol = 1.0
    for w in widths:
        vol *= w
    mids = [
        [box[i][0] + (k + 0.5) * widths[i] for k in range(counts[i])]
        for i in range(m)
    ]
    total = 0.0
    total_abs_f = 0.0
    for idx in itertools.product(*[range(c) for c in counts]):
        pt = tuple(mids[i][idx[i]] for i in range(m))
        fv = f_fn(pt)
        total_abs_f += abs(fv) * vol
        if fv == 0.0:
            continue  # outside the support nothing contributes
        if norm_fn(pt) < eps_sq:
            raise SingularPoint(f"singular point inside test support at {pt}")
        term = sum(n_fns[j](pt) * grad_f_fns[j](pt) for j in range(m))
        term += fv * h_fn(pt)
        total += term * vol
    return abs(total) / (total_abs_f + 1.0)


# ---------------------------------------------------------------------------
# Orchestration and classification
# ---------------------------------------------------------------------------


def _coincide_check(engine, touching):
    """Every touching point's 5-cell index ball stays within eps_touch."""
    rows = engine.rows
    eps = engine.tol.eps_touch
    if all(abs(r[0]) <= eps for r in rows):
        return True, None
    shape = engine.grid.shape
    position = {idx: k for k, idx in enumerate(engine.indices)}
    radius = 5
    for t in touching:
        idx = t["index"]
        ranges = [
            range(max(0, i - radius), min(c, i + radius + 1))
            for i, c in zip(idx, shape)
        ]
        for nb in itertools.product(*ranges):
            if abs(rows[position[nb]][0]) > eps:
                return False, list(nb)
    return True, None


def classify(measurements: dict) -> str:
    """Classification as a pure function of recorded measurements."""
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

    ``jobs`` is accepted and never changes the report; every measurement
    runs sequentially in this process.
    """
    engine = _ScenarioEngine(scenario)
    touching = engine.touching()
    gap = engine.gap()
    frac_u, clusters_u = engine.singular(3)
    frac_v, clusters_v = engine.singular(4)
    coincides, separation_witness = (
        _coincide_check(engine, touching) if touching else (False, None)
    )
    separates = bool(touching) and not coincides

    # rank verdict at the first touching point (grid order), when the
    # operator's ambient structure has frames
    op = scenario.operator
    S = op.structure
    rank_data = None
    propagation = []
    eps_sq = engine.tol.eps_sing ** 2
    touch_pts = [tuple(t["point"]) for t in touching]
    singular_touch = any(
        engine.sing_u_fn(pt) < eps_sq or engine.sing_v_fn(pt) < eps_sq
        for pt in touch_pts
    )
    if touching and S is not None and S.frame_fields is not None:
        # the rank hypothesis is checked on the lower graph, at regular points
        fields = tangent_distribution_fields(S, op.phi(engine.u_expr))
        rank_point = next(
            (pt for pt in touch_pts if engine.sing_u_fn(pt) >= eps_sq), None
        )
        if rank_point is not None:
            lifted = op.lift(rank_point, engine.u_fn(rank_point))
            report = bracket_generate_rank(
                fields,
                lifted,
                max_depth=scenario.rank_depth,
                target_rank=op.expected_rank,
            )
            rank_data = {
                "rank": report.rank,
                "depth": report.depth,
                "words_generated": report.words_generated,
                "pivot_tol": report.pivot_tol,
                "expected": op.expected_rank,
                "point": list(rank_point),
            }
            starts = [
                pt
                for pt in touch_pts[: scenario.max_propagation_starts]
                if engine.sing_u_fn(pt) >= eps_sq
            ]
            for start in starts:
                propagation.extend(
                    r.as_dict()
                    for r in _propagate(engine, fields, start)
                )

    measurements = {
        "schema_version": "1",
        "scenario": scenario.name,
        "description": scenario.description,
        "operator": {
            "kind": op.kind,
            **op.params(),
        },
        "grid": engine.grid.as_dict(),
        "tolerances": engine.tol.as_dict(),
        "swapped": engine.swapped,
        "ordering": engine.ordering,
        "touching_count": len(touching),
        "touching": touching,
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
    if singular_touch:
        measurements["notes"] = [
            "singular-touch: curvature comparison verified on annulus"
        ]
    else:
        measurements["notes"] = []
    measurements["classification"] = classify(measurements)
    report = ScenarioReport(measurements)
    report.table = engine.table()  # per-point data for the CSV writer
    return report


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
        grid_counts=65,
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
        grid_counts=65,
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
        grid_counts=65,
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

BUILTIN_DESCRIPTIONS = {
    "h1-counterexample": "touching zero-curvature graphs that do not coincide (rank 1 < 2)",
    "translate-coincide": "graph vs its zero-translation pullback: coincidence",
    "cylinder-sphere-paraboloid": "sphere cap vs paraboloid on the cylinder: comparison fails",
    "hyperplane-z": "horizontal hyperplane probe: minimal, one singular point",
    "vertical-hyperplane": "vertical hyperplane probe: minimal, no singular points",
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
