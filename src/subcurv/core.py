"""Frame-free subriemannian engine.

A structure is a coordinate cometric (a symmetric, possibly degenerate
matrix of symbolic entries g^{lk}) together with a positive volume
density A.  Everything is computed from those two ingredients: the
raising map G, covector norms, the horizontal p-mean curvature as a
weighted divergence

    H = A^{-1} sum_l d_l( A * |dphi|^(p-1) * sum_k g^{lk} d_k phi ),

and one generated grid sweep per graph (:func:`compile_sweep`: its
value, the squared norm, the singular test |dphi|* < eps_sing, then H at
each point).  No coframe choices are ever made; frame fields are
optional metadata consumed by the bracket machinery.
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import calculus as ca
from .calculus import CoordSystem, Expr
from .numerics import matrix_rank, newton_minimize, principal_minors

__all__ = [
    "GeometryError",
    "SingularPoint",
    "MissingFrames",
    "IndefiniteCometric",
    "DEFAULT_EPS_SING",
    "default_eps_sing",
    "eps_sing_ok",
    "is_singular",
    "curvature_at",
    "ScalarField",
    "VectorFieldExpr",
    "SubriemannianStructure",
    "GridSpec",
    "grid_clusters",
    "row_major_strides",
    "newton_refiner",
    "raise_covector",
    "pairing_expr",
    "covector_pairing",
    "conorm_sq_expr",
    "conorm",
    "p_mean_curvature_expr",
    "p_mean_curvature",
    "undefined_at",
    "require_finite",
    "compile_sweep",
    "probe_validate",
]


class GeometryError(Exception):
    """Base class for geometric-engine errors."""


class SingularPoint(GeometryError):
    """Curvature requested at a point where |dphi|* is below eps_sing."""


class MissingFrames(GeometryError):
    """Operation requires frame_fields metadata the structure lacks."""


class IndefiniteCometric(GeometryError):
    """The squared covector norm ``sq`` is below -PSD_TOL at ``point``, on the
    graph named ``graph`` when there is one: the cometric is not PSD."""

    def __init__(self, point, sq, graph=None):
        self.point, self.sq, self.graph = tuple(point), sq, graph
        super().__init__(self.point, sq, graph)

    def __str__(self):
        on = f"graph {self.graph}: " if self.graph else ""
        return f"{on}cometric not PSD at {self.point}: |dphi|*^2 is {self.sq!r}"


PSD_TOL = 1e-10  # negative squared norms and minors down to -PSD_TOL are roundoff


DEFAULT_EPS_SING = 1e-7


def eps_sing_ok(value: float) -> bool:
    """Whether ``value`` can be the singular-set threshold.  A point is
    singular where its squared norm is below ``value ** 2``, so that square
    must be a positive float: one that underflows to 0.0 would take a zero
    norm for a regular point and report a value there."""
    return value > 0 and 0 < value * value < math.inf


def default_eps_sing() -> float:
    """Singular-set threshold; SUBCURV_EPS_SING overrides the default."""
    raw = os.environ.get("SUBCURV_EPS_SING")
    if raw is None:
        return DEFAULT_EPS_SING
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not eps_sing_ok(value):
        raise ValueError(f"SUBCURV_EPS_SING must be a positive number that squares to a positive float, got {raw!r}")
    return value


def is_singular(sq: float, point: Sequence[float], eps_sq: float) -> bool:
    """The squared-norm rule of every path: below ``-PSD_TOL`` the cometric is
    indefinite and this raises, naming ``point``; below ``eps_sq`` the point
    is singular; a NaN norm is neither.  :func:`compile_sweep` writes the
    same tests inline, so a swept point costs no call."""
    if sq < -PSD_TOL:
        raise IndefiniteCometric(point, sq)
    return sq < eps_sq


def undefined_at(what: str, point, why) -> ca.EvaluationError:
    """The error for ``what`` having no value at chart ``point``: ``why`` is
    the error raised there (an overflow reads as one) or a reason."""
    if isinstance(why, OverflowError):
        why = f"outside the float range ({why})"
    return ca.EvaluationError(f"{what} undefined at chart point {point}: {why}")


def require_finite(what: str, values, points):
    """Refuse a non-finite value (an overflow raises nothing) as a domain hole."""
    if not all(map(math.isfinite, values)):
        k = list(map(math.isfinite, values)).index(False)
        raise undefined_at(what, points[k], f"non-finite value {values[k]}")


def curvature_at(
    h: Expr, sq: Expr, point: Sequence[float], eps_sing: Optional[float] = None
) -> float:
    """H at one point by the rule of :func:`compile_sweep`: the squared
    norm ``sq`` is evaluated first, and where a grid sweep would mask the
    point this raises instead, :class:`SingularPoint` where
    :func:`is_singular` holds, else an evaluation error naming the point
    and whether the norm or H has no value there."""
    pt = tuple(point)
    try:
        sq_val = ca.evaluate(sq, pt)
    except ca.FAULTS as exc:
        raise undefined_at("|dphi|*^2", pt, exc) from None
    if eps_sing is None:
        eps_sing = default_eps_sing()
    elif not eps_sing_ok(eps_sing):
        raise ValueError(f"eps_sing must be > 0 and square to a positive float, got {eps_sing!r}")
    eps_sq = eps_sing ** 2
    if is_singular(sq_val, pt, eps_sq):
        raise SingularPoint(f"singular point at {pt}: |dphi|*^2 = {sq_val:.3e} < {eps_sq:g}")
    try:
        value = ca.evaluate(h, pt)
    except ca.FAULTS as exc:
        raise undefined_at("H", pt, exc) from None
    require_finite("H", [value], [pt])
    return value


Box = Tuple[Tuple[float, float], ...]


class ScalarField:
    """A smooth function given in closed form on a coordinate box."""

    __slots__ = ("expr", "coords", "box")

    def __init__(self, expr: Expr, coords: CoordSystem, box: Optional[Box] = None):
        if box is not None:
            box = tuple((float(lo), float(hi)) for lo, hi in box)
            if len(box) != len(coords):
                raise ValueError("box must have one interval per coordinate")
            for lo, hi in box:
                if not lo <= hi:
                    raise ValueError(f"empty interval ({lo}, {hi})")
        bad = [i for i in ca.free_vars(expr) if i >= len(coords)]
        if bad:
            raise ValueError(f"expression uses variable indices {bad} outside chart")
        self.expr = expr
        self.coords = coords
        self.box = box

    def __call__(self, point: Sequence[float]) -> float:
        return ca.evaluate(self.expr, point)

    def __repr__(self):
        return f"ScalarField({ca.unparse(self.expr, self.coords)})"


class VectorFieldExpr:
    """Vector field with symbolic coefficients in a fixed chart."""

    __slots__ = ("coords", "components", "_run", "_jacobian")

    def __init__(self, coords: CoordSystem, components: Sequence[Expr]):
        # smart-constructor trees are already canonical (simplify is the
        # identity on them), so components are stored as given
        components = tuple(components)
        if len(components) != len(coords):
            raise ValueError(
                f"{len(components)} components for {len(coords)} coordinates"
            )
        self.coords = coords
        self.components = components
        self._run = self._jacobian = None

    def integrator(self):
        """Classical RK4 loop ``run(x, h, nsteps, stop) -> (points, end, note)``
        (``end`` is completed, stopped or aborted), generated once (``<rk4-N>``),
        with the float operations of ``x + 0.5 * h * k1``, ...,
        ``x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)`` in that order, and
        each non-constant component inline at each stage.

        A constant component K is loop-invariant: ``hh * (K)``, ``h * (K)``
        and ``h6 * ((K) + 2.0 * (K) + 2.0 * (K) + (K))`` are computed once,
        before the loop, and no stage assigns it.  Python evaluates
        ``x + hh * K`` as ``hh * K`` first, so ``x + hk`` is the same double,
        signed zeros and h < 0 included.  A stage coordinate ``y_j`` is
        computed only where some component reads coordinate j, so a field
        whose components are all constant has no stage code at all.

        A zero field rests after its first step, which adds ±0.0 to each
        coordinate: ``x + inc`` is then ``x`` bit for bit, so its later points
        repeat that point, with no step and no ``stop`` call."""
        if self._run is None:
            n, comps = len(self.coords), self.components
            rest = all(c is ca.ZERO for c in comps)
            _, literal = ca.emitter(n)
            const = {i: literal(c) for i, c in enumerate(comps) if isinstance(c, ca.Const)}
            live = [i for i in range(n) if i not in const]
            read = sorted(set().union(*map(ca.free_vars, comps)))

            def row(fmt, idx=range(n)):
                return ", ".join(fmt.format(i=i) for i in idx) + ","

            def stage(var, into):  # one emitter per stage: each reads its own point
                lines, emit = ca.emitter(n, var)
                values = ", ".join([emit(comps[i]) for i in live])
                return [*lines, f"{row(into + '{i}', live)} = {values},"] if live else []

            def point(scale, k, hk):  # the next stage's coordinates that some component reads
                ys = [f"x{j} + {hk}{j}" if j in const else f"x{j} + {scale} * {k}{j}" for j in read]
                return [f"{row('y{i}', read)} = {', '.join(ys)},"] if read else []

            body = [
                *stage("x{}", "a"), *point("hh", "a", "hk"), *stage("y{}", "b"), *point("hh", "b", "hk"),
                *stage("y{}", "c"), *point("h", "c", "hc"), *stage("y{}", "d"),
            ]
            stages = "".join(f"            {line}\n" for line in body)
            if stages:  # only a non-constant component can fail, and a field without one has no stage
                stages = ("        try:\n" + stages + "        except _FAULTS as exc:\n"
                          "            return pts, 'aborted', f'integration aborted: {exc}'\n")
            hoisted = "".join(
                f"    hk{i}, hc{i}, inc{i} = hh * {K}, h * {K}, h6 * ({K} + 2.0 * {K} + 2.0 * {K} + {K})\n"
                for i, K in const.items()
            )
            steps = ", ".join(
                f"x{i} + inc{i}" if i in const else f"x{i} + h6 * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})"
                for i in range(n)
            )
            src = (
                "def run(x, h, nsteps, stop):\n    pts = [x]\n    if stop is not None and stop(x):\n"
                f"        return pts, 'stopped', 'stopped at step 0'\n    {row('x{i}')} = x\n"
                f"    hh = 0.5 * h\n    h6 = h / 6.0\n{hoisted}"
                f"    for k in range(1, {'min(nsteps, 1)' if rest else 'nsteps'} + 1):\n{stages}"
                f"        {row('x{i}')} = {steps},\n"
                f"        x = ({row('x{i}')})\n        pts.append(x)\n        if stop is not None and stop(x):\n"
                "            return pts, 'stopped', f'stopped at step {k}'\n"
                + ("    pts += [x] * (nsteps - 1)\n" if rest else "")
                + "    return pts, 'completed', ''\n"
            )
            self._run = ca.compile_source(src, "run", "rk4")
        return self._run

    def jacobian(self) -> list:
        """``J[k][l] = d_k X^l``, built once, one shared fold memo per k."""
        if self._jacobian is None:
            self._jacobian = [ca.differentiate(self.components, k) for k in range(len(self.coords))]
        return self._jacobian

    def apply(self, f: Expr) -> Expr:
        """Directional derivative X(f) = sum_k X^k d_k f."""
        return ca.add(
            *[
                ca.mul(comp, ca.differentiate(f, k))
                for k, comp in enumerate(self.components)
            ]
        )

    def at(self, point: Sequence[float]) -> list:
        return [ca.evaluate(c, point) for c in self.components]

    def scale(self, factor: Expr) -> "VectorFieldExpr":
        return VectorFieldExpr(
            self.coords, [ca.mul(factor, c) for c in self.components]
        )

    def __sub__(self, other: "VectorFieldExpr") -> "VectorFieldExpr":
        if self.coords != other.coords:
            raise ValueError("vector fields live in different charts")
        return VectorFieldExpr(
            self.coords,
            [ca.sub(a, b) for a, b in zip(self.components, other.components)],
        )

    def __add__(self, other: "VectorFieldExpr") -> "VectorFieldExpr":
        if self.coords != other.coords:
            raise ValueError("vector fields live in different charts")
        return VectorFieldExpr(
            self.coords,
            [ca.add(a, b) for a, b in zip(self.components, other.components)],
        )

    def __eq__(self, other):
        return (
            isinstance(other, VectorFieldExpr)
            and self.coords == other.coords
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.coords, self.components))

    def __repr__(self):
        comps = ", ".join(ca.unparse(c, self.coords) for c in self.components)
        return f"VectorFieldExpr({comps})"


class SubriemannianStructure:
    """Cometric + volume density on a coordinate chart.

    ``cometric[l][k]`` is the symbolic inner product of the coordinate
    differentials dx^l and dx^k; it must be symmetric (checked by
    identity of the interned canonical entries) and pointwise positive
    semidefinite (checked by sampling through :func:`probe_validate`,
    never symbolically).  Entries are stored as given: trees built by the
    parser or the smart constructors are canonical, and hand-built
    ``Add``/``Mul``/``Pow`` trees must go through ``ca.simplify`` first.
    ``degeneracy`` is the advisory dimension of ker G.
    """

    __slots__ = (
        "coords",
        "cometric",
        "volume_density",
        "degeneracy",
        "frame_fields",
        "domain_box",
        "null_coform",
    )

    def __init__(
        self,
        coords: CoordSystem,
        cometric: Sequence[Sequence[Expr]],
        volume_density: Expr,
        degeneracy: int = 0,
        frame_fields: Optional[Sequence[VectorFieldExpr]] = None,
        domain_box: Optional[Box] = None,
        null_coform: Optional[Sequence[Expr]] = None,
    ):
        n = len(coords)
        cometric = tuple(tuple(row) for row in cometric)
        if len(cometric) != n or any(len(row) != n for row in cometric):
            raise ValueError(f"cometric must be {n}x{n}")
        for l in range(n):
            for k in range(l + 1, n):
                if cometric[l][k] != cometric[k][l]:
                    raise ValueError(
                        f"cometric not symmetric at ({l},{k}) after canonicalization"
                    )
        if frame_fields is not None:
            frame_fields = tuple(frame_fields)
            for x in frame_fields:
                if x.coords != coords:
                    raise ValueError("frame field chart mismatch")
        if null_coform is not None:
            null_coform = tuple(null_coform)
            if len(null_coform) != n:
                raise ValueError("null coform needs one component per coordinate")
        if domain_box is not None:
            domain_box = tuple((float(lo), float(hi)) for lo, hi in domain_box)
        self.coords = coords
        self.cometric = cometric
        self.volume_density = volume_density
        self.degeneracy = degeneracy
        self.frame_fields = frame_fields
        self.domain_box = domain_box
        self.null_coform = null_coform

    @property
    def dim(self) -> int:
        return len(self.coords)

    def cometric_at(self, point: Sequence[float]) -> list:
        return [
            [ca.evaluate(entry, point) for entry in row] for row in self.cometric
        ]

    def __repr__(self):
        return (
            f"SubriemannianStructure(dim={self.dim}, "
            f"degeneracy={self.degeneracy}, coords={self.coords.names})"
        )


# ---------------------------------------------------------------------------
# Raising map and norms
# ---------------------------------------------------------------------------


def raise_covector(S: SubriemannianStructure, omega: Sequence[Expr]) -> list:
    """G(omega): the vector with components v^l = sum_k g^{lk} omega_k."""
    if len(omega) != S.dim:
        raise ValueError(f"covector has {len(omega)} components, chart has {S.dim}")
    return [
        ca.add(*[ca.mul(S.cometric[l][k], omega[k]) for k in range(S.dim)])
        for l in range(S.dim)
    ]


def pairing_expr(S: SubriemannianStructure, omega, eta) -> Expr:
    """<omega, eta>* = sum_{l,k} g^{lk} omega_l eta_k, symbolically."""
    terms = []
    for l in range(S.dim):
        for k in range(S.dim):
            terms.append(ca.mul(S.cometric[l][k], omega[l], eta[k]))
    return ca.add(*terms)


def covector_pairing(S, omega, eta, point: Sequence[float]) -> float:
    return ca.evaluate(pairing_expr(S, omega, eta), point)


def _phi_expr(phi) -> Expr:
    return phi.expr if isinstance(phi, ScalarField) else phi


def conorm_sq_expr(S: SubriemannianStructure, phi) -> Expr:
    """|dphi|*^2 as a symbolic expression (exactly >= 0 pointwise)."""
    e = _phi_expr(phi)
    grad = ca.gradient(e, S.dim)
    return pairing_expr(S, grad, grad)


def conorm(S: SubriemannianStructure, phi, point: Sequence[float]) -> float:
    """|dphi|* at a point; 0.0 exactly at singular points.

    The square is evaluated symbolically and the square root is taken
    numerically, so degenerate points return 0 rather than tripping the
    fractional-power domain guard.  Negative roundoff clamps to 0 and an
    indefinite cometric raises, by :func:`is_singular`.
    """
    sq = ca.evaluate(conorm_sq_expr(S, phi), point)
    return 0.0 if is_singular(sq, point, 0.0) else math.sqrt(sq)


# ---------------------------------------------------------------------------
# Horizontal p-mean curvature
# ---------------------------------------------------------------------------


def p_mean_curvature_expr(S: SubriemannianStructure, phi, p) -> Expr:
    """Symbolic H_{phi,p} = A^{-1} sum_l d_l(A |dphi|^(p-1) (G dphi)^l).

    Valid away from the singular set; the |dphi|^(p-1) factor is formed
    as (|dphi|*^2)^((p-1)/2), so evaluation inside the singular set
    raises a domain error rather than returning garbage.
    """
    e = _phi_expr(phi)
    p = Fraction(p)
    if p < 0:
        raise ValueError("curvature exponent p must be >= 0")

    def make():
        grad = ca.gradient(e, S.dim)
        raised = raise_covector(S, grad)
        norm_sq = pairing_expr(S, grad, grad)
        a = S.volume_density
        terms = []
        for l in range(S.dim):
            flux = ca.mul(a, ca.pow_(norm_sq, (p - 1) / 2), raised[l])
            terms.append(ca.differentiate(flux, l))
        return ca.div(ca.add(*terms), a)

    return ca.built(("H", S.cometric, S.volume_density, e, p), make)


def p_mean_curvature(
    S: SubriemannianStructure,
    phi,
    p,
    point: Sequence[float],
    eps_sing: Optional[float] = None,
) -> float:
    """Evaluate H_{phi,p} by :func:`curvature_at`."""
    h = p_mean_curvature_expr(S, phi, p)
    return curvature_at(h, conorm_sq_expr(S, phi), point, eps_sing)


def compile_sweep(h: Expr, sq: Expr, nvars: int, eps_sq: float, graph=None):
    """Generate one loop ``sweep(points) -> (values, hs, low)``.  At each
    point it evaluates u (``graph = (name, u)``, when given; else ``values``
    stays empty), then the squared norm ``sq`` under the rule of
    :func:`is_singular`, and H only where that leaves the point regular.
    ``hs`` holds H, or ``None`` where the point is singular or H raises a
    domain or overflow error or is not finite; ``low`` maps each position
    whose norm is not ``>= eps_sq`` (singular, or NaN) to that norm.  The
    three share one :func:`calculus.emitter`, so a shared subtree is computed
    once.  Errors, first one first: the first point where u has no value,
    the first where it is not finite, then the first norm hole or indefinite
    norm; each names its chart point."""
    lines, emit = ca.emitter(nvars)

    def block(e: Expr, result: str) -> str:
        # the statements new to e, inside the loop's try, then result = e
        start = len(lines)
        text = emit(e)
        return "".join(f"\n            {line}" for line in lines[start:] + [f"{result} = {text}"])

    norm, value, tail = "|dphi|*^2", "", ""
    if graph is not None:
        name, u = graph
        norm = f"graph {name}: {norm}"
        value = (f"        try:{block(u, 'u')}\n        except _FAULTS as exc:\n"
                 f"            raise _undefined('graph {name}', p, exc) from None\n"
                 "        values.append(u)\n")
        tail = f"    _require_finite('graph {name}', values, points)\n"
    # the three `hs.append(None)`: a norm hole, a singular point, no H value
    src = (
        "def sweep(points):\n    values, hs, low, bad = [], [], {}, None\n"
        f"    for k, p in enumerate(points):\n{value}"
        f"        try:{block(sq, 'sq')}\n        except _FAULTS as exc:\n"
        f"            bad = bad or _undefined({norm!r}, p, exc)\n"
        "            hs.append(None)\n            continue\n"
        f"        if not sq >= {eps_sq!r}:\n            low[k] = sq\n"
        f"            if sq < {eps_sq!r}:\n                if sq < {-PSD_TOL!r}:\n"
        "                    bad = bad or IndefiniteCometric(p, sq)\n"
        "                hs.append(None)\n                continue\n"
        f"        try:{block(h, 'h')}\n            hs.append(h if _isfinite(h) else None)\n"
        f"        except _FAULTS:\n            hs.append(None)\n{tail}"
        "    if bad is not None:\n        raise bad\n    return values, hs, low\n"
    )
    return ca.compile_source(src, "sweep", "sweep", _undefined=undefined_at, _require_finite=require_finite,
                             _isfinite=math.isfinite, IndefiniteCometric=IndefiniteCometric)


# ---------------------------------------------------------------------------
# Grids, grid clusters and Newton refinement
# ---------------------------------------------------------------------------


class GridSpec:
    """Tensor-product grid: per-axis (lo, hi, count) with count >= 1.

    ``points()`` enumerates the points in row-major order (first axis
    slowest), which fixes the deterministic ordering every consumer relies
    on; the k-th point's index along axis i is ``k // stride % count``
    (:func:`row_major_strides`).  Axes with count == 1 are frozen at lo.
    """

    __slots__ = ("axes",)

    def __init__(self, axes: Sequence[Tuple[float, float, int]]):
        cleaned = []
        for lo, hi, count in axes:
            lo, hi, count = float(lo), float(hi), int(count)
            if count < 1:
                raise ValueError("axis count must be >= 1")
            if count > 1 and not lo < hi:
                raise ValueError(f"degenerate axis ({lo}, {hi}) with count {count}")
            cleaned.append((lo, hi, count))
        self.axes = tuple(cleaned)

    @classmethod
    def from_box(cls, box: Box, count: int) -> "GridSpec":
        return cls([(lo, hi, count if lo < hi else 1) for lo, hi in box])

    @property
    def shape(self) -> tuple:
        return tuple(c for _, _, c in self.axes)

    @property
    def npoints(self) -> int:
        return math.prod(self.shape)

    def axis_values(self, i: int) -> list:
        lo, hi, count = self.axes[i]
        if count == 1:
            return [lo]
        step = (hi - lo) / (count - 1)
        return [lo + k * step for k in range(count)]

    def points(self):
        """The grid points, as tuples in row-major order."""
        return itertools.product(*[self.axis_values(i) for i in range(len(self.axes))])

    def as_dict(self) -> dict:
        return {"axes": [[lo, hi, count] for lo, hi, count in self.axes]}


def row_major_strides(shape) -> list:
    """The step in flat row-major grid position of one index step along each axis."""
    return [math.prod(shape[i + 1 :]) for i in range(len(shape))]


def grid_clusters(positions, shape) -> list:
    """Connected components, under axis adjacency (never wrapping into the
    next row), of the cells at the flat row-major ``positions`` of a grid of
    ``shape``, by flood fill: each sorted, ordered by its first position."""
    unseen = set(positions)
    if len(unseen) == math.prod(shape):  # every cell, and the grid is connected
        return [sorted(unseen)]
    steps = [(s, s * c) for s, c in zip(row_major_strides(shape), shape) if c > 1]
    clusters = []
    for k in sorted(unseen):
        if k not in unseen:
            continue
        cluster, frontier = [], [k]
        while frontier:
            unseen.difference_update(frontier)
            cluster.extend(frontier)
            reached = set()
            for s, block in steps:  # j % block // s is j's index along the axis
                reached.update([j + s for j in frontier if j % block < block - s])
                reached.update([j - s for j in frontier if j % block >= s])
            frontier = list(reached & unseen)
        clusters.append(sorted(cluster))
    return clusters


def newton_refiner(f: Expr, nvars: int, grid: GridSpec):
    """``refine(x0) -> (x, converged)``: Newton minimization of ``f``.

    The gradient and Hessian of ``f`` are formed symbolically and
    compiled once, as one kernel each; each call iterates over the grid
    axes that are not frozen (count > 1) and holds the others at their
    ``x0`` values.  An iterate where a kernel raises is not converged.
    """
    grad_exprs = ca.gradient(f, nvars)
    grad_at = ca.compile_expr(grad_exprs, nvars)
    hess_flat = ca.compile_expr(
        [ca.differentiate(g, j) for g in grad_exprs for j in range(nvars)], nvars
    )
    active = [i for i, (_, _, count) in enumerate(grid.axes) if count > 1]

    def hess_at(x):
        h = hess_flat(x)
        return [h[i : i + nvars] for i in range(0, nvars * nvars, nvars)]

    def refine(x0):
        try:
            return newton_minimize(grad_at, hess_at, x0, active)
        except ca.FAULTS:
            return list(map(float, x0)), False  # a step left the domain

    return refine


# ---------------------------------------------------------------------------
# Structure validation by sampling
# ---------------------------------------------------------------------------


PROBE_SAMPLES_PER_AXIS = 3


def probe_validate(S: SubriemannianStructure) -> list:
    """Check PSD-ness (minors down to -PSD_TOL), positive density, and frame
    rank on a grid of ``PROBE_SAMPLES_PER_AXIS`` points per axis of the
    structure's ``domain_box``.

    Returns a list of human-readable issues (empty when all checks pass).
    Sampling, not symbolic certification: the goal is to catch
    configuration mistakes.
    """
    if S.domain_box is None:
        raise ValueError("no probe box: structure has no domain_box")
    issues = []
    grid = GridSpec.from_box(S.domain_box, PROBE_SAMPLES_PER_AXIS)
    frame_rank = S.dim - S.degeneracy
    # principal_minors orders its minors by size, then index set
    minor_sets = [
        rows
        for k in range(1, S.dim + 1)
        for rows in itertools.combinations(range(S.dim), k)
    ]
    for pt in grid.points():
        g = S.cometric_at(pt)
        for rows, m in zip(minor_sets, principal_minors(g)):
            if m < -PSD_TOL:
                entries = ", ".join(
                    f"cometric.{l}.{k}" for i, l in enumerate(rows) for k in rows[i:]
                )
                issues.append(
                    f"cometric not PSD at {pt}: principal minor of {entries} is {m!r}"
                )
                break
        a = ca.evaluate(S.volume_density, pt)
        if not a > 0:
            issues.append(f"volume density {a} not positive at {pt}")
        if S.frame_fields:
            rows = [x.at(pt) for x in S.frame_fields]
            rank, _ = matrix_rank(rows)
            if rank != frame_rank:
                issues.append(
                    f"frame rank {rank} != {frame_rank} (dim - degeneracy) at {pt}"
                )
    return issues
