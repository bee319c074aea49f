"""Heisenberg geometries and their explicit curvature operators.

Builds the standard group structure on R^(2n+1) (coordinates
x1..xn, y1..yn, z), the cylinder rescaling that removes the origin,
the flat graph structure attached to a drift field F, and the four
closed-form graph curvature operators: the divergence-form operator for
graphs over the horizontal hyperplane, the intrinsic-graph and
x1-transversal-graph operators on the (eta, tau) chart, and the radial
operator for rotationally symmetric graphs on the cylinder.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import calculus as ca
from .calculus import CoordSystem, Expr
from .core import (
    SubriemannianStructure,
    VectorFieldExpr,
    _phi_expr,
    curvature_at,
)

__all__ = [
    "HeisenbergPoint",
    "LeftTranslation",
    "LaTranslation",
    "Dilation",
    "RotationSwap",
    "group_mul",
    "group_inverse",
    "apply_isometry",
    "isometry_coord_exprs",
    "pullback_expr",
    "heisenberg_coords",
    "standard_structure",
    "cylinder_structure",
    "graph_coords",
    "standard_drift",
    "graph_HF_exprs",
    "graph_operator_HF",
    "drift_graph_structure",
    "intrinsic_chart",
    "intrinsic_graph_exprs",
    "la_graph_exprs",
    "radial_curvature_expr",
]


class HeisenbergPoint:
    """Point of the group of dimension 2n+1; coordinates (x1..xn, y1..yn, z)."""

    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords: Sequence[float]):
        coords = tuple(float(c) for c in coords)
        if len(coords) != 2 * n + 1:
            raise ValueError(f"need {2 * n + 1} coordinates for n={n}")
        self.n = n
        self.coords = coords

    @property
    def x(self) -> tuple:
        return self.coords[: self.n]

    @property
    def y(self) -> tuple:
        return self.coords[self.n : 2 * self.n]

    @property
    def z(self) -> float:
        return self.coords[-1]

    def __eq__(self, other):
        return (
            isinstance(other, HeisenbergPoint)
            and self.n == other.n
            and self.coords == other.coords
        )

    def __repr__(self):
        return f"HeisenbergPoint{self.coords}"


def group_mul(a: HeisenbergPoint, b: HeisenbergPoint) -> HeisenbergPoint:
    """Group product a o b: the left translation by a applied to b."""
    return apply_isometry(LeftTranslation(a), b)


def group_inverse(a: HeisenbergPoint) -> HeisenbergPoint:
    return HeisenbergPoint(a.n, tuple(-c for c in a.coords))


class LeftTranslation:
    __slots__ = ("g",)

    def __init__(self, g: HeisenbergPoint):
        self.g = g


class LaTranslation:
    """Translation along the x1 direction; equals left translation by
    (a, 0, ..., 0) and shifts z by -a*y1."""

    __slots__ = ("a",)

    def __init__(self, a: float):
        self.a = float(a)


class Dilation:
    """(x, y, z) -> (lam x, lam y, lam^2 z); lam must be nonzero."""

    __slots__ = ("lam",)

    def __init__(self, lam: float):
        lam = float(lam)
        if lam == 0.0:
            raise ValueError("dilation factor must be nonzero")
        self.lam = lam


class RotationSwap:
    """x1 -> y1, y1 -> -x1, everything else fixed."""

    __slots__ = ()


def apply_isometry(kind, q: HeisenbergPoint) -> HeisenbergPoint:
    """The map at q: :func:`isometry_coord_exprs` evaluated at its coordinates."""
    comps = isometry_coord_exprs(kind, q.n)
    return HeisenbergPoint(q.n, [ca.evaluate(c, q.coords) for c in comps])


def isometry_coord_exprs(kind, n: int) -> list:
    """Components of the map as expressions over the standard chart."""
    dim = 2 * n + 1
    xs = [ca.var(i) for i in range(dim)]
    if isinstance(kind, LaTranslation):
        kind = LeftTranslation(HeisenbergPoint(n, (kind.a,) + (0.0,) * (2 * n)))
    if isinstance(kind, LeftTranslation):
        g = kind.g
        if g.n != n:
            raise ValueError("dimension mismatch")
        out = [ca.add(ca.const(g.coords[i]), xs[i]) for i in range(2 * n)]
        twist = ca.add(
            *[
                ca.sub(
                    ca.mul(ca.const(g.y[j]), xs[j]),
                    ca.mul(ca.const(g.x[j]), xs[n + j]),
                )
                for j in range(n)
            ]
        )
        out.append(ca.add(ca.const(g.z), xs[dim - 1], twist))
        return out
    if isinstance(kind, Dilation):
        lam = ca.const(kind.lam)
        out = [ca.mul(lam, xs[i]) for i in range(2 * n)]
        out.append(ca.mul(ca.const(kind.lam * kind.lam), xs[dim - 1]))
        return out
    if isinstance(kind, RotationSwap):
        out = list(xs)
        out[0] = xs[n]
        out[n] = ca.neg(xs[0])
        return out
    raise TypeError(f"unknown isometry {type(kind).__name__}")


def pullback_expr(e: Expr, kind, n: int) -> Expr:
    """(e o Psi) as an expression: substitute the mapped coordinates."""
    comps = isometry_coord_exprs(kind, n)
    return ca.substitute(e, dict(enumerate(comps)))


# ---------------------------------------------------------------------------
# Builtin structures
# ---------------------------------------------------------------------------


def heisenberg_coords(n: int) -> CoordSystem:
    names = (
        tuple(f"x{j + 1}" for j in range(n))
        + tuple(f"y{j + 1}" for j in range(n))
        + ("z",)
    )
    return CoordSystem(names)


def _lifted_field(coords: CoordSystem, i: int, coeff: Expr) -> VectorFieldExpr:
    """The field d_i + coeff d_last on ``coords``."""
    comps = [ca.ZERO] * len(coords)
    comps[i] = ca.ONE
    comps[-1] = coeff
    return VectorFieldExpr(coords, comps)


def _standard_frames(coords: CoordSystem, n: int) -> list:
    # d_xj + y_j d_z, then d_yj - x_j d_z
    return ([_lifted_field(coords, j, ca.var(n + j)) for j in range(n)]
            + [_lifted_field(coords, n + j, ca.neg(ca.var(j))) for j in range(n)])


def _contact_coform(n: int) -> list:
    # dz + sum_j (x_j dy_j - y_j dx_j)
    dim = 2 * n + 1
    comps = [None] * dim
    for j in range(n):
        comps[j] = ca.neg(ca.var(n + j))
        comps[n + j] = ca.var(j)
    comps[dim - 1] = ca.ONE
    return comps


def _frame_cometric(fields: Sequence[VectorFieldExpr], dim: int) -> list:
    g = [[ca.ZERO for _ in range(dim)] for _ in range(dim)]
    for l in range(dim):
        for k in range(l, dim):
            entry = ca.add(
                *[ca.mul(x.components[l], x.components[k]) for x in fields]
            )
            g[l][k] = entry
            g[k][l] = entry
    return g


def standard_structure(n: int) -> SubriemannianStructure:
    """The flat group structure: cometric from the left-invariant frames
    e_j = d/dx_j + y_j d/dz, e_j' = d/dy_j - x_j d/dz; unit volume density."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def make():
        coords = heisenberg_coords(n)
        dim = 2 * n + 1
        frames = _standard_frames(coords, n)
        return SubriemannianStructure(
            coords,
            _frame_cometric(frames, dim),
            ca.ONE,
            degeneracy=1,
            frame_fields=frames,
            domain_box=tuple(((-1.0, 1.0),) * dim),
            null_coform=_contact_coform(n),
        )

    return ca.built(("heisenberg", n), make)


def _rho_fourth(n: int) -> Expr:
    # r^4 + 4 z^2 with r^2 = sum of the 2n squared horizontal coordinates
    dim = 2 * n + 1
    r_sq = ca.add(*[ca.pow_(ca.var(i), 2) for i in range(2 * n)])
    return ca.add(ca.pow_(r_sq, 2), ca.mul(4, ca.pow_(ca.var(dim - 1), 2)))


def cylinder_structure(n: int) -> SubriemannianStructure:
    """Rescaled structure on the punctured group: cometric rho^2 times the
    standard one, volume density rho^(-(2n+2)); the chart box keeps away
    from the deleted origin."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def make():
        coords = heisenberg_coords(n)
        dim = 2 * n + 1
        rho4 = _rho_fourth(n)
        rho_sq = ca.pow_(rho4, Fraction(1, 2))
        rho = ca.pow_(rho4, Fraction(1, 4))
        std = standard_structure(n)
        cometric = [
            [ca.mul(rho_sq, std.cometric[l][k]) for k in range(dim)] for l in range(dim)
        ]
        density = ca.pow_(rho4, Fraction(-(2 * n + 2), 4))
        frames = [x.scale(rho) for x in std.frame_fields]
        theta = [ca.mul(ca.pow_(rho4, Fraction(-1, 2)), c) for c in _contact_coform(n)]
        box = ((0.3, 1.3),) + tuple(((-1.0, 1.0),) * (dim - 1))
        return SubriemannianStructure(
            coords,
            cometric,
            density,
            degeneracy=1,
            frame_fields=frames,
            domain_box=box,
            null_coform=theta,
        )

    return ca.built(("cylinder", n), make)


# ---------------------------------------------------------------------------
# Graphs over R^m with a drift field
# ---------------------------------------------------------------------------


def graph_coords(m: int) -> CoordSystem:
    return CoordSystem(tuple(f"x{j + 1}" for j in range(m)))


def standard_drift(m: int) -> list:
    """The default drift (-x2, x1, -x4, x3, ...); m must be even."""
    if m % 2 != 0:
        raise ValueError("the standard drift needs an even number of coordinates")
    out = []
    for k in range(m // 2):
        out.append(ca.neg(ca.var(2 * k + 1)))
        out.append(ca.var(2 * k))
    return out


def graph_HF_exprs(F: Sequence[Expr], u: Expr, m: int) -> tuple:
    """(H, |grad u + F|^2) for the divergence-form graph operator
    H = div((grad u + F) / |grad u + F|)."""
    if len(F) != m:
        raise ValueError(f"drift has {len(F)} components for {m} coordinates")
    comps = [ca.add(ca.differentiate(u, j), F[j]) for j in range(m)]
    norm_sq = ca.add(*[ca.pow_(c, 2) for c in comps])
    inv_norm = ca.pow_(norm_sq, Fraction(-1, 2))
    h = ca.add(
        *[ca.differentiate(ca.mul(comps[j], inv_norm), j) for j in range(m)]
    )
    return h, norm_sq


def graph_operator_HF(
    F: Sequence[Expr],
    u,
    point: Sequence[float],
    eps_sing: Optional[float] = None,
) -> float:
    """Evaluate div((grad u + F)/|grad u + F|) at a nonsingular point."""
    h, norm_sq = graph_HF_exprs(F, _phi_expr(u), len(F))
    return curvature_at(h, norm_sq, point, eps_sing)


def drift_graph_structure(F: Sequence[Expr], m: int) -> SubriemannianStructure:
    """Graph structure on R^(m+1): frames e_j = d_j - F_j d_(m+1), so the
    cometric is [[I, -F], [-F^T, |F|^2]] and the coform
    dx^(m+1) + sum F_j dx^j is null."""
    if len(F) != m:
        raise ValueError(f"drift has {len(F)} components for {m} coordinates")
    for f in F:
        if any(i >= m for i in ca.free_vars(f)):
            raise ValueError("drift components must not involve the graph coordinate")

    def make():
        coords = graph_coords(m + 1)
        dim = m + 1
        frames = [_lifted_field(coords, j, ca.neg(F[j])) for j in range(m)]
        cometric = _frame_cometric(frames, dim)
        coform = list(F) + [ca.ONE]
        return SubriemannianStructure(
            coords,
            cometric,
            ca.ONE,
            degeneracy=1,
            frame_fields=frames,
            domain_box=tuple(((0.5, 1.5),) * dim),
            null_coform=coform,
        )

    return ca.built(("graph_F", m, tuple(F)), make)


# ---------------------------------------------------------------------------
# Intrinsic and x1-transversal graphs on the (eta, tau) chart
# ---------------------------------------------------------------------------


def intrinsic_chart(n: int) -> CoordSystem:
    names = tuple(f"eta{j}" for j in range(2, 2 * n + 1)) + ("tau",)
    return CoordSystem(names)


def _eta_index(j: int) -> int:
    # chart index of eta^j, j in 2..2n; tau sits at index 2n-1
    return j - 2


def _chart_frames(n: int, coords: CoordSystem, center_coeff: Expr) -> list:
    """The 2n-1 horizontal fields on the chart: for 2<=j<=n the pair
    d_{eta^j} +- eta^{n+-j} d_tau, and the middle field
    d_{eta^(n+1)} + center_coeff * d_tau."""
    eta, pairs = _eta_index, range(2, n + 1)
    return ([_lifted_field(coords, eta(j), ca.var(eta(n + j))) for j in pairs]
            + [_lifted_field(coords, eta(n + 1), center_coeff)]
            + [_lifted_field(coords, eta(n + j), ca.neg(ca.var(eta(j)))) for j in pairs])


def _translation_graph_exprs(u: Expr, n: int, sign: int) -> tuple:
    """(H, D^2) for the graph x^1 = u(eta, tau) along x1-translations.

    The chart is eta = (x^2..x^n, y^1..y^n) and tau = z + sign x^1 y^1:
    sign +1 gives the graphs transversal to x1-translations, sign -1 the
    intrinsic graphs.  The frames other than e_1 become the chart fields;
    the middle one, e_1' = d_{eta^(n+1)} + (sign - 1) u d_tau, carries u
    itself, substituted before any differentiation, so the quasilinear
    coefficient is differentiated exactly as a field on the chart.  On
    chart functions e_1 acts as (1 + sign) eta^(n+1) d_tau, so it meets
    the graph in q_first = -1 + (1 + sign) eta^(n+1) u_tau; D^2 is
    q_first^2 + |W u|^2 and H the divergence sum, whose e_1 term exists
    only for sign +1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tau = 2 * n - 1
    eta_n1 = ca.var(_eta_index(n + 1))
    u_tau = ca.differentiate(u, tau)
    fields = _chart_frames(n, intrinsic_chart(n), ca.mul(sign - 1, u))
    q_first = ca.add(ca.const(-1), ca.mul(1 + sign, eta_n1, u_tau))
    applied = [x.apply(u) for x in fields]
    d_sq = ca.add(ca.pow_(q_first, 2), *[ca.pow_(q, 2) for q in applied])
    inv_d = ca.pow_(d_sq, Fraction(-1, 2))
    rest = [x.apply(ca.mul(q, inv_d)) for x, q in zip(fields, applied)]
    if sign < 0:
        return ca.add(*rest), d_sq
    first = ca.mul(2, eta_n1, ca.differentiate(ca.mul(q_first, inv_d), tau))
    return ca.add(first, *rest), d_sq


def intrinsic_graph_exprs(u: Expr, n: int) -> tuple:
    """(H, 1 + |W^u u|^2) for an intrinsic graph (tau = z - x^1 y^1)."""
    return _translation_graph_exprs(u, n, -1)


def la_graph_exprs(u: Expr, n: int) -> tuple:
    """(H, D^2) for a graph transversal to x1-translations (tau = z + x^1 y^1)."""
    return _translation_graph_exprs(u, n, 1)


# ---------------------------------------------------------------------------
# Radial graphs on the cylinder
# ---------------------------------------------------------------------------

def radial_curvature_expr(u: Expr, n: int) -> tuple:
    """(H, rho^2 (u'^2 + r^2)) for the rotationally symmetric cylinder graph
    z = u(r):

        H = (rho / r^(2n-1)) d/dr( u' r^(2n-1) / sqrt(u'^2 + r^2) )
            - (2n+1) r^2 (r u' - 2u) / (rho^3 sqrt(u'^2 + r^2))

    with rho^4 = r^4 + 4 u(r)^2, all symbolic in the single variable r.
    The second entry is the ambient squared covector norm of the graph at
    the lift (r, 0, ..., 0, u(r)), so ``eps_sing`` masks it as it masks
    every other operator's.
    """
    r = ca.var(0)
    du = ca.differentiate(u, 0)
    slope_sq = ca.add(ca.pow_(du, 2), ca.pow_(r, 2))
    inv_slope = ca.pow_(slope_sq, Fraction(-1, 2))
    rho4 = ca.add(ca.pow_(r, 4), ca.mul(4, ca.pow_(u, 2)))
    rho = ca.pow_(rho4, Fraction(1, 4))
    flux = ca.mul(du, ca.pow_(r, 2 * n - 1), inv_slope)
    first = ca.mul(rho, ca.pow_(r, Fraction(-(2 * n - 1))), ca.differentiate(flux, 0))
    second = ca.mul(
        ca.const(2 * n + 1),
        ca.pow_(r, 2),
        ca.sub(ca.mul(r, du), ca.mul(2, u)),
        ca.pow_(rho4, Fraction(-3, 4)),
        inv_slope,
    )
    return ca.sub(first, second), ca.mul(ca.sqrt_(rho4), slope_sq)
