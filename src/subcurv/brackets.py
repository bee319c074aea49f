"""Lie-bracket machinery: symbolic brackets, iterated bracket-closure
rank at a point, tangent distributions on level sets, and two-form rank
criteria.

Rank questions are answered pointwise and numerically: bracket words are
generated symbolically (right-nested, mirroring the generating set of
the smallest bracket-closed module), evaluated at the point of interest,
and reduced with a scaled pivot threshold.  No point-independent rank
certification is attempted.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import calculus as ca
from .calculus import Expr
from .core import MissingFrames, ScalarField, SubriemannianStructure, VectorFieldExpr
from .numerics import matrix_rank

__all__ = [
    "RankReport",
    "lie_bracket",
    "bracket_generate_rank",
    "tangent_distribution_fields",
    "two_form_rank",
    "w_tensor_independence",
]

MAX_BRACKET_WORDS = 1024  # each word re-ranks every row so far: 1022 words take 0.56 s (CPython 3.11, Xeon)


def lie_bracket(x: VectorFieldExpr, y: VectorFieldExpr) -> VectorFieldExpr:
    """[X,Y]^l = sum_k (X^k d_k Y^l - Y^k d_k X^l), simplified."""
    if x.coords != y.coords:
        raise ValueError("vector fields live in different charts")

    def make():
        n = len(x.coords)
        dx, dy = x.jacobian(), y.jacobian()
        comps = []
        for l in range(n):
            terms = []
            for k in range(n):
                terms.append(ca.mul(x.components[k], dy[k][l]))
                terms.append(ca.neg(ca.mul(y.components[k], dx[k][l])))
            comps.append(ca.add(*terms))
        return VectorFieldExpr(x.coords, comps)

    return ca.built(("[X,Y]", x.coords, x.components, y.components), make)


class RankReport:
    """Outcome of a bracket-closure rank computation at one point."""

    __slots__ = ("point", "rank", "depth", "words_generated", "pivot_tol")

    def __init__(self, point, rank, depth, words_generated, pivot_tol):
        self.point = tuple(point)
        self.rank = rank
        self.depth = depth
        self.words_generated = words_generated
        self.pivot_tol = pivot_tol

    def __repr__(self):
        return (
            f"RankReport(rank={self.rank}, depth={self.depth}, "
            f"words={self.words_generated})"
        )


def bracket_generate_rank(
    fields: Sequence[VectorFieldExpr],
    point: Sequence[float],
    max_depth: int = 4,
    target_rank: Optional[int] = None,
) -> RankReport:
    """Rank of the span of right-nested bracket words at a point.

    Words of depth d are [X_i, w] with w of depth d-1, so the count grows
    like r^d; each word is built when it is evaluated, and generation
    stops as soon as the target rank (full chart dimension by default) is
    reached, or raises ``EvaluationError`` past ``MAX_BRACKET_WORDS``
    words.  Rank is monotone in both the depth and the field set.
    """
    if not fields:
        raise ValueError("need at least one field")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    dim = len(fields[0].coords)
    if target_rank is None:
        target_rank = dim
    point = tuple(float(c) for c in point)

    rows = []
    words_generated = 0
    depth_achieved = 1
    rank, tol = 0, 0.0
    for depth, w in _words(fields, max_depth):
        if words_generated == MAX_BRACKET_WORDS:
            raise ca.EvaluationError(f"rank {rank} of {target_rank} at point {point} not reached "
                                     f"within MAX_BRACKET_WORDS = {MAX_BRACKET_WORDS} bracket words")
        words_generated += 1
        rows.append(w.at(point))
        new_rank, tol = matrix_rank(rows)
        if new_rank > rank:
            rank = new_rank
            depth_achieved = depth
        if rank >= target_rank:
            break
    return RankReport(point, rank, depth_achieved, words_generated, tol)


def _words(fields, max_depth: int):
    """Yield ``(depth, word)``: the fields, then [X_i, w] depth by depth.

    A word is bracketed only when the consumer asks for it, so a rank
    that reaches its target early never builds the rest of the level.
    """
    level = list(fields)
    for w in level:
        yield 1, w
    for depth in range(2, max_depth + 1):
        prev, level = level, []
        for x in fields:
            for w in prev:
                word = lie_bracket(x, w)
                level.append(word)
                yield depth, word


def tangent_distribution_fields(
    S: SubriemannianStructure, phi
) -> list:
    """The pairwise fields X_ij = (E_j phi) E_i - (E_i phi) E_j, i < j.

    Each annihilates phi identically and lies in the span of the frame
    fields; wherever d(phi) does not vanish on that span, they span its
    intersection with the tangent distribution of the level sets.
    """
    if not S.frame_fields:
        raise MissingFrames("structure has no frame_fields metadata")
    e = phi.expr if isinstance(phi, ScalarField) else phi
    frames = S.frame_fields

    def make():
        derivs = [x.apply(e) for x in frames]
        n = len(frames)
        return tuple(frames[i].scale(derivs[j]) - frames[j].scale(derivs[i])
                     for i in range(n) for j in range(i + 1, n))

    return list(ca.built(("X_ij", S.coords, tuple(x.components for x in frames), e), make))


def two_form_rank(
    M: Sequence[Sequence[Expr]],
    point: Sequence[float],
    restriction_basis: Optional[Sequence[VectorFieldExpr]] = None,
) -> int:
    """Numeric rank of a symbolically skew matrix at a point.

    With a restriction basis B of vector fields the rank of B^T M B is
    returned instead, which realizes the rank of a two-form restricted to
    a distribution.
    """
    n = len(M)
    for row in M:
        if len(row) != n:
            raise ValueError("matrix must be square")
    for k in range(n):
        for j in range(k, n):
            s = ca.add(M[k][j], M[j][k])
            if s is not ca.ZERO:
                raise ValueError(f"matrix not skew-symmetric at ({k},{j})")
    num = [[ca.evaluate(entry, point) for entry in row] for row in M]
    if restriction_basis is not None:
        basis = [b.at(point) for b in restriction_basis]
        restricted = []
        for bi in basis:
            row = []
            for bj in basis:
                row.append(
                    sum(bi[k] * num[k][j] * bj[j] for k in range(n) for j in range(n))
                )
            restricted.append(row)
        num = restricted
    rank, _ = matrix_rank(num)
    return rank


def _coform_apply(theta: Sequence[Expr], x: VectorFieldExpr) -> Expr:
    return ca.add(
        *[ca.mul(theta[l], x.components[l]) for l in range(len(theta))]
    )


def w_tensor_independence(
    fields: Sequence[VectorFieldExpr],
    null_coforms: Sequence[Sequence[Expr]],
    complement_fields: Sequence[VectorFieldExpr],
    point: Sequence[float],
) -> tuple:
    """Linear independence of the bracket-coefficient matrices.

    For [X_i, X_j] = sum_a W_ij^a T_a modulo the span of the X's, the
    coefficients are W_ij^a = theta^a([X_i, X_j]); the l coefficient
    matrices are independent iff the l x (k(k-1)/2) matrix of their
    upper-triangular entries has rank l.  Returns (independent, details)
    where details records the matrix, its rank, and the dimension-count
    inequality k(k-1)/2 >= l.
    """
    l = len(null_coforms)
    k = len(fields)
    if len(complement_fields) != l:
        raise ValueError("need one complement field per null coform")
    point = tuple(float(c) for c in point)
    # frame consistency: the coforms must annihilate the X's symbolically.
    # Duplicated or badly paired coforms are reported through the rank
    # (dependent), with the dual-pairing mismatch recorded in the details.
    for a, theta in enumerate(null_coforms):
        for x in fields:
            s = _coform_apply(theta, x)
            if s is not ca.ZERO:
                raise ValueError(
                    f"frame inconsistency: coform {a} does not annihilate field"
                )
    dual_pairing_ok = True
    for a, theta in enumerate(null_coforms):
        for b, t in enumerate(complement_fields):
            val = ca.evaluate(_coform_apply(theta, t), point)
            expected = 1.0 if a == b else 0.0
            if abs(val - expected) > 1e-9:
                dual_pairing_ok = False
    if l == 0:
        return True, {
            "rank": 0,
            "pairs": [],
            "w_matrix": [],
            "dim_check": True,
            "dual_pairing_ok": True,
        }
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    brackets = {pair: lie_bracket(fields[pair[0]], fields[pair[1]]) for pair in pairs}
    w_matrix = []
    for theta in null_coforms:
        w_matrix.append(
            [ca.evaluate(_coform_apply(theta, brackets[p]), point) for p in pairs]
        )
    rank, _ = matrix_rank(w_matrix)
    dim_check = k * (k - 1) // 2 >= l
    details = {
        "rank": rank,
        "pairs": pairs,
        "w_matrix": w_matrix,
        "dim_check": dim_check,
        "dual_pairing_ok": dual_pairing_ok,
    }
    return rank == l and dim_check, details

