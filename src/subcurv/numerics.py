"""Small dense linear-algebra and root-polishing routines.

Pure-Python, deterministic; sized for the few-by-few systems this package
produces (charts up to a handful of coordinates).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Sequence

__all__ = [
    "solve_linear",
    "matrix_rank",
    "principal_minors",
    "newton_minimize",
]


def _row_reduce(m: list, ncols: int, tol: float):
    """Gaussian elimination with partial pivoting, in place, over the first
    ``ncols`` columns of the rows ``m``; later columns (a right-hand side)
    ride along.  A column whose largest candidate entry is at most ``tol``
    gets no pivot.  Returns ``(pivot columns, row swaps)``.
    """
    pivots, swaps = [], 0
    nrows = len(m)
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        piv = max(range(rank, nrows), key=lambda r: abs(m[r][col]))
        if abs(m[piv][col]) <= tol:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            swaps += 1
        inv = 1.0 / m[rank][col]
        for r in range(rank + 1, nrows):
            f = m[r][col] * inv
            if f == 0.0:
                continue
            for c in range(col, len(m[r])):
                m[r][c] -= f * m[rank][c]
        pivots.append(col)
    return pivots, swaps


def solve_linear(a, b) -> Optional[list]:
    """Solve ``a x = b`` by Gaussian elimination with partial pivoting.

    Returns None when the matrix is numerically singular (pivot below
    1e-12 times the largest initial entry).
    """
    n = len(b)
    m = [list(map(float, row)) + [float(b[i])] for i, row in enumerate(a)]
    scale = max((abs(v) for row in m for v in row[:n]), default=0.0)
    if scale == 0.0 or len(_row_reduce(m, n, 1e-12 * scale)[0]) < n:
        return None
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / m[r][r]
    return x


def matrix_rank(rows: Sequence[Sequence[float]]):
    """Numeric rank by row elimination with a scaled pivot threshold.

    The threshold is ``1e-9 *`` the largest row norm, which keeps rank
    decisions stable under the roundoff amplification of iterated bracket
    trees.  Returns ``(rank, threshold_used)``; a threshold outside the
    float range (the row norm overflows) raises ``OverflowError``.
    """
    work = [list(map(float, r)) for r in rows]
    row_norm = max((sum(v * v for v in r) ** 0.5 for r in work), default=0.0)
    pivot_tol = 1e-9 * row_norm
    if not math.isfinite(pivot_tol):
        raise OverflowError(f"pivot threshold outside the float range (largest row norm {row_norm})")
    if pivot_tol == 0.0:
        return 0, 0.0
    return len(_row_reduce(work, len(work[0]), pivot_tol)[0]), pivot_tol


def _det(m: list) -> float:
    """Determinant by elimination with partial pivoting (consumes ``m``)."""
    pivots, swaps = _row_reduce(m, len(m), 0.0)
    if len(pivots) < len(m):
        return 0.0
    det = -1.0 if swaps % 2 else 1.0
    for i in range(len(m)):
        det *= m[i][i]
    return det


def principal_minors(matrix: Sequence[Sequence[float]]) -> list:
    """Determinants of all principal submatrices, by size then index set.

    A symmetric matrix is positive semidefinite exactly when every
    principal minor is nonnegative (leading minors alone do not decide
    it: ``[[0, 0], [0, -1]]`` has leading minors 0 and 0).  There are
    ``2^n - 1`` of them, 127 for a 7x7 matrix.
    """
    n = len(matrix)
    return [
        _det([[float(matrix[i][j]) for j in rows] for i in rows])
        for k in range(1, n + 1)
        for rows in itertools.combinations(range(n), k)
    ]


NEWTON_MAX_ITER = 20
NEWTON_GRAD_TOL = 1e-12
NEWTON_STEP_TOL = 1e-14


def newton_minimize(
    grad: Callable[[Sequence[float]], Sequence[float]],
    hess: Callable[[Sequence[float]], Sequence[Sequence[float]]],
    x0: Sequence[float],
    active: Sequence[int],
):
    """Newton iteration on the stationarity system, restricted to the
    ``active`` coordinate axes (the others stay frozen at their ``x0``
    values): at most ``NEWTON_MAX_ITER`` steps, converged once the active
    gradient is below ``NEWTON_GRAD_TOL``, stopped once a step is below
    ``NEWTON_STEP_TOL``.

    Returns ``(x, converged)``; a singular restricted Hessian (flat
    directions, e.g. a one-dimensional zero set) reports non-convergence
    so callers can fall back to the unrefined seed.
    """
    x = list(map(float, x0))
    if not active:
        return x, False
    for _ in range(NEWTON_MAX_ITER):
        g_full = grad(x)
        g = [g_full[i] for i in active]
        if max(abs(v) for v in g) < NEWTON_GRAD_TOL:
            return x, True
        h_full = hess(x)
        h = [[h_full[i][j] for j in active] for i in active]
        step = solve_linear(h, g)
        if step is None:
            return x, False
        for k, i in enumerate(active):
            x[i] -= step[k]
        if max(abs(s) for s in step) < NEWTON_STEP_TOL:
            g_full = grad(x)
            if max(abs(g_full[i]) for i in active) < NEWTON_GRAD_TOL:
                return x, True
            return x, False
    g_full = grad(x)
    converged = max(abs(g_full[i]) for i in active) < NEWTON_GRAD_TOL
    return x, converged
