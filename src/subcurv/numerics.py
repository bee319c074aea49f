"""Small dense linear-algebra and root-polishing routines.

Pure-Python, deterministic; sized for the few-by-few systems this package
produces (charts up to a handful of coordinates).
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

__all__ = [
    "solve_linear",
    "matrix_rank",
    "principal_minors",
    "newton_minimize",
]


def solve_linear(a, b) -> Optional[list]:
    """Solve ``a x = b`` by Gaussian elimination with partial pivoting.

    Returns None when the matrix is numerically singular (pivot below
    1e-12 times the largest initial entry).
    """
    n = len(b)
    m = [list(map(float, row)) + [float(b[i])] for i, row in enumerate(a)]
    scale = max((abs(v) for row in m for v in row[:n]), default=0.0)
    if scale == 0.0:
        return None
    tol = 1e-12 * scale
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[piv][col]) <= tol:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1.0 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f == 0.0:
                continue
            for c in range(col, n + 1):
                m[r][c] -= f * m[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / m[r][r]
    return x


def matrix_rank(rows: Sequence[Sequence[float]], pivot_tol: float = None):
    """Numeric rank by row elimination with a scaled pivot threshold.

    The default threshold is ``1e-9 *`` the largest row norm, which keeps
    rank decisions stable under the roundoff amplification of iterated
    bracket trees.  Returns ``(rank, threshold_used)``.
    """
    work = [list(map(float, r)) for r in rows]
    if not work:
        return 0, 0.0
    ncols = len(work[0])
    if pivot_tol is None:
        row_norm = max(
            (sum(v * v for v in r) ** 0.5 for r in work), default=0.0
        )
        pivot_tol = 1e-9 * row_norm
    if pivot_tol == 0.0:
        return 0, 0.0
    rank = 0
    col = 0
    nrows = len(work)
    while rank < nrows and col < ncols:
        piv = max(range(rank, nrows), key=lambda r: abs(work[r][col]))
        if abs(work[piv][col]) <= pivot_tol:
            col += 1
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = 1.0 / work[rank][col]
        for r in range(rank + 1, nrows):
            f = work[r][col] * inv
            if f == 0.0:
                continue
            for c in range(col, ncols):
                work[r][c] -= f * work[rank][c]
        rank += 1
        col += 1
    return rank, pivot_tol


def _det(m: list) -> float:
    """Determinant by elimination with partial pivoting (consumes ``m``)."""
    k = len(m)
    det = 1.0
    for col in range(k):
        piv = max(range(col, k), key=lambda r: abs(m[r][col]))
        if m[piv][col] == 0.0:
            return 0.0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1.0 / m[col][col]
        for r in range(col + 1, k):
            f = m[r][col] * inv
            for c in range(col, k):
                m[r][c] -= f * m[col][c]
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


def newton_minimize(
    grad: Callable[[Sequence[float]], Sequence[float]],
    hess: Callable[[Sequence[float]], Sequence[Sequence[float]]],
    x0: Sequence[float],
    active: Sequence[int],
    max_iter: int = 20,
    grad_tol: float = 1e-12,
    step_tol: float = 1e-14,
):
    """Newton iteration on the stationarity system, restricted to the
    ``active`` coordinate axes (the others stay frozen at their ``x0``
    values).

    Returns ``(x, converged)``; a singular restricted Hessian (flat
    directions, e.g. a one-dimensional zero set) reports non-convergence
    so callers can fall back to the unrefined seed.
    """
    x = list(map(float, x0))
    if not active:
        return x, False
    for _ in range(max_iter):
        g_full = grad(x)
        g = [g_full[i] for i in active]
        if max(abs(v) for v in g) < grad_tol:
            return x, True
        h_full = hess(x)
        h = [[h_full[i][j] for j in active] for i in active]
        step = solve_linear(h, g)
        if step is None:
            return x, False
        for k, i in enumerate(active):
            x[i] -= step[k]
        if max(abs(s) for s in step) < step_tol:
            g_full = grad(x)
            if max(abs(g_full[i]) for i in active) < grad_tol:
                return x, True
            return x, False
    g_full = grad(x)
    converged = max(abs(g_full[i]) for i in active) < grad_tol
    return x, converged
