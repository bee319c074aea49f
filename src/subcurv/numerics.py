"""Small dense linear-algebra and root-polishing routines.

Pure-Python, deterministic; sized for the few-by-few systems this package
produces (charts up to a handful of coordinates).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

__all__ = [
    "solve_linear",
    "matrix_rank",
    "indefinite_minor",
    "newton_minimize",
]


def _row_reduce(m: list, ncols: int, tol: float):
    """Gaussian elimination with partial pivoting, in place, over the first
    ``ncols`` columns of the rows ``m``; later columns (a right-hand side)
    ride along.  A column whose largest candidate entry is at most ``tol``
    gets no pivot.  Returns the pivot columns.
    """
    pivots = []
    nrows = len(m)
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        piv = max(range(rank, nrows), key=lambda r: abs(m[r][col]))
        if abs(m[piv][col]) <= tol:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1.0 / m[rank][col]
        for r in range(rank + 1, nrows):
            f = m[r][col] * inv
            if f == 0.0:
                continue
            for c in range(col, len(m[r])):
                m[r][c] -= f * m[rank][c]
        pivots.append(col)
    return pivots


def solve_linear(a, b) -> Optional[list]:
    """Solve ``a x = b`` by Gaussian elimination with partial pivoting.

    Returns None when the matrix is numerically singular (pivot below
    1e-12 times the largest initial entry).
    """
    n = len(b)
    m = [list(map(float, row)) + [float(b[i])] for i, row in enumerate(a)]
    scale = max((abs(v) for row in m for v in row[:n]), default=0.0)
    if scale == 0.0 or len(_row_reduce(m, n, 1e-12 * scale)) < n:
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
    return len(_row_reduce(work, len(work[0]), pivot_tol)), pivot_tol


def indefinite_minor(matrix: Sequence[Sequence[float]], tol: float):
    """``None`` for a positive semidefinite symmetric ``matrix``, else
    ``(rows, m)``: a sorted index set whose principal minor ``m`` is negative.

    One elimination with diagonal pivoting, O(n^3) (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., 10.3).  Coordinate i may
    carry the roundoff ``b_i = tol * max(1, g_ii)``, as a PSD matrix has
    ``|g_jk| <= sqrt(g_jj g_kk)``.  The pivot is the largest Schur diagonal
    above its bound; the first one below ``-b_i`` closes a negative minor
    over the pivots and i; after the last pivot, an entry with
    ``|a_jk| > sqrt(b_j b_k)`` closes one over the pivots, j and k.
    """
    a = [list(map(float, row)) for row in matrix]
    bound = [tol * max(1.0, a[i][i]) for i in range(len(a))]
    rest, pivots, det = list(range(len(a))), [], 1.0
    while True:
        for i in rest:
            if a[i][i] < -bound[i]:
                return tuple(sorted(pivots + [i])), det * a[i][i]
        if not (live := [i for i in rest if a[i][i] > bound[i]]):
            break
        p = max(live, key=lambda i: a[i][i])
        rest.remove(p)
        pivots.append(p)
        det *= a[p][p]
        for j in rest:
            f = a[j][p] / a[p][p]
            for k in rest:
                a[j][k] -= f * a[p][k]
    for x, j in enumerate(rest):
        for k in rest[x + 1:]:
            if abs(a[j][k]) > math.sqrt(bound[j] * bound[k]):
                return tuple(sorted(pivots + [j, k])), det * (a[j][j] * a[k][k] - a[j][k] ** 2)
    return None


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
            break
    g_full = grad(x)
    return x, max(abs(g_full[i]) for i in active) < NEWTON_GRAD_TOL
