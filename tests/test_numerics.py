"""Direct tests of the dense linear algebra in ``subcurv.numerics``."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcurv.numerics import (
    NEWTON_GRAD_TOL, NEWTON_STEP_TOL, indefinite_minor, matrix_rank, newton_minimize,
    solve_linear,
)
from subcurv.core import PSD_TOL


def exact_reduce(rows):
    """(rank, determinant) of a small matrix by exact Fraction elimination;
    the determinant means something only for a square matrix."""
    m = [[Fraction(v) for v in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    rank, det = 0, Fraction(1)
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det *= m[rank][col]
        for r in range(rank + 1, nrows):
            f = m[r][col] / m[rank][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank, det


def int_matrices(square=False):
    def build(shape):
        nrows, ncols = shape
        ncols = nrows if square else ncols
        row = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
        return st.lists(row, min_size=nrows, max_size=nrows)

    return st.tuples(st.integers(1, 5), st.integers(1, 6)).flatmap(build)


@settings(max_examples=400, deadline=None)
@given(int_matrices())
def test_rank_of_integer_matrices_is_exact(rows):
    rank, tol = matrix_rank(rows)
    assert rank == exact_reduce(rows)[0]
    assert tol == 1e-9 * max(sum(v * v for v in r) ** 0.5 for r in rows)


def exact_minor(matrix, rows):
    return exact_reduce([[matrix[i][j] for j in rows] for i in rows])[1]


def negative_minors(matrix):
    """Every principal minor by exact Fraction elimination, by size then
    index set, kept where it is negative: the oracle for PSD-ness."""
    n = len(matrix)
    return [
        (rows, m)
        for k in range(1, n + 1)
        for rows in itertools.combinations(range(n), k)
        if (m := exact_minor(matrix, rows)) < 0
    ]


@st.composite
def symmetric_int_matrices(draw):
    """Symmetric integer matrices up to 6x6: plain, Gram matrices B^T B
    (often rank-deficient, so PSD on the boundary) and Gram matrices
    minus e_i e_i^T (often just off it)."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["plain", "gram", "gram-minus"]))
    if kind == "plain":
        entries = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
        return [[entries[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    r = draw(st.integers(1, n))
    b = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=r, max_size=r))
    g = [[sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)]
    if kind == "gram-minus":
        i = draw(st.integers(0, n - 1))
        g[i][i] -= 1
    return g


@settings(max_examples=600, deadline=None)
@given(symmetric_int_matrices())
def test_indefinite_minor_agrees_with_every_exact_principal_minor(matrix):
    got = indefinite_minor(matrix, PSD_TOL)
    if not negative_minors(matrix):
        assert got is None
        return
    assert got is not None
    rows, m = got
    assert list(rows) == sorted(set(rows))
    exact = exact_minor(matrix, rows)
    assert exact < 0
    assert abs(m - float(exact)) <= 1e-9 * abs(float(exact))


@settings(max_examples=300, deadline=None)
@given(symmetric_int_matrices(), st.data())
def test_indefinite_minor_verdict_is_unchanged_by_diagonal_scaling(matrix, data):
    # g -> D g D with D a diagonal of powers of ten from 1 to 1e8
    d = [10.0 ** data.draw(st.integers(0, 8)) for _ in matrix]
    scaled = [[d[i] * v * d[j] for j, v in enumerate(row)] for i, row in enumerate(matrix)]
    assert (indefinite_minor(scaled, PSD_TOL) is None) == (indefinite_minor(matrix, PSD_TOL) is None)


def test_indefinite_minor_finds_what_leading_minors_miss():
    # leading minors of [[0, 0], [0, -1]] are 0 and 0
    assert indefinite_minor([[0, 0], [0, -1]], PSD_TOL) == ((1,), -1.0)
    assert indefinite_minor([[0, 1], [1, 0]], PSD_TOL) == ((0, 1), -1.0)
    assert indefinite_minor([[1, 2], [2, 1]], PSD_TOL) == ((0, 1), -3.0)
    assert indefinite_minor([[2, 1], [1, 2]], PSD_TOL) is None
    assert indefinite_minor([[0.0, 0.0], [0.0, -PSD_TOL]], PSD_TOL) is None


def test_indefinite_minor_bound_follows_each_diagonal_entry():
    # heisenberg(1)'s cometric at (1500, 1500): rank 2, so its 3x3 minor
    # is zero and rounds to about -1.7e-10, below the absolute -PSD_TOL
    x = y = 1500.0
    g = [[1.0, 0.0, y], [0.0, 1.0, -x], [y, -x, x * x + y * y]]
    assert indefinite_minor(g, PSD_TOL) is None
    # a genuinely negative Schur diagonal at that scale is still found
    g[2][2] -= 1.0
    rows, m = indefinite_minor(g, PSD_TOL)
    assert rows == (0, 1, 2) and m == pytest.approx(-1.0, rel=1e-6)


def test_rank_of_zero_and_empty_matrices():
    assert matrix_rank([]) == (0, 0.0)
    assert matrix_rank([[0.0, 0.0], [0.0, 0.0]]) == (0, 0.0)


def test_rank_threshold_outside_the_float_range_raises():
    # the row norm of (1e160, 0) overflows; a finite threshold is unchanged
    with pytest.raises(OverflowError, match="outside the float range"):
        matrix_rank([[1e160, 0.0], [0.0, 1.0]])
    assert matrix_rank([[1e150, 0.0], [0.0, 1.0]]) == (1, 1e141)


@settings(max_examples=400, deadline=None)
@given(int_matrices(square=True), st.data())
def test_solve_linear_is_none_exactly_on_singular_input(rows, data):
    b = data.draw(st.lists(st.integers(-5, 5), min_size=len(rows), max_size=len(rows)))
    x = solve_linear(rows, b)
    if exact_reduce(rows)[1] == 0:
        assert x is None
        return
    assert x is not None
    for row, rhs in zip(rows, b):
        assert abs(sum(a * v for a, v in zip(row, x)) - rhs) <= 1e-9 * max(1, *map(abs, x))


def test_solve_linear_rejects_a_zero_matrix_and_a_dependent_row():
    assert solve_linear([[0.0, 0.0], [0.0, 0.0]], [1.0, 2.0]) is None
    assert solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0]) is None
    assert solve_linear([[0.0, 2.0], [3.0, 0.0]], [4.0, 9.0]) == [3.0, 2.0]


@pytest.mark.parametrize("stiffness, offset, converged", [(1e6, 1e-11, False), (1e3, 3e-12, True)])
def test_newton_stops_once_a_step_is_below_the_step_tolerance(stiffness, offset, converged):
    # f = stiffness/2 (x - 1)^2 + offset x has its minimum offset/stiffness
    # below 1.0, so the first step is below NEWTON_STEP_TOL.  For the stiff
    # one that is under one ulp of 1.0: x stays put and its gradient stays
    # at the offset, above NEWTON_GRAD_TOL; the other one lands within it
    hessians = []

    def grad(x):
        return [stiffness * (x[0] - 1.0) + offset]

    def hess(x):
        hessians.append(list(x))
        return [[stiffness]]

    x, ok = newton_minimize(grad, hess, [1.0], [0])
    assert ok is converged and hessians == [[1.0]]
    assert 0.0 <= 1.0 - x[0] < NEWTON_STEP_TOL
    assert (abs(grad(x)[0]) < NEWTON_GRAD_TOL) is converged
