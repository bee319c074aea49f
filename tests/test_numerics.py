"""Direct tests of the dense linear algebra in ``subcurv.numerics``."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcurv.numerics import (
    NEWTON_GRAD_TOL, NEWTON_STEP_TOL, _det, matrix_rank, newton_minimize, principal_minors,
    solve_linear,
)


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


@settings(max_examples=400, deadline=None)
@given(int_matrices(square=True))
def test_determinant_of_integer_matrices_is_exact(rows):
    expected = exact_reduce(rows)[1]
    got = _det([list(map(float, r)) for r in rows])
    assert abs(got - float(expected)) <= 1e-9 * max(1.0, abs(float(expected)))


def test_principal_minors_by_size_then_index_set():
    assert principal_minors([[2, 1], [1, 2]]) == [2.0, 2.0, 3.0]
    assert principal_minors([[0, 0], [0, -1]]) == [0.0, -1.0, 0.0]


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
