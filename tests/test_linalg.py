from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wallcross.linalg import (
    RankAccumulator,
    identity,
    mat_inverse,
    mat_mul,
    solve_rational,
)
from wallcross import fock, stable
from wallcross.scalars import one, zero

from api_oracles import q, t

F0, F1 = Fraction(0), Fraction(1)


def mat_vec(A, v):
    return [sum((x * y for x, y in zip(row, v)), F0) for row in A]


def rank(A):
    acc = RankAccumulator()
    return sum(acc.add(dict(enumerate(row))) for row in A)


def in_normal_form(v):
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in v)


frac = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def square_mats(draw, nmax=4):
    n = draw(st.integers(1, nmax))
    return [[draw(frac) for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(square_mats())
def test_inverse_round_trip_fractions(A):
    n = len(A)
    try:
        Ainv = mat_inverse(A, F1, F0)
    except ValueError:
        # singular: confirm by the rank, counted independently
        assert rank(A) < n
        return
    assert mat_mul(A, Ainv) == identity(n, F1, F0)
    assert mat_mul(Ainv, A) == identity(n, F1, F0)


def test_inverse_over_scalars():
    A = [[one(), q()], [t(), one() + q() * t()]]
    # det = 1 + qt - qt = 1, inverse is exact
    Ainv = mat_inverse(A, one(), zero())
    assert mat_mul(A, Ainv) == identity(2, one(), zero())
    B = [[one() - q(), zero()], [one(), one()]]
    assert mat_mul(mat_inverse(B, one(), zero()), B) == identity(2, one(), zero())


def test_inverse_singular_scalar_matrix():
    A = [[one(), q()], [t(), q() * t()]]
    with pytest.raises(ValueError, match="singular"):
        mat_inverse(A, one(), zero())


def dense_mat_mul(A, B):
    """mat_mul before it skipped zero entries: every entry pair multiplied."""
    n, k = len(A), len(B)
    m = len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for l in range(1, k):
                acc = acc + A[i][l] * B[l][j]
            row.append(acc)
        out.append(row)
    return out


@pytest.mark.parametrize("n", [4, 5])
def test_mat_mul_matches_dense_on_factor_chains(n):
    # the products transition_matrix takes: wall factors I + B and their
    # inverses, chained from either end
    factors = [factor for _, factor in stable._sweep(n)[1]]
    inverses = [stable._factor_inverse(n, p) for p in range(len(factors))]
    up = down = identity(len(factors[0]), one(), zero())
    for F, Finv in zip(factors, inverses):
        assert mat_mul(F, up) == dense_mat_mul(F, up)
        assert mat_mul(down, Finv) == dense_mat_mul(down, Finv)
        up, down = mat_mul(F, up), mat_mul(down, Finv)
    assert mat_mul(up, down) == identity(len(up), one(), zero())


sparse = st.one_of(st.just(F0), st.just(F0), st.just(F0), frac)


@st.composite
def sparse_pairs(draw):
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    A = [[draw(sparse) for _ in range(k)] for _ in range(n)]
    B = [[draw(sparse) for _ in range(m)] for _ in range(k)]
    return A, B


@settings(max_examples=100, deadline=None)
@given(sparse_pairs())
@example(([[F0, F0]], [[F1], [Fraction(2)]]))  # a zero row of A: no term at all
def test_mat_mul_matches_dense_on_sparse_fractions(pair):
    A, B = pair
    assert mat_mul(A, B) == dense_mat_mul(A, B)


def dense_mat_inverse(A, one, zero):
    """mat_inverse before it read only nonzeros: every step rescales the
    whole pivot row and updates every entry of every other row."""
    n = len(A)
    M = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            raise ValueError(f"singular matrix (no pivot in column {col})")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
        inv = one / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


@pytest.mark.parametrize("n", [4, 5])
def test_inverse_matches_dense_on_wall_factors(n):
    for _, factor in stable._sweep(n)[1]:
        assert mat_inverse(factor, one(), zero()) == dense_mat_inverse(factor, one(), zero())


@pytest.mark.parametrize("n, b", [(n, b) for n in range(2, 9) for b in range(2, n + 1)])
def test_inverse_matches_dense_on_fock_matrices(n, b):
    # T(1/xi) at the first point of the evaluation, as fock._bar_at inverts it
    T = fock._integral(fock._spanning_matrix(n, b), n, b)
    Tbar = [[fock._at(p, Fraction(1, fock._XI)) for p in row] for row in T]
    assert mat_inverse(Tbar, F1, F0) == dense_mat_inverse(Tbar, F1, F0)


@st.composite
def sparse_squares(draw):
    n = draw(st.integers(1, 6))
    return [[draw(sparse) for _ in range(n)] for _ in range(n)]


def inverse_or_singular(inverse, A):
    try:
        return inverse(A, F1, F0)
    except ValueError as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(sparse_squares())
@example([[F0, F1], [F1, F0]])  # a row swap before the first step
@example([[F1, F1], [F1, F1]])  # singular only after the first step
def test_inverse_matches_dense_on_sparse_fractions(A):
    assert inverse_or_singular(mat_inverse, A) == inverse_or_singular(dense_mat_inverse, A)


def test_inverse_singular_sparse_fraction_matrix():
    # column 2 is cleared by the first two steps, so the third finds no pivot
    A = [[F1, F0, F1], [F0, Fraction(2), Fraction(4)], [F1, F1, Fraction(3)]]
    with pytest.raises(ValueError, match="no pivot in column 2"):
        mat_inverse(A, F1, F0)


def test_mat_mul_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        mat_mul([[F1, F1], [F1]], [[F1], [F1]])


def test_inverse_rejects_non_square():
    with pytest.raises(ValueError, match="non-square"):
        mat_inverse([[F1, F0]], F1, F0)


def test_solve_unique():
    A = [[F1, F1], [F0, F1]]
    part, nullity = solve_rational(A, [Fraction(3), Fraction(1)])
    assert part == [2, 1] and [type(x) for x in part] == [int, int]
    assert nullity == 0


def test_solve_inconsistent():
    # x0 = 0 and x0 = 1; x1 is held by no equation
    A = [[F1, F0], [F1, F0]]
    part, nullity = solve_rational(A, [F0, F1])
    assert part is None
    assert nullity == 1


def test_solve_underdetermined():
    # triangular in x0, x1; x2 is held by no equation
    A = [[F1, F1, F0], [F0, F1, F0]]
    part, nullity = solve_rational(A, [Fraction(6), Fraction(1)])
    assert part is not None
    assert mat_vec(A, part) == [Fraction(6), Fraction(1)]
    assert nullity == 1


def test_solve_stalls():
    # each equation holds two unknowns: substitution cannot start
    with pytest.raises(ArithmeticError, match="2 equations in 2 unknowns"):
        solve_rational([[F1, F1], [F1, -F1]], [F0, Fraction(2)])


# sparse, so that most systems are triangular and substitution pins them
@settings(max_examples=40, deadline=None)
@given(sparse_squares(), st.lists(sparse, min_size=6, max_size=6))
def test_solve_verifies(A, b):
    b = b[: len(A)]
    try:
        part, nullity = solve_rational(A, b)
    except ArithmeticError:  # not triangular: substitution stalls
        return
    if part is not None:
        assert mat_vec(A, part) == b
        assert in_normal_form(part)
    # rank + nullity = number of columns, the rank counted independently
    assert nullity == len(A[0]) - rank(A)


def test_rank_accumulator_over_scalars():
    acc = RankAccumulator()
    v1 = {(2,): one(), (1, 1): q()}
    v2 = {(1, 1): one()}
    assert acc.add(v1)
    assert acc.add(v2)
    assert len(acc.rows) == 2
    # any q-combination of the two is already in the span
    assert not acc.add({(2,): q(3), (1, 1): q(4) + one()})
    assert not acc.add({(2,): one()})


def test_rank_accumulator_rejects_zero():
    acc = RankAccumulator()
    assert not acc.add({})
    assert not acc.add({(1,): zero()})
