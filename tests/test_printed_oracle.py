"""Printed basis elements from the wall-factor chain against localization.

stable.printed_basis reads the printed elements at a slope off the chain
of wall factors: P_la = sum over nu of T[nu][la] (1 - q2) s_nu[X/(1 - q2)],
T the transition matrix to slope 0.  The route it replaced rebuilt each
element from its table row by inverse localization (each restriction over
[T_la], then omega and rho_la); it is api_oracles.printed_expansion, and
the two must agree exactly: basis s and equal coefficient dicts.

printed_sum adds the products with seeds cleared of (q2; q2)_n and divides
each sum once.  The route it replaced added every product as a reduced
fraction; it is printed_sum_by_addition below, equal on every column of the
transition matrices to slope 0 for n <= 5 at the positivity test slopes.
"""

import functools
from fractions import Fraction as F2

import pytest

from wallcross import stable as S
from wallcross.partitions import enumerate_partitions
from wallcross.scalars import monomial, one, q2
from wallcross.symfunc import SymFunc, _expand, s_

from api_oracles import printed_expansion
from test_series_oracle import SLOPES

OFF_CHAMBER = [F2(-2), F2(-1, 3), F2(1), F2(5, 4), F2(7, 3)]


def slope_points(n):
    """Slope 0, both sides of every wall in (0, 1), both sides of OFF_CHAMBER."""
    walls = [w for w in S.candidate_walls(n, 0, 1) if S.is_wall(n, w)]
    return [(F2(0), 1)] + [(m, side) for m in walls + OFF_CHAMBER for side in (-1, 1)]


def assert_same_elements(n, slope):
    table = S.stable_basis(n, slope)
    got = S.printed_basis(n, slope)
    assert list(got) == list(enumerate_partitions(n))
    for la, f in got.items():
        want = printed_expansion(table, la)
        assert f.basis == want.basis == "s"
        assert f.coeffs == want.coeffs, (n, slope, la)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_printed_basis_matches_localization(n):
    for slope in slope_points(n):
        assert_same_elements(n, slope)


def test_printed_basis_matches_localization_n5():
    assert_same_elements(5, (F2(2, 3), 1))


@pytest.mark.parametrize("n", range(1, 8))
def test_cleared_schur_coefficients_are_laurent(n):
    # prod_i (1 - u^mu_i) divides (u; u)_n for every mu |- n, so the printed
    # seeds (u = q2) and the Verma numerators (u = t) carry no denominator
    t = lambda k: monomial(1, 0, k)
    for nu in enumerate_partitions(n):
        for f in (S._printed_seed(nu), S._cleared_schur(nu, t)):
            assert f.basis == "s" and f.coeffs
            assert all(c.is_laurent() for c in f.coeffs.values()), (n, nu)


@functools.cache
def seed_over_q(nu):
    """(1 - q2) s_nu[X/(1 - q2)] in s, its coefficients reduced over Q(q, t)."""
    return S._phi_prime(s_(nu)).scale(one() - q2(1)).to_basis("s")


def printed_sum_by_addition(coeffs):
    """printed_sum before the seeds were put over (q2; q2)_n: every product
    with a reduced seed coefficient is added as a fraction."""
    return SymFunc("s", _expand({nu: c for nu, c in coeffs.items() if c},
                                lambda nu: seed_over_q(nu).coeffs))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_printed_sum_matches_the_fraction_route(n):
    order = enumerate_partitions(n)
    for slope in SLOPES:
        T = S.transition_matrix(n, slope, (F2(0), 1))
        for j in range(len(order)):
            col = {nu: T[i][j] for i, nu in enumerate(order)}
            assert S.printed_sum(col).coeffs == printed_sum_by_addition(col).coeffs, (n, slope, j)
