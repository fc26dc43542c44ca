"""Printed basis elements from the wall-factor chain against localization.

stable.printed_basis reads the printed elements at a slope off the chain
of wall factors: P_la = sum over nu of T[nu][la] (1 - q2) s_nu[X/(1 - q2)],
T the transition matrix to slope 0.  The route it replaced rebuilt each
element from its table row by inverse localization (each restriction over
[T_la], then omega and rho_la); it is api_oracles.printed_expansion, and
the two must agree exactly: basis s and equal coefficient dicts.
"""

from fractions import Fraction as F2

import pytest

from wallcross import stable as S
from wallcross.partitions import enumerate_partitions

from api_oracles import printed_expansion

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
