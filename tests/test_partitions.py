from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wallcross import partitions
from wallcross.partitions import (
    arm,
    b_core,
    boxes,
    chi,
    conjugate,
    content_sum,
    dominates,
    enumerate_partitions,
    horizontal_strips,
    leg,
    n_stat,
    removable_ribbons,
    ribbon_decomposition,
)
from wallcross.scalars import LaurentPoly, monomial, one, q1, q2

from api_oracles import bracket, tangent_character

PARTITION_COUNTS = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30}

partitions_up_to_8 = st.sampled_from(
    [la for n in range(9) for la in enumerate_partitions(n)]
)


def test_enumerate_counts_and_order():
    for n, cnt in PARTITION_COUNTS.items():
        ps = enumerate_partitions(n)
        assert len(ps) == cnt
        assert list(ps) == sorted(ps, reverse=True)
    assert enumerate_partitions(3) == ((3,), (2, 1), (1, 1, 1))
    assert enumerate_partitions(0) == ((),)


def test_lex_descending_refines_reverse_dominance():
    for n in range(2, 9):
        ps = enumerate_partitions(n)
        for i, la in enumerate(ps):
            for mu in ps[i + 1 :]:
                assert not (dominates(mu, la) and mu != la)


@given(partitions_up_to_8)
def test_conjugate_involution(la):
    assert conjugate(conjugate(la)) == la
    assert sum(conjugate(la)) == sum(la)


def test_conjugate_example():
    assert conjugate((4, 3, 1)) == (3, 2, 2, 1)


def test_dominance():
    assert dominates((3,), (2, 1))
    assert dominates((2, 1), (1, 1, 1))
    assert not dominates((1, 1, 1), (2, 1))
    assert dominates((2, 2), (2, 1, 1))
    # incomparable pair
    assert not dominates((3, 1, 1, 1), (2, 2, 2))
    assert not dominates((2, 2, 2), (3, 1, 1, 1))


def test_arm_leg_calibration():
    # (4,3,1), box (0,1): two boxes to its right, one above
    la = (4, 3, 1)
    assert arm(la, 0, 1) == 2
    assert leg(la, 0, 1) == 1
    assert arm(la, 0, 0) == 3
    assert leg(la, 0, 0) == 2


def test_statistics():
    assert content_sum((3,)) == 3
    assert content_sum((2, 1)) == 0
    assert content_sum((1, 1, 1)) == -3
    assert n_stat((4, 3, 1)) == 3 + 2
    assert n_stat((1, 1, 1)) == 3
    for la in enumerate_partitions(6):
        assert n_stat(la) == sum(leg(la, x, y) for x, y in boxes(la))


def test_chi_monomials():
    assert chi((2,)) == q1()
    assert chi((1, 1)) == q2()
    assert chi(()) == one()
    assert chi((2, 1)) == q1() * q2()  # = q^2


# ---------------------------------------------------------------------------
# ribbons and cores
# ---------------------------------------------------------------------------


def _is_ribbon(skew, b):
    if len(skew) != b:
        return False
    cs = sorted(x - y for x, y in skew)
    if cs != list(range(cs[0], cs[0] + b)):
        return False
    rb = sorted(skew, key=lambda xy: xy[0] - xy[1])
    for (x0, y0), (x1, y1) in zip(rb, rb[1:]):
        if not ((x1, y1) == (x0 + 1, y0) or (x1, y1) == (x0, y0 - 1)):
            return False
    return True


def _brute_removable(la, b):
    """Oracle: all mu obtained by deleting a valid b-ribbon from la."""
    n = sum(la) - b
    out = set()
    for mu in enumerate_partitions(n):
        if len(mu) <= len(la) and all(
            mu[i] <= la[i] for i in range(len(mu))
        ):
            skew = set(boxes(la)) - set(boxes(mu))
            if _is_ribbon(skew, b):
                out.add(mu)
    return out


@pytest.mark.parametrize("b", [2, 3, 4])
def test_removable_ribbons_against_brute_force(b):
    for n in range(b, 9):
        for la in enumerate_partitions(n):
            got = {mu for mu, _ in removable_ribbons(la, b)}
            assert got == _brute_removable(la, b), (la, b)


def test_ribbon_walk_and_height():
    # the 3-ribbon (2,1): northwestern end is (0,1), then down, then right
    assert removable_ribbons((2, 1), 3) == [((), "DR")]
    assert removable_ribbons((2,), 2) == [((), "R")]
    assert removable_ribbons((1, 1), 2) == [((), "D")]
    assert removable_ribbons((1, 1, 1, 1), 4) == [((), "DDD")]
    # highest bead first: the vertical domino, then the horizontal one
    assert removable_ribbons((2, 2), 2) == [((1, 1), "D"), ((2,), "R")]


def _cores_by_exhaustive_removal(la, b):
    """Oracle: all results of greedily removing ribbons in every order."""
    out = set()
    stack = [la]
    seen = set()
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        cands = removable_ribbons(cur, b)
        if not cands:
            out.add(cur)
        else:
            stack.extend(mu for mu, _ in cands)
    return out


@pytest.mark.parametrize("b", [2, 3, 4])
def test_core_unique_and_matches_abacus(b):
    for n in range(0, 9):
        for la in enumerate_partitions(n):
            cores = _cores_by_exhaustive_removal(la, b)
            assert len(cores) == 1, (la, b, cores)
            assert cores == {b_core(la, b)}


def test_core_goldens():
    assert b_core((2, 1), 2) == (2, 1)  # staircases are 2-cores
    assert b_core((2,), 2) == ()
    assert b_core((1, 1), 2) == ()
    assert b_core((3, 1), 2) == ()
    assert b_core((3, 1), 3) == (3, 1)
    assert b_core((4, 2, 1, 1), 3) == (4, 2, 1, 1)
    assert b_core((4, 1, 1), 3) == ()


@given(partitions_up_to_8, st.integers(2, 4))
def test_core_idempotent_and_size(la, b):
    core = b_core(la, b)
    assert b_core(core, b) == core
    assert (sum(la) - sum(core)) % b == 0
    assert not removable_ribbons(core, b)


@pytest.mark.parametrize("b", [2, 3])
def test_ribbon_decomposition_reaches_core(b):
    for n in range(0, 8):
        for la in enumerate_partitions(n):
            signs = set()
            for rev in (False, True):
                dec = ribbon_decomposition(la, b, reverse=rev)
                core = b_core(la, b)
                assert len(dec) == (sum(la) - sum(core)) // b
                assert all(len(walk) == b - 1 for walk in dec)
                signs.add(sum(walk.count("D") for walk in dec) % 2)
            # the b-sign of la does not depend on the peeling order
            assert len(signs) == 1, la


# ---------------------------------------------------------------------------
# horizontal strips
# ---------------------------------------------------------------------------


def _strip_spin(la, mu, k, b):
    """Spin of la/mu as a horizontal k-strip of b-ribbons; None if it is not one."""
    spin = dict(horizontal_strips(mu, k, b)).get(la)
    assert dict(horizontal_strips(la, k, b, down=True)).get(mu) == spin
    return spin


def test_single_domino_strips():
    assert _strip_spin((2,), (), 1, 2) == 0
    assert _strip_spin((1, 1), (), 1, 2) == 1
    assert _strip_spin((2, 2), (2,), 1, 2) == 0
    assert _strip_spin((2, 1, 1), (2,), 1, 2) == 1
    assert _strip_spin((3, 1), (1, 1), 1, 2) == 0


def test_strip_size_mismatch_is_none():
    assert _strip_spin((2, 1), (), 1, 2) is None
    assert _strip_spin((3,), (), 1, 2) is None


def test_two_by_two_square_strip():
    # two domino tilings exist; only the vertical pair is horizontal (spin 2)
    assert _strip_spin((2, 2), (), 2, 2) == 2


def test_strip_of_two_dominoes_in_hook():
    assert _strip_spin((3, 1), (), 2, 2) == 1


def test_three_ribbon_strips():
    assert _strip_spin((3,), (), 1, 3) == 0
    assert _strip_spin((2, 1), (), 1, 3) == 1
    assert _strip_spin((1, 1, 1), (), 1, 3) == 2


def test_non_horizontal_strip_rejected():
    # (2,2)/() by one 4-ribbon: no tiling at all (2x2 is not a ribbon)
    assert _strip_spin((2, 2), (), 1, 4) is None


def test_strip_spin_moves_lowest_bead_first():
    # moving each bead all the way at once would give spin 1 here
    assert _strip_spin((3, 3), (), 3, 2) == 3
    assert _strip_spin((4, 4), (1, 1), 3, 2) == 3


# ---------------------------------------------------------------------------
# torus weights
# ---------------------------------------------------------------------------


def test_tangent_character_single_box():
    T = tangent_character((1,))
    assert T == LaurentPoly({(-1, 1): 1, (-1, -1): 1})


def test_tangent_character_counts():
    for la in enumerate_partitions(5):
        T = tangent_character(la)
        assert sum(T.terms().values()) == 2 * sum(la)


def test_bracket_goldens():
    assert bracket(tangent_character((1,))) == (one() - q1()) * (one() - q2())
    expected = (
        (one() - q1(-1) * q2())
        * (one() - q1(2))
        * (one() - q2())
        * (one() - q1())
    )
    assert bracket(tangent_character((2,))) == expected


def test_bracket_rejects_trivial_weight():
    with pytest.raises(ValueError):
        bracket(LaurentPoly({(0, 0): 1, (1, 0): 1}))


def test_bracket_rejects_fractional_multiplicity():
    with pytest.raises(ValueError, match="not an integer"):
        bracket(LaurentPoly({(1, 0): Fraction(1, 2)}))


def test_bracket_negative_multiplicity():
    char = LaurentPoly({(1, 0): -1})
    assert bracket(char) == one() / (one() - q1(0) * monomial(1, -1, 0))


@pytest.mark.parametrize("call, message", [
    (lambda: enumerate_partitions(-1), "negative"),
    (lambda: dominates((3,), (1,)), "one size"),
    (lambda: partitions._beta((2, 1, 1), 2), "cannot hold"),
    (lambda: b_core((2, 1), 0), "at least 1"),
], ids=["enumerate", "dominates", "beta", "b_core"])
def test_invalid_arguments_raise(call, message):
    # explicit errors, so that python -O keeps them
    with pytest.raises(ValueError, match=message):
        call()
