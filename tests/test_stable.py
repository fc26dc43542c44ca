"""Stable bases, wall crossing, renormalization.

Two independent oracles anchor this file: the tabulated wall-crossing
matrices for n = 2 and n = 3 (frozen here entry by entry), and the Fock
bar-involution matrices that the renormalized crossings must reproduce.
Everything else -- windows, block support, t-homogeneity of the crossing
rows -- is structure the solver must exhibit on its own.
"""

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from wallcross import fock as F
from wallcross import reports as R
from wallcross import stable as S
from wallcross import verify
from wallcross.linalg import identity, mat_mul
from wallcross.partitions import b_core, chi, content_sum, dominates, enumerate_partitions
from wallcross.scalars import monomial, one, q1, q2, zero
from wallcross.symfunc import s_

from api_oracles import dict_layout, row_layout, strict_part, unit_plus

F2 = Fraction


def half(side=1):
    return (F2(1, 2), side)


def tranges(v):
    es = [et for _, et in v.num.terms()]
    return min(es), max(es)


# ---------------------------------------------------------------------------
# seed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_seed_diagonal_pinned(n):
    tbl = S.seed_slope0(n)
    for i, la in enumerate(enumerate_partitions(n)):
        assert tbl.gamma[i][i] == S.diagonal_value(la)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_seed_triangular_laurent(n):
    tbl = S.seed_slope0(n)
    for la, row in dict_layout(tbl).gamma.items():
        for mu, val in row.items():
            assert dominates(la, mu)
            assert val.is_laurent()
            assert val


def test_seed_normalizers_n2():
    assert S.seed_normalizer((1,)) == one()
    assert S.seed_normalizer((2,)) == q1(1)
    assert S.seed_normalizer((1, 1)) == q2(1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_seed_normalizer_closed_form(n):
    # c_la = q1^n(la') q2^n(la); its t-degree is the content sum
    from wallcross.partitions import conjugate

    def legs(la):
        return sum(i * part for i, part in enumerate(la))

    for la in enumerate_partitions(n):
        assert S.seed_normalizer(la) == q1(legs(conjugate(la))) * q2(legs(la))


def test_seed_printed_expansion_n2():
    printed = R.printed_basis(2, (F2(0), 1))
    den = one() - q2(2)
    assert printed[(2,)] == s_((2,)).scale(one() / den) + s_(
        (1, 1)
    ).scale(q2(1) / den)
    assert printed[(1, 1)] == s_((2,)).scale(q2(1) / den) + s_(
        (1, 1)
    ).scale(one() / den)


def test_window_gate_rejects_doctored_table():
    tbl = S.seed_slope0(2)
    bad = dict_layout(tbl).gamma
    bad[(2,)][(1, 1)] = bad[(2,)][(1, 1)] * monomial(1, 0, 9)
    with pytest.raises(ArithmeticError, match="window violation"):
        S._check_windows(row_layout(S.StableTable(2, tbl.slope, bad)), tbl.slope)


def test_cross_wall_rejects_non_laurent_entry():
    # the solve reads only numerators, so an entry with a denominator would
    # give a wrong B; cross_wall refuses it before solving and names it
    tbl = S.seed_slope0(3)
    bad = dict_layout(tbl).gamma
    bad[(2, 1)][(1, 1, 1)] = bad[(2, 1)][(1, 1, 1)] / (one() - q2(1))
    entry = re.escape("entry (2, 1)|(1, 1, 1) is not Laurent")
    with pytest.raises(ArithmeticError, match=entry):
        S.cross_wall(row_layout(S.StableTable(3, tbl.slope, bad)), F2(1, 2))


def test_cross_wall_rejects_unsatisfiable_row():
    # a diagonal t-power far outside every window: no B row can cancel it
    tbl = S.seed_slope0(2)
    bad = dict_layout(tbl).gamma
    bad[(1, 1)][(1, 1)] = bad[(1, 1)][(1, 1)] + monomial(1, 0, 50)
    with pytest.raises(ArithmeticError, match="axioms unsatisfiable"):
        S.cross_wall(row_layout(S.StableTable(2, tbl.slope, bad)), F2(1, 2))


def test_cross_wall_rejects_non_unique_row():
    # an empty row pins no unknown that multiplies it
    tbl = S.seed_slope0(3)
    bad = dict_layout(tbl).gamma
    bad[(1, 1, 1)] = {}
    with pytest.raises(ArithmeticError, match="uniqueness failure"):
        S.cross_wall(row_layout(S.StableTable(3, tbl.slope, bad)), F2(1, 6))


def test_cross_wall_names_a_stalled_row(monkeypatch):
    # a system that substitution cannot pin is a finding: the error names
    # the wall and the row it came from
    below = S.stable_basis(3, half(-1))

    def stalls(A, b):
        raise ArithmeticError("substitution stalls: 2 equations in 2 unknowns are left")

    monkeypatch.setattr(S, "solve_rational", stalls)
    where = re.escape("no triangular B row for (3,) at wall 1/2: substitution stalls")
    with pytest.raises(ArithmeticError, match=where):
        S.cross_wall(below, F2(1, 2))


# ---------------------------------------------------------------------------
# degree windows
# ---------------------------------------------------------------------------


def test_window_diagonal_equality():
    # at mu = la the window is the diagonal's exact t-range, any slope
    assert S.degree_window((2,), (2,), (F2(1, 2), 1)) == (0, 3)
    assert S.degree_window((1, 1), (1, 1), (F2(7, 3), -1)) == (-1, 2)


def test_window_off_diagonal_pair():
    # raw bounds [-1,2] + (c_la - c_mu) + m*(c_mu - c_la) = [0,3] at m=1/2;
    # the strict boundary flips with the side
    assert S.degree_window((2,), (1, 1), half(+1)) == (0, 2)
    assert S.degree_window((2,), (1, 1), half(-1)) == (1, 3)


def test_window_nonblock_sides_agree():
    # w*dc not integral: both sides round to the same closed window
    lo = S.degree_window((3,), (2, 1), (F2(1, 6), -1))
    hi = S.degree_window((3,), (2, 1), (F2(1, 6), 1))
    assert lo == hi


@pytest.mark.parametrize("n", [2, 3])
def test_crossed_tables_satisfy_own_windows(n):
    for w in S.candidate_walls(n, 0, 1):
        tbl = S.stable_basis(n, (w, 1))
        S._check_windows(tbl, tbl.slope)  # raises on violation


# ---------------------------------------------------------------------------
# candidate walls
# ---------------------------------------------------------------------------


def test_candidate_walls_small():
    assert S.candidate_walls(1, 0, 1) == []
    assert S.candidate_walls(2, 0, 1) == [F2(1, 2)]
    assert S.candidate_walls(3, 0, 1) == [
        F2(1, 6),
        F2(1, 3),
        F2(1, 2),
        F2(2, 3),
        F2(5, 6),
    ]


def test_candidate_walls_open_interval():
    assert F2(1, 3) not in S.candidate_walls(3, F2(1, 3), 1)
    assert S.candidate_walls(2, 0, F2(1, 2)) == []


# ---------------------------------------------------------------------------
# wall crossing: detection and structure
# ---------------------------------------------------------------------------


def test_nonwall_crossing_is_identity():
    base = S.stable_basis(3, (F2(1, 6), -1))
    crossed, factor = S.cross_wall(base, F2(1, 6))
    assert factor == identity(3, one(), zero())
    assert crossed.gamma == base.gamma


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sweep_tables_are_partition_ordered_row_lists(n):
    # every table along the sweep is a p(n) x p(n) list of rows, rows and
    # columns in enumerate_partitions order: the pinned diagonal sits at
    # [i][i] and nothing is stored above dominance
    order = enumerate_partitions(n)
    seed, walls = S._sweep(n)
    for tbl in [seed, *(t for _, _, t in walls)]:
        assert type(tbl.gamma) is list and len(tbl.gamma) == len(order)
        for i, (la, row) in enumerate(zip(order, tbl.gamma)):
            assert type(row) is list and len(row) == len(order)
            assert row[i] == S.diagonal_value(la), (tbl.slope, la)
            for mu, val in zip(order, row):
                assert not val or dominates(la, mu), (tbl.slope, la, mu)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cross_wall_factor_is_unit_plus_solved_rows(n, monkeypatch):
    # the factor cross_wall returns is I plus the strict rows its solves found,
    # the identity exactly at the candidates that are not walls
    S._sweep(n)
    solved, solve = {}, S._solve_row

    def spy(terms, la, *args):
        solved[la] = solve(terms, la, *args)
        return solved[la]

    monkeypatch.setattr(S, "_solve_row", spy)
    for w in S.candidate_walls(n, 0, 1):
        solved.clear()
        _, factor = S.cross_wall(S.stable_basis(n, (w, -1)), w)
        assert len(solved) == len(enumerate_partitions(n)), w
        assert factor == unit_plus(n, solved), w
        assert (factor != identity(len(factor), one(), zero())) == S.is_wall(n, w), w


@pytest.mark.parametrize("n", range(2, 8))
def test_every_candidate_failing_the_block_check_is_a_wall(n):
    # _sweep keeps every factor it crosses to: a candidate that fails the
    # block check gets B != 0.  The sweep's checks are replayed on its tables.
    seed, walls = S._sweep(n)
    crossed = {w: (factor, tbl) for w, factor, tbl in walls}
    unit = identity(len(seed.gamma), one(), zero())
    tbl = seed
    for w in S.candidate_walls(n, 0, 1):
        fails = S._window_violation(tbl, (w, 1), block=w) is not None
        assert fails == (w in crossed), (n, w)
        if fails:
            factor, tbl = crossed[w]
            assert factor != unit, (n, w)


def test_is_wall():
    assert S.is_wall(2, F2(1, 2))
    assert S.is_wall(3, F2(1, 3))
    assert not S.is_wall(3, F2(1, 6))
    assert not S.is_wall(3, F2(5, 6))


# For n = 2..10: each wall of the sweep in (0, 1), the conjecture's verdict
# there, and the sha256 of json.dumps(verify.matrix_entries(R), sort_keys=True)
# for R the renormalized crossing (crossing_digest below).
WALLS_GOLDEN = json.loads(Path(__file__).with_name("walls_golden.json").read_text())


def crossing_digest(n, w):
    R = S.renormalized_crossing(n, w)
    entries = verify.matrix_entries(R, enumerate_partitions(n))
    return hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6,
                               pytest.param(7, marks=pytest.mark.slow),
                               pytest.param(8, marks=pytest.mark.slow),
                               pytest.param(9, marks=pytest.mark.slow),
                               pytest.param(10, marks=pytest.mark.slow)])
def test_detected_walls_are_denominators_up_to_n(n):
    # A recorded finding, not an assumption of the code: candidate_walls
    # proposes every a/b with b <= n(n-1) that divides a content gap, and
    # the sweep keeps those where B != 0.  Observed for n <= 10 so far, the
    # kept ones are exactly the a/b in (0, 1) with 2 <= b <= n.
    detected = [w for w, _, _ in S._sweep(n)[1]]
    expected = sorted({F2(a, b) for b in range(2, n + 1) for a in range(1, b)})
    assert detected == expected
    if n > 2:
        assert len(S.candidate_walls(n, 0, 1)) > len(detected)
    # every detected wall matches the bar involution, which at n = 6..10 is
    # the conjecture's evidence beyond the n <= 5 acceptance sweep; the
    # walls, verdicts and renormalized crossings are pinned in the golden file
    record = [{"wall": f"{w.numerator}/{w.denominator}",
               "verdict": verify.conjecture_check(n, w)["status"],
               "sha256": crossing_digest(n, w)} for w in detected]
    assert [r["verdict"] for r in record] == ["match"] * len(detected), record
    assert record == WALLS_GOLDEN[str(n)]


def test_crossing_rows_are_t_homogeneous():
    # each B entry is a t-monomial of degree (c_la - c_mu) + w*(c_mu - c_la)
    for n, w in [(2, F2(1, 2)), (3, F2(1, 3)), (3, F2(1, 2))]:
        below = S.stable_basis(n, (w, -1))
        _, factor = S.cross_wall(below, w)
        for la, row in strict_part(n, factor).items():
            for mu, val in row.items():
                dc = content_sum(mu) - content_sum(la)
                lo, hi = tranges(val)
                assert lo == hi == -dc + w * dc


def test_block_support_and_core_refinement():
    for n, w in [(3, F2(1, 2)), (3, F2(1, 3)), (3, F2(2, 3)), (2, F2(1, 2))]:
        below = S.stable_basis(n, (w, -1))
        _, factor = S.cross_wall(below, w)
        b = w.denominator
        for la, row in strict_part(n, factor).items():
            for mu in row:
                dc = content_sum(la) - content_sum(mu)
                assert (w * dc).denominator == 1
                assert b_core(la, b) == b_core(mu, b)


@pytest.mark.parametrize("n", range(2, 8))
def test_wall_factors_join_equal_cores(n):
    # the block structure of every swept wall factor: an off-diagonal entry
    # of I + B at w = a/b only joins partitions with the same b-core
    order = enumerate_partitions(n)
    joined = 0
    for w, factor, _ in S._sweep(n)[1]:
        b = w.denominator
        for i, la in enumerate(order):
            for j, mu in enumerate(order):
                if i != j and factor[i][j]:
                    joined += 1
                    assert b_core(la, b) == b_core(mu, b), (n, w, la, mu)
    assert joined


# ---------------------------------------------------------------------------
# tabulated matrices, n = 2
# ---------------------------------------------------------------------------

A_ENTRY = q2(1) - q1(-1)  # the ubiquitous 2-block coupling


def test_factor_matrix_n2_half():
    M = S.transition_matrix(2, half(-1), half(+1))
    assert M[0] == [one(), zero()]
    assert M[1] == [A_ENTRY, one()]


def test_factor_matrix_n2_three_halves():
    M = S.transition_matrix(2, (F2(3, 2), -1), (F2(3, 2), 1))
    assert M[1][0] == q2(2) * q1(-1) - q2(1) * q1(-2)


def test_cumulative_n2():
    M = S.transition_matrix(2, (F2(0), 1), (F2(3, 2), 1))
    assert M[1][0] == A_ENTRY + q2(2) * q1(-1) - q2(1) * q1(-2)


def test_printed_expansions_n2_crossed():
    den = one() - q2(2)
    up = R.printed_basis(2, half(+1))
    assert up[(2,)] == s_((2,)).scale(
        one() + q2(1) / (q1(1) * den)
    ) + s_((1, 1)).scale(one() / (q1(1) * den))
    # the bottom row never moves: its block is a singleton at every wall
    assert up[(1, 1)] == R.printed_basis(2, (F2(0), 1))[(1, 1)]
    up32 = R.printed_basis(2, (F2(3, 2), 1))
    assert up32[(2,)] == s_((2,)).scale(
        one() + q2(1) * q1(-1) + q2(2) / (q1(2) * den)
    ) + s_((1, 1)).scale(q1(-1) + q2(1) / (q1(2) * den))
    assert up32[(1, 1)] == R.printed_basis(2, (F2(0), 1))[(1, 1)]


# ---------------------------------------------------------------------------
# tabulated matrices, n = 3
# ---------------------------------------------------------------------------


def _assert_matrix(M, expected):
    for row, erow in zip(M, expected):
        assert row == erow


def test_cumulative_n3_third():
    M = S.transition_matrix(3, (F2(0), 1), (F2(1, 3), 1))
    _assert_matrix(
        M,
        [
            [one(), zero(), zero()],
            [A_ENTRY, one(), zero()],
            [q1(-2) - q2(1) * q1(-1), A_ENTRY, one()],
        ],
    )


def test_cumulative_n3_half():
    M = S.transition_matrix(3, (F2(0), 1), (F2(1, 2), 1))
    _assert_matrix(
        M,
        [
            [one(), zero(), zero()],
            [A_ENTRY, one(), zero()],
            [
                q1(-2) - q2(1) * q1(-2) + q2(2) * q1(-1) - q2(1) * q1(-1),
                A_ENTRY,
                one(),
            ],
        ],
    )


def test_cumulative_n3_two_thirds():
    M = S.transition_matrix(3, (F2(0), 1), (F2(2, 3), 1))
    _assert_matrix(
        M,
        [
            [one(), zero(), zero()],
            [q2(1) - q1(-1) + q2(1) * q1(-1) - q1(-2), one(), zero()],
            [
                q2(3)
                - q2(2) * q1(-1)
                + q2(1) * q1(-3)
                - q2(2) * q1(-2)
                + q1(-2)
                - q2(1) * q1(-1),
                q2(2) - q2(1) * q1(-1) + q2(1) - q1(-1),
                one(),
            ],
        ],
    )


def test_n3_cumulative_factors_through_single_walls():
    W13 = S.transition_matrix(3, (F2(1, 3), -1), (F2(1, 3), 1))
    W12 = S.transition_matrix(3, (F2(1, 2), -1), (F2(1, 2), 1))
    W23 = S.transition_matrix(3, (F2(2, 3), -1), (F2(2, 3), 1))
    C = S.transition_matrix(3, (F2(0), 1), (F2(2, 3), 1))
    assert mat_mul(W23, mat_mul(W12, W13)) == C
    # single b=2 wall only couples the b=2 block
    assert W12[1][0] == zero() and W12[2][1] == zero()


# ---------------------------------------------------------------------------
# renormalized crossings against the bar involution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,w,b",
    [
        (2, F2(1, 2), 2),
        (2, F2(3, 2), 2),
        (3, F2(1, 3), 3),
        (3, F2(1, 2), 2),
        (3, F2(2, 3), 3),
    ],
)
def test_renormalized_crossing_matches_bar_matrix(n, w, b):
    R = S.renormalized_crossing(n, w)
    assert R == F.bar_matrix(n, b)


def test_renormalized_entries_are_q_only():
    R = S.renormalized_crossing(3, F2(1, 3))
    for row in R:
        for val in row:
            for mono in val.num.terms():
                assert mono[1] == 0 and mono[0] == int(mono[0])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_renormalized_exponents_are_in_normal_form(n):
    # renorm_factor monomials have Fraction exponents whose sums can be
    # integral; an integral exponent must come out as an int, not k/1
    for w, _, _ in S._sweep(n)[1]:
        for row in S.renormalized_crossing(n, w):
            for val in row:
                for mono in [*val.num.terms(), *val.den.terms()]:
                    for e in mono:
                        assert type(e) is int or e.denominator != 1, (n, w, mono)


# ---------------------------------------------------------------------------
# nabla shifts
# ---------------------------------------------------------------------------


def test_nabla_roundtrip():
    tbl = S.seed_slope0(3)
    back = S.nabla_shift(S.nabla_shift(tbl, 1), -1)
    assert back.gamma == tbl.gamma


def test_integer_slope_is_nabla_of_seed():
    tbl = S.stable_basis(2, (F2(1), 1))
    seed = S.seed_slope0(2)
    order = enumerate_partitions(2)
    for la, row, seed_row in zip(order, tbl.gamma, seed.gamma):
        for mu, val, seed_val in zip(order, row, seed_row):
            assert val == seed_val * chi(mu) / chi(la)


def test_wall_factor_nabla_periodicity():
    # the factor one period up is the same matrix conjugated by chi
    for n, w in [(2, F2(1, 2)), (3, F2(1, 3))]:
        order = enumerate_partitions(n)
        M = S.transition_matrix(n, (w, -1), (w, 1))
        Mup = S.transition_matrix(n, (w + 1, -1), (w + 1, 1))
        for i, nu in enumerate(order):
            for j, la in enumerate(order):
                assert Mup[i][j] == M[i][j] * chi(nu) / chi(la)


def test_cross_commutes_with_nabla():
    t0 = S.seed_slope0(2)
    a = S.nabla_shift(S.cross_wall(t0, F2(1, 2))[0], 1)
    b = S.cross_wall(S.nabla_shift(t0, 1), F2(3, 2))[0]
    assert a.gamma == b.gamma and a.slope == b.slope


# ---------------------------------------------------------------------------
# renormalization factors
# ---------------------------------------------------------------------------


def test_renorm_factor_b2():
    assert S.renorm_factor((2,), F2(1, 2)) == monomial(1, 1, F2(1, 2))
    assert S.renorm_factor((1, 1), F2(1, 2)) == monomial(1, 1, F2(-1, 2))
    assert S.renorm_factor((2,), F2(3, 2)) == monomial(1, 2, F2(3, 2))
    assert S.renorm_factor((1, 1), F2(3, 2)) == monomial(1, 2, F2(-3, 2))


def test_renorm_factor_integer_slope_is_chi_power():
    assert S.renorm_factor((2, 1), F2(2)) == chi((2, 1)) * chi((2, 1))


def test_renorm_factor_core_only():
    # (1) is its own 2-core: no ribbons, only the chi power survives
    assert S.renorm_factor((1,), F2(1, 2)) == one()


def test_renorm_factor_peel_order_consistent():
    # two disjoint maximal 2-ribbon sets exist; both walks must agree
    r = S.renorm_factor((2, 2), F2(1, 2))
    assert r.is_laurent() and r.num.is_term()


# ---------------------------------------------------------------------------
# odds and ends
# ---------------------------------------------------------------------------


def test_same_slope_transition_is_identity():
    M = S.transition_matrix(3, half(+1), half(+1))
    order = enumerate_partitions(3)
    for i in range(len(order)):
        for j in range(len(order)):
            assert M[i][j] == (one() if i == j else zero())


def test_slope_validation():
    with pytest.raises(ValueError, match="side"):
        S.stable_basis(2, (F2(1, 2), 0))


def test_float_slope_is_rejected():
    # Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match="float"):
        S.stable_basis(2, (0.5, 1))
    with pytest.raises(TypeError, match="float"):
        S.degree_window((2,), (1, 1), (0.1, 1))
    # a string slope is refused as well, not parsed
    with pytest.raises(TypeError, match="str"):
        S.degree_window((2,), (1, 1), ("1/2", 1))
