"""The chamber sweep against the routes it replaced.

The replay computes each slope on its own: seed_slope0, then cross_wall
over every candidate wall below the slope's fractional part, then
nabla_shift once per unit of its integer part.  Its transition matrix
inverts the restriction table over Q(q,t): g1 * g2^-1, then the printed
frame.  The product route multiplies the sweep's wall factors below each
slope, L_r, and inverts the product: D^-k1 L_r1 (D F)^(k1-k2) L_r2^-1
D^k2.  The sweep reads tables from one walk and builds matrices by
telescoping single wall factors; all three must agree exactly.

flag_transition_matrix is stable.transition_matrix as it was while it
took a renormalized flag, which also rescaled by hand instead of through
_rescale; stable.renormalized_crossing must equal its renormalized=True
route at every wall.

The sweep steps over a candidate whose table already meets the windows
above it, reading only the block entries.  sweep_oracle is the sweep as it
was before, calling cross_wall at every candidate; it must give the same
walls, factors and tables, and the block check must agree with the full
window check at every candidate.

The sweep records the seed and the wall factors, and stable_basis reads
every table off that chain.  table_sweep is the sweep as it was while it
kept each wall's table next to its factor, and table_sweep_basis the
stable_basis that read those tables; every table read off the chain must
equal theirs exactly.
"""

import functools
import math
from fractions import Fraction as F2

import pytest

from wallcross import stable as S
from wallcross.linalg import identity, mat_inverse, mat_mul
from wallcross.partitions import chi, content_sum, enumerate_partitions
from wallcross.scalars import monomial, one, zero
from wallcross.stable import (
    _factor_inverse,
    _position,
    _slope,
    _sweep,
    renorm_factor,
    seed_normalizer,
)

from api_oracles import chain_tables, dict_layout, row_layout, strict_part

WALLS = {0: [], 1: [], 2: [F2(1, 2)], 3: [F2(1, 3), F2(1, 2), F2(2, 3)],
         4: [F2(1, 4), F2(1, 3), F2(1, 2), F2(2, 3), F2(3, 4)]}

# the seed is the same function on both routes; computing it once keeps
# the replay affordable at n = 4
_seed = functools.cache(S.seed_slope0)


@functools.cache
def replay_table(n, m, side):
    k = math.floor(m)
    tbl = _seed(n)
    for wall in S.candidate_walls(n, 0, 1):
        if wall < m - k or (wall == m - k and side == 1):
            tbl, _ = S.cross_wall(tbl, wall)
    for _ in range(abs(k)):
        tbl = S.nabla_shift(tbl, 1 if k > 0 else -1)
    return tbl


@functools.cache
def replay_inverse(n, m, side):
    return mat_inverse(replay_table(n, m, side).gamma, one(), zero())


def replay_transition(n, slope1, slope2):
    order = enumerate_partitions(n)
    M = mat_mul(replay_table(n, *slope1).gamma, replay_inverse(n, *slope2))
    cs = [S.seed_normalizer(la) for la in order]
    return [[M[i][j] * cs[j] / cs[i] for i in range(len(order))]
            for j in range(len(order))]


def grid(n):
    """Each wall +-eps, also shifted by -1 and +1; 0+-, 1+, -1-, and
    1/7+, 5/3-, -2/5+ (a non-wall, a shifted non-wall, a negative slope),
    7/2+ and -10/3- (shifts by 3 and -4)."""
    points = [(w + k, side) for w in WALLS[n] for k in (-1, 0, 1) for side in (-1, 1)]
    return points + [(F2(0), 1), (F2(0), -1), (F2(1), 1), (F2(-1), -1),
                     (F2(1, 7), 1), (F2(5, 3), -1), (F2(-2, 5), 1),
                     (F2(7, 2), 1), (F2(-10, 3), -1)]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_tables_match_replay(n):
    # at n <= 1 there are no walls, and every slope reads the seed
    for m, side in grid(n):
        assert S.stable_basis(n, (m, side)).gamma == replay_table(n, m, side).gamma


@pytest.mark.parametrize("n", [2, 3])
def test_walls_match_replay(n):
    found = [w for w in S.candidate_walls(n, 0, 1)
             if replay_table(n, w, -1).gamma != replay_table(n, w, 1).gamma]
    assert found == WALLS[n]
    assert [w for w in S.candidate_walls(n, -1, 2) if S.is_wall(n, w)] == [
        w + k for k in (-1, 0, 1) for w in WALLS[n]]


def pairs(n):
    """All ordered pairs of grid points at n = 2.  At n = 3, where the
    reference costs some 35 ms a pair, each point to and from 0+, and each
    wall point to and from its wall two periods away (D F squared)."""
    points = grid(n)
    if n == 2:
        return [(p, q) for p in points for q in points]
    start = (F2(0), 1)
    far = [((w - 1, s1), (w + 1, s2)) for w in WALLS[n] for s1 in (-1, 1) for s2 in (-1, 1)]
    return ([(p, start) for p in points] + [(start, p) for p in points]
            + far + [(q, p) for p, q in far])


@pytest.mark.parametrize("n", [2, 3])
def test_transition_matrices_match_replay(n):
    for s1, s2 in pairs(n):
        assert S.transition_matrix(n, s1, s2) == replay_transition(n, s1, s2), (s1, s2)


def test_n4_factors_and_cumulatives_match_replay():
    for w in WALLS[4]:
        below, above = (w, -1), (w, 1)
        assert S.stable_basis(4, above).gamma == replay_table(4, *above).gamma
        assert S.transition_matrix(4, below, above) == replay_transition(4, below, above)
        start = (F2(0), 1)
        assert S.transition_matrix(4, start, above) == replay_transition(4, start, above)


def factor_product(n, r, side):
    """L_r: the ordered product of the factors I + B of the walls below (r, side)."""
    seed, walls, _ = S._sweep(n)
    out = identity(len(seed.gamma), one(), zero())
    for w, factor in walls:
        if w < r or (w == r and side == 1):
            out = mat_mul(factor, out)
    return out


def product_transition(n, slope1, slope2, renormalized=False):
    """The printed-frame matrix from D^-k1 L_r1 (D F)^(k1-k2) L_r2^-1 D^k2."""
    order = enumerate_partitions(n)
    (m1, side1), (m2, side2) = slope1, slope2
    k1, k2 = math.floor(m1), math.floor(m2)
    chis = [chi(la) for la in order]
    M = factor_product(n, m1 - k1, side1)
    if k1 != k2:
        F = factor_product(n, F2(1), -1)
        DF = [[c * x for x in row] for c, row in zip(chis, F)]
        step = DF if k1 > k2 else mat_inverse(DF, one(), zero())
        for _ in range(abs(k1 - k2)):
            M = mat_mul(M, step)
    M = mat_mul(M, mat_inverse(factor_product(n, m2 - k2, side2), one(), zero()))
    M = [[x * chis[j] ** k2 / chis[i] ** k1 for j, x in enumerate(row)]
         for i, row in enumerate(M)]
    cs = [S.seed_normalizer(la) for la in order]
    facs = [S.renorm_factor(la, m1) if renormalized else one() for la in order]
    return [[M[i][j] * cs[j] / cs[i] * facs[i] / facs[j] for i in range(len(order))]
            for j in range(len(order))]


def flag_transition_matrix(n: int, slope1, slope2, renormalized: bool = False):
    """Printed-frame matrix: column la expands basis(slope1)_la in basis(slope2).

    Entry [row nu][col la] = coefficient of the slope2 element nu.  With
    renormalized=True both slopes must sit at the same wall m and the entry
    picks up fac_la/fac_nu, turning the crossing into the renormalized form
    whose entries are conjecturally Laurent in q alone.

    Internally it is G1 G2^-1 for the tables G: the ordered product of the
    wall factors D^-k F_p D^k between the two chain positions, or the
    product of their inverses in reverse order when slope1 lies below
    slope2; see the module docstring.
    """
    slope1, slope2 = _slope(slope1), _slope(slope2)
    order = enumerate_partitions(n)
    chis = [chi(la) for la in order]
    factors = [factor for _, factor in _sweep(n)[1]]
    pos1, pos2 = _position(n, slope1), _position(n, slope2)
    lo, hi = sorted((pos1, pos2))
    M = identity(len(order), one(), zero())
    for pos in range(lo, hi):
        k, p = divmod(pos, len(factors))
        F = factors[p] if pos1 > pos2 else _factor_inverse(n, p)
        if k:
            ck = [c ** k for c in chis]
            F = [[x * ck[j] / ck[i] if x else x for j, x in enumerate(row)]
                 for i, row in enumerate(F)]
        if pos == lo:
            M = F
        else:
            M = mat_mul(F, M) if pos1 > pos2 else mat_mul(M, F)
    cs = [seed_normalizer(la) for la in order]
    if renormalized:
        if slope1[0] != slope2[0]:
            raise ValueError("renormalized transition needs both slopes at one wall")
        facs = [renorm_factor(la, slope1[0]) for la in order]
    out = []
    for j, nu in enumerate(order):
        row = []
        for i, la in enumerate(order):
            val = M[i][j] * cs[j] / cs[i]
            if renormalized:
                val = val * facs[i] / facs[j]
            row.append(val)
        out.append(row)
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_renormalized_crossing_matches_flag_route(n):
    start = (F2(0), 1)
    for w, _ in S._sweep(n)[1]:
        for m in (w, w + 1):
            assert (S.renormalized_crossing(n, m)
                    == flag_transition_matrix(n, (m, -1), (m, 1), renormalized=True)), m
            for s1, s2 in [(start, (m, 1)), ((m - 2, -1), start)]:
                assert (S.transition_matrix(n, s1, s2)
                        == flag_transition_matrix(n, s1, s2)), (s1, s2)


def chain_pairs(w):
    """Across w, 0+ to and from w+, and w - 1 to w + 1 from either side, both ways."""
    below, above, start = (w, -1), (w, 1), (F2(0), 1)
    far = [((w - 1, -1), (w + 1, 1)), ((w - 1, 1), (w + 1, -1))]
    return [(below, above), (start, above), (above, start)] + far + [(b, a) for a, b in far]


@pytest.mark.parametrize("n", [4, 5])
def test_transition_matrices_match_factor_products(n):
    for w, _ in S._sweep(n)[1]:
        for s1, s2 in chain_pairs(w):
            assert S.transition_matrix(n, s1, s2) == product_transition(n, s1, s2), (s1, s2)
        below, above = (w, -1), (w, 1)
        assert (S.renormalized_crossing(n, w)
                == product_transition(n, below, above, renormalized=True)), w


def test_diagonal_range_table():
    for n in range(7):
        for mu in enumerate_partitions(n):
            assert S._diagonal_t_range(mu) == S.diagonal_value(mu).t_degree_range(), mu


@functools.cache
def sweep_oracle(n):
    """stable._sweep before it stepped over non-walls: cross_wall at every candidate."""
    order = enumerate_partitions(n)
    seed = tbl = _seed(n)
    walls = []
    for w in S.candidate_walls(n, 0, 1):
        tbl, factor = S.cross_wall(tbl, w)
        B = strict_part(n, factor)
        if any(B.values()):
            factor = [[B[la].get(mu, one() if mu == la else zero()) for mu in order]
                      for la in order]
            walls.append((w, factor, tbl))
    if tbl != S.nabla_shift(seed, 1):
        raise ArithmeticError(f"nabla-periodicity fails at n={n}")
    return (seed, walls)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sweep_matches_every_candidate_oracle(n):
    seed, walls, _ = S._sweep(n)
    seed_ref, walls_ref = sweep_oracle(n)
    assert seed == seed_ref
    assert [w for w, _ in walls] == [w for w, _, _ in walls_ref]
    for (w, factor, tbl), (_, factor_ref, tbl_ref) in zip(chain_tables(n), walls_ref):
        assert factor == factor_ref, w
        assert tbl.gamma == tbl_ref.gamma and tbl.slope == tbl_ref.slope == (w, 1), w


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_block_check_is_the_full_window_check(n):
    # along the sweep: the table below each candidate passes the block check
    # exactly when the full window check at (w, +) passes, and that is
    # exactly at the candidates that are not walls
    walls = {w for w, _ in S._sweep(n)[1]}
    for w in S.candidate_walls(n, 0, 1):
        below = S.stable_basis(n, (w, -1))
        fast = S._window_violation(below, (w, 1), block=w) is None
        try:
            S._check_windows(below, (w, 1))
            full = True
        except ArithmeticError:
            full = False
        assert fast == full == (w not in walls), w


class _Crossed(Exception):
    pass


def _first_crossing(n, seed, monkeypatch):
    """The candidate at which the sweep from this seed first calls cross_wall."""
    def spy(tbl, w):
        raise _Crossed(w)

    monkeypatch.setattr(S, "seed_slope0", lambda _n: seed)
    monkeypatch.setattr(S, "cross_wall", spy)
    with pytest.raises(_Crossed) as crossed:
        S._sweep.__wrapped__(n)
    return crossed.value.args[0]


@pytest.mark.parametrize("n", [3, 4])
def test_entry_pushed_out_of_a_block_window_is_crossed(n, monkeypatch):
    # the first candidate is no wall, so the sweep steps over it; push one
    # block entry of the seed one t-degree past its window at (w, +), above
    # or below, and the check fails and the sweep solves there instead
    seed = _seed(n)
    first, wall = S.candidate_walls(n, 0, 1)[0], S._sweep(n)[1][0][0]
    assert first < wall
    assert _first_crossing(n, seed, monkeypatch) == wall
    pairs = [(la, mu) for la, row in dict_layout(seed).gamma.items() for mu in row
             if (dc := content_sum(la) - content_sum(mu)) and (first * dc).denominator == 1]
    assert pairs
    for la, mu in pairs:
        lo, hi = S.degree_window(la, mu, (first, 1))
        for et in (hi + 1, lo - 1):
            gamma = dict_layout(seed).gamma
            gamma[la][mu] = gamma[la][mu] + monomial(1, et, et)
            pushed = row_layout(S.StableTable(n, seed.slope, gamma))
            assert S._window_violation(pushed, (first, 1), block=first) is not None
            assert _first_crossing(n, pushed, monkeypatch) == first


@pytest.mark.parametrize("n", range(2, 9))
def test_candidates_hold_every_content_gap_denominator(n):
    # the block check is sound because every m in (0, 1) where a window
    # bound can round differently, m*(c_la - c_mu) an integer, is a candidate
    contents = {content_sum(la) for la in enumerate_partitions(n)}
    gaps = {abs(a - c) for a in contents for c in contents} - {0}
    expected = {F2(a, g) for g in gaps for a in range(1, g)}
    assert expected <= set(S.candidate_walls(n, 0, 1))


@functools.cache
def table_sweep(n):
    """stable._sweep while it kept each wall's table: (seed, [(w, I + B, table above w)])."""
    seed = tbl = _seed(n)
    walls = []
    for w in S.candidate_walls(n, 0, 1):
        if S._window_violation(tbl, (w, 1), block=w) is None:
            tbl = S.StableTable(n, (w, 1), tbl.gamma)
            continue
        tbl, factor = S.cross_wall(tbl, w)
        walls.append((w, factor, tbl))
    if tbl != S.nabla_shift(seed, 1):
        raise ArithmeticError(f"nabla-periodicity fails at n={n}")
    return (seed, walls)


def table_sweep_basis(n, slope):
    """stable.stable_basis while it read the tables table_sweep kept."""
    m, side = _slope(slope)
    seed, walls = table_sweep(n)
    k = math.floor(m)
    p = sum(1 for w, _, _ in walls if w < m - k or (w == m - k and side == 1))
    tbl = walls[p - 1][2] if p else seed
    if k:
        tbl = S.nabla_shift(tbl, k)
    return S.StableTable(n, (m, side), tbl.gamma)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_tables_read_off_the_chain_match_the_stored_tables(n):
    # each wall +-eps, in the period below, at and above (0, 1)
    walls = S._sweep(n)[1]
    assert [w for w, _ in walls] == [w for w, _, _ in table_sweep(n)[1]]
    for w, _ in walls:
        for slope in [(w + k, side) for k in (-1, 0, 1) for side in (-1, 1)]:
            tbl, ref = S.stable_basis(n, slope), table_sweep_basis(n, slope)
            assert tbl.gamma == ref.gamma and tbl.slope == ref.slope, slope


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_top_chamber_is_the_seed_shifted(n, monkeypatch):
    # position k*W + W is (k + 1)*W + 0: no factor is replayed
    seed = S._sweep(n)[0]

    def replayed(*args):
        raise AssertionError("a wall factor was replayed")

    monkeypatch.setattr(S, "mat_mul", replayed)
    for (m, side), k in [((F2(19, 20), 1), 0), ((F2(1), -1), 0), ((F2(-1, 20), 1), -1),
                         ((F2(39, 20), 1), 1), ((F2(-21, 20), 1), -2)]:
        tbl = S.stable_basis(n, (m, side))
        assert tbl == S.nabla_shift(seed, k + 1) and tbl.slope == (m, side), (m, side)
