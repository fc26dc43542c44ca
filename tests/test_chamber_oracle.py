"""The chamber sweep against the per-slope replay it replaced.

The reference route computes each slope on its own: seed_slope0, then
cross_wall over every candidate wall below the slope's fractional part,
then nabla_shift once per unit of its integer part.  Its transition
matrix inverts the restriction table over Q(q,t): g1 * g2^-1, then the
printed frame.  The sweep reads tables from one walk and builds matrices
from wall factors and nabla-periodicity; both must agree exactly.
"""

import functools
import math
from fractions import Fraction as F2

import pytest

from wallcross import stable as S
from wallcross.linalg import mat_inverse, mat_mul
from wallcross.partitions import enumerate_partitions
from wallcross.scalars import one, zero

WALLS = {2: [F2(1, 2)], 3: [F2(1, 3), F2(1, 2), F2(2, 3)],
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


def _matrix(tbl, order):
    return [[tbl.entry(la, mu) for mu in order] for la in order]


@functools.cache
def replay_inverse(n, m, side):
    order = enumerate_partitions(n)
    return mat_inverse(_matrix(replay_table(n, m, side), order), one(), zero())


def replay_transition(n, slope1, slope2):
    order = enumerate_partitions(n)
    M = mat_mul(_matrix(replay_table(n, *slope1), order), replay_inverse(n, *slope2))
    cs = [S.seed_normalizer(la) for la in order]
    return [[M[i][j] * cs[j] / cs[i] for i in range(len(order))]
            for j in range(len(order))]


def grid(n):
    """Each wall +-eps, also shifted by -1 and +1; 0+-, 1+, -1-, and
    1/7+, 5/3-, -2/5+ (a non-wall, a shifted non-wall, a negative slope)."""
    points = [(w + k, side) for w in WALLS[n] for k in (-1, 0, 1) for side in (-1, 1)]
    return points + [(F2(0), 1), (F2(0), -1), (F2(1), 1), (F2(-1), -1),
                     (F2(1, 7), 1), (F2(5, 3), -1), (F2(-2, 5), 1)]


@pytest.mark.parametrize("n", [2, 3])
def test_tables_match_replay(n):
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
