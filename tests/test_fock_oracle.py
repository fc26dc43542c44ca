"""Differential oracles for the Fock bar matrix.

The first reference is the breadth-first word search that `bar_matrix`
used before it spanned each degree from the degrees below: words in the
f_i and V_k applied to the vacuum, shorter words first and ties in
generator order, each degree-n image kept only if it enlarges the span.
It never prunes, so it is exponential in n and lives here only to pin the
closure to the same involution.

The second is the route `bar_matrix` took before it evaluated at an
integer point: T(q) times T(1/q)^(-1), inverted and multiplied over Q(q)
by `mat_inverse` and `mat_mul`, on the same spanning matrix.  It pins the
evaluate-and-decode product at the degrees the first oracle cannot reach.

The third is the fixed-point loop `canonical_basis` ran before its single
pass down each column: apply the bar involution to the column, subtract,
correct the dominance-largest entry that moved by the antisymmetric
splitting of its coefficient, and repeat until the column is
bar-invariant.  It checks its own result against the involution, so it
pins the one-pass recursion exactly.
"""

from collections import deque

import pytest

from wallcross import fock as F
from wallcross.linalg import RankAccumulator, mat_inverse, mat_mul
from wallcross.partitions import enumerate_partitions
from wallcross.scalars import monomial, one, zero

from api_oracles import bar_vector


def bfs_spanning_matrix(n, b):
    order = enumerate_partitions(n)
    idx = {la: j for j, la in enumerate(order)}
    target = len(order)
    gens = F._generators(b, n)
    acc = RankAccumulator()
    cols = []
    queue = deque([(0, F.vacuum())])
    while queue and len(cols) < target:
        deg, vec = queue.popleft()
        if deg == n:
            if acc.add({idx[la]: c for la, c in vec.items()}):
                cols.append([vec.get(la, zero()) for la in order])
            continue
        for gen, d in gens:
            if deg + d <= n:
                queue.append((deg + d, F._apply_gen(gen, vec, b)))
    assert len(cols) == target, (n, b, len(cols))
    return [[cols[j][i] for j in range(target)] for i in range(target)]


def bfs_bar_matrix(n, b):
    if n == 0:
        return [[one()]]
    T = bfs_spanning_matrix(n, b)
    Tbar = [[c.bar() for c in row] for row in T]
    return mat_mul(T, mat_inverse(Tbar, one(), zero()))


@pytest.mark.parametrize("b", [2, 3, 4])
@pytest.mark.parametrize("n", range(7))
def test_bar_matrix_matches_breadth_first_reference(n, b):
    assert F.bar_matrix(n, b) == bfs_bar_matrix(n, b)


def field_bar_matrix(n, b):
    T = F._spanning_matrix(n, b)
    Tbar = [[c.bar() for c in row] for row in T]
    return mat_mul(T, mat_inverse(Tbar, one(), zero()))


# n = 8, b = 2 takes about 7 s more on its own and is left out
@pytest.mark.parametrize("n, b", [(7, b) for b in range(2, 7)] + [(8, 3), (8, 5), (8, 6)])
def test_bar_matrix_matches_field_product(n, b):
    assert F.bar_matrix(n, b) == field_bar_matrix(n, b)


def loop_canonical_basis(A, n, sign):
    order = enumerate_partitions(n)
    done: dict = {}
    for mu in reversed(order):  # ascending: dominance-smaller first
        u = {mu: one()}
        while True:
            v = bar_vector(u, A, n)
            for la, c in u.items():
                F._add_term(v, la, -c)
            if not v:
                break
            star = next(la for la in order if la in v)  # dominance-maximal
            alpha = zero()
            for k, ck in F._antisymmetric_parts(v[star]).items():
                alpha = alpha + (monomial(ck, k) if sign == "+" else monomial(-ck, -k))
            for la, c in done[star].items():
                F._add_term(u, la, alpha * c)
        done[mu] = u
    return [[done[mu].get(la, zero()) for mu in order] for la in order]


@pytest.mark.parametrize("n, b", [(n, b) for n in range(2, 8) for b in range(2, n + 1)]
                         + [(8, 2)])
def test_canonical_basis_matches_fixed_point_loop(n, b):
    A = F.bar_matrix(n, b)
    for sign in "+-":
        assert F.canonical_basis(n, b, sign) == loop_canonical_basis(A, n, sign), sign
