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

The fourth is `RankAccumulator.add` as it was before it inverted each kept
row's lead once: it divided every entry of the row by the lead.  The
degree closure run on it must keep the same vectors and hold the same
reduced rows.

The fifth is `_bar_at` before it took A(xi) as one integer product:
T(xi) evaluated over Fraction times T(1/xi)^(-1) by `mat_mul`, each entry
decoded as it stands.  Both routes compute the same rationals, so their
digits must agree exactly, at the first point and at a small one.
"""

from collections import deque
from fractions import Fraction

import pytest

from wallcross import fock as F
from wallcross import reports as R
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
            for k, ck in R._antisymmetric_parts(v[star]).items():
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
        assert R.canonical_basis(n, b, sign) == loop_canonical_basis(A, n, sign), sign


class DividingRankAccumulator(RankAccumulator):
    def add(self, vec) -> bool:
        red, lead = self._reduce(dict(vec))
        if red is None:
            return False
        inv = red[lead]
        self.rows[lead] = {k: v / inv for k, v in red.items()}
        return True


def closure_with(accumulator, n, b, monkeypatch):
    """_spanning_matrix(n, b) and the accumulators it built, one per degree."""
    built = []

    class Recording(accumulator):
        def __init__(self):
            super().__init__()
            built.append(self)

    with monkeypatch.context() as m:
        m.setattr(F, "RankAccumulator", Recording)
        T = F._spanning_matrix(n, b)
    return T, [acc.rows for acc in built]


@pytest.mark.parametrize("n, b", [(n, b) for n in range(2, 8) for b in range(2, n + 1)])
def test_spanning_matrix_matches_dividing_accumulator(n, b, monkeypatch):
    T, rows = closure_with(RankAccumulator, n, b, monkeypatch)
    T_div, rows_div = closure_with(DividingRankAccumulator, n, b, monkeypatch)
    for j in range(len(T)):
        assert [r[j] for r in T] == [r[j] for r in T_div], j
    assert rows == rows_div


def fraction_bar_at(T, xi, n, b):
    Tbar = [[F._at(p, Fraction(1, xi)) for p in row] for row in T]
    try:
        X = mat_inverse(Tbar, Fraction(1), Fraction(0))
    except ValueError:
        return None
    A = mat_mul([[F._at(p, Fraction(xi)) for p in row] for row in T], X)
    return [[F._digits(x, xi) for x in row] for row in A]


@pytest.mark.parametrize("n, b", [(n, b) for n in range(1, 9) for b in range(2, max(3, n + 1))])
def test_integer_product_matches_fraction_product(n, b):
    T = F._integral(F._spanning_matrix(n, b), n, b)
    for xi in (F._XI, 2**4):
        assert F._bar_at(T, xi, n, b) == fraction_bar_at(T, xi, n, b), xi
