"""Fock-space action, bar involution, canonical bases.

The operator goldens at b = 2 and b = 3 are hand computations (add the
boxes, count the nodes); the structural properties of the bar matrix and
the Chevalley/Heisenberg relations then serve as the real oracle, since a
wrong exponent anywhere breaks them loudly.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wallcross import fock as F
from wallcross import reports as R
from wallcross.linalg import mat_inverse, mat_mul
from wallcross.partitions import conjugate, enumerate_partitions, i_nodes
from wallcross.scalars import monomial, one, zero

import api_oracles
from api_oracles import apply_B, apply_e, bar_vector


def qq(k):
    return monomial(1, k, 0)


def vec(*pairs):
    return {la: c for la, c in pairs}


def vsub(a, b):
    out = dict(a)
    for la, c in b.items():
        F._add_term(out, la, -c)
    return out


def apply_word(word, v, b):
    for gen in word:
        v = F._apply_gen(gen, v, b)
    return v


# ---------------------------------------------------------------------------
# operator goldens
# ---------------------------------------------------------------------------


def test_f_on_vacuum():
    assert F.apply_f(0, F.vacuum(), 2) == vec(((1,), one()))
    # the only addable node of the empty diagram has content 0
    assert F.apply_f(1, F.vacuum(), 2) == {}


def test_f_chain_b2():
    w = F.apply_f(1, F.apply_f(0, F.vacuum(), 2), 2)
    assert w == vec(((2,), one()), ((1, 1), qq(1)))


def test_f_chain_b3():
    w = F.vacuum()
    for i in (0, 1, 2):
        w = F.apply_f(i, w, 3)
    assert w == vec(((3,), one()), ((2, 1), qq(1)))


def test_V1_vacuum_b2():
    assert F.apply_V(1, F.vacuum(), 2) == vec(((2,), one()), ((1, 1), -qq(-1)))


def test_V1_vacuum_b3():
    assert F.apply_V(1, F.vacuum(), 3) == vec(
        ((3,), one()), ((2, 1), -qq(-1)), ((1, 1, 1), qq(-2))
    )


def test_V_down_then_up_vacuum_coefficient():
    w = F.apply_V(-1, F.apply_V(1, F.vacuum(), 2), 2)
    assert w[()] == one() + qq(-2)


def test_e_lowers_with_negated_left_count():
    w = apply_e(1, vec(((2,), one()), ((1, 1), qq(1))), 2)
    assert w == vec(((1,), qq(1) + qq(-1)))


def test_generator_index_range():
    with pytest.raises(ValueError):
        F.apply_f(2, F.vacuum(), 2)
    with pytest.raises(ValueError):
        F.apply_V(0, F.vacuum(), 2)
    with pytest.raises(ValueError):
        apply_B(0, F.vacuum(), 2)


# ---------------------------------------------------------------------------
# quantum-group and Heisenberg relations
# ---------------------------------------------------------------------------


def quantum_integer(N):
    """[N]_q = (q^N - q^-N)/(q - q^-1) as a Scalar."""
    s = zero()
    for m in range(abs(N)):
        s = s + monomial(1 if N >= 0 else -1, abs(N) - 1 - 2 * m, 0)
    return s


@pytest.mark.parametrize("b", [2, 3, 4])
def test_chevalley_commutator(b):
    # [e_i, f_j] = delta_ij (K_i - K_i^-1)/(q - q^-1); this pins the sign of
    # the e-exponent, which only this relation is sensitive to
    for n in range(0, 6):
        for la in enumerate_partitions(n):
            v = {la: one()}
            for i in range(b):
                for j in range(b):
                    comm = vsub(
                        apply_e(i, F.apply_f(j, v, b), b),
                        F.apply_f(j, apply_e(i, v, b), b),
                    )
                    if i != j:
                        assert not comm, (la, i, j)
                    else:
                        N = len(i_nodes(la, i, b)) - len(i_nodes(la, i, b, down=True))
                        expect = quantum_integer(N)
                        want = {la: expect} if expect else {}
                        assert not vsub(comm, want), (la, i, N)


@pytest.mark.parametrize("b", [2, 3, 4])
@pytest.mark.parametrize("apply", [F.apply_f, apply_e], ids=["f", "e"])
def test_quantum_serre_relations(apply, b):
    # sum_k (-1)^k [m choose k] x_i^(m-k) x_j x_i^k = 0 for i != j, with
    # m = 1 - a_ij: 3 at b = 2, 2 for adjacent i, j, 1 (they commute) else
    checked = live = 0
    for n in range(0, 6):
        for la in enumerate_partitions(n):
            for i in range(b):
                for j in range(b):
                    if i == j:
                        continue
                    m = 3 if b == 2 else 2 if (i - j) % b in (1, b - 1) else 1
                    total = {}
                    for k in range(m + 1):
                        c = one() if k in (0, m) else quantum_integer(m)
                        w = {la: -c if k % 2 else c}
                        for x in [i] * k + [j] + [i] * (m - k):
                            w = apply(x, w, b)
                        live += bool(w)
                        for mu, cw in w.items():
                            F._add_term(total, mu, cw)
                    assert not total, (la, i, j)
                    checked += 1
    assert checked == 19 * {2: 2, 3: 6, 4: 12}[b]  # 19 partitions of size <= 5
    assert live


@pytest.mark.parametrize("b", [2, 3])
def test_V_commutes_with_e_f(b):
    for n in range(0, 5):
        for la in enumerate_partitions(n):
            v = {la: one()}
            for k in (1, -1, 2):
                for i in range(b):
                    assert not vsub(
                        F.apply_V(k, F.apply_f(i, v, b), b),
                        F.apply_f(i, F.apply_V(k, v, b), b),
                    )
                    assert not vsub(
                        F.apply_V(k, apply_e(i, v, b), b),
                        apply_e(i, F.apply_V(k, v, b), b),
                    )


def test_same_sign_V_commute():
    for b in (2, 3):
        for la in ((), (1,), (2, 1)):
            v = {la: one()}
            assert not vsub(
                F.apply_V(1, F.apply_V(2, v, b), b),
                F.apply_V(2, F.apply_V(1, v, b), b),
            )
            w = F.apply_V(1, F.apply_V(1, F.apply_V(2, v, b), b), b)
            assert not vsub(
                F.apply_V(-1, F.apply_V(-2, w, b), b),
                F.apply_V(-2, F.apply_V(-1, w, b), b),
            )


def test_B_minus_one_is_V_one():
    for b in (2, 3):
        assert apply_B(-1, F.vacuum(), b) == F.apply_V(1, F.vacuum(), b)


def test_B_minus_two_log_series():
    # B_-2 = 2 (V_2 - V_1^2/2)
    for b in (2, 3):
        for la in ((), (1,)):
            v = {la: one()}
            rhs = {k: c * monomial(2) for k, c in F.apply_V(2, v, b).items()}
            for k, c in F.apply_V(1, F.apply_V(1, v, b), b).items():
                F._add_term(rhs, k, -c)
            assert not vsub(apply_B(-2, v, b), rhs)


def _B_literal(k, v, b):
    """B_k by the literal Newton recursion, recomputing B_(-(j-i)) for every i."""
    sgn = -1 if k > 0 else 1

    def rec(j):
        out = {la: c * monomial(j) for la, c in F.apply_V(sgn * j, v, b).items()}
        for i in range(1, j):
            for la, c in F.apply_V(sgn * i, rec(j - i), b).items():
                F._add_term(out, la, -c)
        return out

    return rec(abs(k))


@pytest.mark.parametrize("k", [-5, -4, 4, 5])
def test_B_bottom_up_matches_literal_recursion(k, monkeypatch):
    b = 2
    if k < 0:
        v = {(): one(), (1,): qq(1)}
    else:
        v = {la: qq(i) for i, la in enumerate(enumerate_partitions(2 * abs(k)))}
    expected = _B_literal(k, v, b)
    assert expected
    calls = []
    apply_V = api_oracles.apply_V

    def counted(kk, w, bb):
        calls.append(kk)
        return apply_V(kk, w, bb)

    monkeypatch.setattr(api_oracles, "apply_V", counted)
    assert apply_B(k, v, b) == expected
    assert calls
    assert len(calls) <= abs(k) * (abs(k) + 1) // 2


def test_B_commutator_concrete_eigenvalue():
    # the action gives [B_1, B_-1] = (1 + q^-2)·Id at b = 2 (the quantum
    # integer evaluated at q^-2, not at q; V_-1 V_1 |∅⟩ alone decides this)
    for n in range(0, 7):
        for la in enumerate_partitions(n):
            v = {la: one()}
            comm = vsub(
                apply_B(1, apply_B(-1, v, 2), 2),
                apply_B(-1, apply_B(1, v, 2), 2),
            )
            assert not vsub(comm, {la: one() + qq(-2)}), la


def test_B2_commutator_concrete_eigenvalue():
    # k [b]_{q^{-2k}} at k = 2, b = 2: 2 (1 + q^-4)
    for n in range(0, 5):
        for la in enumerate_partitions(n):
            v = {la: one()}
            comm = vsub(
                apply_B(2, apply_B(-2, v, 2), 2),
                apply_B(-2, apply_B(2, v, 2), 2),
            )
            assert not vsub(comm, {la: monomial(2) + monomial(2, -4, 0)}), la


# ---------------------------------------------------------------------------
# bar involution
# ---------------------------------------------------------------------------


def test_bar_matrix_n2_b2():
    A = F.bar_matrix(2, 2)
    assert A == [[one(), zero()], [qq(1) - qq(-1), one()]]


def test_bar_matrix_large_b_identity():
    A = F.bar_matrix(3, 4)
    for i in range(3):
        for j in range(3):
            assert A[i][j] == (one() if i == j else zero())


@pytest.mark.parametrize("n,b", [(3, 2), (4, 2), (4, 3), (5, 2)])
def test_bar_involution_squares_to_identity(n, b):
    A = F.bar_matrix(n, b)
    Abar = [[c.bar() for c in row] for row in A]
    P = mat_mul(A, Abar)
    for i in range(len(P)):
        for j in range(len(P)):
            assert P[i][j] == (one() if i == j else zero())


@pytest.mark.parametrize("n,b", [(4, 2), (5, 2), (4, 3)])
def test_lt_structure(n, b):
    # bar_matrix raises on violations already; make the report path explicit
    assert F.lt_property_check(F.bar_matrix(n, b), n, b) == []


def test_lt_check_identity_matrix():
    n = 4
    order = enumerate_partitions(n)
    I = [[one() if i == j else zero() for j in order] for i in order]
    assert F.lt_property_check(I, n, 2) == []


def test_lt_check_reports_core_and_conjugation_violations():
    # a[(4)][(3,1)] = q: (4) and (3,1) have 3-cores (1) and (3,1), and the
    # conjugate entry a[(2,1,1)][(1,1,1,1)] stays 0
    order = enumerate_partitions(4)
    A = [[one() if i == j else zero() for j in order] for i in order]
    A[1][0] = qq(1)
    assert F.lt_property_check(A, 4, 3) == [
        "(b) b-core mismatch between (4,) and (3, 1)",
        "(d) a[(4,)][(3, 1)] != a[(3, 1)'][(4,)']",
        "(d) a[(2, 1, 1)][(1, 1, 1, 1)] != a[(1, 1, 1, 1)'][(2, 1, 1)']",
    ]


@settings(max_examples=8, deadline=None)
@given(st.permutations(list(range(4))))
def test_bar_matrix_spanning_order_immaterial(perm):
    # 4 generators at n = 4, b = 3: f_0, f_1, f_2 and V_1; another order
    # keeps other spanning vectors, and the involution must not notice
    gens = F._generators(3, 4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "_generators", lambda b, n: [gens[j] for j in perm])
        A = F.bar_matrix(4, 3)
    assert A == F.bar_matrix(4, 3)


@pytest.mark.parametrize("b", [2, 3])
def test_bar_matrix_fixes_random_words(b):
    # every word in the f_i and V_k applied to the vacuum is bar-invariant
    rng = random.Random(20 + b)
    for n in range(1, 6):
        A = F.bar_matrix(n, b)
        gens = F._generators(b, n)
        for _ in range(6):
            word, deg = [], 0
            while deg < n:
                gen, d = rng.choice([g for g in gens if deg + g[1] <= n])
                word.append(gen)
                deg += d
            v = apply_word(word, F.vacuum(), b)
            assert not vsub(bar_vector(v, A, n), v), (n, word)


def test_bar_matrix_spanning_failure(monkeypatch):
    # f_0 alone cannot reach degree 2 at b = 2
    monkeypatch.setattr(F, "_generators", lambda b, n: [(("f", 0), 1)])
    with pytest.raises(ArithmeticError, match="span only"):
        F.bar_matrix(2, 2)


@pytest.mark.parametrize("n, b", [(2, 2), (4, 3)])
def test_bar_matrix_rejects_non_laurent_product(monkeypatch, n, b):
    # a column times (1 + 2q) is no longer bar-invariant, so T(q) T(1/q)^-1
    # picks up (1 + 2q)/(1 + 2/q) and the per-column division is not exact
    spanning = F._spanning_matrix

    def doctored(n, b):
        T = spanning(n, b)
        return [[c * (one() + monomial(2, 1)) if j == 0 else c
                 for j, c in enumerate(row)] for row in T]

    monkeypatch.setattr(F, "_spanning_matrix", doctored)
    with pytest.raises(ArithmeticError, match=f"n={n}, b={b} is not Laurent"):
        F.bar_matrix(n, b)


def _spy_inverse(monkeypatch):
    """Record, per mat_inverse call of bar_matrix, whether the point was singular."""
    singular = []

    def spy(M, one_, zero_):
        try:
            X = mat_inverse(M, one_, zero_)
        except ValueError:
            singular.append(True)
            raise
        singular.append(False)
        return X

    monkeypatch.setattr(F, "mat_inverse", spy)
    return singular


def test_bar_matrix_squares_a_small_point(monkeypatch):
    # the coefficient bound at n = 6, b = 2 is 80: the points 4 and 16 fail
    # it, and the result comes from 256, the second squaring
    expected = F.bar_matrix(6, 2)
    monkeypatch.setattr(F, "_XI", 4)
    singular = _spy_inverse(monkeypatch)
    assert F.bar_matrix(6, 2) == expected
    assert len(singular) == 3


def test_bar_matrix_steps_over_a_singular_point(monkeypatch):
    # c = 4q - 17 + 4/q is bar-invariant and vanishes at q = 4 and q = 1/4:
    # a column times c leaves A unchanged but makes T(1/4) singular
    expected = F.bar_matrix(2, 2)
    spanning = F._spanning_matrix
    c = monomial(4, 1) - monomial(17) + monomial(4, -1)

    def doctored(n, b):
        return [[x * c if j == 0 else x for j, x in enumerate(row)]
                for row in spanning(n, b)]

    monkeypatch.setattr(F, "_spanning_matrix", doctored)
    monkeypatch.setattr(F, "_XI", 4)
    singular = _spy_inverse(monkeypatch)
    assert F.bar_matrix(2, 2) == expected
    assert singular[0] and len(singular) > 1 and not any(singular[1:])


def test_bar_matrix_rejects_fractional_coefficients(monkeypatch):
    # T = [[2, 0], [q, 1]] gives a[(2,)][(1, 1)] = (q - 1/q)/2: Laurent, and
    # its digits at 2^32 decode, but no point passes the bound; past _cap
    # that proves A is not in Z[q, 1/q]
    monkeypatch.setattr(F, "_spanning_matrix",
                        lambda n, b: [[monomial(2), zero()], [qq(1), one()]])
    with pytest.raises(ArithmeticError, match="not Laurent with integer coefficients"):
        F.bar_matrix(2, 2)


def test_bar_matrix_rejects_fractional_spanning_vectors(monkeypatch):
    monkeypatch.setattr(F, "_spanning_matrix",
                        lambda n, b: [[monomial(Fraction(1, 2)), zero()], [qq(1), one()]])
    with pytest.raises(ArithmeticError, match=r"not in Z\[q, 1/q\]"):
        F.bar_matrix(2, 2)


def test_bar_vector_roundtrip():
    n, b = 4, 2
    A = F.bar_matrix(n, b)
    v = {(2, 1, 1): qq(3) + one(), (4,): -qq(-2)}
    w = bar_vector(bar_vector(v, A, n), A, n)
    assert not vsub(w, v)


# ---------------------------------------------------------------------------
# canonical bases
# ---------------------------------------------------------------------------


def test_canonical_n2_b2_plus():
    D = R.canonical_basis(2, 2, "+")
    assert D == [[one(), zero()], [qq(1), one()]]


def test_canonical_n2_b2_minus():
    D = R.canonical_basis(2, 2, "-")
    assert D == [[one(), zero()], [-qq(-1), one()]]


def test_canonical_sign_validation():
    with pytest.raises(ValueError):
        R.canonical_basis(2, 2, "plus")


@pytest.mark.parametrize("b", [1, 0])
def test_level_below_two_rejected(b):
    with pytest.raises(ValueError, match="at least 2"):
        F.bar_matrix(3, b)
    with pytest.raises(ValueError, match="at least 2"):
        R.canonical_basis(3, b, "+")


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("n,b", [(4, 2), (5, 2), (4, 3)])
def test_canonical_columns_bar_invariant(n, b, sign):
    order = enumerate_partitions(n)
    A = F.bar_matrix(n, b)
    D = R.canonical_basis(n, b, sign)
    for j, mu in enumerate(order):
        col = {la: D[i][j] for i, la in enumerate(order) if D[i][j]}
        assert not vsub(bar_vector(col, A, n), col), mu
        # unitriangular with the right q-support off the diagonal
        assert col[mu] == one()
        for la, c in col.items():
            if la == mu:
                continue
            terms = c.num.terms()
            assert all(c.denominator == 1 for c in terms.values())
            if sign == "+":
                assert all(m[0] > 0 for m in terms), (mu, la, str(c))
            else:
                assert all(m[0] < 0 for m in terms), (mu, la, str(c))


# The theorems of the level-one canonical bases, for all n <= 8 and
# 2 <= b <= n.  A failure here is a finding about the code.
FOCK_CASES = [(n, b) for n in range(2, 9) for b in range(2, n + 1)]


@functools.lru_cache(maxsize=None)
def cached_canonical(n, b, sign):
    return R.canonical_basis(n, b, sign)


@pytest.mark.parametrize("n,b", FOCK_CASES)
def test_canonical_inversion(n, b):
    # (G^-)^-1[la][mu](q) = G^+[mu'][la'](1/q)  (Leclerc-Thibon, IMRN 1996)
    order = enumerate_partitions(n)
    pos = {la: i for i, la in enumerate(order)}
    inv = mat_inverse(cached_canonical(n, b, "-"), one(), zero())
    plus = cached_canonical(n, b, "+")
    for la in order:
        for mu in order:
            assert inv[pos[la]][pos[mu]] == plus[pos[conjugate(mu)]][pos[conjugate(la)]].bar(), (
                la, mu)


@pytest.mark.parametrize("n,b", FOCK_CASES)
def test_canonical_plus_positive(n, b):
    # every coefficient of G^+ is a nonnegative integer (Varagnolo-Vasserot,
    # Duke 1999); at q = 1 the d-matrix is unitriangular (Ariki, 1996)
    D = cached_canonical(n, b, "+")
    for i, row in enumerate(D):
        for j, c in enumerate(row):
            assert c.is_laurent(), (n, b, i, j)
            coeffs = list(c.num.terms().values())
            assert all(type(x) is int and x > 0 for x in coeffs), (n, b, i, j, str(c))
            if i <= j:  # rows run down the dominance order
                assert sum(coeffs) == (i == j), (n, b, i, j, str(c))


# ---------------------------------------------------------------------------
# costandard side: in the basis bar|la>, f_i and V_k act by the
# bar-conjugates of their standard matrices, because bar commutes with them
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def cached_bar_matrix(n, b):
    return F.bar_matrix(n, b)


def assert_commutes_with_bar(op, step, n, b):
    for la in enumerate_partitions(n):
        v = {la: one()}
        lhs = op(bar_vector(v, cached_bar_matrix(n, b), n))
        rhs = bar_vector(op(v), cached_bar_matrix(n + step, b), n + step)
        assert not vsub(lhs, rhs), (la, step, b)


@pytest.mark.parametrize("i,b", [(0, 2), (1, 2), (2, 3)])
def test_costandard_f_is_bar_of_standard(i, b):
    for n in range(0, 5):
        assert_commutes_with_bar(lambda v: F.apply_f(i, v, b), 1, n, b)


@pytest.mark.parametrize("k,b", [(1, 2), (1, 3), (2, 2)])
def test_costandard_V_is_bar_of_standard(k, b):
    for n in range(0, 4):
        assert_commutes_with_bar(lambda v: F.apply_V(k, v, b), k * b, n, b)


def test_fock_scalars_stay_one_variable():
    # nothing in the Fock layer may leak a t
    A = F.bar_matrix(5, 3)
    for row in A:
        for c in row:
            assert c.is_laurent()
            assert all(et == 0 for _, et in c.num.terms())
