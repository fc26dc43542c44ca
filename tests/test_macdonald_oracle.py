"""Gram-Schmidt Macdonald polynomials as the reference for the HHL layer.

The library builds Htilde from the Haglund-Haiman-Loehr filling formula,
one pass over the standard fillings per conjugate pair, and restricts to
fixed points by contracting Htilde's m-coefficients with f's pairings
against each m_nu, and api_oracles reads Htilde coordinates off those
restrictions.  The routes these replaced are kept here: P by Gram-Schmidt
against dominance order in the deformed Hall pairing, Htilde as the
p-twisted integral form of P, restriction as
[T_la] <f, Htilde_la>_mod / <Htilde_la, Htilde_la>_mod, and Htilde
coordinates by triangular back-substitution of m into P.  New and old must
agree exactly at n <= 4 (n <= 5 for the coordinates).  At n = 6, where the
reference is too slow, properties that need no reference stand in.

Between the two sit the word route, which fills every word of each content
nu into mu's boxes and must equal the library's m-coefficients exactly for
|mu| <= 7, and the p route, the restriction as one dot product of f's
weighted p-coefficients with Htilde_la expanded in p.  The p route must
agree exactly with the library on every seed row for n <= 6 and on random
f for n <= 4.  At n = 8 a budgeted test builds every Htilde_mu cold and
checks its value at q1 = q2 = 1.

Htilde_in_s contracts HHL's m-coefficients with rows of the inverse Kostka
matrix.  The route it replaced, Htilde expanded through m into p and then
into s (api_oracles.Ht_), must equal it exactly for |mu| <= 7, and the
inverse Kostka rows must be integer rows inverse to the Kostka matrix read
off the Schur functions' m-coefficients.
"""

import math
import random
import time
from collections import Counter
from functools import lru_cache

import pytest

from wallcross import stable as S
from wallcross import symfunc
from wallcross.partitions import arm, boxes, conjugate, dominates, enumerate_partitions, leg, n_stat
from wallcross.scalars import LaurentPoly, Scalar, one, q1, q2, zero
from wallcross.symfunc import (
    Htilde_in_s,
    SymFunc,
    _Htilde_in_m,
    _m_in_p,
    _m_in_s,
    _mod_weighted,
    restrictions,
    s_,
    scale_powersums,
)

from api_oracles import (
    Ht_,
    _plain_weight,
    _to_p,
    convert,
    dict_layout,
    inner_mod,
    m_coefficients,
    p_,
    torus_factor,
)
from test_symfunc import P_, integral_factor, mod_pair_formula, random_symfunc

# ---------------------------------------------------------------------------
# the reference route
# ---------------------------------------------------------------------------


def _inner_p_plain(a: dict, b: dict) -> Scalar:
    """Plain pairing of raw p-coefficient dicts."""
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    acc = zero()
    for mu, c in small.items():
        d = big.get(mu)
        if d is not None:
            acc = acc + c * d * _plain_weight(mu)
    return acc


@lru_cache(maxsize=None)
def _macdonald_P_in_p(n: int) -> dict:
    """Gram-Schmidt in the plain pairing against dominance order."""
    order = enumerate_partitions(n)
    done: dict = {}
    norms: dict = {}
    for la in reversed(order):  # ascending lex: dominance-smaller mu come first
        v = dict(_m_in_p(la))
        for mu in done:
            if dominates(la, mu) and mu != la:
                num = _inner_p_plain(v, done[mu])
                if num:
                    f = num / norms[mu]
                    for rho, c in done[mu].items():
                        acc = v.get(rho, zero()) - f * c
                        if acc:
                            v[rho] = acc
                        else:
                            v.pop(rho, None)
        done[la] = v
        norms[la] = _inner_p_plain(v, v)
    return done


@lru_cache(maxsize=None)
def old_Htilde(la) -> SymFunc:
    c = integral_factor(la)
    out = {}
    for mu, v in _macdonald_P_in_p(sum(la))[la].items():
        f = c
        for k in mu:
            f = f / (one() - q2(-k))
        out[mu] = v * f
    return SymFunc("p", out)


def old_restrict(f: SymFunc, la) -> Scalar:
    n = sum(la)
    f = SymFunc("p", {mu: c for mu, c in f.to_basis("p").coeffs.items() if sum(mu) == n})
    H = old_Htilde(la)
    return torus_factor(la) * inner_mod(f, H) / inner_mod(H, H)


@lru_cache(maxsize=None)
def _m_in_P(n: int) -> dict:
    """Triangular back-substitution: P_la = m_la + dominance-smaller terms."""
    order = enumerate_partitions(n)
    P_in_m = {la: m_coefficients(P_(la)) for la in order}
    out: dict = {}
    for la in reversed(order):  # ascending: smaller partitions resolved first
        expr = {la: one()}
        for nu, c in P_in_m[la].items():
            if nu != la:
                for rho, d in out[nu].items():
                    acc = expr.get(rho, zero()) - c * d
                    if acc:
                        expr[rho] = acc
                    else:
                        expr.pop(rho, None)
        out[la] = expr
    return out


def old_p_in_Htilde(mu) -> dict:
    """p_mu in P by back-substitution, then P_la -> Htilde_la untwisted."""
    m_in_P = _m_in_P(sum(mu))
    in_P: dict = {}
    for la, c in m_coefficients(p_(mu)).items():
        for rho, d in m_in_P[la].items():
            acc = in_P.get(rho, zero()) + c * d
            if acc:
                in_P[rho] = acc
            else:
                in_P.pop(rho, None)
    # Htilde_la = integral_factor(la) * P_la with p_k -> p_k/(1 - q2^(-k))
    f = one()
    for k in mu:
        f = f * (one() - q2(-k))
    return {la: c * f / integral_factor(la) for la, c in in_P.items()}


def old_seed(n: int) -> dict:
    gamma = {}
    for la in enumerate_partitions(n):
        f = scale_powersums(s_(conjugate(la)), lambda k: one() / (one() - q2(k)))
        rows = {mu: old_restrict(f, mu) for mu in enumerate_partitions(n)}
        c = S.diagonal_value(la) / rows[la]
        assert c.is_laurent() and c.num.is_term(), la
        gamma[la] = {mu: c * v for mu, v in rows.items() if v}
    return gamma


def _multiset_permutations(counts: list):
    """Distinct words with counts[v] letters v, lexicographically, one at a time."""
    if not any(counts):
        yield ()
    for v, c in enumerate(counts):
        if c:
            counts[v] -= 1
            for rest in _multiset_permutations(counts):
                yield (v,) + rest
            counts[v] += 1


def word_Htilde_in_m(mu) -> dict:
    """HHL word by word: [m_nu]Htilde_mu as sum q1^inv q2^maj over every
    word of content nu written into mu's boxes in reading order."""
    cells = sorted(boxes(mu), key=lambda c: (-c[1], c[0]))
    pos = {c: i for i, c in enumerate(cells)}
    attacks = [
        (pos[u], pos[v])
        for u in cells
        for v in cells
        if pos[u] < pos[v] and (u[1] == v[1] or (u[1] == v[1] + 1 and u[0] > v[0]))
    ]
    descents = [
        (pos[(x, y)], pos[(x, y - 1)], arm(mu, x, y), leg(mu, x, y) + 1)
        for x, y in cells
        if y > 0
    ]
    out = {}
    for nu in enumerate_partitions(sum(mu)):
        stats: Counter = Counter()
        for w in _multiset_permutations(list(nu)):
            inv = sum(1 for i, j in attacks if w[i] > w[j])
            maj = 0
            for i, j, a, l1 in descents:
                if w[i] > w[j]:
                    inv -= a
                    maj += l1
            stats[inv, maj] += 1
        # q1^inv q2^maj in the (q, t) frame
        out[nu] = Scalar.from_laurent(
            LaurentPoly({(a + b, a - b): c for (a, b), c in stats.items()})
        )
    return out


def _restrict_weighted(weighted: dict, la) -> Scalar:
    acc = zero()
    for mu, d in _to_p("Htilde", la).items():
        c = weighted.get(mu)
        if c is not None:
            acc = acc + c * d
    # prod over boxes of q1^-arm q2^-leg
    return acc * q1(-n_stat(conjugate(la))) * q2(-n_stat(la))


def p_route_restrictions(f: SymFunc, n: int) -> dict:
    """Each restriction as one dot product of the weighted p-coefficients of f
    with those of Htilde_la, times prod over boxes of q1^-arm q2^-leg."""
    weighted = _mod_weighted(f, n)
    return {la: _restrict_weighted(weighted, la) for la in enumerate_partitions(n)}


# ---------------------------------------------------------------------------
# new against old, n <= 4
# ---------------------------------------------------------------------------

SMALL = [la for n in range(1, 5) for la in enumerate_partitions(n)]


@pytest.mark.parametrize("mu", SMALL, ids=str)
def test_Htilde_matches_gram_schmidt(mu):
    old = old_Htilde(mu)
    assert _to_p("Htilde", mu) == old.coeffs
    assert _Htilde_in_m(mu) == m_coefficients(old)


@pytest.mark.parametrize("mu", SMALL, ids=str)
def test_P_matches_gram_schmidt(mu):
    assert P_(mu).to_basis("p").coeffs == _macdonald_P_in_p(sum(mu))[mu]


@pytest.mark.parametrize(
    "mu", [mu for n in range(6) for mu in enumerate_partitions(n)], ids=str
)
def test_Htilde_coordinates_match_back_substitution(mu):
    assert convert(p_(mu), "Htilde") == old_p_in_Htilde(mu)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_restrictions_match_old_route(n):
    rng = random.Random(100 + n)
    den = one() - q1(1) * q2(2)
    for _ in range(3):
        f = random_symfunc(n, rng)
        # a coefficient with a denominator, and a part of another degree
        g = f + random_symfunc(n, rng).scale(one() / den) + random_symfunc(n + 1, rng)
        for h in (f, g):
            got = restrictions(h, n)
            for la in enumerate_partitions(n):
                want = old_restrict(h, la)
                assert got[la] == want, (n, la)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_seed_matches_old_route(n):
    assert dict_layout(S.seed_slope0(n)).gamma == old_seed(n)


# ---------------------------------------------------------------------------
# new against the word route, n <= 7
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mu", [mu for n in range(8) for mu in enumerate_partitions(n)], ids=str
)
def test_Htilde_matches_word_route(mu):
    assert _Htilde_in_m(mu) == word_Htilde_in_m(mu)


# ---------------------------------------------------------------------------
# new against the p route, n <= 6
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_restrictions_match_p_route_on_seed_rows(n):
    for la in enumerate_partitions(n):
        f = S._phi_prime(s_(conjugate(la)))
        assert restrictions(f, n) == p_route_restrictions(f, n), la


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_restrictions_match_p_route_on_random_f(n):
    rng = random.Random(200 + n)
    den = one() - q1(2) * q2(1)
    for _ in range(4):
        # coefficients with a denominator, and a part of another degree
        f = (random_symfunc(n, rng) + random_symfunc(n, rng, "s").scale(one() / den)
             + random_symfunc(n + 1, rng))
        assert restrictions(f, n) == p_route_restrictions(f, n), n


@pytest.mark.parametrize("n", range(1, 7))
def test_seed_matches_p_route(n, monkeypatch):
    new = S.seed_slope0(n).gamma
    monkeypatch.setattr(S, "restrictions", p_route_restrictions)
    assert new == S.seed_slope0(n).gamma


def test_seed_never_expands_Htilde_in_p(monkeypatch):
    # the seed's only expansions are its f's, from s into p: Htilde's
    # m-coefficients enter restrictions as dot products and nothing else
    real, tables = symfunc._expand, []

    def spy(coeffs, table):
        tables.append(table)
        return real(coeffs, table)

    monkeypatch.setattr(symfunc, "_expand", spy)
    S.seed_slope0(5)
    assert tables and set(tables) == {symfunc._s_in_p}


# ---------------------------------------------------------------------------
# Htilde in s: inverse Kostka rows against the route through m and p
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mu", [mu for n in range(7) for mu in enumerate_partitions(n)], ids=str
)
def test_Htilde_in_s_matches_four_basis_route(mu):
    assert Htilde_in_s(mu) == Ht_(mu).to_basis("s").coeffs


def test_Htilde_in_s_matches_four_basis_route_n7():
    # the slowest of these checks: about 1 s in-process on 2 vCPU
    for mu in enumerate_partitions(7):
        assert Htilde_in_s(mu) == Ht_(mu).to_basis("s").coeffs, mu


@pytest.mark.parametrize("n", range(8))
def test_inverse_kostka_rows(n):
    # K_la,ka = [m_ka]s_la, so sum over la of (K^-1)_nu,la K_la,ka is delta
    order = enumerate_partitions(n)
    kostka = {la: m_coefficients(s_(la)) for la in order}
    for nu in order:
        row = _m_in_s(nu)
        for la, c in row.items():
            terms = c.num.terms()
            assert c.is_laurent() and list(terms) == [(0, 0)], (nu, la)
            assert type(terms[(0, 0)]) is int, (nu, la)
        for ka in order:
            got = sum((c * kostka[la].get(ka, zero()) for la, c in row.items()), zero())
            assert got == (one() if ka == nu else zero()), (nu, ka)


# ---------------------------------------------------------------------------
# properties at n = 6, where the reference is too slow
# ---------------------------------------------------------------------------

N6 = enumerate_partitions(6)


def _swap_q1_q2(c: Scalar) -> Scalar:
    # q1 = q t and q2 = q/t, so swapping them inverts t
    return Scalar.from_laurent(c.num.map_exponents(lambda m: (m[0], -m[1])))


def test_Htilde_conjugation_symmetry_n6():
    for mu in N6:
        got = {nu: _swap_q1_q2(c) for nu, c in m_coefficients(Ht_(mu)).items()}
        assert got == m_coefficients(Ht_(conjugate(mu))), mu


def test_Htilde_at_q1_q2_one_n6():
    # at q1 = q2 = 1 every filling counts once: m_nu has n!/prod nu_i! of them
    for mu in N6:
        coeffs = m_coefficients(Ht_(mu))
        assert set(coeffs) == set(N6), mu
        for nu, c in coeffs.items():
            assert c.is_laurent(), (mu, nu)
            want = math.factorial(6) // math.prod(math.factorial(k) for k in nu)
            assert sum(c.num.terms().values()) == want, (mu, nu)


def test_Htilde_mod_norm_n6():
    for mu in N6:
        H = Ht_(mu)
        assert inner_mod(H, H) == mod_pair_formula(mu), mu


def test_seed_n6_within_budget():
    # seed_slope0 raises on a dominance, Laurent, diagonal or window failure
    t0 = time.perf_counter()
    tbl = S.seed_slope0(6)
    elapsed = time.perf_counter() - t0
    for la, row in dict_layout(tbl).gamma.items():
        assert row[la] == S.diagonal_value(la), la
        for mu, val in row.items():
            assert dominates(la, mu) and val.is_laurent(), (la, mu)
    assert elapsed < 15, f"seed_slope0(6) took {elapsed:.1f} s"


def test_Htilde_n8_within_budget():
    # Htilde_mu(X; 1, 1) = e_1^n, whose m_nu coefficient is n!/prod nu_i!
    symfunc._Htilde_in_m.cache_clear()
    t0 = time.perf_counter()
    coeffs = {mu: _Htilde_in_m(mu) for mu in enumerate_partitions(8)}
    elapsed = time.perf_counter() - t0
    assert len(coeffs) == 22
    for mu, row in coeffs.items():
        assert set(row) == set(enumerate_partitions(8)), mu
        for nu, c in row.items():
            assert c.is_laurent(), (mu, nu)
            want = math.factorial(8) // math.prod(math.factorial(k) for k in nu)
            assert sum(c.num.terms().values()) == want, (mu, nu)
    assert elapsed < 20, f"Htilde for all mu of 8 took {elapsed:.1f} s"
