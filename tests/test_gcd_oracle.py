"""Differential oracles for the gcd in `scalars`: `_gcd_int` and the sums.

Before the heuristic gcd, `_gcd_int` was Brown's modular gcd: over 61-bit
prime fields it evaluated v, took univariate gcds in u, interpolated the
images, lifted the candidate symmetrically and verified it by exact
division, repairing unlucky primes by CRT with the next prime.  That code
is kept here verbatim, and the heuristic gcd must return exactly the same
dict: the primitive gcd with a positive lex-leading coefficient.

Before sums cross-multiplied, `Scalar._combine` split the gcd of the two
denominators off, cross-multiplied by the cofactors only, and cancelled
what the sum still shared with that gcd.  Its body is kept here verbatim
too, and a + b and a - b must carry exactly its num and den dicts.
"""

import random
from fractions import Fraction
from math import gcd as _igcd

import pytest
from hypothesis import example, given, settings

from wallcross import fock, scalars, stable
from wallcross.scalars import Scalar, _gcd_int, _idiv, _unit_leading, laurent_gcd, one, rational

from api_oracles import q, t
from test_scalars import gcd_pairs_once_refused, scalar_pairs

# ---------------------------------------------------------------------------
# Brown's modular gcd
# ---------------------------------------------------------------------------

_PRIMES = (
    2305843009213693951,
    2305843009213693921,
    2305843009213693907,
    2305843009213693723,
    2305843009213693693,
    2305843009213693669,
    2305843009213693613,
    2305843009213693561,
)


class _UnluckyPrime(Exception):
    pass


# univariate dense polynomials mod p: list of ints, index = degree


def _up_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _up_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _up_trim(out)


def _up_divmod(a, b, p):
    a = list(a)
    if not b:
        raise ZeroDivisionError
    quo = [0] * max(0, len(a) - len(b) + 1)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        d = len(a) - len(b)
        quo[d] = c
        for i, cb in enumerate(b):
            a[i + d] = (a[i + d] - c * cb) % p
        _up_trim(a)
    return _up_trim(quo), a


def _up_gcd(a, b, p):
    a, b = _up_trim(list(a)), _up_trim(list(b))
    while b:
        a, b = b, _up_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _up_eval(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


# bivariate mod p: dict u_degree -> nonzero v-poly


def _bp_reduce(P: dict, p: int) -> dict:
    out: dict[int, list[int]] = {}
    for (u, v), c in P.items():
        c %= p
        if c:
            col = out.setdefault(u, [])
            if len(col) <= v:
                col.extend([0] * (v + 1 - len(col)))
            col[v] = c
    return {u: col for u, col in ((u, _up_trim(col)) for u, col in out.items()) if col}


def _bp_content(B, p):
    g: list[int] = []
    for col in B.values():
        g = _up_gcd(g, col, p)
        if len(g) == 1:
            return [1]
    return g


def _bp_div_content(B, g, p):
    if g == [1]:
        return B
    return {u: _up_divmod(col, g, p)[0] for u, col in B.items()}


def _bp_finalize(cont, H, p):
    out = {}
    for u, col in H.items():
        full = _up_mul(col, cont, p)
        for v, c in enumerate(full):
            if c:
                out[(u, v)] = c
    if not out:
        raise _UnluckyPrime
    inv = pow(out[max(out)], p - 2, p)
    return {k: c * inv % p for k, c in out.items()}


def _gcd_mod_p(P: dict, Q: dict, p: int, offset: int = 0) -> dict:
    """Monic (lex) gcd mod p of integer-coefficient dicts {(u,v): int}.

    Interpolates univariate gcd images at v = offset, offset+1, ...; an
    image at an unlucky evaluation point is either outvoted (its u-degree
    exceeds the running minimum) or exposed by the stability point taken
    after the interpolation is determined, which restarts the window.  The
    result can still be a strict multiple of the truth for an unlucky
    prime; the caller verifies over Q before trusting it.
    """
    A, B = _bp_reduce(P, p), _bp_reduce(Q, p)
    if not A or not B:
        raise _UnluckyPrime
    cA = _bp_content(A, p)
    A = _bp_div_content(A, cA, p)
    cB = _bp_content(B, p)
    B = _bp_div_content(B, cB, p)
    cont = _up_gcd(cA, cB, p)
    duA, duB = max(A), max(B)
    if duA == 0 or duB == 0:
        return _bp_finalize(cont, {0: [1]}, p)
    gamma = _up_gcd(A[duA], B[duB], p)
    dvA = max(len(c) - 1 for c in A.values())
    dvB = max(len(c) - 1 for c in B.values())
    need = min(dvA, dvB) + len(gamma)  # points determining the candidate
    npoints = 0
    M = [1]
    C: dict[int, list[int]] = {}
    dmin = None
    for alpha in range(offset, offset + 8 * need + 40):
        alpha %= p
        if _up_eval(gamma, alpha, p) == 0:
            continue
        pa = _up_trim([_up_eval(A.get(u, []), alpha, p) for u in range(duA + 1)])
        qa = _up_trim([_up_eval(B.get(u, []), alpha, p) for u in range(duB + 1)])
        if len(pa) - 1 != duA or len(qa) - 1 != duB:
            continue
        g = _up_gcd(pa, qa, p)
        dg = len(g) - 1
        if dg == 0:
            return _bp_finalize(cont, {0: [1]}, p)
        if dmin is None or dg < dmin:
            dmin, npoints, M, C = dg, 0, [1], {}
        elif dg > dmin:
            continue
        ga = _up_eval(gamma, alpha, p)
        img = [c * ga % p for c in g]
        deltas = {
            u: (img[u] - _up_eval(C.get(u, []), alpha, p)) % p for u in range(dmin + 1)
        }
        if npoints >= need:
            if any(deltas.values()):
                # a bad point slipped into this window; slide past it
                npoints, M, C = 0, [1], {}
                continue
            C = {u: col for u, col in C.items() if col}
            if not C:
                raise _UnluckyPrime
            ccont = _bp_content(C, p)
            return _bp_finalize(cont, _bp_div_content(C, ccont, p), p)
        minv = pow(_up_eval(M, alpha, p), p - 2, p)
        for u, delta in deltas.items():
            if delta:
                add = [c * delta % p * minv % p for c in M]
                cu = C.get(u, [])
                merged = list(cu) + [0] * max(0, len(add) - len(cu))
                for i, c in enumerate(add):
                    merged[i] = (merged[i] + c) % p
                C[u] = _up_trim(merged)
        npoints += 1
        M = _up_mul(M, [(-alpha) % p, 1], p)
    raise _UnluckyPrime


def brown_gcd_int(P: dict, Q: dict) -> dict:
    """gcd (associate) in Z[u,v] of primitive dicts {(u,v): int}."""
    glex = _igcd(P[max(P)], Q[max(Q)])
    acc = None
    accdeg = None
    for i, p in enumerate(_PRIMES):
        if P[max(P)] % p == 0 or Q[max(Q)] % p == 0:
            continue
        Gp = None
        # each prime starts at its own point: a run of unlucky points that
        # fools the stability check at one prime is not replayed at the next
        for offset in (i, 1009 + i, 7919 + i):
            try:
                Gp = _gcd_mod_p(P, Q, p, offset)
                break
            except _UnluckyPrime:
                continue
        if Gp is None:
            continue
        if Gp == {(0, 0): 1}:
            return {(0, 0): 1}
        s = glex % p
        Gp = {k: c * s % p for k, c in Gp.items()}
        deg = (max(u for u, _ in Gp), max(v for _, v in Gp))
        if acc is None or (deg[0] <= accdeg[0] and deg[1] <= accdeg[1] and deg != accdeg):
            acc, accdeg = (p, Gp), deg
        elif deg == accdeg:
            m, G = acc
            mm = m * p
            inv = pow(m % p, p - 2, p)
            comb = {}
            for k in set(G) | set(Gp):
                a, b = G.get(k, 0), Gp.get(k, 0)
                x = (a + (b - a) * inv % p * m) % mm
                if x:
                    comb[k] = x
            acc = (mm, comb)
        else:
            continue
        m, G = acc
        cand = {k: (c if c <= m // 2 else c - m) for k, c in G.items()}
        ic = 0
        for c in cand.values():
            ic = _igcd(ic, c)
        if ic > 1:
            cand = {k: c // ic for k, c in cand.items()}
        if _idiv(P, cand) is not None and _idiv(Q, cand) is not None:
            return cand
    raise ArithmeticError("modular gcd failed to stabilize across prime bank")


# ---------------------------------------------------------------------------
# inputs: recorded traffic and random pairs with a planted common factor
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def recorded():
    """Every _gcd_int input met by bar_matrix(6, b), b = 2..4, and the n = 4 sweep."""
    seen = []

    def spy(P, Q):
        seen.append((P, Q))
        return _gcd_int(P, Q)

    stable._sweep.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalars, "_gcd_int", spy)
        for b in (2, 3, 4):
            fock.bar_matrix(6, b)
        stable._sweep(4)
    stable._sweep.cache_clear()
    return seen


def _mul(A: dict, B: dict) -> dict:
    out: dict = {}
    for (a1, a2), x in A.items():
        for (b1, b2), y in B.items():
            k = (a1 + b1, a2 + b2)
            out[k] = out.get(k, 0) + x * y
    return {k: c for k, c in out.items() if c}


def _normal(P: dict) -> dict:
    """P as _intize leaves it: minima at 0, integer content 1."""
    su, sv = min(u for u, _ in P), min(v for _, v in P)
    c = _igcd(*P.values())
    return {(u - su, v - sv): x // c for (u, v), x in P.items()}


def _random_poly(rng, bound):
    terms = rng.randint(1, 4)
    out = {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-bound, bound) for _ in range(terms)}
    out = {k: c for k, c in out.items() if c}
    return out or {(0, 0): 1}


def planted_pairs(count, seed=12):
    """(P, Q, G): P and Q normalized multiples of G, coefficients of each factor up to 10^6."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        G = _random_poly(rng, rng.choice((1, 10, 10**6)))
        P = _normal(_mul(G, _random_poly(rng, rng.choice((1, 10**6)))))
        Q = _normal(_mul(G, _random_poly(rng, rng.choice((1, 10**6)))))
        if len(P) > 1 and len(Q) > 1:
            out.append((P, Q, _normal(G)))
    return out


# ---------------------------------------------------------------------------
# exact agreement
# ---------------------------------------------------------------------------


def test_recorded_traffic_matches_brown(recorded):
    assert len(recorded) >= 100
    for P, Q in recorded:
        g, p, q = _gcd_int(P, Q)
        assert g == brown_gcd_int(P, Q)
        # the cofactors come back with the gcd, exact
        assert _mul(g, p) == P and _mul(g, q) == Q


def test_planted_pairs_match_brown():
    for P, Q, G in planted_pairs(2000):
        g, p, q = _gcd_int(P, Q)
        assert g == brown_gcd_int(P, Q)
        assert _idiv(g, G) is not None
        assert _mul(g, p) == P and _mul(g, q) == Q


def test_pairs_once_refused_match_brown():
    for a, b, _ in gcd_pairs_once_refused():
        P, Q = (scalars._intize(x.num, 1, 1)[0] for x in (a, b))
        g, p, q = _gcd_int(P, Q)
        assert g == brown_gcd_int(P, Q)
        assert _mul(g, p) == P and _mul(g, q) == Q


def test_planted_pairs_match_sympy():
    sympy = pytest.importorskip("sympy")
    u, v = sympy.symbols("u v")
    for P, Q, _ in planted_pairs(60, seed=13):
        ref = sympy.Poly.from_dict(P, u, v).gcd(sympy.Poly.from_dict(Q, u, v)).as_dict()
        sign = 1 if ref[max(ref)] > 0 else -1
        assert _gcd_int(P, Q)[0] == {k: sign * int(c) for k, c in ref.items()}


# ---------------------------------------------------------------------------
# sums: the gcd route of Scalar._combine
# ---------------------------------------------------------------------------


def combine_by_gcd(self, other, subtract):
    """The former body of Scalar._combine, verbatim."""
    n1, d1 = self.num, self.den
    n2, d2 = other.num, other.den
    if d1 == d2:
        num = n1 - n2 if subtract else n1 + n2
        return Scalar(num, d1)
    g = laurent_gcd(d1, d2)
    if g.is_one():
        a, b = d1, d2  # den = d1*d2; nothing to split off
    else:
        a, b = d1.exact_div(g), d2.exact_div(g)
    lhs, rhs = n1 * b, n2 * a
    # num != 0: self = +-other would give d1 == d2, as equal values have
    # equal canonical denominators
    num = lhs - rhs if subtract else lhs + rhs
    # any common factor of num and den = g*a*b divides g: a prime of a
    # (or b) dividing num would divide n1 (or n2), contradicting
    # reducedness, since a, b and the opposite numerator avoid it
    if not g.is_one():
        g2 = laurent_gcd(num, g)
        if not g2.is_one():
            num = num.exact_div(g2)
            g = g.exact_div(g2)
        a = g * a
    # with g = 1, d1 and d2 are coprime and lead with the unit term, so
    # their product is reduced against num and already leads with it
    return Scalar(*_unit_leading(num, a * b), _normalized=True)


def _typed(p):
    """p's terms with the type of every exponent and coefficient, so that an
    int and an equal Fraction count as different."""
    return {tuple((type(e), e) for e in m): (type(c), c) for m, c in p.terms().items()}


_X = (one() + q()) * (one() - t())  # a two-factor denominator


@settings(max_examples=150, deadline=None)
@given(scalar_pairs())
@example((one() / (one() + q()), t() / _X))                       # d1 divides d2
@example((one() / _X, q() / ((one() + q()) * (one() + t()))))  # one shared factor
@example((one() / (one() + q()), q(Fraction(1, 2)) / (one() + t())))  # coprime
# the sum cancels the shared factor 1 + q: (2 + q + t) - (1 + t) = 1 + q
@example((one() / ((one() + q()) * (one() + t())),
          -one() / ((one() + q()) * (rational(2) + q() + t()))))
@example((one() / _X, one() / _X))                                # a - b is zero
@example((one() / _X, -one() / _X))                               # a + b is zero
@example((q(-1) * t(2), rational(2) * q(Fraction(1, 2))))         # one-term denominators
@example((q(-1) * t(2), one() / (one() + t())))                   # one of them one-term
def test_sums_match_the_gcd_route(pair):
    a, b = pair
    for got, subtract in ((a + b, False), (a - b, True)):
        want = combine_by_gcd(a, b, subtract)
        assert (_typed(got.num), _typed(got.den)) == (_typed(want.num), _typed(want.den))
