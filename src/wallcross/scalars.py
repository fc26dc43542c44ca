"""Exact scalars: Laurent polynomials and rational functions in (q, t).

Everything downstream (symmetric functions, Fock coefficients, stable-basis
tables) is computed over the field Q(q, t), represented exactly.  Exponents
are rationals, not integers: renormalization factors such as chi^(1/2) and
the torus identification q1 = q*t, q2 = q*t^(-1) force powers like q^(1/2)
into the picture, so a monomial q^a t^b is its exponent pair (a, b), a
plain tuple in lex order, and no root variables are ever introduced.
Coefficients follow the same rule as exponents: a plain int when integral,
a Fraction only when not (the 1/z_mu of the power-sum basis, say), so the
integral polynomials that dominate every hot path never enter Fraction
arithmetic, and the integer gcd and exact division take them without a
conversion.

Two coordinate frames share this representation.  Internally all modules
work in the (q, t) frame, where the constructors :func:`q1` and :func:`q2`
return the monomials q*t and q*t^(-1), and :func:`q1q2_exponents` reads a
monomial's exponents back in the (q1, q2) frame.

>>> x = q2() - q1() ** -1          # q2 - 1/q1, already in the (q,t) frame
>>> print(x)
1*q^(1)*t^(-1) - 1*q^(-1)*t^(-1)
>>> print(monomial(1, 0, 1) * x)   # t * (q2 - 1/q1) = q - 1/q
1*q^(1)*t^(0) - 1*q^(-1)*t^(0)

A :class:`Scalar` is a reduced fraction num/den of sparse Laurent
polynomials.  Normalization divides out the gcd and then the leading term
of the denominator, so a denominator that is a single term disappears into
the numerator ("Laurent" literally means ``den == 1``) and two equal values
always have identical term dictionaries:

>>> print((one() - q1() * q2()) / (one() - monomial(1, 1, 0)))  # (1 - q^2)/(1 - q)
1*q^(1)*t^(0) + 1*q^(0)*t^(0)

Serialization (:meth:`Scalar.dumps`) emits terms in descending
lexicographic order of (q-exponent, t-exponent) with explicit rational
exponents; canonical form makes string equality the same thing as value
equality, which the cache and the golden-file tests rely on.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, lcm

__all__ = [
    "LaurentPoly",
    "Scalar",
    "q1",
    "q2",
    "one",
    "zero",
    "rational",
    "monomial",
    "q1q2_exponents",
]


def _exact(x):
    """Normal form of an exact rational (int or Fraction), for coefficients
    and exponents alike: a plain int when integral, a Fraction otherwise.
    Anything else raises TypeError: a float would otherwise slip in as its
    binary value (Fraction(0.1) is not 1/10), and a str is not a number.

    int and Fraction compare and hash consistently, so mixing them in
    exponent pairs is safe; keeping the (overwhelmingly common) integers as
    machine ints avoids Fraction overhead in hot paths.
    """
    if isinstance(x, int):
        return int(x)
    if not isinstance(x, Fraction):
        raise TypeError(f"expected exact rational, got {type(x).__name__}")
    return x.numerator if x.denominator == 1 else x


def _div(a, b):
    """a / b for coefficients (b nonzero) in normal form; never a float."""
    if b == 1:
        return a
    if b == -1:
        return -a
    r = Fraction(a, b)
    return r.numerator if r.denominator == 1 else r


def _norm(terms: dict) -> dict:
    """Restore int coefficients in place after Fraction arithmetic on terms."""
    for m, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[m] = c.numerator
    return terms


_UNIT = (0, 0)


class LaurentPoly:
    """Sparse Laurent polynomial: finite map monomial -> coefficient, no zeros.

    A monomial q^exp_q t^exp_t is its exponent pair (exp_q, exp_t), a plain
    tuple, so lex order is tuple order.  A coefficient is a plain int when
    it is integral and a Fraction only when it is not, _exact's normal form;
    every operation keeps it, so integral polynomials never touch Fraction
    arithmetic.  The constructor takes each key's exponents and each
    coefficient through _exact once; _exact keeps values, so no two keys of
    one dict can collide.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        pairs = (((_exact(eq), _exact(et)), _exact(c))
                 for (eq, et), c in (terms or {}).items())
        self._terms = {m: c for m, c in pairs if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    @classmethod
    def term(cls, coeff, exp_q=0, exp_t=0) -> "LaurentPoly":
        return cls({(exp_q, exp_t): coeff})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self is _ONE or self._terms == _ONE._terms

    def is_term(self) -> bool:
        return len(self._terms) == 1

    def terms(self) -> dict:
        return dict(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def leading(self) -> tuple[tuple, int | Fraction]:
        """Lex-largest term; errors on zero."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self._terms)
        return m, self._terms[m]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if not s:
                    del out[m]
                elif type(s) is int or s.denominator != 1:
                    out[m] = s
                else:
                    out[m] = s.numerator
        return _poly(out)

    def __neg__(self) -> "LaurentPoly":
        return _poly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self._terms or not other._terms:
            return LaurentPoly()
        out: dict = {}
        for (aq, at), c1 in self._terms.items():
            for (bq, bt), c2 in other._terms.items():
                eq, et = aq + bq, at + bt
                if type(eq) is not int or type(et) is not int:  # two Fractions may sum to k/1
                    eq, et = _exact(eq), _exact(et)
                m = (eq, et)
                s = out.get(m)
                if s is None:
                    out[m] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return _poly(_norm(out))

    def mul_term(self, coeff, mono: tuple) -> "LaurentPoly":
        """self * coeff * mono, for a nonzero coeff and an exponent pair mono."""
        coeff = _exact(coeff)
        mq, mt = mono
        if type(mq) is not int or type(mt) is not int:
            return self * _poly({mono: coeff})  # __mul__ normalizes summed Fractions
        return _poly(_norm({(eq + mq, et + mt): c * coeff
                            for (eq, et), c in self._terms.items()}))

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact division of a nonzero self; ArithmeticError when divisor
        does not divide.  Scalar.__mul__ divides by a gcd other than 1 of two
        multi-term polynomials, which has several terms, and
        reports._poch_quotient divides (u; u)_n by a product of 1 - u^k.

        Runs at the integer level: both sides are cleared to primitive
        polynomials over Z (common exponent denominators, minima at 0), where
        Gauss's lemma makes an exact quotient integral, so a non-integer
        peeling step — or a quotient term escaping the support-box difference,
        degree extremes being additive over a domain — disproves divisibility
        without Fraction traffic.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        dq, dt = _exp_lcms(self, divisor)
        P, ps, psh = _intize(self, dq, dt)
        D, ds, dsh = _intize(divisor, dq, dt)
        Q = _idiv(P, D)
        if Q is None:
            raise ArithmeticError("exact_div: not a divisor")
        return _unintize(
            Q, dq, dt, _div(ps, ds),
            (_exact(psh[0] - dsh[0]), _exact(psh[1] - dsh[1])),
        )

    # -- structure ---------------------------------------------------------

    def map_exponents(self, f) -> "LaurentPoly":
        """self with each exponent pair m moved to the pair f(m), for an f that is
        one to one on the support and keeps exponents in normal form (a sign
        flip does)."""
        return _poly({f(m): c for m, c in self._terms.items()})

    def content_monomial(self) -> tuple:
        """Componentwise minimum of exponents (the dividing monomial)."""
        if not self._terms:
            raise ValueError("zero polynomial has no content")
        qs, ts = zip(*self._terms)
        return min(qs), min(ts)

    def t_degree_range(self) -> tuple[Fraction, Fraction]:
        if not self._terms:
            raise ValueError("t_degree_range of zero polynomial")
        degs = [et for _, et in self._terms]
        return min(degs), max(degs)

    def q_degree_range(self) -> tuple[Fraction, Fraction]:
        if not self._terms:
            raise ValueError("q_degree_range of zero polynomial")
        degs = [eq for eq, _ in self._terms]
        return min(degs), max(degs)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- serialization -----------------------------------------------------

    def dumps(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (eq, et), c in sorted(self._terms.items(), reverse=True):
            body = f"q^({eq})*t^({et})"
            if not parts:
                parts.append(f"{c}*{body}")
            elif c < 0:
                parts.append(f"- {-c}*{body}")
            else:
                parts.append(f"+ {c}*{body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.dumps()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.dumps()!r})"


def _poly(terms: dict) -> LaurentPoly:
    """Wrap a term dict that is already clean: keys are exponent pairs
    (exp_q, exp_t) in normal form, no coefficient is zero."""
    r = LaurentPoly.__new__(LaurentPoly)
    r._terms = terms
    return r


_ONE = _poly({_UNIT: 1})  # shared: no method mutates _terms


# ---------------------------------------------------------------------------
# gcd of Laurent polynomials
#
# Exponents are cleared to N^2 (common denominator per variable, minima at
# 0) and coefficients to Z.  The gcd of the primitive dicts {(u, v): int} is
# the heuristic gcd of Char, Geddes and Gonnet (J. Symbolic Comput. 7
# (1989)): evaluate v = xi with xi >= 2 min(|P|_oo, |Q|_oo) + 2, take the
# gcd of the images over Z[u] the same way (u = xi', integer gcd), keeping
# the integer content, rebuild each u-coefficient from its symmetric
# xi-adic digits (|digit| <= xi/2), and accept the primitive part G (lex-
# leading coefficient positive) only if it divides both inputs.  Otherwise
# xi grows and the next point is tried.
# One substitution v = u^K would not do: the images of (1+q)(1+q+t) and
# (1+t)(1+q+t) share the spurious factor 1 + u at every xi.
#
# The loop ends.  Write P = G P' and Q = G Q' with P' and Q' coprime.  Away
# from the finitely many xi that are roots of their resultant in the
# evaluated variable (or of a leading coefficient), P'(xi) and Q'(xi) share
# no factor of positive degree, so the image gcd is e G(xi) with e an
# integer dividing a constant fixed by P' and Q' (the resultant, for one
# variable).  Once xi is past twice the height of e G, the symmetric digits
# of e G(xi) are the coefficients of e G, so the rebuilt candidate is G.
#
# A G that divides is the gcd.  Say gcd(P, Q) = G E, P of smaller norm m.
# The image gcd is G(u, xi) times the content c of the rebuilt polynomial,
# so E(u, xi) divides c and 0 < |E(u, xi)| <= |c| <= xi/2.  E has u-degree
# 0, or its leading u-coefficient would divide P's and vanish at xi, past
# Cauchy's root bound m + 1.  Each root of E in Z[v] is then a root of a
# u-coefficient of P, of modulus below m + 1 <= xi/2, so a nonconstant E
# has |E(xi)| > xi/2.  So E is an integer, and +-1 as P is primitive.
# ---------------------------------------------------------------------------


def _intize(p: LaurentPoly, dq: int, dt: int):
    """Clear p to a primitive integer dict {(u, v): int}.

    p == scale * q^(shift[0]) * t^(shift[1])
               * sum c[(u, v)] q^(u/dq) t^(v/dt)
    with per-variable minima at 0 and integer content 1 (sign of the
    lex-leading coefficient preserved).  Returns (dict, scale, shift), the
    scale an int when p's coefficients are.
    """
    shift = p.content_monomial()
    sq, st = shift
    out = {}
    for (eq, et), c in p._terms.items():
        out[(int((eq - sq) * dq), int((et - st) * dt))] = c
    den = 1
    if not all(type(c) is int for c in out.values()):
        den = lcm(*(c.denominator for c in out.values()))
        out = {k: c.numerator * (den // c.denominator) for k, c in out.items()}
    ic = _igcd(*out.values())
    if ic > 1:
        out = {k: c // ic for k, c in out.items()}
    return out, _div(ic, den), shift


def _unintize(d: dict, dq: int, dt: int, scale, shift: tuple) -> LaurentPoly:
    """Inverse of _intize: scale * q^shift * sum d[(u, v)] q^(u/dq) t^(v/dt)."""
    sq, st = shift
    terms = {}
    for (u, v), c in d.items():
        eq = sq + (u if dq == 1 else Fraction(u, dq))
        et = st + (v if dt == 1 else Fraction(v, dt))
        terms[(_exact(eq), _exact(et))] = scale * c
    return _poly(terms if type(scale) is int else _norm(terms))


def _idiv(P: dict, D: dict):
    """Exact quotient of nonzero integer dicts {(u, v): int}, or None.

    Valid for primitive inputs: there Gauss's lemma makes an exact rational
    quotient integral, so a fractional peeling step disproves divisibility,
    as does a quotient term outside the componentwise difference of the
    support boxes (degree extremes are additive over a domain).  The
    remainder's lex-leading monomial drops strictly every step and the
    quotient support lives in the box, which bounds the iteration count.
    """
    dk = max(D)
    dc = D[dk]
    du, dv = dk
    ulo = min(u for u, _ in P) - min(u for u, _ in D)
    uhi = max(u for u, _ in P) - max(u for u, _ in D)
    vlo = min(v for _, v in P) - min(v for _, v in D)
    vhi = max(v for _, v in P) - max(v for _, v in D)
    if uhi < ulo or vhi < vlo:
        return None
    rem = dict(P)
    quo: dict[tuple[int, int], int] = {}
    divisor = list(D.items())
    for _ in range((uhi - ulo + 1) * (vhi - vlo + 1) + 1):
        if not rem:
            return quo
        rk = max(rem)
        qu, qv = rk[0] - du, rk[1] - dv
        if not (ulo <= qu <= uhi and vlo <= qv <= vhi):
            return None
        qc, sp = divmod(rem[rk], dc)
        if sp:
            return None
        quo[(qu, qv)] = qc
        for (su, sv), sc in divisor:
            k = (su + qu, sv + qv)
            nv = rem.get(k, 0) - qc * sc
            if nv:
                rem[k] = nv
            else:
                rem.pop(k, None)
    return None


def _primitive(G: dict) -> dict:
    """G over its integer content, sign chosen so the lex-leading coefficient is positive."""
    c = _igcd(*G.values())
    if G[max(G)] < 0:
        c = -c
    return G if c == 1 else {k: x // c for k, x in G.items()}


def _evaluate(P: dict, var: int, xi: int) -> dict:
    """P with variable var (0 = u, 1 = v) set to xi; keys keep that slot 0."""
    powers = [xi**e for e in range(max(k[var] for k in P) + 1)]
    out: dict[tuple[int, int], int] = {}
    for k, c in P.items():
        r = (k[0], 0) if var else (0, 0)
        out[r] = out.get(r, 0) + c * powers[k[var]]
    return {r: c for r, c in out.items() if c}


def balanced_digits(c: int, xi: int):
    """The digits d_0, d_1, ... of c = sum_e d_e xi^e, -xi/2 < d_e <= xi/2, lowest
    first: a digit above xi/2 becomes d - xi and carries 1."""
    half = xi // 2
    while c:
        c, d = divmod(c, xi)
        if d > half:
            d -= xi
            c += 1
        yield d


def _rebuild(g: dict, var: int, xi: int) -> dict:
    """Inverse of _evaluate: symmetric xi-adic digits become powers of var."""
    out = {}
    for k, c in g.items():
        for e, d in enumerate(balanced_digits(c, xi)):
            if d:
                out[(k[0], e) if var else (e, 0)] = d
    return out


def _heu_gcd(P: dict, Q: dict, var: int) -> tuple[dict, dict, dict]:
    """(G, P/G, Q/G), G the gcd in Z[u, v] of nonzero dicts zero in slots above var."""
    c = _igcd(*P.values(), *Q.values())
    p, q = _primitive(P), _primitive(Q)
    xi = 2 * min(max(map(abs, p.values())), max(map(abs, q.values()))) + 2
    while True:
        a, b = _evaluate(p, var, xi), _evaluate(q, var, xi)
        if a and b:
            h = _heu_gcd(a, b, 0)[0] if var else {(0, 0): _igcd(a[(0, 0)], b[(0, 0)])}
            G = _primitive(_rebuild(h, var, xi))
            if c != 1:
                G = {k: c * x for k, x in G.items()}
            # the check's quotients are the cofactors: G divides P iff G/c divides p
            cp = _idiv(P, G)
            cq = None if cp is None else _idiv(Q, G)
            if cq is not None:
                return G, cp, cq
        xi = xi * 73794 // 27011


def _gcd_int(P: dict, Q: dict) -> tuple[dict, dict, dict]:
    """(G, P/G, Q/G) for primitive dicts {(u,v): int}, G's lex-leading coefficient positive.

    The evaluation starts at the highest variable that occurs: a t-free
    pair (every gcd of the Fock layer) is a gcd in Z[u] alone."""
    t_free = not any(v for _, v in P) and not any(v for _, v in Q)
    return _heu_gcd(P, Q, 0 if t_free else 1)


def _exp_lcms(p: LaurentPoly, q: LaurentPoly) -> tuple[int, int]:
    terms = [*p._terms, *q._terms]
    return (lcm(*(eq.denominator for eq, _ in terms)),
            lcm(*(et.denominator for _, et in terms)))


def laurent_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """gcd of nonzero p and q up to units, canonicalized: min exponents 0,
    leading coefficient 1.  Scalar.__mul__ is the one caller."""
    if p.is_term() or q.is_term():
        return LaurentPoly.one()

    dq, dt = _exp_lcms(p, q)
    g = _gcd_int(_intize(p, dq, dt)[0], _intize(q, dq, dt)[0])[0]
    # minima are already 0 per variable: q | p would force min_u > 0 in both
    return _unintize(g, dq, dt, _div(1, g[max(g)]), _UNIT)


def laurent_reduce(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Divide gcd(num, den) out of both, entirely at the integer level.

    No unit normalization is applied: the quotients keep the callers'
    monomial shifts and rational scales, which Scalar's constructor then
    normalizes once.
    """
    if num.is_term() or den.is_term():
        return num, den
    dq, dt = _exp_lcms(num, den)
    N, ns, nsh = _intize(num, dq, dt)
    D, ds, dsh = _intize(den, dq, dt)
    g, n, d = _gcd_int(N, D)
    if len(g) == 1:
        # a single-term gcd of primitive minima-at-zero dicts is a unit
        return num, den
    return _unintize(n, dq, dt, ns, nsh), _unintize(d, dq, dt, ds, dsh)


# ---------------------------------------------------------------------------
# Scalar: the fraction field
# ---------------------------------------------------------------------------


def _unit_leading(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Divide num and den by den's lex-leading term, so den leads with 1*q^(0)*t^(0).

    A one-term denominator becomes exactly 1 and folds into the numerator.
    """
    m, c = den.leading()
    if c == 1 and m == _UNIT:
        return num, den
    c, m = _div(1, c), (-m[0], -m[1])
    return num.mul_term(c, m), den.mul_term(c, m)


class Scalar:
    """Reduced fraction of Laurent polynomials with canonical normalization.

    Invariants after construction: gcd(num, den) = 1; the denominator's
    lex-leading term is exactly 1*q^(0)*t^(0).  In particular a denominator
    consisting of one term is folded into the numerator, so ``den.is_one()``
    is the exact test for being a Laurent polynomial.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None, *, _normalized=False):
        if den is None:
            den = LaurentPoly.one()
        if _normalized:
            self.num, self.den = num, den
            return
        if den.is_zero():
            raise ZeroDivisionError("Scalar with zero denominator")
        if num.is_zero():
            self.num, self.den = LaurentPoly(), LaurentPoly.one()
            return
        if not den.is_term():
            num, den = laurent_reduce(num, den)
        self.num, self.den = _unit_leading(num, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> "Scalar":
        return cls(p, LaurentPoly.one(), _normalized=True)

    # -- predicates --------------------------------------------------------

    def is_laurent(self) -> bool:
        return self.den.is_one()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other: "Scalar", subtract: bool) -> "Scalar":
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 == d2:
            return Scalar(n1 - n2 if subtract else n1 + n2, d1)
        n1, n2 = n1 * d2, n2 * d1  # cross-multiply; the constructor reduces once
        # beside a Laurent summand, the other's denominator is already reduced
        return Scalar(n1 - n2 if subtract else n1 + n2, d1 * d2,
                      _normalized=d1.is_one() or d2.is_one())

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._combine(other, False)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._combine(other, True)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.num, self.den, _normalized=True)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        if not self or not other:
            return Scalar(LaurentPoly())
        # cross-cancel so the product of reduced fractions is already reduced
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if not d2.is_one():
            g = laurent_gcd(n1, d2)
            if not g.is_one():
                n1, d2 = n1.exact_div(g), d2.exact_div(g)
        if not d1.is_one():
            g = laurent_gcd(n2, d1)
            if not g.is_one():
                n2, d1 = n2.exact_div(g), d1.exact_div(g)
        return Scalar(*_unit_leading(n1 * n2, d1 * d2), _normalized=True)

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        return Scalar(self.den, self.num)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero Scalar")
        return self * other.inverse()

    def __pow__(self, k: int) -> "Scalar":
        if not isinstance(k, int):
            raise TypeError("Scalar powers take integers")
        if k < 0:
            return self.inverse() ** (-k)
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            base = base * base if k > 1 else base
            k >>= 1
        return Scalar.from_laurent(LaurentPoly.one()) if out is None else out

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- analysis ----------------------------------------------------------

    def t_degree_range(self) -> tuple[Fraction, Fraction]:
        if not self.den.is_one():
            raise ValueError("t_degree_range needs a Laurent polynomial (den == 1)")
        return self.num.t_degree_range()

    def q_degree_range(self) -> tuple[Fraction, Fraction]:
        if not self.den.is_one():
            raise ValueError("q_degree_range needs a Laurent polynomial (den == 1)")
        return self.num.q_degree_range()

    def bar(self) -> "Scalar":
        """The bar involution q -> q^(-1) (negates every q-exponent).  It is a
        ring automorphism, so it keeps num and den coprime: the image needs
        only the unit normalization, not a gcd."""
        f = lambda m: (-m[0], m[1])
        return Scalar(*_unit_leading(self.num.map_exponents(f), self.den.map_exponents(f)),
                      _normalized=True)

    # -- serialization -----------------------------------------------------

    def dumps(self) -> str:
        if self.den.is_one():
            return self.num.dumps()
        return f"({self.num.dumps()})/({self.den.dumps()})"

    def __str__(self) -> str:
        return self.dumps()

    def __repr__(self) -> str:
        return f"Scalar({self.dumps()!r})"


# ---------------------------------------------------------------------------
# coordinate frames and convenience constructors
# ---------------------------------------------------------------------------


def q1q2_exponents(m: tuple) -> tuple[Fraction, Fraction]:
    """(a, b) with q^e_q t^e_t = q1^a q2^b: a = (e_q+e_t)/2, b = (e_q-e_t)/2."""
    eq, et = m
    return Fraction(eq + et, 2), Fraction(eq - et, 2)


def monomial(coeff, exp_q=0, exp_t=0) -> Scalar:
    return Scalar.from_laurent(LaurentPoly.term(coeff, exp_q, exp_t))


def q1(k=1) -> Scalar:
    """The torus weight q1 = q*t, raised to the k-th power."""
    return monomial(1, k, k)


def q2(k=1) -> Scalar:
    """The torus weight q2 = q*t^(-1), raised to the k-th power."""
    return monomial(1, k, -k)


def one() -> Scalar:
    return monomial(1)


def zero() -> Scalar:
    return Scalar(LaurentPoly())


def rational(c) -> Scalar:
    return monomial(c)
