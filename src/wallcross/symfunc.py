"""Symmetric functions over exact (q, t) scalars.

A SymFunc keeps its coefficients in its own basis, p or s, and one
routine, _expand, carries a conversion either way through the
symmetric-group character table (ribbon recursion).  m enters only as
rows: _m_in_p(nu), m_nu in power sums from the inverse of the p -> m
multiplication rule, and _m_in_s(nu), row nu of the inverse Kostka
matrix, composed through p once per nu.  Both are cached tables of
constants.  Htilde_mu's m_nu coefficient sums q1^inv q2^maj over the
standard fillings whose inverse descent set lies in nu's partial sums
(Haglund-Haiman-Loehr, J. AMS 18 (2005)), one pass over S_n per conjugate
pair, so it is an integer polynomial, and Htilde_in_s(mu) contracts those
coefficients with the inverse Kostka rows.  Htilde is never expanded in p.

Localization.  The Htilde are the fixed-point classes of Hilb_n, and
restrictions(f, n) reads f at every fixed point through the pairing in
which the Htilde are orthogonal,
    <p_k, p_k> = (-1)^(k-1) k (1 - q1^k)(1 - q2^k),
so restrictions(Htilde_mu, n)[la] is [T_la] when la = mu and 0 otherwise.
It contracts Htilde's m-coefficients with f's pairings against the m_nu.
The slope-0 stable-basis table is read this way; nothing is rebuilt from
restrictions.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations
from math import factorial, prod

from .linalg import mat_inverse
from .partitions import (
    Partition,
    arm,
    boxes,
    conjugate,
    enumerate_partitions,
    leg,
    n_stat,
    removable_ribbons,
)
from .scalars import LaurentPoly, Scalar, one, q1, q2, rational, zero

BASES = ("p", "s")


def z_stat(mu: Partition) -> int:
    """prod over part sizes k of k^m_k * m_k!, m_k the multiplicity of k."""
    return prod(k**m * factorial(m) for k, m in Counter(mu).items())


# ---------------------------------------------------------------------------
# the SymFunc container
# ---------------------------------------------------------------------------


class SymFunc:
    """A symmetric function tagged with the basis its coefficients live in."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: str, coeffs: dict):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.coeffs = {tuple(la): c for la, c in coeffs.items() if c}

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.basis == other.basis:
            return self.coeffs == other.coeffs
        return self.to_basis("p").coeffs == other.to_basis("p").coeffs

    def __hash__(self):
        return hash(frozenset(self.to_basis("p").coeffs.items()))

    def __add__(self, other):
        o = other.to_basis(self.basis)
        out = dict(self.coeffs)
        for la, c in o.coeffs.items():
            out[la] = out.get(la, zero()) + c
        return SymFunc(self.basis, out)

    def __neg__(self):
        return SymFunc(self.basis, {la: -c for la, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Scalar):
        return SymFunc(self.basis, {la: v * c for la, v in self.coeffs.items()})

    def to_basis(self, basis: str) -> "SymFunc":
        if basis == self.basis:
            return self
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        return SymFunc(basis, _expand(self.coeffs, _s_in_p if basis == "p" else _p_in_s))

    def __repr__(self):
        terms = ", ".join(f"{la}: {c}" for la, c in sorted(self.coeffs.items(), reverse=True))
        return f"SymFunc[{self.basis}]({{{terms}}})"


def _expand(coeffs: dict, table) -> dict:
    """The nonzero terms of sum over k of coeffs[k] * table(k), a dict each."""
    out: dict = {}
    for k, c in coeffs.items():
        for la, d in table(k).items():
            acc = out.get(la)
            v = c * d
            out[la] = v if acc is None else acc + v
    return {la: c for la, c in out.items() if c}


def _dot(a: dict, b: dict) -> Scalar:
    """sum over the keys k shared by a and b of a[k] * b[k]."""
    return sum((c * b[k] for k, c in a.items() if k in b), zero())


def s_(la):
    return SymFunc("s", {tuple(la): one()})


# ---------------------------------------------------------------------------
# expansions into the power-sum basis (cached per element / per degree)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _character(la: Partition, mu: Partition) -> int:
    """Symmetric-group character chi^la(mu) via ribbon removal on mu[0]."""
    if not mu:
        return 1 if not la else 0
    k, rest = mu[0], mu[1:]
    acc = 0
    for nu, walk in removable_ribbons(la, k):
        acc += (-1) ** walk.count("D") * _character(nu, rest)
    return acc


@lru_cache(maxsize=None)
def _p_to_m_matrix(n: int) -> tuple:
    """Rows mu: expansion of p_mu in the m basis (integer coefficients)."""
    order = enumerate_partitions(n)
    rows = []
    for mu in order:
        cur = {(): 1}
        for k in mu:
            nxt: dict = {}
            for nu, c in cur.items():
                for v in dict.fromkeys(nu):  # each distinct part once
                    lst = list(nu)
                    lst.remove(v)
                    new = tuple(sorted(lst + [v + k], reverse=True))
                    mult = sum(1 for x in new if x == v + k)
                    nxt[new] = nxt.get(new, 0) + c * mult
                new = tuple(sorted(nu + (k,), reverse=True))
                mult = sum(1 for x in new if x == k)
                nxt[new] = nxt.get(new, 0) + c * mult
            cur = nxt
        rows.append(tuple(Fraction(cur.get(la, 0)) for la in order))
    return rows


@lru_cache(maxsize=None)
def _m_to_p_matrix(n: int) -> tuple:
    # p = R m with R = _p_to_m_matrix, so row la of R^(-1) is m_la in p
    rows = _p_to_m_matrix(n)
    inv = mat_inverse([list(r) for r in rows], Fraction(1), Fraction(0))
    return tuple(tuple(r) for r in inv)


@lru_cache(maxsize=None)
def _Htilde_in_m(mu: Partition) -> dict:
    """HHL: the m_nu coefficient of Htilde_mu is sum q1^inv q2^maj over fillings.

    A filling writes a word of content nu into mu's boxes in reading order
    (rows from the top down, each left to right).  Boxes attack when they
    share a row, or when the upper one sits in the next row strictly to the
    right; an inversion is an attacking pair read in decreasing order.  A
    descent is a box larger than the box below it, and adds leg + 1 to maj
    and -arm to inv.

    Standardizing (numbering the boxes 0..n-1 by letter, equal letters left
    to right in reading order) keeps inv and maj, and maps the fillings of
    content nu one to one onto the permutations whose inverse descent set D
    (k is in D when k + 1 is read before k) holds only k with k + 1 a partial
    sum of nu.  So S_n is walked once, bucketed by D.  Htilde_mu' is
    Htilde_mu with q1 and q2 swapped (t -> 1/t): one of mu, mu' is walked.
    """
    if conjugate(mu) > mu:
        flip = lambda m: (m[0], -m[1])
        return {nu: Scalar.from_laurent(c.num.map_exponents(flip))
                for nu, c in _Htilde_in_m(conjugate(mu)).items()}
    cells = sorted(boxes(mu), key=lambda c: (-c[1], c[0]))
    pos = {c: i for i, c in enumerate(cells)}
    attacks = [(pos[u], pos[v]) for u in cells for v in cells
               if pos[u] < pos[v] and (u[1] == v[1] or (u[1] == v[1] + 1 and u[0] > v[0]))]
    descents = [(pos[(x, y)], pos[(x, y - 1)], arm(mu, x, y), leg(mu, x, y) + 1)
                for x, y in cells if y > 0]
    buckets = defaultdict(Counter)
    for w in permutations(range(len(cells))):
        inv = sum(1 for i, j in attacks if w[i] > w[j])
        maj = 0
        for i, j, a, l1 in descents:
            if w[i] > w[j]:
                inv -= a
                maj += l1
        seen = D = 0
        for v in w:
            if seen >> v & 2:  # v + 1 was read before v
                D |= 1 << v
            seen |= 1 << v
        buckets[D][inv + maj, inv - maj] += 1  # q1^inv q2^maj in the (q, t) frame
    out = {}
    for nu in enumerate_partitions(len(cells)):
        allowed = sum(1 << (s - 1) for s in accumulate(nu))
        terms = sum((c for D, c in buckets.items() if not D & ~allowed), Counter())
        out[nu] = Scalar.from_laurent(LaurentPoly(terms))
    return out


@lru_cache(maxsize=None)
def _m_in_p(nu: Partition) -> dict:
    """m_nu in power sums: row nu of the inverse of the p -> m matrix."""
    order = enumerate_partitions(sum(nu))
    row = _m_to_p_matrix(sum(nu))[order.index(nu)]
    return {mu: rational(c) for mu, c in zip(order, row) if c}


@lru_cache(maxsize=None)
def _s_in_p(la: Partition) -> dict:
    """s_la in power sums: chi^la(mu) / z_mu."""
    return {
        mu: rational(Fraction(_character(la, mu), z_stat(mu)))
        for mu in enumerate_partitions(sum(la))
        if _character(la, mu)
    }


def _p_in_s(mu: Partition) -> dict:
    """p_mu in Schur functions: chi^la(mu)."""
    return {
        la: rational(_character(la, mu))
        for la in enumerate_partitions(sum(mu))
        if _character(la, mu)
    }


@lru_cache(maxsize=None)
def _m_in_s(nu: Partition) -> dict:
    """m_nu in Schur functions: row nu of the inverse Kostka matrix, integers."""
    return _expand(_m_in_p(nu), _p_in_s)


def Htilde_in_s(mu: Partition) -> dict:
    """[s_la]Htilde_mu for every la: HHL's m-coefficients times inverse Kostka rows."""
    return _expand(_Htilde_in_m(mu), _m_in_s)


# ---------------------------------------------------------------------------
# twists, localization
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _mod_weight(mu: Partition) -> Scalar:
    out = rational(z_stat(mu) * (-1) ** (sum(mu) - len(mu)))
    for k in mu:
        out = out * (one() - q1(k)) * (one() - q2(k))
    return out


def scale_powersums(f: SymFunc, factor) -> SymFunc:
    """Diagonal operator p_k -> factor(k) * p_k, multiplicative over parts.

    The result stays in the p basis, where the operator acts.
    """
    p = f.to_basis("p")
    out = {}
    for mu, c in p.coeffs.items():
        for k in mu:
            c = c * factor(k)
        out[mu] = c
    return SymFunc("p", out)


def _mod_weighted(f: SymFunc, n: int) -> dict:
    """f's degree-n p-coefficients times the localization-pairing weight."""
    return {
        mu: c * _mod_weight(mu) for mu, c in f.to_basis("p").coeffs.items() if sum(mu) == n
    }


def restrictions(f: SymFunc, n: int) -> dict:
    """Restrictions of f's degree-n part to every fixed point of Hilb_n.

    f|_la = [T_la] <f, Htilde_la>_mod / <Htilde_la, Htilde_la>_mod, and the
    ratio [T_la] / <Htilde_la, Htilde_la>_mod is the monomial
    prod over boxes of q1^-arm q2^-leg.  By bilinearity
        <f, Htilde_la>_mod = sum over nu of [m_nu]Htilde_la * <f, m_nu>_mod,
    so f is paired once with each m_nu (its weighted p-coefficients against
    the m -> p rows), and each restriction contracts those pairings with
    HHL's integer m-coefficients of Htilde_la, times that monomial; nothing
    is divided.  When the weighted coefficients are Laurent (as for
    s_la[X/(1-q2)], whose 1/(1 - q2^k) cancel against the weight), so is
    every restriction.  The slope-0 seed is the one caller: its table rows
    are these restrictions.
    """
    weighted = _mod_weighted(f, n)
    order = enumerate_partitions(n)
    paired = {nu: _dot(weighted, _m_in_p(nu)) for nu in order}
    # prod over boxes of q1^-arm q2^-leg
    return {la: _dot(paired, _Htilde_in_m(la)) * q1(-n_stat(conjugate(la))) * q2(-n_stat(la))
            for la in order}
