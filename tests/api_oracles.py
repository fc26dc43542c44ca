"""Operators the tests check but the wallcross pipeline never calls.

The pipeline needs stable-basis tables from localization, wall crossings,
and the Leclerc-Thibon bar matrix built from f_i and V_k.  The bar
involution applied to a vector, the Macdonald pairings, nabla, the Euler
form, the integral form J, e_i, the Heisenberg B_k, the monomials q and t
and the (q1, q2) frame change take part in none of that, so they live
here, next to the tests that state their acceptance properties, and are
built from the package's public layers and a few of its private helpers.

So do the bases m and Htilde.  The package's SymFunc keeps p or s only;
here m_nu and Htilde_mu are SymFuncs in p, built by the route that
Htilde_in_s replaced: HHL's m-coefficients expanded through the m -> p
rows (_to_p), and coordinates in m or Htilde are plain dicts (convert).
The way into m is m_coefficients, from the p -> m rows, and the way into
Htilde is inverse localization: the tangent character, its bracket
[T_la], from_restrictions (each restriction divided by [T_la]) and the
conversion of p into Htilde built on them.  printed_expansion
rebuilds a printed basis element that way from its table row, applies
omega and divides by rho_la = c_la/(1 - q2); it is the differential oracle
of reports.printed_basis, which reads the elements off the chain of wall
factors instead.

The package keeps restriction tables and wall factors as p(n) x p(n) row
lists in enumerate_partitions(n) order; the oracles here and in the test
files were written for tables as la -> {mu: Scalar} with zeros left out,
and for B's strict part as rows la -> {mu: Scalar}.  The layout helpers
below convert between the two at the boundary, so those bodies stay as
they were.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from wallcross.fock import _add_term, apply_V
from wallcross.linalg import mat_mul
from wallcross.partitions import Partition, arm, boxes, chi, enumerate_partitions, i_nodes, leg
from wallcross.scalars import (
    LaurentPoly,
    Scalar,
    _exact,
    monomial,
    one,
    q1,
    q1q2_exponents,
    q2,
    rational,
    zero,
)
from wallcross.stable import StableTable, _sweep, seed_normalizer
from wallcross.symfunc import (
    BASES,
    SymFunc,
    _expand,
    _Htilde_in_m,
    _m_in_p,
    _mod_weight,
    _p_to_m_matrix,
    restrictions,
    scale_powersums,
    z_stat,
)


# ---------------------------------------------------------------------------
# the bases m and Htilde, as power-sum expansions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _to_p(basis: str, la: Partition) -> dict:
    """The element la of the m or Htilde basis, expanded in power sums."""
    if basis == "m":
        return _m_in_p(la)
    if basis == "Htilde":
        return _expand(_Htilde_in_m(la), _m_in_p)
    raise ValueError(f"unknown basis {basis!r}")


def element(basis: str, coeffs: dict) -> SymFunc:
    """sum over la of coeffs[la] times the element la of basis m, p, s or Htilde."""
    if basis in BASES:
        return SymFunc(basis, coeffs)
    return SymFunc("p", _expand(coeffs, lambda la: _to_p(basis, tuple(la))))


def m_(la) -> SymFunc:
    return element("m", {tuple(la): one()})


def Ht_(la) -> SymFunc:
    return element("Htilde", {tuple(la): one()})


def p_(la) -> SymFunc:
    return SymFunc("p", {tuple(la): one()})


# ---------------------------------------------------------------------------
# inverse localization: the way into Htilde
# ---------------------------------------------------------------------------


def tangent_character(la: Partition) -> LaurentPoly:
    """Tangent-space character at the fixed point la, in (q,t) exponents.

    Each box contributes q1^a q2^(-l-1) + q1^(-a-1) q2^l; with q1 = qt and
    q2 = q/t these are the (q,t) monomials q^(a-l-1) t^(a+l+1) and
    q^(l-a-1) t^(-a-l-1).
    """
    acc = LaurentPoly()
    for x, y in boxes(la):
        a, l = arm(la, x, y), leg(la, x, y)
        acc = acc + LaurentPoly.term(1, a - l - 1, a + l + 1)
        acc = acc + LaurentPoly.term(1, l - a - 1, -a - l - 1)
    return acc


def bracket(char: LaurentPoly) -> Scalar:
    """Multiplicative [V] = prod over weights m of (1 - m^(-1))^mult.

    Characters must not contain the trivial weight (its bracket vanishes).
    """
    out = one()
    for m, c in char.terms().items():
        if m == (0, 0):
            raise ValueError("bracket of a character containing the trivial weight")
        if c.denominator != 1:
            raise ValueError(f"character multiplicity {c} of {m} is not an integer")
        factor = one() - monomial(1, -m[0], -m[1])
        out = out * factor ** int(c)
    return out


@lru_cache(maxsize=None)
def torus_factor(la: Partition) -> Scalar:
    """[T_la]: the bracket of the tangent character at the fixed point.

    ``la`` is a partition tuple, the cache key; a list raises ``TypeError``.
    """
    return bracket(tangent_character(la))


def Htilde_coordinates(values: dict) -> dict:
    """f's Htilde coordinates from its fixed-point restrictions: each
    restriction divided by [T_la]."""
    return {tuple(la): v / torus_factor(tuple(la)) for la, v in values.items() if v}


def from_restrictions(values: dict) -> SymFunc:
    """Rebuild f (in p) from its fixed-point restrictions."""
    return element("Htilde", Htilde_coordinates(values))


def omega(f: SymFunc) -> SymFunc:
    """The sign twist p_k -> (-1)^(k-1) p_k (sends s_la to s_la')."""
    p = f.to_basis("p")
    out = {mu: c * rational((-1) ** (sum(mu) - len(mu))) for mu, c in p.coeffs.items()}
    return SymFunc("p", out).to_basis(f.basis)


def _p_in_Htilde(mu: Partition) -> dict:
    return Htilde_coordinates(restrictions(p_(mu), sum(mu)))


def m_coefficients(f: SymFunc) -> dict:
    """f's coefficients in the m basis, the way into m the package no longer
    has: each p_mu expanded by its row of symfunc._p_to_m_matrix."""
    out: dict = {}
    for mu, c in f.to_basis("p").coeffs.items():
        n = sum(mu)
        order = enumerate_partitions(n)
        for la, d in zip(order, _p_to_m_matrix(n)[order.index(mu)]):
            if d:
                v = c * rational(d)
                out[la] = out[la] + v if la in out else v
    return {la: c for la, c in out.items() if c}


def convert(f: SymFunc, basis: str) -> dict:
    """f's coefficients in basis m, p, s or Htilde, with the ways into m and
    Htilde the package does not have."""
    if basis == "m":
        return m_coefficients(f)
    if basis == "Htilde":
        return _expand(f.to_basis("p").coeffs, _p_in_Htilde)
    return f.to_basis(basis).coeffs


# ---------------------------------------------------------------------------
# layouts: the package's row lists against the oracles' dicts
# ---------------------------------------------------------------------------


def dict_layout(table: StableTable) -> StableTable:
    """The table with gamma as la -> {mu: Scalar}, zero entries left out."""
    order = enumerate_partitions(table.n)
    gamma = {la: {mu: v for mu, v in zip(order, row) if v}
             for la, row in zip(order, table.gamma)}
    return StableTable(table.n, table.slope, gamma)


def row_layout(table: StableTable) -> StableTable:
    """The inverse of dict_layout: gamma as the package's row lists."""
    order = enumerate_partitions(table.n)
    gamma = [[table.gamma.get(la, {}).get(mu, zero()) for mu in order] for la in order]
    return StableTable(table.n, table.slope, gamma)


def unit_plus(n: int, strict: dict) -> list:
    """I + B, B's strict part given as rows la -> {mu: Scalar}."""
    order = enumerate_partitions(n)
    return [[strict.get(la, {}).get(mu, one() if mu == la else zero()) for mu in order]
            for la in order]


def strict_part(n: int, factor: list) -> dict:
    """The inverse of unit_plus: the nonzero off-diagonal entries of I + B."""
    order = enumerate_partitions(n)
    return {la: {mu: v for mu, v in zip(order, row) if v and mu != la}
            for la, row in zip(order, factor)}


def chain_tables(n: int) -> list:
    """[(w, I + B, table above w)] for the walls of stable._sweep(n), the
    tables rebuilt by one replay of the wall factors from the seed."""
    seed, walls, _ = _sweep(n)
    gamma, out = seed.gamma, []
    for w, factor in walls:
        gamma = mat_mul(factor, gamma)
        out.append((w, factor, StableTable(n, (w, 1), gamma)))
    return out


def printed_expansion(table: StableTable, la):
    """The printed-frame basis element as a Schur expansion (SymFunc).

    Reconstructs the symmetric function from the row's restrictions, applies
    omega, and divides by rho_la = c_la/(1-q2).
    """
    la = tuple(la)
    f = from_restrictions(dict_layout(table).gamma[la])
    rho = seed_normalizer(la) / (one() - q2(1))
    return omega(f.to_basis("p")).scale(one() / rho).to_basis("s")

# ---------------------------------------------------------------------------
# Fock space: the bar involution on a vector, e_i and the Heisenberg B_k
# ---------------------------------------------------------------------------


def bar_vector(v: dict, A: list, n: int) -> dict:
    """Image of a degree-n vector under the bar involution, given A = bar_matrix."""
    order = enumerate_partitions(n)
    out: dict = {}
    for la, c in v.items():
        cb = c.bar()
        j = order.index(la)
        for i, mu in enumerate(order):
            a = A[i][j]
            if a:
                _add_term(out, mu, cb * a)
    return out


# The sign on e's exponent is forced: with +N^l the quantum sl_2 relation
# [e_i, f_i] = (q^(h_i) - q^(-h_i))/(q - q^(-1)) already fails on the degree-2
# piece at b = 2, while the flipped sign satisfies it everywhere we test.  The
# bar involution never sees e, so nothing downstream depends on the choice.


def apply_e(i: int, v: dict, b: int) -> dict:
    """e_i: remove an i-node with coefficient q^(-n), n as in partitions.i_nodes."""
    if not 0 <= i < b:
        raise ValueError(f"generator index {i} out of range for b={b}")
    out: dict = {}
    for la, c in v.items():
        for mu, n in i_nodes(la, i, b, down=True):
            _add_term(out, mu, c * monomial(1, -n, 0))
    return out


def apply_B(k: int, v: dict, b: int) -> dict:
    """Heisenberg generator B_k; B_(-k) for k > 0 is built from V_1..V_k.

    The generating series sum V_k z^k = exp(sum B_(-k) z^k / k) inverts to
    the Newton-style recursion B_(-k) = k V_k - sum_{i<k} V_i B_(-(k-i)),
    and same-sign V's commute so the order inside is immaterial.  The
    annihilation side mirrors with V_(-k).  The vectors B_(-j) v are built
    bottom-up for j = 1..k, so V is applied k(k+1)/2 times in all.
    """
    if k == 0:
        raise ValueError("B_0 is not a generator")
    sgn = -1 if k > 0 else 1  # V's carrying the same sign of degree change
    below: list[dict] = []  # below[j - 1] = B_(-sgn*j) v
    for j in range(1, abs(k) + 1):
        out = {la: c * monomial(j) for la, c in apply_V(sgn * j, v, b).items()}
        for i in range(1, j):
            for la, c in apply_V(sgn * i, below[j - i - 1], b).items():
                _add_term(out, la, -c)
        below.append(out)
    return below[-1]


# ---------------------------------------------------------------------------
# symmetric functions: pairings, nabla, the integral form
# ---------------------------------------------------------------------------
#
# inner_plain is the deformed Hall pairing
#     <p_k, p_k> = k (1 - q1^k)/(1 - q2^(-k));
# inner_mod is the localization pairing in which the Htilde are orthogonal,
#     <p_k, p_k> = (-1)^(k-1) k (1 - q1^k)(1 - q2^k).
# Fixed-point restrictions diagonalize inner_mod, and euler_form sums the
# pointwise products over fixed points against 1/[T].


def _pair_diag(f: SymFunc, g: SymFunc, weight) -> Scalar:
    a, b = f.to_basis("p").coeffs, g.to_basis("p").coeffs
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    acc = zero()
    for mu, c in small.items():
        d = big.get(mu)
        if d is not None:
            acc = acc + c * d * weight(mu)
    return acc


@lru_cache(maxsize=None)
def _plain_weight(mu: Partition) -> Scalar:
    out = rational(z_stat(mu))
    for k in mu:
        out = out * (one() - q1(k)) / (one() - q2(-k))
    return out


def _degrees(f: SymFunc) -> set:
    return {sum(la) for la in f.coeffs}


def _require_same_degree(f: SymFunc, g: SymFunc) -> None:
    if f and g and _degrees(f) != _degrees(g):
        raise ValueError(
            f"pairing of unequal degrees {sorted(_degrees(f))} vs {sorted(_degrees(g))}"
        )


def inner_plain(f: SymFunc, g: SymFunc) -> Scalar:
    """Deformed Hall pairing; P's are orthogonal, p's diagonal."""
    _require_same_degree(f, g)
    return _pair_diag(f, g, _plain_weight)


def inner_mod(f: SymFunc, g: SymFunc) -> Scalar:
    """Localization pairing; Htilde's are orthogonal, p's diagonal."""
    _require_same_degree(f, g)
    return _pair_diag(f, g, _mod_weight)


def euler_form(f: SymFunc, g: SymFunc) -> Scalar:
    """Sum over fixed points of f|_la g|_la / [T_la]."""
    _require_same_degree(f, g)
    acc = zero()
    for n in sorted(_degrees(f) & _degrees(g)):
        rf, rg = restrictions(f, n), restrictions(g, n)
        for la, a in rf.items():
            if a:
                b = rg[la]
                if b:
                    acc = acc + a * b / torus_factor(la)
    return acc


def nabla(f: SymFunc) -> SymFunc:
    """Diagonal on Htilde: multiplies Htilde_la by the monomial chi(la)."""
    h = convert(f, "Htilde")
    return element("Htilde", {la: c * chi(la) for la, c in h.items()}).to_basis(f.basis)


def integral_form(la) -> SymFunc:
    """The integral Macdonald form J_la: Htilde_la with p_k -> (1 - q2^(-k)) p_k."""
    return scale_powersums(Ht_(la), lambda k: one() - q2(-k))


# ---------------------------------------------------------------------------
# scalars: q, t and the (q1, q2) frame
# ---------------------------------------------------------------------------


def q(k=1) -> Scalar:
    return monomial(1, _exact(k), 0)


def t(k=1) -> Scalar:
    return monomial(1, 0, _exact(k))


def change_coordinates(x: Scalar, direction: str) -> Scalar:
    """Reinterpret exponents between the (q1, q2) and (q, t) frames.

    ``"q1q2_to_qt"`` reads stored exponent pairs (a, b) as q1^a q2^b and
    returns the same value written in (q, t): q1 = q*t, q2 = q*t^(-1), so
    (a, b) -> (a+b, a-b).  ``"qt_to_q1q2"`` is the inverse half-integer map
    (a, b) -> ((a+b)/2, (a-b)/2).  Both are ring isomorphisms and exact
    round-trip inverses.
    """
    if direction == "q1q2_to_qt":
        f = lambda m: (_exact(m[0] + m[1]), _exact(m[0] - m[1]))
    elif direction == "qt_to_q1q2":
        f = lambda m: tuple(map(_exact, q1q2_exponents(m)))
    else:
        raise ValueError("direction must be 'q1q2_to_qt' or 'qt_to_q1q2'")
    return Scalar(x.num.map_exponents(f), x.den.map_exponents(f))
