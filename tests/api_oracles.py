"""Operators the tests check but the wallcross pipeline never calls.

The pipeline needs stable-basis tables from localization, wall crossings,
and the Leclerc-Thibon bar involution built from f_i and V_k.  The
Macdonald pairings, nabla, the Euler form, the integral form J, e_i, the
Heisenberg B_k and the (q1, q2) frame change take part in none of that, so
they live here, next to the tests that state their acceptance properties,
and are built from the package's public layers and a few of its private
helpers.
"""

from __future__ import annotations

from functools import lru_cache

from wallcross.fock import _add_term, apply_V
from wallcross.partitions import Partition, chi, i_nodes
from wallcross.scalars import (
    Monomial,
    Scalar,
    _ex,
    monomial,
    one,
    q1,
    q1q2_exponents,
    q2,
    rational,
    zero,
)
from wallcross.symfunc import (
    Ht_,
    SymFunc,
    _mod_weight,
    basis_element,
    restrictions,
    scale_powersums,
    torus_factor,
    z_stat,
)

# ---------------------------------------------------------------------------
# Fock space: e_i and the Heisenberg B_k
# ---------------------------------------------------------------------------

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


def m_(la):
    return basis_element("m", la)


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
    h = f.to_basis("Htilde")
    out = {la: c * chi(la) for la, c in h.coeffs.items()}
    return SymFunc("Htilde", out).to_basis(f.basis)


def integral_form(la) -> SymFunc:
    """The integral Macdonald form J_la: Htilde_la with p_k -> (1 - q2^(-k)) p_k."""
    return scale_powersums(Ht_(la), lambda k: one() - q2(-k))


# ---------------------------------------------------------------------------
# scalars: the (q1, q2) frame
# ---------------------------------------------------------------------------


def change_coordinates(x: Scalar, direction: str) -> Scalar:
    """Reinterpret exponents between the (q1, q2) and (q, t) frames.

    ``"q1q2_to_qt"`` reads stored exponent pairs (a, b) as q1^a q2^b and
    returns the same value written in (q, t): q1 = q*t, q2 = q*t^(-1), so
    (a, b) -> (a+b, a-b).  ``"qt_to_q1q2"`` is the inverse half-integer map
    (a, b) -> ((a+b)/2, (a-b)/2).  Both are ring isomorphisms and exact
    round-trip inverses.
    """
    if direction == "q1q2_to_qt":
        f = lambda m: Monomial(_ex(m.exp_q + m.exp_t), _ex(m.exp_q - m.exp_t))
    elif direction == "qt_to_q1q2":
        f = lambda m: Monomial(*map(_ex, q1q2_exponents(m)))
    else:
        raise ValueError("direction must be 'q1q2_to_qt' or 'qt_to_q1q2'")
    return Scalar(x.num.map_exponents(f), x.den.map_exponents(f))
