"""Symmetric-function layer: conversions, pairings, Macdonald forms.

Golden values here were derived by hand (small degrees) or cross-checked
numerically at rational points (q1, q2) = (2, 3) and (2, 5) before being
frozen; the Murnaghan-Nakayama rule doubles as an oracle for the Schur
conversion.  Macdonald P is no basis of the library; the tests build it as
the integral form over its clearing factor and check its defining
properties.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wallcross.partitions import arm, boxes, conjugate, dominates, enumerate_partitions, leg
from wallcross.scalars import monomial, one, q1, q2, rational
from wallcross.symfunc import (
    BASES,
    SymFunc,
    restrictions,
    s_,
    scale_powersums,
    z_stat,
)

from api_oracles import (
    Ht_,
    change_coordinates,
    convert,
    element,
    euler_form,
    from_restrictions,
    inner_mod,
    inner_plain,
    integral_form,
    m_,
    m_coefficients,
    nabla,
    omega,
    p_,
    torus_factor,
)

def mod_pair_formula(la):
    # (-1)^|la| prod (q2^(l+1) - q1^a)(q2^l - q1^(a+1))
    out = rational((-1) ** sum(la))
    for x, y in boxes(la):
        a, l = arm(la, x, y), leg(la, x, y)
        out = out * (q2(l + 1) - q1(a)) * (q2(l) - q1(a + 1))
    return out


def integral_pair_formula(la):
    # q2^(-|la|) prod (q2^(l+1) - q1^a)(q2^l - q1^(a+1))
    out = q2(-sum(la))
    for x, y in boxes(la):
        a, l = arm(la, x, y), leg(la, x, y)
        out = out * (q2(l + 1) - q1(a)) * (q2(l) - q1(a + 1))
    return out


def integral_factor(la):
    # q2^(-|la|) prod (q2^(l+1) - q1^a): J_la = integral_factor(la) P_la
    out = q2(-sum(la))
    for x, y in boxes(la):
        out = out * (q2(leg(la, x, y) + 1) - q1(arm(la, x, y)))
    return out


def P_(la):
    """Macdonald P_la, in the p basis."""
    return integral_form(la).scale(one() / integral_factor(la))


def torus_formula(la):
    # prod (1 - q1^(-a) q2^(l+1))(1 - q1^(a+1) q2^(-l))
    out = one()
    for x, y in boxes(la):
        a, l = arm(la, x, y), leg(la, x, y)
        out = out * (one() - q1(-a) * q2(l + 1)) * (one() - q1(a + 1) * q2(-l))
    return out


def random_symfunc(n, rng, basis="p"):
    parts = enumerate_partitions(n)
    coeffs = {}
    for la in parts:
        if rng.random() < 0.6:
            coeffs[la] = monomial(rng.randint(-3, 3), rng.randint(-1, 1), rng.randint(-1, 1))
    if not coeffs:
        coeffs[parts[0]] = one()
    return SymFunc(basis, coeffs)


# ---------------------------------------------------------------------------
# plumbing: z, conversions
# ---------------------------------------------------------------------------


def test_z_stat():
    assert z_stat(()) == 1
    assert z_stat((1, 1)) == 2
    assert z_stat((2,)) == 2
    assert z_stat((3, 1, 1)) == 6
    assert z_stat((2, 2, 1)) == 8


def test_newton_and_monomial_goldens():
    # the m -> p direction: p_11 = m_2 + 2 m_11
    assert m_((2,)).to_basis("p") == p_((2,))
    assert m_((1, 1)).to_basis("p") == (p_((1, 1)) - p_((2,))).scale(rational(Fraction(1, 2)))
    assert m_coefficients(p_((1, 1))) == {(2,): one(), (1, 1): rational(2)}


def test_schur_goldens():
    assert p_((2,)).to_basis("s") == s_((2,)) - s_((1, 1))
    assert (m_((2, 1)) + m_((1, 1, 1)).scale(rational(2))).to_basis("s") == s_((2, 1))
    # hook character chi^{(2,1)} at the identity class = dim of the 2-dim rep
    assert s_((2, 1)).to_basis("p").coeffs[(1, 1, 1)] == rational(Fraction(2, 6))


def test_round_trips_all_bases():
    rng = random.Random(6)
    for n in range(1, 5):
        for src in BASES:
            f = random_symfunc(n, rng, src)
            tgt, = (b for b in BASES if b != src)
            back = f.to_basis(tgt).to_basis(src)
            assert back.basis == src and back.coeffs == f.coeffs, (src, n)


def test_oracle_round_trips_four_bases():
    # m and Htilde exist only on the oracle side, as power-sum expansions
    bases = ("m", "p", "s", "Htilde")
    rng = random.Random(6)
    for n in range(1, 5):
        for la in enumerate_partitions(n):
            for src in bases:
                f = element(src, {la: one()})
                tgt = rng.choice([b for b in bases if b != src])
                assert convert(element(tgt, convert(f, tgt)), src) == {la: one()}, (src, tgt, la)


def test_no_conversion_into_Htilde():
    for basis in BASES:
        with pytest.raises(ValueError, match="'Htilde'"):
            s_((2, 1)).to_basis(basis).to_basis("Htilde")


def test_no_conversion_into_m():
    for basis in BASES:
        with pytest.raises(ValueError, match="'m'"):
            s_((2, 1)).to_basis(basis).to_basis("m")


def test_unknown_basis_rejected():
    assert BASES == ("p", "s")
    for basis in ("P", "e", "m", "Htilde"):
        with pytest.raises(ValueError, match=f"unknown basis {basis!r}"):
            SymFunc(basis, {})


def test_omega_conjugates_schurs():
    for n in range(1, 5):
        for la in enumerate_partitions(n):
            assert omega(s_(la)) == s_(conjugate(la)), la
    # and is a sign on power sums
    f = omega(p_((3, 2)))
    assert f.to_basis("p").coeffs[(3, 2)] == rational(-1)


def test_scale_powersums():
    f = p_((2, 1))
    assert scale_powersums(f, lambda k: one()) == f
    g = scale_powersums(p_((1,)), lambda k: (one() - q2(-k)).inverse())
    assert g.coeffs[(1,)] == (one() - q2(-1)).inverse()
    # multiplicative over parts
    h = scale_powersums(f, lambda k: q1(k))
    assert h.coeffs[(2, 1)] == q1(2) * q1(1)


# ---------------------------------------------------------------------------
# the two pairings
# ---------------------------------------------------------------------------


def test_plain_pairing_on_power_sums():
    for k in range(1, 5):
        got = inner_plain(p_((k,)), p_((k,)))
        want = (one() - q1(k)) / (one() - q2(-k)) * rational(k)
        assert got == want, k
    got = inner_plain(p_((1, 1)), p_((1, 1)))
    r = (one() - q1(1)) / (one() - q2(-1))
    assert got == r * r * rational(2)
    assert not inner_plain(p_((2,)), p_((1, 1)))


def test_pairing_degree_mismatch():
    with pytest.raises(ValueError):
        inner_plain(p_((2,)), p_((1,)))
    with pytest.raises(ValueError):
        inner_mod(p_((2, 1)), p_((1, 1)))
    with pytest.raises(ValueError):
        euler_form(Ht_((2,)), Ht_((3,)))
    assert not inner_plain(SymFunc("p", {}), p_((1,)))


def test_mod_pairing_on_power_sums():
    # sign-twisted relative to the plain one: the twist is what makes the
    # Htilde orthogonality and the nabla adjunction below come out exact
    for k in range(1, 5):
        got = inner_mod(p_((k,)), p_((k,)))
        want = (one() - q1(k)) * (one() - q2(k)) * rational(k * (-1) ** (k - 1))
        assert got == want, k


@given(st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_pairings_bilinear(n, seed):
    rng = random.Random(seed)
    f = random_symfunc(n, rng)
    g = random_symfunc(n, rng)
    h = random_symfunc(n, rng)
    c = monomial(2, 1, -1)
    lhs = inner_plain(f + g.scale(c), h)
    assert lhs == inner_plain(f, h) + inner_plain(g, h) * c
    lhs = inner_mod(f, g + h.scale(c))
    assert lhs == inner_mod(f, g) + inner_mod(f, h) * c


# ---------------------------------------------------------------------------
# Macdonald P, integral form, modified form
# ---------------------------------------------------------------------------


def test_P_base_cases():
    assert P_((1,)) == m_((1,))
    for n in range(1, 5):
        ones = (1,) * n
        assert P_(ones) == m_(ones)


def test_P_two_golden():
    # P_(2) = m_2 + (1+q1)(q2-1)/(q2-q1) m_11
    c = (one() + q1()) * (q2() - one()) / (q2() - q1())
    assert P_((2,)) == m_((2,)) + m_((1, 1)).scale(c)


def test_P_unitriangular_in_m():
    for n in range(2, 5):
        for la in enumerate_partitions(n):
            md = m_coefficients(P_(la))
            assert md[la] == one(), la
            for mu in md:
                assert dominates(la, mu), (la, mu)


def test_P_gram_matrix_diagonal():
    for n in range(2, 5):
        parts = enumerate_partitions(n)
        for i, la in enumerate(parts):
            for mu in parts[i + 1 :]:
                assert not inner_plain(P_(la), P_(mu)), (la, mu)


def test_integral_form_goldens():
    J1 = integral_form((1,))
    assert J1 == p_((1,)).scale(q2(-1) * (q2() - one()))
    got = inner_plain(J1, J1)
    assert got == q2(-1) * (q2() - one()) * (one() - q1())
    # the full norm formula, small degrees
    for n in range(1, 4):
        for la in enumerate_partitions(n):
            J = integral_form(la)
            assert inner_plain(J, J) == integral_pair_formula(la), la


def test_integral_form_is_integral():
    # all m-coefficients lie in Z[q1^+-, q2^+-]: Laurent with integer coeffs
    for n in range(1, 5):
        for la in enumerate_partitions(n):
            for mu, c in m_coefficients(integral_form(la)).items():
                assert c.is_laurent(), (la, mu)
                for coef in c.num.terms().values():
                    assert coef.denominator == 1, (la, mu)


def test_Htilde_goldens():
    assert Ht_((1,)) == p_((1,))
    assert Ht_((2,)) == s_((2,)) + s_((1, 1)).scale(q1())
    assert Ht_((1, 1)) == s_((2,)) + s_((1, 1)).scale(q2())
    assert Ht_((2, 1)) == s_((3,)) + s_((2, 1)).scale(q1() + q2()) + s_((1, 1, 1)).scale(
        q1() * q2()
    )


def test_modified_pair():
    for n in range(1, 5):
        parts = enumerate_partitions(n)
        for i, la in enumerate(parts):
            assert inner_mod(Ht_(la), Ht_(la)) == mod_pair_formula(la), la
            for mu in parts[i + 1 :]:
                assert not inner_mod(Ht_(la), Ht_(mu)), (la, mu)


def test_haiman_positivity_small():
    # expanded in Schur functions, coefficients are polynomials in (q1, q2)
    # with nonnegative integer coefficients; read off in the (q1, q2) frame
    for n in range(1, 5):
        for la in enumerate_partitions(n):
            for mu, c in Ht_(la).to_basis("s").coeffs.items():
                d = change_coordinates(c, "qt_to_q1q2")
                assert d.is_laurent(), (la, mu)
                for m, coef in d.num.terms().items():
                    assert coef.denominator == 1 and coef > 0, (la, mu)
                    assert m[0] >= 0 and m[1] >= 0, (la, mu)


# ---------------------------------------------------------------------------
# nabla, localization, euler form
# ---------------------------------------------------------------------------


def test_nabla_eigenvalues():
    from wallcross.partitions import chi

    assert nabla(Ht_((2,))) == Ht_((2,)).scale(q1())
    assert nabla(Ht_((1,))) == Ht_((1,))
    for la in enumerate_partitions(4):
        assert nabla(Ht_(la)) == Ht_(la).scale(chi(la)), la


@given(st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_nabla_adjunction(n, seed):
    rng = random.Random(seed)
    f = random_symfunc(n, rng)
    g = random_symfunc(n, rng)
    assert inner_mod(f, g) == euler_form(nabla(f), g)


def test_torus_factor_formula():
    assert torus_factor((1,)) == (one() - q1()) * (one() - q2())
    for n in range(1, 6):
        for la in enumerate_partitions(n):
            assert torus_factor(la) == torus_formula(la), la


def test_restrictions_skyscraper():
    assert restrictions(Ht_((1,)), 1)[(1,)] == (one() - q1()) * (one() - q2())
    for n in range(1, 5):
        for la in enumerate_partitions(n):
            vals = restrictions(Ht_(la), n)
            for mu, v in vals.items():
                if mu == la:
                    assert v == torus_factor(la), la
                else:
                    assert not v, (la, mu)


def test_localization_round_trip():
    rng = random.Random(11)
    for n in range(1, 5):
        f = random_symfunc(n, rng)
        back = from_restrictions(restrictions(f, n))
        assert back == f, n


def test_euler_form_orthogonality():
    for n in range(1, 4):
        parts = enumerate_partitions(n)
        for la in parts:
            for mu in parts:
                got = euler_form(Ht_(la), Ht_(mu))
                if la == mu:
                    assert got == torus_factor(la), la
                else:
                    assert not got, (la, mu)
