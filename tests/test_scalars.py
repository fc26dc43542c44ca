import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wallcross import scalars as S
from wallcross import symfunc
from wallcross.fock import bar_matrix
from wallcross.partitions import enumerate_partitions
from wallcross.scalars import (
    LaurentPoly,
    Scalar,
    laurent_gcd,
    monomial,
    one,
    q1,
    q2,
    rational,
    zero,
)

from api_oracles import chain_tables, change_coordinates, q, t

# ---------------------------------------------------------------------------
# strategies: small exact scalars.  Exponents mix integers and halves/thirds
# because renormalization factors downstream genuinely produce them.
# ---------------------------------------------------------------------------

exponents = st.sampled_from(
    [Fraction(k) for k in range(-3, 4)]
    + [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 3)]
)
# integral coefficients come as plain ints and as Fractions, which the
# kernel must store alike
int_coeffs = st.sampled_from([-3, -2, -1, 1, 2, 3] + [Fraction(n) for n in (-3, -1, 2)])
coeffs = st.one_of(int_coeffs, st.sampled_from([Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]))


@st.composite
def laurent_polys(draw, max_terms=4, allow_zero=True, coeffs=coeffs):
    n = draw(st.integers(0 if allow_zero else 1, max_terms))
    p = LaurentPoly()
    for _ in range(n):
        p = p + LaurentPoly.term(draw(coeffs), draw(exponents), draw(exponents))
    if not allow_zero and p.is_zero():
        p = LaurentPoly.one()
    return p


@st.composite
def monic_polys(draw):
    """Integer coefficients, lex-leading term 1*q^(4)*t^(k): above every drawn term."""
    p = draw(laurent_polys(max_terms=3, coeffs=int_coeffs))
    return p + LaurentPoly.term(1, 4, draw(exponents))


@st.composite
def scalars(draw, coeffs=coeffs):
    num = draw(laurent_polys(coeffs=coeffs))
    den = draw(laurent_polys(max_terms=2, allow_zero=False, coeffs=coeffs))
    return Scalar(num, den)


# ---------------------------------------------------------------------------
# ring axioms and canonical form
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
# both sums meet the gcd of 1 + q + t - t^2 and 1 + q, where t = 0 and t = 1
# are unlucky evaluation points
@example(t(-1), q(-1) / (one() + q(-1)), -(q(-1) * t()) / (one() + q(-1)))
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == zero()
    assert a * one() == a
    assert a + zero() == a


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_division_inverts_multiplication(a, b):
    if b:
        assert (a * b) / b == a
        assert b * b.inverse() == one()


@settings(max_examples=60, deadline=None)
@given(scalars(), laurent_polys(max_terms=2, allow_zero=False))
def test_canonical_form_is_representation_independent(a, junk):
    # multiplying num and den by a common factor must normalize away
    blown = Scalar(a.num * junk, a.den * junk)
    assert blown == a
    assert blown.dumps() == a.dumps()


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_denominator_normalization(a):
    if a:
        m, c = a.den.leading()
        assert c == 1 and m == (0, 0)
        assert laurent_gcd(a.num, a.den).is_one() or a.den.is_one()
    else:
        assert a.den.is_one()


def test_single_term_denominator_folds_in():
    x = (one() + q()) / (q(2) * t(-1) * rational(3))
    assert x.is_laurent()
    assert x == rational(Fraction(1, 3)) * (q(-2) * t() + q(-1) * t())


# ---------------------------------------------------------------------------
# oracle: sympy agrees on integer-exponent arithmetic
# ---------------------------------------------------------------------------


def _to_sympy(x, qs, ts):
    import sympy

    def poly(p):
        acc = sympy.Integer(0)
        for (eq, et), c in p.terms().items():
            acc += sympy.Rational(c.numerator, c.denominator) * qs ** int(eq) * ts ** int(et)
        return acc

    return poly(x.num) / poly(x.den)


def test_arithmetic_against_sympy():
    import sympy

    qs, ts = sympy.symbols("q t")
    rng = random.Random(7)

    def rand_poly():
        p = LaurentPoly()
        for _ in range(rng.randint(1, 3)):
            p = p + LaurentPoly.term(
                Fraction(rng.choice([-2, -1, 1, 2, 3])),
                Fraction(rng.randint(-2, 2)),
                Fraction(rng.randint(-2, 2)),
            )
        return p if p else LaurentPoly.one()

    for _ in range(25):
        a = Scalar(rand_poly(), rand_poly())
        b = Scalar(rand_poly(), rand_poly())
        for mine, theirs in [
            (a + b, _to_sympy(a, qs, ts) + _to_sympy(b, qs, ts)),
            (a * b, _to_sympy(a, qs, ts) * _to_sympy(b, qs, ts)),
            (a - b, _to_sympy(a, qs, ts) - _to_sympy(b, qs, ts)),
        ]:
            assert sympy.simplify(_to_sympy(mine, qs, ts) - theirs) == 0


# ---------------------------------------------------------------------------
# coordinate frames
# ---------------------------------------------------------------------------


def test_frame_constructors():
    assert q1() == q() * t()
    assert q2() == q() / t()
    assert q1() * q2() == q(2)
    assert q1() / q2() == t(2)
    assert q1(Fraction(1, 2)) * q2(Fraction(1, 2)) == q()


def test_change_coordinates_worked_example():
    # stored pairs read as q1^a q2^b: q2 - q1^(-1) becomes t^(-1) (q - q^(-1))
    stored = monomial(1, 0, 1) - monomial(1, -1, 0)
    out = change_coordinates(stored, "q1q2_to_qt")
    assert out == t(-1) * (q() - q(-1))


@settings(max_examples=50, deadline=None)
@given(scalars(), scalars())
def test_change_coordinates_is_ring_iso(a, b):
    for d in ("q1q2_to_qt", "qt_to_q1q2"):
        assert change_coordinates(a + b, d) == change_coordinates(a, d) + change_coordinates(b, d)
        assert change_coordinates(a * b, d) == change_coordinates(a, d) * change_coordinates(b, d)
    assert change_coordinates(change_coordinates(a, "qt_to_q1q2"), "q1q2_to_qt") == a
    assert change_coordinates(change_coordinates(a, "q1q2_to_qt"), "qt_to_q1q2") == a


def test_change_coordinates_rejects_unknown_direction():
    with pytest.raises(ValueError):
        change_coordinates(one(), "sideways")


# ---------------------------------------------------------------------------
# bar substitution
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(scalars())
def test_bar_substitute_involution(a):
    assert a.bar().bar() == a


def test_bar_substitute_example():
    x = (q() + t(2)) / (one() - q() * t())
    assert x.bar() == (q(-1) + t(2)) / (one() - q(-1) * t())


def bar_by_reduction(a):
    """The route bar() took before: flip q in num and den, then rebuild the
    Scalar, which reduces the image by a gcd before normalizing it."""
    def flip(p):
        return LaurentPoly({(-eq, et): c for (eq, et), c in p.terms().items()})
    return Scalar(flip(a.num), flip(a.den))


@settings(max_examples=150, deadline=None)
@given(scalars())
@example((q() + t(2)) / (one() - q() * t()))
@example((one() + q(Fraction(1, 2)) * t(3)) / (q(-2) + rational(Fraction(2, 3))))
def test_bar_needs_no_gcd(a):
    # q -> 1/q keeps a reduced fraction reduced, so the unit normalization
    # alone gives the same canonical form as reducing again
    got, want = a.bar(), bar_by_reduction(a)
    assert got == want and got.dumps() == want.dumps()
    assert_normal_form(got)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_constructor_normalizes_each_key_and_coefficient_once(data):
    # distinct exponent pairs, each exponent spelled as an int or a Fraction,
    # so no two keys of the dict are equal
    pairs = data.draw(st.lists(st.tuples(exponents, exponents), unique=True, max_size=6))
    spell = {"int": lambda e: e.numerator if e.denominator == 1 else e,
             "fraction": Fraction}
    terms = {}
    for eq, et in pairs:
        kq, kt = (spell[data.draw(st.sampled_from(sorted(spell)))] for _ in range(2))
        terms[(kq(eq), kt(et))] = data.draw(st.one_of(coeffs, st.sampled_from([0, Fraction(0)])))
    p = LaurentPoly(terms)
    total = LaurentPoly()
    for (eq, et), c in terms.items():
        total = total + LaurentPoly.term(c, eq, et)
    assert p == total
    assert len(p) == sum(1 for c in terms.values() if c)
    assert all(type(m) is tuple and len(m) == 2 for m in p.terms())
    assert all(type(e) is int or e.denominator != 1 for m in p.terms() for e in m)
    assert_normal_form(p)


def test_map_exponents_callers_are_one_to_one(monkeypatch):
    # map_exponents does not merge terms, so every map it is given must be
    # one to one on the support: the t-flip of _Htilde_in_m and the q-flip
    # of Scalar.bar, on every Htilde_mu with |mu| <= 6
    real, maps = LaurentPoly.map_exponents, []

    def checked(self, f):
        images = [f(m) for m in self.terms()]
        assert len(set(images)) == len(images), self
        maps.append(f.__qualname__)
        return real(self, f)

    monkeypatch.setattr(LaurentPoly, "map_exponents", checked)
    symfunc._Htilde_in_m.cache_clear()
    try:
        for n in range(7):
            for mu in enumerate_partitions(n):
                for c in symfunc._Htilde_in_m(mu).values():
                    c.bar()
    finally:
        symfunc._Htilde_in_m.cache_clear()
    assert {"_Htilde_in_m.<locals>.<lambda>", "Scalar.bar.<locals>.<lambda>"} <= set(maps)


# ---------------------------------------------------------------------------
# degree ranges
# ---------------------------------------------------------------------------


def test_degree_ranges():
    x = q(2) * t(-3) + q(-1) * t(Fraction(1, 2))
    assert x.t_degree_range() == (Fraction(-3), Fraction(1, 2))
    assert x.q_degree_range() == (Fraction(-1), Fraction(2))


def test_degree_range_requires_laurent():
    x = one() / (one() + q() + t(2) * q(2))
    with pytest.raises(ValueError):
        x.t_degree_range()
    with pytest.raises(ValueError):
        zero().t_degree_range()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_dumps_format_frozen():
    x = rational(Fraction(-3, 2)) + q() * t(Fraction(1, 2)) * rational(2)
    assert x.dumps() == "2*q^(1)*t^(1/2) - 3/2*q^(0)*t^(0)"
    assert zero().dumps() == "0"
    # the denominator's lex-leading term is normalized to 1*q^(0)*t^(0)
    y = (one() - q()) / (one() - q() + q(2))
    assert y.dumps() == "(-1*q^(-1)*t^(0) + 1*q^(-2)*t^(0))/(1*q^(0)*t^(0) - 1*q^(-1)*t^(0) + 1*q^(-2)*t^(0))"


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars())
def test_string_equality_is_value_equality(a, b):
    assert (a.dumps() == b.dumps()) == (a == b)


# ---------------------------------------------------------------------------
# errors and edge cases
# ---------------------------------------------------------------------------


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        one() / zero()
    with pytest.raises(ZeroDivisionError):
        zero().inverse()
    with pytest.raises(ZeroDivisionError):
        Scalar(LaurentPoly.one(), LaurentPoly())


def test_negative_powers():
    x = one() - q()
    assert x**-2 == one() / (x * x)
    assert x**0 == one()
    assert x**1 == x and x**-1 == one() / x
    assert (x / (one() + t())) ** -3 == (one() + t()) ** 3 / (x * x * x)
    assert (q() * t(-1)) ** -3 == q(-3) * t(3)


# ---------------------------------------------------------------------------
# coefficient type: an int when integral, a Fraction only when not
# ---------------------------------------------------------------------------


def _coefficients(*xs):
    for x in xs:
        for p in (x.num, x.den) if isinstance(x, Scalar) else (x,):
            yield from p.terms().values()


def assert_ints(*xs):
    assert all(type(c) is int for c in _coefficients(*xs))


def assert_normal_form(*xs):
    for c in _coefficients(*xs):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


@settings(max_examples=80, deadline=None)
@given(laurent_polys(coeffs=int_coeffs), laurent_polys(coeffs=int_coeffs),
       laurent_polys(max_terms=3, allow_zero=False, coeffs=int_coeffs))
def test_integer_polynomials_keep_int_coefficients(a, b, d):
    assert_ints(a, b, d, a + b, a - b, -a, a * b, a.mul_term(-3, (0, 0)),
                a.mul_term(2, (1, 0)))
    if a:  # exact_div takes a nonzero dividend
        assert_ints((a * d).exact_div(d), (a * d).exact_div(d.mul_term(-1, (0, 0))))
    assert_ints(d.mul_term(-1, (-2, -1)))  # d / (-q^2 t)


@settings(max_examples=60, deadline=None)
@given(laurent_polys(max_terms=3, coeffs=int_coeffs), monic_polys(), monic_polys(), monic_polys())
def test_monic_fractions_keep_int_coefficients(n1, d1, n2, d2):
    # a denominator is normalized by its lex-leading coefficient, and a
    # factor of a monic integer polynomial is monic: nothing leaves Z
    a, b = Scalar(n1, d1), Scalar(n2, d2)
    assert_ints(a, b, a + b, a - b, a * b, a / Scalar(d1, d2))


@settings(max_examples=80, deadline=None)
@given(scalars(), scalars(), laurent_polys(), laurent_polys(max_terms=3, allow_zero=False))
def test_mixed_coefficients_are_fractions_only_when_not_integral(a, b, p, d):
    assert_normal_form(a, b, a + b, a - b, a * b, p, d, p + d, p - d, p * d,
                       (p * d).exact_div(d) if p else p, p.mul_term(Fraction(2, 3), (0, 0)),
                       p.mul_term(Fraction(3, 2), (0, 0)),
                       p.mul_term(Fraction(1, 2), (0, 1)),
                       a.bar(), change_coordinates(a, "qt_to_q1q2"))
    if b:
        assert_normal_form(a / b)
    if p and d:
        assert_normal_form(laurent_gcd(p, d), *S.laurent_reduce(p, d))


def test_inexact_coefficients_are_rejected():
    with pytest.raises(TypeError):
        LaurentPoly.term(0.5)
    with pytest.raises(TypeError):
        rational(1.0)


def test_inexact_exponents_are_rejected():
    # Fraction(0.1) would make this q^(3602879701896397/36028797018963968)
    with pytest.raises(TypeError, match="float"):
        monomial(1, 0.1, 0)
    with pytest.raises(TypeError, match="float"):
        LaurentPoly.term(1, 0, 0.5)
    with pytest.raises(TypeError, match="float"):
        q1(0.5)
    # a string is not a number: it is refused too, never parsed
    for bad in (lambda: monomial(1, "1/2", 0), lambda: LaurentPoly.term("6/3", 1, 0),
                lambda: S._exact("6/3"), lambda: q2("1/2"), lambda: rational("1")):
        with pytest.raises(TypeError):
            bad()
    assert monomial(1, Fraction(1, 2), 0).num.terms() == {(Fraction(1, 2), 0): 1}


def test_integral_inputs_become_ints():
    assert [type(S._exact(x)) for x in (Fraction(4, 2), Fraction(6, 3), True, 5)] == [int] * 4
    assert_ints(rational(Fraction(4, 2)), LaurentPoly.term(Fraction(6, 3), 1, 0),
                LaurentPoly.term(True), LaurentPoly({(0, 0): Fraction(1, 2), (1, 0): 2})
                + LaurentPoly.term(Fraction(1, 2)), rational(Fraction(3, 2)) * rational(2))
    assert repr(LaurentPoly.term(True)) == "LaurentPoly('1*q^(0)*t^(0)')"


def test_integral_exponent_sums_become_ints():
    half = LaurentPoly.term(1, Fraction(1, 2), Fraction(-3, 2))
    for p in (half * half, half.mul_term(2, (Fraction(1, 2), Fraction(1, 2))),
              (half + LaurentPoly.one()) * half):
        assert all(type(e) is int or e.denominator != 1 for m in p.terms() for e in m), p


@pytest.mark.parametrize("n", range(7))
def test_bar_matrix_coefficients_are_ints(n):
    for b in range(2, max(n, 2) + 1):
        A = bar_matrix(n, b)
        assert all(x.is_laurent() for row in A for x in row)
        assert_ints(*(x for row in A for x in row))


def test_exact_div_guard():
    with pytest.raises(ArithmeticError):
        (one() - q(2)).num.exact_div((one() + q() + t()).num)


@st.composite
def scalar_pairs(draw):
    """Two scalars, the second often +-the first built from another fraction."""
    a = draw(scalars())
    if draw(st.booleans()):
        return a, draw(scalars())
    k = draw(laurent_polys(max_terms=2, allow_zero=False))
    sign = draw(st.sampled_from([1, -1]))
    return a, Scalar(a.num * k.mul_term(sign, (0, 0)), a.den * k)


@settings(max_examples=100, deadline=None)
@given(scalar_pairs())
def test_fractions_with_different_denominators_never_cancel(pair):
    # equal values have equal canonical denominators, so a sum or difference
    # of two fractions whose denominators differ is never zero (the +-a
    # pairs, rebuilt from another fraction, pin the canonical form)
    a, b = pair
    if a.den != b.den:
        assert a + b and a - b


@settings(max_examples=100, deadline=None)
@given(laurent_polys(coeffs=int_coeffs), laurent_polys(coeffs=int_coeffs),
       laurent_polys(max_terms=3, coeffs=int_coeffs))
def test_gcd_of_multi_term_polynomials_is_one_or_multi_term(a, b, c):
    # exact_div is never handed a monomial: the canonical gcd has minimum
    # exponents 0, so a one-term gcd is exactly 1, which callers skip
    p, r = a * c, b * c
    if len(p) > 1 and len(r) > 1:
        g = laurent_gcd(p, r)
        assert g.is_one() or len(g) > 1


def test_gcd_of_coprime_is_one():
    assert laurent_gcd((one() + q()).num, (one() + t()).num).is_one()


def test_gcd_past_unlucky_evaluation_points():
    # 1 + t - t^2 is 1 at t = 0 and t = 1, so both points see a common factor
    a = one() + q() + t() - t(2)
    b = one() + q()
    assert laurent_gcd(a.num, b.num).is_one()
    x = a / b
    assert x * b == a
    assert x.dumps() == ("(1*q^(0)*t^(0) - 1*q^(-1)*t^(2) + 1*q^(-1)*t^(1) + 1*q^(-1)*t^(0))"
                         "/(1*q^(0)*t^(0) + 1*q^(-1)*t^(0))")


def test_gcd_is_not_fooled_by_one_kronecker_substitution():
    # the Kronecker substitution t = q^3 leaves 1 + q in both images, at any
    # evaluation point, so that candidate never divides; t = xi keeps it apart
    a = (one() + q()) * (one() + q() + t())
    b = (one() + t()) * (one() + q() + t())
    assert laurent_gcd(a.num, b.num) == (one() + q() + t()).num


def _int_dict(x):
    return S._intize(x.num, 1, 1)[0]


def test_gcd_retries_past_a_candidate_that_does_not_divide(monkeypatch):
    # xi0 = 2 |(1+q+t)(q+t)|_oo + 2 = 6; at t = 6 the images of both inputs
    # are (7+q)(6+q), whose digits rebuild (1+q+t)(q+t), which does not
    # divide the second input
    a = (one() + q() + t()) * (q() + t())
    xi0 = 2 * max(_int_dict(a).values()) + 2
    b = (one() + q() + t()) * (q() + rational(xi0))
    points, rejected = [], []
    evaluate, idiv = S._evaluate, S._idiv

    def spy_evaluate(P, var, xi):
        points.append((var, xi))
        return evaluate(P, var, xi)

    def spy_idiv(P, D):
        out = idiv(P, D)
        if out is None:
            rejected.append(D)
        return out

    monkeypatch.setattr(S, "_evaluate", spy_evaluate)
    monkeypatch.setattr(S, "_idiv", spy_idiv)
    assert laurent_gcd(a.num, b.num) == (one() + q() + t()).num
    assert points[0] == (1, xi0)
    assert _int_dict(a) in rejected


def test_gcd_skips_a_point_where_the_larger_input_vanishes():
    # xi0 = 2 |1 + t|_oo + 2 = 4 is a root of the second input
    assert laurent_gcd((one() + t()).num, ((t() - rational(4)) * (one() + q())).num).is_one()


def test_gcd_keeps_growing_xi_until_a_candidate_divides(monkeypatch):
    # refuse the first six bivariate candidates, as many points as the gcd
    # once tried before giving up: it must go on to a seventh
    idiv, refused = S._idiv, []

    def refuse_six(P, D):
        if any(v for _, v in D) and len(refused) < 6:
            refused.append(D)
            return None
        return idiv(P, D)

    monkeypatch.setattr(S, "_idiv", refuse_six)
    a = (one() + q()) * (one() + q() + t())
    b = (one() + t()) * (one() + q() + t())
    assert laurent_gcd(a.num, b.num) == (one() + q() + t()).num
    assert len(refused) == 6


def _hsum(d):
    """q^d + q^(d-1) t + ... + t^d."""
    acc = zero()
    for i in range(d + 1):
        acc = acc + q(d - i) * t(i)
    return acc


def gcd_pairs_once_refused():
    """(a, b, gcd) on which the gcd used to raise.

    In the first, the univariate gcd of the images gave up at the first
    point, xi = 4, and the failure left the bivariate loop; xi = 10 works.
    In the second, the gcd is a itself, whose largest coefficient is 573,
    so rebuilding it needs xi > 1146: the seventh point, 2379.
    """
    c3, c6 = q(2) + q() * t() + t(2), q(2) - q() * t() + t(2)
    a1 = (one() - q(2)) * c3
    b1 = (q() - t()) ** 5 * (q() + t()) ** 3 * (q(2) + t(2)) * c6 * c3 ** 2
    a2 = (q() + t()) ** 3 * (q(2) + t(2)) * c6 * c3 ** 2 * _hsum(4) * _hsum(6)
    b2 = a2 * (q() - t()) ** 7 * (q(5) - t(7))
    return [(a1, b1, c3), (a2, b2, a2)]


@pytest.mark.parametrize("k", [0, 1], ids=["inner-failure", "seventh-point"])
def test_gcd_of_pairs_once_refused(k):
    a, b, g = gcd_pairs_once_refused()[k]
    assert laurent_gcd(a.num, b.num) == g.num
    assert laurent_gcd(b.num, a.num) == g.num


@settings(max_examples=200, deadline=None)
@given(st.integers(-2**100, 2**100), st.sampled_from([4, 10, 2**32]))
def test_balanced_digits_rebuild_the_integer(c, xi):
    # the reader behind both the heuristic gcd and fock's bar-matrix decoding
    digits = list(S.balanced_digits(c, xi))
    assert sum(d * xi**e for e, d in enumerate(digits)) == c
    assert all(-xi < 2 * d <= xi for d in digits)
    assert not digits or digits[-1]


def test_gcd_with_fractional_exponents():
    a = (one() - q(Fraction(1, 2))) * (one() + t())
    b = (one() - q(Fraction(1, 2))) * (one() - t())
    g = laurent_gcd(a.num, b.num)
    # canonical associate: min exponents 0, leading (lex-max) coefficient 1
    assert g == (q(Fraction(1, 2)) - one()).num
    assert a.num.exact_div(g) * g == a.num


@pytest.mark.parametrize("module, examples", [("scalars", 4), ("partitions", 1)],
                         ids=["scalars", "partitions"])
def test_doctests(module, examples):
    import doctest
    import importlib

    results = doctest.testmod(importlib.import_module(f"wallcross.{module}"))
    # a module that lost its examples would also report 0 failed
    assert results.failed == 0 and results.attempted >= examples


def _pipeline_scalars():
    """(label, Scalars) from the seed, the crossings, the Fock bar matrices,
    a canonical basis and a printed basis: every layer that builds keys."""
    from wallcross import reports, stable

    yield "seed_slope0(5)", [x for row in stable.seed_slope0(5).gamma for x in row]
    yield "_sweep(5) seed", [x for row in stable._sweep(5)[0].gamma for x in row]
    for w, factor, table in chain_tables(5):
        yield f"_sweep(5) at {w}", [x for M in (factor, table.gamma) for row in M for x in row]
    for b in range(2, 5):
        yield f"bar_matrix(6, {b})", [x for row in bar_matrix(6, b) for x in row]
    yield "canonical_basis(5, 3, -)", [x for row in reports.canonical_basis(5, 3, "-") for x in row]
    printed = reports.printed_basis(4, (Fraction(2, 3), 1))
    yield "printed_basis(4, 2/3+)", [x for f in printed.values() for x in f.coeffs.values()]


def test_every_key_is_a_plain_exponent_pair_in_normal_form():
    # a monomial q^a t^b is the plain tuple (a, b), each exponent an int when
    # integral and a Fraction only when not
    for label, values in _pipeline_scalars():
        assert values, label
        for v in values:
            for m in (*v.num.terms(), *v.den.terms()):
                assert type(m) is tuple and len(m) == 2, (label, m)
                assert all(type(e) is int or (type(e) is Fraction and e.denominator != 1)
                           for e in m), (label, m)
