"""Theorems about the finite-dimensional simples of the rational Cherednik algebra.

verify.finite_dimensional_class(a, b) returns the class of L_(a/b), the
finite-dimensional simple at slope a/b, as a Schur expansion of degree b
whose coefficients are Laurent polynomials in q1, q2; the second entry is
normalized so that its dominance-largest coefficient is monomial-free.
Four theorems pin that class exactly, and a failure here is a finding
about the code:

- dimension: at q1 = q2 = 1, sum_la [s_la]L f^la = a^(b-1), with f^la the
  number of standard tableaux of shape la (Berest-Etingof-Ginzburg, IMRN
  2003);
- trivial part: [s_(b)]L at q1 = q2 = 1 is the rational Catalan number
  C(a + b, b)/(a + b);
- the refined trivial part C_(a,b) = [s_(b)]L is symmetric under
  q1 <-> q2, and C_(a,b) = C_(b,a) (the rational shuffle theorem, Mellit
  2016);
- L_((kb+1)/b) = omega nabla^k e_b up to the normalization (Gorsky-Negut,
  J. Math. Pures Appl. 2015).
"""

import functools
import math

import pytest

from wallcross import verify
from wallcross.partitions import conjugate
from wallcross.scalars import Scalar
from wallcross.symfunc import s_

from api_oracles import nabla, omega

# coprime a, b with b <= 6; the first b = 6 case builds the chamber sweep at n = 6
CLASSES = [(1, 2), (3, 2), (5, 2), (1, 3), (2, 3), (4, 3), (5, 3), (1, 4), (3, 4),
           (5, 4), (2, 5), (3, 5), (4, 5), (6, 5), (1, 6), (5, 6), (7, 6)]


@functools.lru_cache(maxsize=None)
def normalized_class(a, b):
    return verify.finite_dimensional_class(a, b)[1].to_basis("s").coeffs


def at_one(c):
    """c at q1 = q2 = 1, that is at q = t = 1."""
    assert c.is_laurent(), str(c)
    return sum(c.num.terms().values())


def standard_tableaux(la):
    conj = conjugate(la)
    hooks = math.prod(r - j + conj[j] - i - 1 for i, r in enumerate(la) for j in range(r))
    return math.factorial(sum(la)) // hooks


def swap_q1_q2(c):
    # q1^x q2^y is q^(x+y) t^(x-y), so q1 <-> q2 is t -> 1/t
    f = lambda m: (m[0], -m[1])
    return Scalar(c.num.map_exponents(f), c.den.map_exponents(f))


@pytest.mark.parametrize("a, b", CLASSES)
def test_dimension_is_a_to_the_b_minus_one(a, b):
    L = normalized_class(a, b)
    assert sum(at_one(c) * standard_tableaux(la) for la, c in L.items()) == a ** (b - 1)


@pytest.mark.parametrize("a, b", CLASSES)
def test_trivial_part_is_the_rational_catalan_number(a, b):
    assert at_one(normalized_class(a, b)[(b,)]) * (a + b) == math.comb(a + b, b)


@pytest.mark.parametrize("a, b", CLASSES)
def test_refined_trivial_part_is_symmetric_in_q1_q2(a, b):
    C = normalized_class(a, b)[(b,)]
    assert swap_q1_q2(C) == C, str(C)


@pytest.mark.parametrize("a, b", [(2, 3), (3, 4), (2, 5), (3, 5), (4, 5), (5, 6)])
def test_refined_trivial_part_is_symmetric_in_a_b(a, b):
    assert normalized_class(a, b)[(b,)] == normalized_class(b, a)[(a,)]


@pytest.mark.parametrize("b, k", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2),
                                  (2, 3), (3, 3)])
def test_slope_k_plus_one_over_b_is_omega_nabla_k_e_b(b, k):
    f = s_((1,) * b)
    for _ in range(k):
        f = nabla(f)
    want = verify._normalize_top(omega(f))
    assert verify.finite_dimensional_class(k * b + 1, b)[1] == want
