"""Theorems about the finite-dimensional simples of the rational Cherednik algebra.

reports.finite_dimensional_class(a, b) returns the class of L_(a/b), the
finite-dimensional simple at slope a/b, as a Schur expansion of degree b
whose coefficients are Laurent polynomials in q1, q2; the second entry is
normalized so that its dominance-largest coefficient is monomial-free.
Five theorems pin that class exactly, and a failure here is a finding
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
  J. Math. Pures Appl. 2015);
- the refined trivial part is the rational q,t-Catalan number, the sum of
  q1^area q2^dinv over the (a, b)-Dyck paths (Gorsky-Mazin, JCTA 2013 and
  J. Algebraic Combin. 2014).  The path sum shares no code with the class,
  which reaches the Haglund-Haiman-Loehr formula at n = b through the
  slope-0 seed.
"""

import functools
import math
from collections import Counter

import pytest

from wallcross import reports
from wallcross.partitions import conjugate
from wallcross.scalars import LaurentPoly, Scalar
from wallcross.symfunc import s_

from api_oracles import nabla, omega

# coprime a, b with b <= 6; the first b = 6 case builds the chamber sweep at n = 6
CLASSES = [(1, 2), (3, 2), (5, 2), (1, 3), (2, 3), (4, 3), (5, 3), (1, 4), (3, 4),
           (5, 4), (2, 5), (3, 5), (4, 5), (6, 5), (1, 6), (5, 6), (7, 6)]


@functools.lru_cache(maxsize=None)
def normalized_class(a, b):
    return reports.finite_dimensional_class(a, b)[1].to_basis("s").coeffs


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
    want = reports._normalize_top(omega(f))
    assert reports.finite_dimensional_class(k * b + 1, b)[1] == want


def least_height(a, b, x):
    """The least integer y with (x, y) weakly above the diagonal y = bx/a."""
    return -(-b * x // a)


def dyck_paths(a, b):
    """The (a, b)-Dyck paths: N and E steps from (0, 0) to (a, b), weakly above
    y = bx/a, each as the heights y_0 <= ... <= y_(a-1) of its E steps."""
    def extend(i, lo):
        if i == a:
            yield ()
            return
        # the step's right end (i + 1, y) lies weakly above the diagonal
        for y in range(max(lo, least_height(a, b, i + 1)), b + 1):
            for rest in extend(i + 1, y):
                yield (y,) + rest
    return list(extend(0, 0))


def rational_qt_catalan(a, b):
    """sum over (a, b)-Dyck paths of q1^area q2^dinv, in the (q, t) frame.

    area counts the whole cells between the path and the diagonal.  lambda
    is the set of cells left of the path; for a cell c of it, arm(c) counts
    lambda's cells to its right in its row and leg(c) those below it in its
    column.  dinv counts the c with arm/(leg + 1) < a/b < (arm + 1)/leg, the
    right inequality dropped when leg = 0.
    """
    out = Counter()
    for ys in dyck_paths(a, b):
        area = sum(y - least_height(a, b, i + 1) for i, y in enumerate(ys))
        dinv = 0
        for i, y in enumerate(ys):
            for j in range(y, b):  # the cells of lambda in column i
                arm = sum(1 for z in ys[i + 1:] if z <= j)
                leg = j - y
                if arm * b < a * (leg + 1) and (leg == 0 or a * leg < b * (arm + 1)):
                    dinv += 1
        out[area + dinv, area - dinv] += 1  # q1^area q2^dinv = q^(area+dinv) t^(area-dinv)
    return Scalar.from_laurent(LaurentPoly(out))


@pytest.mark.parametrize("a, b", CLASSES + [(3, 7), (8, 7), (9, 7),
                                            pytest.param(3, 8, marks=pytest.mark.slow),
                                            pytest.param(9, 8, marks=pytest.mark.slow)])
def test_refined_trivial_part_is_the_rational_qt_catalan_number(a, b):
    # the b = 7 and 8 classes build the chamber sweep at n = 7 and 8
    assert len(dyck_paths(a, b)) * (a + b) == math.comb(a + b, b)
    assert normalized_class(a, b)[(b,)] == rational_qt_catalan(a, b)
