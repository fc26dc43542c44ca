"""The positivity series on LaurentPoly against the (q1, q2) dict route.

verify._series_coefficients expands a Schur coefficient as a (q1, q2)-power
series with LaurentPoly arithmetic: q1^a q2^b = q^(a+b) t^(a-b), so the
total degree of a term is its q-exponent, truncation is a filter on it and
the denominator's corner is its least exponent pair.  The route it replaced
converted every term to an (a, b) key and multiplied dicts; it is kept
below verbatim (renamed series_oracle), and the two must agree exactly (dict
equality, including the ValueError message when a coefficient is skipped)
on every Schur coefficient of every printed element for n <= 5.
"""

from fractions import Fraction

import pytest

from wallcross import stable, verify
from wallcross.scalars import Scalar, monomial, one, q1, q1q2_exponents, q2

F2 = Fraction

SLOPES = [(F2(1, 2), 1), (F2(1, 2), -1), (F2(2, 3), 1), (F2(3, 4), -1),
          (F2(3, 2), 1), (F2(5, 3), 1), (F2(7, 4), 1), (F2(11, 5), 1),
          (F2(7, 3), -1), (F2(5, 2), 1)]
ORDERS = [3, 6, 8]


def _q1q2_dict(terms: dict) -> dict:
    out = {}
    for mono, coef in terms.items():
        a, b = q1q2_exponents(mono)
        if a.denominator != 1 or b.denominator != 1:
            raise ValueError("fractional exponent")
        out[(int(a), int(b))] = out.get((int(a), int(b)), 0) + coef
    return {k: v for k, v in out.items() if v}


def series_oracle(val: Scalar, order: int) -> dict:
    """Expand a rational scalar as a (q1, q2)-power series around 0.

    The denominator must have a unique corner term dividing all others
    (true for the products of (1 - monomial) factors these coefficients
    carry); raises ValueError when it does not, which the caller reports
    as a skip.  Returns {(a, b): Fraction} for total degree a+b <= order
    relative to the smallest numerator corner.
    """
    num = _q1q2_dict(val.num.terms())
    den = _q1q2_dict(val.den.terms())
    corner = min(den, key=lambda ab: (ab[0] + ab[1], ab))
    ca, cb = corner
    if any(a < ca or b < cb for a, b in den):
        raise ValueError("denominator has no dominant corner")
    cc = den[corner]
    rest = {(a - ca, b - cb): -Fraction(v, cc) for (a, b), v in den.items()
            if (a, b) != corner}
    # 1/den = q1^-ca q2^-cb / cc * sum_j rest^j
    series = {(0, 0): Fraction(1)}
    power = {(0, 0): Fraction(1)}
    for _ in range(order):
        power = _trunc_mul(power, rest, order)
        if not power:
            break
        for k, v in power.items():
            series[k] = series.get(k, Fraction(0)) + v
    shifted_num = {(a - ca, b - cb): Fraction(v, cc) for (a, b), v in num.items()}
    out = _trunc_mul(shifted_num, series, order, shift=_min_corner(shifted_num))
    return out


def _min_corner(d: dict) -> tuple:
    if not d:
        return (0, 0)
    return min((a for a in d), key=lambda ab: (ab[0] + ab[1], ab))


def _trunc_mul(x: dict, y: dict, order: int, shift=(0, 0)) -> dict:
    sa, sb = shift
    out = {}
    for (a1, b1), v1 in x.items():
        for (a2, b2), v2 in y.items():
            a, b = a1 + a2, b1 + b2
            if (a - sa) + (b - sb) > order:
                continue
            k = (a, b)
            out[k] = out.get(k, Fraction(0)) + v1 * v2
    return {k: v for k, v in out.items() if v}


def outcome(series, val, order):
    try:
        return series(val, order)
    except ValueError as err:
        return ("skipped", str(err))


def coefficients(n):
    return [c for slope in SLOPES for f in stable.printed_basis(n, slope).values()
            for c in f.coeffs.values()]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_series_matches_dict_route_on_printed_coefficients(n):
    vals = coefficients(n)
    assert vals
    for order in ORDERS:
        for val in vals:
            want = outcome(series_oracle, val, order)
            assert outcome(verify._series_coefficients, val, order) == want, (val, order)


def test_series_matches_dict_route_on_small_inputs():
    vals = [
        one() / (one() - q2(1)),
        (one() - q1(1)) / (one() - q2(1)),
        one() / (q1(1) - q2(1)),
        q1(-1) / (one() - q2(1)),
        (one() + q1(1)) / (one() - q1(1) - q2(2)),
        monomial(1, F2(1, 2), F2(3, 2)),
        monomial(F2(-3, 2), 2, 0) / (monomial(2, 0, 0) - q1(1) * q2(2)),
    ]
    for order in ORDERS:
        for val in vals:
            want = outcome(series_oracle, val, order)
            assert outcome(verify._series_coefficients, val, order) == want, (val, order)
