"""Orchestrated checks: conjecture runs, golden tables, positivity, characters.

Every check returns a plain-dict Report:
    {"check": str, "params": {...}, "status": "match"|"mismatch"|"skipped",
     "witness": ...}
with the witness present exactly when status == "mismatch" (first differing
entry) or when a skip wants to explain itself.  Reports carry no timing (the
command line times the calls it makes), so a report is a function of its
parameters alone.  They are JSON-ready; all symbolic content is serialized
through the canonical Scalar string form so that byte comparison equals
symbolic comparison.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import fock, stable
from .linalg import mat_mul
from .partitions import content_sum, enumerate_partitions, hook_partitions
from .scalars import LaurentPoly, Scalar, monomial, one, q1, q1q2_exponents, q2, zero
from .symfunc import SymFunc, s_

__all__ = [
    "conjecture_check",
    "appendix_check",
    "positivity_report",
    "verma_character",
    "finite_dimensional_class",
    "matrix_entries",
]


def _report(check, params, status, witness=None):
    if status == "mismatch" and witness is None:
        raise AssertionError("mismatch reports must carry a witness")
    out = {"check": check, "params": params, "status": status}
    if witness is not None:
        out["witness"] = witness
    return out


def matrix_entries(M, order) -> dict:
    """The nonzero entries of M as {"[row]|[col]": canonical Scalar string}."""
    return {
        f"{list(nu)}|{list(la)}": str(M[i][j])
        for i, nu in enumerate(order)
        for j, la in enumerate(order)
        if M[i][j]
    }


def _ser_sym(f: SymFunc) -> str:
    f = f.to_basis("s")
    keys = sorted(f.coeffs, key=lambda la: (len(la), la))
    return "; ".join(f"s{list(la)}: {f.coeffs[la]}" for la in keys)


# ---------------------------------------------------------------------------
# main conjecture
# ---------------------------------------------------------------------------


@functools.cache
def _bar_matrix(n: int, b: int) -> list:
    """fock.bar_matrix(n, b) once per process, looked up at call time so that a
    wrapper bound to fock.bar_matrix later still sees each (n, b) built."""
    return fock.bar_matrix(n, b)


def conjecture_check(n: int, wall) -> dict:
    """Renormalized crossing at the wall against the bar-involution matrix.

    The crossing entries are t-free scalars in the single variable q, which
    is identified with the Fock-space q; mismatch carries the first
    differing entry in row-dominance order.
    """
    w = Fraction(wall)
    params = {"n": n, "m": f"{w.numerator}/{w.denominator}", "b": w.denominator}
    R = stable.renormalized_crossing(n, w)
    order = enumerate_partitions(n)
    for row in R:
        for val in row:
            for _, et in val.num.terms():
                if et != 0:
                    return _report(
                        "conjecture", params, "mismatch",
                        {"reason": "renormalized entry not t-free", "entry": str(val)},
                    )
    A = _bar_matrix(n, w.denominator)
    for i, nu in enumerate(order):
        for j, la in enumerate(order):
            if R[i][j] != A[i][j]:
                witness = {
                    "row": list(nu),
                    "col": list(la),
                    "crossing": str(R[i][j]),
                    "bar": str(A[i][j]),
                }
                return _report("conjecture", params, "mismatch", witness)
    return _report("conjecture", params, "match", None)


# ---------------------------------------------------------------------------
# golden tables
# ---------------------------------------------------------------------------


def _a() -> Scalar:
    return q2(1) - q1(-1)


def _golden_tables() -> dict:
    """The tabulated wall matrices and Schur expansions, transcribed once.

    Keys are labels; values are the expected values themselves: a matrix
    (a list of rows of Scalars) or a SymFunc.
    """
    a = _a()
    den = one() - q2(2)
    g = {}
    # n=2 cumulative matrices from slope 0
    g["n2 matrix 1/2"] = [[one(), zero()], [a, one()]]
    g["n2 matrix 3/2"] = [
        [one(), zero()],
        [a + q2(2) * q1(-1) - q2(1) * q1(-2), one()],
    ]
    # n=2 Schur expansions
    g["n2 s0_(2)"] = s_((2,)).scale(one() / den) + s_((1, 1)).scale(q2(1) / den)
    g["n2 s0_(1,1)"] = s_((2,)).scale(q2(1) / den) + s_((1, 1)).scale(one() / den)
    g["n2 s(1/2+e)_(2)"] = s_((2,)).scale(one() + q2(1) / (q1(1) * den)) + s_(
        (1, 1)
    ).scale(one() / (q1(1) * den))
    g["n2 s(1/2+e)_(1,1)"] = g["n2 s0_(1,1)"]
    g["n2 s(3/2+e)_(2)"] = s_((2,)).scale(
        one() + q2(1) * q1(-1) + q2(2) / (q1(2) * den)
    ) + s_((1, 1)).scale(q1(-1) + q2(1) / (q1(2) * den))
    g["n2 s(3/2+e)_(1,1)"] = g["n2 s0_(1,1)"]
    # n=3 cumulative matrices from slope 0
    g["n3 matrix 1/3"] = [
        [one(), zero(), zero()],
        [a, one(), zero()],
        [q1(-2) - q2(1) * q1(-1), a, one()],
    ]
    g["n3 matrix 1/2"] = [
        [one(), zero(), zero()],
        [a, one(), zero()],
        [q1(-2) - q2(1) * q1(-2) + q2(2) * q1(-1) - q2(1) * q1(-1), a, one()],
    ]
    g["n3 matrix 2/3"] = [
        [one(), zero(), zero()],
        [q2(1) - q1(-1) + q2(1) * q1(-1) - q1(-2), one(), zero()],
        [
            q2(3) - q2(2) * q1(-1) + q2(1) * q1(-3) - q2(2) * q1(-2)
            + q1(-2) - q2(1) * q1(-1),
            q2(2) - q2(1) * q1(-1) + q2(1) - q1(-1),
            one(),
        ],
    ]
    return g


def appendix_check() -> dict:
    """Byte-exact comparison of everything the tables pin down.

    Covers: n=2 matrices at 1/2 and 3/2 with the displayed factorization,
    all n=2 Schur expansion lines, and the n=3 matrices at 1/3, 1/2, 2/3
    with their factorizations into single-wall factors.
    """
    F2 = Fraction
    g = _golden_tables()
    checks = []  # (label, got-serialized, want-serialized)

    def mat(n, m):
        return stable.transition_matrix(n, (F2(0), 1), (F2(m), 1))

    o2, o3 = enumerate_partitions(2), enumerate_partitions(3)
    checks.append(("n2 matrix 1/2", matrix_entries(mat(2, F2(1, 2)), o2),
                   matrix_entries(g["n2 matrix 1/2"], o2)))
    checks.append(("n2 matrix 3/2", matrix_entries(mat(2, F2(3, 2)), o2),
                   matrix_entries(g["n2 matrix 3/2"], o2)))
    # displayed factorization: cumulative 3/2 = (3/2 factor) * (1/2 factor)
    f12 = stable.transition_matrix(2, (F2(1, 2), -1), (F2(1, 2), 1))
    f32 = stable.transition_matrix(2, (F2(3, 2), -1), (F2(3, 2), 1))
    checks.append(("n2 factorization 3/2", matrix_entries(mat_mul(f32, f12), o2),
                   matrix_entries(g["n2 matrix 3/2"], o2)))

    seed2 = stable.printed_basis(2, (F2(0), 1))
    up12 = stable.printed_basis(2, (F2(1, 2), 1))
    up32 = stable.printed_basis(2, (F2(3, 2), 1))
    for label, printed, la in [
        ("n2 s0_(2)", seed2, (2,)),
        ("n2 s0_(1,1)", seed2, (1, 1)),
        ("n2 s(1/2+e)_(2)", up12, (2,)),
        ("n2 s(1/2+e)_(1,1)", up12, (1, 1)),
        ("n2 s(3/2+e)_(2)", up32, (2,)),
        ("n2 s(3/2+e)_(1,1)", up32, (1, 1)),
    ]:
        checks.append((label, _ser_sym(printed[la]), _ser_sym(g[label])))

    for m in (F2(1, 3), F2(1, 2), F2(2, 3)):
        label = f"n3 matrix {m.numerator}/{m.denominator}"
        checks.append((label, matrix_entries(mat(3, m), o3), matrix_entries(g[label], o3)))
    # factorizations: each cumulative is the ordered product of wall factors
    factors = {
        w: stable.transition_matrix(3, (w, -1), (w, 1))
        for w in (F2(1, 3), F2(1, 2), F2(2, 3))
    }
    prod = factors[F2(1, 3)]
    for w, label in [(F2(1, 2), "n3 factorization 1/2"),
                     (F2(2, 3), "n3 factorization 2/3")]:
        prod = mat_mul(factors[w], prod)
        want = g[f"n3 matrix {w.numerator}/{w.denominator}"]
        checks.append((label, matrix_entries(prod, o3), matrix_entries(want, o3)))

    for label, got, want in checks:
        if got != want:
            return _report(
                "appendix", {"checks": len(checks)}, "mismatch",
                {"label": label, "got": got, "want": want},
            )
    return _report("appendix", {"checks": len(checks)}, "match", None)


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------


def _series_coefficients(val: Scalar, order: int) -> dict:
    """Expand a rational scalar as a (q1, q2)-power series around 0.

    Since q1^a q2^b = q^(a+b) t^(a-b), a term's total (q1, q2)-degree is its
    q-exponent.  The denominator must have a unique corner term c dividing
    all others, that is |e_t - c_t| <= e_q - c_q for each of its terms
    (true for the products of (1 - monomial) factors these coefficients
    carry); raises ValueError when it does not, which the caller reports as
    a skip.  Returns {(a, b): coefficient} for total degree at most `order`
    above the lowest numerator term, ordered by total degree, then by a.
    """
    den = val.den.terms()
    if any(x.denominator != 1 for m in (*val.num.terms(), *den) for x in q1q2_exponents(m)):
        raise ValueError("fractional exponent")
    cq, ct = min(den)
    if any(abs(et - ct) > eq - cq for eq, et in den):
        raise ValueError("denominator has no dominant corner")

    def cut(p, top):
        return LaurentPoly({m: v for m, v in p.terms().items() if m[0] <= top})

    # 1/den = unit * sum_j rest^j, every term of rest of positive degree
    unit = LaurentPoly.term(Fraction(1, den[cq, ct]), -cq, -ct)
    rest = LaurentPoly.one() - val.den * unit
    series = power = LaurentPoly.one()
    for _ in range(order):
        power = cut(power * rest, order)
        if not power:
            break
        series = series + power
    num = val.num * unit
    low = min((eq for eq, _ in num.terms()), default=0)
    out = cut(num * series, low + order).terms()
    return {tuple(map(int, q1q2_exponents(m))): out[m] for m in sorted(out)}


def positivity_report(n: int, slope, order: int = 8) -> dict:
    """Schur-positivity of the stable basis at the slope, to a series order.

    Expands every Schur coefficient of every printed basis element as a
    power series (the renormalization factor is a single monomial, so it
    cannot affect signs and is left out) and reports the first negative
    coefficient found, if any.
    """
    m, side = slope
    params = {"n": n, "m": str(Fraction(m)), "side": side, "order": order}
    if Fraction(m) <= 0:
        return _report("positivity", params, "skipped",
                       {"reason": "positive slopes only"})
    for la, f in stable.printed_basis(n, slope).items():
        # partition order, so the witness does not depend on how f was built
        for mu in enumerate_partitions(n):
            coef = f.coeffs.get(mu)
            if coef is None:
                continue
            try:
                series = _series_coefficients(coef, order)
            except ValueError as err:
                return _report("positivity", params, "skipped",
                               {"reason": str(err), "la": list(la),
                                "mu": list(mu)})
            for (a, b), v in series.items():
                if v < 0:
                    witness = {"la": list(la), "mu": list(mu),
                               "monomial": f"q1^{a} q2^{b}", "coefficient": str(v)}
                    return _report("positivity", params, "mismatch", witness)
    return _report("positivity", params, "match", None)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def verma_character(m, la) -> SymFunc:
    """t^(-m c_la) (1-t) s_la[X/(1-t)], the graded standard character: the
    Laurent Schur coefficients of (t; t)_n s_la[X/(1-t)], each divided once."""
    la = tuple(la)
    t = lambda k: monomial(1, 0, k)
    pref = monomial(1, 0, -Fraction(m) * content_sum(la)) * (one() - t(1))
    return stable._cleared_schur(la, t).scale(pref / stable._poch(t, sum(la)))


def _normalize_top(f: SymFunc) -> SymFunc:
    """Scale so the dominance-largest Schur coefficient is 1*(monomial-free).

    The class is only defined up to an overall unit, so this is a
    reporting convention: divide by the (q1, q2)-content monomial of the
    top coefficient (and by its rational content).  A genuinely
    non-monomial top coefficient like q1 + q2 survives intact; a monomial
    one becomes exactly 1.  A top coefficient that is not a Laurent
    polynomial raises ArithmeticError: the classes have Laurent
    coefficients.
    """
    f = f.to_basis("s")
    n = sum(next(iter(f.coeffs)))
    top = next(la for la in enumerate_partitions(n) if f.coeffs.get(la))
    coef = f.coeffs[top]
    if not coef.den.is_one():
        raise ArithmeticError(f"top Schur coefficient of s_{top} is not Laurent: {coef}")
    terms = coef.num.terms()
    amin, bmin = map(min, zip(*map(q1q2_exponents, terms)))
    cs = terms.values()
    content = Fraction(math.gcd(*(c.numerator for c in cs)),
                       math.lcm(*(c.denominator for c in cs)))
    lead = terms[min(terms)]
    if lead < 0:
        content = -content
    return f.scale(one() / monomial(content, amin + bmin, amin - bmin))


def finite_dimensional_class(a: int, b: int):
    """(raw, reduced) class of the finite-dimensional simple at slope a/b.

    Raw is sum over hook partitions la of b of (-q)^(-height) times the
    renormalized stable element at slope a/b + eps; reduced strips the
    overall monomial per the reporting convention.  The hook weights are
    summed in the columns of the transition matrix to slope 0 first, so
    one printed sum builds the class and no unused element is expanded.
    """
    m = Fraction(a, b)
    if m <= 0 or b < 1:
        raise ValueError("need a positive slope a/b")
    order = enumerate_partitions(b)
    T = stable.transition_matrix(b, (m, 1), (Fraction(0), 1))
    coeffs = dict.fromkeys(order, zero())
    for la in hook_partitions(b):
        h = len(la) - 1
        w = monomial((-1) ** h, -h, 0) * stable.renorm_factor(la, m)
        j = order.index(la)
        for i, nu in enumerate(order):
            if T[i][j]:
                coeffs[nu] = coeffs[nu] + w * T[i][j]
    total = stable.printed_sum(coeffs)
    return total, _normalize_top(total)
