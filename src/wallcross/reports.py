"""Reports read off the layers: golden tables, positivity, characters,
printed and canonical bases, and the LaTeX emitter.

No step of the chamber, Fock or conjecture paths runs this module, so the
command line imports it only in the commands that use it and for --format
latex: a run of conjecture-check, stable or fock-bar, most of which is
start-up, never loads it.  Layer functions are called through their modules
(stable.transition_matrix, fock.bar_matrix), so a wrapper bound to one later
still sees each call.  Reports have verify's Report shape (verify._report).

Printed elements.  At any slope, P_la = sum over nu of T[nu][la] (1 - q2)
s_nu[X/(1 - q2)], T the transition matrix to slope 0 (printed_basis).
Each seed is kept as (q2; q2)_n s_nu[X/(1 - q2)], whose Schur coefficients
are Laurent, so a sum over nu adds Laurent polynomials and is divided once
(printed_sum).  The graded standard characters take the same route with t
for q2 (verma_character).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import fock, stable, verify
from .linalg import mat_mul
from .partitions import Partition, content_sum, enumerate_partitions, hook_partitions
from .scalars import LaurentPoly, Scalar, monomial, one, q1, q1q2_exponents, q2, zero
from .symfunc import SymFunc, _expand, s_

__all__ = [
    "printed_sum",
    "printed_basis",
    "appendix_check",
    "positivity_report",
    "verma_character",
    "finite_dimensional_class",
    "canonical_basis",
]


# ---------------------------------------------------------------------------
# printed elements
# ---------------------------------------------------------------------------


def _poch(u, n: int) -> Scalar:
    """(u; u)_n = prod over k <= n of (1 - u(k)), u(k) the monomial u^k."""
    return math.prod((one() - u(k) for k in range(1, n + 1)), start=one())


@functools.cache
def _poch_quotient(mu: Partition) -> LaurentPoly:
    """(u; u)_n / prod_i (1 - u^mu_i) for mu |- n, a polynomial in u, here u = q.

    prod_i (1 - u^mu_i) divides (u; u)_n (a q-multinomial quotient), so one
    exact division gives it, once per mu."""
    factor = [LaurentPoly.one() - LaurentPoly.term(1, k) for k in range(sum(mu) + 1)]
    prod = lambda ks: math.prod((factor[k] for k in ks), start=LaurentPoly.one())
    return prod(range(1, sum(mu) + 1)).exact_div(prod(mu))


def _cleared_schur(nu: Partition, u) -> SymFunc:
    """(u; u)_n s_nu[X/(1 - u)] in s, n = |nu|, u(k) the monomial u^k.

    Its p-coefficient at mu is chi^nu(mu)/z_mu times _poch_quotient(mu) at
    u, a Laurent polynomial, so the p -> s step multiplies and adds
    Laurent polynomials and no step takes a gcd."""
    eq, et = u(1).num.leading()[0]
    at_u = lambda m: (m[0] * eq, m[0] * et)
    p = {mu: Scalar.from_laurent(c.num * _poch_quotient(mu).map_exponents(at_u))
         for mu, c in s_(nu).to_basis("p").coeffs.items()}
    return SymFunc("p", p).to_basis("s")


@functools.cache
def _printed_seed(nu: Partition) -> SymFunc:
    """The printed element nu at slope 0 times (q2; q2)_n / (1 - q2), in s."""
    return _cleared_schur(nu, q2)


def printed_sum(coeffs: dict) -> SymFunc:
    """sum over nu of coeffs[nu] (1 - q2) s_nu[X/(1 - q2)]: Laurent coeffs add
    without a gcd against the Laurent seeds, and each sum is divided once."""
    coeffs = {nu: c for nu, c in coeffs.items() if c}
    total = SymFunc("s", _expand(coeffs, lambda nu: _printed_seed(nu).coeffs))
    return total.scale((one() - q2(1)) / _poch(q2, sum(next(iter(coeffs), ()))))


def printed_basis(n: int, slope) -> dict:
    """The printed-frame basis elements at the slope point, {la: Schur expansion}.

    P_la = sum over nu of T[nu][la] (1 - q2) s_nu[X/(1 - q2)], with
    T = stable.transition_matrix(n, slope, (0, +1)).  The identity is
    exact.  Restriction to the fixed points is linear and injective, so the
    class behind a table row at the slope is the same combination of the
    seed classes that its row is of the seed rows, and T is that combination
    in the printed frame.  The printed seed element is
    (1 - q2) omega(s_nu'[X/(1 - q2)]), the seed class c_nu s_nu'[X/(1 - q2)]
    with omega applied and rho_nu = c_nu/(1 - q2) divided out, and it equals
    (1 - q2) s_nu[X/(1 - q2)]: omega commutes with p_k -> p_k/(1 - q2^k),
    both maps being diagonal on power sums.
    """
    order = enumerate_partitions(n)
    T = stable.transition_matrix(n, slope, (Fraction(0), 1))
    return {la: printed_sum({nu: T[i][j] for i, nu in enumerate(order)})
            for j, la in enumerate(order)}


# ---------------------------------------------------------------------------
# golden tables
# ---------------------------------------------------------------------------


def _ser_sym(f: SymFunc) -> str:
    f = f.to_basis("s")
    keys = sorted(f.coeffs, key=lambda la: (len(la), la))
    return "; ".join(f"s{list(la)}: {f.coeffs[la]}" for la in keys)


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
    entries = verify.matrix_entries
    checks = []  # (label, got-serialized, want-serialized)

    def mat(n, m):
        return stable.transition_matrix(n, (F2(0), 1), (F2(m), 1))

    o2, o3 = enumerate_partitions(2), enumerate_partitions(3)
    checks.append(("n2 matrix 1/2", entries(mat(2, F2(1, 2)), o2),
                   entries(g["n2 matrix 1/2"], o2)))
    checks.append(("n2 matrix 3/2", entries(mat(2, F2(3, 2)), o2),
                   entries(g["n2 matrix 3/2"], o2)))
    # displayed factorization: cumulative 3/2 = (3/2 factor) * (1/2 factor)
    f12 = stable.transition_matrix(2, (F2(1, 2), -1), (F2(1, 2), 1))
    f32 = stable.transition_matrix(2, (F2(3, 2), -1), (F2(3, 2), 1))
    checks.append(("n2 factorization 3/2", entries(mat_mul(f32, f12), o2),
                   entries(g["n2 matrix 3/2"], o2)))

    seed2 = printed_basis(2, (F2(0), 1))
    up12 = printed_basis(2, (F2(1, 2), 1))
    up32 = printed_basis(2, (F2(3, 2), 1))
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
        checks.append((label, entries(mat(3, m), o3), entries(g[label], o3)))
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
        checks.append((label, entries(prod, o3), entries(want, o3)))

    for label, got, want in checks:
        if got != want:
            return verify._report(
                "appendix", {"checks": len(checks)}, "mismatch",
                {"label": label, "got": got, "want": want},
            )
    return verify._report("appendix", {"checks": len(checks)}, "match", None)


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
        return verify._report("positivity", params, "skipped",
                              {"reason": "positive slopes only"})
    for la, f in printed_basis(n, slope).items():
        # partition order, so the witness does not depend on how f was built
        for mu in enumerate_partitions(n):
            coef = f.coeffs.get(mu)
            if coef is None:
                continue
            try:
                series = _series_coefficients(coef, order)
            except ValueError as err:
                return verify._report("positivity", params, "skipped",
                                      {"reason": str(err), "la": list(la),
                                       "mu": list(mu)})
            for (a, b), v in series.items():
                if v < 0:
                    witness = {"la": list(la), "mu": list(mu),
                               "monomial": f"q1^{a} q2^{b}", "coefficient": str(v)}
                    return verify._report("positivity", params, "mismatch", witness)
    return verify._report("positivity", params, "match", None)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def verma_character(m, la) -> SymFunc:
    """t^(-m c_la) (1-t) s_la[X/(1-t)], the graded standard character: the
    Laurent Schur coefficients of (t; t)_n s_la[X/(1-t)], each divided once."""
    la = tuple(la)
    t = lambda k: monomial(1, 0, k)
    pref = monomial(1, 0, -Fraction(m) * content_sum(la)) * (one() - t(1))
    return _cleared_schur(la, t).scale(pref / _poch(t, sum(la)))


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
    total = printed_sum(coeffs)
    return total, _normalize_top(total)


# ---------------------------------------------------------------------------
# global canonical bases
# ---------------------------------------------------------------------------


def _antisymmetric_parts(c: Scalar) -> dict:
    """coefficients c_k of c = sum_k c_k (q^k - q^(-k)); errors if not odd."""
    if not c.is_laurent():
        raise ArithmeticError(f"canonical recursion hit a non-polynomial entry {c}")
    terms = {eq: coef for (eq, _), coef in c.num.terms().items()}
    if terms.get(0):
        raise ArithmeticError(f"no antisymmetric splitting for {c}: constant term")
    pos = {k: v for k, v in terms.items() if k > 0}
    for k, v in pos.items():
        if terms.get(-k) != -v:
            raise ArithmeticError(f"no antisymmetric splitting for {c}")
    return pos


def canonical_basis(n: int, b: int, sign: str) -> list:
    """d-matrix of the global canonical basis G^sign, same layout as fock.bar_matrix.

    Column mu holds G(mu) = sum_la d_la |la>: bar-invariant, d_mu = 1, every
    other d_la in q Z[q] (sign '+') or 1/q Z[1/q] (sign '-').  A[la][nu] is 0
    unless nu = la (where it is 1) or nu strictly dominates la, so
    bar-invariance reads d_la - bar(d_la) = r_la = sum_(nu != la) A[la][nu]
    bar(d_nu), over la < nu <= mu.  enumerate_partitions order refines
    dominance, so one pass down the column knows r_la on reaching la, and
    d_la is the q-positive part of r_la ('+') or minus its q-negative part
    ('-'); ArithmeticError if r_la is not antisymmetric.  Coordinates before
    mu vanish by A's support, so each column is exactly bar-invariant.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    s = 1 if sign == "+" else -1
    A = fock.bar_matrix(n, b)
    N = len(A)
    D = [[one() if i == j else zero() for j in range(N)] for i in range(N)]
    for j in range(N):
        bars = {j: one()}  # row -> bar of its nonzero entry in column j
        for i in range(j + 1, N):
            r = zero()
            for k, c in bars.items():
                if A[i][k]:
                    r = r + A[i][k] * c
            parts = _antisymmetric_parts(r)
            if parts:
                D[i][j] = Scalar.from_laurent(
                    LaurentPoly({(s * k, 0): s * c for k, c in parts.items()}))
                bars[i] = D[i][j].bar()
    return D


# ---------------------------------------------------------------------------
# LaTeX
# ---------------------------------------------------------------------------


def _latex_monomial(m) -> str:
    a, b = q1q2_exponents(m)
    if a.denominator == 1 and b.denominator == 1:
        pairs = [("q_1", int(a)), ("q_2", int(b))]
    else:
        pairs = [("q", m[0]), ("t", m[1])]
    body = " ".join(
        var if e == 1 else f"{var}^{{{e}}}" for var, e in pairs if e
    )
    return body


def _latex_scalar(v: Scalar) -> str:
    def poly(L):
        parts = []
        for mono, c in sorted(L.terms().items(), reverse=True):
            body = _latex_monomial(mono)
            mag = abs(c)
            if mag.denominator != 1:
                coef = f"\\tfrac{{{mag.numerator}}}{{{mag.denominator}}}"
            elif mag == 1 and body:
                coef = ""
            else:
                coef = str(mag)
            piece = coef + (" " if coef and body else "") + body
            parts.append(("-" if c < 0 else "+", piece or "1"))
        if not parts:
            return "0"
        sign, first = parts[0]
        text = ("-" if sign == "-" else "") + first
        for sign, piece in parts[1:]:
            text += f" {sign} {piece}"
        return text

    if v.den.is_one():
        return poly(v.num)
    return f"\\frac{{{poly(v.num)}}}{{{poly(v.den)}}}"


def _latex_sym(coeffs: dict) -> str:
    keys = sorted(coeffs, key=lambda la: (len(la), tuple(-p for p in la)))
    parts = []
    for la in keys:
        sub = "".join(str(p) for p in la)
        c = _latex_scalar(coeffs[la])
        if c == "1":
            parts.append(f"s_{{{sub}}}")
        elif any(op in c for op in (" + ", " - ")) or c.startswith("\\frac"):
            parts.append(f"\\left({c}\\right) s_{{{sub}}}")
        else:
            parts.append(f"{c} \\, s_{{{sub}}}")
    return " + ".join(parts) if parts else "0"
