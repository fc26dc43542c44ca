"""The q-Fock space for U_q(gl-hat_b).

Vectors are finite dicts Partition -> Scalar whose values are Laurent
polynomials in q alone (the t-direction is never touched here).  The
standard action is the Kashiwara-Miwa-Stern one, and every operator is a
bead move on the abacus: f_i adds an i-node (content congruent to i mod b)
with exponent N^r counting addable-minus-removable i-nodes strictly right
of the new node, read off by partitions.i_nodes, and the Heisenberg
operators V_k add or remove horizontal k-strips of b-ribbons weighted by
(-q)^(-spin), read off by partitions.horizontal_strips.

bar_matrix spans each degree by bar-invariant vectors (the f_i and V_k
applied to the vectors kept at the degrees below, starting from the vacuum),
writes the degree-n ones in a matrix T, and returns A = T(q) T(1/q)^(-1).
Nothing is inverted over Q(q): at one integer point q = xi, T(1/xi) is
inverted over Fraction and A(xi) is one product of integer matrices over a
common denominator, each entry is read back from its balanced base-xi
digits, and a coefficient bound on A T(1/q) - T proves the result exact
(or xi is squared and the point retried).  reports.canonical_basis reads
the global canonical bases G^+/G^- off A in one triangular pass down each
column.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .linalg import RankAccumulator, mat_inverse, mat_mul
from .partitions import (
    Partition,
    b_core,
    conjugate,
    dominates,
    enumerate_partitions,
    horizontal_strips,
    i_nodes,
)
from .scalars import LaurentPoly, Scalar, balanced_digits, monomial, one, zero

__all__ = [
    "vacuum",
    "apply_f",
    "apply_V",
    "bar_matrix",
    "lt_property_check",
]


def vacuum() -> dict:
    return {(): one()}


def _add_term(out: dict, la: Partition, c: Scalar) -> None:
    acc = out.get(la)
    acc = c if acc is None else acc + c
    if acc:
        out[la] = acc
    else:
        out.pop(la, None)


def apply_f(i: int, v: dict, b: int) -> dict:
    """f_i: add an i-node with coefficient q^n, n as in partitions.i_nodes."""
    if not 0 <= i < b:
        raise ValueError(f"generator index {i} out of range for b={b}")
    out: dict = {}
    for mu, c in v.items():
        for la, n in i_nodes(mu, i, b):
            _add_term(out, la, c * monomial(1, n, 0))
    return out


def apply_V(k: int, v: dict, b: int) -> dict:
    """V_k (k > 0 creates, k < 0 annihilates) with coefficient (-q)^(-spin)."""
    if k == 0:
        raise ValueError("V_0 is the identity's generating-series constant; use k != 0")
    out: dict = {}
    for la, c in v.items():
        for target, sp in horizontal_strips(la, abs(k), b, down=k < 0):
            _add_term(out, target, c * monomial((-1) ** sp, -sp, 0))
    return out


# ---------------------------------------------------------------------------
# bar involution
# ---------------------------------------------------------------------------


def _generators(b: int, n: int) -> list:
    """(label, degree) pairs: f_0 < ... < f_(b-1) < V_1 < V_2 < ..."""
    gens = [(("f", i), 1) for i in range(b)]
    gens += [(("V", k), k * b) for k in range(1, n // b + 1)]
    return gens


def _apply_gen(gen, v: dict, b: int) -> dict:
    kind, i = gen
    return apply_f(i, v, b) if kind == "f" else apply_V(i, v, b)


def _spanning_matrix(n: int, b: int) -> list:
    """Columns: bar-invariant vectors spanning degree n, closed degree by degree.

    Degree d is spanned by each generator applied to the vectors kept at
    degree d - deg(gen), in generator order; the generators are linear, so
    every word of degree d lands in that span.  A vector is kept only if it
    enlarges its degree's span, tracked by incremental elimination over the
    exact scalar field.
    """
    gens = _generators(b, n)
    kept = [[vacuum()]]
    for d in range(1, n + 1):
        order = enumerate_partitions(d)
        idx = {la: j for j, la in enumerate(order)}
        acc = RankAccumulator()
        cols = []
        images = (_apply_gen(gen, v, b) for gen, g in gens if g <= d for v in kept[d - g])
        for w in images:
            if acc.add({idx[la]: c for la, c in w.items()}):
                cols.append(w)
                if len(cols) == len(order):
                    break
        kept.append(cols)
    if len(cols) < len(order):
        raise ArithmeticError(
            f"bar-invariant words span only {len(cols)} of {len(order)} dimensions "
            f"at n={n}, b={b}"
        )
    return [[w.get(la, zero()) for w in cols] for la in order]


# The first point of bar_matrix's evaluation; a power of two, squared while too small.
_XI = 2**32


def _integral(T: list, n: int, b: int) -> list:
    """T's entries as dicts {q-exponent: int}.

    ArithmeticError unless each entry is a Laurent polynomial in q alone
    with integer exponents and coefficients, which the evaluation needs.
    """
    out = []
    for row in T:
        out.append([])
        for c in row:
            if not c.is_laurent():
                raise ArithmeticError(f"spanning vectors at n={n}, b={b} are not Laurent")
            terms = c.num.terms()
            if any(x.denominator != 1 or eq.denominator != 1 or et
                   for (eq, et), x in terms.items()):
                raise ArithmeticError(f"spanning vectors at n={n}, b={b} are not in Z[q, 1/q]")
            out[-1].append({int(eq): int(x) for (eq, _), x in terms.items()})
    return out


def _at(p: dict, x: Fraction) -> Fraction:
    """p at q = x; x is a Fraction, so negative powers stay exact."""
    return sum((c * x**e for e, c in p.items()), Fraction(0))


def _digits(x: Fraction, xi: int):
    """{e: d} with x = sum_e d xi^e and -xi/2 < d <= xi/2, or None when the
    reduced denominator of x divides no power of xi."""
    num, den, k = x.numerator, x.denominator, 0
    while den != 1:
        g = gcd(den, xi)
        if g == 1:
            return None
        den //= g
        num *= xi // g
        k += 1
    return {e: d for e, d in enumerate(balanced_digits(num, xi), -k) if d}


def _norm1(P: list) -> list:
    return [[sum(map(abs, p.values())) for p in row] for row in P]


def _cap(T: list, norms: list) -> int:
    """A bound that sum_l |A_il|_1 |T_lj|_1 + |T_ij|_1 meets if A is in Z[q, 1/q].

    A_ij det T(1/q) = N_ij with N = T adj T(1/q).  Expanding the minors,
    |N_ij|_1 <= R_i prod_(r != j) R_r (R_r the sum of row r of norms) and
    N_ij spans at most 2S exponents (S the sum of the rows' exponent spans).
    An A_ij in Z[q, 1/q] divides N_ij there, so Landau-Mignotte gives
    |A_ij|_1 <= 2^(2S) |N_ij|_1 <= H = 2^(2S) max_r R_r prod_r R_r, and the
    bound is at most H (C + 1), C the largest column sum of norms.
    """
    rows = [sum(r) for r in norms]
    span = 0
    for row in T:
        exps = [e for p in row for e in p]
        span += max(exps) - min(exps)
    return 2 ** (2 * span) * max(rows) * prod(rows) * (max(map(sum, zip(*norms))) + 1)


def _bar_at(T: list, xi: int, n: int, b: int):
    """The balanced base-xi digits of each entry of T(xi) T(1/xi)^(-1), or
    None when T(1/xi) is singular; ArithmeticError when a reduced
    denominator divides no power of xi.

    With lo the least exponent in T (at most 0) and D the lcm of the
    denominators of X = T(1/xi)^(-1), both T(xi) xi^(-lo) and X D are
    integer matrices, so A(xi) is their integer product over xi^(-lo) D.
    """
    Tbar = [[_at(p, Fraction(1, xi)) for p in row] for row in T]
    try:
        X = mat_inverse(Tbar, Fraction(1), Fraction(0))
    except ValueError:  # det T(1/q) vanishes at xi
        return None
    lo = min(0, min(e for row in T for p in row for e in p))
    D = lcm(*(x.denominator for row in X for x in row))
    A = mat_mul([[sum(c * xi ** (e - lo) for e, c in p.items()) for p in row] for row in T],
                [[x.numerator * (D // x.denominator) for x in row] for row in X])
    scale = xi ** -lo * D
    for i, row in enumerate(A):
        for j, x in enumerate(row):
            row[j] = _digits(Fraction(x, scale), xi)
            if row[j] is None:
                order = enumerate_partitions(n)
                raise ArithmeticError(
                    f"bar matrix at n={n}, b={b} is not Laurent: "
                    f"a[{order[j]}][{order[i]}] has a denominator"
                )
    return A


def bar_matrix(n: int, b: int) -> list:
    """A(q) with entry [row mu][col la] = coefficient of |mu> in bar(|la>).

    A = T(q) T(1/q)^(-1) for any spanning set of bar-invariant vectors (the
    columns of T); the involution is unique, so the choice of vectors is
    immaterial.  Nothing is inverted over Q(q).  At an integer point q = xi,
    a power of two, mat_inverse takes T(1/xi)^(-1) over Fraction, _bar_at
    multiplies it into T(xi) as integers over one denominator, and each
    entry of A(xi) = T(xi) T(1/xi)^(-1) is read back as a Laurent
    polynomial A^ from its balanced base-xi digits (|digit| <= xi/2).

    Exact: E = A^ T(1/q) - T vanishes at xi by construction, and its integer
    coefficients are bounded by sum_l |A^_il|_1 |T_lj|_1 + |T_ij|_1 (|.|_1
    the sum of the absolute coefficients).  Shifted by a power of q, a
    nonzero E is a polynomial with a nonzero constant term c, and its value
    at xi is c mod xi; so a bound below xi/2 forces E = 0, that is A^ = A.
    When the bound is not below xi/2, or T(1/xi) is singular, xi is squared,
    as scalars._heu_gcd grows its point.

    Ends: T(1/q) is invertible over Q(q), so its determinant vanishes at
    finitely many xi.  An A in Z[q, 1/q] has A(xi) in Z[1/xi], its digits
    are its coefficients once xi/2 exceeds its height, and the bound then
    stops moving, so a large enough xi passes; _cap bounds that bound in
    advance, and a point past twice the cap that still fails proves A is
    not in Z[q, 1/q].  A non-Laurent entry P/Q (coprime, Q(0) != 0, Q not
    constant) usually shows sooner: the reduced denominator at xi is Q(xi)
    over a divisor of the resultant of P and Q, the power of two in Q(xi)
    is that of Q(0) once xi is past it, and the odd part of Q(xi) grows past
    the resultant, so the decoding meets a denominator that divides no power
    of xi.  Either way: ArithmeticError, never a fall back to Q(q).
    """
    if b < 2:
        raise ValueError(f"the level b must be at least 2, got {b}")
    if n == 0:
        return [[one()]]
    T = _integral(_spanning_matrix(n, b), n, b)
    norms = _norm1(T)
    cap = _cap(T, norms)
    xi = _XI
    while True:
        A = _bar_at(T, xi, n, b)
        if A is not None:
            bound = mat_mul(_norm1(A), norms)
            if all(2 * (e + t) < xi for er, tr in zip(bound, norms) for e, t in zip(er, tr)):
                break
            if xi > 2 * cap:
                raise ArithmeticError(
                    f"bar matrix at n={n}, b={b} is not Laurent with integer coefficients"
                )
        xi *= xi
    A = [[Scalar.from_laurent(LaurentPoly({(e, 0): d for e, d in p.items()}))
          for p in row] for row in A]
    bad = lt_property_check(A, n, b)
    if bad:
        raise ArithmeticError(
            f"bar matrix at n={n}, b={b} violates its structure theorem: {bad[:3]}"
        )
    return A


def lt_property_check(A: list, n: int, b: int) -> list:
    """Violations of the four structural properties of the bar matrix.

    (a) entries are Laurent polynomials in q with integer coefficients;
    (b) support: nonzero off-diagonal a_la^mu only for mu strictly dominated
        by la with the same b-core; (c) unit diagonal; (d) the conjugation
        symmetry a_la^mu = a_(mu')^(la').  Returns human-readable strings,
        empty when clean.
    """
    order = enumerate_partitions(n)
    pos = {la: j for j, la in enumerate(order)}
    conj = [pos[conjugate(la)] for la in order]
    cores = [b_core(la, b) for la in order]
    bad = []
    for i, mu in enumerate(order):
        for j, la in enumerate(order):
            a = A[i][j]
            if not a.is_laurent():
                bad.append(f"(a) a[{la}][{mu}] has a denominator: {a}")
                continue
            if any(c.denominator != 1 for c in a.num.terms().values()):
                bad.append(f"(a) a[{la}][{mu}] has non-integer coefficients: {a}")
            if any(et for _, et in a.num.terms()):
                bad.append(f"(a) a[{la}][{mu}] is not q-only: {a}")
            if i == j:
                if a != one():
                    bad.append(f"(c) diagonal at {la} is {a}, not 1")
            elif a:
                if not (dominates(la, mu) and la != mu):
                    bad.append(f"(b) support violation: {mu} not below {la}")
                if cores[j] != cores[i]:
                    bad.append(f"(b) b-core mismatch between {la} and {mu}")
            sym = A[conj[j]][conj[i]]
            if a != sym:
                bad.append(f"(d) a[{la}][{mu}] != a[{mu}'][{la}']")
    return bad
