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
The inverse X = T(1/q)^(-1) is taken over Q(q), but A is Laurent, so the
product stays in Laurent arithmetic: each column of X goes over one common
denominator D_j, and A_ij = (sum_l T_il X_lj D_j) / D_j is one exact
division.  canonical_basis runs the triangular recursion producing the
global canonical bases G^+/G^-.
"""

from __future__ import annotations

from .linalg import RankAccumulator, mat_inverse
from .partitions import (
    Partition,
    b_core,
    conjugate,
    dominates,
    enumerate_partitions,
    horizontal_strips,
    i_nodes,
)
from .scalars import LaurentPoly, Scalar, laurent_gcd, monomial, one, zero

__all__ = [
    "vacuum",
    "apply_f",
    "apply_V",
    "bar_matrix",
    "canonical_basis",
    "lt_property_check",
    "bar_vector",
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


def _laurent_product(T: list, X: list, n: int, b: int) -> list:
    """T X for Laurent T, over one common denominator per column of X.

    D_j, the lcm of the denominators in column j of X, makes the numerators
    N_lj = X_lj D_j Laurent, so A_ij = (sum_l T_il N_lj) / D_j takes
    LaurentPoly products and sums, then one exact division.  A division
    that is not exact means A is not Laurent, which the structure theorem
    forbids: ArithmeticError, never a fall back to Q(q).
    """
    if not all(c.is_laurent() for row in T for c in row):
        raise ArithmeticError(f"spanning vectors at n={n}, b={b} are not Laurent")
    rows = [[c.num for c in row] for row in T]
    A = [[] for _ in rows]
    for j in range(len(X)):
        col = [X[l][j] for l in range(len(X))]
        D = LaurentPoly.one()
        for x in col:
            if not x.den.is_one() and x.den != D:
                D = D * x.den.exact_div(laurent_gcd(D, x.den))
        cofactor = {d: D.exact_div(d) for d in {x.den for x in col if x}}
        N = [(l, x.num * cofactor[x.den]) for l, x in enumerate(col) if x]
        for i, row in enumerate(rows):
            acc = LaurentPoly()
            for l, nl in N:
                if row[l]:
                    acc = acc + row[l] * nl
            if acc and not D.is_one():
                try:
                    acc = acc.exact_div(D)
                except ArithmeticError:
                    order = enumerate_partitions(n)
                    raise ArithmeticError(
                        f"bar matrix at n={n}, b={b} is not Laurent: "
                        f"a[{order[j]}][{order[i]}] has a denominator"
                    ) from None
            A[i].append(Scalar.from_laurent(acc))
    return A


def bar_matrix(n: int, b: int) -> list:
    """A(q) with entry [row mu][col la] = coefficient of |mu> in bar(|la>).

    Computed as T(q) T(1/q)^(-1) from any spanning set of bar-invariant
    vectors; the involution is unique, so the choice of vectors is
    immaterial.  The inverse is taken over Q(q); the product runs in Laurent
    arithmetic over one common denominator per column (_laurent_product).
    """
    if b < 2:
        raise ValueError(f"the level b must be at least 2, got {b}")
    if n == 0:
        return [[one()]]
    T = _spanning_matrix(n, b)
    Tbar = [[c.bar() for c in row] for row in T]
    A = _laurent_product(T, mat_inverse(Tbar, one(), zero()), n, b)
    bad = lt_property_check(A, n, b)
    if bad:
        raise ArithmeticError(
            f"bar matrix at n={n}, b={b} violates its structure theorem: {bad[:3]}"
        )
    return A


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
    bad = []
    for i, mu in enumerate(order):
        for j, la in enumerate(order):
            a = A[i][j]
            if not a.is_laurent():
                bad.append(f"(a) a[{la}][{mu}] has a denominator: {a}")
                continue
            if any(c.denominator != 1 for c in a.num.terms().values()):
                bad.append(f"(a) a[{la}][{mu}] has non-integer coefficients: {a}")
            if any(m.exp_t for m in a.num.terms()):
                bad.append(f"(a) a[{la}][{mu}] is not q-only: {a}")
            if i == j:
                if a != one():
                    bad.append(f"(c) diagonal at {la} is {a}, not 1")
            elif a:
                if not (dominates(la, mu) and la != mu):
                    bad.append(f"(b) support violation: {mu} not below {la}")
                if b_core(la, b) != b_core(mu, b):
                    bad.append(f"(b) b-core mismatch between {la} and {mu}")
            sym = A[pos[conjugate(la)]][pos[conjugate(mu)]]
            if a != sym:
                bad.append(f"(d) a[{la}][{mu}] != a[{mu}'][{la}']")
    return bad


# ---------------------------------------------------------------------------
# global canonical bases
# ---------------------------------------------------------------------------


def _antisymmetric_parts(c: Scalar) -> dict:
    """coefficients c_k of c = sum_k c_k (q^k - q^(-k)); errors if not odd."""
    if not c.is_laurent():
        raise ArithmeticError(f"canonical recursion hit a non-polynomial entry {c}")
    terms = {m.exp_q: coef for m, coef in c.num.terms().items()}
    if terms.get(0):
        raise ArithmeticError(f"no antisymmetric splitting for {c}: constant term")
    pos = {k: v for k, v in terms.items() if k > 0}
    for k, v in pos.items():
        if terms.get(-k) != -v:
            raise ArithmeticError(f"no antisymmetric splitting for {c}")
    return pos


def canonical_basis(n: int, b: int, sign: str) -> list:
    """d-matrix of the global canonical basis G^sign, same layout as bar_matrix.

    Column mu holds G(mu) in the standard basis: bar-invariant, equal to
    |mu> plus strictly dominance-smaller terms whose coefficients lie in
    q Z[q] (sign '+') or 1/q Z[1/q] (sign '-').
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    order = enumerate_partitions(n)
    A = bar_matrix(n, b)
    done: dict = {}
    for mu in reversed(order):  # ascending: dominance-smaller first
        u = {mu: one()}
        while True:
            v = bar_vector(u, A, n)
            for la, c in u.items():
                _add_term(v, la, -c)
            if not v:
                break
            star = next(la for la in order if la in v)  # dominance-maximal
            coeffs = _antisymmetric_parts(v[star])
            alpha = zero()
            for k, ck in coeffs.items():
                e = k if sign == "+" else -k
                alpha = alpha + monomial(ck if sign == "+" else -ck, e, 0)
            for la, c in done[star].items():
                _add_term(u, la, alpha * c)
        done[mu] = u
    return [[done[mu].get(la, zero()) for mu in order] for la in order]
