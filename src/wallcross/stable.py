"""Stable bases of K-theory of the Hilbert schemes at rational slope points.

A slope point is (m, side) with m rational and side = +1 or -1, standing for
m + eps or m - eps.  A basis is stored as its table of fixed-point
restrictions, a list of rows with gamma[i][j] the restriction of element
la_i at the fixed point la_j, both indexed in enumerate_partitions(n) order
like every matrix in the package.  It is lower-triangular in dominance
order with the diagonal pinned to prod (q2^leg - q1^(arm+1)); the table
determines the basis and every operation here acts on tables.

Frames: the internal tables seed from c_la * s_{la'}[X/(1-q2)] (conjugate
Schur index), which is what makes them dominance-triangular; the printed
basis of the literature applies omega and a per-row scalar rho_la =
c_la/(1-q2) on top, which at slope 0 gives (1-q2) s_la[X/(1-q2)].
Transition matrices are emitted in the printed frame, columns indexing the
expanded basis element; reports.printed_basis expands the printed elements
at any slope over those at slope 0 by one such matrix, and rebuilds no
class from its table.

Wall crossing is a linear solve: the unknown unitriangular matrix B couples
rows within blocks where w*(c_la - c_mu) is an integer, and is pinned by
requiring every out-of-window t-power of the combined restrictions to
vanish on the target side of the wall.  Windows follow the degree_window
rounding rule below.  Each row's system is posed once, over the table's
q-degree range widened by 2b, b the denominator of w: it gives exactly one
solution for each of the 12,743 rows of every candidate wall for n = 2..8.
The solver demands existence and uniqueness and treats anything else as a
falsified axiom, not a soft failure.

One chamber sweep per n serves every slope: seed slope 0, walk the
candidate walls in (0, 1) in increasing order, keep the seed and (w, I + B)
for each wall with I + B != I, and check nabla-periodicity, that the last
table is nabla_shift(seed, 1): F G0 = D^-1 G0 D with G0 the seed table,
D = diag(chi) and F the ordered product of all factors I + B.  So the
table at k + r (k an integer, 0 <= r < 1) is D^-k L_r G0 D^k, L_r the
product of the factors below r, and no restriction table is inverted.
A candidate whose table already meets the windows above it has B = 0 and
is stepped over without a solve (see _sweep).  Every conjugation by a
diagonal of monomials (a nabla period, the printed frame, the
renormalization) is one _rescale.

The tables therefore sit on one chain.  With W walls in (0, 1), slope
k + r is at position k*W + p, p the number of walls below (r, side), and
the factor from position k*W + p to the next is D^-k F_p D^k, F_p the
I + B of wall p, numbered from 0.  The sweep keeps the seed, the factors
and the table above the last wall, which its nabla check proved equal to
the seed shifted once.  The table at k*W + p is the seed times the p
factors below, shifted k periods; as k*W + W is (k + 1)*W + 0, a top
chamber replays no factor, and for k >= 0 it is the last table shifted k.  A
transition matrix G1 G2^-1 is the ordered product of the factors between
the two positions, or of their inverses when slope1 lies below slope2; only
single unitriangular wall factors are ever inverted, each once per process.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .linalg import identity, mat_inverse, mat_mul, solve_rational
from .partitions import (
    Partition,
    arm,
    boxes,
    chi,
    conjugate,
    content_sum,
    dominates,
    enumerate_partitions,
    leg,
    n_stat,
    ribbon_decomposition,
)
from .scalars import Scalar, _exact, monomial, one, q1, q2, zero
from .symfunc import restrictions, s_, scale_powersums

__all__ = [
    "StableTable",
    "seed_slope0",
    "degree_window",
    "candidate_walls",
    "cross_wall",
    "nabla_shift",
    "stable_basis",
    "renorm_factor",
    "seed_normalizer",
    "transition_matrix",
    "renormalized_crossing",
    "is_wall",
]


def _slope(sl) -> tuple:
    m, side = sl
    m = Fraction(_exact(m))  # a float raises TypeError, as in every Scalar
    if side not in (1, -1):
        raise ValueError(f"slope side must be +1 or -1, got {side!r}")
    return (m, side)


class StableTable:
    """Restriction table of a stable basis at one slope point.

    gamma is a p(n) x p(n) list of rows in enumerate_partitions(n) order.
    Equality compares n and gamma but not the slope: _sweep's nabla check
    compares the table above the last candidate with the seed shifted to 1.
    """

    def __init__(self, n: int, slope, gamma: list):
        self.n = n
        self.slope = _slope(slope)
        self.gamma = gamma

    def __eq__(self, other):
        return (
            isinstance(other, StableTable)
            and self.n == other.n
            and self.gamma == other.gamma
        )

    def __repr__(self):
        return f"StableTable(n={self.n}, slope={self.slope})"


def diagonal_value(la: Partition) -> Scalar:
    """prod over boxes of (q2^l - q1^(a+1)): the pinned diagonal restriction."""
    out = one()
    for x, y in boxes(la):
        out = out * (q2(leg(la, x, y)) - q1(arm(la, x, y) + 1))
    return out


@functools.cache
def _diagonal_t_range(mu: Partition) -> tuple:
    """The t-degree range of diagonal_value(mu), built once per partition."""
    return diagonal_value(mu).t_degree_range()


@functools.cache
def _phi_factor(k: int) -> Scalar:
    return one() / (one() - q2(k))  # once per k, not once per power-sum part


def _phi_prime(f):  # p_k -> p_k/(1 - q2^k), the X/(1-q2) plethysm on power sums
    return scale_powersums(f, _phi_factor)


def seed_normalizer(la: Partition) -> Scalar:
    """c_la = q1^n(la') q2^n(la): the seed row's scale, checked by seed_slope0."""
    la = tuple(la)
    return q1(n_stat(conjugate(la))) * q2(n_stat(la))


def degree_window(la, mu, slope) -> tuple:
    """Allowed closed t-degree range [lower, upper] for gamma_la^mu.

    Rule: raw bounds are the t-range of the restricted diagonal gamma_mu^mu,
    shifted by (c_la - c_mu) + m*(c_mu - c_la); non-integer ends round
    inward, integer ends stay except that the side sign makes one boundary
    strict: lower bumps up when side*dc > 0, upper bumps down when
    side*dc < 0.  At mu = la this returns the diagonal range itself, both
    inequalities collapsing to equalities.

    The window has the same width as the t-range of gamma_mu^mu.  That is
    load-bearing: it is what pins each B entry of a wall crossing to a
    single t-degree (the difference of two in-window rows, minus smaller
    corrections, is a t-homogeneous multiple of the mu-diagonal), which in
    turn is what makes block-triangularity automatic and the crossing
    solvable with a zero-dimensional solution space.
    """
    m, side = _slope(slope)
    dc = content_sum(mu) - content_sum(la)
    d_min, d_max = _diagonal_t_range(tuple(mu))
    shift = -dc + m * dc
    lo, up = d_min + shift, d_max + shift
    if lo.denominator == 1:
        lower = int(lo) + (1 if side * dc > 0 else 0)
    else:
        lower = math.ceil(lo)
    if up.denominator == 1:
        upper = int(up) - (1 if side * dc < 0 else 0)
    else:
        upper = math.floor(up)
    return (lower, upper)


def _window_violation(table: StableTable, slope, block=None):
    """The first entry outside its window at the slope, as a message, or None.

    With block = w only the entries gamma_la^mu with w*(c_la - c_mu) a
    nonzero integer are read; _sweep says when that suffices.
    """
    order = enumerate_partitions(table.n)
    contents = [content_sum(la) for la in order]
    for la, c_la, row in zip(order, contents, table.gamma):
        for mu, c_mu, val in zip(order, contents, row):
            if not val:
                continue
            if block is not None:
                dc = c_la - c_mu
                if not dc or (block * dc).denominator != 1:
                    continue
            lo, hi = degree_window(la, mu, slope)
            tmin, tmax = val.t_degree_range()
            if tmin < lo or tmax > hi:
                return (f"window violation at {la}|{mu}: t-range [{tmin},{tmax}] "
                        f"outside [{lo},{hi}] at slope {slope}")
    return None


def _check_windows(table: StableTable, slope) -> None:
    violation = _window_violation(table, slope)
    if violation:
        raise ArithmeticError(violation)


def seed_slope0(n: int) -> StableTable:
    """The slope-0 table: rows are c_la * s_{la'}[X/(1-q2)] restricted."""
    order = enumerate_partitions(n)
    gamma = []
    for la in order:
        rows = restrictions(_phi_prime(s_(conjugate(la))), n)
        c = seed_normalizer(la)
        if c * rows[la] != diagonal_value(la):
            raise ArithmeticError(
                f"seed normalization at {la}: c_la times the restriction "
                f"{rows[la]} is not the diagonal {diagonal_value(la)}"
            )
        row = []
        for mu in order:
            val = rows[mu]
            if val:
                if not dominates(la, mu):
                    raise ArithmeticError(
                        f"seed row {la} is not dominance-triangular: hits {mu}"
                    )
                val = c * val
                if not val.is_laurent():
                    raise ArithmeticError(f"seed entry {la}|{mu} has a denominator: {val}")
            row.append(val)
        gamma.append(row)
    table = StableTable(n, (Fraction(0), 1), gamma)
    _check_windows(table, table.slope)
    return table


def candidate_walls(n: int, lo, hi) -> list:
    """Rationals a/b in (lo, hi) with b <= n(n-1) dividing a content gap."""
    lo, hi = Fraction(lo), Fraction(hi)
    parts = enumerate_partitions(n)
    gaps = {
        abs(content_sum(la) - content_sum(mu))
        for i, la in enumerate(parts)
        for mu in parts[i + 1 :]
    } - {0}
    walls = set()
    for b in range(2, n * (n - 1) + 1):
        if not any(g % b == 0 for g in gaps):
            continue
        a = math.floor(lo * b) + 1
        while Fraction(a, b) < hi:
            if math.gcd(abs(a), b) == 1:
                walls.add(Fraction(a, b))
            a += 1
    return sorted(walls)


def _row_terms(table) -> dict:
    """Each row's entries as (nu, exp_q, exp_t, coef) terms; raises on an
    entry that is not Laurent, since only numerators are read."""
    order = enumerate_partitions(table.n)
    out = {}
    for la, row in zip(order, table.gamma):
        terms = []
        for nu, val in zip(order, row):
            if not val:
                continue
            if not val.is_laurent():
                raise ArithmeticError(
                    f"cannot cross a wall from a table whose entry {la}|{nu} "
                    f"is not Laurent: {val}"
                )
            for (eq, et), coef in val.num.terms().items():
                terms.append((nu, eq, et, coef))
        out[la] = terms
    return out


def _solve_row(terms, la, partners, target, qlo, qhi) -> dict:
    """One row of B's strict part, la -> {mu: Scalar}: unknowns over the
    monomial support with q-degrees qlo..qhi, kill equations for out-of-window
    t-powers of the combined row (terms as _row_terms gives them).  Raises
    ArithmeticError unless the system has exactly one solution.

    The systems are triangular: at every wall up to n = 10 (measured) some
    equation is left with one unknown at each step, so solve_rational pins
    them all by substitution.  It raises if substitution stalls, and so does
    this, naming the wall and the row.

    Whether a term of mu's row shifted by q^j t^tau leaves its window depends
    on its nu and t-degree, not on j: the window test runs once per partner
    term, and every q-shift j reuses the short list of terms that leave."""
    m, _side = target
    # the combined row, keyed by (nu, exp_q, exp_t): its constant part and
    # its linear part {unknown index: coeff}; in-window keys pin nothing
    nus = {nu for mu in (la, *partners) for nu, _, _, _ in terms.get(mu, ())}
    window = {nu: degree_window(la, nu, target) for nu in nus}
    const = {}
    for nu, eq, et, coef in terms.get(la, ()):
        lo, hi = window[nu]
        if not lo <= et <= hi:
            const[nu, eq, et] = coef
    unknowns, lin = [], {}  # unknowns are (mu, tau, j)
    for mu in partners:
        # window width equals the mu-diagonal width, so the t-degree of
        # B_la^mu is forced: (c_la - c_mu) + m*(c_mu - c_la), an integer
        # because partners have m*(c_la - c_mu) integral
        dc = content_sum(mu) - content_sum(la)
        tau = int(-dc + m * dc)
        outside = []  # mu's terms shifted by tau that leave their window
        for nu, eq, et, coef in terms.get(mu, ()):
            lo, hi = window[nu]
            if not lo <= et + tau <= hi:
                outside.append((nu, eq, et + tau, coef))
        for j in range(qlo, qhi + 1):
            if (j - tau) % 2:  # Laurent in q1, q2 forces this parity
                continue
            ui = len(unknowns)
            unknowns.append((mu, tau, j))
            for nu, eq, et, coef in outside:
                slot = lin.get((nu, eq + j, et))
                if slot is None:
                    lin[nu, eq + j, et] = {ui: coef}
                else:
                    slot[ui] = coef  # one row's shifted terms are distinct keys
    # the order of the equations does not change the reduced row echelon form
    rows, rhs = [], []
    for key in [*const, *(key for key in lin if key not in const)]:
        row = [0] * len(unknowns)
        for ui, coef in lin.get(key, {}).items():
            row[ui] = coef
        rows.append(row)
        rhs.append(-const.get(key, 0))
    if unknowns and rows:
        try:
            part, nullity = solve_rational(rows, rhs)
        except ArithmeticError as e:
            raise ArithmeticError(f"no triangular B row for {la} at wall {m}: {e}") from e
    else:  # no unknowns: each equation is a nonzero constant; no equations: all free
        part, nullity = (None, 0) if rows else ([0] * len(unknowns), len(unknowns))
    if part is None:
        raise ArithmeticError(f"axioms unsatisfiable: no B row for {la} at wall {m} "
                              f"over q-degrees [{qlo}, {qhi}]")
    if nullity:
        raise ArithmeticError(f"uniqueness failure at wall {m}, row {la}: solution "
                              f"space has dimension {nullity}")
    brow = {}
    for ui, (mu, tau, j) in enumerate(unknowns):
        if part[ui]:
            brow[mu] = brow.get(mu, zero()) + monomial(part[ui], j, tau)
    return {mu: v for mu, v in brow.items() if v}


def cross_wall(table: StableTable, w) -> tuple:
    """Cross the wall at w to the other side; returns (new table, I + B).

    B is the unique strictly triangular matrix over the block support
    {w*(c_la - c_mu) integral} making every combined row (I + B) gamma land
    in the target side's windows.  B = 0 exactly when w is not a wall.
    """
    w = Fraction(w)
    m, side = table.slope
    upward = m < w or (m == w and side == -1)
    target = (w, 1 if upward else -1)
    order = enumerate_partitions(table.n)
    index = {la: i for i, la in enumerate(order)}
    terms = _row_terms(table)
    qs = [val.q_degree_range() for row in table.gamma for val in row if val]
    margin = 2 * w.denominator
    qlo, qhi = min(q[0] for q in qs) - margin, max(q[1] for q in qs) + margin
    gamma, factor = [], []
    for la, row in zip(order, table.gamma):
        partners = [
            mu
            for mu in order
            if mu != la
            and dominates(la, mu)
            and (w * (content_sum(la) - content_sum(mu))).denominator == 1
        ]
        brow = _solve_row(terms, la, partners, target, qlo, qhi)
        factor.append([one() if mu == la else brow.get(mu, zero()) for mu in order])
        row = list(row)
        for mu, coef in brow.items():  # row la of (I + B) gamma
            for j, val in enumerate(table.gamma[index[mu]]):
                if val:
                    row[j] = row[j] + coef * val
        gamma.append(row)
    return StableTable(table.n, target, gamma), factor


def _rescale(M, d) -> list:
    """diag(d)^-1 M diag(d): entry [i][j] times d[j]/d[i], zeros left as they are."""
    return [[x * dj / di if x else x for x, dj in zip(row, d)] for row, di in zip(M, d)]


def nabla_shift(table: StableTable, k: int) -> StableTable:
    """Slope shift by the integer k: D^-k gamma D^k, D = diag(chi)."""
    chis = [chi(la) ** k for la in enumerate_partitions(table.n)]
    m, side = table.slope
    return StableTable(table.n, (m + k, side), _rescale(table.gamma, chis))


@functools.cache
def _sweep(n: int) -> tuple:
    """(seed, [(w, I + B) for each wall in (0, 1)], table above the last
    wall), once per n: no table is kept per wall.

    A candidate w whose table already meets the windows at (w, +) is
    stepped over: B = 0 is then a solution of the crossing, and the only
    one, since the stable basis at (w, +) is unique, so the crossed table
    is the table itself.  Only the block entries, w*(c_la - c_mu) a nonzero
    integer, need reading.  The table meets the windows just above the
    previous candidate, and a window's rounding moves only at an m where
    m*(c_la - c_mu) is an integer (no entry with c_la = c_mu moves at all).
    Each such m in (0, 1) is an a/b with b dividing a content gap, hence a
    candidate, and the only candidate in (previous, w] is w.  The solver's
    nullity check therefore runs at the walls only, not at the candidates
    stepped over.  A candidate that fails the check is a wall: the failing
    entry is a nonzero constant in its row's system, so B != 0 or the solve
    raises.
    """
    seed = tbl = seed_slope0(n)
    walls = []
    for w in candidate_walls(n, 0, 1):
        if _window_violation(tbl, (w, 1), block=w) is None:
            tbl = StableTable(n, (w, 1), tbl.gamma)
            continue
        tbl, factor = cross_wall(tbl, w)
        walls.append((w, factor))
    if tbl != nabla_shift(seed, 1):
        raise ArithmeticError(f"nabla-periodicity fails at n={n}")
    return (seed, walls, tbl)


@functools.cache
def _factor_inverse(n: int, p: int) -> list:
    """(I + B)^-1 for wall p of the sweep (numbered from 0), inverted once per process."""
    return mat_inverse(_sweep(n)[1][p][1], one(), zero())


def _position(n: int, slope) -> int:
    """k*W + p: slope k + r on the chain of wall factors (see the module docstring)."""
    m, side = slope
    k = math.floor(m)
    walls = _sweep(n)[1]
    below = sum(1 for w, _ in walls if w < m - k or (w == m - k and side == 1))
    return k * len(walls) + below


def is_wall(n: int, w) -> bool:
    """Whether crossing w has a factor other than I: w mod 1 is among the swept walls."""
    return any(x == Fraction(w) % 1 for x, _ in _sweep(n)[1])


def stable_basis(n: int, slope) -> StableTable:
    """The table at any slope point, read off the chain (see the module
    docstring); position k*W + 0 with k > 0 is (k - 1)*W + W, a top chamber."""
    m, side = _slope(slope)
    seed, walls, top = _sweep(n)
    k, p = divmod(_position(n, (m, side)), len(walls)) if walls else (0, 0)
    gamma, k = (top.gamma, k - 1) if k > 0 and not p else (seed.gamma, k)
    for _, factor in walls[:p]:
        gamma = mat_mul(factor, gamma)
    tbl = StableTable(n, (m - k, side), gamma)
    return nabla_shift(tbl, k) if k else tbl


# ---------------------------------------------------------------------------
# renormalization and emission
# ---------------------------------------------------------------------------


def _ribbon_power(la, m: Fraction, reverse: bool = False) -> Fraction:
    b = m.denominator
    total = Fraction(0)
    for walk in ribbon_decomposition(la, b, reverse=reverse):
        for j, step in enumerate(walk, start=1):
            mj = m * j
            total += mj - math.floor(mj) if step == "R" else math.ceil(mj) - mj
    return total


def renorm_factor(la, m) -> Scalar:
    """o_la^m * prod over ribbons and steps of q^(#): a single monomial.

    o_la^m is the formal m-th power of the fixed-point weight chi_la; the
    ribbon product runs over a maximal set of b-ribbons of la minus its
    b-core, walked from the northwest end.  The result must not depend on
    which maximal ribbon set is peeled; both peeling orders are compared
    and disagreement is a hard error.
    """
    m = Fraction(m)
    la = tuple(la)
    b = m.denominator
    if b == 1:
        rib = Fraction(0)
    else:
        rib = _ribbon_power(la, m)
        alt = _ribbon_power(la, m, reverse=True)
        if alt != rib:
            raise ArithmeticError(
                f"renormalization at {la}, m={m} depends on the ribbon set: "
                f"{rib} vs {alt}"
            )
    eq = sum(x + y for x, y in boxes(la))
    et = sum(x - y for x, y in boxes(la))
    return monomial(1, m * eq + rib, m * et)


def transition_matrix(n: int, slope1, slope2):
    """Printed-frame matrix: column la expands basis(slope1)_la in basis(slope2).

    Entry [row nu][col la] = coefficient of the slope2 element nu.

    Internally it is G1 G2^-1 for the tables G: the ordered product of the
    wall factors D^-k F_p D^k between the two chain positions, or the
    product of their inverses in reverse order when slope1 lies below
    slope2; see the module docstring.
    """
    slope1, slope2 = _slope(slope1), _slope(slope2)
    order = enumerate_partitions(n)
    chis = [chi(la) for la in order]
    factors = [factor for _, factor in _sweep(n)[1]]
    pos1, pos2 = _position(n, slope1), _position(n, slope2)
    lo, hi = sorted((pos1, pos2))
    M = identity(len(order), one(), zero())
    for pos in range(lo, hi):
        k, p = divmod(pos, len(factors))
        F = factors[p] if pos1 > pos2 else _factor_inverse(n, p)
        if k:
            F = _rescale(F, [c ** k for c in chis])
        if pos == lo:
            M = F
        else:
            M = mat_mul(F, M) if pos1 > pos2 else mat_mul(M, F)
    # the printed frame: C^-1 M C with C = diag(c_la), transposed to columns
    cs = [seed_normalizer(la) for la in order]
    return [list(col) for col in zip(*_rescale(M, cs))]


def renormalized_crossing(n: int, w) -> list:
    """The crossing at the wall w with entry [nu][la] times fac_la/fac_nu,
    fac = renorm_factor at w: the renormalized form whose entries are
    conjecturally Laurent in q alone."""
    R = transition_matrix(n, (w, -1), (w, 1))
    return _rescale(R, [renorm_factor(la, w) for la in enumerate_partitions(n)])
