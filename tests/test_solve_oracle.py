"""The wall-crossing solve against the dense route it replaced.

Until the sparse rewrite, stable._solve_row built one dense Fraction row per
equation, copying each partner row once per unknown, and
linalg.solve_rational ran Gauss-Jordan over dense Fraction matrices.  Those
bodies are kept here verbatim (solve_rational, _nullspace, _solve_row and
cross_wall as they were), and the package must agree with them exactly:
cross_wall's (table, I + B), the equations it poses (in any order) and their
solutions at every candidate wall of the sweep for n <= 5, and
solve_rational's (particular, nullity) against the dense route's
(particular, len(nullspace)) on every system the sweeps at n = 2..5 pose and
on random systems, rank-deficient and inconsistent ones included.

solve_rational is substitution alone: it raises ArithmeticError on a system
that substitution cannot pin.  _eliminate, the sparse Gauss-Jordan that used
to solve each whole system and then what substitution left, is kept here
verbatim.  Run on the whole system, it is a second oracle: it must agree
with solve_rational on every system the sweeps at n = 2..6 pose (the dense
route takes about 12 s at n = 6, so it stops at 5) and on the random systems
that substitution pins.  On a random system, solve_rational raises exactly
when peeling (below) finds that substitution stalls.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wallcross import linalg, stable
from wallcross.partitions import content_sum, dominates, enumerate_partitions
from wallcross.scalars import monomial, zero
from wallcross.stable import StableTable, degree_window

from api_oracles import dict_layout, row_layout, unit_plus

# ---------------------------------------------------------------------------
# the dense route, verbatim
# ---------------------------------------------------------------------------


def solve_rational(A, b):
    """Solve A x = b over Fraction-like entries.

    Returns (particular, nullspace) where particular is one solution (or
    None if the system is inconsistent) and nullspace is a basis of the
    homogeneous solution space.  A may be non-square.
    """
    from fractions import Fraction

    zero, one = Fraction(0), Fraction(1)
    rows = len(A)
    cols = len(A[0]) if rows else 0
    M = [list(A[i]) + [b[i]] for i in range(rows)]
    pivots = []  # (row, col)
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = one / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * bb for a, bb in zip(M[i], M[r])]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if M[i][cols]:
            return None, _nullspace(M, pivots, cols, zero, one)
    particular = [zero] * cols
    for (pr, pc) in pivots:
        particular[pc] = M[pr][cols]
    return particular, _nullspace(M, pivots, cols, zero, one)


def _nullspace(M, pivots, cols, zero, one):
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(cols):
        if free in pivot_cols:
            continue
        v = [zero] * cols
        v[free] = one
        for (pr, pc) in pivots:
            v[pc] = -M[pr][free]
        basis.append(v)
    return basis


def _solve_row(table, la, partners, target, qlo, qhi):
    """One unitriangular row of B: unknowns over a monomial support, kill
    equations for out-of-window t-powers of the combined row.  Returns
    (B_row dict, nullity) or None when inconsistent."""
    n = table.n
    m, _side = target
    unknowns = []  # (mu, tau, j)
    for mu in partners:
        # window width equals the mu-diagonal width, so the t-degree of
        # B_la^mu is forced: (c_la - c_mu) + m*(c_mu - c_la), an integer
        # exactly on the block
        dc = content_sum(mu) - content_sum(la)
        tau_exact = -dc + m * dc
        if tau_exact.denominator != 1:
            continue
        tau = int(tau_exact)
        for j in range(qlo, qhi + 1):
            if (j - tau) % 2 == 0:  # Laurent in q1, q2 forces this parity
                unknowns.append((mu, tau, j))
    # accumulate the symbolic row: monomial -> (const, {unknown-index: coeff})
    sym = {}  # nu -> {(exp_q, exp_t): [Fraction, dict]}
    for nu, val in table.gamma.get(la, {}).items():
        cell = sym.setdefault(nu, {})
        for mono, coef in val.num.terms().items():
            cell.setdefault(mono, [Fraction(0), {}])[0] += coef
    for ui, (mu, tau, j) in enumerate(unknowns):
        for nu, val in table.gamma.get(mu, {}).items():
            cell = sym.setdefault(nu, {})
            for mono, coef in val.num.terms().items():
                shifted = (mono[0] + j, mono[1] + tau)
                slot = cell.setdefault(shifted, [Fraction(0), {}])
                slot[1][ui] = slot[1].get(ui, Fraction(0)) + coef
    rows, rhs = [], []
    for nu, cell in sym.items():
        wlo, whi = degree_window(la, nu, target)
        for mono, (const, lin) in cell.items():
            if wlo <= mono[1] <= whi:
                continue
            rows.append([lin.get(ui, Fraction(0)) for ui in range(len(unknowns))])
            rhs.append(-const)
    if not unknowns:
        return ({}, 0) if all(v == 0 for v in rhs) else None
    if not rows:
        return ({}, len(unknowns))  # nothing pins the support: not unique
    part, null = solve_rational(rows, rhs)
    if part is None:
        return None
    brow = {}
    for ui, (mu, tau, j) in enumerate(unknowns):
        if part[ui]:
            brow[mu] = brow.get(mu, zero()) + monomial(part[ui], j, tau)
    return ({mu: v for mu, v in brow.items() if v}, len(null))


def cross_wall(table: StableTable, w) -> tuple:
    """Cross the wall at w to the other side; returns (new table, B).

    B is the unique unitriangular matrix over the block support
    {w*(c_la - c_mu) integral} making every combined row land in the target
    side's windows; its strict part is returned as rows la -> {mu: Scalar}.
    B = Id (all rows empty) exactly when w is not a wall.
    """
    w = Fraction(w)
    m, side = table.slope
    upward = m < w or (m == w and side == -1)
    target = (w, 1 if upward else -1)
    order = enumerate_partitions(table.n)
    qs = [val.q_degree_range() for row in table.gamma.values() for val in row.values()]
    qlo0, qhi0 = min(q[0] for q in qs), max(q[1] for q in qs)
    b = w.denominator
    brows = {}
    for la in order:
        partners = [
            mu
            for mu in order
            if mu != la
            and dominates(la, mu)
            and (w * (content_sum(la) - content_sum(mu))).denominator == 1
        ]
        solved = None
        for attempt in range(4):  # initial support, then <= 3 widenings by 2b
            margin = 2 * b * (attempt + 1)
            solved = _solve_row(table, la, partners, target, qlo0 - margin, qhi0 + margin)
            if solved is not None and solved[1] == 0:
                break
        if solved is None:
            raise ArithmeticError(
                f"axioms unsatisfiable: no B row for {la} at wall {w} "
                f"(n={table.n}, max support exhausted)"
            )
        brow, nullity = solved
        if nullity:
            raise ArithmeticError(
                f"uniqueness failure at wall {w}, row {la}: solution space has "
                f"dimension {nullity} after widening"
            )
        brows[la] = brow
    gamma = {}
    for la in order:
        new_row = dict(table.gamma.get(la, {}))
        for mu, coef in brows[la].items():
            for nu, val in table.gamma.get(mu, {}).items():
                acc = new_row.get(nu, zero()) + coef * val
                if acc:
                    new_row[nu] = acc
                else:
                    new_row.pop(nu, None)
        for nu, val in new_row.items():
            if not val.is_laurent():
                raise ArithmeticError(f"crossing {w} leaves {la}|{nu} non-Laurent: {val}")
        gamma[la] = new_row
    return StableTable(table.n, target, gamma), brows


# ---------------------------------------------------------------------------
# the sweep: cross_wall and the systems it poses
# ---------------------------------------------------------------------------


def with_nullity(result):
    """The dense route's (particular, nullspace basis) as the package returns
    it: (particular, nullity)."""
    part, null = result
    return part, len(null)


def _eliminate(M, rhs, cols):
    """Gauss-Jordan on the sparse rows M (dicts of their nonzeros, consumed)
    with right-hand sides rhs, over the columns cols in the order given.

    Returns (pivots, rank): pivots maps each pivot column to its value in
    the solution whose free unknowns are 0 (None if the system is
    inconsistent), an int when integral.  Pivots on the first row with a
    nonzero in the column; entries stay ints until a pivot other than +-1
    divides.  The right-hand side rides along at key None.
    """
    one = Fraction(1)
    for row, r in zip(M, rhs):
        if r:
            row[None] = r
    n = len(M)
    pivots = []  # (row, col)
    r = 0
    for c in cols:
        piv = next((i for i in range(r, n) if c in M[i]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        prow = M[r]
        p = prow[c]
        if p != 1:
            inv = -1 if p == -1 else one / p
            prow = M[r] = {k: x * inv for k, x in prow.items()}
        for i, row in enumerate(M):
            f = row.get(c)
            if f is None or i == r:
                continue
            for k, x in prow.items():
                v = row.get(k)
                if v is None:
                    row[k] = -f * x
                else:
                    v -= f * x
                    if v:
                        row[k] = v
                    else:
                        del row[k]
        pivots.append((r, c))
        r += 1
        if r == n:
            break
    if any(M[i] for i in range(r, n)):  # only the right-hand side can be left
        return None, len(pivots)
    values = {}
    for (pr, pc) in pivots:
        x = M[pr].get(None, 0)
        values[pc] = x if type(x) is int or x.denominator != 1 else x.numerator
    return values, len(pivots)


def eliminate_whole(A, b):
    """_eliminate on the whole system, with no substitution first, as
    (particular, nullity)."""
    cols = len(A[0]) if A else 0
    rows = [{c: x for c, x in enumerate(a) if x} for a in A]
    pivots, rank = _eliminate(rows, list(b), range(cols))
    if pivots is None:
        return None, cols - rank
    part = [0] * cols
    for c, x in pivots.items():
        part[c] = x
    return part, cols - rank


def stalls(A):
    """Whether substitution stalls on A: peel off, while some row holds
    exactly one open column, that column from every row, and see whether
    a row still holds a column when none holds exactly one.  Substitution
    never changes a coefficient, only which columns are open, so peeling
    reads the nonzero pattern of A alone."""
    rows = [{c for c, x in enumerate(a) if x} for a in A]
    while True:
        single = next((row for row in rows if len(row) == 1), None)
        if single is None:
            return any(rows)
        (c,) = single
        for row in rows:
            row.discard(c)


def _recording(mp, module, solve):
    """Route module.solve_rational through solve; returns the systems seen,
    each as (A, b, solve's result)."""
    seen = []

    def spy(A, b):
        result = solve(A, b)
        seen.append(([list(row) for row in A], list(b), result))
        return result

    mp.setattr(module, "solve_rational", spy)
    return seen


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cross_wall_matches_dense_route(n, monkeypatch):
    new_systems = _recording(monkeypatch, stable, linalg.solve_rational)
    old_systems = _recording(monkeypatch, sys.modules[__name__], solve_rational)
    tbl = stable.seed_slope0(n)
    for w in stable.candidate_walls(n, 0, 1):
        new, factor = stable.cross_wall(tbl, w)
        old, B_old = cross_wall(dict_layout(tbl), w)
        assert factor == unit_plus(n, B_old), w
        assert new == row_layout(old) and new.slope == old.slope, w
        assert len(new_systems) == len(old_systems), w
        for (A, b, got), (A_old, b_old, want) in zip(new_systems, old_systems):
            # the same equations, in any order: the reduced row echelon form
            # of [A | b] does not depend on it, nor does the solution
            assert sorted(zip(A, b)) == sorted(zip(A_old, b_old)), w
            assert got == with_nullity(want), w
        new_systems.clear()
        old_systems.clear()
        tbl = new


@pytest.fixture(scope="module")
def sweep_systems():
    """Every system solve_rational gets from _sweep(n), n = 2..6, by n."""
    stable._sweep.cache_clear()
    by_n = {}
    with pytest.MonkeyPatch.context() as mp:
        seen = _recording(mp, stable, linalg.solve_rational)
        for n in range(2, 7):
            stable._sweep(n)
            by_n[n] = list(seen)
            seen.clear()
    stable._sweep.cache_clear()
    return by_n


def test_solve_matches_dense_on_sweep_systems(sweep_systems):
    # one system per row with partners at each wall; the candidates that
    # are not walls pose none, since the sweep steps over them unsolved
    systems = [system for n in range(2, 6) for system in sweep_systems[n]]
    assert len(systems) == 1 + 5 + 14 + 35
    for A, b, got in systems:
        assert got == with_nullity(solve_rational(A, b))


def test_solve_matches_elimination_on_sweep_systems(sweep_systems):
    assert [len(sweep_systems[n]) for n in range(2, 7)] == [1, 5, 14, 35, 71]
    for n, systems in sweep_systems.items():
        for A, b, got in systems:
            assert got == eliminate_whole(A, b), n


def test_sweep_systems_are_solved_by_substitution(sweep_systems):
    """A recorded finding, not an assumption of the code: every crossing
    system of the sweeps at n = 2..6 is pinned by substitution alone, which
    is all solve_rational does.  This mirrors the Maulik-Okounkov
    triangularity of stable bases: the degree-window axioms fix each unknown
    of a row once the ones below it are known.  The sweeps at n = 7..9 run
    every crossing through the same solve in test_stable, and the n = 10
    sweep's 31 walls behave the same (measured, not tested: it takes
    minutes).  Here peeling confirms it without the solver."""
    assert not any(stalls(A) for systems in sweep_systems.values() for A, _, _ in systems)


# ---------------------------------------------------------------------------
# random systems
# ---------------------------------------------------------------------------

entries = st.one_of(
    st.just(0), st.just(0), st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def systems(draw):
    """A = mix * K with K of at most `rank` rows, so A is often rank-deficient;
    b is A y (consistent) or drawn freely (often inconsistent)."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rank = draw(st.integers(0, min(rows, cols)))
    K = [[draw(entries) for _ in range(cols)] for _ in range(rank)]
    mix = [[draw(entries) for _ in range(rank)] for _ in range(rows)]
    A = [[sum((mix[i][k] * K[k][c] for k in range(rank)), 0) for c in range(cols)]
         for i in range(rows)]
    if draw(st.booleans()):
        y = [draw(entries) for _ in range(cols)]
        b = [sum((x * v for x, v in zip(row, y)), 0) for row in A]
    else:
        b = [draw(entries) for _ in range(rows)]
    return A, b


nonzero = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)


@st.composite
def triangular_systems(draw):
    """A lower triangular system with rows and columns permuted, which
    substitution pins: pivot row k holds column k and maybe columns < k,
    extra rows hold only pivot columns (so b drawn freely is often
    inconsistent), and columns past the pivots are held by no row (free)."""
    pivots, free = draw(st.integers(0, 5)), draw(st.integers(0, 2))
    cols = max(pivots + free, 1)
    A = [[draw(nonzero) if c == k else draw(entries) if c < k else 0
          for c in range(cols)] for k in range(pivots)]
    A += [[draw(entries) if c < pivots else 0 for c in range(cols)]
          for _ in range(draw(st.integers(0 if pivots else 1, 2)))]
    perm = draw(st.permutations(range(cols)))
    A = [[row[c] for c in perm] for row in A]
    A = draw(st.permutations(A))
    if draw(st.booleans()):
        y = [draw(entries) for _ in range(cols)]
        b = [sum((x * v for x, v in zip(row, y)), 0) for row in A]
    else:
        b = [draw(entries) for _ in A]
    return A, b


@settings(max_examples=200, deadline=None)
@given(st.one_of(systems(), triangular_systems()))
@example(([[1, 1], [1, -1]], [0, 2]))  # no equation with one unknown: stalls
@example(([[1, 1, 0], [0, 1, 0]], [3, 1]))  # triangular, x2 free: nullity 1
@example(([[1, 0], [1, 0]], [0, 1]))  # triangular, x0 = 0 and x0 = 1
@example(([[1, 1], [1, 1]], [0, 1]))  # stalls (inconsistent, nullity 1)
@example(([[1, 2, 3], [2, 4, 6]], [1, 2]))  # stalls (rank 1 of 2, nullity 2)
@example(([[0, 0], [0, 0], [0, 0]], [0, 0, 0]))
@example(([[2, -1], [Fraction(1, 2), 3], [1, 1]], [1, 0, 5]))  # stalls
@example(([[0, 3, 1, 0]], [Fraction(-2, 3)]))  # stalls
@example(([[1, 0], [0, 0]], [1, 1]))  # a zero row with b != 0 and no unknown
@example(([[1, 0, 0], [2, 0, 0], [0, 1, 1]], [1, 3, 0]))  # x0 = 3/2 and x0 = 1, then it stalls
@example(([[1, 1, 0, 0], [0, 0, 0, 3], [1, 1, 2, 1], [2, 2, 0, 0]],
          [1, 6, 3, 2]))  # x3 by substitution, then it stalls
def test_solve_matches_dense_on_random_systems(system):
    A, b = system
    if stalls(A):
        with pytest.raises(ArithmeticError, match="substitution stalls"):
            linalg.solve_rational(A, b)
        return
    got = linalg.solve_rational(A, b)
    assert got == with_nullity(solve_rational(A, b))
    assert got == eliminate_whole(A, b)
    # the particular solution comes in normal form: an int when integral
    assert got[0] is None or all(type(x) is int or x.denominator != 1 for x in got[0])
