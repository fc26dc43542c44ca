"""Linear algebra over any exact field, duck-typed.

Entries only need +, -, *, /, ** -1, truthiness and ==; Fraction and Scalar
both qualify.  Matrices are lists of row lists, and every kernel reads only
nonzeros: mat_mul skips zero entries, mat_inverse updates each row at the
nonzeros of the pivot row, solve_rational substitutes and then eliminates
over sparse rows (dicts of their nonzeros) and returns one solution with the
nullity, not a basis of the null space, and RankAccumulator keeps sparse
vectors.  Everything here is deterministic: pivot choice is always the first
nonzero candidate, so results are reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "mat_mul",
    "identity",
    "mat_inverse",
    "solve_rational",
    "RankAccumulator",
]


def mat_mul(A, B):
    """A B, reading only the nonzero entries of A and B: each row of the
    product accumulates x * (row l of B) over the nonzeros x = A[i][l]."""
    k = len(B)
    if any(len(r) != k for r in A):
        raise ValueError(f"shape mismatch: a row of A is not {k} long")
    m = len(B[0])
    out = []
    for a_row in A:
        row = [None] * m
        for x, b_row in zip(a_row, B):
            if not x:
                continue
            for j, y in enumerate(b_row):
                if y:
                    row[j] = x * y if row[j] is None else row[j] + x * y
        # an entry with no nonzero term is A[i][0] * B[0][j], itself zero
        out.append([a_row[0] * B[0][j] if v is None else v for j, v in enumerate(row)])
    return out


def identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_inverse(A, one, zero):
    """Gauss-Jordan inverse; ValueError on a singular matrix.

    Each step scales the pivot row at its nonzeros only and subtracts it
    from the other rows at those positions only: left of the pivot the row
    is already zero, and so is most of the identity half.
    """
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError(f"inverse of a non-square matrix ({n} rows)")
    M = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            raise ValueError(f"singular matrix (no pivot in column {col})")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
        prow = M[col]
        inv = one / prow[col]
        nz = [k for k in range(col, 2 * n) if prow[k]]
        for k in nz:
            prow[k] = prow[k] * inv
        for r, row in enumerate(M):
            f = row[col]
            if f and r != col:
                for k in nz:
                    row[k] = row[k] - f * prow[k]
    return [row[n:] for row in M]


def solve_rational(A, b):
    """Solve A x = b over Fraction or int entries.

    Returns (particular, nullity): particular is one solution (None if the
    system is inconsistent), each entry an int when integral and a Fraction
    otherwise, and nullity is the dimension of the homogeneous solution
    space, the number of columns without a pivot.  A may be non-square.

    Substitution first: while some equation has one unknown left, that
    unknown is fixed and subtracted from the right-hand sides of the other
    equations that hold it.  A wall crossing's systems are triangular, so
    substitution alone pins them, with no fill-in; Gauss-Jordan grows
    Fraction entries across rows that back-substitution never touches.
    Only the equations that substitution leaves go to _eliminate, over the
    unknowns still open, in their original order.  The result is what
    Gauss-Jordan on the whole system gives.  A fixed unknown c has e_c in
    the row space of A, so c is a pivot of the reduced row echelon form and
    has one value in every solution; the other pivots are the leftover
    system's, and the free unknowns are 0 either way.
    """
    cols = len(A[0]) if A else 0
    M = [{c: x for c, x in enumerate(a) if x} for a in A]
    rhs = list(b)
    holders = [[] for _ in range(cols)]  # column -> the rows holding it
    for i, row in enumerate(M):
        for c in row:
            holders[c].append(i)
    particular = [0] * cols
    fixed = 0
    queue = [i for i, row in enumerate(M) if len(row) == 1]
    while queue:
        i = queue.pop()
        if len(M[i]) != 1:  # emptied since it was queued
            continue
        (c, a), = M[i].items()
        x = Fraction(rhs[i], a)
        x = particular[c] = x.numerator if x.denominator == 1 else x
        fixed += 1
        rhs[i] = 0
        for h in holders[c]:
            f = M[h].pop(c)
            if h != i:
                rhs[h] -= f * x
                if len(M[h]) == 1:
                    queue.append(h)
    consistent = not any(r for row, r in zip(M, rhs) if not row)
    left = [i for i, row in enumerate(M) if row]
    rank = 0
    if left:
        open_cols = sorted({c for i in left for c in M[i]})
        pivots, rank = _eliminate([M[i] for i in left], [rhs[i] for i in left], open_cols)
        if pivots is None:
            consistent = False
        else:
            for c, x in pivots.items():
                particular[c] = x
    return (particular if consistent else None), cols - fixed - rank


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


class RankAccumulator:
    """Incremental rank of sparse vectors (dict key -> field element).

    Keys must sort; reduction always eliminates the largest key first, so
    whether `add` grows the rank depends only on the span so far, not on
    the order it was built in.
    """

    def __init__(self):
        self.rows = {}  # pivot key -> reduced row dict

    def _reduce(self, vec):
        vec = {k: v for k, v in vec.items() if v}
        while vec:
            lead = max(vec)
            row = self.rows.get(lead)
            if row is None:
                return vec, lead
            f = vec[lead]
            for k, v in row.items():
                s = vec.get(k)
                nv = v * f
                if s is None:
                    vec[k] = -nv
                else:
                    s = s - nv
                    if s:
                        vec[k] = s
                    else:
                        del vec[k]
        return None, None

    def add(self, vec) -> bool:
        """Insert vec into the span; True if the rank grew."""
        red, lead = self._reduce(dict(vec))
        if red is None:
            return False
        inv = red[lead] ** -1  # once: each Scalar inverse reduces a fraction
        self.rows[lead] = {k: v * inv for k, v in red.items()}
        return True
