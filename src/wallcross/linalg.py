"""Linear algebra over any exact field, duck-typed.

Entries only need +, -, *, /, ** -1, truthiness and ==; Fraction and Scalar
both qualify.  Matrices are lists of row lists, and every kernel reads only
nonzeros: mat_mul skips zero entries, mat_inverse updates each row at the
nonzeros of the pivot row, solve_rational substitutes over sparse rows
(dicts of their nonzeros), raises ArithmeticError on a system that
substitution cannot pin, and returns one solution with the nullity, not a
basis of the null space, and RankAccumulator keeps sparse vectors.
Everything here is deterministic: pivot choice is always the first nonzero
candidate, so results are reproducible across runs.
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
    """Solve A x = b over Fraction or int entries by substitution alone.

    Returns (particular, nullity): particular is one solution (None if the
    system is inconsistent), each entry an int when integral and a Fraction
    otherwise, and nullity is the dimension of the homogeneous solution
    space.  A may be non-square.

    While some equation has one unknown left, that unknown is fixed and
    subtracted from the right-hand sides of the other equations that hold
    it.  A wall crossing's systems are triangular, so this pins them with no
    fill-in.  If an equation still holds an unknown when no equation has one
    left, the system is not triangular and ArithmeticError says how much is
    left.  Otherwise every equation is emptied, so the rank is the number of
    fixed unknowns, the unknowns no equation holds are free (0 in the
    solution), and the system is inconsistent exactly when an emptied
    equation keeps a nonzero right-hand side.
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
    left = [row for row in M if row]
    if left:
        unknowns = len(set().union(*left))
        raise ArithmeticError(f"substitution stalls: {len(left)} equations in "
                              f"{unknowns} unknowns are left, none with one unknown")
    return (None if any(rhs) else particular), cols - fixed


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
