"""Dense linear algebra over any exact field, duck-typed.

Entries only need +, -, *, /, truthiness and ==; Fraction and Scalar both
qualify.  Matrices are lists of row lists.  Everything here is
deterministic: pivot choice is always the first nonzero candidate, so
results are reproducible across runs.
"""

from __future__ import annotations

__all__ = [
    "mat_mul",
    "mat_vec",
    "identity",
    "mat_inverse",
    "solve_rational",
    "RankAccumulator",
]


def mat_mul(A, B):
    n, k = len(A), len(B)
    if any(len(r) != k for r in A):
        raise ValueError(f"shape mismatch: a row of A is not {k} long")
    m = len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for l in range(1, k):
                acc = acc + A[i][l] * B[l][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(A, v):
    out = []
    for row in A:
        acc = row[0] * v[0]
        for l in range(1, len(v)):
            acc = acc + row[l] * v[l]
        out.append(acc)
    return out


def identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_inverse(A, one, zero):
    """Gauss-Jordan inverse; ValueError on a singular matrix."""
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
        inv = one / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


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


class RankAccumulator:
    """Incremental rank of sparse vectors (dict key -> field element).

    Keys must sort; reduction always eliminates the largest key first, so
    whether `add` grows the rank depends only on the span so far, not on
    the order it was built in.
    """

    def __init__(self):
        self.rows = {}  # pivot key -> reduced row dict

    def __len__(self):
        return len(self.rows)

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
        inv = red[lead]
        self.rows[lead] = {k: v / inv for k, v in red.items()}
        return True
