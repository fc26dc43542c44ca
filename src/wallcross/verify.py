"""The conjecture check: renormalized wall crossings against bar matrices.

conjecture_check returns a plain-dict Report:
    {"check": str, "params": {...}, "status": "match"|"mismatch"|"skipped",
     "witness": ...}
with the witness present exactly when status == "mismatch" (first differing
entry) or when a skip wants to explain itself.  Reports carry no timing (the
command line times the calls it makes), so a report is a function of its
parameters alone.  They are JSON-ready; all symbolic content is serialized
through the canonical Scalar string form so that byte comparison equals
symbolic comparison.  The other reports (golden tables, positivity,
characters) have the same shape and live in wallcross.reports, which the
command line loads only when it runs one of them.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import fock, stable
from .partitions import enumerate_partitions

__all__ = [
    "conjecture_check",
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
