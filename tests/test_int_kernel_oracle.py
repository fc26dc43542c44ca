"""Differential oracle for the integer-coefficient Laurent kernel.

`scalars` keeps a coefficient as a plain int when it is integral and as a
Fraction only when it is not.  The reference is the coefficient coercion
the kernel had before, which made every coefficient a Fraction: it is
monkeypatched in as `_exact` (exponents keep their int form), with `_norm`
(the int restoration after Fraction arithmetic) turned off, so the same code runs on a mix of
integral Fractions from the constructors and ints from the integer gcd.
Both kernels must print the same bytes for the bar matrices, the slope-0
seeds, the chamber tables and the transition matrices.
"""

from fractions import Fraction

import pytest

from wallcross import fock, scalars, stable, symfunc
from wallcross.partitions import enumerate_partitions


def fraction_fr(x) -> Fraction:
    """Coerce int | str | Fraction to Fraction (exact)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def _clear_caches():
    # memoized Scalars computed by one kernel must not feed the other
    for mod in (stable, symfunc):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()  # stable._sweep among them


def _integral_fractions(values) -> int:
    """How many coefficients of the Scalars in values are integral Fractions."""
    return sum(type(c) is Fraction and c.denominator == 1
               for v in values for p in (v.num, v.den) for c in p.terms().values())


def both_kernels(compute, monkeypatch):
    """(new, reference): compute() -> (text, scalars) under each kernel."""
    made = []

    def reference_fr(x):
        c = fraction_fr(x)
        if c.denominator == 1:
            made.append(c)
        return c

    # _exact normalizes exponents too, but the chamber code ranges over
    # integral exponents, so the reference keeps those as ints: only the
    # coefficients are Fractions, as in the kernel before.  Every term dict
    # enters a LaurentPoly through _poly or the constructor, so the keys
    # are restored there.
    def int_keys(terms):
        return {tuple(e.numerator if type(e) is Fraction and e.denominator == 1 else e
                      for e in m): c for m, c in terms.items()}

    poly_new, init_new = scalars._poly, scalars.LaurentPoly.__init__

    def poly_int(terms):
        return poly_new(int_keys(terms))

    def init_int(self, terms=None):
        init_new(self, terms)
        self._terms = int_keys(self._terms)

    _clear_caches()
    try:
        new = compute()
        with monkeypatch.context() as m:
            m.setattr(scalars, "_exact", reference_fr)
            m.setattr(scalars, "_norm", lambda terms: terms)
            m.setattr(scalars, "_poly", poly_int)
            m.setattr(scalars.LaurentPoly, "__init__", init_int)
            _clear_caches()
            ref = compute()
    finally:
        _clear_caches()
    # the reference really ran on integral Fractions, the new kernel left none
    assert made
    assert _integral_fractions(new[1]) == 0
    return new[0], ref[0]


def matrix_text(M) -> str:
    return "\n".join(" | ".join(x.dumps() for x in row) for row in M)


def table_text(table, order) -> str:
    return "\n".join(f"{la}|{nu}: {val.dumps()}"
                     for la, row in zip(order, table.gamma) for nu, val in zip(order, row))


@pytest.mark.parametrize("n", range(2, 7))
def test_bar_matrices_same_bytes(n, monkeypatch):
    def compute():
        mats = [fock.bar_matrix(n, b) for b in range(2, n + 1)]
        return ("\n\n".join(map(matrix_text, mats)),
                [x for M in mats for row in M for x in row])

    new, ref = both_kernels(compute, monkeypatch)
    assert new == ref


@pytest.mark.parametrize("n", range(1, 5))
def test_seed_and_chamber_tables_same_bytes(n, monkeypatch):
    order = enumerate_partitions(n)

    def compute():
        seed, walls = stable._sweep(n)
        texts = [table_text(seed, order)]
        values = [x for row in seed.gamma for x in row]
        for w, factor, tbl in walls:
            texts += [str(w), matrix_text(factor), table_text(tbl, order)]
            values += [x for row in factor for x in row]
        return "\n\n".join(texts), values

    new, ref = both_kernels(compute, monkeypatch)
    assert new == ref


@pytest.mark.parametrize("n", range(2, 5))
def test_transition_matrices_same_bytes(n, monkeypatch):
    zero_plus = (Fraction(0), 1)

    def compute():
        mats = []
        for w in stable.candidate_walls(n, 0, 1):
            if stable.is_wall(n, w):
                mats.append(stable.renormalized_crossing(n, w))
            mats.append(stable.transition_matrix(n, zero_plus, (w, 1)))
            mats.append(stable.transition_matrix(n, (w - 1, -1), (w + 1, -1)))
        return ("\n\n".join(map(matrix_text, mats)),
                [x for M in mats for row in M for x in row])

    new, ref = both_kernels(compute, monkeypatch)
    assert new == ref
