"""Partitions, ribbons, cores and torus weights.

Conventions (fixed once, used everywhere): a partition is a weakly
decreasing tuple of positive ints.  Row y (0-based) has la[y] boxes, drawn
with the origin at the southwest corner, so box (x, y) means column x of
row y, content(x, y) = x - y, the arm counts boxes strictly to the right in
the same row, and the leg counts boxes strictly above in the same column
(rows with larger y).

A b-ribbon is a connected skew snake of b boxes with consecutive contents
and no 2x2 square; walking it from the northwestern end, each step moves
right or down as the content increases.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .scalars import LaurentPoly, Monomial, Scalar, monomial, one

Partition = tuple  # tuple[int, ...], weakly decreasing, no zeros


def size(la: Partition) -> int:
    return sum(la)


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple:
    """All partitions of n, lexicographically descending; refines dominance."""
    if n < 0:
        raise ValueError(f"partitions of a negative number: {n}")
    out = []

    def rec(rest, maxpart, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, prefix + [p])

    rec(n, n if n else 0, [])
    return tuple(out) if n else ((),)


def conjugate(la: Partition) -> Partition:
    if not la:
        return ()
    return tuple(sum(1 for p in la if p > x) for x in range(la[0]))


def dominates(la: Partition, mu: Partition) -> bool:
    """la >= mu in dominance order; la and mu must have one size."""
    if size(la) != size(mu):
        raise ValueError(f"dominance compares partitions of one size: {la}, {mu}")
    acc_l = acc_m = 0
    for i in range(max(len(la), len(mu))):
        acc_l += la[i] if i < len(la) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def boxes(la: Partition) -> list:
    return [(x, y) for y, row in enumerate(la) for x in range(row)]


def arm(la: Partition, x: int, y: int) -> int:
    return la[y] - x - 1


def leg(la: Partition, x: int, y: int) -> int:
    return sum(1 for yy in range(y + 1, len(la)) if la[yy] > x)


def content_sum(la: Partition) -> int:
    return sum(x - y for x, y in boxes(la))


def n_stat(la: Partition) -> int:
    """n(la) = sum of legs = sum (i-1) la_i."""
    return sum(i * p for i, p in enumerate(la))


def chi(la: Partition) -> Scalar:
    """Product of box weights q1^x q2^y as a (q,t) monomial."""
    eq = sum(x + y for x, y in boxes(la))
    et = sum(x - y for x, y in boxes(la))
    return monomial(1, eq, et)


def addable_boxes(la: Partition) -> list:
    out = []
    for y in range(len(la) + 1):
        x = la[y] if y < len(la) else 0
        if y == 0 or x < la[y - 1]:
            out.append((x, y))
    return out


def removable_boxes(la: Partition) -> list:
    out = []
    for y in range(len(la)):
        if y == len(la) - 1 or la[y + 1] < la[y]:
            out.append((la[y] - 1, y))
    return out


def add_box(la: Partition, x: int, y: int) -> Partition:
    rows = list(la) + [0]
    if rows[y] != x:
        raise ValueError(f"{(x, y)} is not an addable box of {la}")
    rows[y] += 1
    return tuple(p for p in rows if p)


def remove_box(la: Partition, x: int, y: int) -> Partition:
    rows = list(la)
    if rows[y] != x + 1:
        raise ValueError(f"{(x, y)} is not a removable box of {la}")
    rows[y] -= 1
    return tuple(p for p in rows if p)


def hook_partitions(n: int) -> list:
    """Partitions (n-k, 1^k) — exactly the ones that are a single n-ribbon."""
    return [(n - k,) + (1,) * k for k in range(n)]


# ---------------------------------------------------------------------------
# beta-numbers, cores, ribbon removal
# ---------------------------------------------------------------------------


def _beta(la: Partition, length: int) -> list:
    if length < len(la):
        raise ValueError(f"{length} beta-numbers cannot hold {la}")
    return sorted(
        ((la[i] if i < len(la) else 0) + (length - 1 - i) for i in range(length)),
        reverse=True,
    )


def _from_beta(beta: list) -> Partition:
    beta = sorted(beta, reverse=True)
    L = len(beta)
    return tuple(p for p in (b - (L - 1 - i) for i, b in enumerate(beta)) if p)


def b_core(la: Partition, b: int) -> Partition:
    """Remove b-ribbons until none remains (abacus: slide beads down)."""
    if b < 1:
        raise ValueError(f"ribbon size must be at least 1, got {b}")
    L = len(la) + b
    beta = _beta(la, L)
    by_res: dict[int, int] = {}
    for v in beta:
        by_res[v % b] = by_res.get(v % b, 0) + 1
    new = []
    for r, k in by_res.items():
        new.extend(r + j * b for j in range(k))
    return _from_beta(new)


def removable_ribbons(la: Partition, b: int) -> list:
    """All (mu, ribbon_boxes) with mu = la minus one b-ribbon.

    Deterministic order: by the removed beta-number, descending (equivalently
    by the ribbon's position from the top of the diagram).
    """
    L = len(la) + b
    beta = _beta(la, L)
    bset = set(beta)
    out = []
    for v in sorted(beta, reverse=True):
        if v - b >= 0 and v - b not in bset:
            mu = _from_beta([w if w != v else v - b for w in beta])
            rb = sorted(set(boxes(la)) - set(boxes(mu)))
            if len(rb) != b:
                raise ArithmeticError(f"{la} minus {mu} is {len(rb)} boxes, not a {b}-ribbon")
            out.append((mu, rb))
    return out


def ribbon_walk(ribbon: list) -> str:
    """Steps 'R'/'D' from the northwestern end, in content order."""
    rb = sorted(ribbon, key=lambda xy: xy[0] - xy[1])
    steps = []
    for (x0, y0), (x1, y1) in zip(rb, rb[1:]):
        if (x1 - y1) != (x0 - y0) + 1:
            raise ValueError(f"contents of {(x0, y0)} and {(x1, y1)} are not consecutive")
        if y1 == y0 and x1 == x0 + 1:
            steps.append("R")
        elif x1 == x0 and y1 == y0 - 1:
            steps.append("D")
        else:
            raise ValueError(f"not a ribbon step: {(x0, y0)} -> {(x1, y1)}")
    return "".join(steps)


def ribbon_height(ribbon: list) -> int:
    return len({y for _, y in ribbon}) - 1


def ribbon_decomposition(la: Partition, b: int, *, reverse: bool = False) -> list:
    """Peel b-ribbons down to the core; returns ribbons in removal order.

    Either endpoint of removable_ribbons' ordering may be taken at each
    step (reverse=True picks the other); callers cross-check that derived
    quantities are independent of the choice.
    """
    out = []
    cur = la
    while True:
        cands = removable_ribbons(cur, b)
        if not cands:
            break
        mu, rb = cands[-1] if reverse else cands[0]
        out.append(rb)
        cur = mu
    if cur != b_core(la, b):
        raise ArithmeticError(f"peeling {b}-ribbons off {la} stops at {cur}, not the core")
    return out


# ---------------------------------------------------------------------------
# horizontal strips of ribbons (for the Fock-space V operators)
# ---------------------------------------------------------------------------


def _snakes_through(S: frozenset, s0, b: int) -> list:
    """All b-box ribbon snakes inside S that contain the box s0."""
    out = []
    for sx, sy in S:
        for word in range(1 << (b - 1)):
            chain = [(sx, sy)]
            x, y = sx, sy
            ok = True
            for j in range(b - 1):
                if (word >> j) & 1:
                    x, y = x, y - 1
                else:
                    x, y = x + 1, y
                if (x, y) not in S:
                    ok = False
                    break
                chain.append((x, y))
            if ok and s0 in chain:
                out.append(chain)
    return out


def ribbon_tilings(la: Partition, mu: Partition, b: int) -> list:
    """All tilings of la/mu by b-ribbons (each as a list of ribbons)."""
    bl, bm = set(boxes(la)), set(boxes(mu))
    if not bm <= bl:
        raise ValueError(f"{mu} does not sit inside {la}")
    S = frozenset(bl - bm)
    if len(S) % b:
        return []

    tilings = []

    def rec(S, acc):
        if not S:
            tilings.append(list(acc))
            return
        s0 = min(S)
        for chain in _snakes_through(S, s0, b):
            rec(S - frozenset(chain), acc + [chain])

    rec(S, [])
    return tilings


def horizontal_strip_spin(la: Partition, mu: Partition, k: int, b: int):
    """Spin of the unique horizontal k-strip of b-ribbons from mu to la.

    Returns sum of ribbon heights, or None when la/mu is not such a strip.
    The tiling, when the horizontality condition holds, must be unique --
    checked, since the coefficient would otherwise be ambiguous.
    """
    bl, bm = set(boxes(la)), set(boxes(mu))
    if not (bm <= bl) or len(bl) - len(bm) != k * b:
        return None
    good = []
    for tiling in ribbon_tilings(la, mu, b):
        cols = {}
        for chain in tiling:
            for x, y in chain:
                cols.setdefault(x, []).append(y)
        ok = True
        for chain in tiling:
            nw = min(chain, key=lambda xy: xy[0] - xy[1])
            if any(y > nw[1] for y in cols.get(nw[0], [])):
                ok = False
                break
        if ok:
            good.append(tiling)
    if not good:
        return None
    if len(good) != 1:
        raise ArithmeticError(f"{len(good)} horizontal {b}-ribbon tilings of {la}/{mu}")
    return sum(ribbon_height(chain) for chain in good[0])


# ---------------------------------------------------------------------------
# torus weights at fixed points
# ---------------------------------------------------------------------------


def tangent_character(la: Partition) -> LaurentPoly:
    """Tangent-space character at the fixed point la, in (q,t) exponents.

    Each box contributes q1^a q2^(-l-1) + q1^(-a-1) q2^l; with q1 = qt and
    q2 = q/t these are the (q,t) monomials q^(a-l-1) t^(a+l+1) and
    q^(l-a-1) t^(-a-l-1).
    """
    acc = LaurentPoly()
    for x, y in boxes(la):
        a, l = arm(la, x, y), leg(la, x, y)
        acc = acc + LaurentPoly.term(1, a - l - 1, a + l + 1)
        acc = acc + LaurentPoly.term(1, l - a - 1, -a - l - 1)
    return acc


def bracket(char: LaurentPoly) -> Scalar:
    """Multiplicative [V] = prod over weights m of (1 - m^(-1))^mult.

    Characters must not contain the trivial weight (its bracket vanishes).
    """
    out = one()
    for m, c in char.terms().items():
        if m == Monomial(Fraction(0), Fraction(0)):
            raise ValueError("bracket of a character containing the trivial weight")
        if c.denominator != 1:
            raise ValueError(f"character multiplicity {c} of {m} is not an integer")
        factor = one() - monomial(1, -m.exp_q, -m.exp_t)
        out = out * factor ** int(c)
    return out
