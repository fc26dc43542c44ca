"""Partitions, ribbons, cores and torus weights.

Conventions (fixed once, used everywhere): a partition is a weakly
decreasing tuple of positive ints.  Row y (0-based) has la[y] boxes, drawn
with the origin at the southwest corner, so box (x, y) means column x of
row y, content(x, y) = x - y, the arm counts boxes strictly to the right in
the same row, and the leg counts boxes strictly above in the same column
(rows with larger y).

Ribbons live on the abacus.  The beta-numbers of la (la_i + L - 1 - i for
L rows, zeros allowed) are beads on b runners, bead v at level v // b of
runner v % b.  A b-ribbon is a bead moving b positions: up into a gap to
add the ribbon, down into a gap to remove it.  Its walk, from the
northwestern end, has one letter per position strictly between the two:
'D' where a bead sits, 'R' at a gap; the height is the number of 'D's.  A
horizontal strip of b-ribbons is a set of moves that keeps the beads on
each runner interlaced with their old levels.

Nodes are one-step bead moves.  On L = len(la) + 1 beta-numbers an addable
node of content p - L + 1 is a bead at p with a gap at p + 1, a removable
one a gap at p with a bead at p + 1.  Walking the positions p = i + L - 1
mod b from the top (from the bottom), the count of addable minus removable
i-nodes passed is the Kashiwara-Miwa-Stern exponent of f_i (of e_i).
"""

from __future__ import annotations

from functools import lru_cache

from .scalars import Scalar, monomial

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


def hook_partitions(n: int) -> list:
    """Partitions (n-k, 1^k) — exactly the ones that are a single n-ribbon."""
    return [(n - k,) + (1,) * k for k in range(n)]


# ---------------------------------------------------------------------------
# beta-numbers: nodes, cores, ribbons, horizontal strips
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


def i_nodes(la: Partition, i: int, b: int, down: bool = False) -> list:
    """(target, n) for every i-node added to la, or removed with down=True.

    The positions p = i + L - 1 mod b are walked from the top (from the
    bottom with down=True); n counts the addable minus the removable
    i-nodes passed before the target, strictly right (left) of it.

    >>> i_nodes((1,), 1, 2)
    [((2,), 0), ((1, 1), 1)]
    """
    L = len(la) + 1
    beta = _beta(la, L)
    beads = set(beta)
    walk = range(beta[0] - (beta[0] - i - L + 1) % b, -1, -b)
    out, n = [], 0
    for p in reversed(walk) if down else walk:
        step = (p in beads) - (p + 1 in beads)  # 1 addable, -1 removable
        if step == (-1 if down else 1):
            out.append((_from_beta([{p: p + 1, p + 1: p}.get(v, v) for v in beta]), n))
        n += step
    return out


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
    """All (mu, walk) with mu = la minus one b-ribbon.

    A bead at v slides down to the gap v - b; the walk reads the positions
    strictly between, upwards: 'D' for a bead, 'R' for a gap.  Ordered by
    the removed beta-number, descending (from the top of the diagram).
    """
    beta = _beta(la, len(la) + b)
    bset = set(beta)
    return [
        (_from_beta([w if w != v else v - b for w in beta]),
         "".join("D" if u in bset else "R" for u in range(v - b + 1, v)))
        for v in beta
        if v >= b and v - b not in bset
    ]


def ribbon_decomposition(la: Partition, b: int, *, reverse: bool = False) -> list:
    """Peel b-ribbons down to the core; returns their walks in removal order.

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
        cur, walk = cands[-1] if reverse else cands[0]
        out.append(walk)
    if cur != b_core(la, b):
        raise ArithmeticError(f"peeling {b}-ribbons off {la} stops at {cur}, not the core")
    return out


def horizontal_strips(mu: Partition, k: int, b: int, down: bool = False) -> list:
    """(la, spin) for every horizontal strip of k b-ribbons added to mu.

    With down=True the strip is removed instead.  On each runner the beads
    interlace: going up, a bead stays below the old level of the bead above
    it; going down, above the old level of the bead below it.  The spin (the
    sum of the ribbon heights) is counted one step at a time from the smaller
    partition, always moving the lowest bead still to move.
    """
    beta = _beta(mu, len(mu) + k * b)
    caps = []  # (position, most levels the bead may move)
    for r in range(b):
        levels = [v // b for v in beta if v % b == r]  # descending
        for i, lv in enumerate(levels):
            if down:
                cap = lv - (levels[i + 1] + 1 if i + 1 < len(levels) else 0)
            else:
                cap = levels[i - 1] - 1 - lv if i else k
            if cap:
                caps.append((lv * b + r, cap))
    out = []

    def rec(i: int, left: int, moves: dict) -> None:
        if not left:
            out.append(_strip(beta, moves, b, down))
        elif i < len(caps):
            v, cap = caps[i]
            for s in range(min(cap, left) + 1):
                rec(i + 1, left - s, {**moves, v: s} if s else moves)

    rec(0, k, {})
    return out


def _strip(beta: list, moves: dict, b: int, down: bool) -> tuple:
    """(other partition, spin) for the bead moves {position: levels}."""
    if down:
        beta = [v - moves.get(v, 0) * b for v in beta]
    pending = {v - s * b if down else v: s for v, s in moves.items()}
    beads, spin = set(beta), 0
    while pending:
        v = min(pending)
        s = pending.pop(v)
        beads.remove(v)
        beads.add(v + b)
        spin += sum(u in beads for u in range(v + 1, v + b))
        if s > 1:
            pending[v + b] = s - 1
    return _from_beta(beta if down else beads), spin

