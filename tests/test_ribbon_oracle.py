"""Differential oracle for the abacus ribbons.

`horizontal_strips` and `removable_ribbons` read ribbons off the b-abacus
as bead moves.  Before that, ribbons were sets of boxes: a horizontal
strip was found by enumerating every ribbon tiling of each candidate skew
shape (2^(b-1) snake words from every box), keeping the tilings in which
no box sits above a ribbon's northwestern box, and summing the ribbon
heights; a removable ribbon was the box-set difference of the two
diagrams, walked in content order.  That geometric route is kept here
verbatim, and the abacus must agree with it exactly.
"""

import pytest

from wallcross import partitions
from wallcross.partitions import (
    boxes,
    enumerate_partitions,
    horizontal_strips,
    removable_ribbons,
)

MAX_SIZE = 12


# ---------------------------------------------------------------------------
# the geometric route
# ---------------------------------------------------------------------------


def old_removable_ribbons(la, b):
    """(mu, ribbon boxes) from the beta-number slide, checked as a box set."""
    L = len(la) + b
    beta = partitions._beta(la, L)
    bset = set(beta)
    out = []
    for v in sorted(beta, reverse=True):
        if v - b >= 0 and v - b not in bset:
            mu = partitions._from_beta([w if w != v else v - b for w in beta])
            rb = sorted(set(boxes(la)) - set(boxes(mu)))
            if len(rb) != b:
                raise ArithmeticError(f"{la} minus {mu} is {len(rb)} boxes, not a {b}-ribbon")
            out.append((mu, rb))
    return out


def ribbon_walk(ribbon):
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


def ribbon_height(ribbon):
    return len({y for _, y in ribbon}) - 1


def _snakes_through(S, s0, b):
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


def ribbon_tilings(la, mu, b):
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


def horizontal_strip_spin(la, mu, k, b):
    """Spin of the unique horizontal k-strip of b-ribbons from mu to la, or None."""
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
# exact agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("b", range(2, 7))
def test_horizontal_strips_match_tilings(b):
    """Both directions, every mu and k >= 1 with the larger side of size <= 12."""
    cases = strips = 0
    for n in range(b, MAX_SIZE + 1):
        for k in range(1, n // b + 1):
            up, down = {}, {}  # the old _strip_targets_up / _strip_targets_down
            for la in enumerate_partitions(n):
                for mu in enumerate_partitions(n - k * b):
                    sp = horizontal_strip_spin(la, mu, k, b)
                    if sp is not None:
                        up.setdefault(mu, {})[la] = sp
                        down.setdefault(la, {})[mu] = sp
            for mu in enumerate_partitions(n - k * b):
                got = horizontal_strips(mu, k, b)
                assert dict(got) == up.get(mu, {}), (mu, k, b)
                assert len(got) == len(dict(got))
                cases += 1
                strips += len(got)
            for la in enumerate_partitions(n):
                got = horizontal_strips(la, k, b, down=True)
                assert dict(got) == down.get(la, {}), (la, k, b)
                assert len(got) == len(dict(got))
    assert cases and strips


@pytest.mark.parametrize("b", range(1, 8))
def test_removable_ribbons_match_box_sets(b):
    for n in range(MAX_SIZE + 1):
        for la in enumerate_partitions(n):
            want = [(mu, ribbon_walk(rb), ribbon_height(rb))
                    for mu, rb in old_removable_ribbons(la, b)]
            got = [(mu, walk, walk.count("D")) for mu, walk in removable_ribbons(la, b)]
            assert got == want, (la, b)


# ---------------------------------------------------------------------------
# the oracle's own checks
# ---------------------------------------------------------------------------


def test_removable_ribbons_checks_ribbon_size(monkeypatch):
    # a beta-number slide that loses boxes must not pass as a b-ribbon
    monkeypatch.setattr(partitions, "_from_beta", lambda beta: ())
    with pytest.raises(ArithmeticError, match="not a 2-ribbon"):
        old_removable_ribbons((3, 1), 2)


def test_ribbon_walk_rejects_content_gap():
    with pytest.raises(ValueError, match="not consecutive"):
        ribbon_walk([(0, 0), (2, 0)])


def test_ribbon_walk_rejects_non_adjacent_step():
    # contents 0 and 1, but the boxes do not touch
    with pytest.raises(ValueError, match="not a ribbon step"):
        ribbon_walk([(0, 0), (2, 1)])


def test_ribbon_tilings_rejects_shape_outside():
    with pytest.raises(ValueError, match="does not sit inside"):
        ribbon_tilings((2,), (1, 1), 1)
