"""Differential oracle for the abacus nodes.

`partitions.i_nodes` reads the i-nodes of a partition off its beta-numbers,
and `fock.apply_f` and `api_oracles.apply_e` take their targets and
exponents from it.  Before that, nodes were boxes: `addable_boxes` and
`removable_boxes` listed the corners (x, y), `add_box` and `remove_box`
edited the rows, and the exponent of f_i (e_i) counted addable minus
removable i-nodes with a larger (smaller) column.  That box route is kept
here verbatim, and the abacus must agree with it exactly.
"""

import pytest
from hypothesis import given, strategies as st

from wallcross import fock as F
from wallcross.partitions import enumerate_partitions, i_nodes
from wallcross.scalars import monomial

from api_oracles import apply_e

MAX_SIZE = 14


# ---------------------------------------------------------------------------
# the box route
# ---------------------------------------------------------------------------


def addable_boxes(la):
    out = []
    for y in range(len(la) + 1):
        x = la[y] if y < len(la) else 0
        if y == 0 or x < la[y - 1]:
            out.append((x, y))
    return out


def removable_boxes(la):
    out = []
    for y in range(len(la)):
        if y == len(la) - 1 or la[y + 1] < la[y]:
            out.append((la[y] - 1, y))
    return out


def add_box(la, x, y):
    rows = list(la) + [0]
    if rows[y] != x:
        raise ValueError(f"{(x, y)} is not an addable box of {la}")
    rows[y] += 1
    return tuple(p for p in rows if p)


def remove_box(la, x, y):
    rows = list(la)
    if rows[y] != x + 1:
        raise ValueError(f"{(x, y)} is not a removable box of {la}")
    rows[y] -= 1
    return tuple(p for p in rows if p)


def _i_addable(la, i, b):
    return [(x, y) for x, y in addable_boxes(la) if (x - y) % b == i % b]


def _i_removable(la, i, b):
    return [(x, y) for x, y in removable_boxes(la) if (x - y) % b == i % b]


def old_apply_f(i, v, b):
    """f_i: add an i-node with coefficient q^(indent - removable, to the right)."""
    if not 0 <= i < b:
        raise ValueError(f"generator index {i} out of range for b={b}")
    out: dict = {}
    for mu, c in v.items():
        ind = _i_addable(mu, i, b)
        rem = _i_removable(mu, i, b)
        for x, y in ind:
            n = sum(1 for u, _ in ind if u > x) - sum(1 for u, _ in rem if u > x)
            F._add_term(out, add_box(mu, x, y), c * monomial(1, n, 0))
    return out


def old_apply_e(i, v, b):
    """e_i: remove an i-node with coefficient q^-(indent - removable, to the left)."""
    if not 0 <= i < b:
        raise ValueError(f"generator index {i} out of range for b={b}")
    out: dict = {}
    for la, c in v.items():
        ind = _i_addable(la, i, b)
        rem = _i_removable(la, i, b)
        for x, y in rem:
            n = sum(1 for u, _ in ind if u < x) - sum(1 for u, _ in rem if u < x)
            F._add_term(out, remove_box(la, x, y), c * monomial(1, -n, 0))
    return out


def old_i_nodes(la, i, b, down=False):
    """(target, n) from the box route, as i_nodes returns them."""
    ind, rem = _i_addable(la, i, b), _i_removable(la, i, b)
    if down:
        return [(remove_box(la, x, y),
                 sum(1 for u, _ in ind if u < x) - sum(1 for u, _ in rem if u < x))
                for x, y in rem]
    return [(add_box(la, x, y),
             sum(1 for u, _ in ind if u > x) - sum(1 for u, _ in rem if u > x))
            for x, y in ind]


# ---------------------------------------------------------------------------
# the abacus against it
# ---------------------------------------------------------------------------


def test_i_nodes_match_box_route():
    # exactly, order included: the box route lists nodes from row 0 down, the
    # abacus walks from the top going up and from the bottom going down, and
    # apply_f's order is the order in which the spanning set meets vectors
    cases = nodes = 0
    for n in range(MAX_SIZE + 1):
        for la in enumerate_partitions(n):
            for b in range(2, 7):
                for i in range(b):
                    for down in (False, True):
                        got = i_nodes(la, i, b, down=down)
                        want = old_i_nodes(la, i, b, down)
                        assert got == (want[::-1] if down else want), (la, i, b, down)
                        cases += 1
                        nodes += len(got)
    shapes = sum(len(enumerate_partitions(n)) for n in range(MAX_SIZE + 1))
    assert cases == shapes * 2 * sum(range(2, 7))
    assert nodes


@pytest.mark.parametrize("b", [2, 3, 4])
def test_apply_f_e_match_box_route(b):
    for n in range(7):
        v = {la: monomial(k + 1, k % 3 - 1, 0) for k, la in enumerate(enumerate_partitions(n))}
        for i in range(b):
            assert F.apply_f(i, v, b) == old_apply_f(i, v, b), (n, i)
            assert apply_e(i, v, b) == old_apply_e(i, v, b), (n, i)
            assert list(F.apply_f(i, v, b)) == list(old_apply_f(i, v, b)), (n, i)


# ---------------------------------------------------------------------------
# the box route's own checks
# ---------------------------------------------------------------------------

partitions_up_to_8 = st.sampled_from(
    [la for n in range(9) for la in enumerate_partitions(n)]
)


@given(partitions_up_to_8)
def test_box_add_remove_round_trip(la):
    for x, y in addable_boxes(la):
        assert remove_box(add_box(la, x, y), x, y) == la
    for x, y in removable_boxes(la):
        assert add_box(remove_box(la, x, y), x, y) == la
    assert len(addable_boxes(la)) == len(removable_boxes(la)) + 1


@pytest.mark.parametrize("call, message", [
    (lambda: add_box((2,), 0, 0), "not an addable box"),
    (lambda: remove_box((2,), 0, 0), "not a removable box"),
], ids=["add_box", "remove_box"])
def test_invalid_box_arguments_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
