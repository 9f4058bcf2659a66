"""Exhaustive posets of involutions, their covers, and order-side
neighbour classes.

The covering DAG is one route; the L-classes below are computed from the
order relation itself by down-set unions, so the two can be checked
against each other and against the move constructions.
"""

from __future__ import annotations

import json
from functools import lru_cache, reduce
from operator import or_

from ._value import Value
from .errors import BoundExceededError, NotInPosetError
from .involutions import Involution, enumerate_involutions, format_involution
from .rankorder import bit_indices, dominance_masks, joined_cells

POSET_MAX_N = 10


class Poset(Value, repr_hides=("index",)):
    """All involutions of S_n under one of the three orders.

    ``less[k]`` is a bitmask of the indices strictly below element k;
    ``covers[k]`` lists the indices that element k covers (its lower
    covers), i.e. the transitive reduction of the order.
    """

    order: str
    n: int
    elements: tuple[Involution, ...]
    less: tuple[int, ...]
    covers: tuple[tuple[int, ...], ...]
    index: dict

    # one object per (n, order): equal and hashed by identity
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def index_of(self, sigma: Involution) -> int:
        try:
            return self.index[sigma]
        except KeyError:
            raise NotInPosetError(f"{sigma} not in poset of size {self.n}") from None

    def leq(self, tau: Involution, sigma: Involution) -> bool:
        a, b = self.index_of(tau), self.index_of(sigma)
        return a == b or bool(self.less[b] >> a & 1)

    def covers_of(self, sigma: Involution) -> frozenset[Involution]:
        return frozenset(self.elements[k] for k in self.covers[self.index_of(sigma)])


@lru_cache(maxsize=None, typed=True)
def build_poset(n: int, order: str = "star") -> Poset:
    """Build the full poset from all-pairs dominance of the order's rank
    tables, built joined in one call; covers come from peeling each
    down-set by entry-sum layers."""
    if n > POSET_MAX_N:
        raise BoundExceededError(f"n={n} exceeds poset bound {POSET_MAX_N}")
    elements = enumerate_involutions(n)
    cells = joined_cells(order, elements, n)
    masks = dominance_masks(cells, n)
    less = tuple(mask & ~(1 << b) for b, mask in enumerate(masks))
    return Poset(
        order=order,
        n=n,
        elements=elements,
        less=less,
        covers=_lower_covers(cells, n, less),
        index={sigma: k for k, sigma in enumerate(elements)},
    )


def _lower_covers(cells: bytes, n: int, less) -> tuple[tuple[int, ...], ...]:
    """Lower covers of distinct n x n tables, joined in ``cells``, under
    dominance, with strict down-sets ``less``.  a < b makes a's entry sum
    smaller, so one sum is an antichain: walking b's down-set down by
    sum, what is left at a sum is a cover; its down-set is removed."""
    stride = n * n
    sums = [sum(cells[k : k + stride]) for k in range(0, len(cells), stride)]
    layers = [0] * (max(sums, default=0) + 1)
    for k, s in enumerate(sums):
        layers[s] |= 1 << k
    covers = []
    for s, rest in zip(sums, less):
        found = 0
        while rest:
            s -= 1
            top = rest & layers[s]
            if top:
                found |= top
                for a in bit_indices(top):
                    top |= less[a]
                rest &= ~top
        covers.append(tuple(bit_indices(found)))
    return tuple(covers)


class LSets(Value):
    """Order-side neighbour classes of one element, from down-set unions
    of the order relation (not from the covers DAG).

    - ``l_minus``: strictly below with smaller arc count, and with no
      element of smaller arc count strictly between;
    - ``l_zero`` / ``l_plus``: strictly below with equal / larger arc
      count and no strictly intermediate element at all;
    - ``l_prime``: the subset of ``l_minus`` with no strictly
      intermediate element at all;
    - ``l_star``: the covering set, equal to l_prime | l_zero | l_plus.
    """

    l_minus: frozenset[Involution]
    l_zero: frozenset[Involution]
    l_plus: frozenset[Involution]
    l_prime: frozenset[Involution]
    l_star: frozenset[Involution]


def l_sets(sigma: Involution, poset: Poset) -> LSets:
    """The L-classes of sigma in one pass over its down-set: a < sigma has
    an element strictly between exactly when a lies below some w < sigma,
    i.e. in the union ``through`` of those w's down-sets; ``through_fewer``
    is the union over the w with fewer arcs than sigma."""
    b = poset.index_of(sigma)
    elements, less = poset.elements, poset.less
    s_sigma = len(sigma.arcs)
    through = through_fewer = fewer = same = 0
    for w in bit_indices(less[b]):
        through |= less[w]
        s_w = len(elements[w].arcs)
        if s_w < s_sigma:
            fewer |= 1 << w
            through_fewer |= less[w]
        elif s_w == s_sigma:
            same |= 1 << w
    star = less[b] & ~through
    wrap = lambda mask: frozenset(elements[k] for k in bit_indices(mask))
    return LSets(
        l_minus=wrap(fewer & ~through_fewer),
        l_zero=wrap(star & same),
        l_plus=wrap(star & ~(fewer | same)),
        l_prime=wrap(star & fewer),
        l_star=wrap(star),
    )


def is_graded(poset: Poset) -> bool:
    """True iff every maximal chain from the unique bottom to the unique
    top has the same length.

    Checked structurally: with rank(x) = longest cover path from the
    bottom, every cover edge must raise the rank by exactly one.
    """
    # a top lies below nothing: its bit is in no mask
    tops = len(poset.elements) - reduce(or_, poset.less, 0).bit_count()
    if poset.less.count(0) != 1 or tops != 1:
        return False
    rank = poset_ranks(poset)
    return all(rank[b] == rank[a] + 1 for b, a in hasse_edges(poset))


def poset_ranks(poset: Poset) -> tuple[int, ...]:
    """Longest-cover-path rank of each element (the layer used for DOT)."""
    size = len(poset.elements)
    rank = [0] * size
    for b in sorted(range(size), key=lambda k: poset.less[k].bit_count()):
        for a in poset.covers[b]:
            rank[b] = max(rank[b], rank[a] + 1)
    return tuple(rank)


def hasse_edges(poset: Poset) -> tuple[tuple[int, int], ...]:
    """Cover edges as (upper, lower) index pairs, sorted."""
    return tuple((b, a) for b, lower in enumerate(poset.covers) for a in lower)


def hasse_dot(poset: Poset) -> str:
    """DOT digraph: one node per involution labelled by cycle notation,
    one edge per cover, nodes layered by rank."""
    ranks = poset_ranks(poset)
    lines = ["digraph hasse {", "  rankdir=BT;", '  node [shape=box];']
    for k, sigma in enumerate(poset.elements):
        lines.append(f'  v{k} [label="{format_involution(sigma)}"];')
    for level in sorted(set(ranks)):
        same = " ".join(f"v{k};" for k in range(len(ranks)) if ranks[k] == level)
        lines.append(f"  {{ rank=same; {same} }}")
    for b, a in hasse_edges(poset):
        lines.append(f"  v{b} -> v{a};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def hasse_json(poset: Poset) -> str:
    """JSON export: elements in enumeration order, covers as index pairs
    [upper, lower]."""
    payload = {
        "n": poset.n,
        "order": poset.order,
        "elements": [format_involution(s) for s in poset.elements],
        "covers": [list(edge) for edge in hasse_edges(poset)],
    }
    return json.dumps(payload, sort_keys=True)
