"""Exhaustive posets of involutions, their covers, and order-side
neighbour classes.

The covering DAG is one route; the L-classes below are computed from the
order relation itself by down-set unions, so the two can be checked
against each other and against the move constructions.
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from operator import or_

from ._value import Value
from .errors import BoundExceededError, NotInPosetError
from .involutions import Involution, _inversions, enumerate_involutions, format_involution
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

    @cached_property
    def _layers(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """For :func:`l_sets`, built on its first call: each element's height
        (Incitti's rank (length + arcs) / 2 if it rises along the order, else
        the down-set size) and the bitsets of each height, of each arc count
        and of fewer arcs than each."""
        height = [(_inversions(s.one_line()) + len(s.arcs)) // 2 for s in self.elements]
        lower = list(accumulate(_bitsets(height), or_, initial=0))  # heights below h
        if any(mask & ~lower[h] for mask, h in zip(self.less, height)):
            height = [mask.bit_count() for mask in self.less]
        by_arcs = _bitsets([len(s.arcs) for s in self.elements])
        return height, _bitsets(height), by_arcs, list(accumulate(by_arcs, or_, initial=0))


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
    smaller, so :func:`_peel` can walk b's down-set by sum."""
    stride = n * n
    sums = [sum(cells[k : k + stride]) for k in range(0, len(cells), stride)]
    layers = _bitsets(sums)
    return tuple(tuple(sorted(_peel(rest, s, layers, less)[0])) for s, rest in zip(sums, less))


def _bitsets(values: list[int]) -> list[int]:
    """Item v is the bitset of the indices k with ``values[k] == v``."""
    sets = [0] * (max(values, default=0) + 1)
    for k, v in enumerate(values):
        sets[v] |= 1 << k
    return sets


def _peel(mask: int, h: int, layers: list[int], less) -> tuple[list[int], int]:
    """The maximal elements of ``mask`` and the union of their down-sets,
    walking ``layers``, the bitsets of a height rising along the order,
    down from h, above all of ``mask``: what is left at a layer is maximal."""
    found, union = [], 0
    while mask:
        h -= 1
        top = mask & layers[h]
        if top:
            mask ^= top
            while top:  # its set bits, walked inline
                low = top & -top
                a = low.bit_length() - 1
                found.append(a)
                union |= less[a]
                top ^= low
            mask &= ~union
    return found, union


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
    """The L-classes of sigma from bitsets, not from the covers: a < sigma
    has an element strictly between iff it lies in ``through``, the union
    of the down-sets of the w < sigma.  Under Incitti's rank r, which the
    graded suite checks grades the star poset, that reads one layer, r - 1."""
    b = poset.index_of(sigma)
    height, by_height, by_arcs, fewer_arcs = poset._layers
    elements, less = poset.elements, poset.less
    below, s_sigma = less[b], len(sigma.arcs)
    fewer, same = below & fewer_arcs[s_sigma], below & by_arcs[s_sigma]
    through = _peel(below, height[b], by_height, less)[1]
    through_fewer = _peel(fewer, height[b], by_height, less)[1]
    star = below & ~through
    wrap = lambda mask: frozenset(map(elements.__getitem__, bit_indices(mask)))
    zero, plus, prime = wrap(star & same), wrap(star & ~(fewer | same)), wrap(star & fewer)
    return LSets(wrap(fewer & ~through_fewer), zero, plus, prime, zero | plus | prime)


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
    lines = ["digraph hasse {", "  rankdir=BT;", '  node [shape=box];']
    for k, sigma in enumerate(poset.elements):
        lines.append(f'  v{k} [label="{format_involution(sigma)}"];')
    levels = {}  # rank -> its nodes
    for k, level in enumerate(poset_ranks(poset)):
        levels.setdefault(level, []).append(f"v{k};")
    for level in sorted(levels):
        lines.append(f"  {{ rank=same; {' '.join(levels[level])} }}")
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
