"""The six covering moves on involutions.

Moves act on the rook placement of an involution sigma:

- ``remove``  delete a minimal arc,
- ``right``   slide an arc's column to the first free point inside it,
- ``up``      slide an arc's row to the last free point inside it,
- ``a``       swap the crossing of two arcs nested side by side,
- ``b``       swap the nesting of two comparable arcs,
- ``c``       split one arc through two free interior points.

``remove`` drops the arc count by one, ``c`` raises it by one, the rest
preserve it.  The board order on positions is (a, b) <= (c, d) iff
a <= c and b >= d.

One cached pass per sigma builds the output of every applicable move
of the six kinds, and nothing else builds one: :func:`near_moves`,
:func:`apply_move`, the neighbour classes and the degeneration suite
read that table, and a move not in it raises
:class:`~borbits.errors.MoveNotApplicableError`.  The definitional
scans :func:`minimal_support` and :func:`a_candidates` to
:func:`c_candidates` are the tests' oracle for that pass, which calls
none of them.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter, ne
from types import MappingProxyType

from ._value import Value, set_field
from .errors import ArcNotInSupportError, MoveNotApplicableError
from .involutions import Arc, Involution


def phi_leq(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Board order: (a1, a2) <= (b1, b2) iff a1 <= b1 and a2 >= b2."""
    return a[0] <= b[0] and a[1] >= b[1]


def phi_lt(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a != b and phi_leq(a, b)


def minimal_support(sigma: Involution) -> frozenset[Arc]:
    """Arcs with no other arc strictly below them in the board order."""
    return frozenset(
        arc
        for arc in sigma.arcs
        if not any(phi_lt(other, arc) for other in sigma.arcs)
    )


def _require_arc(sigma: Involution, arc: Arc) -> None:
    # `in` compares by equality, which takes 4.0 for 4 and True for 1
    if arc not in sigma.arcs or any(type(p) is not int for p in arc):
        raise ArcNotInSupportError(f"{arc!r} not an arc of {sigma}")


def _replace(sigma: Involution, drop: tuple[Arc, ...], add: tuple[Arc, ...]) -> Involution:
    kept = [a for a in sigma.arcs if a not in drop]
    kept += add
    kept.sort(key=itemgetter(1))  # by ascending j
    return Involution(sigma.n, tuple(kept))


def a_candidates(sigma: Involution, arc: Arc) -> frozenset[Arc]:
    """Arcs (al, be) with j < be < i < al, no fixed point in (be, i), and
    no blocking arc (p, q): one strictly below (i, j) but not strictly
    below (be, j), or strictly below (al, be) but not strictly below
    (al, i)."""
    _require_arc(sigma, arc)
    i, j = arc
    out = []
    for al, be in sigma.arcs:
        if not (j < be < i < al):
            continue
        if any(sigma.is_fixed(r) for r in range(be + 1, i)):
            continue
        if any(
            (phi_lt(other, arc) and not phi_lt(other, (be, j)))
            or (phi_lt(other, (al, be)) and not phi_lt(other, (al, i)))
            for other in sigma.arcs
        ):
            continue
        out.append(Arc(al, be))
    return frozenset(out)


def b_candidates(sigma: Involution, arc: Arc) -> frozenset[Arc]:
    """Arcs strictly above (i, j) in the board order with nothing strictly
    between."""
    _require_arc(sigma, arc)
    out = []
    for other in sigma.arcs:
        if not phi_lt(arc, other):
            continue
        if any(phi_lt(arc, mid) and phi_lt(mid, other) for mid in sigma.arcs):
            continue
        out.append(other)
    return frozenset(out)


def c_candidates(sigma: Involution, arc: Arc) -> frozenset[tuple[int, int]]:
    """Position pairs (al, be), j < al < be < i, both fixed points of sigma,
    with no fixed point strictly between and every arc strictly below
    (i, j) but not below (al, j) staying strictly below (i, be).

    Fixedness of al and be is required for the output to be an
    involution."""
    _require_arc(sigma, arc)
    i, j = arc
    return frozenset(
        (al, be)
        for al in range(j + 1, i)
        for be in range(al + 1, i)
        if sigma.is_fixed(al)
        and sigma.is_fixed(be)
        and not any(sigma.is_fixed(s) for s in range(al + 1, be))
        and all(
            not phi_lt(other, arc) or phi_lt(other, (al, j)) or phi_lt(other, (i, be))
            for other in sigma.arcs
        )
    )


class Move(Value):
    """One applicable move instance: kind, source arc, optional partner.

    ``partner`` is a plain pair (al, be): the partner arc for kinds a/b,
    two fixed points al < be for kind c; the three one-arc kinds carry
    none.
    """

    kind: str
    arc: Arc
    partner: tuple[int, int] | None

    def __init__(self, kind: str, arc: Arc, partner: tuple[int, int] | None = None) -> None:
        set_field(self, "kind", kind)
        set_field(self, "arc", arc)
        set_field(self, "partner", partner)

    # built and hashed once per move of every table: no generic path
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.kind, self.arc, self.partner) == (other.kind, other.arc, other.partner)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.arc, self.partner))


@lru_cache(maxsize=None)
def _move_outputs(sigma: Involution) -> MappingProxyType[Move, Involution]:
    """Every applicable move instance and its output, in a fixed
    deterministic order: the one construction pass over sigma, read-only
    since the cache hands it to every caller.  For (i, j) and a partner
    (al, be): a gives (be, j), (al, i); b gives (i, be), (al, j); c
    splits (i, j) alone into (i, be), (al, j).

    One read of sigma's partner array per arc (i, j) finds the arcs
    nested strictly inside it, j < q < p < i, which are the arcs below
    it in the board order, and its free interior points; every kind is
    decided by those: a removal needs no nested arc, a slide to m keeps
    each nested arc below the slid arc, and a split passes between two
    consecutive free points that no nested arc straddles."""
    image = (0, *sigma.one_line())  # image[k] = sigma(k)
    # per arc: its nested arcs by ascending q, the largest p among them,
    # and its free interior points; a nested arc that reaches past every
    # one of smaller q is maximal inside it, which makes the arc its b
    # partner
    inside, reach, free = {}, {}, {}
    covering: dict[Arc, list[Arc]] = {arc: [] for arc in sigma.arcs}
    for arc in sigma.arcs:
        i, j = arc
        inner, points, top = [], [], 0
        for q in range(j + 1, i):
            p = image[q]
            if p == q:
                points.append(q)
            elif q < p < i:
                inner.append((p, q))
                if p > top:
                    covering[p, q].append(arc)
                    top = p
        inside[arc], reach[arc], free[arc] = inner, top, points
    out: dict[Move, Involution] = {}
    for arc in sigma.arcs:
        i, j = arc
        inner, top, points = inside[arc], reach[arc], free[arc]
        if not inner:
            out[Move("remove", arc)] = _replace(sigma, (arc,), ())
        if points and (not inner or inner[0][1] > points[0]):
            out[Move("right", arc)] = _replace(sigma, (arc,), (Arc(i, points[0]),))
        if points and top < points[-1]:
            out[Move("up", arc)] = _replace(sigma, (arc,), (Arc(points[-1], j),))
        # a crossing arc (al, be), be past every free point and nested arc
        # of (i, j), with no arc nested in it starting below i.  Two such
        # partners cross, as do two b partners, so ascending be is
        # ascending al
        for be in range(max(j, top, *points[-1:]) + 1, i):
            al = image[be]
            if al > i and (not inside[al, be] or inside[al, be][0][1] > i):
                drop = (arc, Arc(al, be))
                out[Move("a", arc, (al, be))] = _replace(sigma, drop, (Arc(be, j), Arc(al, i)))
        for al, be in covering[arc]:
            drop = (arc, Arc(al, be))
            out[Move("b", arc, (al, be))] = _replace(sigma, drop, (Arc(i, be), Arc(al, j)))
        for al, be in zip(points, points[1:]):
            if all(p < al or q > be for p, q in inner):
                out[Move("c", arc, (al, be))] = _replace(sigma, (arc,), (Arc(i, be), Arc(al, j)))
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def near_moves(sigma: Involution) -> tuple[Move, ...]:
    """Every applicable move instance, in a fixed deterministic order."""
    return tuple(_move_outputs(sigma))


def apply_move(sigma: Involution, move: Move) -> Involution:
    """The output of a move of :func:`near_moves`; any other move raises
    :class:`MoveNotApplicableError`."""
    try:
        tau = _move_outputs(sigma)[move]
    except (KeyError, TypeError):  # TypeError: an unhashable partner
        tau = None
    # the lookup's equality takes 4.0 for 4 and True for 1
    if tau is None or any(type(p) is not int for p in (*move.arc, *(move.partner or ()))):
        raise MoveNotApplicableError(f"{move} not applicable to {sigma}")
    return tau


def _outputs_of(sigma: Involution, kinds: tuple[str, ...]) -> frozenset[Involution]:
    return frozenset(
        tau for move, tau in _move_outputs(sigma).items() if move.kind in kinds
    )


def n_minus(sigma: Involution) -> frozenset[Involution]:
    return _outputs_of(sigma, ("remove",))


def n_zero(sigma: Involution) -> frozenset[Involution]:
    return _outputs_of(sigma, ("right", "up", "a", "b"))


def n_plus(sigma: Involution) -> frozenset[Involution]:
    return _outputs_of(sigma, ("c",))


def near(sigma: Involution) -> frozenset[Involution]:
    """All outputs of all applicable moves."""
    return frozenset(_move_outputs(sigma).values())


def n_prime(sigma: Involution) -> frozenset[Involution]:
    """Removals at minimal arcs whose closed interval [j, i] is free of
    fixed points, read off sigma's one-line word."""
    word = sigma.one_line()
    return frozenset(
        tau
        for move, tau in _move_outputs(sigma).items()
        if move.kind == "remove"
        and all(map(ne, word[move.arc.j - 1 : move.arc.i], range(move.arc.j, move.arc.i + 1)))
    )


def near_prime(sigma: Involution) -> frozenset[Involution]:
    """Restricted neighbour set; equals the set of elements sigma covers
    in both Bruhat-Chevalley order and the lower-placement order."""
    return n_prime(sigma) | n_zero(sigma) | n_plus(sigma)
