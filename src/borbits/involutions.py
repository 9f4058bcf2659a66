"""Involutions of the symmetric group, permutations and rook placements.

Conventions used throughout the package:

- All indices are 1-based; matrices are tuples of row tuples.
- An involution is stored by its 2-cycles ("arcs"), each written (i, j)
  with i > j, sorted by ascending j.  Drawn as rooks, the arcs live on
  the strictly lower-triangular board ``{(i, j) : 1 <= j < i <= n}``.
- A permutation w is stored in one-line notation, ``one_line[k-1] = w(k)``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache
from itertools import combinations

from ._value import Value, set_field
from .errors import (
    BorbitsError,
    CycleSyntaxError,
    IndexOutOfRangeError,
    OverlapError,
    SizeMismatchError,
)


@lru_cache(maxsize=None)
def _identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


class Arc(namedtuple("Arc", "i j")):
    """A 2-cycle (i, j) with i > j: a rook in row i, column j."""

    __slots__ = ()


class Involution(Value):
    """A self-inverse permutation of {1..n}, stored by its disjoint arcs.

    The tuple of arcs is normalized: each arc has i > j, arcs are sorted
    by ascending j, and every index appears in at most one arc.  Use
    :func:`involution` or :func:`parse_involution` to build one from
    unnormalized data.
    """

    n: int
    arcs: tuple[Arc, ...]

    def __init__(self, n: int, arcs: tuple[Arc, ...]) -> None:
        if type(n) is not int or n < 1:
            raise IndexOutOfRangeError(f"size must be an int >= 1, got {n!r}")
        # a list would build an involution that cannot be hashed
        if type(arcs) is not tuple:
            raise IndexOutOfRangeError(f"arcs {arcs!r} are not a tuple")
        seen: set[int] = set()
        prev_j = 0
        for arc in arcs:
            # a plain tuple equals and hashes like its Arc, so only the type tells
            if type(arc) is not Arc:
                raise IndexOutOfRangeError(f"arc {arc!r} is not an Arc")
            i, j = arc
            if type(i) is not int or type(j) is not int or not 1 <= j < i <= n:
                raise IndexOutOfRangeError(f"arc {arc!r} out of range for n={n}")
            if i in seen or j in seen:
                raise OverlapError(f"endpoint of {arc!r} repeated")
            if j <= prev_j:
                raise BorbitsError(f"arcs not sorted by ascending j: {arcs!r}")
            seen.update(arc)
            prev_j = j
        set_field(self, "n", n)
        set_field(self, "arcs", arcs)

    # built and hashed tens of thousands of times per suite: no generic path
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.n, self.arcs) == (other.n, other.arcs)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def apply(self, m: int) -> int:
        """Image of m, i.e. the partner of m or m itself if fixed."""
        if type(m) is not int or not 1 <= m <= self.n:
            raise IndexOutOfRangeError(f"point {m!r} outside 1..{self.n}")
        for i, j in self.arcs:
            if m == i:
                return j
            if m == j:
                return i
        return m

    def is_fixed(self, m: int) -> bool:
        return self.apply(m) == m

    def one_line(self) -> tuple[int, ...]:
        image = list(_identity(self.n))
        for i, j in self.arcs:
            image[i - 1], image[j - 1] = j, i
        return tuple(image)

    def __str__(self) -> str:
        return format_involution(self)


class Permutation(Value):
    """A permutation of {1..n} in one-line notation (1-based values)."""

    one_line: tuple[int, ...]

    def __init__(self, one_line: tuple[int, ...]) -> None:
        ints = type(one_line) is tuple and all(type(k) is int for k in one_line)
        if not ints or sorted(one_line) != list(range(1, len(one_line) + 1)):
            raise IndexOutOfRangeError(f"not a permutation: {one_line!r}")
        set_field(self, "one_line", one_line)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.one_line == other.one_line
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.one_line,))

    @property
    def n(self) -> int:
        return len(self.one_line)

    def apply(self, k: int) -> int:
        if type(k) is not int or not 1 <= k <= self.n:
            raise IndexOutOfRangeError(f"point {k!r} outside 1..{self.n}")
        return self.one_line[k - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for k, image in enumerate(self.one_line, start=1):
            inv[image - 1] = k
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self . other)(k) = self(other(k))."""
        if self.n != other.n:
            raise SizeMismatchError(f"sizes differ: {self.n} vs {other.n}")
        return Permutation(tuple(self.one_line[x - 1] for x in other.one_line))


def involution(n: int, pairs: Iterable[tuple[int, int]]) -> Involution:
    """Build an involution from unordered cycles, normalizing each to (i, j)
    with i > j and sorting by ascending j."""
    arcs = []
    for a, b in pairs:
        if a == b:
            raise OverlapError(f"cycle ({a},{b}) repeats its endpoint")
        arcs.append(Arc(max(a, b), min(a, b)))
    return Involution(n, tuple(sorted(arcs, key=lambda arc: arc.j)))


def identity_involution(n: int) -> Involution:
    return Involution(n, ())


def longest_involution(n: int) -> Involution:
    """The order-reversing element (n,1)(n-1,2)...: maximal in every order here."""
    return involution(n, [(n - k, k + 1) for k in range(n // 2)])


_CYCLE_RE = re.compile(r"\((\d+),(\d+)\)")


def parse_involution(text: str, n: int) -> Involution:
    """Parse cycle notation like ``"(3,1)(5,2)"`` or ``"id"``.

    Whitespace-insensitive; cycles may be written in either endpoint
    order and are normalized.  Raises :class:`CycleSyntaxError` on
    malformed text, :class:`IndexOutOfRangeError` for endpoints outside
    1..n, and :class:`OverlapError` for repeated endpoints.
    """
    compact = "".join(text.split())
    if compact == "id":
        return identity_involution(n)
    if not compact or _CYCLE_RE.sub("", compact):
        raise CycleSyntaxError(f"cannot parse involution from {text!r}")
    pairs = [(int(a), int(b)) for a, b in _CYCLE_RE.findall(compact)]
    for a, b in pairs:
        if not (1 <= a <= n and 1 <= b <= n):
            raise IndexOutOfRangeError(f"endpoint of ({a},{b}) outside 1..{n}")
    return involution(n, pairs)


def format_involution(sigma: Involution) -> str:
    if not sigma.arcs:
        return "id"
    return "".join(f"({i},{j})" for i, j in sigma.arcs)


def involution_to_json(sigma: Involution) -> dict:
    """JSON form: cycle string, arc list, and one-line integer array."""
    return {
        "cycles": format_involution(sigma),
        "arcs": [list(arc) for arc in sigma.arcs],
        "one_line": list(sigma.one_line()),
    }


def to_permutation(sigma: Involution) -> Permutation:
    return Permutation(sigma.one_line())


def involution_from_one_line(one_line: Iterable[int]) -> Involution:
    """Inverse of :func:`to_permutation`; rejects non-involutions."""
    word = tuple(one_line)
    perm = Permutation(word)
    pairs = []
    for k, image in enumerate(word, start=1):
        if perm.apply(image) != k:
            raise OverlapError(f"{word!r} is not self-inverse")
        if image > k:
            pairs.append((image, k))
    return involution(perm.n, pairs)


def length(w: Permutation) -> int:
    """Number of inversions, i.e. the length of any reduced word."""
    if not isinstance(w, Permutation):
        raise IndexOutOfRangeError(f"not a Permutation: {w!r}")
    return _inversions(w.one_line)


def _inversions(word: tuple[int, ...]) -> int:
    """:func:`length` of a one-line word, unchecked: an involution's
    ``one_line()`` is counted with no :class:`Permutation` built."""
    return sum(x > y for x, y in combinations(word, 2))


def enumerate_involutions(n: int) -> tuple[Involution, ...]:
    """All involutions of S_n, ordered lexicographically by one-line form.

    Built by direct arc recursion, never by filtering all n! permutations:
    the smallest unused point p is fixed first, then paired with each
    larger q in turn.  Every point below p is placed already, so the
    value at p runs p, then q ascending, which is one-line lex order; and
    the arcs (q, p) come out normalized, so elements skip the constructor's checks.
    """
    if type(n) is not int or n < 1:
        raise IndexOutOfRangeError(f"size must be an int >= 1, got {n!r}")
    found: list[Involution] = []
    # each arc built once: the arcs (q, p) as 1-tuples, table[q][p]
    table = [[(Arc(q, p),) for p in range(q)] for q in range(n + 1)]

    def extend(points: tuple[int, ...], arcs: tuple[Arc, ...]) -> None:
        if not points:
            sigma = Involution.__new__(Involution)
            set_field(sigma, "n", n)
            set_field(sigma, "arcs", arcs)
            found.append(sigma)
            return
        p, rest = points[0], points[1:]
        extend(rest, arcs)  # p fixed
        for k, q in enumerate(rest):  # p paired with a larger point
            extend(rest[:k] + rest[k + 1 :], arcs + table[q][p])

    extend(tuple(range(1, n + 1)), ())
    return tuple(found)
