"""The candidate closure variety of an orbit: rank bounds plus quadrics.

Membership asks two condition families of a strictly lower-triangular A:

- corner rank bounds ``rank of A[i.., ..j] <= bound(i, j)`` everywhere,
- vanishing of the square entries ``(A^2)_{r,s}`` on the upward-closed
  cell set spread above the maximal arcs.

:meth:`ZSpec.contains` tests one point against one variety;
:func:`members` tests many points against many varieties at once, by
:func:`~borbits.rankorder.dominance_masks` over their joined tables.

For chain supports the variety is known to agree with the orbit closure;
the essential-set machinery below checks, set-theoretically over any
prime field, that rank bounds at the essential cells of the complementary
permutation already imply them everywhere.  It runs over the corner rank
tables of the partial permutations, over every field those of all
matrices, bit-sliced by cell: one int bitset of the tables within the
bound per cell, and n^2 ANDs decide.  The bitsets are built once per n
from the tables, which are then dropped; the table count, the width of
the all-tables mask, is stored beside them.  The tests' oracles scan the
tables one by one, and rank all q^(n^2) matrices by their own
elimination.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from functools import lru_cache, reduce
from itertools import product
from math import isqrt
from operator import and_, le, mul

from ._value import Value
from .errors import (
    NotAFieldError,
    NotChainError,
    NotStrictlyLowerError,
    SizeMismatchError,
    TooLargeError,
)
from .involutions import Arc, Involution, Permutation
from .matrices import Matrix, integral_multiple, is_strictly_lower, square_size
from .moves import phi_lt
from .rankorder import RankMatrix, _at_most_sets, _strict_ranks, dominance_masks, star_rank_matrix

# the essential-set check's cost is the number of partial permutation
# tables, which does not grow with q: 130,922 at n = 7, 1,441,729 at n = 8
ESSENTIAL_MAX_N = 7

# the first thirteen primes as Miller-Rabin bases decide primality exactly
# below the smallest strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017); the first twelve stop at 3.2e23
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_LIMIT = 3_317_044_064_679_887_385_961_981


def maximal_support(sigma: Involution) -> frozenset[Arc]:
    """Arcs with no other arc strictly above them in the board order."""
    return frozenset(
        arc
        for arc in sigma.arcs
        if not any(phi_lt(arc, other) for other in sigma.arcs)
    )


def quadric_cells(sigma: Involution) -> frozenset[tuple[int, int]]:
    """Board cells strictly above some maximal arc; upward closed.  Above
    the arc (i, j) lie the board cells (r, s) with r >= i and s <= j, the
    arc aside; no maximal arc lies above another."""
    tops = maximal_support(sigma)
    cells = {
        (r, s)
        for i, j in tops
        for r in range(i, sigma.n + 1)
        for s in range(1, min(j, r - 1) + 1)
    }
    return frozenset(cells - tops)


# (n, strict corner ranks as row-major bytes, cells where A^2 != 0 among
# those read: all of them by z_point)
ZPoint = tuple[int, bytes, frozenset[tuple[int, int]]]


def z_point(a: Matrix, n: int | None = None) -> ZPoint:
    """What membership reads of a strictly lower-triangular matrix, for
    any number of varieties: n, the corner ranks as row-major ``bytes``
    and the cells where A^2 is nonzero.  It reads the integral multiple,
    which the ranks and the quadrics, homogeneous of degree 2, cannot
    tell apart from the matrix.  Past a float, a size other than ``n`` is
    named first, then what :func:`~borbits.orbits.rank_profile` checks."""
    a = integral_multiple(a)
    if n is not None and len(a) != n:
        raise SizeMismatchError(f"matrix size {len(a)} vs n={n}")
    square_size(a)
    if not is_strictly_lower(a):
        raise NotStrictlyLowerError("corner ranks are defined on functionals")
    return _z_point(a)


def _z_point(a: Matrix, cells: Collection[tuple[int, int]] | None = None) -> ZPoint:
    """:func:`z_point` unchecked: a strictly lower square matrix of one
    type.  Given ``cells``, 1-based (r, s), A^2 is read there only, and
    the third item is the cells among them where it is nonzero: all that
    a variety whose quadric cells lie among them reads of the point."""
    n = len(a)
    ranks = _strict_ranks(a, n)
    if cells is None:
        cells = [(r, s) for r in range(3, n + 1) for s in range(1, r - 1)]
    if not cells:
        return n, ranks, frozenset()
    # (A^2)_{r,s} is row r times column s; for strictly lower A only the
    # terms A[r,k] A[k,s] with s < k < r can be nonzero
    columns = tuple(zip(*a))
    support = frozenset(
        (r, s) for r, s in cells if sum(map(mul, a[r - 1][s : r - 1], columns[s - 1][s : r - 1]))
    )
    return n, ranks, support


class ZSpec(Value):
    """Defining data of the candidate closure variety of one involution."""

    sigma: Involution
    rank_bounds: RankMatrix
    quadric_cells: frozenset[tuple[int, int]]

    def contains(self, point: ZPoint) -> bool:
        """Membership of a :func:`z_point`: ranks within bounds, no quadric."""
        n, ranks, support = point
        if n != self.sigma.n:
            raise SizeMismatchError(f"matrix size {n} vs n={self.sigma.n}")
        if len(ranks) != n * n:
            raise SizeMismatchError(f"{len(ranks)} corner ranks vs n={n}")
        bounds = self.rank_bounds.cells
        return all(map(le, ranks, bounds)) and support.isdisjoint(self.quadric_cells)


def z_spec(sigma: Involution) -> ZSpec:
    return ZSpec(sigma, star_rank_matrix(sigma), quadric_cells(sigma))


def members(specs: Sequence[ZSpec], points: Sequence[ZPoint]) -> tuple[int, ...]:
    """Every point against every variety at once: bit a of entry b is set
    iff ``specs[b].contains(points[a])``.

    The rank half is :func:`~borbits.rankorder.dominance_masks` of the
    points' ranks joined with the specs' bounds, each spec's mask cut to
    the points' bits; then one AND-NOT per spec with the points whose A^2
    is nonzero at one of its quadric cells.  :meth:`ZSpec.contains`, one
    pair at a time, is the oracle for this kernel."""
    if not specs or not points:
        return (0,) * len(specs)
    sizes = {spec.sigma.n for spec in specs} | {n for n, _, _ in points}
    if len(sizes) > 1:
        raise SizeMismatchError(f"matrix sizes {sorted(sizes)} in one membership test")
    n = sizes.pop()
    if any(len(ranks) != n * n for _, ranks, _ in points):
        raise SizeMismatchError(f"a point without {n * n} corner ranks")
    ranks = b"".join(ranks for _, ranks, _ in points)
    bounds = b"".join(spec.rank_bounds.cells for spec in specs)
    everyone = (1 << len(points)) - 1
    masks = [mask & everyone for mask in dominance_masks(ranks + bounds, n)[len(points) :]]
    # bit a of nonzero[cell]: A^2 of points[a] is nonzero at cell
    nonzero: dict[tuple[int, int], int] = {}
    for a, (_, _, support) in enumerate(points):
        for cell in support:
            nonzero[cell] = nonzero.get(cell, 0) | 1 << a
    cells = nonzero.keys()
    return tuple(
        reduce(lambda mask, cell: mask & ~nonzero[cell], cells & spec.quadric_cells, mask)
        for mask, spec in zip(masks, specs)
    )


def z_contains(spec: ZSpec, a: Matrix) -> bool:
    """Membership test: :meth:`ZSpec.contains` of :func:`z_point`."""
    return spec.contains(z_point(a, spec.sigma.n))


def is_chain(sigma: Involution) -> bool:
    """True iff the arcs are totally ordered in the board order."""
    arcs = sigma.arcs
    return all(
        phi_lt(a, b) or phi_lt(b, a)
        for k, a in enumerate(arcs)
        for b in arcs[k + 1 :]
    )


def rothe_diagram(w: Permutation) -> frozenset[tuple[int, int]]:
    """Cells (i, j) with w(i) > j and w^{-1}(j) > i; the cell count equals
    the length of w."""
    image, preimage = w.one_line, w.inverse().one_line
    return frozenset(
        (i, j)
        for i in range(1, w.n + 1)
        for j in range(1, w.n + 1)
        if image[i - 1] > j and preimage[j - 1] > i
    )


def essential_set(w: Permutation) -> frozenset[tuple[int, int]]:
    """Diagram cells whose South and East neighbours leave the diagram."""
    diagram = rothe_diagram(w)
    return frozenset(
        (i, j)
        for i, j in diagram
        if (i + 1, j) not in diagram and (i, j + 1) not in diagram
    )


def complement_permutation(sigma: Involution) -> Permutation:
    """w0 . sigma, the permutation whose matrix is the quarter turn of
    the full placement of sigma: k goes to n + 1 - sigma(k)."""
    return Permutation(tuple(sigma.n + 1 - x for x in sigma.one_line()))


def _corner_rank_table_bits(rows: tuple[int, ...], n: int) -> bytes:
    """Ranks of all upper-left i x j corners of an n x n matrix over the
    two-element field, rows encoded as bit integers (column 1 = low bit)."""
    out = bytearray(n * n)
    for j in range(1, n + 1):
        mask = (1 << j) - 1
        basis: list[int] = []
        rank = 0
        for i in range(1, n + 1):
            row = rows[i - 1] & mask
            for b in basis:
                low = b & -b
                if row & low:
                    row ^= b
            if row:
                basis.append(row)
                basis.sort(key=lambda x: x & -x)
                rank += 1
            out[(i - 1) * n + (j - 1)] = rank
    return bytes(out)


def _corner_rank_table_gf(rows: list[list[int]], n: int, q: int) -> bytes:
    """Ranks of all upper-left i x j corners of an n x n matrix over
    GF(q), entries residues mod q, one column prefix at a time: each row
    reduced by the basis rows, its first nonzero entry then scaled to 1."""
    out = bytearray(n * n)
    for j in range(1, n + 1):
        basis: list = []  # each row: zeros up to its pivot, a 1
        for i in range(1, n + 1):
            row = rows[i - 1][:j]
            for pivot_row in basis:
                x = row[pivot_row.index(1)]
                row = [(y - x * p) % q for y, p in zip(row, pivot_row)]
            if any(row):
                inverse = pow(next(filter(None, row)), q - 2, q)
                basis.append([y * inverse % q for y in row])
            out[(i - 1) * n + (j - 1)] = len(basis)
    return bytes(out)


@lru_cache(maxsize=4)
def _all_corner_rank_tables(n: int, q: int) -> tuple[bytes, ...]:
    """Corner rank tables of every n x n matrix over the prime field: the
    brute-force oracle for :func:`_partial_permutation_tables`."""
    tables = []
    if q == 2:
        for code in range(2 ** (n * n)):
            rows = tuple((code >> (n * r)) & ((1 << n) - 1) for r in range(n))
            tables.append(_corner_rank_table_bits(rows, n))
    else:
        for entries in product(range(q), repeat=n * n):
            rows = [list(entries[r * n : (r + 1) * n]) for r in range(n)]
            tables.append(_corner_rank_table_gf(rows, n, q))
    return tuple(tables)


def _partial_permutation_tables(n: int) -> tuple[bytes, ...]:
    """Corner rank tables of every n x n partial permutation matrix, built
    row by row: row i holds no rook, or one in a column not used yet, and
    adds one to the ranks of the corners reaching that column."""
    states = [(0, b"")]  # (mask of used columns, table of the rows so far)
    for _ in range(n):
        grown = []
        for used, table in states:
            prev = table[-n:] if table else bytes(n)
            grown.append((used, table + prev))
            for c in range(n):
                if not used >> c & 1:
                    row = bytes(r + (j >= c) for j, r in enumerate(prev))
                    grown.append((used | 1 << c, table + row))
        states = grown
    return tuple(table for _, table in states)


@lru_cache(maxsize=None)
def _cell_sets(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The number of partial permutation tables, and for each cell, row by
    row, their :func:`~borbits.rankorder._at_most_sets`: bit k of item v is
    set iff table k of :func:`_partial_permutation_tables` has rank at most
    v there.  The tables are dropped once the sets are built: the check
    reads only the sets and the count."""
    tables = _partial_permutation_tables(n)
    flat = b"".join(tables)
    return len(tables), tuple(_at_most_sets(flat[k :: n * n]) for k in range(n * n))


def _bounds_imply_all(bounds: bytes, cells) -> bool:
    """True iff every partial permutation table within ``bounds`` at the
    1-based ``cells`` is within them at every cell: the tables within
    the essential bounds, less those within all bounds, are none."""
    n = isqrt(len(bounds))
    count, cell_sets = _cell_sets(n)
    within = [sets[b] for sets, b in zip(cell_sets, bounds)]
    everyone = (1 << count) - 1
    pinned = reduce(and_, (within[(i - 1) * n + (j - 1)] for i, j in cells), everyone)
    return not pinned & ~reduce(and_, within, everyone)


def _is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin for ``2 <= q < _WITNESS_LIMIT``."""
    for p in _WITNESSES:
        if q % p == 0:
            return q == p
    s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = d * 2^s, d odd
    d = (q - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def essential_reduction_check(sigma: Involution, q: int) -> bool:
    """Exhaustive set-level check of the essential-set reduction for a
    chain involution.

    With w the complementary permutation of sigma, every matrix over the
    q-element field meeting the corner rank bounds of the matrix of w at
    the essential cells must meet them at every cell.

    The answer does not depend on q.  Corner ranks are unchanged by adding
    a multiple of a row to a later row or of a column to a later column,
    and by scaling; those moves reduce any matrix to a partial permutation
    matrix, a 0/1 matrix over every field.  So the tables over GF(q) are
    those of the partial permutations, and the check runs over them, for
    n up to ``ESSENTIAL_MAX_N`` and q below ``_WITNESS_LIMIT``.
    """
    if not is_chain(sigma):
        raise NotChainError(f"{sigma} is not a chain")
    if not isinstance(q, int):
        raise NotAFieldError(f"field size {q!r} is not an int")
    n = sigma.n
    if n > ESSENTIAL_MAX_N:
        raise TooLargeError(f"n = {n} exceeds the essential-set bound {ESSENTIAL_MAX_N}")
    if q >= _WITNESS_LIMIT:
        raise TooLargeError(f"field size {q} is past the exact primality test")
    # Z/q is a field, the one the check speaks of, only for prime q
    if q < 2 or not _is_prime(q):
        raise NotAFieldError(f"field size {q} is not prime")
    w = complement_permutation(sigma)
    # row convention (rook of row k at column w(k)): the one whose corner
    # ranks the diagram formula describes; w's own table is among the
    # partial permutations', so each bound is within its cell's sets
    bounds = bytes(
        sum(image <= j for image in w.one_line[:i])
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    return _bounds_imply_all(bounds, essential_set(w))
