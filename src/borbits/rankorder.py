"""Rank matrices of rook placements and the three partial orders.

Two independent routes compute the same numbers and are cross-validated
in the test suite rather than assumed equal:

- combinatorially, the rank of a corner truncation of a rook placement
  equals the number of rooks weakly South-West of the corner;
- linear-algebraically, for a functional, by one bottom-up exact
  elimination (the kernel in :mod:`borbits.matrices`) whose pivots are
  a rook placement with the same strict corner ranks; one pass per
  column prefix is the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import le
from typing import Iterable, Iterator, Sequence

from .errors import (
    IndexOutOfRangeError,
    NotStrictlyLowerError,
    SizeMismatchError,
    UnknownSuiteError,
)
from .involutions import Arc, Involution, Permutation, to_permutation
from .matrices import Matrix, echelon_insert, integral_multiple, is_strictly_lower, square_size


@lru_cache(maxsize=None)
def _rook_bounds(n: int) -> tuple[int, ...]:
    """The largest corner rank at each cell, row by row, flattened: the
    corner at (i, j) spans n-i+1 rows and j columns, one rook each."""
    return tuple(min(n - i + 1, j) for i in range(1, n + 1) for j in range(1, n + 1))


@dataclass(frozen=True)
class RankMatrix:
    """An n x n table of corner ranks of a rook placement."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.n
        if type(n) is not int:
            raise IndexOutOfRangeError(f"table size {n!r} is not an int")
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise SizeMismatchError(f"expected {n}x{n} table")
        cells, bounds = list(chain.from_iterable(self.rows)), _rook_bounds(n)
        if type(sum(cells)) is not int:  # a float or Fraction anywhere makes the sum one
            raise IndexOutOfRangeError("corner ranks must be ints")
        if all(map(le, cells, bounds)) and min(cells, default=0) >= 0:
            return
        for k, (entry, bound) in enumerate(zip(cells, bounds)):
            if not 0 <= entry <= bound:
                raise IndexOutOfRangeError(
                    f"entry {entry} at ({k // n + 1},{k % n + 1}) exceeds rook bound"
                )

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [list(row) for row in self.rows]}


def exact_rank(matrix: Sequence[Sequence]) -> int:
    """Rank by exact elimination, fraction-free over the integers or over
    Q(eps); no floating point anywhere.  The matrix may be rectangular,
    but ragged rows raise :class:`SizeMismatchError`."""
    if len({len(row) for row in matrix}) > 1:
        raise SizeMismatchError("ragged rows")
    basis: list = []
    for row in integral_multiple(matrix):
        echelon_insert(basis, list(row))
    return len(basis)


def southwest_count(arcs: Iterable[Arc], i: int, j: int) -> int:
    """Number of rooks weakly South-West of box (i, j): a >= i and b <= j."""
    return sum(1 for a, b in arcs if a >= i and b <= j)


def _southwest_table(rooks: Iterable[tuple[int, int]], n: int) -> tuple[tuple[int, ...], ...]:
    """South-West counts of rooks (row, column), at most one per row, built
    from the bottom row up: row i is row i+1 plus one from its rook on."""
    column = dict(rooks)
    row, rows = [0] * n, []
    for i in range(n, 0, -1):
        if i in column:
            c = column[i] - 1
            row[c:] = [x + 1 for x in row[c:]]
        rows.append(tuple(row))
    return tuple(reversed(rows))


def _below_diagonal(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The table with its entries on and above the diagonal set to 0."""
    zeros = (0,) * len(rows)
    return tuple(row[:i] + zeros[i:] for i, row in enumerate(rows))


@lru_cache(maxsize=None)
def melnikov_rank_matrix(sigma: Involution) -> RankMatrix:
    """Corner ranks of the strictly upper-triangular placement of sigma,
    with a rook at (j, i) for each arc (i, j)."""
    return RankMatrix(sigma.n, _southwest_table(((j, i) for i, j in sigma.arcs), sigma.n))


@lru_cache(maxsize=None)
def star_rank_matrix(sigma: Involution) -> RankMatrix:
    """Corner ranks of the strictly lower-triangular placement of sigma;
    entries on and above the diagonal are defined to be 0."""
    return RankMatrix(sigma.n, _below_diagonal(_southwest_table(sigma.arcs, sigma.n)))


@lru_cache(maxsize=None)
def bruhat_rank_matrix(w: Permutation) -> RankMatrix:
    """Corner ranks of the full permutation matrix (rook of column k in
    row w(k)), over the whole n x n grid."""
    return RankMatrix(w.n, _southwest_table(zip(w.one_line, range(1, w.n + 1)), w.n))


# order name -> the rank table of an involution whose entrywise
# comparison defines the order
ORDER_TABLES = {
    "star": star_rank_matrix,
    "melnikov": melnikov_rank_matrix,
    "bruhat": lambda sigma: bruhat_rank_matrix(to_permutation(sigma)),
}


def order_table(order: str):
    """The rank table whose entrywise comparison defines ``order``."""
    try:
        return ORDER_TABLES[order]
    except KeyError:
        raise UnknownSuiteError(
            f"unknown order {order!r}; expected one of {tuple(ORDER_TABLES)}"
        ) from None


def _dominated(low: RankMatrix, high: RankMatrix) -> bool:
    for row_low, row_high in zip(low.rows, high.rows):
        for x, y in zip(row_low, row_high):
            if x > y:
                return False
    return True


def _at_most_sets(column: bytes) -> tuple[int, ...]:
    """The "at most v" bitsets of a column of small ints: item v is the
    int whose bit k is set iff ``column[k] <= v``, for v from 0 to the
    largest entry.  Each set is one C-level pass, linear in the column:
    the reversed column is translated to the digits '1' and '0' and read
    in base 2, which no int-string digit limit applies to."""
    digits = column[::-1]
    return tuple(
        int(digits.translate(b"1" * (v + 1) + b"0" * (255 - v)), 2)
        for v in range(max(column, default=-1) + 1)
    )


def dominance_masks(tables: Sequence[RankMatrix]) -> tuple[int, ...]:
    """All pairs of tables compared at once: bit a of entry b is set iff
    ``tables[a]`` is entrywise at most ``tables[b]``.

    Bit-sliced by cell: for each cell, :func:`_at_most_sets` of the
    tables' entries there gives the int bitset of the tables whose entry
    is at most v, and each table's mask is ANDed with the set for its own
    entry.  About N*n*n big-int ANDs instead of N*N pairwise scans; a
    cell on which every table agrees is skipped.  The pairwise
    :func:`_dominated` is the oracle for this kernel.
    """
    if not tables:
        return ()
    sizes = {table.n for table in tables}
    if len(sizes) > 1:
        raise SizeMismatchError(f"tables of different sizes: {sorted(sizes)}")
    (n,) = sizes
    size = len(tables)
    masks = [(1 << size) - 1] * size
    for i in range(n):
        for column in map(bytes, zip(*(table.rows[i] for table in tables))):
            if column.count(column[0]) == size:
                continue
            at_most = _at_most_sets(column)
            masks = [mask & at_most[v] for mask, v in zip(masks, column)]
    return tuple(masks)


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def leq_star(tau: Involution, sigma: Involution) -> bool:
    """tau <=* sigma: entrywise comparison of lower-triangular rank matrices."""
    if tau.n != sigma.n:
        raise SizeMismatchError(f"sizes differ: {tau.n} vs {sigma.n}")
    return _dominated(star_rank_matrix(tau), star_rank_matrix(sigma))


def leq_melnikov(tau: Involution, sigma: Involution) -> bool:
    """tau <= sigma in the adjoint order: comparison of upper placements."""
    if tau.n != sigma.n:
        raise SizeMismatchError(f"sizes differ: {tau.n} vs {sigma.n}")
    return _dominated(melnikov_rank_matrix(tau), melnikov_rank_matrix(sigma))


def leq_bruhat(v: Permutation, w: Permutation) -> bool:
    """v <=_B w via entrywise comparison of full rank matrices."""
    if v.n != w.n:
        raise SizeMismatchError(f"sizes differ: {v.n} vs {w.n}")
    return _dominated(bruhat_rank_matrix(v), bruhat_rank_matrix(w))


def corner_ranks(matrix: Matrix) -> Matrix:
    """South-West corner ranks of a square, strictly lower-triangular
    matrix over Q or Q(eps), 0 on and above the diagonal, ranked as its
    :func:`~borbits.matrices.integral_multiple`, which rejects a float.
    By its rank profile (Dumas, Pernet and Sultan, ISSAC 2015): rows n..2
    go into one echelon basis, and dropping columns commutes with row
    operations, so corner (i, j) has rank the number of pivots South-West
    of it.  Only columns < i reach a strict corner of row i or above, so
    row i goes in cut to them, and the basis, cut first, drops its rows
    pivoted further right."""
    n = square_size(matrix)
    matrix = integral_multiple(matrix)
    if not is_strictly_lower(matrix):
        raise NotStrictlyLowerError("corner ranks are defined on functionals")
    return _strict_ranks(matrix, n)


def _strict_ranks(matrix: Matrix, n: int) -> Matrix:
    """:func:`corner_ranks` unchecked: n x n, strictly lower, of one type."""
    basis, rooks = [], []
    for i in range(n - 1, 0, -1):  # 0-based row i, cut to its i columns
        basis = [(col, row[:i]) for col, row in basis if col < i]
        col = echelon_insert(basis, list(matrix[i][:i]))
        if col is not None:
            rooks.append((i + 1, col + 1))
    return _below_diagonal(_southwest_table(rooks, n))
