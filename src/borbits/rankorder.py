"""Rank matrices of rook placements and the three partial orders.

Two independent routes compute the same numbers and are cross-validated
in the test suite rather than assumed equal:

- combinatorially, the rank of a corner truncation of a rook placement
  equals the number of rooks weakly South-West of the corner;
- linear-algebraically, for a functional, by one bottom-up exact
  elimination (the kernel in :mod:`borbits.matrices`) whose pivots are
  a rook placement with the same strict corner ranks; one pass per
  column prefix is the tests' oracle.

A table is one row-major ``bytes`` of n*n cells, built as an int of
byte lanes: a rook at (a, b) adds 1 in rows 1..a times columns b..n,
the cells whose South-West corner holds it.  A cell counts at most n
rooks, so no lane carries while n <= 255, the bound of every table.
The tables of many placements are built at once, by one product over
one int in which each placement has a slot of 2n rows, and come out
joined: what a rook adds above row 1 stays in its slot's spare upper
rows.  Each order puts row a's rook at (a, sigma(a)) or none, so every
row of a slot is looked up by sigma's one-line word.  The all-pairs
consumers read joined cells: posets and order-equivalence build no
per-table object, and closure joins the tables its varieties keep.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import chain
from operator import getitem, le

from ._value import Value, set_field
from .errors import (
    BoundExceededError,
    IndexOutOfRangeError,
    SizeMismatchError,
    UnknownSuiteError,
)
from .involutions import Involution, Permutation, to_permutation
from .matrices import Matrix, _field_insert, _fraction_free_insert, integral_multiple

# one byte per cell, and a cell counts at most n rooks
TABLE_MAX_N = 255


def _table_size(n: int) -> int:
    if type(n) is not int or n < 0:
        raise IndexOutOfRangeError(f"table size {n!r} is not an int >= 0")
    if n > TABLE_MAX_N:
        raise BoundExceededError(f"n={n} exceeds table bound {TABLE_MAX_N}: one byte per cell")
    return n


@lru_cache(maxsize=None)
def _rook_bounds(n: int) -> bytes:
    """The largest corner rank at each cell, row by row, flattened: the
    corner at (i, j) spans n-i+1 rows and j columns, one rook each."""
    return bytes(min(n - i + 1, j) for i in range(1, n + 1) for j in range(1, n + 1))


@lru_cache(maxsize=None)
def _lanes(n: int) -> tuple[int, tuple[int, ...], int]:
    """The byte lanes of an n x n table as ints, row 1 highest: a 1 in the
    last column of every row; per column c, 0-based, one row of 1s in
    columns c..n-1; and 255 below the diagonal."""
    units = sum(1 << 8 * n * i for i in range(n))
    columns = tuple((256 ** (n - c) - 1) // 255 for c in range(n))
    below = int.from_bytes(b"".join(b"\xff" * i + bytes(n - i) for i in range(n)), "big")
    return units, columns, below


@lru_cache(maxsize=None)
def _row_table(order: str, n: int) -> tuple[tuple[bytes, ...], ...]:
    """A slot's rows by row word: ``table[a-1][c]`` is row a's 1s from
    column c where ``order`` puts a rook at (a, c) (star: c < a, Melnikov:
    c > a, Bruhat: any c), else zeros, as at c = 0; row 1 leads with n spare rows."""
    ones = [bytes(n), *(column.to_bytes(n, "big") for column in _lanes(n)[1])]
    table = []
    for a in range(1, n + 1):
        placed = {"star": range(a), "melnikov": range(a + 1, n + 1), "bruhat": range(n + 1)}
        lead = bytes(n * n) if a == 1 else b""
        table.append(tuple(lead + ones[c if c in placed[order] else 0] for c in range(n + 1)))
    return tuple(table)


def _word_cells(order: str, words: Iterable[Sequence[int]], n: int) -> bytes:
    """Row-major South-West counts of ``order``'s rook placements, each
    given by a row word read once, joined in order; star's are 0 on and
    above the diagonal.  A placement's slot of 2n rows, the table in the
    lower n, is one C-level join of the rows its word looks up in
    :func:`_row_table`; one product with ``units`` adds each rook's row of
    1s to every row above, and what rises into the spare rows is cut."""
    units, _, below = _lanes(_table_size(n))
    if not n:  # 0 x 0 tables are empty
        return b""
    size, rows = n * n, _row_table(order, n)
    placed = bytearray()  # a slot at a time: no list of slots is held
    for word in words:
        placed += b"".join(map(getitem, rows, word))
    summed = int.from_bytes(placed, "big") * units
    if order == "star":
        mask = bytes(size) + below.to_bytes(size, "big")
        summed &= int.from_bytes(mask * (len(placed) // (2 * size)), "big")
    cells = summed.to_bytes(len(placed), "big")
    return b"".join([cells[k : k + size] for k in range(size, len(cells), 2 * size)])


def _checked_cells(n: int, cells: Sequence[int], count: int = 1) -> bytes:
    """``cells`` as the bytes of ``count`` joined n x n tables, each cell
    within its rook bound.  ``bytes`` are checked against the bound alone;
    any other sequence must hold ints, no bool, and none below 0.  The
    first bad cell is named.

    For n <= 127 every bound is below 128, and ``bytes`` are compared all
    at once, as ints B of the bounds and C of the cells: with H the high
    bit of every byte, a cell below 128 leaves 128 + bound - cell >= 1 in
    its byte of (B | H) - C, so no byte borrows from the next, and that
    byte keeps its high bit iff the cell is within its bound.  A table
    that fails this test is scanned cell by cell for the error."""
    size = _table_size(n) * n
    if type(cells) is not bytes and (
        not isinstance(cells, Sequence) or not set(map(type, cells)) <= {int}
    ):
        raise IndexOutOfRangeError("corner ranks must be ints")
    if len(cells) != size * count:
        tables = f"{n}x{n} table" if count == 1 else f"{count} tables of {n}x{n}"
        raise SizeMismatchError(f"expected {tables}")
    bounds = _rook_bounds(n) * count
    if type(cells) is bytes and n <= 127:
        high = int.from_bytes(b"\x80" * len(cells), "big")
        packed = int.from_bytes(cells, "big")
        if not packed & high and ((int.from_bytes(bounds, "big") | high) - packed) & high == high:
            return cells
    if not all(map(le, cells, bounds)) or type(cells) is not bytes and min(cells, default=0) < 0:
        for k, (entry, bound) in enumerate(zip(cells, bounds)):
            if not 0 <= entry <= bound:
                table, k = divmod(k, size)
                where = f" of table {table + 1}" if count > 1 else ""
                raise IndexOutOfRangeError(
                    f"entry {entry} at ({k // n + 1},{k % n + 1}){where} exceeds rook bound"
                )
    return bytes(cells)


class RankMatrix(Value):
    """An n x n table of corner ranks of a rook placement, one byte per
    cell, row by row: the rank at (i, j) is ``cells[(i-1)*n + j-1]``.
    Built from rows of ints, or by :meth:`of_cells` from the cells, and
    on either path checked against the rook bound of every cell."""

    n: int
    cells: bytes

    def __init__(self, n: int, rows: Sequence[Sequence[int]]) -> None:
        if _table_size(n) != len(rows) or any(len(r) != n for r in rows):
            raise SizeMismatchError(f"expected {n}x{n} table")
        self._fill(n, list(chain.from_iterable(rows)))

    @classmethod
    def of_cells(cls, n: int, cells: Sequence[int]) -> RankMatrix:
        table = cls.__new__(cls)
        table._fill(n, cells)
        return table

    def _fill(self, n: int, cells: Sequence[int]) -> None:
        set_field(self, "cells", _checked_cells(n, cells))
        set_field(self, "n", n)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.cells[i * self.n : (i + 1) * self.n]) for i in range(self.n))

    def entry(self, i: int, j: int) -> int:
        n = self.n
        if not (type(i) is int and type(j) is int and 1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRangeError(f"cell ({i!r},{j!r}) outside 1..{n}")
        return self.cells[(i - 1) * n + j - 1]

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [list(row) for row in self.rows]}


def exact_rank(matrix: Sequence[Sequence]) -> int:
    """Rank by exact elimination, fraction-free over the integers or over
    Q(eps); no floating point anywhere.  The matrix may be rectangular,
    but ragged rows raise :class:`SizeMismatchError`.  Typed once, as its
    integral multiple, all ints or all promoted to Q(eps)."""
    if len({len(row) for row in matrix}) > 1:
        raise SizeMismatchError("ragged rows")
    matrix = integral_multiple(matrix)
    integral = type(next(chain.from_iterable(matrix), 0)) is int
    return _echelon_rank(matrix, _fraction_free_insert if integral else _field_insert)


def _echelon_rank(matrix: Sequence[Sequence], insert=_fraction_free_insert) -> int:
    """:func:`exact_rank` of rows typed for ``insert`` (by default plain ints), unchecked."""
    basis: list = []
    for row in filter(any, matrix):  # a zero row adds nothing
        insert(basis, row)
    return len(basis)


@lru_cache(maxsize=None)
def melnikov_rank_matrix(sigma: Involution) -> RankMatrix:
    """Corner ranks of the strictly upper-triangular placement of sigma,
    with a rook at (j, i) for each arc (i, j)."""
    return RankMatrix.of_cells(sigma.n, _word_cells("melnikov", (sigma.one_line(),), sigma.n))


@lru_cache(maxsize=None)
def star_rank_matrix(sigma: Involution) -> RankMatrix:
    """Corner ranks of the strictly lower-triangular placement of sigma;
    entries on and above the diagonal are defined to be 0."""
    return RankMatrix.of_cells(sigma.n, _word_cells("star", (sigma.one_line(),), sigma.n))


@lru_cache(maxsize=None)
def bruhat_rank_matrix(w: Permutation) -> RankMatrix:
    """Corner ranks of the full permutation matrix (rook of column k in
    row w(k)), over the whole n x n grid, read off w's inverse word."""
    return RankMatrix.of_cells(w.n, _word_cells("bruhat", (w.inverse().one_line,), w.n))


# order name -> the rank table of an involution whose entrywise
# comparison defines the order
ORDER_TABLES = {
    "star": star_rank_matrix,
    "melnikov": melnikov_rank_matrix,
    "bruhat": lambda sigma: bruhat_rank_matrix(to_permutation(sigma)),
}


def order_table(order: str):
    """The rank table whose entrywise comparison defines ``order``."""
    if order not in ORDER_TABLES:
        raise UnknownSuiteError(f"unknown order {order!r}; expected one of {tuple(ORDER_TABLES)}")
    return ORDER_TABLES[order]


def joined_cells(order: str, sigmas: Sequence[Involution], n: int) -> bytes:
    """The rank tables of ``sigmas`` under ``order``, joined: table k is
    ``cells[k*n*n:(k+1)*n*n]``, the cells of ``order_table(order)(sigmas[k])``.
    One product builds them all, and every table is checked against the
    rook bound, as a :class:`RankMatrix` is."""
    order_table(order)  # an unknown order raises
    if {sigma.n for sigma in sigmas} - {n}:
        raise SizeMismatchError(f"involutions not all of size {n}")
    return _checked_cells(n, _word_cells(order, map(Involution.one_line, sigmas), n), len(sigmas))


def _dominated(low: RankMatrix, high: RankMatrix) -> bool:
    return all(map(le, low.cells, high.cells))


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


def dominance_masks(cells: bytes, n: int) -> tuple[int, ...]:
    """All pairs of joined n x n tables compared at once, table k being
    ``cells[k*n*n:(k+1)*n*n]``: bit a of entry b is set iff table a is
    entrywise at most table b.

    Bit-sliced by cell: for each cell, :func:`_at_most_sets` of the
    tables' entries there, a strided slice of the cells, gives the int
    bitset of the tables whose entry is at most v, and each table's mask
    is ANDed with the set for its own entry.  About N*n*n big-int ANDs
    instead of N*N pairwise scans; a cell on which every table agrees is
    skipped.  The pairwise :func:`_dominated` is the oracle for this
    kernel.  The posets, the suites and :func:`~borbits.closure.members`
    compare tables through it.
    """
    if not cells:
        return ()
    stride = n * n
    if not stride or len(cells) % stride:
        raise SizeMismatchError(f"{len(cells)} cells are not whole {n}x{n} tables")
    size = len(cells) // stride
    masks = [(1 << size) - 1] * size
    for k in range(stride):
        column = cells[k::stride]
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


def _strict_ranks(matrix: Matrix, n: int) -> bytes:
    """South-West corner ranks of an n x n strictly lower-triangular matrix
    of one type, unchecked, as row-major cells, 0 on and above the
    diagonal; :func:`~borbits.orbits.rank_profile` is the checked route.
    By its rank profile (Dumas, Pernet and Sultan, ISSAC 2015): rows n..2
    go into one echelon basis, and dropping columns commutes with row
    operations, so corner (i, j) has rank the number of pivots South-West
    of it.  Only columns < i reach a strict corner of row i or above, so
    row i goes in cut to them, and before it the basis drops the one row
    pivoted at column i; the rows it keeps are reduced against whole, the
    new row being cut to its own length.  Each pivot adds its column's
    lane to the table as it is found, and one product with ``units`` and
    one mask finish it: the size is checked and the lanes looked up once
    per call.  The matrix is typed once, by its entry at (n, 1), for the
    kernel's mode."""
    units, lanes, below = _lanes(_table_size(n))
    width = 8 * n
    integral = n > 1 and type(matrix[n - 1][0]) is int
    insert = _fraction_free_insert if integral else _field_insert
    basis, pivot_rows, placed = [], {}, 0
    for i in range(n - 1, 0, -1):  # 0-based row i, cut to its i columns
        if i in pivot_rows:
            basis.remove(pivot_rows.pop(i))
        row = matrix[i][:i]
        if not any(row):
            continue
        col = insert(basis, row)
        if col is not None:
            pivot_rows[col] = basis[-1]
            placed += lanes[col] << width * (n - 1 - i)
    return (placed * units & below).to_bytes(n * n, "big")
