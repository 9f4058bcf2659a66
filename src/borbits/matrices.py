"""Small exact matrix helpers and the one elimination kernel.

Matrices are tuples of row tuples over one field at a time: ``Fraction``
or :class:`~borbits.ratfunc.RFun`.  Constructors promote plain ints so
that arithmetic never falls back to floating point.

Every rank and corner-rank table over Q or Q(eps) is computed by one
echelon kernel in two modes: over an exact field (``Fraction``, ``RFun``),
or fraction-free over the integers (Bareiss, *Math. Comp.* 22, 1968) for
every rational matrix.  A caller types its matrix once, by
:func:`integral_multiple` or :func:`promote`, which reject a float, and
calls the mode of that type, which checks no entry.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import NotAFieldError, NotInvertibleError, SizeMismatchError
from .ratfunc import Q_ONE, Q_ZERO, RF_ONE, RF_ZERO, RFun

Matrix = tuple[tuple, ...]


def field_constants(*matrices) -> tuple:
    """(one, zero) of the field of the matrices' entries: Q(eps) when an
    RFun stands anywhere in them, Q otherwise."""
    if any(isinstance(x, RFun) for m in matrices for row in m for x in row):
        return RF_ONE, RF_ZERO
    return Q_ONE, Q_ZERO


def exact_entry(x):
    """An int promoted to Fraction; Fraction and RFun pass through, and
    anything else, a float say, is rejected."""
    if isinstance(x, (Fraction, RFun)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise NotAFieldError(f"entry {x!r} is not an int, Fraction or RFun")


def promote(matrix) -> Matrix:
    """Copy with int entries promoted to Fraction (RFun entries pass
    through); any other entry, a float say, is rejected."""
    return tuple(tuple(exact_entry(x) for x in row) for row in matrix)


def integral_multiple(matrix) -> Matrix:
    """An int matrix as it is, tested in one C-level pass, any other
    rational one scaled to ints by the lcm of its denominators, one with
    an RFun entry promoted to Q(eps), and one with any other entry, a
    float say, rejected."""
    if set(map(type, chain.from_iterable(matrix))) <= {int}:
        return matrix
    rows = promote(matrix)
    if any(isinstance(x, RFun) for row in rows for x in row):
        return rows
    d = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in rows)


def square_size(*matrices) -> int:
    """The common size n of square n x n matrices; a ragged or
    non-square matrix, or two of different sizes, raise
    :class:`SizeMismatchError`."""
    n = len(matrices[0])
    if any(len(m) != n or any(len(row) != n for row in m) for m in matrices):
        raise SizeMismatchError("ragged, non-square or mismatched matrices")
    return n


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b, formed from the terms whose factors are both
    nonzero.  An entry without such a term is the field zero: an RFun
    zero when either operand holds an RFun, a Fraction zero otherwise."""
    inner, width = len(b), len(b[0]) if b else 0
    if any(len(row) != inner for row in a) or any(len(row) != width for row in b):
        raise SizeMismatchError("matrix product of mismatched or ragged shapes")
    _, zero = field_constants(a, b)
    # the nonzero entries of each row of b, as (column, value) pairs
    b_rows = [[(c, y) for c, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [None] * width
        for k, x in enumerate(row):
            if x:
                for c, y in b_rows[k]:
                    term = x * y
                    acc[c] = term if acc[c] is None else acc[c] + term
        out.append(tuple(zero if s is None else s for s in acc))
    return tuple(out)


def is_upper_triangular(m: Matrix) -> bool:
    return all(not m[r][c] for r in range(len(m)) for c in range(r))


def is_strictly_lower(m: Matrix) -> bool:
    return not any(any(row[r:]) for r, row in enumerate(m))


def strictly_lower_part(m: Matrix) -> Matrix:
    n = len(m)
    _, zero = field_constants(m)
    return tuple(
        tuple(m[r][c] if r > c else zero for c in range(n)) for r in range(n)
    )


def upper_inverse(g: Matrix) -> Matrix:
    """Inverse of an upper-triangular matrix by back substitution."""
    n = square_size(g)
    for k in range(n):
        if not g[k][k]:
            raise NotInvertibleError(f"zero diagonal entry at {k + 1}")
    one, zero = field_constants(g)
    inv = [[zero] * n for _ in range(n)]
    for j in range(n - 1, -1, -1):
        inv[j][j] = one / g[j][j]
        for i in range(j - 1, -1, -1):
            acc = zero
            for k in range(i + 1, j + 1):
                if g[i][k] and inv[k][j]:
                    acc = acc + g[i][k] * inv[k][j]
            if acc:
                inv[i][j] = -acc / g[i][i]
    return tuple(tuple(row) for row in inv)


def _field_insert(basis: list, row) -> int | None:
    """Reduce ``row`` against an echelon basis over its exact field and
    append it if independent, unchecked.

    ``basis`` holds (pivot column, row) pairs in insertion order.  A
    row's pivot is its first nonzero entry, and every row is zero at the
    pivots of the rows before it, so one pass in that order reduces a new
    row to zero at all pivots, and ``len(basis)`` is the rank so far.
    Each step rebuilds the row as a new list, so ``row`` may be any
    sequence and is left as it was.  A basis row may be longer than the
    new row, which is reduced over its own length.  Returns the new
    pivot column, or None when the row depends on the basis.
    """
    for col, pivot_row in basis:
        x = row[col]
        if x:
            factor = x / pivot_row[col]
            # an entry stays where the pivot row is 0, left of its pivot too
            row = [y - factor * p if p else y for y, p in zip(row, pivot_row)]
    return _append_independent(basis, row)


def _fraction_free_insert(basis: list, row) -> int | None:
    """:func:`_field_insert` for plain ints, unchecked: each step makes
    ``p row - x pivot_row``, divided by its content, a new list, and the
    last of them goes into the basis."""
    for col, pivot_row in basis:
        x = row[col]
        if x:  # the whole row: it may be nonzero left of col
            p = pivot_row[col]
            row = [p * y - x * z for y, z in zip(row, pivot_row)]
            content = gcd(*row)
            if content > 1:
                row = [y // content for y in row]
    return _append_independent(basis, row)


def _append_independent(basis: list, row) -> int | None:
    for col, x in enumerate(row):
        if x:
            basis.append((col, row))
            return col
    return None
