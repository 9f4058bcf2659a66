"""Exact action of the upper-triangular group on strictly lower-triangular
functionals, orbit representatives, degeneration curves, and dimensions.

The action is ``act(g, lam) = strictly lower part of g lam g^{-1}``.
Conjugation by an upper-triangular g maps upper-plus-diagonal matrices
to themselves, so act(g, act(h, lam)) == act(g h, lam).

:func:`act` is one dense route over any exact field.  The sampled suites
act on ints instead: g is drawn as its upper-triangular columns from the
C generator under ``random.Random``, lam is given by the arcs of an
involution, and the point is the numerator ``det(g) act(g, lam)``, that
is ``(g lam) adj(g)``, built from the adjugate's rows at the arcs'
columns only; ints and strictly lower by construction, it is ranked by
unchecked kernels.

Degeneration curves live over the exact rational-function field in eps,
so limits at eps -> 0 are exact.  A curve has a handful of nonzero
entries, and its routes keep only those, as {(r, c): value} maps: the
action conjugates the arcs of sigma by one factor of its word at a
time, the closed form writes the entries down, and the limit is taken
at them.  The public functions return dense matrices.
"""

from __future__ import annotations

from _random import Random
from collections.abc import Iterable
from fractions import Fraction
from operator import add, mul

from ._value import Value
from .errors import (
    IndexOutOfRangeError,
    LimitUndefinedError,
    MissingArcError,
    NotInvertibleError,
    NotStrictlyLowerError,
    NotUpperTriangularError,
    ZeroXiError,
)
from .involutions import Arc, Involution
from .matrices import (
    Matrix,
    integral_multiple,
    is_strictly_lower,
    is_upper_triangular,
    mat_mul,
    promote,
    square_size,
    strictly_lower_part,
    upper_inverse,
)
from .moves import Move, apply_move
from .rankorder import RankMatrix, _echelon_rank, _strict_ranks
from .ratfunc import (
    EPS,
    EPS_INV,
    Q_ONE,
    Q_ZERO,
    RF_ONE,
    RF_ZERO,
    RFun,
    exact_rational,
    rf_add,
    rf_div,
    rf_mul,
    rf_neg,
)

_MINUS_ONE = rf_neg(RF_ONE)


def act(g: Matrix, lam: Matrix) -> Matrix:
    """The induced action: strictly lower part of g lam g^{-1}, over Q or
    Q(eps), by two dense products and a back-substitution inverse; over Q
    it is the tests' oracle for :func:`_act_numerator`."""
    square_size(g, lam)
    g = promote(g)
    lam = promote(lam)
    if not is_upper_triangular(g):
        raise NotUpperTriangularError("group element must be upper triangular")
    if not is_strictly_lower(lam):
        raise NotStrictlyLowerError("functional must be strictly lower triangular")
    return strictly_lower_part(mat_mul(mat_mul(g, lam), upper_inverse(g)))


def _act_numerator(
    columns: Matrix, entries: Iterable[tuple[int, int, int]]
) -> tuple[Matrix, int]:
    """(det(g) act(g, lam), det g) for integer g and lam, unchecked but
    for the diagonal of g.  g comes as its upper-triangular columns,
    ``columns[j][i] = g[i][j]`` for i <= j, as :func:`_random_borel_int`
    draws it; lam as its nonzero entries (r, c, x) below the diagonal,
    0-based, any number per column.  The point is a tuple of row tuples.

    With adj(g) = det(g) g^{-1}, integral and upper triangular,
    det(g) g lam g^{-1} = (g lam) adj(g), and its entry (i, j) below the
    diagonal sums g[i][r] lam[r][c] adj[c][j] over c <= j < i <= r.  So
    only the rows of adj(g) at lam's columns are built, row c up to column
    r - 1 for the lowest entry of the column, each one forward
    substitution of x g = det(g) e_c in which every division is exact.
    The tests keep the forward substitution of m g = det(g) g lam, row by
    row of m, as the oracle."""
    n = len(columns)
    det = 1
    for k, column in enumerate(columns):
        if not column[k]:
            raise NotInvertibleError(f"zero diagonal entry at {k + 1}")
        det *= column[k]
    adjugate: dict[int, list[int]] = {}
    zero = (0,) * n
    out = [zero] * n  # a row no term reaches stays 0
    for r, c, x in entries:
        # row c of adj(g) from column c on, extended to column r - 1:
        # sum over k of adj[c][k] g[k][j] is det at j = c, else 0
        adj = adjugate.setdefault(c, [])
        for j in range(c + len(adj), r):
            column = columns[j]
            acc = -sum(map(mul, adj, column[c:j])) if adj else det
            quotient, remainder = divmod(acc, column[j])
            if remainder:
                raise ArithmeticError(f"{acc} is not divisible by {column[j]}")
            adj.append(quotient)
        column = columns[r]
        for i in range(c + 1, r + 1):
            y = column[i] * x
            if y:
                target = out[i]
                if target is zero:
                    target = out[i] = [0] * n
                    target[c:i] = map(y.__mul__, adj[: i - c])
                else:
                    target[c:i] = map(add, target[c:i], map(y.__mul__, adj))
    return tuple(map(tuple, out)), det


def orbit_point(sigma: Involution, xi: dict[Arc, Fraction] | None = None) -> Matrix:
    """The base functional of sigma: weight xi(arc) at each arc position,
    weight 1 everywhere when xi is omitted."""
    if xi is None:
        xi = dict.fromkeys(sigma.arcs, Q_ONE)
    entries = {}
    for arc in sigma.arcs:
        if arc not in xi:
            raise MissingArcError(f"no weight for arc {arc!r}")
        entries[arc] = exact_rational(xi[arc])
        if entries[arc] == 0:
            raise ZeroXiError(f"weight of {arc!r} must be nonzero")
    if stray := [key for key in xi if key not in sigma.arcs]:
        raise MissingArcError(f"weight for {stray[0]!r}, which is not an arc")
    return _dense(sigma.n, entries, Q_ZERO)


def rank_profile(lam: Matrix) -> RankMatrix:
    """South-West corner ranks of a square, strictly lower-triangular
    matrix over Q or Q(eps), 0 on and above the diagonal, ranked as its
    :func:`~borbits.matrices.integral_multiple`, which rejects a float,
    by :func:`~borbits.rankorder._strict_ranks`."""
    n = square_size(lam)
    lam = integral_multiple(lam)
    if not is_strictly_lower(lam):
        raise NotStrictlyLowerError("corner ranks are defined on functionals")
    return RankMatrix.of_cells(n, _strict_ranks(lam, n))


def orbit_dimension(sigma: Involution) -> int:
    """Dimension of the orbit through the base functional of sigma.

    Computed as the rank of the linearized action on the triangular Lie
    algebra: dim b minus the dimension of {x upper triangular with
    bracket [x, lam] vanishing strictly below the diagonal}.  Row (r, s)
    holds ([e_pq, lam])_{r,s} = delta_{r,p} lam_{q,s} - lam_{r,p} delta_{q,s}
    at the column of e_pq, p <= q: at most two terms, read off sigma.
    """
    n = sigma.n
    partner = (0, *sigma.one_line())  # partner[k] = sigma(k)
    # the e_pq, p <= q, row by row: e_pq is column first[p] + q
    first = [(p - 1) * (2 * n + 2 - p) // 2 - p for p in range(n + 1)]
    width = n * (n + 1) // 2
    matrix = []
    for r in range(2, n + 1):
        p = partner[r]
        for s in range(1, r):
            row = [0] * width
            q = partner[s]
            if q >= r:  # (q, s) an arc: p = r
                row[first[r] + q] = 1
            if p <= s:  # (r, p) an arc: q = s
                row[first[p] + s] = -1
            matrix.append(row)
    return _echelon_rank(matrix)  # plain ints by construction: no type pass


def _random_borel_int(n: int, seed: int, bound: int = 3) -> Matrix:
    """The entries of :func:`random_borel` as ints, from the same stream,
    as g's upper-triangular columns: ``columns[j][i] = g[i][j]``, i <= j.
    ``random.Random(s).randint(a, b)`` is a plus ``_randbelow(b - a + 1)``,
    which draws ``getrandbits(k)`` from the C base class, k the bit length
    of the range, until a draw falls inside it; so does this, row by row,
    from a fresh C generator of the same seed."""
    if bound < 1:
        raise IndexOutOfRangeError(f"bound must be >= 1, got {bound}")
    bits = Random(seed * 1_000_003 + n * 1_009 + bound).getrandbits
    diagonal, width = bound.bit_length(), 2 * bound + 1
    above = width.bit_length()
    columns: list[list[int]] = [[] for _ in range(n)]
    for r, column in enumerate(columns):
        x = bits(diagonal)
        while x >= bound:
            x = bits(diagonal)
        column.append(1 + x)
        for later in columns[r + 1 :]:
            x = bits(above)
            while x >= width:
                x = bits(above)
            later.append(x - bound)
    return tuple(map(tuple, columns))


def random_borel(n: int, seed: int, bound: int = 3) -> Matrix:
    """Seeded random upper-triangular matrix: diagonal in 1..bound,
    above-diagonal in -bound..bound.  Deterministic per (n, seed, bound),
    ints all three, with n >= 0 and bound >= 1."""
    if not all(type(x) is int for x in (n, seed, bound)) or n < 0 or bound < 1:
        raise IndexOutOfRangeError(f"bad n, seed or bound: {n!r}, {seed!r}, {bound!r}")
    columns = _random_borel_int(n, seed, bound)
    return tuple(
        tuple(Fraction(columns[j][i]) if i <= j else Q_ZERO for j in range(n)) for i in range(n)
    )


class Degeneration(Value):
    """A curve inside the orbit of sigma whose limit at eps -> 0 is the
    base functional of the move's output.

    ``word`` lists factors (j, i, alpha), leftmost first, each the
    identity plus alpha at (j, i); ``curve`` is the acted functional over
    the rational-function field; ``limit`` is its entrywise value at 0.
    """

    move: Move
    word: tuple[tuple[int, int, RFun], ...]
    curve: Matrix
    limit: Matrix


def _torus_factor(i: int, value: RFun) -> tuple[int, int, RFun]:
    # a factor on the diagonal puts 1 + alpha there, so alpha = value - 1
    return (i, i, rf_add(value, _MINUS_ONE))


def _word(move: Move, tau: Involution) -> tuple[tuple[int, int, RFun], ...]:
    """The elementary factor list of the degeneration curve of a move of
    the move table whose output is tau.  A slide's free point m is read
    off tau: its arc (i, m) to the right, (m, j) up.  Every constant
    comes from the field's memos, so no factor builds an ``RFun``."""
    i, j = move.arc
    if move.kind == "remove":
        return (_torus_factor(i, EPS),)
    if move.kind == "right":
        return ((j, tau.apply(i), rf_neg(EPS_INV)), _torus_factor(i, EPS))
    if move.kind == "up":
        return ((tau.apply(j), i, EPS_INV), _torus_factor(i, EPS))
    if move.kind == "c":
        al, be = move.partner
        return ((al, i, EPS_INV), (j, be, rf_neg(EPS_INV)), _torus_factor(i, EPS))
    if move.kind == "a":
        al, be = move.partner
        return ((be, i, EPS_INV), _torus_factor(i, EPS), _torus_factor(al, rf_neg(EPS)))
    al, be = move.partner  # kind b: the table holds no other kind
    return (
        (be, j, rf_neg(EPS_INV)),
        (i, al, EPS_INV),
        _torus_factor(al, EPS),
        _torus_factor(i, rf_add(EPS, rf_neg(EPS_INV))),
    )


def degeneration_word(sigma: Involution, move: Move) -> tuple[tuple[int, int, RFun], ...]:
    """The elementary factor list of the degeneration curve for a move of
    :func:`~borbits.moves.near_moves`; :func:`~borbits.moves.apply_move`
    gives its output and rejects any other move."""
    return _word(move, apply_move(sigma, move))


def _closed_form_entries(
    sigma: Involution, move: Move, tau: Involution
) -> dict[tuple[int, int], RFun]:
    """The curve of a move of the table, whose output is tau, written
    down directly as its entries {(r, c): value}, 1-based, none 0: 1 at
    every arc of sigma and of tau, eps at the moved arc, and at the
    partner arc -eps for kind a and eps for kind b."""
    entries = dict.fromkeys((*sigma.arcs, *tau.arcs), RF_ONE) | {move.arc: EPS}
    if move.kind in ("a", "b"):
        entries[move.partner] = rf_neg(EPS) if move.kind == "a" else EPS
    return entries


def _dense(n: int, entries: dict, zero) -> Matrix:
    """The n x n matrix of ``entries`` at 1-based (r, c), ``zero`` elsewhere."""
    rows = [[zero] * n for _ in range(n)]
    for (r, c), value in entries.items():
        rows[r - 1][c - 1] = value
    return tuple(map(tuple, rows))


def degeneration_closed_form(sigma: Involution, move: Move) -> Matrix:
    """:func:`_closed_form_entries` made dense: the second, independent route,
    against which the group action is checked; it shares only the move table,
    read by :func:`~borbits.moves.apply_move`, which rejects any other move."""
    return _dense(sigma.n, _closed_form_entries(sigma, move, apply_move(sigma, move)), RF_ZERO)


def _act_word(word: tuple, arcs: Iterable[Arc]) -> dict[tuple[int, int], RFun]:
    """act(g, lam) over Q(eps), g the product of the factors of ``word``
    and lam 1 at each of ``arcs``, as its nonzero entries {(r, c): value}
    below the diagonal, 1-based.  lam is one {column: value} dict per
    nonzero row, conjugated by each factor x, rightmost first, as
    x lam x^{-1} (a cancelled 0 leaves with the truncation at the end):
    for x = I + alpha E_{j,i} and x^{-1} = I + beta E_{j,i}, row j +=
    alpha row i, then column i += beta column j, by the field's memos
    directly; beta is -alpha, or -alpha / (1 + alpha) on the diagonal."""
    rows = {r: {c: RF_ONE} for r, c in arcs}
    for j, i, alpha in reversed(word):
        beta = rf_div(rf_neg(alpha), rf_add(RF_ONE, alpha)) if j == i else rf_neg(alpha)
        target = rows.setdefault(j, {})
        for c, x in rows.get(i, {}).items():  # for j == i, each c rewritten once
            target[c] = rf_add(target[c], rf_mul(alpha, x)) if c in target else rf_mul(alpha, x)
        for row in rows.values():
            if j in row:
                y = rf_mul(beta, row[j])
                row[i] = rf_add(row[i], y) if i in row else y
    return {(r, c): x for r, row in rows.items() for c, x in row.items() if c < r and x}


def _sparse_degeneration(sigma: Involution, move: Move, tau: Involution) -> tuple:
    """(word, curve, limit) of :func:`degeneration` for a move of the
    table whose output is tau, as maps: the curve's :func:`_act_word`
    entries and their nonzero values at eps = 0."""
    word = _word(move, tau)
    curve = _act_word(word, sigma.arcs)
    try:
        limit = {cell: value for cell, x in curve.items() if (value := x.eval_at(0))}
    except ZeroDivisionError as exc:
        raise LimitUndefinedError(str(exc)) from exc
    return word, curve, limit


def degeneration(sigma: Involution, move: Move) -> Degeneration:
    """Compute the degeneration curve of a move by the group action over
    the rational-function field, factor by factor, and its limit at 0."""
    word, curve, limit = _sparse_degeneration(sigma, move, apply_move(sigma, move))
    return Degeneration(move, word, _dense(sigma.n, curve, RF_ZERO), _dense(sigma.n, limit, Q_ZERO))
