"""Shared brute-force oracles, kept independent of the code paths they
check."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import itemgetter, mul

import pytest
from hypothesis import strategies as st

from borbits import (
    Involution,
    Permutation,
    RankMatrix,
    act,
    bruhat_rank_matrix,
    enumerate_involutions,
    format_involution,
    involution,
    involution_from_one_line,
    maximal_support,
    melnikov_rank_matrix,
    orbit_point,
    parse_involution,
    random_borel,
)
from borbits import orbits, suites
from borbits.errors import BorbitsError, IndexOutOfRangeError, LimitUndefinedError
from borbits.matrices import (
    _field_insert,
    _fraction_free_insert,
    exact_entry,
    field_constants,
    integral_multiple,
    promote,
    square_size,
)
from borbits.moves import phi_lt
from borbits.poset import LSets, hasse_edges, poset_ranks
from borbits.rankorder import _dominated, bit_indices
from borbits.ratfunc import EPS, Q_ZERO, RF_ONE, RF_ZERO


def echelon_insert(basis: list, row):
    """The elimination kernel with each row typed as it goes in: a row
    of plain ints by the fraction-free mode, any other over its field.
    Returns the new pivot column, or None when the row depends on the
    basis."""
    if all(type(x) is int for x in row):
        return _fraction_free_insert(basis, row)
    return _field_insert(basis, row)


def filter_involutions(n: int) -> list[Involution]:
    """Oracle: walk all n! permutations and keep the self-inverse ones."""
    out = []
    for word in itertools.permutations(range(1, n + 1)):
        perm = Permutation(word)
        if perm.compose(perm).one_line == tuple(range(1, n + 1)):
            out.append(involution_from_one_line(word))
    return out


def composing_involution_count(m: int) -> int:
    """Oracle for the counts suite's filter: every word w of S_m composed
    with itself in C, with no first-point reject, compared with id."""
    points = range(m)
    identity = itemgetter(*points)(points)
    return sum(
        itemgetter(*word)(word) == identity for word in itertools.permutations(points)
    )


def randint_borel(n: int, seed: int, bound: int = 3) -> tuple:
    """Oracle for the int sampler: its entries drawn by ``randint``, the
    diagonal in 1..bound and the entries above it in -bound..bound."""
    rng = random.Random(seed * 1_000_003 + n * 1_009 + bound)
    rows = [[0] * n for _ in range(n)]
    for r in range(n):
        rows[r][r] = rng.randint(1, bound)
        for c in range(r + 1, n):
            rows[r][c] = rng.randint(-bound, bound)
    return tuple(tuple(row) for row in rows)


def columns_of(g) -> tuple:
    """The upper-triangular columns of a dense g, as the int sampler
    draws them: ``columns[j][i] = g[i][j]`` for i <= j."""
    return tuple(tuple(g[i][j] for i in range(j + 1)) for j in range(len(g)))


def lower_entries(lam) -> list:
    """The nonzero entries (r, c, x) of a dense lam below its diagonal,
    0-based, as the action kernel reads a functional."""
    return [(r, c, x) for r, row in enumerate(lam) for c, x in enumerate(row[:r]) if x]


def forward_substitution_numerator(g, lam) -> tuple:
    """Oracle for ``orbits._act_numerator``: (det(g) act(g, lam), det g)
    for integer g and lam, the strictly lower part of the integer matrix
    m with m g = det(g) g lam, row by row by forward substitution, in
    which every division is exact and checked."""
    n = len(g)
    det = 1
    for k in range(n):
        det *= g[k][k]
    # det(g) g lam over the entries of lam below its diagonal
    prod = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(r):
            x = lam[r][c] * det
            for i in range(r + 1):
                prod[i][c] += g[i][r] * x
    columns = [column[:j] for j, column in enumerate(zip(*g))]  # g[0..j-1][j]
    for i, row in enumerate(prod):
        for j in range(i):
            acc = row[j] - sum(map(mul, row, columns[j]))
            row[j], remainder = divmod(acc, g[j][j])
            if remainder:
                raise ArithmeticError(f"{acc} is not divisible by {g[j][j]}")
        row[i:] = [0] * (n - i)
    return tuple(map(tuple, prod)), det


def identity_matrix(n: int, like=Fraction(1)) -> tuple:
    """The n x n identity over the field of ``like``."""
    one, zero = field_constants(((like,),))
    return tuple(tuple(one if r == c else zero for c in range(n)) for r in range(n))


class SingularElementError(BorbitsError):
    """A factor of :func:`x_elem` with a vanishing diagonal entry."""


def x_elem(n: int, j: int, i: int, alpha) -> tuple:
    """Oracle for one factor (j, i, alpha) of a degeneration word: the
    identity plus alpha at (j, i), 1-based.  On the diagonal (j == i) the
    entry becomes 1 + alpha, which must not vanish."""
    if any(type(x) is not int for x in (n, j, i)):
        raise IndexOutOfRangeError(f"size and indices must be ints, got {(n, j, i)!r}")
    if not (1 <= j <= n and 1 <= i <= n):
        raise IndexOutOfRangeError(f"({j},{i}) outside 1..{n}")
    alpha = exact_entry(alpha)
    one, _ = field_constants(((alpha,),))
    if j == i and not (one + alpha):
        raise SingularElementError("diagonal entry 1 + alpha vanishes")
    rows = [list(row) for row in identity_matrix(n, like=one)]
    rows[j - 1][i - 1] = rows[j - 1][i - 1] + alpha
    return tuple(tuple(row) for row in rows)


def dense_act_word(word, rook) -> tuple:
    """Oracle: act(g, lam) over Q(eps) as a dense matrix, g the product of
    the factors of ``word`` and lam the 0/1 matrix ``rook``, conjugated in
    place by each factor x, rightmost first, on every nonzero entry, and
    truncated once at the end.  For x = I + alpha E_{j,i} that is row
    j += alpha row i, then column i -= alpha column j; for a diagonal
    factor, with d = 1 + alpha, row i *= d, then column i /= d."""
    rows = [[RF_ONE if x else RF_ZERO for x in row] for row in rook]
    for j, i, alpha in reversed(word):
        j, i = j - 1, i - 1
        if j == i:
            d = RF_ONE + alpha
            rows[i] = [x * d if x else x for x in rows[i]]
            for row in rows:
                if row[i]:
                    row[i] = row[i] / d
            continue
        target = rows[j]
        for c, x in enumerate(rows[i]):
            if x:
                target[c] = target[c] + alpha * x
        for row in rows:
            if row[j]:
                row[i] = row[i] - alpha * row[j]
    n = len(rows)
    return tuple(tuple(row[:r]) + (RF_ZERO,) * (n - r) for r, row in enumerate(rows))


def dense_degeneration_suite(n: int) -> tuple[int, list]:
    """Oracle: the degeneration suite's body on dense n x n matrices, the
    curve by :func:`dense_act_word` and its limit taken entry by entry.
    Each move and its output tau are read through ``suites._move_outputs``,
    and the word and the closed form through ``orbits``, at call time, so
    that a test's monkeypatch of any of them reaches this body and the
    suite alike."""
    checked, failures = 0, []
    for sigma in enumerate_involutions(n):
        for move, tau in suites._move_outputs(sigma).items():
            checked += 1
            record = {
                "sigma": format_involution(sigma),
                "move": move.kind,
                "arc": list(move.arc),
                "partner": list(move.partner) if move.partner else None,
            }
            curve = dense_act_word(orbits._word(move, tau), rook_matrix_lower(sigma))
            try:
                limit = tuple(tuple(x.eval_at(0) if x else Q_ZERO for x in row) for row in curve)
            except ZeroDivisionError as exc:
                raise LimitUndefinedError(str(exc)) from exc
            closed_form = orbits._closed_form_entries(sigma, move, tau)
            if curve != orbits._dense(n, closed_form, RF_ZERO):
                failures.append({**record, "detail": "curve != closed form"})
                continue
            if limit != orbit_point(tau):
                failures.append({**record, "detail": "limit != target functional"})
    return checked, failures


def explicit_closed_form(sigma: Involution, move) -> dict:
    """Oracle: the closed-form entries of a move's curve written out kind
    by kind, 1 at sigma's arcs and eps at the moved arc (i, j), then: the
    slid arc, the one arc of :func:`slide_oracle`'s output not in sigma;
    for c at (al, be), 1 at (al, j) and (i, be); for a, 1 at (be, j) and
    (al, i) and -eps at the partner; for b, 1 at (i, be) and (al, j) and
    eps at the partner."""
    i, j = move.arc
    entries = dict.fromkeys(sigma.arcs, RF_ONE) | {move.arc: EPS}
    if move.kind in ("right", "up"):
        (slid,) = set(slide_oracle(sigma, move.arc, move.kind).arcs) - set(sigma.arcs)
        entries[slid] = RF_ONE
    elif move.kind == "c":
        al, be = move.partner
        entries.update({(al, j): RF_ONE, (i, be): RF_ONE})
    elif move.kind == "a":
        al, be = move.partner
        entries.update({(be, j): RF_ONE, (al, i): RF_ONE, (al, be): -EPS})
    elif move.kind == "b":
        al, be = move.partner
        entries.update({(i, be): RF_ONE, (al, j): RF_ONE, (al, be): EPS})
    return entries


def exact_det(matrix):
    """Oracle: the determinant over the field of the entries (ints count
    as rationals), by the elimination kernel: the sign of the
    pivot-column order times the product of the pivots."""
    square_size(matrix)
    rows = promote(matrix)
    one, zero = field_constants(rows)
    basis: list = []
    for row in rows:
        if echelon_insert(basis, row) is None:
            return zero
    cols = [col for col, _ in basis]
    inversions = sum(a > b for k, a in enumerate(cols) for b in cols[k + 1 :])
    det = -one if inversions % 2 else one
    for col, pivot_row in basis:
        det = det * pivot_row[col]
    return det


def delta_minors(y) -> tuple:
    """Oracle: the bottom-left corner determinants of y, semi-invariants
    of the B-action; the k-th minor spans rows n-k+1..n and columns 1..k,
    for k up to n // 2."""
    n = square_size(y)
    return tuple(
        exact_det(tuple(tuple(y[r][c] for c in range(k)) for r in range(n - k, n)))
        for k in range(1, n // 2 + 1)
    )


def all_permutations(n: int) -> list[Permutation]:
    return [Permutation(w) for w in itertools.permutations(range(1, n + 1))]


def apply_cycles_oracle(n: int, pairs) -> tuple[int, ...]:
    """Oracle for one-line forms: apply each transposition to 1..n."""
    image = list(range(1, n + 1))
    for a, b in pairs:
        image[a - 1], image[b - 1] = image[b - 1], image[a - 1]
    return tuple(image)


def rotate90(y):
    """Clockwise quarter turn: result[i][j] = y[n-j+1][i] (1-based)."""
    n = len(y)
    return tuple(tuple(y[n - j - 1][i] for j in range(n)) for i in range(n))


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
nonzero_rationals = st.builds(
    Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6)
)


@st.composite
def upper(draw, n, entries=rationals, diagonal=nonzero_rationals):
    return tuple(
        tuple(
            draw(diagonal) if r == c else draw(entries) if r < c else Fraction(0)
            for c in range(n)
        )
        for r in range(n)
    )


@st.composite
def strictly_lower(draw, n, entries=rationals):
    return tuple(
        tuple(draw(entries) if r > c else Fraction(0) for c in range(n))
        for r in range(n)
    )


@st.composite
def orbit_functional(draw, n):
    """An orbit point act(g, weighted base point): its corners are rank
    deficient, as those of a generic matrix are not."""
    sigma = draw(st.sampled_from(enumerate_involutions(n)))
    xi = {arc: draw(nonzero_rationals) for arc in sigma.arcs}
    return act(draw(upper(n)), orbit_point(sigma, xi))


# (sigma, orbit sample) at n = 6 whose corner ranks a fraction-free kernel
# gets wrong when it scales only the row's tail, or divides by the
# content of the tail only
ORBIT_EXAMPLES = [
    (sigma, act(random_borel(6, seed), orbit_point(sigma)))
    for sigma, seed in (
        (parse_involution("(5,1)(6,2)", 6), 25),
        (parse_involution("(4,1)(6,2)(5,3)", 6), 14),
    )
]


def prefix_corner_ranks(matrix, strict: bool = False):
    """Oracle: the corner ranks by one elimination per column prefix, the
    rows i..n of the first j columns inserted bottom-up."""
    n = len(matrix)
    rows = [[0] * n for _ in range(n)]
    for j in range(1, n + 1):
        basis: list = []
        for i in range(n, j if strict else 0, -1):
            echelon_insert(basis, list(matrix[i - 1][:j]))
            rows[i - 1][j - 1] = len(basis)
    return tuple(tuple(r) for r in rows)


def rook_matrix_lower(sigma: Involution) -> tuple[tuple[int, ...], ...]:
    """Strictly lower-triangular rook placement: a 1 at (i, j) per arc (i, j)."""
    rows = [[0] * sigma.n for _ in range(sigma.n)]
    for i, j in sigma.arcs:
        rows[i - 1][j - 1] = 1
    return tuple(tuple(row) for row in rows)


def rook_matrix_upper(sigma: Involution) -> tuple[tuple[int, ...], ...]:
    """Strictly upper-triangular rook placement: a 1 at (j, i) per arc (i, j)."""
    rows = [[0] * sigma.n for _ in range(sigma.n)]
    for i, j in sigma.arcs:
        rows[j - 1][i - 1] = 1
    return tuple(tuple(row) for row in rows)


def permutation_matrix(w: Permutation) -> tuple[tuple[int, ...], ...]:
    """0/1 matrix with the rook of column k in row w(k); symmetric for
    involutions."""
    n = w.n
    rows = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        rows[w.apply(k) - 1][k - 1] = 1
    return tuple(tuple(row) for row in rows)


def leq_melnikov(tau: Involution, sigma: Involution) -> bool:
    """tau <= sigma in the adjoint order: comparison of upper placements."""
    return _dominated(melnikov_rank_matrix(tau), melnikov_rank_matrix(sigma))


def leq_bruhat(v: Permutation, w: Permutation) -> bool:
    """v <=_B w via entrywise comparison of full rank matrices."""
    return _dominated(bruhat_rank_matrix(v), bruhat_rank_matrix(w))


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """A reduced word for w in the adjacent transpositions s_1..s_{n-1}.

    Deterministic: repeatedly clears the leftmost descent.  The word has
    length ``length(w)`` and :func:`eval_word` reproduces w.
    """
    current = list(w.one_line)
    removed: list[int] = []
    while True:
        for k in range(len(current) - 1):
            if current[k] > current[k + 1]:
                current[k], current[k + 1] = current[k + 1], current[k]
                removed.append(k + 1)
                break
        else:
            return tuple(reversed(removed))


def eval_word(n: int, word) -> Permutation:
    """Product of adjacent transpositions, multiplied left to right."""
    current = list(range(1, n + 1))
    for s in word:
        current[s - 1], current[s] = current[s], current[s - 1]
    return Permutation(tuple(current))


@lru_cache(maxsize=None)
def _subword_closure(one_line: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    # All products of subwords of one reduced word; by the subword
    # property this set does not depend on the chosen word.
    n = len(one_line)
    word = reduced_word(Permutation(one_line))
    reachable: set[tuple[int, ...]] = {tuple(range(1, n + 1))}
    for s in word:
        extra = set()
        for prod in reachable:
            grown = list(prod)
            grown[s - 1], grown[s] = grown[s], grown[s - 1]
            extra.add(tuple(grown))
        reachable |= extra
    return frozenset(reachable)


def bruhat_leq_subword(v: Permutation, w: Permutation) -> bool:
    """Oracle for v <= w in Bruhat-Chevalley order, by the subword
    property: some subword of a reduced word of w multiplies out to v.
    Exponential in principle; fine at desk scale (length(w) <= ~12)."""
    return v.one_line in _subword_closure(w.one_line)


def _board_lt(a, b) -> bool:
    """(a1, a2) strictly below (b1, b2) in the board order: a1 <= b1 and
    a2 >= b2, a != b."""
    return tuple(a) != tuple(b) and a[0] <= b[0] and a[1] >= b[1]


def remove_oracle(sigma: Involution, arc):
    """Oracle: sigma without ``arc`` if no arc lies strictly below it in
    the board order (it is minimal), else None."""
    if any(_board_lt(other, arc) for other in sigma.arcs):
        return None
    return involution(sigma.n, [a for a in sigma.arcs if a != arc])


def slide_oracle(sigma: Involution, arc, kind: str):
    """Oracle: arc (i, j) slid right to (i, m), m the first fixed point
    inside it, or up to (m, j), m the last; None when there is no such m
    or an arc strictly below (i, j) is not strictly below the slid arc."""
    i, j = arc
    image = sigma.one_line()
    fixed = [m for m in range(j + 1, i) if image[m - 1] == m]
    if not fixed:
        return None
    slid = (i, fixed[0]) if kind == "right" else (fixed[-1], j)
    if any(_board_lt(other, arc) and not _board_lt(other, slid) for other in sigma.arcs):
        return None
    return involution(sigma.n, [a for a in sigma.arcs if a != arc] + [slid])


def _exchange(sigma: Involution, drop, add):
    return involution(sigma.n, [a for a in sigma.arcs if a not in drop] + list(add))


def a_oracle(sigma: Involution, arc, partner):
    """Oracle: the crossing swap, (i, j), (al, be) -> (be, j), (al, i)."""
    (i, j), (al, be) = arc, partner
    return _exchange(sigma, (arc, partner), ((be, j), (al, i)))


def b_oracle(sigma: Involution, arc, partner):
    """Oracle: the nesting swap, (i, j), (al, be) -> (i, be), (al, j)."""
    (i, j), (al, be) = arc, partner
    return _exchange(sigma, (arc, partner), ((i, be), (al, j)))


def c_oracle(sigma: Involution, arc, pair):
    """Oracle: the split of (i, j) through the free points al < be,
    (i, j) -> (i, be), (al, j)."""
    (i, j), (al, be) = arc, pair
    return _exchange(sigma, (arc,), ((i, be), (al, j)))


def diagonal_weights(sigma: Involution, d) -> dict:
    """Oracle: the arc weights of the base point of sigma acted on by an
    invertible diagonal d, weight(i, j) = d_i / d_j."""
    return {
        arc: Fraction(d[arc.i - 1][arc.i - 1]) / Fraction(d[arc.j - 1][arc.j - 1])
        for arc in sigma.arcs
    }


def southwest_count(rooks, i: int, j: int) -> int:
    """Oracle: the rooks (row, column) weakly South-West of box (i, j),
    a >= i and b <= j, counted one cell at a time."""
    return sum(1 for a, b in rooks if a >= i and b <= j)


def leibniz_det(m, q=None):
    """Oracle: the permutation expansion of the determinant."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1 :])
        term = -1 if inversions % 2 else 1
        for r, c in enumerate(perm):
            term *= m[r][c]
        total += term
    return total if q is None else total % q


def largest_nonzero_minor(m, q=None):
    """Oracle: rank as the size of the largest nonvanishing minor, mod q
    when q is given; no elimination."""
    for k in range(min(len(m), len(m[0])), 0, -1):
        for rows in itertools.combinations(range(len(m)), k):
            for cols in itertools.combinations(range(len(m[0])), k):
                if leibniz_det([[m[r][c] for c in cols] for r in rows], q):
                    return k
    return 0


def field_rank_profile(lam) -> RankMatrix:
    """Oracle: every corner rank of a functional, i > j, by the kernel's
    field mode on Fraction rows."""
    n = len(lam)
    rows = [[0] * n for _ in range(n)]
    for i in range(2, n + 1):
        for j in range(1, i):
            basis: list = []
            for r in range(i - 1, n):
                echelon_insert(basis, [Fraction(x) for x in lam[r][:j]])
            rows[i - 1][j - 1] = len(basis)
    return RankMatrix(n, tuple(map(tuple, rows)))


def square_entry(a, r: int, s: int) -> Fraction:
    """Oracle: the (r, s) entry of A^2 for strictly lower-triangular A,
    the sum over s < k < r of A[r,k] A[k,s], summed over Fractions."""
    terms = (Fraction(a[r - 1][k - 1]) * Fraction(a[k - 1][s - 1]) for k in range(s + 1, r))
    return sum(terms, Fraction(0))


def field_z_contains(spec, a) -> bool:
    """Oracle: closure membership with the corner ranks of
    :func:`field_rank_profile` and the quadrics of :func:`square_entry`."""
    profile = field_rank_profile(a)
    n = spec.sigma.n
    if any(
        profile.entry(i, j) > spec.rank_bounds.entry(i, j)
        for i in range(2, n + 1)
        for j in range(1, i)
    ):
        return False
    return all(square_entry(a, r, s) == 0 for r, s in spec.quadric_cells)


def scan_quadric_cells(sigma: Involution) -> frozenset[tuple[int, int]]:
    """Oracle for ``quadric_cells``: every board cell tested against
    every maximal arc in the board order."""
    tops = maximal_support(sigma)
    return frozenset(
        (r, s)
        for r in range(2, sigma.n + 1)
        for s in range(1, r)
        if any(phi_lt(arc, (r, s)) for arc in tops)
    )


def scan_bounds_imply_all(tables, bounds: bytes, cells) -> bool:
    """Oracle: one scan per corner rank table; True iff every table
    within ``bounds`` at the 1-based ``cells`` is within them at every
    cell."""
    n = isqrt(len(bounds))
    flat = [(i - 1) * n + (j - 1) for i, j in cells]
    for table in tables:
        if any(table[k] > bounds[k] for k in flat):
            continue
        if any(t > b for t, b in zip(table, bounds)):
            return False
    return True


def trial_division_is_prime(q: int) -> bool:
    """Oracle: no divisor from 2 up to the square root."""
    return q >= 2 and all(q % d for d in range(2, isqrt(q) + 1))


def scan_l_sets(sigma, poset) -> LSets:
    """Oracle: the L-classes by the definition, one scan of the down-set
    for a strictly intermediate element per element below sigma."""
    b = poset.index_of(sigma)
    elements = poset.elements
    below = list(bit_indices(poset.less[b]))
    s_sigma = len(sigma.arcs)

    def intermediate(a: int, s_filter: bool) -> bool:
        # some w with a <= w < b, w != a (strictly between in the weak sense)
        for w in below:
            if w == a:
                continue
            if not (poset.less[w] >> a & 1):
                continue
            if s_filter and len(elements[w].arcs) >= s_sigma:
                continue
            return True
        return False

    minus, zero, plus, prime, star = [], [], [], [], []
    for a in below:
        s_a = len(elements[a].arcs)
        blocked_plain = intermediate(a, s_filter=False)
        if s_a < s_sigma:
            if not intermediate(a, s_filter=True):
                minus.append(a)
            if not blocked_plain:
                prime.append(a)
        elif s_a == s_sigma:
            if not blocked_plain:
                zero.append(a)
        else:
            if not blocked_plain:
                plus.append(a)
        if not blocked_plain:
            star.append(a)
    wrap = lambda idxs: frozenset(elements[k] for k in idxs)
    return LSets(wrap(minus), wrap(zero), wrap(plus), wrap(prime), wrap(star))


def union_loop_l_sets(sigma, poset) -> LSets:
    """Oracle: the L-classes in one pass over sigma's down-set, element
    by element: ``through`` is the union of the down-sets of all w below
    sigma, ``through_fewer`` that over the w with fewer arcs."""
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


def delta_scan_bracket_matrix(sigma) -> tuple:
    """Oracle: the matrix whose rank is the orbit dimension, every cell
    tested: row (r, s), r > s, column (p, q), p <= q, holds
    ([e_pq, lam])_{r,s} = delta_{r,p} lam_{q,s} - lam_{r,p} delta_{q,s}."""
    n = sigma.n
    lam = rook_matrix_lower(sigma)
    basis = [(p, q) for p in range(1, n + 1) for q in range(p, n + 1)]
    lower = [(r, s) for r in range(1, n + 1) for s in range(1, r)]
    matrix = []
    for r, s in lower:
        row = []
        for p, q in basis:
            value = 0
            if r == p:
                value += lam[q - 1][s - 1]
            if q == s:
                value -= lam[r - 1][p - 1]
            row.append(value)
        matrix.append(tuple(row))
    return tuple(matrix)


def row_typed_rank(matrix) -> int:
    """Oracle: the rank of a rectangular matrix by its integral multiple,
    each row typed again by the elimination kernel as it goes in."""
    basis: list = []
    for row in integral_multiple(matrix):
        echelon_insert(basis, row)
    return len(basis)


def scan_hasse_dot(poset) -> str:
    """Oracle: the DOT text with each rank=same line from one scan of
    all the nodes for that rank."""
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


def generator_lower_covers(cells: bytes, n: int, less) -> tuple:
    """Oracle: the lower covers peeled by entry-sum layers, each layer
    found and each cover set listed through ``bit_indices``."""
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


@pytest.fixture(scope="session")
def small_posets():
    from borbits import build_poset

    return {n: build_poset(n, "star") for n in range(1, 7)}
