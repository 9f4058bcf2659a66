from fractions import Fraction
from itertools import chain
from operator import le, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borbits import (
    Permutation,
    RankMatrix,
    bruhat_rank_matrix,
    enumerate_involutions,
    exact_rank,
    involution,
    leq_star,
    longest_involution,
    melnikov_rank_matrix,
    parse_involution,
    rank_profile,
    star_rank_matrix,
    to_permutation,
)
from borbits.closure import _corner_rank_table_gf
from borbits.errors import (
    BoundExceededError,
    IndexOutOfRangeError,
    NotAFieldError,
    NotStrictlyLowerError,
    SizeMismatchError,
    UnknownSuiteError,
)
from borbits.matrices import promote
from borbits import rankorder
from borbits.rankorder import (
    TABLE_MAX_N,
    _at_most_sets,
    _checked_cells,
    _dominated,
    _lanes,
    _rook_bounds,
    _strict_ranks,
    _word_cells,
    dominance_masks,
    joined_cells,
)
from borbits.ratfunc import EPS, EPS_INV, RF_ONE, RF_ZERO, RFun, poly

from conftest import (
    all_permutations,
    bruhat_leq_subword,
    largest_nonzero_minor,
    leq_bruhat,
    leq_melnikov,
    order_rooks,
    prefix_corner_ranks,
    rationals,
    rook_matrix_upper,
    rook_matrix_lower,
    row_typed_rank,
    slotted_southwest_cells,
    southwest_cells,
    southwest_count,
)

# the four displayed 5x5 matrices
R_SIGMA = (
    (0, 0, 1, 1, 2),
    (0, 0, 0, 0, 1),
    (0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0),
)
R_TAU = (
    (0, 1, 1, 2, 2),
    (0, 0, 0, 1, 1),
    (0, 0, 0, 1, 1),
    (0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0),
)
RSTAR_SIGMA = (
    (0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0),
    (1, 2, 0, 0, 0),
    (1, 2, 2, 0, 0),
    (0, 1, 1, 1, 0),
)
RSTAR_TAU = (
    (0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0),
    (1, 2, 0, 0, 0),
    (1, 2, 2, 0, 0),
    (1, 1, 1, 1, 0),
)


def test_melnikov_matrices_reproduce_display():
    assert melnikov_rank_matrix(parse_involution("(3,1)(5,2)", 5)).rows == R_SIGMA
    assert melnikov_rank_matrix(parse_involution("(2,1)(4,3)", 5)).rows == R_TAU


def test_star_matrices_reproduce_display():
    assert star_rank_matrix(parse_involution("(4,1)(5,2)", 5)).rows == RSTAR_SIGMA
    assert star_rank_matrix(parse_involution("(5,1)(4,2)", 5)).rows == RSTAR_TAU


def test_identity_rank_matrices_vanish():
    sigma = parse_involution("id", 4)
    assert all(not any(row) for row in melnikov_rank_matrix(sigma).rows)
    assert all(not any(row) for row in star_rank_matrix(sigma).rows)


def test_exact_rank_examples():
    assert exact_rank(((0, 0), (0, 0))) == 0
    assert exact_rank(tuple(tuple(int(r == c) for c in range(4)) for r in range(4))) == 4
    assert exact_rank(((1, 2), (2, 4))) == 1
    assert exact_rank(((Fraction(1, 2), Fraction(1, 3)), (Fraction(3), Fraction(2)))) == 1
    # exact on ints: an elimination that divided them as floats would read 1
    assert exact_rank(((1, 10**20), (1, 10**20 + 1))) == 2


def test_exact_rank_rectangular_and_ragged():
    # orbit_dimension ranks a non-square matrix; only ragged rows are wrong
    assert exact_rank(((1, 2, 3), (2, 4, 6))) == 1
    assert exact_rank(((1, 0), (0, 1), (1, 1))) == 2
    with pytest.raises(SizeMismatchError):
        exact_rank([[1, 2], [3]])


# mostly 0 and 1, with a few other values of each field
_RANKED_ENTRIES = {
    "int": [0, 0, 0, 1, 1, -1, 2],
    "fraction": [Fraction(0)] * 3 + [Fraction(1), Fraction(-1), Fraction(2, 3), 4],
    "rfun": [RF_ZERO] * 3 + [RF_ONE, EPS, -EPS_INV, EPS - EPS_INV, Fraction(1, 2), 3],
}


@st.composite
def ranked_matrices(draw):
    """A rectangular matrix over the ints, Q (ints mixed in) or Q(eps)
    (rationals mixed in), with one float in place of an entry on request."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    pick = st.sampled_from(_RANKED_ENTRIES[draw(st.sampled_from(sorted(_RANKED_ENTRIES)))])
    matrix = [[draw(pick) for _ in range(cols)] for _ in range(rows)]
    if rows and cols and draw(st.booleans()):
        matrix[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = 0.5
        return tuple(map(tuple, matrix)), True
    return tuple(map(tuple, matrix)), False


@settings(max_examples=300, deadline=None)
@given(case=ranked_matrices())
@example(case=(((Fraction(1, 2), 1), (1, 2)), False))
@example(case=(((EPS, RF_ONE), (1, EPS_INV)), False))
@example(case=(((EPS, Fraction(1, 2)), (EPS + EPS, 1)), False))
@example(case=(((1, 2), (2, 0.5)), True))
def test_exact_rank_types_the_matrix_once(case):
    # the rank of the row-typed route over each field, and a float anywhere
    # is rejected as it was
    matrix, has_float = case
    if has_float:
        with pytest.raises(NotAFieldError):
            exact_rank(matrix)
        with pytest.raises(NotAFieldError):
            row_typed_rank(matrix)
    else:
        assert exact_rank(matrix) == row_typed_rank(matrix)


def test_southwest_count_examples():
    arcs = parse_involution("(4,1)(5,2)", 5).arcs
    assert southwest_count(arcs, 4, 2) == 2
    assert southwest_count(arcs, 5, 1) == 0
    assert southwest_count((), 3, 3) == 0


def assert_tables_are_southwest_counts(sigma, w):
    """The three orders' tables of ``sigma``, and the Bruhat table of the
    permutation ``w``, against one count per cell."""
    n = sigma.n
    assert star_rank_matrix(sigma).cells == southwest_cells(sigma.arcs, n, strict=True)
    upper = [(j, i) for i, j in sigma.arcs]
    assert melnikov_rank_matrix(sigma).cells == southwest_cells(upper, n)
    for perm in (to_permutation(sigma), w):
        full = [(perm.apply(k), k) for k in range(1, n + 1)]
        assert bruhat_rank_matrix(perm).cells == southwest_cells(full, n)


def test_every_table_cell_equals_its_southwest_count():
    # the lane-built tables against one count per cell
    for n in range(1, 7):
        for sigma in enumerate_involutions(n):
            assert_tables_are_southwest_counts(sigma, to_permutation(sigma))


def test_bruhat_tables_of_every_permutation_are_southwest_counts():
    # a permutation's table is built from its inverse word: every w of
    # S_n, non-involutions included, against one count per cell
    for n in range(1, 7):
        for w in all_permutations(n):
            full = [(w.apply(k), k) for k in range(1, n + 1)]
            assert bruhat_rank_matrix(w).cells == southwest_cells(full, n)


@st.composite
def involution_and_permutation(draw):
    """A random involution of S_n, n <= 12, its arcs paired off a shuffle,
    and a random permutation of S_n."""
    n = draw(st.integers(1, 12))
    points = draw(st.permutations(range(1, n + 1)))
    k = draw(st.integers(0, n // 2))
    sigma = involution(n, zip(points[: 2 * k : 2], points[1 : 2 * k : 2]))
    return sigma, Permutation(tuple(draw(st.permutations(range(1, n + 1)))))


@settings(max_examples=200, deadline=None)
@given(case=involution_and_permutation())
@example(case=(longest_involution(12), Permutation(tuple(range(12, 0, -1)))))
def test_table_cells_equal_southwest_counts_up_to_n_12(case):
    assert_tables_are_southwest_counts(*case)


@st.composite
def low_rank_strictly_lower_ints(draw):
    """An n x n strictly lower int matrix, n <= 10, each row a combination
    of three random rows cut left of the diagonal, so corners lose rank."""
    n = draw(st.integers(0, 10))
    basis = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(3)]
    rows = []
    for r in range(n):
        weights = [draw(st.integers(-1, 1)) for _ in basis]
        full = [sum(w * row[c] for w, row in zip(weights, basis)) for c in range(n)]
        rows.append(tuple(x if c < r else 0 for c, x in enumerate(full)))
    return tuple(rows)


@settings(max_examples=300, deadline=None)
@given(matrix=low_rank_strictly_lower_ints())
@example(matrix=())
@example(matrix=((0, 0, 0), (1, 0, 0), (2, 3, 0)))
def test_strict_ranks_match_the_per_prefix_oracle(matrix):
    # the unchecked kernel's cells, row-major, against one elimination per
    # column prefix
    oracle = prefix_corner_ranks(matrix, strict=True)
    assert _strict_ranks(matrix, len(matrix)) == bytes(chain.from_iterable(oracle))


def test_rank_matrices_match_exact_elimination():
    for n in range(1, 6):
        for sigma in enumerate_involutions(n):
            upper = prefix_corner_ranks(rook_matrix_upper(sigma))
            assert upper == melnikov_rank_matrix(sigma).rows
            # both read 0 on and above the diagonal
            assert rank_profile(rook_matrix_lower(sigma)) == star_rank_matrix(sigma)


def test_base_point_strict_corner_ranks_are_star_tables():
    # so a base point meets sigma's rank bounds exactly when tau <=* sigma:
    # no member of a variety lies outside the order
    for n in range(1, 9):
        for tau in enumerate_involutions(n):
            assert rank_profile(rook_matrix_lower(tau)) == star_rank_matrix(tau)


# entries of each ring the kernel takes, with the prime for residues
_RINGS = {
    "int": (st.integers(-2, 2), None),
    "fraction": (st.one_of(st.just(Fraction(0)), rationals), None),
    "rfun": (
        st.sampled_from(
            [RF_ZERO, RF_ZERO, RF_ONE, -RF_ONE, EPS, EPS + RF_ONE, RFun(poly(1), poly(1, 1))]
        ),
        None,
    ),
    "mod3": (st.integers(0, 2), 3),
    "mod5": (st.integers(0, 4), 5),
}
_ZEROS = {"int": 0, "fraction": Fraction(0), "rfun": RF_ZERO}


@st.composite
def corner_rank_cases(draw):
    """(matrix, q): an n x n matrix, n <= 6, over one ring, with some rows
    replaced by a combination of two rows so that corners lose rank."""
    entries, q = _RINGS[draw(st.sampled_from(sorted(_RINGS)))]
    n = draw(st.integers(0, 6))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for r in range(n):
        if draw(st.booleans()):
            s, t = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            x, y = draw(entries), draw(entries)
            rows[r] = [x * u + y * v for u, v in zip(rows[s], rows[t])]
            if q:
                rows[r] = [e % q for e in rows[r]]
    return tuple(map(tuple, rows)), q


@settings(max_examples=300, deadline=None)
@given(case=corner_rank_cases())
@example(case=(((1, 2, 3), (2, 4, 6), (1, 1, 1)), None))
def test_per_prefix_oracle_ranks_every_corner(case):
    # over Q and Q(eps) the oracle of the strict kernel, on full matrices,
    # against exact_rank of each corner; over GF(q) the upper-left tables of
    # the field-sweep oracle against the largest nonvanishing minor mod q,
    # a route with no elimination
    matrix, q = case
    n = len(matrix)
    if q is None:
        ranks = prefix_corner_ranks(matrix)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                corner = [row[:j] for row in matrix[i - 1 :]]
                assert ranks[i - 1][j - 1] == exact_rank(corner)
    else:
        table = _corner_rank_table_gf([list(row) for row in matrix], n, q)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                corner = [row[:j] for row in matrix[:i]]
                assert table[(i - 1) * n + (j - 1)] == largest_nonzero_minor(corner, q)


@st.composite
def strictly_lower_cases(draw):
    """An n x n strictly lower-triangular matrix, n <= 6, over ints,
    Fractions, RFuns or a mix of int and Fraction rows, with some rows
    zero and some the cut of a combination of two rows."""
    ring = draw(st.sampled_from(["int", "fraction", "rfun", "mixed"]))
    n = draw(st.integers(0, 6))
    rows = []
    for r in range(n):
        kind = draw(st.sampled_from(["int", "fraction"])) if ring == "mixed" else ring
        entries, zero = _RINGS[kind][0], _ZEROS[kind]
        rows.append([draw(entries) if c < r else zero for c in range(n)])
    for r in range(n):
        if draw(st.booleans()):
            rows[r] = [_ZEROS.get(ring, 0)] * n
        elif n and draw(st.booleans()):
            s, t = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[r] = [
                u + v if c < r else rows[r][c]
                for c, (u, v) in enumerate(zip(rows[s], rows[t]))
            ]
    return tuple(map(tuple, rows))


@settings(max_examples=400, deadline=None)
@given(matrix=strictly_lower_cases())
@example(matrix=((0, 0, 0), (1, 0, 0), (2, 3, 0)))
@example(matrix=((0,),))
@example(matrix=((0, 0, 0), (0, 0, 0), (0, 0, 0)))
def test_one_pass_corner_ranks_match_per_prefix_oracle(matrix):
    oracle = prefix_corner_ranks(promote(matrix), strict=True)
    assert rank_profile(matrix).rows == oracle


@pytest.mark.parametrize(
    "matrix",
    [
        ((0, 0, 0), (1, 0, 0), (Fraction(1, 2), 1, 0)),
        ((0, 0, 0), (1, 0, 0), (EPS, 1, 0)),
    ],
    ids=["int-over-fraction", "int-over-rfun"],
)
def test_corner_ranks_of_an_int_row_above_a_field_row(matrix):
    # the bottom row goes in first, so the int row above it meets a field
    # row in the basis: the matrix must be typed as a whole
    assert rank_profile(matrix).rows == ((0, 0, 0), (1, 0, 0), (1, 1, 0))


@st.composite
def mixed_matrices(draw):
    """An n x n strictly lower-triangular matrix, n <= 5, each row over a
    ring of its own: int, Fraction or RFun entries."""
    n = draw(st.integers(0, 5))
    rows = []
    for r in range(n):
        kind = draw(st.sampled_from(["int", "fraction", "rfun"]))
        entries, zero = _RINGS[kind][0], _ZEROS[kind]
        rows.append(tuple(draw(entries) if c < r else zero for c in range(n)))
    return tuple(rows)


@settings(max_examples=300, deadline=None)
@given(matrix=mixed_matrices())
def test_rows_over_different_rings_rank_as_the_promoted_matrix(matrix):
    assert rank_profile(matrix) == rank_profile(promote(matrix))


@pytest.mark.parametrize(
    "matrix",
    [((0, 0, 0), (4, 0, 0)), ((0, 0), (1, 0), (5, 6)), ((0, 0), (1,))],
    ids=["2x3", "3x2", "ragged"],
)
def test_corner_ranks_rejects_non_square(matrix):
    with pytest.raises(SizeMismatchError):
        rank_profile(matrix)


_ROW = (1, 3, 0, 0)


@pytest.mark.parametrize(
    "matrix",
    [
        ((0, 0, 0, 0), (0, 0, 0, 0), _ROW, (0.1, 0.3, 5, 0)),
        ((0, 0, 0, 0), (0, 0, 0, 0), (0.1, 0.3, 0, 0), (1, 3, 5, 0)),
        ((0, 0, 0, 0), (0, 0, 0, 0), _ROW, (Fraction(1, 10), 0.3, 5, 0)),
        ((0.0, 0.5), (1, 0)),
    ],
    ids=["float-row-last", "float-row-first", "float-beside-fraction", "float-above"],
)
def test_corner_ranks_rejects_floats(matrix):
    # float arithmetic would give corner (3,2) rank 2, as 0.1 * 3 != 0.3;
    # it is 1.  A float is named before an entry above the diagonal.
    with pytest.raises(NotAFieldError):
        rank_profile(matrix)


@pytest.mark.parametrize(
    "matrix",
    [
        ((1, 0), (0, 0)),
        ((0, 0), (1, 2)),
        ((0, Fraction(1, 2)), (0, 0)),
        ((0, 0), (EPS, EPS)),
    ],
    ids=["diagonal", "last-diagonal", "above", "rfun-diagonal"],
)
def test_corner_ranks_rejects_entries_on_or_above_the_diagonal(matrix):
    with pytest.raises(NotStrictlyLowerError):
        rank_profile(matrix)


def test_star_is_lower_part_of_full_rank_matrix():
    for n in range(1, 7):
        for sigma in enumerate_involutions(n):
            full = bruhat_rank_matrix(to_permutation(sigma))
            star = star_rank_matrix(sigma)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    expected = full.entry(i, j) if i > j else 0
                    assert star.entry(i, j) == expected


def test_leq_examples():
    sigma = parse_involution("(3,1)(5,2)", 5)
    tau = parse_involution("(2,1)(4,3)", 5)
    assert leq_melnikov(sigma, tau)
    assert leq_star(parse_involution("(4,1)(5,2)", 5), parse_involution("(5,1)(4,2)", 5))
    assert leq_melnikov(parse_involution("id", 5), sigma)
    a, b = parse_involution("(2,1)", 3), parse_involution("(3,2)", 3)
    assert not leq_star(a, b) and not leq_star(b, a)


def test_leq_bruhat_examples():
    v = to_permutation(parse_involution("(4,1)(5,2)", 5))
    w = to_permutation(parse_involution("(5,1)(4,2)", 5))
    assert leq_bruhat(v, w)
    from borbits import Permutation

    assert not leq_bruhat(Permutation((1, 3, 2)), Permutation((2, 1, 3)))


def test_leq_reflexive():
    for sigma in enumerate_involutions(5):
        assert leq_star(sigma, sigma)
        assert leq_melnikov(sigma, sigma)


def test_leq_size_mismatch():
    with pytest.raises(SizeMismatchError):
        leq_star(parse_involution("id", 3), parse_involution("id", 4))


def test_bruhat_rank_criterion_matches_subword_oracle():
    for n in range(1, 5):
        perms = all_permutations(n)
        for v in perms:
            for w in perms:
                assert leq_bruhat(v, w) == bruhat_leq_subword(v, w)


def test_star_order_is_a_partial_order():
    # antisymmetry via distinct matrices, transitivity via bit masks
    for n in range(1, 7):
        elements = enumerate_involutions(n)
        stars = [star_rank_matrix(s) for s in elements]
        assert len(set(stars)) == len(elements)
        up = []
        for a in range(len(elements)):
            mask = 0
            for b in range(len(elements)):
                if leq_star(elements[a], elements[b]):
                    mask |= 1 << b
            up.append(mask)
        for a in range(len(elements)):
            for b in range(len(elements)):
                if up[a] >> b & 1:
                    assert up[a] | up[b] == up[a]


def test_bruhat_implies_star_entrywise():
    for n in range(1, 6):
        elements = enumerate_involutions(n)
        for tau in elements:
            for sigma in elements:
                if leq_bruhat(to_permutation(tau), to_permutation(sigma)):
                    assert leq_star(tau, sigma)


def test_rank_matrix_step_lipschitz():
    # neighbouring corners differ by at most one rook; for the star table
    # the property holds inside the strict lower triangle only
    for sigma in enumerate_involutions(5):
        rows = melnikov_rank_matrix(sigma).rows
        for i in range(5):
            for j in range(4):
                assert abs(rows[i][j + 1] - rows[i][j]) <= 1
        for j in range(5):
            for i in range(4):
                assert abs(rows[i + 1][j] - rows[i][j]) <= 1
        star = star_rank_matrix(sigma).rows
        for i in range(1, 6):
            for j in range(1, i - 1):
                assert abs(star[i - 1][j] - star[i - 1][j - 1]) <= 1
        for j in range(1, 6):
            for i in range(j + 1, 5):
                assert abs(star[i][j - 1] - star[i - 1][j - 1]) <= 1


def test_rank_matrix_rejects_impossible_entries():
    with pytest.raises(IndexOutOfRangeError):
        RankMatrix(2, ((2, 0), (0, 0)))


def test_rank_matrix_rejects_non_int_sizes_and_entries():
    for n, rows in (
        (1, ((0.5,),)),
        (1, ((0.0,),)),
        (2, ((Fraction(1, 2), 0), (0, 0))),
        (2, ((Fraction(1), 0), (0, 0))),
        (1.0, ((0,),)),
        (True, ((0,),)),
        # a sum of bools is an int, so these once passed as tables
        (1, ((True,),)),
        (2, ((0, False), (0, 0))),
    ):
        with pytest.raises(IndexOutOfRangeError):
            RankMatrix(n, rows)
    assert RankMatrix(0, ()).rows == ()


def test_rank_matrix_from_cells_is_checked_as_from_rows():
    assert RankMatrix.of_cells(2, b"\0\1\0\1") == RankMatrix(2, ((0, 1), (0, 1)))
    with pytest.raises(SizeMismatchError):
        RankMatrix.of_cells(2, b"\0\0\0")
    with pytest.raises(IndexOutOfRangeError) as error:
        RankMatrix.of_cells(2, b"\0\2\0\2")
    assert str(error.value) == "entry 2 at (2,2) exceeds rook bound"
    with pytest.raises(IndexOutOfRangeError):
        RankMatrix.of_cells(1.0, b"\0")
    # a negative size once made a table of n = -1 from one cell
    with pytest.raises(IndexOutOfRangeError):
        RankMatrix.of_cells(-1, b"\0")


@pytest.mark.parametrize(
    "cells",
    # a bool once became a 1, and a float or a str raised a bare TypeError
    [[0, 0, 0, True], [0, 0, 0, 1.0], "abcd", (0, Fraction(1), 0, 0), [0, 0, None, 0], None, 5],
)
def test_rank_matrix_from_cells_rejects_non_int_cells(cells):
    with pytest.raises(IndexOutOfRangeError, match="must be ints"):
        RankMatrix.of_cells(2, cells)


def test_rank_matrix_from_cells_reads_int_sequences_as_bytes():
    table = RankMatrix.of_cells(2, b"\0\1\0\1")
    for cells in ([0, 1, 0, 1], (0, 1, 0, 1), bytearray(b"\0\1\0\1")):
        assert RankMatrix.of_cells(2, cells) == table
        assert type(RankMatrix.of_cells(2, cells).cells) is bytes
    assert RankMatrix.of_cells(1, range(1)) == RankMatrix(1, ((0,),))
    with pytest.raises(IndexOutOfRangeError) as error:
        RankMatrix.of_cells(2, [0, -1, 0, 0])
    assert str(error.value) == "entry -1 at (1,2) exceeds rook bound"
    with pytest.raises(IndexOutOfRangeError) as error:
        RankMatrix.of_cells(2, [0, 0, 0, 300])
    assert str(error.value) == "entry 300 at (2,2) exceeds rook bound"


@st.composite
def joined_near_bounds(draw):
    """(n, count, cells): the bytes of count joined n x n tables, each
    cell at its rook bound or one below, with a few cells set one above
    it or to 128 or more."""
    n = draw(st.one_of(st.integers(0, 9), st.sampled_from([126, 127, 128, 130])))
    count = draw(st.integers(0, 2))
    rng = draw(st.randoms(use_true_random=False))
    bounds = _rook_bounds(n) * count
    # one below the bound where a random bit is set and the bound is not 0
    below = rng.randbytes(len(bounds)).translate(bytes([0, 1]) * 128)
    cells = bytearray(map(sub, bounds, map(min, below, bounds)))
    for _ in range(draw(st.integers(0, 2)) if cells else 0):
        k = rng.randrange(len(cells))
        if rng.random() < 0.5:
            cells[k] = min(cells[k] + rng.randint(1, 2), 255)
        else:
            cells[k] = rng.randint(128, 255)
    return n, count, bytes(cells)


@settings(max_examples=300, deadline=None)
@given(case=joined_near_bounds())
@example(case=(2, 1, b"\0\1\0\2"))  # one above the bound at (2,2)
@example(case=(2, 1, b"\0\1\0\x81"))  # 129: its high bit alone is set
@example(case=(1, 2, b"\1\x80"))  # within in table 1, 128 in table 2
# 130 past a bound of 1 borrows from the cell before, below its bound
@example(case=(1, 2, b"\0\x82"))
@example(case=(127, 1, _rook_bounds(127)))  # every cell at its bound
def test_byte_cells_are_checked_as_the_per_cell_scan(case):
    # the carry-free test on the packed cells accepts exactly the tables
    # whose every cell is within its bound, and otherwise the scan names
    # the first cell past it
    n, count, cells = case
    bounds = _rook_bounds(n) * count
    if all(map(le, cells, bounds)):
        assert _checked_cells(n, cells, count) == cells
        return
    k = next(k for k, (cell, bound) in enumerate(zip(cells, bounds)) if cell > bound)
    table, cell = divmod(k, n * n)
    where = f" of table {table + 1}" if count > 1 else ""
    with pytest.raises(IndexOutOfRangeError) as error:
        _checked_cells(n, cells, count)
    assert str(error.value) == (
        f"entry {cells[k]} at ({cell // n + 1},{cell % n + 1}){where} exceeds rook bound"
    )


class _Untouchable:
    """Rows or rooks that fail the test if anything reads them."""

    def __len__(self):
        raise AssertionError("read past the bound")

    def __iter__(self):
        raise AssertionError("read past the bound")


def test_tables_past_one_byte_per_cell_raise_before_building_one():
    _lanes.cache_clear()
    n = TABLE_MAX_N + 1
    sigma = parse_involution("id", n)
    builders = (
        lambda: RankMatrix(n, _Untouchable()),
        lambda: RankMatrix.of_cells(n, _Untouchable()),
        lambda: star_rank_matrix(sigma),
        lambda: melnikov_rank_matrix(sigma),
        lambda: bruhat_rank_matrix(to_permutation(sigma)),
        lambda: rank_profile(((0,) * n,) * n),
    )
    for build in builders:
        with pytest.raises(BoundExceededError):
            build()
    assert _lanes.cache_info().currsize == 0


def test_longest_bruhat_table_at_the_bound_fills_every_rook_bound():
    # w0 puts n - i + 1 rooks in rows i..n and j in columns 1..j, so
    # each corner holds as many rooks as it can: 255 at (1, n)
    n = TABLE_MAX_N
    table = bruhat_rank_matrix(to_permutation(longest_involution(n)))
    assert table.entry(1, n) == max(table.cells) == 255
    assert table.entry(1, 1) == table.entry(n, 1) == table.entry(n, n) == 1
    assert table.entry(2, n) == table.entry(1, n - 1) == 254
    assert table.cells == bytes(
        min(n - i + 1, j) for i in range(1, n + 1) for j in range(1, n + 1)
    )


@pytest.mark.parametrize("n", [0, 9])
def test_rank_matrix_rows_and_json_round_trip(n):
    # every cell at its rook bound, up to 9 at n = 9
    rows = tuple(tuple(min(n - i, j + 1) for j in range(n)) for i in range(n))
    table = RankMatrix(n, rows)
    assert table == RankMatrix(n, [list(row) for row in rows])
    assert hash(table) == hash(RankMatrix(n, rows))
    assert table.rows == rows
    assert RankMatrix(n, table.rows) == RankMatrix.of_cells(n, table.cells) == table
    payload = table.to_json()
    assert payload == {"n": n, "rows": [list(row) for row in rows]}
    assert RankMatrix(payload["n"], payload["rows"]) == table
    if n:
        assert table == bruhat_rank_matrix(to_permutation(longest_involution(n)))
        assert table != RankMatrix(n, rows[:-1] + ((0,) * n,))


def test_rank_matrix_names_the_first_bad_cell_of_a_middle_row():
    # (3,2) is the first cell over its bound of 2; (3,4) and (4,1) are
    # over theirs too, and rows 1 and 2 are within theirs
    rows = ((0, 1, 2, 3), (0, 2, 3, 3), (1, 3, 1, 5), (2, 0, 0, 0))
    with pytest.raises(IndexOutOfRangeError) as error:
        RankMatrix(4, rows)
    assert str(error.value) == "entry 3 at (3,2) exceeds rook bound"
    with pytest.raises(IndexOutOfRangeError) as error:
        RankMatrix(4, ((0,) * 4, (0, 1, 2, 3), (0, -1, 0, 0), (0,) * 4))
    assert str(error.value) == "entry -1 at (3,2) exceeds rook bound"


@pytest.mark.parametrize(
    "i, j",
    [(2, 0), (0, 2), (4, 1), (1, 4), (-1, 3), (3, -1), (True, 1), (1, True), (1.0, 1), (1, "1")],
)
def test_rank_matrix_entry_rejects_a_cell_outside_the_table(i, j):
    # (2, 0) once read cell (2, 3), and (4, 1) a bare IndexError
    table = bruhat_rank_matrix(to_permutation(parse_involution("(3,1)", 3)))
    with pytest.raises(IndexOutOfRangeError):
        table.entry(i, j)
    assert [table.entry(2, c) for c in (1, 2, 3)] == list(table.rows[1])


TABLE_KINDS = {
    "star": star_rank_matrix,
    "melnikov": melnikov_rank_matrix,
    "bruhat": lambda sigma: bruhat_rank_matrix(to_permutation(sigma)),
}


@st.composite
def rank_tables(draw, n):
    """A valid n x n table: the star, Melnikov or Bruhat table of a random
    involution, or random entries within the rook bound."""
    if draw(st.booleans()):
        sigma = draw(st.sampled_from(enumerate_involutions(n)))
        return TABLE_KINDS[draw(st.sampled_from(sorted(TABLE_KINDS)))](sigma)
    rows = tuple(
        tuple(draw(st.integers(0, min(n - i, j + 1))) for j in range(n)) for i in range(n)
    )
    return RankMatrix(n, rows)


@st.composite
def table_lists(draw):
    """n and 0-30 tables of size n, repeats likely: drawn from a pool of up
    to 8."""
    n = draw(st.integers(1, 8))
    pool = draw(st.lists(rank_tables(n), min_size=1, max_size=8))
    return n, draw(st.lists(st.sampled_from(pool), max_size=30))


def joined(tables) -> bytes:
    return b"".join(table.cells for table in tables)


@settings(max_examples=150, deadline=None)
@given(sized=table_lists())
def test_dominance_masks_match_pairwise_oracle(sized):
    n, tables = sized
    masks = dominance_masks(joined(tables), n)
    assert len(masks) == len(tables)
    for b, high in enumerate(tables):
        for a, low in enumerate(tables):
            assert bool(masks[b] >> a & 1) == _dominated(low, high)
        assert masks[b] >> len(tables) == 0


def bucket_at_most_sets(column) -> list[int]:
    """Oracle: one bucket bit per entry, then a prefix OR over v."""
    at_most = [0] * (max(column, default=-1) + 1)
    for k, v in enumerate(column):
        at_most[v] |= 1 << k
    for v in range(1, len(at_most)):
        at_most[v] |= at_most[v - 1]
    return at_most


@settings(max_examples=300, deadline=None)
@given(column=st.lists(st.integers(0, 12) | st.integers(0, 255), max_size=300))
@example(column=[])
@example(column=[255, 0, 7])
def test_at_most_sets_match_the_bucket_pass(column):
    # lengths off a multiple of 8 and entries up to 255 included
    assert list(_at_most_sets(bytes(column))) == bucket_at_most_sets(column)


def test_dominance_masks_read_the_last_cell_and_the_stride_boundary():
    # zero, zero but a 1 in the last cell, zero but a 1 in the first cell:
    # joined, a table's first cell follows the last cell of the one before
    zero = RankMatrix(3, ((0,) * 3,) * 3)
    last = RankMatrix.of_cells(3, bytes(8) + b"\1")
    first = RankMatrix.of_cells(3, b"\1" + bytes(8))
    tables = [zero, last, first, last]
    masks = dominance_masks(joined(tables), 3)
    assert masks == (0b0001, 0b1011, 0b0101, 0b1011)
    for b, high in enumerate(tables):
        for a, low in enumerate(tables):
            assert bool(masks[b] >> a & 1) == _dominated(low, high)


def test_dominance_masks_at_n_1():
    assert dominance_masks(b"\0\1\0", 1) == (0b101, 0b111, 0b101)
    assert dominance_masks(b"\1", 1) == (0b1,)


def test_dominance_masks_empty_and_mixed_sizes():
    assert dominance_masks(b"", 3) == ()
    small = star_rank_matrix(parse_involution("id", 3))
    large = star_rank_matrix(parse_involution("id", 4))
    # a 3x3 table joined to a 4x4 one is a whole number of neither
    for n in (3, 4):
        with pytest.raises(SizeMismatchError):
            dominance_masks(joined([small, large]), n)
        with pytest.raises(SizeMismatchError):
            dominance_masks(joined([small, small, large]), n)
    with pytest.raises(SizeMismatchError):
        dominance_masks(b"\0", 0)


@pytest.mark.parametrize("order", sorted(TABLE_KINDS))
def test_joined_cells_are_the_per_sigma_tables_joined(order):
    for n in range(1, 9):
        sigmas = enumerate_involutions(n)
        cells = joined_cells(order, sigmas, n)
        assert cells == b"".join(TABLE_KINDS[order](sigma).cells for sigma in sigmas)
        assert joined_cells(order, sigmas[-1:], n) == TABLE_KINDS[order](sigmas[-1]).cells
    assert joined_cells(order, (), 3) == b""
    assert joined_cells(order, (), 0) == b""  # no 0 x 0 table has a cell


@pytest.mark.parametrize("order", sorted(TABLE_KINDS))
def test_joined_cells_are_southwest_counts(order):
    # the word route, all tables at once, against one count per cell
    for n in range(1, 9):
        sigmas = enumerate_involutions(n)
        expected = (southwest_cells(order_rooks(order, s), n, order == "star") for s in sigmas)
        assert joined_cells(order, sigmas, n) == b"".join(expected)


@st.composite
def row_words(draw):
    """n <= 9 and 0-6 row words, entry c in row a a rook at (a, c) and
    c = 0 an empty row; a column may hold several rooks, so a cell may
    count up to n."""
    n = draw(st.integers(1, 9))
    return n, draw(st.lists(st.lists(st.integers(0, n), min_size=n, max_size=n), max_size=6))


def placed_rooks(order: str, word) -> list[tuple[int, int]]:
    """The rooks (a, c) of a row word that ``order`` places: star's
    below the diagonal, Melnikov's above it, Bruhat's anywhere."""
    rule = {"star": lambda a, c: c < a, "melnikov": lambda a, c: c > a}.get(order)
    return [(a, c) for a, c in enumerate(word, 1) if c and (rule is None or rule(a, c))]


@settings(max_examples=300, deadline=None)
@given(sized=row_words(), order=st.sampled_from(sorted(TABLE_KINDS)))
@example(sized=(3, []), order="bruhat")
@example(sized=(1, [[0], [1], [1]]), order="bruhat")
@example(sized=(1, [[1], [0]]), order="star")
@example(sized=(4, [[4, 0, 0, 0], [1, 0, 0, 4], [2, 0, 0, 0]]), order="bruhat")  # row 1
@example(sized=(4, [[4, 0, 0, 0], [2, 4, 1, 3]]), order="melnikov")  # row 1
@example(sized=(9, [[1] * 9] * 2), order="bruhat")  # a full column
@example(sized=(9, [list(range(9, 0, -1)), [0] * 8 + [1]]), order="star")
def test_joined_southwest_cells_match_one_count_per_cell(sized, order):
    # the word kernel against each placement built alone, against the
    # per-rook slotted product and against one South-West count per cell;
    # a rook's rise past row 1 stays in its slot
    n, words = sized
    strict = order == "star"
    placements = [placed_rooks(order, word) for word in words]
    cells = _word_cells(order, words, n)
    assert cells == b"".join(_word_cells(order, (word,), n) for word in words)
    assert cells == slotted_southwest_cells(placements, n, strict)
    assert cells == b"".join(southwest_cells(rooks, n, strict) for rooks in placements)


def test_joined_cells_check_every_table(monkeypatch):
    sigmas = enumerate_involutions(3)
    built = joined_cells("star", sigmas, 3)
    # the second table's (2,1) over its rook bound of 1
    bad = built[:12] + b"\2" + built[13:]
    monkeypatch.setattr(rankorder, "_word_cells", lambda order, words, n: bad)
    with pytest.raises(IndexOutOfRangeError) as error:
        joined_cells("star", sigmas, 3)
    assert str(error.value) == "entry 2 at (2,1) of table 2 exceeds rook bound"
    monkeypatch.setattr(rankorder, "_word_cells", lambda order, words, n: built[:-1])
    with pytest.raises(SizeMismatchError):
        joined_cells("star", sigmas, 3)


def test_joined_cells_refuse_an_unknown_order_and_mixed_sizes():
    with pytest.raises(UnknownSuiteError, match="expected one of"):
        joined_cells("nope", enumerate_involutions(3), 3)
    mixed = enumerate_involutions(3) + enumerate_involutions(4)
    with pytest.raises(SizeMismatchError):
        joined_cells("star", mixed, 3)
    with pytest.raises(BoundExceededError):
        joined_cells("bruhat", (), TABLE_MAX_N + 1)
