from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borbits.closure import (
    _corner_rank_table_bits,
    _corner_rank_table_gf,
    z_contains,
    z_spec,
)
from borbits.errors import NotAFieldError, NotInvertibleError, SizeMismatchError
from borbits.matrices import (
    _field_insert,
    _fraction_free_insert,
    integral_multiple,
    is_strictly_lower,
    is_upper_triangular,
    mat_mul,
    promote,
    square_size,
    strictly_lower_part,
    upper_inverse,
)
from borbits.involutions import parse_involution
from borbits.orbits import act, random_borel, rank_profile
from borbits.rankorder import exact_rank
from borbits.ratfunc import EPS, EPS_INV, RF_ONE, RF_ZERO, RFun, poly

from conftest import exact_det, identity_matrix, largest_nonzero_minor, leibniz_det


def test_upper_inverse_random():
    for seed in range(10):
        g = random_borel(5, seed)
        assert mat_mul(g, upper_inverse(g)) == identity_matrix(5)
        assert mat_mul(upper_inverse(g), g) == identity_matrix(5)


def test_upper_inverse_over_function_field():
    g = (
        (RF_ONE, EPS, RFun(poly(0))),
        (RFun(poly(0)), EPS, RF_ONE),
        (RFun(poly(0)), RFun(poly(0)), EPS),
    )
    inv = upper_inverse(g)
    assert mat_mul(g, inv) == identity_matrix(3, like=RF_ONE)


def test_upper_inverse_requires_unit_diagonal():
    with pytest.raises(NotInvertibleError):
        upper_inverse(((Fraction(0),),))


@pytest.mark.parametrize(
    "a, b",
    [
        (((1, 2),), ((1,),)),  # 1x2 times 1x1
        (((1,), (1, 2)), ((1,),)),  # ragged left factor
        (((1, 1),), ((1,), (1, 2))),  # ragged right factor
        (((1,),), ()),  # 1x1 times 0x0
    ],
)
def test_mat_mul_rejects_mismatched_shapes(a, b):
    with pytest.raises(SizeMismatchError):
        mat_mul(a, b)


def dense_mat_mul(a, b):
    """Oracle: every term of every entry, summed from int 0."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def dense_upper_inverse(g):
    """Oracle: back substitution over every term."""
    n = len(g)
    zero = RF_ZERO if isinstance(g[0][0], RFun) else Fraction(0)
    inv = [[zero] * n for _ in range(n)]
    for j in range(n - 1, -1, -1):
        inv[j][j] = 1 / g[j][j]
        for i in range(j - 1, -1, -1):
            acc = sum(g[i][k] * inv[k][j] for k in range(i + 1, j + 1))
            inv[i][j] = -acc / g[i][i]
    return tuple(tuple(row) for row in inv)


def same_entries(m, oracle):
    """Equal entry by entry, and each entry of the same type."""
    return m == oracle and all(
        type(x) is type(y) for row, orow in zip(m, oracle) for x, y in zip(row, orow)
    )


# mostly 0 and 1, as in the degeneration curves, with a few other values
FRACTION_ENTRIES = [Fraction(0)] * 5 + [Fraction(1)] * 3 + [Fraction(-1), Fraction(2, 3)]
RFUN_ENTRIES = [RF_ZERO] * 5 + [RF_ONE] * 3 + [EPS, -EPS_INV, EPS - EPS_INV]


@st.composite
def square_pairs(draw):
    """(a, b, g): two square matrices and an invertible upper-triangular
    one, all n x n over one field, Q or Q(eps)."""
    n = draw(st.integers(1, 5))
    entries = draw(st.sampled_from([FRACTION_ENTRIES, RFUN_ENTRIES]))
    pick = st.sampled_from(entries)
    nonzero = st.sampled_from([x for x in entries if x])

    def square():
        return tuple(tuple(draw(pick) for _ in range(n)) for _ in range(n))

    a, b = square(), square()
    zero = entries[0]
    g = tuple(
        tuple(draw(nonzero) if r == c else draw(pick) if r < c else zero for c in range(n))
        for r in range(n)
    )
    return a, b, g


@settings(max_examples=200, deadline=None)
@given(square_pairs())
def test_sparse_products_match_the_dense_route(matrices):
    a, b, g = matrices
    assert same_entries(mat_mul(a, b), dense_mat_mul(a, b))
    assert same_entries(upper_inverse(g), dense_upper_inverse(g))


def test_shape_predicates():
    lower = ((0, 0), (1, 0))
    assert is_strictly_lower(promote(lower))
    assert not is_upper_triangular(promote(lower))
    assert is_upper_triangular(identity_matrix(3))
    taken = strictly_lower_part(promote(((1, 2), (3, 4))))
    assert taken == ((Fraction(0), Fraction(0)), (Fraction(3), Fraction(0)))


def test_exact_det():
    assert exact_det(((0, 1), (1, 0))) == -1
    assert exact_det(((1, 2), (2, 4))) == 0
    assert exact_det(((2, 0, 0), (0, 3, 0), (0, 0, 4))) == 24
    assert exact_det(((Fraction(1, 2), 0), (0, Fraction(2, 3)))) == Fraction(1, 3)
    assert exact_det(()) == 1
    with pytest.raises(SizeMismatchError):
        exact_det(((1, 2),))


_I2 = ((1, 0), (0, 1))
_I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_LAM3 = ((0, 0, 0), (1, 0, 0), (0, 1, 0))
_RAGGED = ((0, 0), (1, 0, 0))


def test_square_size():
    assert square_size(_I3, _LAM3) == 3
    assert square_size(()) == 0
    for bad in ((_I2, _LAM3), (_RAGGED,), (((1, 2),),)):
        with pytest.raises(SizeMismatchError):
            square_size(*bad)


# each call once answered or failed with IndexError on these shapes
@pytest.mark.parametrize(
    "call",
    [
        lambda: act(_I2, _LAM3),
        lambda: act(_I3, ((0, 0), (1, 0))),
        lambda: upper_inverse(((1, 2), (0,))),
        lambda: rank_profile(_RAGGED),
        lambda: z_contains(z_spec(parse_involution("(2,1)", 2)), _RAGGED),
    ],
    ids=["act-small-g", "act-small-lam", "upper_inverse", "rank_profile", "z_contains"],
)
def test_ragged_or_mismatched_shapes_raise(call):
    with pytest.raises(SizeMismatchError):
        call()


def test_exact_det_stays_in_the_entry_field():
    # over Q(eps) the determinant is a rational function, zero included
    assert exact_det(((EPS, RF_ONE), (RF_ONE, EPS))) == EPS * EPS - RF_ONE
    assert exact_det(((EPS, EPS), (RF_ONE, RF_ONE))) == RF_ZERO
    assert isinstance(exact_det(((EPS, EPS), (RF_ONE, RF_ONE))), RFun)


@pytest.mark.parametrize(
    "fn, m",
    [
        (lambda m: mat_mul(m, m), ((0, 1), (EPS, 0))),
        (upper_inverse, ((1, EPS), (0, 1))),
        (strictly_lower_part, ((1, 0), (EPS, 0))),
        (lambda m: ((exact_det(m),),), ((1, EPS), (0, 1))),
    ],
    ids=["mat_mul", "upper_inverse", "strictly_lower_part", "exact_det"],
)
def test_one_rfun_entry_puts_the_whole_matrix_over_qeps(fn, m):
    # the top-left entry is a rational; the RFun elsewhere decides the field
    assert {type(x) for row in fn(promote(m)) for x in row} == {RFun}


def test_non_field_inputs_are_rejected():
    with pytest.raises(NotAFieldError):
        promote(((0.5,),))
    # a float entry of g must not leak into the acted functional
    with pytest.raises(NotAFieldError):
        act(((1, 0), (0, 2.0)), ((0, 0), (1, 0)))


int_matrices = st.integers(1, 4).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
        min_size=1,
        max_size=4,
    )
)


def gf_rank(matrix, q):
    """Rank over GF(q) through the oracle's corner table: pad to a square
    and read the corner spanning the whole matrix."""
    k, m = len(matrix), len(matrix[0])
    s = max(k, m)
    square = [[x % q for x in row] + [0] * (s - m) for row in matrix]
    square += [[0] * s for _ in range(s - k)]
    return _corner_rank_table_gf(square, s, q)[(k - 1) * s + (m - 1)]


@settings(max_examples=300, deadline=None)
@given(matrix=int_matrices, q=st.sampled_from([None, 3, 5]))
@example(matrix=[[1, 2], [2, 4]], q=None)
@example(matrix=[[1, 1], [1, 4]], q=3)
@example(matrix=[[0, 1, 0], [0, 0, 1], [1, 0, 0]], q=None)
def test_kernel_matches_minor_and_leibniz_oracles(matrix, q):
    rank = exact_rank(matrix) if q is None else gf_rank(matrix, q)
    assert rank == largest_nonzero_minor(matrix, q)
    k = min(len(matrix), len(matrix[0]))
    block = [row[:k] for row in matrix[:k]]
    # the determinant commutes with reduction mod q
    det = exact_det(block) if q is None else exact_det(block) % q
    assert det == leibniz_det(block, q)


def test_bit_row_tables_equal_gf2_tables():
    n = 3
    for code in range(2 ** (n * n)):
        rows = [[code >> (n * r + c) & 1 for c in range(n)] for r in range(n)]
        bits = tuple(sum(x << c for c, x in enumerate(row)) for row in rows)
        assert _corner_rank_table_bits(bits, n) == _corner_rank_table_gf(rows, n, 2)


def test_integer_rows_stay_integers():
    # int rows used to be divided with /, storing 0.0 and -0.5
    basis: list = []
    _fraction_free_insert(basis, [2, 1])
    _fraction_free_insert(basis, [3, 1])
    assert basis == [(0, [2, 1]), (1, [0, -1])]
    assert all(type(x) is int for _, row in basis for x in row)


@settings(max_examples=300, deadline=None)
@given(matrix=int_matrices)
@example(matrix=[[2, 1], [3, 1]])
# the pivot of the first row lies right of an entry of the second: the
# whole row must be scaled, not the part from the pivot column on
@example(matrix=[[0, 2, 1, 1], [1, 1, 1, 1]])
# the content of the whole row is 1, that of its part from column 1 on 2
@example(matrix=[[0, 1, 1], [1, 2, 4]])
def test_fraction_free_rows_are_multiples_of_the_field_rows(matrix):
    int_basis: list = []
    field_basis: list = []
    for row in matrix:
        _fraction_free_insert(int_basis, list(row))
        _field_insert(field_basis, [Fraction(x) for x in row])
    assert len(int_basis) == len(field_basis) == exact_rank(matrix)
    for (col, row), (field_col, field_row) in zip(int_basis, field_basis):
        assert col == field_col
        assert all(type(x) is int for x in row)
        # proportional, the pivots giving the ratio
        assert all(x * field_row[col] == y * row[col] for x, y in zip(row, field_row))


@pytest.mark.parametrize(
    "matrix, expected",
    [
        (((1, 2), (3, 4)), ((1, 2), (3, 4))),
        (((Fraction(1, 2), 0), (Fraction(-2, 3), 1)), ((3, 0), (-4, 6))),
        (((Fraction(4), True),), ((4, 1),)),
        ((), ()),
    ],
)
def test_integral_multiple_of_rational_matrices(matrix, expected):
    result = integral_multiple(matrix)
    assert result == expected
    assert all(type(x) is int for row in result for x in row)


def test_integral_multiple_keeps_qeps_and_rejects_floats():
    # an RFun entry keeps the field route: the matrix is promoted as it was
    assert same_entries(integral_multiple(((1, EPS),)), promote(((1, EPS),)))
    with pytest.raises(NotAFieldError):
        integral_multiple(((1, 0.5),))
