from fractions import Fraction
from math import lcm

import pytest
from conftest import (
    ORBIT_EXAMPLES,
    SingularElementError,
    columns_of,
    delta_minors,
    delta_scan_bracket_matrix,
    dense_act_word,
    diagonal_weights,
    explicit_closed_form,
    field_rank_profile,
    forward_substitution_numerator,
    identity_matrix,
    lower_entries,
    orbit_functional,
    prefix_corner_ranks,
    randint_borel,
    rook_matrix_lower,
    strictly_lower,
    upper,
    x_elem,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borbits import (
    Arc,
    act,
    apply_move,
    degeneration,
    degeneration_closed_form,
    enumerate_involutions,
    identity_involution,
    length,
    longest_involution,
    near_moves,
    orbit_dimension,
    orbit_point,
    parse_involution,
    random_borel,
    rank_profile,
    star_rank_matrix,
    to_permutation,
)
from borbits.closure import _z_point, z_point
from borbits.errors import (
    IndexOutOfRangeError,
    LimitUndefinedError,
    MissingArcError,
    NotAFieldError,
    MoveNotApplicableError,
    NotStrictlyLowerError,
    NotUpperTriangularError,
    NotInvertibleError,
    SizeMismatchError,
    ZeroXiError,
)
from borbits.matrices import integral_multiple, mat_mul
from borbits import moves, orbits, rankorder
from borbits.moves import Move
from borbits.orbits import _act_numerator, _act_word, _random_borel_int
from borbits.rankorder import _strict_ranks
from borbits.cli import main
from borbits.suites import _orbit_samples, run_suite
from borbits.ratfunc import EPS, EPS_INV, RF_ONE, RF_ZERO, RFun


def test_x_elem_examples():
    assert x_elem(2, 1, 2, 5) == ((1, 5), (0, 1))
    assert x_elem(2, 1, 1, 0) == identity_matrix(2)
    assert x_elem(2, 1, 1, EPS) == ((RF_ONE + EPS, RFun(())), (RFun(()), RF_ONE))
    with pytest.raises(SingularElementError):
        x_elem(3, 2, 2, -1)


@pytest.mark.parametrize("alpha", [0.1, 1.0, "1", None])
def test_x_elem_rejects_non_field_parameters(alpha):
    with pytest.raises(NotAFieldError):
        x_elem(2, 1, 2, alpha)


@pytest.mark.parametrize(
    "args",
    [(2.0, 1, 1, 1), (2, 1.0, 2, 1), (2, 1, 2.0, 1), (True, 1, 1, 1)],
    ids=["float-size", "float-row", "float-column", "bool-size"],
)
def test_x_elem_rejects_non_int_size_and_indices(args):
    # a float would fail inside range or list indexing; a bool would
    # pass as the size 1
    with pytest.raises(IndexOutOfRangeError):
        x_elem(*args)


def test_act_identity_and_validation():
    lam = orbit_point(parse_involution("(3,1)", 3))
    assert act(identity_matrix(3), lam) == lam
    with pytest.raises(NotUpperTriangularError):
        act(((1, 0), (1, 1)), ((0, 0), (1, 0)))
    with pytest.raises(NotStrictlyLowerError):
        act(identity_matrix(2), identity_matrix(2))
    with pytest.raises(NotInvertibleError):
        act(((0, 0), (0, 1)), ((0, 0), (1, 0)))


H = Fraction(1, 2)


@pytest.mark.parametrize(
    "g, lam, error",
    [
        (((H, H), (0, 0)), ((0, 0), (H, 0)), NotInvertibleError),
        (((H, 0), (H, H)), ((0, 0), (H, 0)), NotUpperTriangularError),
        (((H, H), (0, H)), ((0, H), (H, 0)), NotStrictlyLowerError),
        (((H, H), (0, H)), ((H, 0), (H, 0)), NotStrictlyLowerError),
        (((0.5, 0), (0, 1)), ((0, 0), (1, 0)), NotAFieldError),
        (((1, 0), (0, 1)), ((0, 0), (0.5, 0)), NotAFieldError),
    ],
)
def test_act_rejects_bad_rational_input(g, lam, error):
    with pytest.raises(error):
        act(g, lam)


def test_act_on_the_empty_matrix():
    assert act((), ()) == ()


# negative non-unit diagonal and denominators above 1 throughout
_HARD_G = (
    (Fraction(-2, 3), Fraction(5, 4), Fraction(-7, 2)),
    (Fraction(0), Fraction(-5, 2), Fraction(1, 6)),
    (Fraction(0), Fraction(0), Fraction(-3, 5)),
)
_HARD_LAM = (
    (Fraction(0), Fraction(0), Fraction(0)),
    (Fraction(3, 4), Fraction(0), Fraction(0)),
    (Fraction(-1, 6), Fraction(9, 2), Fraction(0)),
)


@settings(max_examples=200, deadline=None)
@given(
    pair=st.integers(0, 6).flatmap(lambda n: st.tuples(upper(n), strictly_lower(n)))
)
@example(pair=(_HARD_G, _HARD_LAM))
def test_act_integer_route_matches_field_route(pair):
    g, lam = pair
    # conjugation does not see the scale of g, and act promotes int entries
    result = act(g, lam)
    assert result == act(integral_multiple(g), lam)
    assert all(type(x) is Fraction for row in result for x in row)


@settings(max_examples=100, deadline=None)
@given(
    triple=st.integers(0, 5).flatmap(
        lambda n: st.tuples(upper(n), upper(n), strictly_lower(n))
    )
)
def test_action_law_over_q(triple):
    g, h, lam = triple
    assert act(g, act(h, lam)) == act(mat_mul(g, h), lam)


@settings(max_examples=100, deadline=None)
@given(
    pair=st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.sampled_from(enumerate_involutions(n)),
            upper(n, st.integers(-50, 50), st.integers(-50, 50).filter(bool)),
        )
    )
)
def test_rank_profile_invariant_under_integer_borel(pair):
    sigma, g = pair
    assert rank_profile(act(g, orbit_point(sigma))) == star_rank_matrix(sigma)


@settings(max_examples=200, deadline=None)
@given(
    pair=st.integers(0, 6).flatmap(lambda n: st.tuples(upper(n), strictly_lower(n)))
)
@example(pair=(_HARD_G, _HARD_LAM))
def test_act_numerator_over_d_det_is_the_field_route(pair):
    g, lam = pair
    # a g and d lam are integral; the numerator of the pair is d det(a g) act(g, lam)
    d = lcm(*(x.denominator for row in lam for x in row))
    m, det = _act_numerator(columns_of(integral_multiple(g)), lower_entries(integral_multiple(lam)))
    assert type(det) is int and all(type(x) is int for row in m for x in row)
    divided = tuple(tuple(Fraction(x, d * det) for x in row) for row in m)
    assert divided == act(g, lam)


_INT_ENTRIES = st.integers(-7, 7)


@st.composite
def int_action_pair(draw):
    """(g, lam) in ints, n <= 7: g upper triangular with a nonzero
    diagonal of either sign, lam the weighted rook matrix of an
    involution or a dense strictly lower matrix."""
    n = draw(st.integers(0, 7))
    g = draw(upper(n, _INT_ENTRIES, _INT_ENTRIES.filter(bool)))
    if not n or draw(st.booleans()):
        lam = draw(strictly_lower(n, _INT_ENTRIES))
    else:
        sigma = draw(st.sampled_from(enumerate_involutions(n)))
        weights = {(arc.i, arc.j): draw(_INT_ENTRIES.filter(bool)) for arc in sigma.arcs}
        lam = tuple(
            tuple(weights.get((r, c), 0) for c in range(1, n + 1)) for r in range(1, n + 1)
        )
    return g, lam


@settings(max_examples=300, deadline=None)
@given(pair=int_action_pair())
@example(pair=(((-2, 3, 1), (0, 3, -1), (0, 0, -5)), ((0, 0, 0), (4, 0, 0), (-1, 6, 0))))
def test_act_numerator_is_the_forward_substitution(pair):
    # the adjugate rows at lam's columns against m g = det(g) g lam, with
    # lam's entries in either order
    g, lam = pair
    expected = forward_substitution_numerator(g, lam)
    entries = lower_entries(lam)
    assert _act_numerator(columns_of(g), entries) == expected
    assert _act_numerator(columns_of(g), entries[::-1]) == expected


def test_act_numerator_checks_every_division():
    # a g whose adjugate is not integral, here by a Fraction above the
    # diagonal, leaves a remainder, which both routes raise on
    g = ((1, Fraction(1, 2), 0), (0, 1, 0), (0, 0, 1))
    lam = ((0, 0, 0), (0, 0, 0), (1, 0, 0))
    with pytest.raises(ArithmeticError, match="not divisible"):
        _act_numerator(columns_of(g), lower_entries(lam))
    with pytest.raises(ArithmeticError, match="not divisible"):
        forward_substitution_numerator(g, lam)


@settings(max_examples=200, deadline=None)
@given(
    case=st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.one_of(strictly_lower(n, _INT_ENTRIES), orbit_functional(n)),
            st.sets(st.sampled_from([(r, s) for r in range(1, n + 1) for s in range(1, r)]))
            if n > 1
            else st.just(set()),
        )
    )
)
def test_z_point_at_some_cells_reads_the_full_support_there(case):
    lam, cells = case
    a = integral_multiple(lam)
    n, ranks, support = _z_point(a)
    assert _z_point(a, frozenset(cells)) == (n, ranks, support & cells)
    assert _z_point(a, frozenset()) == (n, ranks, frozenset())


@settings(max_examples=200, deadline=None)
@given(
    lam=st.integers(1, 6).flatmap(
        lambda n: st.one_of(strictly_lower(n), orbit_functional(n))
    )
)
@example(lam=ORBIT_EXAMPLES[0][1])
@example(lam=ORBIT_EXAMPLES[1][1])
def test_rank_profile_integer_route_matches_field_route(lam):
    profile = rank_profile(lam)
    assert profile == field_rank_profile(lam)
    assert all(type(x) is int for row in profile.rows for x in row)
    # the integral multiple has the same profile, ranked as it is
    assert rank_profile(integral_multiple(lam)) == profile


# inputs that have no strict corner ranks, with the error raised
_NOT_FUNCTIONALS = pytest.mark.parametrize(
    "lam, error",
    [
        (((0, 0), (1,)), SizeMismatchError),
        (((0, 0, 0), (1, 0, 0)), SizeMismatchError),
        (((0, 0), (0.5, 0)), NotAFieldError),
        (((0, 0), (1, 1)), NotStrictlyLowerError),
        (((0, H), (1, 0)), NotStrictlyLowerError),
    ],
    ids=["ragged", "2x3", "float", "diagonal", "above"],
)


@_NOT_FUNCTIONALS
def test_rank_profile_rejects_what_corner_ranks_rejects(lam, error):
    with pytest.raises(error):
        rank_profile(lam)


@_NOT_FUNCTIONALS
def test_z_point_rejects_what_corner_ranks_rejects(lam, error):
    with pytest.raises(error):
        z_point(lam)
    with pytest.raises(error):
        z_point(lam, 2)
    # past a float, a size other than n is named first
    with pytest.raises(NotAFieldError if error is NotAFieldError else SizeMismatchError):
        z_point(lam, 3)


def test_integer_sampler_is_the_stream_of_random_borel():
    for n, seed, bound in ((1, 0, 3), (4, 7, 3), (6, 123, 5), (5, 3, 1)):
        ints = _random_borel_int(n, seed, bound)
        assert all(type(x) is int for column in ints for x in column)
        fractions = random_borel(n, seed, bound)
        assert columns_of(fractions) == ints
        assert fractions == randint_borel(n, seed, bound)
        assert all(type(x) is Fraction for row in fractions for x in row)


def test_integer_sampler_draws_the_randint_stream():
    for n in range(1, 8):
        for seed in (0, 1, 7, 123, 10**6 + 3):
            for bound in (1, 3, 5):
                assert _random_borel_int(n, seed, bound) == columns_of(
                    randint_borel(n, seed, bound)
                )


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 8),
    bound=st.integers(1, 7),
    seed=st.one_of(
        st.just(0), st.integers(max_value=-1), st.integers(min_value=2**64), st.integers(1, 2**64)
    ),
)
def test_integer_sampler_is_the_randint_draw_of_any_seed(n, bound, seed):
    # randint draws getrandbits(k), k the bit length of its range, until a
    # draw falls inside it; the sampler repeats that on the C base class of
    # random.Random, which seeds by the absolute value, of any size
    assert _random_borel_int(n, seed, bound) == columns_of(randint_borel(n, seed, bound))


def test_unchecked_kernels_match_the_checked_routes_on_orbit_samples():
    # the suites rank _act_numerator's points with the kernels alone
    for n in range(1, 7):
        for index, sigma in enumerate(enumerate_involutions(n)):
            base = rook_matrix_lower(sigma)
            for sample_seed, point in _orbit_samples(n, 0, 10, index, sigma):
                numerator, det = _act_numerator(
                    _random_borel_int(n, sample_seed), lower_entries(base)
                )
                assert numerator == point
                # the column gather against the dense field route
                acted = act(random_borel(n, sample_seed), base)
                assert tuple(tuple(x * det for x in row) for row in acted) == point
                profile = rank_profile(point)
                assert _strict_ranks(point, n) == profile.cells
                assert profile.rows == prefix_corner_ranks(point, strict=True)
                assert _z_point(point) == z_point(point, n) == z_point(acted, n)


def test_act_unchanged_2x2_example():
    g = x_elem(2, 1, 2, 1)
    lam = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
    assert act(g, lam) == lam


def test_diagonal_action_gives_weighted_point():
    sigma = parse_involution("(3,1)(5,2)", 5)
    d = tuple(
        tuple(Fraction(v if r == c else 0) for c in range(5))
        for r, v in enumerate((2, 3, 5, 1, 7))
    )
    weights = diagonal_weights(sigma, d)
    assert weights == {Arc(3, 1): Fraction(5, 2), Arc(5, 2): Fraction(7, 3)}
    assert act(d, orbit_point(sigma)) == orbit_point(sigma, weights)


def test_orbit_point_examples():
    sigma = parse_involution("(3,1)(5,2)", 5)
    weighted = orbit_point(sigma, {Arc(3, 1): Fraction(2), Arc(5, 2): Fraction(-1)})
    assert weighted[2][0] == 2 and weighted[4][1] == -1
    assert orbit_point(identity_involution(3)) == tuple(
        (Fraction(0),) * 3 for _ in range(3)
    )
    with pytest.raises(MissingArcError):
        orbit_point(sigma, {Arc(3, 1): Fraction(1)})
    with pytest.raises(ZeroXiError):
        orbit_point(sigma, {Arc(3, 1): Fraction(0), Arc(5, 2): Fraction(1)})


def test_orbit_point_rejects_a_weight_off_the_arcs():
    sigma = parse_involution("(3,1)", 3)
    with pytest.raises(MissingArcError, match=r"Arc\(i=2, j=1\)"):
        orbit_point(sigma, {Arc(3, 1): 1, Arc(2, 1): 7})


def test_unweighted_orbit_point_shares_its_zero_and_one():
    sigma = parse_involution("(3,1)(5,2)", 5)
    lam = orbit_point(sigma)
    assert len({id(x) for row in lam for x in row}) == 2
    assert all(type(x) is Fraction for row in lam for x in row)
    assert lam == rook_matrix_lower(sigma)


def test_float_weights_are_rejected():
    sigma = parse_involution("(3,1)", 3)
    with pytest.raises(NotAFieldError):
        orbit_point(sigma, {Arc(3, 1): 0.1})
    d = ((Fraction(2), 0, 0), (0, Fraction(1), 0), (0, 0, 1.5))
    with pytest.raises(NotAFieldError):
        act(d, orbit_point(sigma))
    # int and Fraction diagonals still give exact weights
    d = ((2, 0, 0), (0, 1, 0), (0, 0, Fraction(3)))
    assert act(d, orbit_point(sigma)) == orbit_point(sigma, {Arc(3, 1): Fraction(3, 2)})


@pytest.mark.parametrize(
    "d, error",
    [
        (((2, 0), (0, 1)), SizeMismatchError),
        (((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 3, 0), (0, 0, 0, 5)), SizeMismatchError),
        (((2, 0, 0), (0, 1, 0)), SizeMismatchError),
        (((2, 0, 0), (0, 1, 0), (0, 0, 0)), NotInvertibleError),
        (((0, 0, 0), (0, 1, 0), (0, 0, 3)), NotInvertibleError),
    ],
    ids=["smaller", "larger", "ragged", "zero-d_i", "zero-d_j"],
)
def test_diagonal_weights_reject_a_wrong_size_or_a_zero_diagonal(d, error):
    # sigma = (3,1): weight d_3 / d_1, read off the torus action, which
    # rejects a d of the wrong size or with a zero on its diagonal
    with pytest.raises(error):
        act(d, orbit_point(parse_involution("(3,1)", 3)))


def test_diagonal_weights_reject_an_entry_off_the_diagonal():
    # act(d, .) of this d is no weighted base point of (3,1): the entry
    # at (1, 2) moves weight off the arc, so no weights describe it
    sigma = parse_involution("(3,1)", 3)
    d = ((2, 5, 0), (0, 1, 0), (0, 0, 3))
    acted = act(d, orbit_point(sigma))
    assert acted[2][1] == Fraction(-15, 2)
    assert acted != orbit_point(sigma, diagonal_weights(sigma, d))
    lower = ((2, 0, 0), (0, 1, 0), (Fraction(1, 2), 0, 3))
    with pytest.raises(NotUpperTriangularError):
        act(lower, orbit_point(sigma))


def test_action_law():
    lam = orbit_point(parse_involution("(3,1)(4,2)", 4))
    for seed in range(5):
        g = random_borel(4, seed)
        h = random_borel(4, seed + 100)
        assert act(g, act(h, lam)) == act(mat_mul(g, h), lam)


def test_rank_profile_of_base_point_is_star_matrix():
    for n in range(1, 6):
        for sigma in enumerate_involutions(n):
            assert rank_profile(orbit_point(sigma)) == star_rank_matrix(sigma)


def test_rank_invariance_sample():
    for n in range(2, 5):
        for sigma in enumerate_involutions(n):
            base = orbit_point(sigma)
            expect = star_rank_matrix(sigma)
            for seed in range(10):
                assert rank_profile(act(random_borel(n, seed), base)) == expect


def test_orbit_dimension_examples():
    assert orbit_dimension(parse_involution("(2,1)", 2)) == 1
    assert orbit_dimension(identity_involution(4)) == 0
    assert orbit_dimension(parse_involution("(3,1)", 3)) == 3


def test_orbit_dimension_equals_length_small():
    for n in range(1, 6):
        for sigma in enumerate_involutions(n):
            assert orbit_dimension(sigma) == length(to_permutation(sigma))


def test_bracket_matrices_are_the_delta_scan(monkeypatch):
    # the matrix ranked for each sigma up to S_7, entry for entry, zero
    # rows included, against the one that tests every cell
    ranked = []

    def keep(matrix):
        ranked.append(matrix)
        return rankorder.exact_rank(matrix)

    monkeypatch.setattr(orbits, "exact_rank", keep)
    for n in range(1, 8):
        for sigma in enumerate_involutions(n):
            orbit_dimension(sigma)
            built = ranked.pop()
            assert all(type(x) is int for row in built for x in row)
            assert tuple(map(tuple, built)) == delta_scan_bracket_matrix(sigma)


def test_delta_minors_examples():
    assert delta_minors(((Fraction(0),) * 2, (Fraction(1), Fraction(0)))) == (
        Fraction(1),
    )
    w0 = longest_involution(4)
    assert delta_minors(orbit_point(w0)) == (Fraction(1), Fraction(-1))
    zero = tuple((Fraction(0),) * 4 for _ in range(4))
    assert delta_minors(zero) == (Fraction(0), Fraction(0))


def test_delta_minors_rejects_a_ragged_matrix():
    # the first minor alone would read (3,) and return (3,)
    with pytest.raises(SizeMismatchError):
        delta_minors(((1, 2), (3,)))


def test_regular_orbit_minors_stay_nonzero():
    for n in (4, 5):
        base = orbit_point(longest_involution(n))
        for seed in range(20):
            y = act(random_borel(n, seed), base)
            assert all(delta_minors(y))


def test_random_borel_contract():
    assert random_borel(4, 7) == random_borel(4, 7)
    assert random_borel(4, 7) != random_borel(4, 8)
    g = random_borel(5, 3, bound=1)
    for r in range(5):
        assert g[r][r] == 1
        for c in range(r + 1, 5):
            assert g[r][c] in (Fraction(-1), Fraction(0), Fraction(1))
    assert random_borel(0, 0) == ()
    with pytest.raises(IndexOutOfRangeError):
        random_borel(3, 0, bound=0)


@pytest.mark.parametrize(
    "args",
    [(3, 0, 2.5), (3, 0, True), (3, 0, 0), (3, 0, -2), (-1, 0), (3.0, 0), (True, 0),
     ("3", 0), (3, 0.5), (3, True), (3, None)],
)
def test_random_borel_rejects_bad_arguments(args):
    with pytest.raises(IndexOutOfRangeError):
        random_borel(*args)


def test_degeneration_remove_case():
    sigma = parse_involution("(2,1)", 2)
    (move,) = [m for m in near_moves(sigma) if m.kind == "remove"]
    result = degeneration(sigma, move)
    assert result.word == ((2, 2, EPS - 1),)
    assert result.curve == ((RFun(()), RFun(())), (EPS, RFun(())))
    assert result.limit == tuple((Fraction(0),) * 2 for _ in range(2))


def test_degeneration_up_case():
    sigma = parse_involution("(3,1)", 3)
    (move,) = [m for m in near_moves(sigma) if m.kind == "up"]
    result = degeneration(sigma, move)
    assert result.word == ((2, 3, EPS_INV), (3, 3, EPS - 1))
    assert result.curve[1][0] == RF_ONE and result.curve[2][0] == EPS
    assert result.limit == orbit_point(parse_involution("(2,1)", 3))


def test_degeneration_nesting_swap_example():
    sigma = parse_involution("(8,1)(3,2)(5,4)(7,6)", 8)
    move = Move("b", Arc(5, 4), (8, 1))
    result = degeneration(sigma, move)
    curve = result.curve
    assert curve[4][0] == RF_ONE and curve[7][3] == RF_ONE  # (5,1), (8,4)
    assert curve[7][0] == EPS and curve[4][3] == EPS  # (8,1), (5,4)
    assert curve[2][1] == RF_ONE and curve[6][5] == RF_ONE  # untouched arcs
    assert result.limit == orbit_point(parse_involution("(5,1)(3,2)(8,4)(7,6)", 8))


def test_degeneration_agrees_with_closed_form_small():
    for n in range(1, 5):
        for sigma in enumerate_involutions(n):
            for move in near_moves(sigma):
                result = degeneration(sigma, move)
                assert result.curve == degeneration_closed_form(sigma, move)
                assert result.limit == orbit_point(apply_move(sigma, move))


def test_closed_form_rule_is_the_per_kind_closed_form():
    # 1 on the arcs of sigma and of tau, eps at the moved arc and -eps or
    # eps at an a or b partner, against the entries written kind by kind
    kinds = set()
    for n in range(1, 8):
        for sigma in enumerate_involutions(n):
            for move, tau in moves._move_outputs(sigma).items():
                kinds.add(move.kind)
                entries = orbits._closed_form_entries(sigma, move, tau)
                assert entries == explicit_closed_form(sigma, move)
    assert kinds == {"remove", "right", "up", "a", "b", "c"}


def _product_action(n: int, word, rook) -> tuple:
    """Oracle: g as the product of the x_elem factors of word, then act."""
    g = identity_matrix(n, like=RF_ONE)
    for j, i, alpha in word:
        g = mat_mul(g, x_elem(n, j, i, alpha))
    return act(g, tuple(tuple(RFun.const(x) for x in row) for row in rook))


def _typed(m) -> list:
    return [[(type(x), x) for x in row] for row in m]


def test_factorwise_curve_is_the_action_of_the_product():
    for n in range(1, 6):
        for sigma in enumerate_involutions(n):
            rook = rook_matrix_lower(sigma)
            for move in near_moves(sigma):
                result = degeneration(sigma, move)
                expect = _product_action(n, result.word, rook)
                assert _typed(result.curve) == _typed(expect)
                assert all(type(x) is RFun for row in result.curve for x in row)
                closed_form = degeneration_closed_form(sigma, move)
                assert all(type(x) is RFun for row in closed_form for x in row)
                assert all(type(x) is Fraction for row in result.limit for x in row)


_ALPHAS = [RF_ZERO, RF_ONE, -RF_ONE, EPS, -EPS, EPS_INV, -EPS_INV, EPS - 1, EPS - EPS_INV]


@st.composite
def _words(draw, n):
    """Upper-triangular factors (j, i, alpha), j <= i, whose diagonal entry
    1 + alpha does not vanish."""
    word = []
    for _ in range(draw(st.integers(1, 4))):
        j = draw(st.integers(1, n))
        i = draw(st.integers(j, n))
        alphas = _ALPHAS if j != i else [a for a in _ALPHAS if RF_ONE + a]
        word.append((j, i, draw(st.sampled_from(alphas))))
    return tuple(word)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(2, 4))
def test_factorwise_action_of_any_word(data, n):
    sigma = data.draw(st.sampled_from(enumerate_involutions(n)))
    word = data.draw(_words(n))
    rook = rook_matrix_lower(sigma)
    curve = _act_word(word, sigma.arcs)
    # a sparse map: nonzero RFun values at strictly lower 1-based cells
    assert all(type(x) is RFun and x != RF_ZERO for x in curve.values())
    assert all(1 <= c < r <= n for r, c in curve)
    # fixed by sigma, not by the order its arcs are listed in
    assert _act_word(word, data.draw(st.permutations(sigma.arcs))) == curve
    dense = [[curve.get((r, c), RF_ZERO) for c in range(1, n + 1)] for r in range(1, n + 1)]
    assert _typed(dense) == _typed(dense_act_word(word, rook))
    assert _typed(dense) == _typed(_product_action(n, word, rook))


def test_sparse_action_drops_cancelled_entries():
    sigma = parse_involution("(3,1)", 3)
    # row 2 gets -eps, then +eps, of row 3 at (2,1); a zero factor adds 0
    for word in (((2, 3, EPS), (2, 3, -EPS)), ((2, 3, RF_ZERO),)):
        assert _act_word(word, sigma.arcs) == {(3, 1): RF_ONE}
        rook = rook_matrix_lower(sigma)
        assert dense_act_word(word, rook) == _product_action(3, word, rook)


def test_degeneration_rejects_inapplicable_move():
    sigma = parse_involution("(2,1)", 2)
    with pytest.raises(MoveNotApplicableError):
        degeneration(sigma, Move("up", Arc(2, 1)))


def test_degeneration_names_a_pole_at_zero(monkeypatch, capsys):
    # a word whose curve is 1/eps at (2,1): dividing column 1 by eps
    monkeypatch.setattr(orbits, "_word", lambda move, tau: ((1, 1, EPS - RF_ONE),))
    sigma = parse_involution("(2,1)", 2)
    with pytest.raises(LimitUndefinedError, match="pole at 0"):
        degeneration(sigma, Move("remove", Arc(2, 1)))
    # the suite's sparse route names it too, and the CLI exits 2
    with pytest.raises(LimitUndefinedError, match="pole at 0"):
        run_suite("degeneration", 2)
    assert main(["verify", "degeneration", "--n", "2"]) == 2
    assert capsys.readouterr().err == "error: pole at 0\n"


def test_second_largest_unipotent_rank_is_attained_by_swap_family():
    # exploratory, not part of acceptance: rank all values of
    # length - arc count and locate the prescribed swap involutions
    for n in range(4, 7):
        values = sorted(
            {
                length(to_permutation(s)) - len(s.arcs)
                for s in enumerate_involutions(n)
            },
            reverse=True,
        )
        second = values[1]
        half = n // 2
        w0 = longest_involution(n)
        for j in range(1, half):
            pairs = [
                (i, k)
                for (i, k) in w0.arcs
                if (i, k) not in ((n - j + 1, j), (n - j, j + 1))
            ]
            pairs += [(n - j + 1, j + 1), (n - j, j)]
            from borbits import involution

            swapped = involution(n, pairs)
            assert length(to_permutation(swapped)) - len(swapped.arcs) == second
