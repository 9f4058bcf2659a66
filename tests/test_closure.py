import itertools
import time
from fractions import Fraction
from operator import le

import pytest
from conftest import (
    ORBIT_EXAMPLES,
    delta_minors,
    field_z_contains,
    nonzero_rationals,
    orbit_functional,
    permutation_matrix,
    rotate90,
    scan_bounds_imply_all,
    scan_quadric_cells,
    square_entry,
    trial_division_is_prime,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borbits import (
    Arc,
    Permutation,
    act,
    bruhat_rank_matrix,
    complement_permutation,
    degeneration,
    enumerate_involutions,
    essential_reduction_check,
    essential_set,
    identity_involution,
    is_chain,
    length,
    leq_star,
    longest_involution,
    maximal_support,
    near_moves,
    orbit_point,
    parse_involution,
    quadric_cells,
    random_borel,
    rank_profile,
    rothe_diagram,
    to_permutation,
    z_contains,
    z_spec,
)
from borbits.closure import (
    ESSENTIAL_MAX_N,
    members,
    z_point,
    _all_corner_rank_tables,
    _bounds_imply_all,
    _cell_sets,
    _is_prime,
    _partial_permutation_tables,
)
from borbits.errors import (
    NotAFieldError,
    NotChainError,
    NotStrictlyLowerError,
    SizeMismatchError,
    TooLargeError,
)
from borbits.matrices import integral_multiple
from borbits.moves import phi_lt
from borbits.rankorder import exact_rank
from borbits.suites import _orbit_samples


def test_maximal_support_examples():
    sigma = parse_involution("(5,1)(7,3)(6,4)", 8)
    assert maximal_support(sigma) == {Arc(5, 1), Arc(7, 3)}
    assert maximal_support(longest_involution(6)) == {Arc(6, 1)}
    assert maximal_support(identity_involution(5)) == frozenset()


def test_quadric_cells_example():
    sigma = parse_involution("(5,1)(7,3)(6,4)", 8)
    assert quadric_cells(sigma) == {(6, 1), (7, 1), (8, 1), (7, 2), (8, 2), (8, 3)}
    assert quadric_cells(longest_involution(8)) == frozenset()
    assert quadric_cells(identity_involution(4)) == frozenset()


def test_quadric_cells_upward_closed():
    for n in range(1, 7):
        for sigma in enumerate_involutions(n):
            cells = quadric_cells(sigma)
            for cell in cells:
                for r in range(2, n + 1):
                    for s in range(1, r):
                        if phi_lt(cell, (r, s)):
                            assert (r, s) in cells


def test_quadric_cells_match_the_scan_oracle():
    for n in range(1, 9):
        for sigma in enumerate_involutions(n):
            assert quadric_cells(sigma) == scan_quadric_cells(sigma), sigma


def test_gamma_examples():
    # gamma_{r,s} = (A^2)_{r,s}, the quadrics of the variety
    zero = tuple((Fraction(0),) * 3 for _ in range(3))
    assert square_entry(zero, 3, 1) == 0
    chain = (
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
    )
    assert square_entry(chain, 3, 1) == 1
    for sigma in enumerate_involutions(5):
        base = orbit_point(sigma)
        for r in range(2, 6):
            for s in range(1, r):
                assert square_entry(base, r, s) == 0


def test_z_contains_base_and_orbit_points():
    for n in range(2, 5):
        for sigma in enumerate_involutions(n):
            spec = z_spec(sigma)
            base = orbit_point(sigma)
            assert z_contains(spec, base)
            for seed in range(8):
                assert z_contains(spec, act(random_borel(n, seed), base))


def test_z_contains_order_compatibility():
    # the literal cell containment quadric_cells(sigma) <= quadric_cells(tau)
    # fails (sigma=(2,1)(4,3), tau=(2,1), cell (4,2)); what membership needs
    # is that every comparable tau has vanishing rank bounds on sigma's
    # quadric cells, and that holds.
    from borbits import star_rank_matrix

    for n in range(2, 6):
        elements = enumerate_involutions(n)
        for sigma in elements:
            spec = z_spec(sigma)
            cells = quadric_cells(sigma)
            assert all(
                star_rank_matrix(sigma).entry(r, s) == 0 for r, s in cells
            )
            for tau in elements:
                if leq_star(tau, sigma):
                    assert z_contains(spec, orbit_point(tau))
                    assert all(
                        star_rank_matrix(tau).entry(r, s) == 0 for r, s in cells
                    )


def test_z_contains_rejects_bigger_rank():
    small = parse_involution("(2,1)", 3)
    big = parse_involution("(3,1)", 3)
    assert not z_contains(z_spec(small), orbit_point(big))
    with pytest.raises(NotStrictlyLowerError):
        z_contains(z_spec(small), ((Fraction(1),) * 3,) * 3)


def test_z_contains_error_order():
    spec = z_spec(parse_involution("(2,1)", 2))
    # a float is named first, even in a ragged matrix of the wrong size
    with pytest.raises(NotAFieldError):
        z_contains(spec, ((0, 0, 0), (1.0, 0)))
    # a ragged matrix, even one with an entry on the diagonal
    with pytest.raises(SizeMismatchError):
        z_contains(spec, ((1, 0), (1,)))
    # a wrong size, even for a matrix that is not strictly lower either
    with pytest.raises(SizeMismatchError):
        z_contains(spec, ((1, 0, 0), (0, 0, 0), (0, 0, 0)))
    # the right size with an entry on or above the diagonal
    for bad in (((1, 0), (0, 0)), ((0, Fraction(1, 2)), (0, 0))):
        with pytest.raises(NotStrictlyLowerError):
            z_contains(spec, bad)
    # a point of the wrong size against a variety
    with pytest.raises(SizeMismatchError):
        spec.contains(z_point(((0, 0, 0), (1, 0, 0), (0, 1, 0))))


def test_contains_rejects_a_point_without_n_squared_ranks():
    # zipped with the bounds, a short rank tuple used to pass vacuously
    sigma = parse_involution("(3,1)", 3)
    spec = z_spec(sigma)
    n, ranks, support = z_point(orbit_point(sigma))
    assert spec.contains((n, ranks, support))
    for bad in (b"", ranks[:-1], ranks + b"\0"):
        with pytest.raises(SizeMismatchError):
            spec.contains((n, bad, support))
    with pytest.raises(SizeMismatchError):
        spec.contains((3, (), frozenset()))


@pytest.mark.parametrize(
    "a, n, error",
    [
        (((1, 0, 0), (0, 0, 0), (0, 0, 0)), 2, SizeMismatchError),
        (((0, 0), (1,)), 3, SizeMismatchError),
        (((0, 0), (1, 0)), 3, SizeMismatchError),
        (((0.5, 0), (1, 0)), 3, NotAFieldError),
        (((0, 0), (1, 0, 0)), 2, SizeMismatchError),
        (((0, 1), (1, 0)), 2, NotStrictlyLowerError),
        (((0, 1), (1, 0)), None, NotStrictlyLowerError),
    ],
    ids=["not-lower", "ragged", "smaller", "float", "ragged-right-count", "above", "no-n"],
)
def test_z_point_names_a_size_mismatch_first(a, n, error):
    # past a float, a size other than n comes before the checks of
    # rank_profile: the shape of each row and the strict lower triangle
    with pytest.raises(error):
        z_point(a, n)


def test_orbit_points_of_incomparable_pairs_escape_the_variety():
    # the negative half of the closure statement: for tau not <=* sigma,
    # tau's first sampled orbit point, as the closure suite draws it at
    # seed 0, lies outside Z_sigma
    for n in range(1, 7):
        elements = enumerate_involutions(n)
        points = [
            z_point(next(_orbit_samples(n, 0, 1, index, tau))[1], n)
            for index, tau in enumerate(elements)
        ]
        pairs = 0
        for sigma in elements:
            spec = z_spec(sigma)
            for tau, point in zip(elements, points):
                if not leq_star(tau, sigma):
                    pairs += 1
                    assert not spec.contains(point), (tau, sigma)
    assert pairs == 4089  # at n = 6


def test_z_point_once_serves_every_variety():
    # one base point, ranked once, against every sigma, as the closure
    # suite uses it; the field route is the oracle
    for n in range(1, 6):
        elements = enumerate_involutions(n)
        specs = [z_spec(sigma) for sigma in elements]
        for tau in elements:
            base = orbit_point(tau)
            point = z_point(base)
            for sigma, spec in zip(elements, specs):
                assert spec.contains(point) is field_z_contains(spec, base)
                # the rank half of membership is tau <=* sigma
                bounds = itertools.chain.from_iterable(spec.rank_bounds.rows)
                ranks_hold = all(map(le, point[1], bounds))
                assert ranks_hold is leq_star(tau, sigma)


# (3,1)(4,2) has the quadric cell (4, 1); this point meets every rank
# bound of the variety, and only (A^2)_{4,1} = -3/2 keeps it out
_QUADRIC_ONLY = (
    parse_involution("(3,1)(4,2)", 4),
    (
        (0, 0, 0, 0),
        (0, 0, 0, 0),
        (Fraction(1, 2), 0, 0, 0),
        (0, 0, Fraction(-3), 0),
    ),
)


def test_z_contains_fails_on_a_quadric_alone():
    sigma, a = _QUADRIC_ONLY
    spec = z_spec(sigma)
    profile = rank_profile(a)
    assert all(
        profile.entry(i, j) <= spec.rank_bounds.entry(i, j)
        for i in range(2, 5)
        for j in range(1, i)
    )
    assert spec.quadric_cells == {(4, 1)} and square_entry(a, 4, 1) == Fraction(-3, 2)
    assert z_contains(spec, a) is False
    assert z_contains(spec, integral_multiple(a)) is False


@st.composite
def membership_cases(draw):
    """(sigma, A): A an orbit point of some tau, as it is, with one entry
    set to 0, or with one entry moved, and scaled to ints or not."""
    n = draw(st.integers(2, 6))
    sigma = draw(st.sampled_from(enumerate_involutions(n)))
    a = [list(row) for row in draw(orbit_functional(n))]
    r = draw(st.integers(1, n - 1))
    c = draw(st.integers(0, r - 1))
    change = draw(st.sampled_from(["none", "weaken", "perturb"]))
    if change == "weaken":
        a[r][c] = Fraction(0)
    elif change == "perturb":
        a[r][c] += draw(nonzero_rationals)
    a = tuple(map(tuple, a))
    return sigma, integral_multiple(a) if draw(st.booleans()) else a


@settings(max_examples=300, deadline=None)
@given(case=membership_cases())
@example(case=_QUADRIC_ONLY)
@example(case=ORBIT_EXAMPLES[0])
@example(case=ORBIT_EXAMPLES[1])
def test_z_contains_integer_route_matches_field_route(case):
    sigma, a = case
    spec = z_spec(sigma)
    assert z_contains(spec, a) is field_z_contains(spec, a)


def pairwise_members(specs, points) -> tuple[int, ...]:
    return tuple(
        sum(spec.contains(point) << a for a, point in enumerate(points)) for spec in specs
    )


@st.composite
def member_cases(draw):
    """(specs, points): real varieties of S_n, and points whose ranks sit
    at, below or above one spec's bounds cell by cell, whose A^2 supports
    are random board cells, and which may all agree on one cell, one
    above the first spec's bound there."""
    n = draw(st.integers(1, 5))
    elements = enumerate_involutions(n)
    specs = [z_spec(s) for s in draw(st.lists(st.sampled_from(elements), min_size=1, max_size=6))]
    board = st.sampled_from([(r, s) for r in range(2, n + 1) for s in range(1, r)] or [(2, 1)])
    points = []
    for _ in range(draw(st.integers(1, 8))):
        bounds = draw(st.sampled_from(specs)).rank_bounds.cells
        shifts = draw(st.lists(st.integers(-1, 1), min_size=n * n, max_size=n * n))
        ranks = bytearray(max(0, v + d) for v, d in zip(bounds, shifts))
        points.append((ranks, frozenset(draw(st.lists(board, max_size=4)))))
    if draw(st.booleans()):
        k = draw(st.integers(0, n * n - 1))
        for ranks, _ in points:
            ranks[k] = specs[0].rank_bounds.cells[k] + 1
    return specs, [(n, bytes(ranks), support) for ranks, support in points]


@settings(max_examples=300, deadline=None)
@given(case=member_cases())
def test_members_matches_contains_pair_by_pair(case):
    specs, points = case
    assert members(specs, points) == pairwise_members(specs, points)


def test_members_of_first_orbit_points_match_contains():
    # as the closure suite uses it: every sigma's variety against every
    # tau's first orbit point at seed 0, read at every cell
    for n in range(1, 7):
        elements = enumerate_involutions(n)
        specs = [z_spec(sigma) for sigma in elements]
        points = [
            z_point(next(_orbit_samples(n, 0, 1, index, tau))[1], n)
            for index, tau in enumerate(elements)
        ]
        assert members(specs, points) == pairwise_members(specs, points)


def test_members_edges():
    spec = z_spec(parse_involution("(3,1)", 3))
    point = z_point(orbit_point(spec.sigma))
    assert members([], [point]) == ()
    assert members([spec, spec], []) == (0, 0)
    assert members([spec], [point, point]) == (0b11,)
    # a mixed size, or a point without n^2 ranks, raises as contains does
    pair = parse_involution("(2,1)", 2)
    small = z_point(orbit_point(pair))
    for bad in ([point, small], [(3, point[1][:-1], point[2])]):
        with pytest.raises(SizeMismatchError):
            members([spec], bad)
    with pytest.raises(SizeMismatchError):
        members([spec, z_spec(pair)], [small])


def test_degeneration_curves_lie_in_the_variety_over_qeps():
    # for eps != 0 a curve point is in the orbit of sigma; over Q(eps) the
    # membership test takes the field route
    for n in range(2, 6):
        for sigma in enumerate_involutions(n):
            spec = z_spec(sigma)
            for move in near_moves(sigma):
                assert z_contains(spec, degeneration(sigma, move).curve) is True


def test_top_variety_admits_all_nonvanishing_minors():
    # rank bounds of the top element are vacuous: anything with nonzero
    # corner minors (hence anything at all) satisfies them
    spec = z_spec(longest_involution(4))
    assert spec.quadric_cells == frozenset()
    for seed in range(10):
        y = act(random_borel(4, seed), orbit_point(longest_involution(4)))
        assert all(delta_minors(y)) and z_contains(spec, y)


def test_is_chain_examples():
    assert is_chain(longest_involution(6))
    assert not is_chain(parse_involution("(3,1)(5,2)", 5))
    assert is_chain(parse_involution("(5,2)", 5))
    assert is_chain(identity_involution(3))


def test_complement_permutation_is_w0_after_sigma():
    # the composition route: w0 as a permutation, after sigma
    for n in range(1, 8):
        w0 = to_permutation(longest_involution(n))
        for sigma in enumerate_involutions(n):
            assert complement_permutation(sigma) == w0.compose(to_permutation(sigma))


def test_rothe_diagram_worked_example():
    sigma = parse_involution("(8,2)(6,3)", 8)
    w = complement_permutation(sigma)
    assert w.one_line == (8, 1, 3, 5, 4, 6, 2, 7)
    # the displayed list plus (1,1), which the defining inequalities
    # (and the cell count = length) require
    assert rothe_diagram(w) == {
        (1, 1),
        (1, 2),
        (1, 3),
        (1, 4),
        (1, 5),
        (1, 6),
        (1, 7),
        (3, 2),
        (4, 2),
        (4, 4),
        (5, 2),
        (6, 2),
    }
    assert essential_set(w) == {(1, 7), (4, 4), (6, 2)}


def test_rothe_diagram_small():
    assert rothe_diagram(Permutation((1, 2, 3))) == frozenset()
    assert rothe_diagram(Permutation((2, 1))) == {(1, 1)}
    assert essential_set(Permutation((2, 1))) == {(1, 1)}


def test_rothe_diagram_size_is_length():
    import itertools

    for word in itertools.permutations(range(1, 5)):
        w = Permutation(word)
        assert len(rothe_diagram(w)) == length(w)


def test_rotate90():
    assert rotate90(((1, 2), (3, 4))) == ((3, 1), (4, 2))
    assert rotate90(((1, 0), (0, 1))) == ((0, 1), (1, 0))
    zero = ((0, 0), (0, 0))
    assert rotate90(zero) == zero
    m = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
    assert rotate90(rotate90(rotate90(rotate90(m)))) == m


def test_quarter_turn_sends_complement_matrix_to_involution_matrix():
    for n in range(2, 6):
        for sigma in enumerate_involutions(n):
            w = complement_permutation(sigma)
            assert rotate90(permutation_matrix(w)) == permutation_matrix(
                to_permutation(sigma)
            )


def test_corner_ranks_of_complement_match_rook_counts():
    # rank of the upper-left i x j block of the matrix of w equals the
    # South-West rook count of sigma's full placement at (n-i+1, j)
    for n in range(2, 6):
        for sigma in enumerate_involutions(n):
            w = complement_permutation(sigma)
            wmat = permutation_matrix(w)
            full = bruhat_rank_matrix(to_permutation(sigma))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    block = tuple(row[:j] for row in wmat[:i])
                    assert exact_rank(block) == full.entry(n - i + 1, j)


def test_essential_reduction_small():
    assert essential_reduction_check(parse_involution("(2,1)", 2), 2)
    assert essential_reduction_check(parse_involution("(3,1)", 3), 2)
    assert essential_reduction_check(identity_involution(3), 2)
    assert essential_reduction_check(parse_involution("(3,2)", 3), 3)


def test_essential_reduction_all_chains_n4():
    for sigma in enumerate_involutions(4):
        if is_chain(sigma):
            assert essential_reduction_check(sigma, 2)


# (n, q) where the brute force over all q^(n^2) matrices is the oracle
ORACLE_DOMAIN = [(n, 2) for n in range(1, 5)] + [(n, 3) for n in range(1, 4)] + [(1, 5), (2, 5)]


@pytest.mark.parametrize("n, q", ORACLE_DOMAIN)
def test_partial_permutations_give_every_corner_table(n, q):
    rooks = _partial_permutation_tables(n)
    assert len(rooks) == len(set(rooks))
    assert set(rooks) == set(_all_corner_rank_tables(n, q))


def test_partial_permutation_counts():
    # sum over k of C(n,k)^2 k!
    assert [len(_partial_permutation_tables(n)) for n in range(6)] == [1, 2, 7, 34, 209, 1546]


def test_filter_agrees_on_both_table_sources_for_every_cell_subset():
    failed = 0
    for n, q in ORACLE_DOMAIN:
        rooks, everything = _partial_permutation_tables(n), _all_corner_rank_tables(n, q)
        for sigma in enumerate_involutions(n):
            if not is_chain(sigma):
                continue
            w = complement_permutation(sigma)
            # rook of row k at column w(k)
            wmat = permutation_matrix(w.inverse())
            bounds = bytes(
                exact_rank(tuple(row[:j] for row in wmat[:i]))
                for i in range(1, n + 1)
                for j in range(1, n + 1)
            )
            essential = sorted(essential_set(w))
            for size in range(len(essential) + 1):
                for cells in itertools.combinations(essential, size):
                    verdict = scan_bounds_imply_all(rooks, bounds, cells)
                    assert verdict == scan_bounds_imply_all(everything, bounds, cells)
                    assert verdict == _bounds_imply_all(bounds, cells)
                    assert verdict or size < len(essential)
                    failed += not verdict
    # weakened cell sets must be able to fail, or the filter proves nothing
    assert failed


def test_essential_reduction_check_leaves_no_tables_cached():
    # the check keeps the cell sets and the table count, not the tables
    _cell_sets.cache_clear()
    assert essential_reduction_check(longest_involution(5), 2)
    assert _cell_sets(5)[0] == 1546


def test_essential_reduction_guards():
    with pytest.raises(NotChainError):
        essential_reduction_check(parse_involution("(3,1)(5,2)", 5), 2)
    with pytest.raises(TooLargeError):
        essential_reduction_check(longest_involution(ESSENTIAL_MAX_N + 1), 2)


@pytest.mark.parametrize(
    "q",
    [0, 1, 4, 6, 2.0, Fraction(3), "3"],
    ids=["0", "1", "4", "6", "float", "fraction", "str"],
)
def test_essential_reduction_rejects_non_prime_modulus(q):
    # Z/q is no field, so elimination over it would answer nothing; a
    # non-int q is refused before any arithmetic on it
    with pytest.raises(NotAFieldError):
        essential_reduction_check(parse_involution("(2,1)", 2), q)


def test_essential_reduction_primality_test_is_fast_and_strong():
    # no budget bounds q: a Mersenne prime near 2^61 takes 1.5e9 trial
    # divisions, and 3215031751 fools Miller-Rabin to the bases 2, 3, 5, 7
    start = time.perf_counter()
    assert essential_reduction_check(parse_involution("(2,1)", 2), 2**61 - 1)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(NotAFieldError):
        essential_reduction_check(parse_involution("(2,1)", 2), 3215031751)


@pytest.mark.parametrize(
    "q, error",
    [
        # the smallest strong pseudoprime to the bases 2..37, caught by 41
        (318_665_857_834_031_151_167_461, NotAFieldError),
        # the same to the bases 2..41: past the exact range
        (3_317_044_064_679_887_385_961_981, TooLargeError),
        (2**89 - 1, TooLargeError),
    ],
    ids=["psp-37", "psp-41", "mersenne-89"],
)
def test_essential_reduction_primality_test_range(q, error):
    with pytest.raises(error):
        essential_reduction_check(parse_involution("(2,1)", 2), q)


def test_miller_rabin_agrees_with_trial_division():
    assert [q for q in range(2, 10**4) if _is_prime(q) != trial_division_is_prime(q)] == []


def test_length_complement_identity():
    for n in range(1, 8):
        n_phi = n * (n - 1) // 2
        for sigma in enumerate_involutions(n):
            w = complement_permutation(sigma)
            assert length(w) == n_phi - length(to_permutation(sigma))
