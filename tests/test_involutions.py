import gc
import tracemalloc

import pytest

from borbits import (
    Arc,
    Involution,
    Permutation,
    build_poset,
    emit_hasse,
    enumerate_involutions,
    format_involution,
    identity_involution,
    involution,
    length,
    longest_involution,
    n_prime,
    near_moves,
    orbit_point,
    parse_involution,
    to_permutation,
)
from borbits import moves
from borbits.errors import (
    CycleSyntaxError,
    IndexOutOfRangeError,
    OverlapError,
)

from conftest import (
    all_permutations,
    apply_cycles_oracle,
    bruhat_leq_subword,
    eval_word,
    filter_involutions,
    permutation_matrix,
    reduced_word,
    rook_matrix_lower,
    rook_matrix_upper,
)


def test_parse_basic():
    sigma = parse_involution("(3,1)(5,2)", 5)
    assert sigma.arcs == (Arc(3, 1), Arc(5, 2))
    assert parse_involution("id", 4) == identity_involution(4)


def test_parse_rejects_overlap():
    with pytest.raises(OverlapError):
        parse_involution("(2,1)(3,2)", 3)


def test_parse_rejects_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        parse_involution("(6,1)", 5)


NON_INT_BUILDS = {
    "Involution(2.5)": lambda: Involution(2.5, ()),
    "Involution(True)": lambda: Involution(True, ()),
    "Involution arc (2.0, 1)": lambda: Involution(3, (Arc(2.0, 1),)),
    "Involution arc tuple (3, 1)": lambda: Involution(4, ((3, 1),)),
    "parse_involution(n=2.5)": lambda: parse_involution("id", 2.5),
    "involution((2.0, 1.0))": lambda: involution(3, [(2.0, 1.0)]),
    "enumerate_involutions(True)": lambda: enumerate_involutions(True),
    "enumerate_involutions(2.5)": lambda: enumerate_involutions(2.5),
    "build_poset(2.5)": lambda: build_poset(2.5),
    "build_poset(2.0)": lambda: build_poset(2.0),
    "emit_hasse(2.5)": lambda: emit_hasse(2.5),
    "Permutation((1.0, 2.0))": lambda: Permutation((1.0, 2.0)),
    "Permutation((True,))": lambda: Permutation((True,)),
}


@pytest.mark.parametrize("build", NON_INT_BUILDS.values(), ids=NON_INT_BUILDS)
def test_non_int_sizes_and_indices_are_rejected(build):
    # 2.0 == 2 and True == 1 pass every range check, so only the type
    # tells; a poset cached at n = 2 must not answer for n = 2.0
    build_poset(2)
    with pytest.raises(IndexOutOfRangeError):
        build()


@pytest.mark.parametrize("m", [0, 4, -1, 7, True, 1.0, "1", None])
def test_points_outside_one_to_n_are_rejected(m):
    # at n = 3, apply(0) once answered 0 and is_fixed(7) True, and the
    # permutation's apply(0) answered w(3), by wrap-around
    sigma = parse_involution("(3,1)", 3)
    w = Permutation((2, 1, 3))
    for point_map in (sigma.apply, sigma.is_fixed, w.apply):
        with pytest.raises(IndexOutOfRangeError):
            point_map(m)
    assert [sigma.apply(k) for k in (1, 2, 3)] == [3, 2, 1]
    assert [sigma.is_fixed(k) for k in (1, 2, 3)] == [False, True, False]
    assert [w.apply(k) for k in (1, 2, 3)] == [2, 1, 3]


def test_a_tuple_arc_cannot_poison_the_move_caches():
    # (3, 1) equals and hashes like Arc(3, 1), so an involution built from
    # it once shared the cached move table of the well-formed one and put
    # tuple arcs into it
    moves._move_outputs.cache_clear()
    moves.near_moves.cache_clear()
    with pytest.raises(IndexOutOfRangeError):
        near_moves(Involution(4, ((3, 1),)))
    with pytest.raises(IndexOutOfRangeError):
        orbit_point(Involution(4, ((3, 1),)))
    sigma = parse_involution("(3,1)", 4)
    assert all(type(move.arc) is Arc for move in near_moves(sigma))
    # the removal's interval [1, 3] holds the fixed point 2
    assert n_prime(sigma) == frozenset()


def test_parse_rejects_garbage():
    for text in ("", "(1,2", "nope", "(1,2)x(3,4)", "(1)"):
        with pytest.raises(CycleSyntaxError):
            parse_involution(text, 6)


def test_parse_normalizes_order_and_whitespace():
    sigma = parse_involution(" (1,3) ( 5 , 2 ) ", 5)
    assert sigma == parse_involution("(3,1)(5,2)", 5)


def test_parse_rejects_fixed_point_cycle():
    with pytest.raises(OverlapError):
        parse_involution("(2,2)", 3)


def test_format_parse_round_trip():
    for n in range(1, 11):
        for sigma in enumerate_involutions(n):
            assert parse_involution(format_involution(sigma), n) == sigma


def test_large_enumeration_is_not_kept():
    # an enumeration is freed with its last user, not kept for the life of
    # the process (n = 11: 35,696 involutions, ~6 MiB with each arc built
    # once per enumeration)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        elements = enumerate_involutions(11)
        alive = tracemalloc.get_traced_memory()[0] - before
        assert len(elements) == 35_696
        del elements
        gc.collect()
        after = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert alive > 4 * 2**20
    assert after < 2**20


def test_to_permutation_examples():
    assert to_permutation(parse_involution("(3,1)(5,2)", 5)).one_line == (3, 5, 1, 4, 2)
    assert to_permutation(identity_involution(3)).one_line == (1, 2, 3)
    assert to_permutation(parse_involution("(5,1)(4,2)", 5)).one_line == (5, 4, 3, 2, 1)


def test_to_permutation_matches_cycle_oracle_and_squares_to_id():
    for n in range(1, 7):
        for sigma in enumerate_involutions(n):
            perm = to_permutation(sigma)
            assert perm.one_line == apply_cycles_oracle(n, sigma.arcs)
            assert perm.compose(perm).one_line == tuple(range(1, n + 1))


def test_length_examples():
    assert length(Permutation((5, 4, 3, 2, 1))) == 10
    assert length(Permutation((1, 2, 3))) == 0
    assert length(Permutation((3, 5, 1, 4, 2))) == 6


def test_enumeration_matches_filter_oracle():
    for n in range(1, 7):
        enumerated = enumerate_involutions(n)
        assert list(enumerated) == sorted(enumerated, key=lambda s: s.one_line())
        assert set(enumerated) == set(filter_involutions(n))


def test_enumerated_elements_are_the_checked_constructions():
    # built unchecked, each element is what the validating constructor
    # builds from its arcs: the same type, equal, with the same hash
    for n in range(1, 11):
        for sigma in enumerate_involutions(n):
            checked = Involution(n, sigma.arcs)
            assert type(sigma) is Involution
            assert sigma == checked and hash(sigma) == hash(checked)
            assert vars(sigma) == vars(checked)


def test_enumeration_small_counts():
    assert len(enumerate_involutions(1)) == 1
    assert {format_involution(s) for s in enumerate_involutions(3)} == {
        "id",
        "(2,1)",
        "(3,2)",
        "(3,1)",
    }


def test_reduced_word_examples():
    assert reduced_word(Permutation((2, 1, 3))) == (1,)
    assert reduced_word(Permutation((1, 2, 3))) == ()
    word = reduced_word(Permutation((3, 2, 1)))
    assert len(word) == 3
    assert eval_word(3, word).one_line == (3, 2, 1)


def test_reduced_word_evaluates_back():
    for w in all_permutations(4):
        word = reduced_word(w)
        assert len(word) == length(w)
        assert eval_word(4, word) == w


def test_subword_oracle_examples():
    assert bruhat_leq_subword(Permutation((2, 1, 3)), Permutation((3, 2, 1)))
    assert not bruhat_leq_subword(Permutation((1, 3, 2)), Permutation((2, 1, 3)))
    for w in all_permutations(3):
        assert bruhat_leq_subword(Permutation((1, 2, 3)), w)


def test_permutation_matrix_examples():
    assert permutation_matrix(Permutation((1, 2))) == ((1, 0), (0, 1))
    assert permutation_matrix(Permutation((2, 1))) == ((0, 1), (1, 0))
    mat = permutation_matrix(to_permutation(parse_involution("(3,1)(5,2)", 5)))
    ones = {(r + 1, c + 1) for r in range(5) for c in range(5) if mat[r][c]}
    assert ones == {(3, 1), (1, 3), (5, 2), (2, 5), (4, 4)}


def test_permutation_matrix_symmetric_for_involutions():
    for n in range(1, 6):
        for sigma in enumerate_involutions(n):
            mat = permutation_matrix(to_permutation(sigma))
            assert mat == tuple(zip(*mat))


def test_rook_matrices_are_transposes():
    for sigma in enumerate_involutions(5):
        upper = rook_matrix_upper(sigma)
        lower = rook_matrix_lower(sigma)
        assert tuple(zip(*upper)) == lower
        assert sum(map(sum, lower)) == len(sigma.arcs)


def test_longest_involution():
    assert to_permutation(longest_involution(5)).one_line == (5, 4, 3, 2, 1)
    assert to_permutation(longest_involution(4)).one_line == (4, 3, 2, 1)


def test_involution_validation():
    from borbits.errors import BorbitsError

    with pytest.raises(OverlapError):
        Involution(4, (Arc(3, 1), Arc(4, 3)))
    with pytest.raises(IndexOutOfRangeError):
        Involution(3, (Arc(1, 0),))
    with pytest.raises(OverlapError):
        involution(4, [(2, 1), (4, 2)])
    with pytest.raises(BorbitsError):
        Involution(5, (Arc(5, 2), Arc(3, 1)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Involution(3, [Arc(3, 1)]),
        lambda: Involution(3, []),
        lambda: Permutation([2, 1]),
        lambda: Permutation(range(1, 3)),
    ],
    ids=["Involution list", "Involution empty list", "Permutation list", "Permutation range"],
)
def test_fields_that_are_not_tuples_are_rejected(build):
    # a list field once built a value that could not be hashed, so the
    # rank tables, the move table and the poset index failed on it later
    # with a bare TypeError
    with pytest.raises(IndexOutOfRangeError):
        build()


@pytest.mark.parametrize(
    "w",
    [parse_involution("(3,1)", 3), (2, 1), [2, 1], None],
    ids=["Involution", "tuple", "list", "None"],
)
def test_length_rejects_what_is_not_a_permutation(w):
    # an involution's one_line is a method, whose len() once raised a bare TypeError
    with pytest.raises(IndexOutOfRangeError):
        length(w)
