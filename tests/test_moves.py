import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    a_oracle,
    b_oracle,
    c_oracle,
    fixed_scan_n_prime,
    remove_oracle,
    slide_oracle,
)

from borbits import (
    Arc,
    Move,
    a_candidates,
    apply_move,
    b_candidates,
    c_candidates,
    degeneration,
    degeneration_closed_form,
    enumerate_involutions,
    identity_involution,
    involution,
    leq_star,
    minimal_support,
    n_minus,
    n_plus,
    n_prime,
    n_zero,
    near,
    near_moves,
    near_prime,
    parse_involution,
    phi_leq,
    phi_lt,
)
from borbits import moves
from borbits.orbits import degeneration_word
from borbits.suites import run_suite
from borbits.errors import ArcNotInSupportError, MoveNotApplicableError


def test_phi_order_examples():
    assert phi_leq((7, 6), (8, 2))
    assert phi_leq((3, 1), (3, 1))
    assert not phi_leq((3, 1), (5, 2)) and not phi_leq((5, 2), (3, 1))
    assert phi_lt((7, 6), (8, 2)) and not phi_lt((3, 1), (3, 1))


def test_minimal_support_examples():
    sigma = parse_involution("(3,1)(8,2)(7,6)", 8)
    assert minimal_support(sigma) == {Arc(3, 1), Arc(7, 6)}
    assert minimal_support(identity_involution(4)) == frozenset()
    single = parse_involution("(5,2)", 5)
    assert minimal_support(single) == {Arc(5, 2)}


def test_move_right_worked_example():
    sigma = parse_involution("(3,1)(8,2)(7,6)", 8)
    slid = parse_involution("(3,1)(8,4)(7,6)", 8)
    assert apply_move(sigma, Move("right", Arc(8, 2))) == slid
    assert slide_oracle(sigma, Arc(8, 2), "right") == slid


def test_move_right_undefined_cases():
    # an undefined slide is a move absent from the table
    sigma = parse_involution("(2,1)", 2)
    assert Move("right", Arc(2, 1)) not in near_moves(sigma)
    assert slide_oracle(sigma, Arc(2, 1), "right") is None
    # m = 4 exists but (3,2) blocks: below (5,1), not below (5,4)
    sigma = parse_involution("(5,1)(3,2)", 5)
    assert Move("right", Arc(5, 1)) not in near_moves(sigma)
    assert slide_oracle(sigma, Arc(5, 1), "right") is None


def test_move_up_worked_example():
    sigma = parse_involution("(4,1)(7,2)(8,6)", 8)
    slid = parse_involution("(4,1)(5,2)(8,6)", 8)
    assert apply_move(sigma, Move("up", Arc(7, 2))) == slid
    assert slide_oracle(sigma, Arc(7, 2), "up") == slid
    assert Move("up", Arc(2, 1)) not in near_moves(parse_involution("(2,1)", 2))
    sigma = parse_involution("(3,1)", 3)
    assert apply_move(sigma, Move("up", Arc(3, 1))) == parse_involution("(2,1)", 3)


def test_move_remove():
    sigma = parse_involution("(3,1)(5,2)", 5)
    assert apply_move(sigma, Move("remove", Arc(3, 1))) == parse_involution("(5,2)", 5)
    assert remove_oracle(sigma, Arc(3, 1)) == parse_involution("(5,2)", 5)
    single = parse_involution("(2,1)", 2)
    assert apply_move(single, Move("remove", Arc(2, 1))) == identity_involution(2)
    # an arc outside sigma: not in the table, and the candidate sets name it
    with pytest.raises(MoveNotApplicableError):
        apply_move(sigma, Move("remove", Arc(4, 2)))
    for candidates in (a_candidates, b_candidates, c_candidates):
        with pytest.raises(ArcNotInSupportError):
            candidates(sigma, Arc(4, 2))
    # (8,2) is not minimal: (7,6) lies strictly below it
    sigma = parse_involution("(3,1)(8,2)(7,6)", 8)
    assert Move("remove", Arc(8, 2)) not in near_moves(sigma)
    assert remove_oracle(sigma, Arc(8, 2)) is None


@pytest.mark.parametrize("candidates", [a_candidates, b_candidates, c_candidates])
def test_candidate_sets_reject_an_arc_of_non_ints(candidates):
    # each equals (4, 1) or breaks range(); neither may get an answer
    sigma = parse_involution("(4,1)", 4)
    for arc in (Arc(4, True), Arc(True, 1), (4.0, 1), Arc(4, 1.0)):
        with pytest.raises(ArcNotInSupportError):
            candidates(sigma, arc)
    candidates(sigma, (4, 1))


def test_a_move_worked_example():
    sigma = parse_involution("(5,1)(6,2)(8,4)", 8)
    assert Arc(8, 4) in a_candidates(sigma, Arc(6, 2))
    swapped = parse_involution("(5,1)(4,2)(8,6)", 8)
    assert apply_move(sigma, Move("a", Arc(6, 2), (8, 4))) == swapped
    assert a_oracle(sigma, Arc(6, 2), (8, 4)) == swapped


def test_a_move_small_case():
    sigma = parse_involution("(3,1)(4,2)", 4)
    assert a_candidates(sigma, Arc(3, 1)) == {Arc(4, 2)}
    swapped = parse_involution("(2,1)(4,3)", 4)
    assert apply_move(sigma, Move("a", Arc(3, 1), (4, 2))) == swapped
    assert a_oracle(sigma, Arc(3, 1), (4, 2)) == swapped
    assert a_candidates(parse_involution("(2,1)", 2), Arc(2, 1)) == frozenset()
    # (3,1) is no a partner of (4,2): the move is absent from the table
    assert Move("a", Arc(4, 2), (3, 1)) not in near_moves(sigma)


def test_a_blocker_uses_board_order():
    # (4,3) lies strictly below (5,1) but not below (2,1): blocks the swap
    sigma = parse_involution("(5,1)(6,2)(4,3)", 6)
    assert a_candidates(sigma, Arc(5, 1)) == frozenset()


def test_b_move_worked_example():
    sigma = parse_involution("(8,1)(3,2)(5,4)(7,6)", 8)
    assert Arc(8, 1) in b_candidates(sigma, Arc(5, 4))
    swapped = parse_involution("(5,1)(3,2)(8,4)(7,6)", 8)
    assert apply_move(sigma, Move("b", Arc(5, 4), (8, 1))) == swapped
    assert b_oracle(sigma, Arc(5, 4), (8, 1)) == swapped
    assert b_candidates(parse_involution("(2,1)", 2), Arc(2, 1)) == frozenset()


def test_b_candidates_requires_comparability():
    sigma = parse_involution("(3,1)(4,2)", 4)
    assert b_candidates(sigma, Arc(3, 1)) == frozenset()
    assert Move("b", Arc(3, 1), (4, 2)) not in near_moves(sigma)


def test_c_move_worked_example():
    sigma = parse_involution("(4,1)(8,2)(7,6)", 8)
    assert (3, 5) in c_candidates(sigma, Arc(8, 2))
    split = parse_involution("(4,1)(3,2)(8,5)(7,6)", 8)
    assert apply_move(sigma, Move("c", Arc(8, 2), (3, 5))) == split
    assert c_oracle(sigma, Arc(8, 2), (3, 5)) == split


def test_c_move_small_cases():
    assert c_candidates(parse_involution("(3,1)", 3), Arc(3, 1)) == frozenset()
    sigma = parse_involution("(4,1)", 4)
    assert c_candidates(sigma, Arc(4, 1)) == {(2, 3)}
    split = parse_involution("(2,1)(4,3)", 4)
    assert apply_move(sigma, Move("c", Arc(4, 1), (2, 3))) == split
    assert c_oracle(sigma, Arc(4, 1), (2, 3)) == split
    assert Move("c", Arc(4, 1), (3, 2)) not in near_moves(sigma)


@pytest.mark.parametrize(
    "text, n, move",
    [
        ("(3,1)(4,2)", 4, Move("a", Arc(3, 1), (4, 2))),
        ("(8,1)(3,2)(5,4)(7,6)", 8, Move("b", Arc(5, 4), (8, 1))),
        ("(8,2)", 8, Move("c", Arc(8, 2), (3, 4))),
    ],
    ids=["a", "b", "c"],
)
def test_malformed_partners_are_not_applicable(text, n, move):
    sigma = parse_involution(text, n)
    assert move in near_moves(sigma)
    (i, j), (al, be) = move.arc, move.partner
    partners = [
        (al,),
        (al, be, 7),
        (al, [be]),
        [al, be],
        (float(al), be),
        (al, float(be)),
        5,
        None,
    ]
    arcs = [(float(i), j), Arc(i, float(j)), [i, j]]
    malformed = [Move(move.kind, move.arc, p) for p in partners]
    malformed += [Move(move.kind, arc, move.partner) for arc in arcs]
    for bad in malformed:
        with pytest.raises(MoveNotApplicableError):
            apply_move(sigma, bad)


def test_c_move_rejects_colliding_endpoints():
    # the printed clauses hold for (3,4) yet 3 is already an endpoint
    sigma = parse_involution("(5,1)(3,2)", 5)
    assert Move("c", Arc(5, 1), (3, 4)) not in near_moves(sigma)
    assert (3, 4) not in c_candidates(sigma, Arc(5, 1))


def test_near_examples():
    sigma = parse_involution("(3,1)", 3)
    assert near(sigma) == {
        identity_involution(3),
        parse_involution("(2,1)", 3),
        parse_involution("(3,2)", 3),
    }
    assert near(identity_involution(4)) == frozenset()
    assert near(parse_involution("(2,1)", 2)) == {identity_involution(2)}


def test_near_prime_examples():
    sigma = parse_involution("(3,1)", 3)
    assert near_prime(sigma) == {
        parse_involution("(2,1)", 3),
        parse_involution("(3,2)", 3),
    }
    assert near_prime(parse_involution("(2,1)", 2)) == {identity_involution(2)}
    assert near_prime(identity_involution(3)) == frozenset()


def test_moves_yield_valid_strictly_smaller_involutions():
    for n in range(1, 7):
        for sigma in enumerate_involutions(n):
            for move in near_moves(sigma):
                tau = apply_move(sigma, move)  # constructor re-validates
                assert tau != sigma
                assert leq_star(tau, sigma)


def test_arc_count_law():
    for n in range(1, 7):
        for sigma in enumerate_involutions(n):
            for move in near_moves(sigma):
                tau = apply_move(sigma, move)
                delta = len(tau.arcs) - len(sigma.arcs)
                expected = {"remove": -1, "c": 1}.get(move.kind, 0)
                assert delta == expected


def _oracle_outputs(sigma):
    """{move: output} in near_moves' order: per arc, remove, right and up
    by the definitions' oracles, then the a, b and c partners in sorted
    order, each output built by its kind's exchange formula."""
    out = {}
    for arc in sigma.arcs:
        one_arc = (
            ("remove", remove_oracle(sigma, arc)),
            ("right", slide_oracle(sigma, arc, "right")),
            ("up", slide_oracle(sigma, arc, "up")),
        )
        for kind, tau in one_arc:
            if tau is not None:
                out[Move(kind, arc)] = tau
        for partner in sorted(a_candidates(sigma, arc)):
            out[Move("a", arc, tuple(partner))] = a_oracle(sigma, arc, partner)
        for partner in sorted(b_candidates(sigma, arc)):
            out[Move("b", arc, tuple(partner))] = b_oracle(sigma, arc, partner)
        for pair in sorted(c_candidates(sigma, arc)):
            out[Move("c", arc, pair)] = c_oracle(sigma, arc, pair)
    return out


def _of_kinds(outputs, *kinds):
    return {tau for move, tau in outputs.items() if move.kind in kinds}


def test_move_table_matches_the_oracles():
    for n in range(1, 9):
        for sigma in enumerate_involutions(n):
            oracle = _oracle_outputs(sigma)
            assert list(moves._move_outputs(sigma).items()) == list(oracle.items())
            assert near_moves(sigma) == tuple(oracle)
            for move, tau in oracle.items():
                assert apply_move(sigma, move) == tau
            assert n_minus(sigma) == _of_kinds(oracle, "remove")
            assert n_zero(sigma) == _of_kinds(oracle, "right", "up", "a", "b")
            assert n_plus(sigma) == _of_kinds(oracle, "c")
            assert near(sigma) == set(oracle.values())
            # a removal is in N' iff its closed interval holds no fixed point
            prime = fixed_scan_n_prime(sigma, oracle)
            assert n_prime(sigma) == prime
            slides_swaps_splits = _of_kinds(oracle, "right", "up", "a", "b", "c")
            assert near_prime(sigma) == prime | slides_swaps_splits


@st.composite
def _involutions(draw, max_n=10):
    """An involution of S_n, n <= max_n: some disjoint pairs of a shuffle."""
    n = draw(st.integers(1, max_n))
    points = draw(st.permutations(range(1, n + 1)))
    pairs = draw(st.integers(0, n // 2))
    return involution(n, zip(points[: 2 * pairs : 2], points[1 : 2 * pairs : 2]))


@settings(max_examples=300, deadline=None)
@given(sigma=_involutions())
def test_move_table_matches_the_oracles_at_any_sigma(sigma):
    # the one pass against the definitional scans, with each move's kind,
    # arc and partner types, beyond the exhaustive sizes above
    table = list(moves._move_outputs(sigma).items())
    assert table == list(_oracle_outputs(sigma).items())
    for move, tau in table:
        assert type(move.arc) is Arc and move.arc in sigma.arcs
        assert move.partner is None or type(move.partner) is tuple
        assert all(type(p) is int for p in move.partner or ())
        assert tau.n == sigma.n


# moves outside near_moves(sigma): every route that reads the move table
# rejects each of them
_NOT_IN_TABLE = pytest.mark.parametrize(
    "sigma, n, move",
    [
        ("(3,1)(8,2)(7,6)", 8, Move("remove", Arc(8, 2))),
        ("(2,1)", 2, Move("right", Arc(2, 1))),
        ("(2,1)", 2, Move("up", Arc(2, 1))),
        ("(5,1)(3,2)", 5, Move("right", Arc(5, 1))),
        ("(3,1)(4,2)", 4, Move("a", Arc(4, 2), (3, 1))),
        ("(3,1)(4,2)", 4, Move("b", Arc(3, 1), (4, 2))),
        ("(4,1)", 4, Move("c", Arc(4, 1), (3, 2))),
        ("(5,1)(3,2)", 5, Move("c", Arc(5, 1), (3, 4))),
        ("(3,1)(5,2)", 5, Move("remove", Arc(4, 2))),
        ("(3,1)(5,2)", 5, Move("right", Arc(4, 2))),
        ("(2,1)", 2, Move("swap", Arc(2, 1))),
        ("(3,1)(4,2)", 4, Move("a", Arc(3, 1), [4, 2])),
        # 4.0 == 4 and True == 1 with equal hashes: the lookup finds these
        ("(3,1)(4,2)", 4, Move("a", Arc(3, 1), (4.0, 2))),
        ("(8,1)(3,2)(5,4)(7,6)", 8, Move("b", Arc(5, 4), (8, True))),
        ("(3,1)", 3, Move("remove", (3, True))),
        ("(3,1)", 3, Move("up", Arc(3.0, 1))),
    ],
    ids=[
        "not-minimal",
        "right-no-free-point",
        "up-no-free-point",
        "right-blocked",
        "not-an-a-candidate",
        "not-a-b-candidate",
        "not-a-c-candidate",
        "c-collides",
        "arc-not-in-sigma",
        "slide-arc-not-in-sigma",
        "unknown-kind",
        "unhashable-partner",
        "float-partner",
        "bool-partner",
        "bool-arc",
        "float-arc",
    ],
)


@_NOT_IN_TABLE
def test_apply_move_rejects_a_move_not_in_the_table(sigma, n, move):
    with pytest.raises(MoveNotApplicableError):
        apply_move(parse_involution(sigma, n), move)


@_NOT_IN_TABLE
def test_degeneration_routes_reject_an_undefined_slide(sigma, n, move):
    sigma = parse_involution(sigma, n)
    for route in (degeneration_word, degeneration_closed_form, degeneration):
        with pytest.raises(MoveNotApplicableError):
            route(sigma, move)


def test_each_move_is_constructed_once(monkeypatch):
    # every kind of move applies to this sigma
    sigma = parse_involution("(3,1)(8,2)(7,4)", 8)
    calls = []
    replace = moves._replace

    def counting(*args):
        calls.append(args)
        return replace(*args)

    monkeypatch.setattr(moves, "_replace", counting)
    moves._move_outputs.cache_clear()
    moves.near_moves.cache_clear()
    for neighbours in (n_minus, n_zero, n_plus, n_prime, near, near_prime):
        neighbours(sigma)
    for move in near_moves(sigma):
        apply_move(sigma, move)
        degeneration(sigma, move)
        degeneration_closed_form(sigma, move)
    assert {move.kind for move in near_moves(sigma)} == {
        "remove", "right", "up", "a", "b", "c",
    }
    assert len(calls) == len(near_moves(sigma)) == 7


def test_slides_are_found_only_by_the_move_table():
    # the degeneration suite hands each move's output tau from the table
    # to the word, the closed form and the limit: apply_move is never
    # called, and the table's body runs once per sigma, where the slides
    # are found.  A profile hook sees every call, by any binding
    body, lookup = moves._move_outputs.__wrapped__.__code__, moves.apply_move.__code__
    tables, lookups = Counter(), 0

    def profile(frame, event, arg):
        nonlocal lookups
        if event == "call" and frame.f_code is body:
            tables[frame.f_locals["sigma"]] += 1
        elif event == "call" and frame.f_code is lookup:
            lookups += 1

    moves._move_outputs.cache_clear()
    moves.near_moves.cache_clear()
    sys.setprofile(profile)
    try:
        report = run_suite("degeneration", 6)
    finally:
        sys.setprofile(None)
    assert report.passed and report.checked == 291
    assert lookups == 0
    assert set(tables) == set(enumerate_involutions(6)) and len(tables) == 76
    assert set(tables.values()) == {1}
