import json
from functools import reduce
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borbits import (
    build_poset,
    enumerate_involutions,
    hasse_dot,
    hasse_json,
    identity_involution,
    is_graded,
    l_sets,
    leq_star,
    length,
    longest_involution,
    near,
    near_prime,
    parse_involution,
    to_permutation,
)
from borbits import poset as poset_module
from borbits import rankorder
from borbits.errors import BoundExceededError, NotInPosetError, UnknownSuiteError
from borbits.moves import n_minus, n_plus, n_prime, n_zero
from borbits.poset import Poset, _lower_covers, poset_ranks
from borbits.rankorder import RankMatrix, bit_indices, dominance_masks, joined_cells

from conftest import (
    generator_lower_covers,
    leq_bruhat,
    leq_melnikov,
    scan_hasse_dot,
    scan_l_sets,
    union_loop_l_sets,
)
from test_rankorder import rank_tables


def test_chain_for_n2():
    poset = build_poset(2, "star")
    top = parse_involution("(2,1)", 2)
    assert poset.covers_of(top) == {identity_involution(2)}
    assert poset.covers_of(identity_involution(2)) == frozenset()


def test_covers_for_n3():
    poset = build_poset(3, "star")
    assert len(poset.elements) == 4
    assert poset.covers_of(parse_involution("(3,1)", 3)) == {
        parse_involution("(2,1)", 3),
        parse_involution("(3,2)", 3),
    }
    for name in ("(2,1)", "(3,2)"):
        assert poset.covers_of(parse_involution(name, 3)) == {identity_involution(3)}


def test_poset_n4_size_and_gradedness():
    poset = build_poset(4, "star")
    assert len(poset.elements) == 10
    assert is_graded(poset)


def test_leq_and_membership():
    poset = build_poset(3, "star")
    assert poset.leq(identity_involution(3), parse_involution("(3,1)", 3))
    assert not poset.leq(parse_involution("(3,1)", 3), identity_involution(3))
    with pytest.raises(NotInPosetError):
        poset.index_of(identity_involution(4))


def test_bound_exceeded():
    with pytest.raises(BoundExceededError):
        build_poset(11, "star")


def test_l_sets_example_n3():
    poset = build_poset(3, "star")
    sets = l_sets(parse_involution("(3,1)", 3), poset)
    assert sets.l_minus == {identity_involution(3)}
    assert sets.l_prime == frozenset()
    assert sets.l_star == {
        parse_involution("(2,1)", 3),
        parse_involution("(3,2)", 3),
    }
    assert sets.l_zero == sets.l_star
    assert sets.l_plus == frozenset()


def test_l_sets_identity_and_top():
    poset = build_poset(4, "star")
    empty = l_sets(identity_involution(4), poset)
    assert not (empty.l_minus | empty.l_zero | empty.l_plus | empty.l_star)
    top = l_sets(longest_involution(4), poset)
    assert top.l_plus == frozenset()


def test_move_sets_equal_order_sets_small():
    for n in range(1, 6):
        poset = build_poset(n, "star")
        for sigma in poset.elements:
            sets = l_sets(sigma, poset)
            assert n_minus(sigma) == sets.l_minus
            assert n_zero(sigma) == sets.l_zero
            assert n_plus(sigma) == sets.l_plus
            assert n_prime(sigma) == sets.l_prime
            assert near_prime(sigma) == sets.l_star == poset.covers_of(sigma)
            assert near(sigma) == sets.l_minus | sets.l_zero | sets.l_plus


@pytest.mark.parametrize("order", ["star", "melnikov", "bruhat"])
def test_l_sets_match_the_scan_oracle(order):
    for n in range(1, 8):
        poset = build_poset(n, order)
        for sigma in poset.elements:
            assert l_sets(sigma, poset) == scan_l_sets(sigma, poset)


def test_l_sets_match_the_union_loop_oracle():
    # every involution up to S_8 in the star order, where the covers
    # suite compares them with the moves
    for n in range(1, 9):
        poset = build_poset(n, "star")
        for sigma in poset.elements:
            assert l_sets(sigma, poset) == union_loop_l_sets(sigma, poset)


def test_l_sets_never_read_the_covers():
    # a poset whose covers are all empty has the same L-classes: the
    # covers suite compares l_star with those covers, so reading them
    # would make that check circular
    poset = build_poset(6, "star")
    blank = Poset(poset.order, poset.n, poset.elements, poset.less, ((),) * 76, poset.index)
    for sigma in poset.elements:
        assert l_sets(sigma, blank) == l_sets(sigma, poset)


@pytest.mark.parametrize("order", ["star", "melnikov", "bruhat"])
def test_l_set_layers_are_built_on_first_use(order):
    # build_poset leaves them alone; the first l_sets builds them, once
    build_poset.cache_clear()
    poset = build_poset(7, order)
    assert "_layers" not in vars(poset)
    l_sets(poset.elements[0], poset)
    layers = vars(poset)["_layers"]
    for sigma in poset.elements:
        l_sets(sigma, poset)
    assert poset._layers is layers
    height, by_height, _, _ = layers
    # a height that rises along every relation; Incitti's rank where it does
    for b, mask in enumerate(poset.less):
        assert all(height[a] < height[b] for a in bit_indices(mask))
        assert by_height[height[b]] >> b & 1
    incitti = [
        (length(to_permutation(sigma)) + len(sigma.arcs)) // 2 for sigma in poset.elements
    ]
    assert (height == incitti) is (order != "melnikov")


@pytest.mark.parametrize("order", ["star", "melnikov", "bruhat"])
def test_hasse_dot_and_covers_match_the_scanning_routes(order):
    for n in range(1, 9):
        poset = build_poset(n, order)
        assert hasse_dot(poset) == scan_hasse_dot(poset)
        cells = joined_cells(order, poset.elements, n)
        assert poset.covers == generator_lower_covers(cells, n, poset.less)


@pytest.mark.parametrize("order", ["star", "bruhat"])
def test_incitti_rank_is_the_poset_rank(order):
    # Incitti: the involution poset is graded by (length + arcs) / 2
    for n in range(1, 9):
        poset = build_poset(n, order)
        incitti = [
            (length(to_permutation(sigma)) + len(sigma.arcs)) // 2
            for sigma in poset.elements
        ]
        assert tuple(incitti) == poset_ranks(poset)
        for b, lower in enumerate(poset.covers):
            assert all(incitti[b] == incitti[a] + 1 for a in lower)


def test_melnikov_n3_has_two_maximal_elements():
    poset = build_poset(3, "melnikov")
    below_some = reduce(or_, poset.less)
    maximal = {s for k, s in enumerate(poset.elements) if not below_some >> k & 1}
    assert maximal == {parse_involution("(3,2)", 3), parse_involution("(2,1)", 3)}
    assert not is_graded(poset)


def test_star_and_melnikov_orders_are_incomparable():
    for n in range(3, 9):
        star = build_poset(n, "star").less
        melnikov = build_poset(n, "melnikov").less
        assert any(s & ~m for s, m in zip(star, melnikov))
        assert any(m & ~s for s, m in zip(star, melnikov))
    # strict relations at n = 8, the last size of the loop
    relations = lambda less: sum(mask.bit_count() for mask in less)
    assert relations(star) == 117869
    assert relations(melnikov) == 79846


def test_graded_small():
    for n in range(1, 6):
        assert is_graded(build_poset(n, "star"))


def test_melnikov_and_bruhat_posets_build():
    for order in ("melnikov", "bruhat"):
        poset = build_poset(4, order)
        assert len(poset.elements) == 10
        # identity is the unique bottom in every order here
        bottom = [s for s in poset.elements if poset.covers_of(s) == frozenset()]
        assert bottom == [identity_involution(4)]


def test_hasse_dot_output():
    text = hasse_dot(build_poset(3, "star"))
    assert text.count("->") == 4
    assert text.count("label=") == 4
    assert '"(3,1)"' in text and '"id"' in text


def test_hasse_json_round_trip():
    payload = json.loads(hasse_json(build_poset(3, "star")))
    assert payload["n"] == 3
    assert len(payload["elements"]) == 4
    assert len(payload["covers"]) == 4
    names = payload["elements"]
    edges = {(names[a], names[b]) for a, b in payload["covers"]}
    assert edges == {
        ("(3,1)", "(2,1)"),
        ("(3,1)", "(3,2)"),
        ("(2,1)", "id"),
        ("(3,2)", "id"),
    }


def test_star_and_bruhat_posets_agree():
    for n in range(1, 6):
        star = build_poset(n, "star")
        bruhat = build_poset(n, "bruhat")
        assert star.less == bruhat.less


def test_determinism():
    first = hasse_dot(build_poset(4, "star"))
    build_poset.cache_clear()
    second = hasse_dot(build_poset(4, "star"))
    assert first == second


PAIRWISE = {
    "star": leq_star,
    "melnikov": leq_melnikov,
    "bruhat": lambda tau, sigma: leq_bruhat(to_permutation(tau), to_permutation(sigma)),
}


def implied_or_covers(less):
    """Transitive reduction: drop every relation implied by a two-step path."""
    covers = []
    for below in less:
        implied = 0
        for a in bit_indices(below):
            implied |= less[a]
        covers.append(tuple(bit_indices(below & ~implied)))
    return tuple(covers)


@pytest.mark.parametrize("order", sorted(PAIRWISE))
def test_poset_matches_pairwise_predicate_scan(order):
    pred = PAIRWISE[order]
    for n in range(1, 8):
        elements = enumerate_involutions(n)
        size = len(elements)
        less = [
            sum(1 << a for a in range(size) if a != b and pred(elements[a], elements[b]))
            for b in range(size)
        ]
        poset = build_poset(n, order)
        assert poset.elements == elements
        assert poset.less == tuple(less)
        assert poset.covers == implied_or_covers(less)


@pytest.mark.parametrize("order", sorted(PAIRWISE))
def test_covers_at_n9_are_the_transitive_reduction(order):
    # the pairwise scan above stops at n = 7; this reaches the poset bound
    poset = build_poset(9, order)
    assert poset.covers == implied_or_covers(poset.less)


@pytest.mark.parametrize("order", sorted(PAIRWISE))
def test_build_poset_computes_the_order_relation_once(order, monkeypatch):
    # one joined build of the 76 tables and one all-pairs comparison of
    # them, and no per-table object
    calls = []

    def counting_build(name, sigmas, n):
        calls.append(("joined", name, len(sigmas)))
        return joined_cells(name, sigmas, n)

    def counting_masks(cells, n):
        calls.append(("dominance", len(cells) // (n * n)))
        return dominance_masks(cells, n)

    monkeypatch.setattr(poset_module, "joined_cells", counting_build)
    monkeypatch.setattr(poset_module, "dominance_masks", counting_masks)
    tables = (
        rankorder.star_rank_matrix,
        rankorder.melnikov_rank_matrix,
        rankorder.bruhat_rank_matrix,
    )
    build_poset.cache_clear()
    for table in tables:
        table.cache_clear()
    build_poset(6, order)
    assert calls == [("joined", order, 76), ("dominance", 76)]
    assert all(table.cache_info().currsize == 0 for table in tables)


# distinct 2x2 tables, listed top first: A and B are incomparable with
# entry sum 1 each, C covers both, and the top covers only C
_EQUAL_SUMS = [
    RankMatrix(2, rows)
    for rows in (
        ((1, 2), (1, 1)),  # top
        ((0, 1), (0, 0)),  # B
        ((0, 0), (0, 0)),  # bottom
        ((1, 1), (0, 0)),  # C
        ((1, 0), (0, 0)),  # A
    )
]


@settings(max_examples=150, deadline=None)
@given(
    tables=st.integers(1, 6).flatmap(
        lambda n: st.lists(rank_tables(n), unique=True, max_size=24)
    )
)
@example(tables=_EQUAL_SUMS)
def test_peeled_covers_match_implied_or_reduction(tables):
    # distinct tables, so entrywise dominance is a partial order
    n = tables[0].n if tables else 1
    cells = b"".join(table.cells for table in tables)
    masks = dominance_masks(cells, n)
    less = tuple(mask & ~(1 << b) for b, mask in enumerate(masks))
    assert _lower_covers(cells, n, less) == implied_or_covers(less)


def test_unknown_order():
    with pytest.raises(UnknownSuiteError, match="expected one of"):
        build_poset(3, "nope")
