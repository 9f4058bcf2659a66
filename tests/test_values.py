"""The value types' contract: construction, equality, hashing,
immutability and repr, as the package's callers and error texts see
them."""

import pytest

from borbits import (
    Arc,
    Degeneration,
    Involution,
    LSets,
    Move,
    Permutation,
    Poset,
    RankMatrix,
    SuiteReport,
    ZSpec,
    build_poset,
    degeneration,
    l_sets,
    near_moves,
    parse_involution,
    run_suite,
    star_rank_matrix,
    z_spec,
)

SIGMA = parse_involution("(3,1)(5,2)", 5)
MOVE = Move("a", Arc(3, 1), (4, 2))


def _frozen_values():
    """Each frozen value with the tuple of its fields."""
    sigma = parse_involution("(3,1)", 3)
    table, spec = star_rank_matrix(SIGMA), z_spec(SIGMA)
    sets = l_sets(sigma, build_poset(3))
    curve = degeneration(sigma, near_moves(sigma)[0])
    return [
        (SIGMA, (5, SIGMA.arcs)),
        (Permutation((2, 1, 3)), ((2, 1, 3),)),
        (MOVE, ("a", Arc(3, 1), (4, 2))),
        (Move("remove", Arc(3, 1)), ("remove", Arc(3, 1), None)),
        (table, (5, table.cells)),
        (sets, (sets.l_minus, sets.l_zero, sets.l_plus, sets.l_prime, sets.l_star)),
        (curve, (curve.move, curve.word, curve.curve, curve.limit)),
        (spec, (SIGMA, spec.rank_bounds, spec.quadric_cells)),
    ]


def test_equality_across_classes_is_not_implemented():
    values = [value for value, _ in _frozen_values()]
    for value, fields in _frozen_values():
        # not even the tuple of its own fields
        assert value.__eq__(fields) is NotImplemented
        assert value != fields
        for other in values:
            if type(other) is not type(value):
                assert value.__eq__(other) is NotImplemented
    report = run_suite("counts", 2)
    assert report.__eq__(report.to_dict()) is NotImplemented
    assert report.__eq__(SIGMA) is NotImplemented


def test_hash_is_the_hash_of_the_field_tuple():
    for value, fields in _frozen_values():
        assert hash(value) == hash(fields), value


FIRST_FIELD = {
    Involution: "n",
    Permutation: "one_line",
    Move: "kind",
    RankMatrix: "n",
    LSets: "l_minus",
    Degeneration: "move",
    ZSpec: "sigma",
    Poset: "order",
}


@pytest.mark.parametrize(
    "value",
    [value for value, _ in _frozen_values()] + [build_poset(3)],
    ids=lambda value: type(value).__name__,
)
def test_fields_cannot_be_assigned_or_deleted(value):
    field = FIRST_FIELD[type(value)]
    before = getattr(value, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, before)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        value.other = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    assert getattr(value, field) is before


def test_reprs():
    # the reprs appear in error texts, such as MoveNotApplicableError's
    assert repr(SIGMA) == "Involution(n=5, arcs=(Arc(i=3, j=1), Arc(i=5, j=2)))"
    assert repr(Permutation((2, 1))) == "Permutation(one_line=(2, 1))"
    assert repr(MOVE) == "Move(kind='a', arc=Arc(i=3, j=1), partner=(4, 2))"
    assert repr(Move("remove", Arc(3, 1))) == "Move(kind='remove', arc=Arc(i=3, j=1), partner=None)"
    table = RankMatrix(2, ((0, 0), (1, 0)))
    assert repr(table) == "RankMatrix(n=2, cells=b'\\x00\\x00\\x01\\x00')"
    report = SuiteReport("counts", 2, 3, (), 0.5)
    assert repr(report) == "SuiteReport(suite='counts', n=2, checked=3, failures=(), wall_time=0.5)"


def test_poset_hides_its_index_and_is_equal_only_to_itself():
    poset = build_poset(2)
    assert repr(poset) == (
        "Poset(order='star', n=2, elements=(Involution(n=2, arcs=()), "
        "Involution(n=2, arcs=(Arc(i=2, j=1),))), less=(0, 1), covers=((), (0,)))"
    )
    twin = Poset(poset.order, poset.n, poset.elements, poset.less, poset.covers, poset.index)
    assert twin != poset and poset == poset
    assert hash(poset) == object.__hash__(poset)


def test_suite_report_is_mutable_and_unhashable():
    report = run_suite("counts", 2)
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)
    copy = SuiteReport(**vars(report))
    assert copy == report
    copy.checked += 1
    assert copy != report


def test_keyword_construction_and_the_move_default():
    assert Involution(arcs=(Arc(2, 1),), n=3) == parse_involution("(2,1)", 3)
    assert Permutation(one_line=(1, 2)) == Permutation((1, 2))
    assert Move(kind="remove", arc=Arc(3, 1)) == Move("remove", Arc(3, 1), None)
    assert Move("remove", Arc(3, 1)).partner is None
    spec = z_spec(SIGMA)
    assert ZSpec(quadric_cells=spec.quadric_cells, sigma=SIGMA, rank_bounds=spec.rank_bounds) == spec
    sets = l_sets(parse_involution("(3,1)", 3), build_poset(3))
    assert LSets(**vars(sets)) == sets
    bad_calls = [
        lambda: Move("remove"),
        lambda: Involution(3, (), arcs=()),
        lambda: ZSpec(SIGMA, spec.rank_bounds),
        lambda: ZSpec(SIGMA, spec.rank_bounds, spec.quadric_cells, None),
        lambda: ZSpec(SIGMA, spec.rank_bounds, sigma=SIGMA),
        lambda: ZSpec(SIGMA, spec.rank_bounds, spec.quadric_cells, cells=None),
    ]
    for call in bad_calls:
        with pytest.raises(TypeError):
            call()

