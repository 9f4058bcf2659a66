"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Every tolerance is exact: these are combinatorial identities checked by
exhaustion at desk scale, not approximations.
"""

import itertools
from contextlib import contextmanager

from borbits import (
    Arc,
    Permutation,
    act,
    apply_move,
    build_poset,
    complement_permutation,
    degeneration,
    degeneration_closed_form,
    enumerate_involutions,
    essential_reduction_check,
    essential_set,
    is_chain,
    is_graded,
    l_sets,
    length,
    leq_star,
    melnikov_rank_matrix,
    near_moves,
    near_prime,
    orbit_dimension,
    orbit_point,
    parse_involution,
    random_borel,
    rank_profile,
    rothe_diagram,
    star_rank_matrix,
    to_permutation,
    z_contains,
    z_spec,
)
from borbits.closure import z_point
from borbits.moves import Move, n_minus, n_plus, n_prime, n_zero

from conftest import bruhat_leq_subword, filter_involutions, leq_bruhat


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL: {label}")
        raise
    print(f"criterion {number:2d} PASS: {label}")


def test_criterion_01_displayed_rank_matrices():
    with criterion(1, "bit-exact reproduction of the four displayed 5x5 matrices"):
        assert melnikov_rank_matrix(parse_involution("(3,1)(5,2)", 5)).rows == (
            (0, 0, 1, 1, 2),
            (0, 0, 0, 0, 1),
            (0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0),
        )
        assert melnikov_rank_matrix(parse_involution("(2,1)(4,3)", 5)).rows == (
            (0, 1, 1, 2, 2),
            (0, 0, 0, 1, 1),
            (0, 0, 0, 1, 1),
            (0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0),
        )
        assert star_rank_matrix(parse_involution("(4,1)(5,2)", 5)).rows == (
            (0, 0, 0, 0, 0),
            (1, 0, 0, 0, 0),
            (1, 2, 0, 0, 0),
            (1, 2, 2, 0, 0),
            (0, 1, 1, 1, 0),
        )
        assert star_rank_matrix(parse_involution("(5,1)(4,2)", 5)).rows == (
            (0, 0, 0, 0, 0),
            (1, 0, 0, 0, 0),
            (1, 2, 0, 0, 0),
            (1, 2, 2, 0, 0),
            (1, 1, 1, 1, 0),
        )


def test_criterion_02_involution_counts():
    with criterion(2, "involution counts 1..764 for n=1..8, against the n! filter"):
        telephone = (1, 2, 4, 10, 26, 76, 232, 764)
        for n in range(1, 9):
            enumerated = enumerate_involutions(n)
            assert len(enumerated) == telephone[n - 1]
            assert len(set(enumerated)) == telephone[n - 1]
            assert set(enumerated) == set(filter_involutions(n))


def test_criterion_03_order_equivalence():
    with criterion(3, "star order coincides with Bruhat-Chevalley order, n <= 8"):
        for n in range(1, 9):
            elements = enumerate_involutions(n)
            perms = [to_permutation(s) for s in elements]
            for a in range(len(elements)):
                for b in range(len(elements)):
                    assert leq_star(elements[a], elements[b]) == leq_bruhat(
                        perms[a], perms[b]
                    )


def test_criterion_04_subword_triangulation():
    with criterion(4, "rank criterion matches the subword oracle on S_n, n <= 5"):
        for n in range(1, 6):
            perms = [Permutation(w) for w in itertools.permutations(range(1, n + 1))]
            for v in perms:
                for w in perms:
                    assert leq_bruhat(v, w) == bruhat_leq_subword(v, w)


def test_criterion_05_cover_set_equalities():
    with criterion(5, "move-side N sets equal order-side L sets, n <= 6"):
        for n in range(1, 7):
            poset = build_poset(n, "star")
            for sigma in poset.elements:
                sets = l_sets(sigma, poset)
                assert n_minus(sigma) == sets.l_minus
                assert n_zero(sigma) == sets.l_zero
                assert n_plus(sigma) == sets.l_plus
                assert n_prime(sigma) == sets.l_prime
                assert near_prime(sigma) == sets.l_star == poset.covers_of(sigma)


def test_criterion_06_arc_count_law():
    with criterion(6, "arc count changes by -1/0/+1 per move kind, n <= 7"):
        deltas = {"remove": -1, "right": 0, "up": 0, "a": 0, "b": 0, "c": 1}
        for n in range(1, 8):
            for sigma in enumerate_involutions(n):
                for move in near_moves(sigma):
                    tau = apply_move(sigma, move)
                    assert len(tau.arcs) - len(sigma.arcs) == deltas[move.kind]


def test_criterion_07_worked_move_examples():
    with criterion(7, "the five worked n=8 move examples reproduce exactly"):
        cases = [
            ("(3,1)(8,2)(7,6)", Move("right", Arc(8, 2)), "(3,1)(8,4)(7,6)"),
            ("(4,1)(7,2)(8,6)", Move("up", Arc(7, 2)), "(4,1)(5,2)(8,6)"),
            ("(5,1)(6,2)(8,4)", Move("a", Arc(6, 2), (8, 4)), "(5,1)(4,2)(8,6)"),
            (
                "(8,1)(3,2)(5,4)(7,6)",
                Move("b", Arc(5, 4), (8, 1)),
                "(5,1)(3,2)(8,4)(7,6)",
            ),
            ("(4,1)(8,2)(7,6)", Move("c", Arc(8, 2), (3, 5)), "(4,1)(3,2)(8,5)(7,6)"),
        ]
        for source, move, target in cases:
            sigma = parse_involution(source, 8)
            assert move in near_moves(sigma)
            assert apply_move(sigma, move) == parse_involution(target, 8)


def test_criterion_08_degeneration_curves():
    with criterion(
        8, "curves equal closed forms identically and limit to the target, n <= 6"
    ):
        for n in range(1, 7):
            for sigma in enumerate_involutions(n):
                for move in near_moves(sigma):
                    result = degeneration(sigma, move)
                    assert result.curve == degeneration_closed_form(sigma, move)
                    assert result.limit == orbit_point(apply_move(sigma, move))


def test_criterion_09_rank_invariance():
    with criterion(9, "rank profile is constant along orbits, 100 samples, n <= 6"):
        for n in range(1, 7):
            for index, sigma in enumerate(enumerate_involutions(n)):
                base = orbit_point(sigma)
                expect = star_rank_matrix(sigma)
                for k in range(100):
                    g = random_borel(n, index * 1_000 + k)
                    assert rank_profile(act(g, base)) == expect


def test_criterion_10_dimension_formula():
    with criterion(10, "orbit dimension equals permutation length, n <= 6"):
        for n in range(1, 7):
            for sigma in enumerate_involutions(n):
                assert orbit_dimension(sigma) == length(to_permutation(sigma))


def test_criterion_11_closure_containment():
    with criterion(
        11,
        "orbit samples lie in the variety, and a sample of each tau in that "
        "of every sigma >=* tau, n <= 6",
    ):
        with_quadrics = 0
        for n in range(1, 7):
            elements = enumerate_involutions(n)
            specs = [z_spec(sigma) for sigma in elements]
            for index, tau in enumerate(elements):
                base = orbit_point(tau)
                for k in range(50):
                    g = random_borel(n, index * 1_000 + k)
                    assert z_contains(specs[index], act(g, base))
                # tau's first sample, read once; a base point would only
                # restate leq_star, having no A^2 support
                first = z_point(act(random_borel(n, index * 1_000), base), n)
                with_quadrics += bool(first[2])
                for sigma, spec in zip(elements, specs):
                    if leq_star(tau, sigma):
                        assert spec.contains(first)
        assert with_quadrics


def test_criterion_12_chain_and_essential_sets():
    with criterion(
        12,
        "diagram/essential sets reproduce, essential reduction holds, "
        "length identity holds",
    ):
        sigma = parse_involution("(8,2)(6,3)", 8)
        w = complement_permutation(sigma)
        # printed list plus (1,1): the defining inequalities include it
        # and the diagram size must equal length(w) = 12
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
        assert len(rothe_diagram(w)) == length(w)
        assert essential_set(w) == {(1, 7), (4, 4), (6, 2)}
        for n in range(1, 7):
            for s in enumerate_involutions(n):
                if is_chain(s):
                    assert essential_reduction_check(s, 2)
        for n in range(1, 8):
            n_phi = n * (n - 1) // 2
            for s in enumerate_involutions(n):
                assert length(complement_permutation(s)) == n_phi - length(
                    to_permutation(s)
                )


def test_criterion_13_gradedness():
    with criterion(13, "all maximal chains between bottom and top agree, n <= 7"):
        for n in range(1, 8):
            assert is_graded(build_poset(n, "star"))
