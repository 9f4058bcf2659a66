import json

import pytest

from borbits import (
    SuiteReport,
    bruhat_rank_matrix,
    emit_hasse,
    enumerate_involutions,
    format_involution,
    leq_star,
    parse_involution,
    run_suite,
    star_rank_matrix,
    suite_names,
    to_permutation,
    z_spec,
)
from borbits import closure, orbits, suites
from borbits.closure import z_point
from borbits.poset import Poset, build_poset, is_graded
from borbits.errors import BoundExceededError, IndexOutOfRangeError, UnknownSuiteError
from borbits.rankorder import _dominated

from conftest import composing_involution_count, dense_degeneration_suite


def test_suite_names_complete():
    assert set(suite_names()) == {
        "counts",
        "order-equivalence",
        "covers",
        "graded",
        "dimension",
        "rank-invariance",
        "degeneration",
        "closure",
        "essential-set",
    }


def test_counts_suite():
    report = run_suite("counts", 5)
    assert report.passed and report.checked == 5
    assert report.suite == "counts" and report.n == 5


def test_counts_filter_matches_the_composing_oracle(monkeypatch):
    # with no involution enumerated, every m fails and its record shows
    # the filtered count, which must be the composing filter's
    monkeypatch.setattr(suites, "enumerate_involutions", lambda m: ())
    checked, failures = suites._suite_counts(8, 0, 1)
    assert checked == 8
    assert [record["filtered"] for record in failures] == [
        composing_involution_count(m) for m in range(1, 9)
    ]
    assert [record["n"] for record in failures] == list(range(1, 9))


def test_order_equivalence_suite_small():
    report = run_suite("order-equivalence", 5)
    assert report.passed
    assert report.checked == 26 * 26


def test_order_equivalence_failures_keep_pairwise_records(monkeypatch):
    # give (2,1) the Bruhat table of (3,1)(4,2): the orders then disagree
    # on a few pairs, which must be reported as the pairwise scan would
    elements = enumerate_involutions(4)
    bruhat = {s: bruhat_rank_matrix(to_permutation(s)) for s in elements}
    bruhat[parse_involution("(2,1)", 4)] = bruhat[parse_involution("(3,1)(4,2)", 4)]
    built = suites.joined_cells

    def swapped(order, sigmas, n):
        if order != "bruhat":
            return built(order, sigmas, n)
        return b"".join(bruhat[s].cells for s in sigmas)

    monkeypatch.setattr(suites, "joined_cells", swapped)
    want = []
    for tau in elements:
        for sigma in elements:
            star = _dominated(star_rank_matrix(tau), star_rank_matrix(sigma))
            full = _dominated(bruhat[tau], bruhat[sigma])
            if star != full:
                want.append(
                    {
                        "tau": format_involution(tau),
                        "sigma": format_involution(sigma),
                        "star": star,
                        "bruhat": full,
                    }
                )
    report = run_suite("order-equivalence", 4)
    assert report.checked == 100
    assert 0 < len(want) < 100
    assert list(report.failures) == want


def test_dimension_suite_trivial():
    report = run_suite("dimension", 1)
    assert report.passed and report.checked == 1


def test_covers_and_graded_suites():
    assert run_suite("covers", 4).passed
    assert run_suite("graded", 5).passed


def test_graded_suite_checks_covers_against_incittis_rank(monkeypatch):
    # a wrong cover set whose longest-path ranks still agree along every
    # cover: the top (3,1) covers only id, so is_graded cannot see it
    poset = build_poset(3, "star")
    top = poset.index_of(parse_involution("(3,1)", 3))
    bottom = poset.index_of(parse_involution("id", 3))
    covers = list(poset.covers)
    covers[top] = (bottom,)
    wrong = Poset(poset.order, poset.n, poset.elements, poset.less, tuple(covers), poset.index)
    assert is_graded(wrong)
    monkeypatch.setattr(suites, "build_poset", lambda n, order: wrong)
    report = run_suite("graded", 3)
    assert report.checked == 3
    assert list(report.failures) == [
        {"sigma": "(3,1)", "covers": "id", "detail": "cover skips an Incitti rank"}
    ]


def test_sampled_suites_at_their_bounds():
    # a few samples per involution of S_7, the bound of both
    assert run_suite("rank-invariance", 7, samples=2).passed
    assert run_suite("closure", 7, samples=2).passed


def test_sampled_suites_small():
    assert run_suite("rank-invariance", 3, seed=1, samples=5).passed
    assert run_suite("closure", 3, seed=1, samples=5).passed
    assert run_suite("degeneration", 4).passed
    assert run_suite("essential-set", 3).passed


def per_pair_closure(n: int, samples: int) -> tuple[int, list]:
    """The closure suite with one contains call per sample and per
    comparable pair, through whatever the test patched."""
    elements = enumerate_involutions(n)
    drawn = [
        [z_point(raw, n) for _, raw in suites._orbit_samples(n, 0, samples, index, sigma)]
        for index, sigma in enumerate(elements)
    ]
    checked, failures = 0, []
    for index, sigma in enumerate(elements):
        spec = z_spec(sigma)
        for k, point in enumerate(drawn[index]):
            checked += 1
            if not spec.contains(point):
                failures.append({"sigma": format_involution(sigma), "seed": index * 1_000 + k})
        for tau, points in zip(elements, drawn):
            if leq_star(tau, sigma):
                checked += 1
                if not spec.contains(points[0]):
                    failures.append(
                        {
                            "sigma": format_involution(sigma),
                            "tau": format_involution(tau),
                            "detail": "orbit point of comparable tau escapes variety",
                        }
                    )
    return checked, failures


def test_closure_suite_checks_orbit_points_of_comparable_pairs(monkeypatch):
    # with a quadric on every cell the comparable pairs must fail as well,
    # which they cannot on a base point: its A^2 is 0.  The records are
    # those of the per-pair loop, in its order
    def every_cell(sigma):
        return frozenset((r, s) for r in range(2, sigma.n + 1) for s in range(1, r))

    monkeypatch.setattr(closure, "quadric_cells", every_cell)
    report = run_suite("closure", 4)
    assert any("tau" in failure for failure in report.failures)
    assert (report.checked, list(report.failures)) == per_pair_closure(4, 100)


def test_closure_suite_records_first_points_off_their_orbits(monkeypatch):
    # every third involution's first sample swapped for the all-ones
    # strictly lower matrix, of full corner ranks and A^2 != 0: it fails
    # its own variety and those above it, as the per-pair loop reports
    samples = suites._orbit_samples

    def drawn(n, seed, count, index, sigma):
        for k, (sample_seed, raw) in enumerate(samples(n, seed, count, index, sigma)):
            if k == 0 and index % 3 == 1:
                raw = tuple(tuple(int(c < r) for c in range(n)) for r in range(n))
            yield sample_seed, raw

    monkeypatch.setattr(suites, "_orbit_samples", drawn)
    report = run_suite("closure", 4, samples=5)
    assert any("tau" in failure for failure in report.failures)
    assert (report.checked, list(report.failures)) == per_pair_closure(4, 5)


@pytest.mark.parametrize(
    "args",
    [("counts", 2.5), ("counts", True), ("counts", "3"), ("closure", 3, 1.5),
     ("closure", 3, 0, 2.0)],
    ids=["float-n", "bool-n", "str-n", "float-seed", "float-samples"],
)
def test_non_int_size_seed_or_samples_is_rejected(args):
    with pytest.raises(IndexOutOfRangeError):
        run_suite(*args)


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("bogus", 3)


# suite -> the largest n it accepts
_BOUNDS = {
    "counts": 10,
    "order-equivalence": 10,
    "covers": 10,
    "graded": 10,
    "dimension": 10,
    "rank-invariance": 7,
    "degeneration": 10,
    "closure": 7,
    "essential-set": 7,
}


@pytest.mark.parametrize("name", sorted(suites._SUITES))
def test_every_suite_rejects_one_past_its_bound(name):
    bound = _BOUNDS[name]
    assert suites._SUITES[name][1] == bound
    with pytest.raises(BoundExceededError, match=f"accepts 1 <= n <= {bound}"):
        run_suite(name, bound + 1)


def test_bound_exceeded():
    assert set(_BOUNDS) == set(suites._SUITES)
    with pytest.raises(BoundExceededError):
        emit_hasse(11)


def test_covers_suite_at_its_bound():
    # moves and down-set unions agree on every involution of S_10
    report = run_suite("covers", 10)
    assert report.passed and report.checked == 9496


def test_degeneration_suite_at_its_bound():
    report = run_suite("degeneration", 10)
    assert report.passed and report.checked == 76889


@pytest.mark.parametrize("patched", ["closed form", "target", "both"])
@pytest.mark.parametrize("kind", ["remove", "right", "up", "a", "b", "c"])
def test_degeneration_failures_are_those_of_the_dense_suite(monkeypatch, kind, patched):
    # the closed form loses its eps entry on moves of one kind, and/or
    # the table gives the move's input as the output tau of that kind's
    # moves; with both, every move's tau is its input, and that kind's
    # moves must stop at the curve mismatch
    closed_form, table = orbits._closed_form_entries, suites._move_outputs

    def dropped(sigma, move, tau):
        entries = closed_form(sigma, move, tau)
        if move.kind == kind:
            del entries[move.arc]
        return entries

    def wrong_target(sigma):
        return {
            move: sigma if patched == "both" or move.kind == kind else tau
            for move, tau in table(sigma).items()
        }

    if patched != "target":
        monkeypatch.setattr(orbits, "_closed_form_entries", dropped)
        monkeypatch.setattr(suites, "_closed_form_entries", dropped)
    if patched != "closed form":
        monkeypatch.setattr(suites, "_move_outputs", wrong_target)
    report = run_suite("degeneration", 4)
    checked, failures = dense_degeneration_suite(4)
    assert report.failures and report.checked == checked == 20
    assert report.failures == tuple(failures)
    expect = SuiteReport("degeneration", 4, checked, tuple(failures), 0.0)
    assert report.to_json() == expect.to_json()
    assert report.to_text() == expect.to_text()
    if patched == "both":
        assert len(report.failures) == 20
        assert {f["detail"] for f in report.failures if f["move"] == kind} == {
            "curve != closed form"
        }


def test_graded_suite_at_its_bound():
    # every cover edge of the n = 10 star poset raises the rank by one
    report = run_suite("graded", 10)
    assert report.passed and report.checked == 67486


def test_essential_set_suite_at_its_bound():
    # 232 involutions of S_7, 64 of them chains, over 130,922 tables
    report = run_suite("essential-set", 7)
    assert report.passed and report.checked == 296


def test_emit_hasse_checks_the_format_before_building_the_poset(monkeypatch):
    def build_poset(n, order="star"):
        raise AssertionError("poset built for an unknown format")

    monkeypatch.setattr(suites, "build_poset", build_poset)
    with pytest.raises(UnknownSuiteError, match="unknown format 'svg'; expected dot or json"):
        emit_hasse(8, format="svg")


def test_emit_hasse_unknown_order():
    with pytest.raises(UnknownSuiteError):
        emit_hasse(3, order="nope")


def test_report_serialization_deterministic():
    first = run_suite("rank-invariance", 3, seed=2, samples=4)
    second = run_suite("rank-invariance", 3, seed=2, samples=4)
    assert first.to_json() == second.to_json()
    assert first.to_text() == second.to_text()
    # wall time varies between runs but never reaches the report
    assert "wall_time" not in first.to_json()
    assert first.wall_time >= 0.0


def test_report_json_round_trips():
    report = run_suite("counts", 4)
    parsed = json.loads(report.to_json())
    assert parsed["suite"] == "counts"
    assert parsed["checked"] == 4
    assert parsed["passed"] is True
    assert parsed["failures"] == []


def test_report_text_shape():
    text = run_suite("graded", 4).to_text()
    lines = text.strip().splitlines()
    assert lines[0] == "suite: graded"
    assert lines[-1] == "PASS"


def test_failed_report_rendering():
    report = SuiteReport(
        suite="demo",
        n=3,
        checked=2,
        failures=({"sigma": "(2,1)", "detail": "made up"},),
        wall_time=0.0,
    )
    text = report.to_text()
    assert "first failure" in text and text.strip().endswith("FAIL")
    assert not report.passed
    assert json.loads(report.to_json())["passed"] is False


def test_emit_hasse_dot():
    text = emit_hasse(2)
    assert text.count("->") == 1 and text.count("label=") == 2
    assert emit_hasse(3).count("->") == 4
    assert emit_hasse(4).count("label=") == 10


def test_emit_hasse_json():
    payload = json.loads(emit_hasse(3, format="json"))
    assert len(payload["elements"]) == 4
    assert len(payload["covers"]) == 4
