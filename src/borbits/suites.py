"""Named verification suites with machine-readable, replayable reports.

Each suite exhaustively checks one family of statements at a given size.
Reports are deterministic given (n, seed): the serialized form excludes
wall time (kept on the report object for humans) so that two runs are
byte-identical.
"""

from __future__ import annotations

import itertools
import json
import time
from operator import itemgetter

from ._value import Value
from .closure import (
    ESSENTIAL_MAX_N,
    _z_point,
    complement_permutation,
    essential_reduction_check,
    is_chain,
    members,
    z_spec,
)
from .errors import BoundExceededError, IndexOutOfRangeError, UnknownSuiteError
from .involutions import _inversions, enumerate_involutions, format_involution, length
from .moves import (
    _move_outputs,
    n_minus,
    n_plus,
    n_prime,
    n_zero,
    near_prime,
)
from .orbits import (
    _act_numerator,
    _closed_form_entries,
    _random_borel_int,
    _sparse_degeneration,
    orbit_dimension,
)
from .poset import POSET_MAX_N, build_poset, hasse_dot, hasse_json, is_graded, l_sets
from .rankorder import (
    _strict_ranks,
    bit_indices,
    dominance_masks,
    joined_cells,
)
from .ratfunc import Q_ONE


class SuiteReport(Value):
    """Outcome of one suite run; passing means no failure records."""

    suite: str
    n: int
    checked: int
    failures: tuple[dict, ...]
    wall_time: float

    # mutable, so unhashable
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        # wall_time deliberately excluded: reports must be byte-identical
        # across runs for fixed (n, seed)
        return {
            "suite": self.suite,
            "n": self.n,
            "checked": self.checked,
            "failures": list(self.failures),
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_text(self) -> str:
        # counterexample first, aggregate counts after
        lines = [f"suite: {self.suite}", f"n: {self.n}"]
        if self.failures:
            lines.append(
                "first failure: " + json.dumps(self.failures[0], sort_keys=True)
            )
        lines.append(f"checked: {self.checked}")
        lines.append(f"failures: {len(self.failures)}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines) + "\n"


def _suite_counts(n: int, seed: int, samples: int):
    checked, failures = 0, []
    for m in range(1, n + 1):
        enumerated = len(enumerate_involutions(m))
        # the words w of S_m with w o w = id, composed in C; a one-item
        # itemgetter returns a scalar, so id is composed the same way.  A
        # word that does not send its first point home is dropped first
        points = range(m)
        identity = itemgetter(*points)(points)
        filtered = sum(
            1
            for word in itertools.permutations(points)
            if word[word[0]] == 0 and itemgetter(*word)(word) == identity
        )
        checked += 1
        if enumerated != filtered:
            failures.append({"n": m, "enumerated": enumerated, "filtered": filtered})
    return checked, failures


def _suite_order_equivalence(n: int, seed: int, samples: int):
    elements = enumerate_involutions(n)
    stars = dominance_masks(joined_cells("star", elements, n), n)
    fulls = dominance_masks(joined_cells("bruhat", elements, n), n)
    # bit a of stars[b] ^ fulls[b]: the orders disagree on (tau, sigma) = (a, b)
    disagree = sorted(
        (a, b) for b in range(len(elements)) for a in bit_indices(stars[b] ^ fulls[b])
    )
    failures = [
        {
            "tau": format_involution(elements[a]),
            "sigma": format_involution(elements[b]),
            "star": bool(stars[b] >> a & 1),
            "bruhat": bool(fulls[b] >> a & 1),
        }
        for a, b in disagree
    ]
    return len(elements) ** 2, failures


def _suite_covers(n: int, seed: int, samples: int):
    poset = build_poset(n, "star")
    checked, failures = 0, []
    for sigma in poset.elements:
        sets = l_sets(sigma, poset)
        covering = near_prime(sigma)
        # set name -> (move side, order side)
        compared = {
            "minus": (n_minus(sigma), sets.l_minus),
            "zero": (n_zero(sigma), sets.l_zero),
            "plus": (n_plus(sigma), sets.l_plus),
            "prime": (n_prime(sigma), sets.l_prime),
            "covering": (covering, poset.covers_of(sigma)),
        }
        checked += 1
        for name, (by_moves, by_order) in compared.items():
            if by_moves != by_order:
                failures.append(
                    {
                        "sigma": format_involution(sigma),
                        "set": name,
                        "moves": sorted(map(format_involution, by_moves)),
                        "order": sorted(map(format_involution, by_order)),
                    }
                )
        if covering != sets.l_star:
            failures.append(
                {"sigma": format_involution(sigma), "set": "l_star mismatch"}
            )
    return checked, failures


def _suite_graded(n: int, seed: int, samples: int):
    poset = build_poset(n, "star")
    edges = sum(len(c) for c in poset.covers)
    failures = []
    if not is_graded(poset):
        failures.append({"n": n, "detail": "maximal chains of unequal length"})
    # Incitti's rank (length + arcs) / 2, a route apart from the poset's
    # longest-path ranks, rises by one along every cover
    elements = poset.elements
    rank = [(_inversions(s.one_line()) + len(s.arcs)) // 2 for s in elements]
    failures += [
        {
            "sigma": format_involution(elements[b]),
            "covers": format_involution(elements[a]),
            "detail": "cover skips an Incitti rank",
        }
        for b, lower in enumerate(poset.covers)
        for a in lower
        if rank[b] != rank[a] + 1
    ]
    return edges, failures


def _suite_dimension(n: int, seed: int, samples: int):
    checked, failures = 0, []
    for sigma in enumerate_involutions(n):
        checked += 1
        dim = orbit_dimension(sigma)
        expect = _inversions(sigma.one_line())
        if dim != expect:
            failures.append(
                {"sigma": format_involution(sigma), "dimension": dim, "length": expect}
            )
    return checked, failures


def _orbit_samples(n: int, seed: int, samples: int, index: int, sigma):
    """(seed, det(g) act(g, base)) per sampled g: an integer multiple of
    the acted point, with its corner ranks and its vanishing quadrics.  The
    typing boundary: g is drawn as its int columns, and
    :func:`_act_numerator` acts on sigma's arcs, listed once, from the
    rows of adj(g) at the arcs' columns; it fills only cells below the
    diagonal, so the suites rank the points unchecked and read their
    quadrics at the cells a test reads."""
    arcs = [(i - 1, j - 1, 1) for i, j in sigma.arcs]
    for k in range(samples):
        sample_seed = seed * 1_000_003 + index * 1_000 + k
        yield sample_seed, _act_numerator(_random_borel_int(n, sample_seed), arcs)[0]


def _suite_rank_invariance(n: int, seed: int, samples: int):
    checked, failures = 0, []
    elements = enumerate_involutions(n)
    # sigma's expected table is its slice of one joined product
    tables, size = joined_cells("star", elements, n), n * n
    for index, sigma in enumerate(elements):
        expect = tables[index * size : (index + 1) * size]
        for sample_seed, point in _orbit_samples(n, seed, samples, index, sigma):
            checked += 1
            if _strict_ranks(point, n) != expect:
                failures.append(
                    {"sigma": format_involution(sigma), "seed": sample_seed}
                )
    return checked, failures


def _suite_degeneration(n: int, seed: int, samples: int):
    checked, failures = 0, []
    for sigma in enumerate_involutions(n):
        for move, tau in _move_outputs(sigma).items():
            checked += 1
            _, curve, limit = _sparse_degeneration(sigma, move, tau)  # a pole raises here
            if curve != _closed_form_entries(sigma, move, tau):
                detail = "curve != closed form"
            elif limit != dict.fromkeys(tau.arcs, Q_ONE):
                detail = "limit != target functional"
            else:
                continue
            partner = list(move.partner) if move.partner else None
            record = {"sigma": format_involution(sigma), "move": move.kind, "arc": list(move.arc)}
            failures.append({**record, "partner": partner, "detail": detail})
    return checked, failures


def _suite_closure(n: int, seed: int, samples: int):
    elements = enumerate_involutions(n)
    specs = [z_spec(sigma) for sigma in elements]
    # bit a of below[b]: elements[a] <=* elements[b]
    below = dominance_masks(b"".join(spec.rank_bounds.cells for spec in specs), n)
    # sigma's samples against its own variety, the first read at every
    # cell and kept for the pairs; a base point, of ranks star(tau) and
    # A^2 = 0, would retest below
    first_points, escaped = [], []
    for index, spec in enumerate(specs):
        seeds = []
        for k, (sample_seed, raw) in enumerate(_orbit_samples(n, seed, samples, index, spec.sigma)):
            if k == 0:
                point = _z_point(raw)
                first_points.append(point)
            else:
                point = _z_point(raw, spec.quadric_cells)
            if not spec.contains(point):
                seeds.append(sample_seed)
        escaped.append(seeds)
    # tau's first orbit point against Z_sigma for every tau <=* sigma, in one pass
    inside = members(specs, first_points)
    failures = []
    for sigma, seeds, lower, within in zip(elements, escaped, below, inside):
        name = format_involution(sigma)
        failures += [{"sigma": name, "seed": sample_seed} for sample_seed in seeds]
        failures += [
            {
                "sigma": name,
                "tau": format_involution(elements[a]),
                "detail": "orbit point of comparable tau escapes variety",
            }
            for a in bit_indices(lower & ~within)
        ]
    checked = len(elements) * samples + sum(mask.bit_count() for mask in below)
    return checked, failures


def _suite_essential_set(n: int, seed: int, samples: int):
    checked, failures = 0, []
    n_phi = n * (n - 1) // 2
    for sigma in enumerate_involutions(n):
        w = complement_permutation(sigma)
        checked += 1
        if length(w) != n_phi - _inversions(sigma.one_line()):
            failures.append(
                {"sigma": format_involution(sigma), "detail": "length identity fails"}
            )
        if is_chain(sigma):
            checked += 1
            if not essential_reduction_check(sigma, 2):
                failures.append(
                    {
                        "sigma": format_involution(sigma),
                        "detail": "essential cells do not pin the rank bounds",
                    }
                )
    return checked, failures


# name -> (suite, largest n it accepts)
_SUITES = {
    "counts": (_suite_counts, 10),
    "order-equivalence": (_suite_order_equivalence, 10),
    "covers": (_suite_covers, 10),
    "graded": (_suite_graded, 10),
    "dimension": (_suite_dimension, 10),
    "rank-invariance": (_suite_rank_invariance, 7),
    "degeneration": (_suite_degeneration, 10),
    "closure": (_suite_closure, 7),
    "essential-set": (_suite_essential_set, ESSENTIAL_MAX_N),
}


def suite_names() -> tuple[str, ...]:
    return tuple(sorted(_SUITES))


def run_suite(name: str, n: int, seed: int = 0, samples: int = 100) -> SuiteReport:
    """Run one named suite at size n.  Deterministic given (n, seed)."""
    if name not in _SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; expected one of {', '.join(suite_names())}"
        )
    for label, value in (("n", n), ("seed", seed), ("samples", samples)):
        if type(value) is not int:
            raise IndexOutOfRangeError(f"{label} must be an int, got {value!r}")
    suite, bound = _SUITES[name]
    if not 1 <= n <= bound:
        raise BoundExceededError(f"suite {name!r} accepts 1 <= n <= {bound}")
    if samples < 1:
        raise IndexOutOfRangeError(f"samples must be >= 1, got {samples}")
    start = time.perf_counter()
    checked, failures = suite(n, seed, samples)
    # failures keep enumeration order, so the first is the smallest instance
    failures = tuple(failures)
    return SuiteReport(
        suite=name,
        n=n,
        checked=checked,
        failures=failures,
        wall_time=time.perf_counter() - start,
    )


def emit_hasse(n: int, order: str = "star", format: str = "dot") -> str:
    """Render the covering diagram of all involutions of S_n."""
    if not 1 <= n <= POSET_MAX_N:
        raise BoundExceededError(f"hasse rendering accepts 1 <= n <= {POSET_MAX_N}")
    if format not in ("dot", "json"):
        raise UnknownSuiteError(f"unknown format {format!r}; expected dot or json")
    poset = build_poset(n, order)
    if format == "dot":
        return hasse_dot(poset)
    return hasse_json(poset) + "\n"
