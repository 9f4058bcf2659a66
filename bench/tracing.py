"""Per-layer tracing of borbits from outside the package.

``install()`` wraps public functions of the modules in ``src/borbits``.
Modules import each other's functions by name (``from .orbits import
act``), so a wrapper replaces the function in every ``borbits`` module
namespace that binds it, not only in the module that defines it.

Two kinds of wrapper:

- a timed wrapper records a span (name, start, end, parent) in flat
  in-memory arrays; self time is a span minus the time its child spans
  cover;
- a counting wrapper only increments a counter.  It is used for the tiny
  hot calls (``RFun`` ``*`` and ``+``, ``poly_mul``) whose cost a timed
  wrapper would swamp.

``lru_cache`` hit ratios come from ``cache_info()`` of the original
cached functions.
"""

import json
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

from borbits import closure, matrices, moves, orbits, poset, rankorder, ratfunc, suites
from borbits import cli, involutions
from borbits.ratfunc import RFun

# layer name -> (module, function name); each call becomes a span
TIMED = {
    "orbits.act": (orbits, "act"),
    "orbits.rank_profile": (orbits, "rank_profile"),
    "orbits.random_borel": (orbits, "random_borel"),
    "orbits.degeneration": (orbits, "degeneration"),
    "orbits.degeneration_closed_form": (orbits, "degeneration_closed_form"),
    "orbits.orbit_dimension": (orbits, "orbit_dimension"),
    "matrices.mat_mul": (matrices, "mat_mul"),
    "matrices.upper_inverse": (matrices, "upper_inverse"),
    "rankorder.leq_star": (rankorder, "leq_star"),
    "poset.build_poset": (poset, "build_poset"),
    "poset.l_sets": (poset, "l_sets"),
    "poset.is_graded": (poset, "is_graded"),
    "poset.hasse_dot": (poset, "hasse_dot"),
    "moves.near_prime": (moves, "near_prime"),
    "closure.z_contains": (closure, "z_contains"),
    "involutions.enumerate_involutions": (involutions, "enumerate_involutions"),
    "suites.emit_hasse": (suites, "emit_hasse"),
}

# layer name -> (module, function name); each call is only counted
COUNTED = {
    "rankorder.exact_rank": (rankorder, "exact_rank"),
    "moves.near_moves": (moves, "near_moves"),
    "moves.apply_move": (moves, "apply_move"),
    "ratfunc.poly_mul": (ratfunc, "poly_mul"),
    # corner-rank tables over F_2 (bit rows) and over GF(q), q odd
    "closure.corner_tables.bits": (closure, "_corner_rank_table_bits"),
    "closure.corner_tables.gf": (closure, "_corner_rank_table_gf"),
}

# metric prefix -> the lru_cache whose cache_info() gives its hit ratio
CACHES = {
    "rankorder.star_rank_matrix": rankorder.star_rank_matrix,
    "rankorder.bruhat_rank_matrix": rankorder.bruhat_rank_matrix,
    "moves.near_moves": moves.near_moves,
    "closure.corner_tables": closure._all_corner_rank_tables,
}

_ONE_POLY = (Fraction(1),)


def _is_zero(x) -> bool:
    return not x.num if isinstance(x, RFun) else x == 0


def _is_trivial(x) -> bool:
    """A factor of 0 or 1, the products that could be skipped."""
    if isinstance(x, RFun):
        return not x.num or (x.num == _ONE_POLY and x.den == _ONE_POLY)
    return x == 0 or x == 1


def _rebind(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` wherever a borbits module binds it."""
    for name, module in list(sys.modules.items()):
        if name != "borbits" and not name.startswith("borbits."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class Tracer:
    """Spans and counters of one operation, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.checked = 0

    def timed(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(index)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """Per layer: calls, inclusive and self seconds; calls per
        (parent layer, layer) edge; counters; cache hits and misses."""
        count = len(self.span_name)
        child = [0.0] * count
        for k in range(count):
            parent = self.span_parent[k]
            if parent >= 0:
                child[parent] += self.span_end[k] - self.span_start[k]
        layers: dict[str, dict] = {}
        edges: Counter = Counter()
        for k in range(count):
            name = self.names[self.span_name[k]]
            duration = self.span_end[k] - self.span_start[k]
            row = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - child[k]
            parent = self.span_parent[k]
            parent_name = self.names[self.span_name[parent]] if parent >= 0 else ""
            edges[f"{parent_name}>{name}"] += 1
        caches = {}
        for prefix, cached in CACHES.items():
            info = cached.cache_info()
            caches[prefix] = {"hits": info.hits, "misses": info.misses}
        return {
            "layers": layers,
            "edges": dict(edges),
            "counts": dict(self.counts),
            "caches": caches,
            "checked": self.checked,
        }

    def write_spans(self, path: str) -> None:
        """Write every span as [name, parent index, start, end] rows."""
        with open(path, "w") as out:
            json.dump({"names": self.names,
                       "fields": ["name", "parent", "start_s", "end_s"]}, out)
            out.write("\n")
            for k in range(len(self.span_name)):
                out.write("%d %d %.9f %.9f\n" % (self.span_name[k], self.span_parent[k],
                                                 self.span_start[k], self.span_end[k]))


def install() -> Tracer:
    """Wrap the traced layers of the imported borbits package."""
    tracer = Tracer()
    for name, (module, attr) in TIMED.items():
        original = getattr(module, attr)
        _rebind(original, tracer.timed(name, original))
    for name, (module, attr) in COUNTED.items():
        original = getattr(module, attr)
        _rebind(original, tracer.counted(name, original))

    run_suite = suites.run_suite
    timed_run_suite = tracer.timed("suites.run_suite", run_suite)

    def run_suite_checked(*args, **kwargs):
        report = timed_run_suite(*args, **kwargs)
        tracer.checked += report.checked
        return report

    _rebind(run_suite, run_suite_checked)

    # the F_2 and GF(q) sides of the field sweep are reported apart
    check = closure.essential_reduction_check
    by_q = {q: tracer.timed(f"closure.essential_reduction_check.q{q}", check) for q in (2, 3)}

    def check_by_q(sigma, q):
        return by_q.get(q, check)(sigma, q)

    _rebind(check, check_by_q)

    cli.main = tracer.timed("cli.main", cli.main)

    counts = tracer.counts
    mul, add = RFun.__mul__, RFun.__add__

    def counted_mul(self, other):
        counts["ratfunc.mul"] += 1
        if _is_trivial(self) or _is_trivial(other):
            counts["ratfunc.mul.trivial"] += 1
        return mul(self, other)

    def counted_add(self, other):
        counts["ratfunc.add"] += 1
        if _is_zero(self) or _is_zero(other):
            counts["ratfunc.add.zero"] += 1
        return add(self, other)

    RFun.__mul__ = RFun.__rmul__ = counted_mul
    RFun.__add__ = RFun.__radd__ = counted_add
    return tracer
