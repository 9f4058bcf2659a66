"""The borbits benchmark: run one workload, print one JSON result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A closed loop with a single client: one operation at a time, each in a
fresh interpreter (``bench/op.py``), because that is what a ``borbits``
user pays for; every invocation starts with cold ``lru_cache``s.  A run
repeats passes over the workload's operations for about ``--seconds``.
Operations are ``borbits.cli.main(argv)`` calls, or one public library
call; the program sees only the argv generated from ``--seed``.  Times
are reported at reference host speed, rescaled by a probe that runs
beside each operation (``bench/probe.py``).

With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` the run alternates untraced and
traced passes and the result holds the per-layer metrics, including the
tracing overhead.  See bench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"

# orbit samples per involution in orbit-sample; the CLI default of 100
# would make one pass take about 40 s
SAMPLES = 10

# every run, with its last pass, ends well inside the 180 s allowed
RUN_LIMIT_S = 170.0


def _verify(suite: str, n: int, *extra: str) -> dict:
    return {"argv": ["verify", suite, "--n", str(n), *extra, "--format", "json"]}


def _orbit_sample(seed: int, tiny: bool) -> list[dict]:
    n, samples = (4, 2) if tiny else (6, SAMPLES)
    seeded = (f"--seed={seed}", f"--samples={samples}")
    return [_verify("rank-invariance", n, *seeded), _verify("closure", n, *seeded)]


def _degenerate(seed: int, tiny: bool) -> list[dict]:
    return [_verify("degeneration", 4 if tiny else 6)]


def _order_poset(seed: int, tiny: bool) -> list[dict]:
    big, graded, small = (4, 4, 4) if tiny else (8, 7, 6)
    return [
        _verify("order-equivalence", big),
        {"argv": ["hasse", "--n", str(big), "--order", "star", "--format", "dot"]},
        _verify("graded", graded),
        _verify("covers", small),
        _verify("counts", big),
        _verify("dimension", small),
    ]


def _field_sweep(seed: int, tiny: bool) -> list[dict]:
    # the chain involutions of S_n: every involution of S_2 and S_3 is one
    n, chains = (2, ("id", "(2,1)")) if tiny else (3, ("id", "(2,1)", "(3,1)", "(3,2)"))
    sweep = {"call": "essential_reduction_check", "sigmas": list(chains), "n": n, "q": 3}
    return [_verify("essential-set", n + 1), sweep]


WORKLOADS = {
    "orbit-sample": _orbit_sample,
    "degenerate": _degenerate,
    "order-poset": _order_poset,
    "field-sweep": _field_sweep,
}


def operation_key(op: dict) -> str:
    """The operation as a command line; the key of its golden digest."""
    if "argv" in op:
        return "borbits " + " ".join(op["argv"])
    return f"{op['call']} --n {op['n']} --q {op['q']} " + " ".join(op["sigmas"])


def load_goldens() -> dict:
    return json.loads(GOLDEN.read_text())


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_op(op: dict, trace: bool, timeout: float, spans_path: Path | None = None) -> dict:
    """Spawn one fresh interpreter for one operation; return its record
    plus its raw seconds ``setup_s`` and ``wall_s`` and the same at
    reference speed, ``setup_ref_s`` and ``wall_ref_s``, or an ``error``
    and no times."""
    if timeout <= 0:
        return {"error": "run time limit reached", "timeout": True}
    argv = [sys.executable, str(BENCH / "op.py"), json.dumps(op), "1" if trace else "0"]
    if trace:
        argv.append(str(spans_path))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawn = _clock()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "timeout": True}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - spawn
    record["setup_ref_s"] = probe.at_reference(record["setup_s"], record["probe_setup"])
    # the probes taken during the operation are not the operation's time
    record["wall_s"] = record["end"] - record["start"] - sum(record["probe_op"])
    record["wall_ref_s"] = probe.at_reference(record["wall_s"],
                                              record["probe_setup"] + record["probe_op"])
    if "error" in record:  # the operation raised; keep the exception line
        record["error"] = record["error"].strip().splitlines()[-1]
    return record


def _check(record: dict, op: dict, goldens: dict) -> str | None:
    """Why the operation failed, or None when it passed."""
    if "error" in record:
        return record["error"]
    if not record["passed"]:
        return f"verdict FAIL (exit code {record['exit']})"
    want = goldens.get(operation_key(op))
    if want is not None and record["sha256"] != want:
        return f"stdout digest {record['sha256'][:12]} != golden {want[:12]}"
    return None


def _layer_metrics(ops: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, summed over its operations."""
    layers, edges, counts, caches, checked = {}, {}, {}, {}, 0
    for op in ops:
        summary = op["layers"]
        for name, row in summary["layers"].items():
            total = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += row[key]
        for table, into in ((summary["edges"], edges), (summary["counts"], counts)):
            for key, value in table.items():
                into[key] = into.get(key, 0) + value
        for name, info in summary["caches"].items():
            total = caches.setdefault(name, {"hits": 0, "misses": 0})
            total["hits"] += info["hits"]
            total["misses"] += info["misses"]
        checked += summary["checked"]

    def layer(name: str, key: str):
        return layers.get(name, {}).get(key, 0)

    def share(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    def hit_ratio(name: str) -> float:
        info = caches[name]
        return share(info["hits"], info["hits"] + info["misses"])

    out = {}
    for name in ("orbits.act", "orbits.rank_profile", "orbits.degeneration",
                 "matrices.mat_mul", "matrices.upper_inverse", "rankorder.leq_star",
                 "closure.z_contains"):
        out[f"{name}.calls"] = layer(name, "calls")
        out[f"{name}.s"] = layer(name, "s")
    out["orbits.act.self_s"] = layer("orbits.act", "self_s")
    for name in ("orbits.random_borel", "orbits.degeneration_closed_form",
                 "orbits.orbit_dimension", "poset.build_poset", "poset.l_sets",
                 "poset.is_graded", "poset.hasse_dot", "moves.near_prime",
                 "closure.essential_reduction_check.q2",
                 "closure.essential_reduction_check.q3",
                 "involutions.enumerate_involutions", "suites.run_suite"):
        out[f"{name}.s"] = layer(name, "s")
    for name in ("ratfunc.mul", "ratfunc.add", "ratfunc.poly_mul",
                 "rankorder.exact_rank", "moves.near_moves", "moves.apply_move"):
        out[f"{name}.calls"] = counts.get(name, 0)
    out["ratfunc.mul.trivial_ratio"] = share(counts.get("ratfunc.mul.trivial", 0),
                                             counts.get("ratfunc.mul", 0))
    out["ratfunc.add.zero_ratio"] = share(counts.get("ratfunc.add.zero", 0),
                                          counts.get("ratfunc.add", 0))
    out["rankorder.star_rank_matrix.hit_ratio"] = hit_ratio("rankorder.star_rank_matrix")
    out["rankorder.bruhat_rank_matrix.hit_ratio"] = hit_ratio("rankorder.bruhat_rank_matrix")
    out["poset.build_poset.pred_calls"] = edges.get("poset.build_poset>rankorder.leq_star", 0)
    out["moves.near_moves.hit_ratio"] = hit_ratio("moves.near_moves")
    out["closure.corner_tables.count"] = (counts.get("closure.corner_tables.bits", 0)
                                          + counts.get("closure.corner_tables.gf", 0))
    out["closure.corner_tables.hit_ratio"] = hit_ratio("closure.corner_tables")
    out["suites.checked"] = checked
    out["suites.checks_per_s"] = share(checked, layer("suites.run_suite", "s"))
    out["cli.overhead_s"] = (layer("cli.main", "s") - layer("suites.run_suite", "s")
                             - layer("suites.emit_hasse", "s"))
    return out


def environment() -> dict:
    """Interpreter, code version and size; recorded beside the results."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    env = {"python": platform.python_version(), "git_sha": sha, "nproc": os.cpu_count()}
    for path in sorted((SRC / "borbits").glob("*.py")):
        text = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + text)
        env[f"src.lines.{path.stem}"] = text.count(b"\n")
    env["src.sha256"] = digest.hexdigest()
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, goldens: dict | None = None) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and human-readable lines."""
    ops = WORKLOADS[name](seed, tiny)
    goldens = load_goldens() if goldens is None else goldens
    spans_dir = OUT / "spans"
    if trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    start = _clock()
    passes = {False: [], True: []}
    attempted, failures, stopped, rounds = 0, [], False, 0
    while not stopped:
        for traced in (False, True) if trace else (False,):
            records = []
            for index, op in enumerate(ops):
                record = run_op(op, traced, RUN_LIMIT_S - (_clock() - start),
                                spans_dir / f"{name}-op{index}.txt")
                attempted += 1
                reason = _check(record, op, goldens)
                if reason is not None:
                    failures.append(f"{operation_key(op)}: {reason}")
                if "wall_s" not in record:  # no times: the pass is incomplete
                    stopped = record.get("timeout", False)
                    break
                records.append(record)
            else:
                passes[traced].append(records)
            if stopped:
                break
        # start another round only if at least half of it fits in the run
        rounds += 1
        elapsed = _clock() - start
        stopped = stopped or elapsed + elapsed / rounds / 2 >= seconds

    lines = [f"workload {name} seed {seed}: {attempted} operations in "
             f"{len(passes[False])} untraced and {len(passes[True])} traced passes, "
             f"{len(failures)} failed, failed_ratio {len(failures) / attempted:.4f}"]
    lines += [f"FAILED {reason}" for reason in failures]
    metrics = {}

    def pass_median(traced: bool, key: str) -> float:
        return statistics.median(sum(r[key] for r in records) for records in passes[traced])

    if passes[False] and trace and passes[True]:
        traced = [_layer_metrics(records) for records in passes[True]]
        metrics = {m: statistics.median(t[m] for t in traced) for m in traced[0]}
        traced_wall, untraced_wall = (pass_median(t, "wall_ref_s") for t in (True, False))
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        lines.append(f"traced wall_ref_s {traced_wall:.4f} s (median of {len(traced)} passes), "
                     f"untraced {untraced_wall:.4f} s (median of {len(passes[False])})")
    elif passes[False] and not trace:
        untraced = [r for records in passes[False] for r in records]
        metrics = {
            "wall_ref_s": pass_median(False, "wall_ref_s"),
            "setup_s": statistics.median(r["setup_ref_s"] for r in untraced) * len(ops),
            "peak_rss_mib": max(r["maxrss_kib"] for r in untraced) / 1024,
        }
        probes = [d for r in untraced for d in r["probe_op"]]
        lines.append(f"wall_ref_s {metrics['wall_ref_s']:.4f} s at reference speed, "
                     f"wall_s {pass_median(False, 'wall_s'):.4f} s raw "
                     f"(medians of {len(passes[False])} passes)")
        lines.append(f"setup_s {metrics['setup_s']:.4f} s at reference speed, "
                     f"{statistics.median(r['setup_s'] for r in untraced) * len(ops):.4f} s raw "
                     f"(medians of {len(untraced)} operation set-ups, "
                     f"times {len(ops)} operations a pass)")
        lines.append(f"peak_rss_mib {metrics['peak_rss_mib']:.2f} MiB "
                     f"(highest of {len(untraced)} operations)")
        if probes:
            lines.append(f"host speed: probe took {probe.harmonic_mean(probes) * 1e6:.1f} us "
                         f"(harmonic mean of {len(probes)}), reference "
                         f"{probe.REFERENCE_S * 1e6:.1f} us")
    units = metric_units("per_layer" if trace else "end_to_end")
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units if m in metrics},
    }
    return result, lines


def metric_units(kind: str) -> dict:
    """Metric name -> unit, for "end_to_end" or "per_layer" metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "borbits" / "cli.py").is_file():
        print(f"run.py: no borbits sources under {SRC}", file=sys.stderr)
        return 2
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
