"""Self-test of the benchmark, at a tiny size (n <= 4, two samples).

    python3 bench/selftest.py

Checks that every workload runs and passes traced and untraced, that
each run emits every metric BENCHMARK.json names, that every full-size
operation at seed 0 has a golden digest, and that a wrong golden digest
makes the failed ratio positive.  Prints one line per check and exits 1
if any fails.
"""

import sys

import run


def main() -> int:
    problems = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    goldens = run.load_goldens()
    for name, make in run.WORKLOADS.items():
        for trace in (False, True):
            kind = "per_layer" if trace else "end_to_end"
            result, _ = run.run_workload(name, seed=1, seconds=0, trace=trace, tiny=True,
                                         goldens={})
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace={int(trace)}: every operation passes")
            missing = sorted(set(run.metric_units(kind)) - set(result["metrics"]))
            check(not missing, f"{name} trace={int(trace)}: every {kind} metric emitted"
                  + (f", missing {missing}" if missing else ""))
        unrecorded = [run.operation_key(op) for op in make(0, False)
                      if run.operation_key(op) not in goldens]
        check(not unrecorded, f"{name}: golden digest recorded for every seed-0 operation")

    op = run.WORKLOADS["degenerate"](0, True)[0]
    result, lines = run.run_workload("degenerate", seed=0, seconds=0, trace=False, tiny=True,
                                     goldens={run.operation_key(op): "0" * 64})
    check(result["failed"] / result["attempted"] > 0 and not result["correct"],
          "a wrong golden digest gives failed_ratio > 0")
    print(f"{len(problems)} problems" if problems else "selftest PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
