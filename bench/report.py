"""Print the metrics of every workload, by name with their units.

    python3 bench/report.py [--seed N] [--seconds S] [--trace]

Runs each workload once, as ``bench/run.py`` would, and prints one row
per metric: the end-to-end metrics and the failed ratio, or with
``--trace`` the per-layer metrics and the tracing overhead.
"""

import argparse
import json
import sys

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    correct = True
    for name in run.WORKLOADS:
        result, lines = run.run_workload(name, args.seed, args.seconds, args.trace)
        correct = correct and result["correct"]
        print(lines[0])
        for line in lines[1:]:
            if line.startswith("FAILED"):
                print("  " + line)
        print(f"  {name:<14} {'failed_ratio':<42} {result['failed'] / result['attempted']:>14.6g} ratio")
        for metric, value in result["metrics"].items():
            print(f"  {name:<14} {metric:<42} {value['value']:>14.6g} {value['unit']}")
    print("env " + json.dumps(run.environment(), sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
