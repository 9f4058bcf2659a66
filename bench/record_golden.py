"""Record the golden stdout digest of every workload operation at seed 0.

    python3 bench/record_golden.py

Run it only at a commit whose outputs are known to be right: from then
on the benchmark counts an operation whose stdout has another sha256 as
failed.  Operations of other seeds are checked against a digest only
where their command line has one recorded.
"""

import json
import sys

import run


def main() -> int:
    goldens = {}
    for name, make in run.WORKLOADS.items():
        for op in make(0, False):
            key = run.operation_key(op)
            record = run.run_op(op, False, run.RUN_LIMIT_S)
            if "error" in record or not record["passed"]:
                print(f"{name}: {key} did not pass; nothing recorded", file=sys.stderr)
                return 1
            goldens[key] = record["sha256"]
            print(f"{record['sha256']}  {key}")
    run.GOLDEN.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
