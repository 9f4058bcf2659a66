"""Run one borbits operation in this fresh interpreter; print one JSON record.

    python3 bench/op.py '<operation json>' <trace 0|1> [<spans file>]

The operation is either ``{"argv": [...]}``, handed to
``borbits.cli.main``, or ``{"call": "essential_reduction_check",
"sigmas": [...], "n": n, "q": q}``, the public library check run on each
involution in turn, as a user's sweep over them would.  The record's
times are CLOCK_MONOTONIC readings, which are system-wide on Linux, so
the parent can subtract its own spawn time from ``ready``.  Beside them
go the durations of the host-speed probe (``bench/probe.py``): a burst
right after set-up, ``probe_setup``, and the samples taken while the
operation runs, ``probe_op``, whose time the parent takes out of the
operation's.  With tracing on, the spans are written to the spans file.
"""

import sys
import time

import borbits.cli  # set-up ends here: every CLI invocation pays this import

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import hashlib  # noqa: E402  (harness imports stay outside set-up)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import probe  # noqa: E402
from borbits import closure, involutions  # noqa: E402  (already imported)


def _invoke(spec: dict) -> tuple[int, str]:
    """Run the operation with stdout captured; return (exit code, stdout)."""
    out = io.StringIO()
    sys.stdout = out
    try:
        if "argv" in spec:
            code = borbits.cli.main(spec["argv"])
        else:
            n, q = spec["n"], spec["q"]
            # looked up on the module at call time, so a tracing wrapper applies
            results = {
                text: closure.essential_reduction_check(
                    involutions.parse_involution(text, n), q)
                for text in spec["sigmas"]
            }
            print(json.dumps({"call": spec["call"], "n": n, "q": q, "results": results},
                             sort_keys=True))
            code = 0
    finally:
        sys.stdout = sys.__stdout__
    return code, out.getvalue()


def _verdict(spec: dict, code: int, stdout: str) -> bool:
    """True when the operation reports PASS: a passing suite report, a
    DOT diagram, or library checks that all returned True."""
    if code != 0:
        return False
    if "argv" not in spec:
        return all(value is True for value in json.loads(stdout)["results"].values())
    if spec["argv"][0] == "verify":
        return json.loads(stdout)["passed"] is True
    return stdout.startswith("digraph")


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if sys.argv[2] == "1":
        import tracing

        tracer = tracing.install()
    record = {"ready": READY, "probe_setup": probe.burst()}
    with probe.Sampler() as sampler:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            code, stdout = _invoke(spec)
        except Exception:
            record["error"] = traceback.format_exc()
            code, stdout = None, ""
        end = time.clock_gettime(time.CLOCK_MONOTONIC)
    record["start"] = start
    record["end"] = end
    record["probe_op"] = sampler.durations
    record["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["exit"] = code
    record["passed"] = "error" not in record and _verdict(spec, code, stdout)
    record["sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
    if tracer is not None:
        record["layers"] = tracer.summary()
        tracer.write_spans(sys.argv[3])
    print(json.dumps(record))


if __name__ == "__main__":
    main()
