"""Command-line front end.

Subcommands: enum, rank, compare, near, hasse, verify.  Exit codes:
0 on success or a passing suite, 1 on suite failure, 2 on usage errors
(including malformed involutions and out-of-bound sizes).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .errors import BorbitsError, BoundExceededError
from .involutions import (
    enumerate_involutions,
    format_involution,
    involution_to_json,
    parse_involution,
)
from .moves import near, near_prime
from .rankorder import ORDER_TABLES, _dominated, order_table
from .suites import emit_hasse, run_suite, suite_names

# n = 12 lists 140,152 involutions in about 3 s; the count grows
# faster than exponentially beyond it
ENUM_MAX_N = 12


def _rank_rows_text(rows) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in rows) + "\n"


def _enum_arguments(enum) -> None:
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--format", choices=("text", "json"), default="text")


def _cmd_enum(args) -> int:
    if args.n > ENUM_MAX_N:
        raise BoundExceededError(f"enum accepts n <= {ENUM_MAX_N}")
    elements = enumerate_involutions(args.n)
    if args.format == "json":
        payload = {
            "n": args.n,
            "count": len(elements),
            "involutions": [involution_to_json(s) for s in elements],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for sigma in elements:
            print(format_involution(sigma))
    return 0


def _rank_arguments(rank) -> None:
    rank.add_argument("--n", type=int, required=True)
    rank.add_argument("--sigma", required=True, help="cycle notation, e.g. (3,1)(5,2)")
    # no argparse default: a default value given explicitly would escape
    # the conflict check; _cmd_rank falls back to melnikov
    which = rank.add_mutually_exclusive_group()
    which.add_argument(
        "--order",
        choices=ORDER_TABLES,
        help="which rank matrix to print (default: melnikov)",
    )
    which.add_argument(
        "--star",
        action="store_const",
        const="star",
        dest="order",
        help="shortcut for --order star",
    )
    rank.add_argument("--format", choices=("text", "json"), default="text")


def _cmd_rank(args) -> int:
    sigma = parse_involution(args.sigma, args.n)
    matrix = order_table(args.order or "melnikov")(sigma)
    if args.format == "json":
        print(json.dumps(matrix.to_json(), sort_keys=True))
    else:
        sys.stdout.write(_rank_rows_text(matrix.rows))
    return 0


def _compare_arguments(compare) -> None:
    compare.add_argument("--n", type=int, required=True)
    compare.add_argument("--sigma", required=True)
    compare.add_argument("--tau", required=True)
    compare.add_argument("--order", choices=ORDER_TABLES, default="star")
    compare.add_argument("--format", choices=("text", "json"), default="text")


def _cmd_compare(args) -> int:
    sigma = parse_involution(args.sigma, args.n)
    tau = parse_involution(args.tau, args.n)
    table = order_table(args.order)
    result = _dominated(table(tau), table(sigma))
    if args.format == "json":
        payload = {
            "order": args.order,
            "sigma": format_involution(sigma),
            "tau": format_involution(tau),
            "tau_leq_sigma": result,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"tau <= sigma: {str(result).lower()}")
    return 0


def _near_arguments(near_cmd) -> None:
    near_cmd.add_argument("--n", type=int, required=True)
    near_cmd.add_argument("--sigma", required=True)
    near_cmd.add_argument(
        "--prime",
        action="store_true",
        help="restricted neighbour set (equals the covering set)",
    )
    near_cmd.add_argument("--format", choices=("text", "json"), default="text")


def _cmd_near(args) -> int:
    sigma = parse_involution(args.sigma, args.n)
    neighbours = near_prime(sigma) if args.prime else near(sigma)
    names = sorted(format_involution(t) for t in neighbours)
    if args.format == "json":
        payload = {
            "sigma": format_involution(sigma),
            "prime": args.prime,
            "near": names,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for name in names:
            print(name)
    return 0


def _hasse_arguments(hasse) -> None:
    hasse.add_argument("--n", type=int, required=True)
    hasse.add_argument("--order", choices=ORDER_TABLES, default="star")
    hasse.add_argument("--format", choices=("dot", "json"), default="dot")


def _cmd_hasse(args) -> int:
    sys.stdout.write(emit_hasse(args.n, args.order, args.format))
    return 0


def _verify_arguments(verify) -> None:
    verify.add_argument("suite", choices=suite_names())
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--samples", type=int, default=100)
    verify.add_argument("--format", choices=("text", "json"), default="text")


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.n, seed=args.seed, samples=args.samples)
    if args.format == "json":
        print(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.passed else 1


# name -> (help line, adds the arguments to its subparser, runs it),
# in the order the help lists them
_COMMANDS = {
    "enum": ("list all involutions of S_n", _enum_arguments, _cmd_enum),
    "rank": ("print a rank matrix of an involution", _rank_arguments, _cmd_rank),
    "compare": ("compare two involutions in one order", _compare_arguments, _cmd_compare),
    "near": ("list the move neighbours of an involution", _near_arguments, _cmd_near),
    "hasse": ("render the covering diagram", _hasse_arguments, _cmd_hasse),
    "verify": ("run a verification suite", _verify_arguments, _cmd_verify),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``.  When its first word names a command, the
    root gets that command's subparser alone, and a metavar that keeps
    every command in the root usage line; otherwise it gets all of them
    and no metavar, so that an unknown or missing command is reported
    by the argument's own name and choices."""
    parser = argparse.ArgumentParser(
        prog="borbits",
        description="Exact combinatorics of orbit degenerations on involutions.",
    )
    names = [argv[0]] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments, _ = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    # what lives before the command, the imports above all, outlives it:
    # keep the collector from traversing it while the command runs
    gc.freeze()
    try:
        if argv is None:
            argv = sys.argv[1:]
        try:
            args = _build_parser(argv).parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return _COMMANDS[args.command][2](args)
    except BorbitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
