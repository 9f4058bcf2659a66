"""Command-line front end.

Subcommands: enum, rank, compare, near, hasse, verify.  Exit codes:
0 on success or a passing suite, 1 on suite failure, 2 on usage errors
(including malformed involutions and out-of-bound sizes).

Each command's options are one table, ``_COMMANDS``.  A well-formed
command line is parsed from that table directly; argparse, built from
the same table, is imported only for help, usage and errors, so their
text is argparse's own.
"""

from __future__ import annotations

import gc
import json
import sys
from types import SimpleNamespace

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


def _cmd_rank(args) -> int:
    sigma = parse_involution(args.sigma, args.n)
    matrix = order_table(args.order or "melnikov")(sigma)
    if args.format == "json":
        print(json.dumps(matrix.to_json(), sort_keys=True))
    else:
        sys.stdout.write(_rank_rows_text(matrix.rows))
    return 0


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


def _cmd_hasse(args) -> int:
    sys.stdout.write(emit_hasse(args.n, args.order, args.format))
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.n, seed=args.seed, samples=args.samples)
    if args.format == "json":
        print(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.passed else 1


# each option is its flag and the keywords argparse's add_argument
# takes; an option that names its dest shares a mutually exclusive
# group with the other options of that dest
_N = ("--n", {"type": int, "required": True})
_SIGMA = ("--sigma", {"required": True})
_TEXT_OR_JSON = ("--format", {"choices": ("text", "json"), "default": "text"})
_ORDER = ("--order", {"choices": ORDER_TABLES, "default": "star"})

# name -> (help line, runs it, its options), in the order the help
# lists them
_COMMANDS = {
    "enum": ("list all involutions of S_n", _cmd_enum, (_N, _TEXT_OR_JSON)),
    "rank": ("print a rank matrix of an involution", _cmd_rank, (
        _N,
        ("--sigma", {"required": True, "help": "cycle notation, e.g. (3,1)(5,2)"}),
        # no default: a default given explicitly would escape the
        # conflict check; _cmd_rank falls back to melnikov
        ("--order", {"dest": "order", "choices": ORDER_TABLES,
                     "help": "which rank matrix to print (default: melnikov)"}),
        ("--star", {"dest": "order", "action": "store_const", "const": "star",
                    "help": "shortcut for --order star"}),
        _TEXT_OR_JSON,
    )),
    "compare": ("compare two involutions in one order", _cmd_compare, (
        _N, _SIGMA, ("--tau", {"required": True}), _ORDER, _TEXT_OR_JSON,
    )),
    "near": ("list the move neighbours of an involution", _cmd_near, (
        _N,
        _SIGMA,
        ("--prime", {"action": "store_true", "default": False,
                     "help": "restricted neighbour set (equals the covering set)"}),
        _TEXT_OR_JSON,
    )),
    "hasse": ("render the covering diagram", _cmd_hasse, (
        _N, _ORDER, ("--format", {"choices": ("dot", "json"), "default": "dot"}),
    )),
    "verify": ("run a verification suite", _cmd_verify, (
        ("suite", {"choices": suite_names()}),
        _N,
        ("--seed", {"type": int, "default": 0}),
        ("--samples", {"type": int, "default": 100}),
        _TEXT_OR_JSON,
    )),
}


def _add_options(parser, options) -> None:
    groups = {}
    for flag, spec in options:
        if "dest" in spec and spec["dest"] not in groups:
            groups[spec["dest"]] = parser.add_mutually_exclusive_group()
        groups.get(spec.get("dest"), parser).add_argument(flag, **spec)


def _build_parser(argv: list[str]):
    """The argparse parser for ``argv``.  When its first word names a
    command, the root gets that command's subparser alone, and a metavar
    that keeps every command in the root usage line; otherwise it gets
    all of them and no metavar, so that an unknown or missing command is
    reported by the argument's own name and choices."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="borbits",
        description="Exact combinatorics of orbit degenerations on involutions.",
    )
    names = [argv[0]] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, _, options = _COMMANDS[name]
        _add_options(sub.add_parser(name, help=help_text), options)
    return parser


def _parse_direct(argv: list[str]) -> SimpleNamespace | None:
    """The arguments argparse would parse from ``argv``, read from the
    option table alone, or None wherever that is not certain: a word
    that is not a str or not an option's exact name (help, an
    abbreviation, ``--``), an option given twice or missing, or a value
    that starts with "-" and is not a plain negative int, or that its
    type or choices reject.  argparse then parses ``argv`` and words
    its help and errors."""
    if not (argv and all(type(word) is str for word in argv) and argv[0] in _COMMANDS):
        return None
    options = dict(_COMMANDS[argv[0]][2])
    positionals = [flag for flag in options if flag[0] != "-"]
    args = {"command": argv[0]}
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-":
            if not positionals:
                return None
            flag, value = positionals.pop(0), word
        else:
            flag, eq, value = word.partition("=")
            if flag not in options or (eq and "action" in options[flag]):
                return None
            if "action" in options[flag]:
                value = options[flag].get("const", True)
            elif not eq:
                value = next(words, "-")  # "-": no value left, declined below
                if value[:1] == "-" and not (value[1:].isascii() and value[1:].isdigit()):
                    return None
        spec = options[flag]
        dest = spec.get("dest", flag.lstrip("-"))
        if "action" not in spec:
            try:
                value = spec.get("type", str)(value)
            except ValueError:
                return None
        if dest in args or value not in spec.get("choices", (value,)):
            return None
        args[dest] = value
    for flag, spec in options.items():
        dest = spec.get("dest", flag.lstrip("-"))
        if dest not in args and (spec.get("required") or flag in positionals):
            return None
        args.setdefault(dest, spec.get("default"))
    return SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    # what lives before the command, the imports above all, outlives it:
    # keep the collector from traversing it while the command runs
    gc.freeze()
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = _parse_direct(argv)
        if args is None:
            try:
                args = _build_parser(argv).parse_args(argv)
            except SystemExit as exc:
                return int(exc.code or 0)
        return _COMMANDS[args.command][1](args)
    except BorbitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
