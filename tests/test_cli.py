import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import borbits
from borbits import cli
from borbits import (
    bruhat_rank_matrix,
    enumerate_involutions,
    format_involution,
    leq_star,
    melnikov_rank_matrix,
    star_rank_matrix,
    to_permutation,
)
from borbits.cli import main

from conftest import leq_bruhat, leq_melnikov


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compare_star_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--n",
        "5",
        "--sigma",
        "(5,1)(4,2)",
        "--tau",
        "(4,1)(5,2)",
        "--order",
        "star",
    )
    assert code == 0
    assert out == "tau <= sigma: true\n"


def test_compare_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--n",
        "3",
        "--sigma",
        "(2,1)",
        "--tau",
        "(3,2)",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tau_leq_sigma"] is False


# order name -> (rank table, order predicate), each stated directly
ORDERS = {
    "star": (star_rank_matrix, leq_star),
    "melnikov": (melnikov_rank_matrix, leq_melnikov),
    "bruhat": (
        lambda s: bruhat_rank_matrix(to_permutation(s)),
        lambda t, s: leq_bruhat(to_permutation(t), to_permutation(s)),
    ),
}


@pytest.mark.parametrize("order", ORDERS)
def test_rank_and_compare_follow_each_order(capsys, order):
    table, leq = ORDERS[order]
    elements = enumerate_involutions(4)
    for sigma in elements:
        name = format_involution(sigma)
        code, out, _ = run_cli(capsys, "rank", "--n", "4", "--sigma", name, "--order", order)
        assert code == 0
        assert out == "".join(" ".join(map(str, row)) + "\n" for row in table(sigma).rows)
        for tau in elements:
            code, out, _ = run_cli(
                capsys, "compare", "--n", "4", "--sigma", name,
                "--tau", format_involution(tau), "--order", order, "--format", "json",
            )
            assert code == 0
            assert json.loads(out)["tau_leq_sigma"] is leq(tau, sigma)


def test_rank_star_prints_display_matrix(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "--n", "5", "--sigma", "(4,1)(5,2)", "--star"
    )
    assert code == 0
    assert out == (
        "0 0 0 0 0\n"
        "1 0 0 0 0\n"
        "1 2 0 0 0\n"
        "1 2 2 0 0\n"
        "0 1 1 1 0\n"
    )


@pytest.mark.parametrize(
    "flags",
    [
        ("--star", "--order", "bruhat"),
        ("--order", "melnikov", "--star"),
        ("--order", "star", "--star"),
    ],
)
def test_rank_star_and_order_together_is_usage_error(capsys, flags):
    code, out, err = run_cli(capsys, "rank", "--n", "5", "--sigma", "(4,1)(5,2)", *flags)
    assert code == 2
    assert out == ""
    assert "not allowed with argument" in err


def test_rank_default_is_melnikov(capsys):
    code, out, _ = run_cli(capsys, "rank", "--n", "5", "--sigma", "(3,1)(5,2)")
    assert code == 0
    assert out.splitlines()[0] == "0 0 1 1 2"


def test_rank_json(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "--n", "3", "--sigma", "(2,1)", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["n"] == 3


def test_enum(capsys):
    code, out, _ = run_cli(capsys, "enum", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["id", "(3,2)", "(2,1)", "(3,1)"]
    code, out, _ = run_cli(capsys, "enum", "--n", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["count"] == 4
    assert payload["involutions"][0] == {
        "cycles": "id",
        "arcs": [],
        "one_line": [1, 2, 3],
    }


def test_enum_above_bound_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "enum", "--n", "13")
    assert code == 2
    assert out == ""
    assert "n <= 12" in err


def test_enum_at_bound_lists_every_involution(capsys):
    code, out, _ = run_cli(capsys, "enum", "--n", "12")
    assert code == 0
    assert len(out.splitlines()) == 140_152


def test_near(capsys):
    code, out, _ = run_cli(capsys, "near", "--n", "3", "--sigma", "(3,1)")
    assert code == 0
    assert out.splitlines() == ["(2,1)", "(3,2)", "id"]
    code, out, _ = run_cli(
        capsys, "near", "--n", "3", "--sigma", "(3,1)", "--prime"
    )
    assert out.splitlines() == ["(2,1)", "(3,2)"]


def test_hasse(capsys):
    code, out, _ = run_cli(capsys, "hasse", "--n", "3")
    assert code == 0
    assert out.count("->") == 4
    code, out, _ = run_cli(capsys, "hasse", "--n", "2", "--format", "json")
    assert len(json.loads(out)["covers"]) == 1


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "counts", "--n", "3")
    assert code == 0
    assert out.strip().endswith("PASS")
    code, out, _ = run_cli(
        capsys, "verify", "rank-invariance", "--n", "2", "--samples", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_bound_exceeded_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "counts", "--n", "99")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_nonpositive_samples_is_usage_error(capsys, samples):
    # no samples would make a vacuous PASS
    code, out, err = run_cli(
        capsys, "verify", "rank-invariance", "--n", "4", "--samples", samples
    )
    assert code == 2
    assert out == ""
    assert "samples" in err


@pytest.mark.parametrize("order", ["star", "melnikov", "bruhat"])
def test_rank_past_the_table_bound_is_usage_error(capsys, order):
    # a table holds one byte per cell, so n <= 255
    code, out, err = run_cli(capsys, "rank", "--n", "256", "--sigma", "id", "--order", order)
    assert (code, out) == (2, "")
    assert "exceeds table bound 255" in err
    code, out, _ = run_cli(capsys, "rank", "--n", "255", "--sigma", "id", "--order", order)
    assert code == 0
    assert out.count("\n") == 255


def test_unknown_subcommand_and_suite(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "verify", "bogus", "--n", "3")[0] == 2


def test_malformed_sigma_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "rank", "--n", "5", "--sigma", "oops")
    assert code == 2
    assert "error" in err


def test_cli_output_fully_deterministic(capsys):
    args = ("verify", "closure", "--n", "3", "--samples", "4", "--seed", "9")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


def full_parser(argv):
    """Oracle: the root parser with every command's subparser and no
    metavar, whatever ``argv`` is."""
    parser = argparse.ArgumentParser(
        prog="borbits",
        description="Exact combinatorics of orbit degenerations on involutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in cli._COMMANDS.items():
        cli._add_options(sub.add_parser(name, help=help_text), options)
    return parser


# a missing required option of each command
MISSING_OPTION = [
    ["enum"],
    ["rank", "--n", "3"],
    ["compare", "--n", "3", "--sigma", "(2,1)"],
    ["near", "--sigma", "(2,1)"],
    ["hasse"],
    ["verify", "counts"],
]


@pytest.mark.parametrize(
    "argv",
    [[name, "--help"] for name in cli._COMMANDS]
    + MISSING_OPTION
    + [
        ["verify", "bogus", "--n", "3"],
        ["hasse", "--n", "3", "--order", "x"],
        ["rank", "--n", "5", "--sigma", "(4,1)(5,2)", "--star", "--order", "star"],
        # an unrecognized argument: the root parser's usage line
        ["verify", "counts", "--n", "3", "extra"],
        ["-h"],
        [],
        ["frobnicate"],
        ["--n", "3", "verify", "counts"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_one_subparser_answers_as_the_full_parser(capsys, monkeypatch, argv):
    ours = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "_build_parser", full_parser)
    assert ours == run_cli(capsys, *argv)


# the words a command line is drawn from: every command, option and
# choice, abbreviations, help, "--", and values argparse and int() read
# differently (signs, spaces, underscores, non-ASCII digits, huge ints)
OPTIONS = [option for _, _, options in cli._COMMANDS.values() for option in options]
FLAGS = sorted({flag for flag, _ in OPTIONS if flag.startswith("-")})
CHOICES = sorted({choice for _, spec in OPTIONS for choice in spec.get("choices", ())})
ABBREVIATIONS = ["--s", "--sa", "--sig", "--ord", "--st", "--pr", "--fo", "--se", "--t", "--he"]
INTS = ["0", "1", "3", "-1", "-3", "007", " 2", "2 ", "3_0", "+2", "\u0663", "9" * 40]
TEXTS = ["(2,1)", "id", "(3,1)(4,2)", "-3", "", "text", "json", "dot"]
VALUES = [
    *INTS, *TEXTS, "-\u0663", "\u00b2", "-\u00b2", "-" + "9" * 40, "9" * 5000, "1.5", "-1.5",
    "-", "-x", "x y", "--x y", "xml", "bogus", *CHOICES,
]
WORDS = [*cli._COMMANDS, "frobnicate", *FLAGS, *ABBREVIATIONS, "-h", "--help", "--", *VALUES]
words = st.one_of(
    st.sampled_from(WORDS),
    st.builds("{}={}".format, st.sampled_from(FLAGS + ABBREVIATIONS), st.sampled_from(VALUES)),
)


@st.composite
def command_lines(draw):
    """A command with each of its options given or left out in a shuffled
    order, in either value form, the values mostly its own choices; then
    maybe one word from anywhere in the vocabulary put in."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    given = []
    for flag, spec in cli._COMMANDS[name][2]:
        if not (spec.get("required") or not flag.startswith("-") or draw(st.booleans())):
            continue
        fitting = list(spec.get("choices", ())) or (INTS if spec.get("type") else TEXTS)
        value = draw(st.sampled_from(fitting if draw(st.integers(0, 3)) else VALUES))
        if "action" in spec:
            given.append([flag])
        elif not flag.startswith("-"):
            given.append([value])
        else:
            given.append(draw(st.sampled_from([[flag, value], [f"{flag}={value}"]])))
    argv = [name, *(word for option in draw(st.permutations(given)) for word in option)]
    for word in draw(st.lists(words, max_size=1)):
        argv.insert(draw(st.integers(1, len(argv))), word)
    return argv


def echo(args):
    """Stands in for every command: prints what it was given."""
    print(sorted(vars(args).items()))
    return 0


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None)
@given(argv=st.one_of(command_lines(), st.lists(words, max_size=6)))
@example(argv=["near", "--n", "3", "--sigma", "id", "--prime=1"])
@example(argv=["compare", "--n", "3", "--sigma", "-\u00b2", "--tau", "id"])
@example(argv=["compare", "--n", "3", "--sigma=", "--tau", "id"])
@example(argv=["verify", "--n", "3"])
@example(argv=["verify", "bogus", "--n", "3"])
@example(argv=["enum", "--n", "x"])
@example(argv=["enum", "--n", "3", "extra"])
@example(argv=["rank", "--n", "3", "--sigma", "id", "--star", "--order", "bruhat"])
def test_direct_parse_answers_as_argparse(argv):
    # the commands echo their arguments, so a huge --samples costs nothing
    echoing = {name: (help_text, echo, options)
               for name, (help_text, _, options) in cli._COMMANDS.items()}
    with mock.patch.dict(cli._COMMANDS, echoing):
        ours = run_main(argv)
        with mock.patch.object(cli, "_parse_direct", lambda argv: None):
            assert ours == run_main(argv)
        direct = cli._parse_direct(list(argv))
        if direct is not None:
            assert vars(direct) == vars(full_parser(argv).parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--n=5", "--sigma", "(4,1)(5,2)", "--star", "--format=json"],
        ["verify", "--n", "-3", "counts", "--seed=-1"],
        ["near", "--sigma=-x", "--prime", "--n", "3"],
        ["compare", "--n", " 3", "--sigma", "", "--tau", "id"],
    ],
)
def test_direct_parse_reads_what_argparse_reads(argv):
    # well-formed, so the direct parse must not leave them to argparse
    assert vars(cli._parse_direct(argv)) == vars(full_parser(argv).parse_args(argv))


def run_python(*args):
    """A fresh interpreter that imports this borbits."""
    src = str(Path(borbits.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


def run_module(*argv):
    """``python -m borbits.cli`` in a fresh interpreter: main reads sys.argv."""
    return run_python("-m", "borbits.cli", *argv)


def test_module_run_reads_sys_argv(capsys):
    argv = ("verify", "counts", "--n", "3", "--format", "json")
    result = run_module(*argv)
    assert result.returncode == 0
    assert result.stdout == run_cli(capsys, *argv)[1]


def test_module_run_help_lists_every_command():
    result = run_module("--help")
    assert result.returncode == 0
    assert "{enum,rank,compare,near,hasse,verify}" in result.stdout
    listed = {line.split()[0] for line in result.stdout.splitlines() if line.startswith("    ")}
    assert listed >= {"enum", "rank", "compare", "near", "hasse", "verify"}


def test_module_run_unknown_command_is_usage_error():
    result = run_module("frobnicate")
    assert result.returncode == 2
    assert "invalid choice" in result.stderr


# a module run of each command, and the modules it leaves imported
IMPORTS = """
import sys
before = set(sys.modules)
from borbits.cli import main
code = main(sys.argv[1:])
names = ("argparse", "gettext", "locale")
print("imported:", *(name for name in names if name in set(sys.modules) - before),
      file=sys.stderr)
sys.exit(code)
"""


def run_probe(*argv):
    return run_python("-c", IMPORTS, *argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "--n", "3"],
        ["rank", "--n", "3", "--sigma", "(2,1)", "--star"],
        ["compare", "--n", "3", "--sigma", "(3,1)", "--tau", "id", "--format", "json"],
        ["near", "--n", "3", "--sigma", "(3,1)", "--prime"],
        ["hasse", "--n", "3", "--order", "bruhat"],
        ["verify", "essential-set", "--n", "4", "--format", "json"],
    ],
    ids=lambda argv: argv[0],
)
def test_well_formed_run_imports_no_argparse(argv):
    result = run_probe(*argv)
    assert result.returncode == 0
    assert result.stdout
    assert result.stderr.splitlines()[-1] == "imported:"


def test_cli_import_loads_no_dataclasses():
    # dataclasses would pull inspect, ast and dis into every CLI start,
    # and exec each generated method
    code = "import sys, borbits.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = run_python("-c", code)
    assert result.returncode == 0
    assert result.stdout == "[]\n"


def test_bare_cli_import_loads_no_typing_or_parser():
    # with no site packages, which may import typing themselves, nothing
    # of the package's own start loads typing, dataclasses, inspect, ast
    # or argparse
    heavy = "{'typing', 'dataclasses', 'inspect', 'ast', 'argparse'}"
    code = f"import sys, borbits.cli; print(sorted({heavy} & set(sys.modules)))"
    result = run_python("-S", "-c", code)
    assert result.returncode == 0
    assert result.stdout == "[]\n"


def test_help_and_errors_still_come_from_argparse():
    result = run_probe("verify", "--help")
    assert result.returncode == 0
    assert result.stdout.startswith("usage: borbits verify [-h]")
    assert "argparse" in result.stderr.splitlines()[-1].split()
    result = run_probe("verify", "counts", "--n", "3", "--format", "xml")
    assert result.returncode == 2
    assert result.stderr.startswith("usage: borbits verify [-h]")
    assert "argument --format: invalid choice: 'xml'" in result.stderr
