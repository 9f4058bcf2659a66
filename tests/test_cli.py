import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    for name, (help_text, add_arguments, _) in cli._COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
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


def run_module(*argv):
    """``python -m borbits.cli`` in a fresh interpreter: main reads sys.argv."""
    src = str(Path(borbits.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "borbits.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


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
