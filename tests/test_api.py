"""The names the package exports."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import borbits

# name -> the module that held it; CHANGES.md names what replaces each
REMOVED = {
    "bruhat_leq_subword": "involutions",
    "eval_word": "involutions",
    "reduced_word": "involutions",
    "move_remove": "moves",
    "move_right": "moves",
    "move_up": "moves",
    "diagonal_weights": "orbits",
    "gamma": "closure",
    "corner_ranks": "rankorder",
    "NotMinimalError": "errors",
    "NotDiagonalError": "errors",
    "a_move": "moves",
    "b_move": "moves",
    "c_move": "moves",
    "NotACandidateError": "errors",
    "NotBCandidateError": "errors",
    "NotCCandidateError": "errors",
    "InvalidResultError": "errors",
    "x_elem": "orbits",
    "delta_minors": "orbits",
    "exact_det": "matrices",
    "identity_matrix": "matrices",
    "SingularElementError": "errors",
    "rook_matrix_lower": "involutions",
}


def _imported_names() -> dict[str, str]:
    """Each name ``borbits/__init__.py`` imports, with its module."""
    tree = ast.parse(Path(borbits.__file__).read_text())
    return {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_export_resolves_and_no_removed_name_does():
    imported = _imported_names()
    for name, module in imported.items():
        assert getattr(borbits, name) is getattr(importlib.import_module(f"borbits.{module}"), name)
    public = {
        name
        for name, value in vars(borbits).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(imported)
    for name, module in REMOVED.items():
        assert not hasattr(borbits, name), name
        assert not hasattr(importlib.import_module(f"borbits.{module}"), name), name
