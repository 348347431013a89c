"""Source hygiene of the sodhh package, checked with the standard library
alone: every module uses each name it imports, and no binding is kept
only by silencing the unused-variable warning."""

import ast
import pathlib
import tokenize

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sodhh"
# __init__.py imports only to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree):
    """(line, name) of each name bound by an import anywhere in the module
    (top level or in a function), __future__ features aside, that no
    expression of the module reads."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def held_bindings(path):
    """Lines whose comment silences the unused-variable warning F841."""
    with tokenize.open(path) as f:
        return [tok.start[0] for tok in tokenize.generate_tokens(f.readline)
                if tok.type == tokenize.COMMENT and "F841" in tok.string]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_and_no_binding_is_held(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) == []
    assert held_bindings(path) == []


def test_the_checks_catch_an_unused_import_and_a_held_binding(tmp_path):
    """The checks themselves find what they look for."""
    tree = ast.parse("from .algebra import Algebra, center\n"
                     "import os.path\n"
                     "def f(A: Algebra):\n"
                     "    from .complexes import rank\n"
                     "    return A\n")
    assert unused_imports(tree) == [(1, "center"), (2, "os"), (4, "rank")]
    held = tmp_path / "held.py"
    held.write_text("def g(A):\n"
                    "    env = A.enveloping()  # noqa: F841\n"
                    "    return A\n")
    assert held_bindings(held) == [2]
