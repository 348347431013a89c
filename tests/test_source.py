"""Source hygiene of the sodhh package, checked with the standard library
alone: every module uses each name it imports, no binding is kept only
by silencing the unused-variable warning, no function imports a sodhh
module (the layering is acyclic, so every import sits at the top), and
the modules that resolve write an algebra's cache only through
hochschild._kept."""

import ast
import pathlib
import tokenize

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sodhh"
# __init__.py imports only to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the modules that resolve, whose cache entries are resolutions
RESOLVING = ["hochschild.py", "kernels.py", "cli.py"]


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


def _imports_sodhh(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "sodhh"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "sodhh" for alias in node.names)


def function_imports(tree):
    """(line, function) of each import of a sodhh module, relative or by
    name, made inside a function; function is the innermost enclosing
    one."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if func is not None and _imports_sodhh(node):
            out.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)
    visit(tree, None)
    return out


def test_no_function_imports_a_sodhh_module():
    hits = [(path.name, line, func) for path in sorted(SRC.glob("*.py"))
            for line, func in function_imports(
                ast.parse(path.read_text(), filename=str(path)))]
    assert hits == []


def test_the_check_catches_a_function_level_import():
    """Relative and absolute imports of sodhh inside functions, nested
    ones included, are found; top-level ones and other packages' are
    not."""
    tree = ast.parse("from .algebra import Algebra\n"
                     "def f(A):\n"
                     "    import json\n"
                     "    from .modules import simple_module\n"
                     "    def g():\n"
                     "        import sodhh.linalg\n"
                     "        from sodhh import cli\n"
                     "    return json, simple_module, g\n")
    assert function_imports(tree) == [(4, "f"), (6, "g"), (7, "g")]


def _is_cache(node):
    return isinstance(node, ast.Attribute) and node.attr == "_cache" or \
        isinstance(node, ast.Name) and node.id == "_cache"


def _writes_cache(node):
    """Whether the statement or call writes into an _cache mapping: an
    assignment or deletion of _cache[...] (in any target, unpacking
    included), or a call of its setdefault or update."""
    if isinstance(node, ast.Call):
        f = node.func
        return isinstance(f, ast.Attribute) and _is_cache(f.value) and \
            f.attr in ("setdefault", "update")
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = node.targets
    else:
        return False
    return any(isinstance(t, ast.Subscript) and _is_cache(t.value)
               for target in targets for t in ast.walk(target))


def cache_writes_outside_kept(tree):
    """(line, function) of each write into an _cache mapping (see
    _writes_cache) that no function named _kept encloses; function is the
    innermost enclosing one, or None at module level."""
    out = []

    def visit(node, funcs):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs = funcs + (node.name,)
        if _writes_cache(node) and "_kept" not in funcs:
            out.append((node.lineno, funcs[-1] if funcs else None))
        for child in ast.iter_child_nodes(node):
            visit(child, funcs)
    visit(tree, ())
    return out


@pytest.mark.parametrize("name", RESOLVING)
def test_only_kept_writes_an_algebras_cache(name):
    """A resolution gets its depth policy from hochschild._kept alone."""
    path = SRC / name
    tree = ast.parse(path.read_text(), filename=str(path))
    assert cache_writes_outside_kept(tree) == []


def test_the_check_catches_a_cache_written_outside_kept():
    """A per-function cache policy, as global_dimension once kept one, is
    found in every form of write; the writes inside _kept are not."""
    tree = ast.parse("def global_dimension(A, cap):\n"
                     "    exact, exceeds = A._cache.get('gd', (None, -1))\n"
                     "    if cap > 3:\n"
                     "        A._cache['gd'] = (None, cap)\n"
                     "    A._cache['gd'], x = (3, None), 1\n"
                     "    A._cache.setdefault('gd', 3)\n"
                     "    def build(d):\n"
                     "        A._cache.update(gd=d)\n"
                     "        del A._cache['gd']\n"
                     "    return exact\n"
                     "def _kept(A, key, depth, build):\n"
                     "    def store(value):\n"
                     "        A._cache[key] = value\n"
                     "    A._cache[key] = build(depth)\n"
                     "_cache = {}\n"
                     "_cache['x'] = 1\n")
    assert cache_writes_outside_kept(tree) == [
        (4, "global_dimension"), (5, "global_dimension"),
        (6, "global_dimension"), (8, "build"), (9, "build"), (16, None)]
