"""Source hygiene of ``src/tropquad``, read with ``ast`` alone.

The project runs no linter, so two of a linter's checks live here:
every name a module imports is used in that module, and every module-level
private function is referenced somewhere in the package besides its own
definition.  ``__init__.py`` is left out, since its imports are the public
exports.  A third check is the project's own: the front end, ``cli``,
imports no ``_``-prefixed name from another module.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tropquad"

# (module, name) -> why the name stays although nothing in src uses it
ALLOWED = {
    ("companions", "is_rigid"): "re-export that the bench tracer binds as companions.is_rigid",
    ("cli", "_cell_invariant_violations"): "check no longer calls it; the bench tracer's cli.invariants span binds it",
}


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def _referenced(nodes) -> set[str]:
    """Every name read in the nodes, as a bare name or as an attribute."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _unused_imports(name: str, tree: ast.Module) -> set[tuple[str, str]]:
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    return {(name, n) for n in imported - _referenced([tree])}


def _unreferenced_private_functions(modules: dict[str, ast.Module]) -> set[tuple[str, str]]:
    out = set()
    for name, tree in modules.items():
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_") and not fn.name.startswith("__")):
                continue
            elsewhere = [n for other in modules.values() for n in other.body if n is not fn]
            if fn.name not in _referenced(elsewhere):
                out.add((name, fn.name))
    return out


def _private_imports(tree: ast.Module) -> set[str]:
    """Every ``_``-prefixed name the module imports from another module."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    }


def _flagged() -> set[tuple[str, str]]:
    modules = _modules()
    flagged = _unreferenced_private_functions(modules)
    for name, tree in modules.items():
        flagged |= _unused_imports(name, tree)
    return flagged


def test_every_import_and_private_function_is_used():
    """The allowlist names exactly what is flagged, so it lists what can be deleted."""
    assert _flagged() == set(ALLOWED)


def test_the_checks_find_what_they_look_for():
    tree = ast.parse(
        "import os\nfrom json import dumps, loads as read\n"
        "def _used(): return read\n"
        "def _unused(): return _unused()\n"
        "x = _used()\n"
    )
    assert _unused_imports("m", tree) == {("m", "os"), ("m", "dumps")}
    assert _unreferenced_private_functions({"m": tree}) == {("m", "_unused")}
    assert _private_imports(ast.parse("from .semiring import Element, _unscaled_exp\nfrom . import _x\n")) == {
        "_unscaled_exp", "_x",
    }


def test_the_front_end_imports_only_public_names():
    """``cli`` reaches the package through its public names; what it needs of a
    module's internals belongs behind a public function of that module."""
    assert _private_imports(_modules()["cli"]) == set()
