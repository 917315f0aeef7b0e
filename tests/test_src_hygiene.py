"""Source hygiene of ``src/tropquad``, read with ``ast`` alone.

The project runs no linter, so two of a linter's checks live here:
every name a module imports is used in that module, and every private
module-level function or constant, and every private method, is referenced
somewhere in the package besides its own definition.  ``__init__.py`` is left out, since its imports are the public
exports.  Four checks are the project's own: the front end, ``cli``,
imports no ``_``-prefixed name from another module, and it reads every
JSON text through the hook that refuses a key named twice; no public
function or method takes a ``_``-prefixed parameter; and every public
export that no other module reads says which of the paper's statements it
encodes and which test checks it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tropquad"

# (module, name) -> why the name stays although nothing in src uses it
ALLOWED = {
    ("companions", "is_rigid"): "re-export that the bench tracer binds as companions.is_rigid",
    ("cli", "_cell_invariant_violations"): "a stub that raises, kept because the bench tracer's cli.invariants span binds it",
}

# public export that no module of src reads -> (the paper statement it encodes, the test that checks it)
CRITERION_4 = "q = κ + ρ along any companion, and the module laws of κ and Rig(q)"
CRITERION_6 = "a base change is invertible exactly when it is monomial with tangible scales"
CRITERION_7 = "the image of q's ring companion accompanies q^φ"
LIBRARY_ONLY = {
    "add_forms": (CRITERION_4, "test_acceptance::test_criterion_4_decomposition_suite"),
    "scale_form": (CRITERION_4, "test_acceptance::test_criterion_4_decomposition_suite"),
    "build_companion": (CRITERION_4, "test_acceptance::test_criterion_4_decomposition_suite"),
    "rig_contains": (CRITERION_4, "test_acceptance::test_criterion_4_decomposition_suite"),
    "pointwise_leq_rigid": ("Rig(q) lies between its extremes", "test_acceptance::test_criterion_5_rig_extrema"),
    "identity_matrix": (CRITERION_6, "test_acceptance::test_criterion_6_unique_base_invertibility"),
    "is_invertible": (CRITERION_6, "test_acceptance::test_criterion_6_unique_base_invertibility"),
    "mat_mul": (CRITERION_6, "test_acceptance::test_criterion_6_unique_base_invertibility"),
    "ring_companion_matrix": (CRITERION_7, "test_acceptance::test_criterion_7_stropicalization"),
    "stropicalize_bilinear": (CRITERION_7, "test_acceptance::test_criterion_7_stropicalization"),
    "balanced_companion_of_strop": (
        "the stropicalized balanced companion accompanies the stropicalized form",
        "test_acceptance::test_criterion_7_stropicalization",
    ),
    "functionally_equal": (
        "two schemes are one function when their diagonals agree and each cross term is admissible",
        "test_acceptance::test_criterion_8_functional_equality",
    ),
    "decompose": ("q = κ + ρ", "test_decomposition::test_decomposition_identity_random"),
    "eval_bilinear": (
        "q(x + y) = q(x) + q(y) + b(x, y) defines a companion b",
        "test_forms::test_expansion_rule_with_balanced_companion",
    ),
    "change_base": ("a base change P acts on q as q ∘ P", "test_forms::test_change_base_is_composition_with_matrix"),
}


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def _referenced(nodes, skip=None) -> set[str]:
    """Every name read in the nodes, as a bare name or as an attribute, outside the node skip."""
    out = set()
    todo = list(nodes)
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return out


def _unused_imports(name: str, tree: ast.Module) -> set[tuple[str, str]]:
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    return {(name, n) for n in imported - _referenced([tree])}


def _private_definitions(tree: ast.Module):
    """(name, node) of each private module-level function or constant and each private method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.ClassDef):
            yield from ((fn.name, fn) for fn in node.body if isinstance(fn, ast.FunctionDef))


def _unreferenced_private_names(modules: dict[str, ast.Module]) -> set[tuple[str, str]]:
    out = set()
    for name, tree in modules.items():
        for defined, node in _private_definitions(tree):
            if not _public(defined) and defined not in _referenced(modules.values(), node):
                out.add((name, defined))
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


_JSON_READERS = {"load", "loads", "JSONDecoder"}


def _json_reads_without_hook(tree: ast.Module) -> list[int]:
    """The line of every ``json.load``, ``json.loads`` or ``json.JSONDecoder`` call
    in the module that does not pass ``object_pairs_hook=_unique_keys``, the hook
    that refuses a key named twice, and of every import of one of them from
    ``json``, whose bare calls this scan would not see."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
        and node.func.attr in _JSON_READERS
        and not any(
            k.arg == "object_pairs_hook" and isinstance(k.value, ast.Name) and k.value.id == "_unique_keys"
            for k in node.keywords
        )
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json"
        and any(alias.name in _JSON_READERS for alias in node.names)
    )


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _private_parameters(tree: ast.Module) -> set[str]:
    """Every public function or method of the module, as ``f`` or ``Class.f``, that takes a
    ``_``-prefixed parameter: a private channel into a public function."""
    defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    defs += [
        (f"{cls.name}.{fn.name}", fn)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
    ]
    out = set()
    for name, fn in defs:
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        if all(map(_public, name.split("."))) and any(p.arg.startswith("_") for p in params):
            out.add(name)
    return out


def _exports(init: ast.Module) -> set[str]:
    """Every name ``__init__.py`` imports, which is what the package exports."""
    return {
        alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names
    }


def _library_only(init: ast.Module, modules: dict[str, ast.Module]) -> set[str]:
    """Every export that no other module reads, as a bare name or as an attribute."""
    return _exports(init) - _referenced(modules.values())


def _flagged() -> set[tuple[str, str]]:
    modules = _modules()
    flagged = _unreferenced_private_names(modules)
    for name, tree in modules.items():
        flagged |= _unused_imports(name, tree)
    return flagged


def test_every_import_and_private_function_is_used():
    """The allowlist names exactly what is flagged, so it lists what can be deleted."""
    assert _flagged() == set(ALLOWED)


def test_every_library_only_export_names_its_statement_and_test():
    """An export that neither the CLI nor another module calls stays only for a
    paper statement, and the table names the test that checks it there."""
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert _library_only(init, _modules()) == set(LIBRARY_ONLY)
    for name, (_, test) in LIBRARY_ONLY.items():
        module, function = test.split("::")
        tree = ast.parse((SRC.parents[1] / "tests" / f"{module}.py").read_text(encoding="utf-8"))
        assert function in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, (name, test)


def test_the_checks_find_what_they_look_for():
    tree = ast.parse(
        "import os\nfrom json import dumps, loads as read\n"
        "def _used(): return read\n"
        "def _unused(): return _unused()\n"
        "x = _used()\n"
        "_READ = 1\n_UNREAD: int = _READ\n__all__ = ['x']\n"
        "class C:\n"
        "    def _called(self): return 1\n"
        "    def _recursive(self): return self._recursive()\n"
        "    def __init__(self): self._called()\n"
    )
    assert _unused_imports("m", tree) == {("m", "os"), ("m", "dumps")}
    assert _unreferenced_private_names({"m": tree}) == {("m", "_unused"), ("m", "_UNREAD"), ("m", "_recursive")}
    assert _unreferenced_private_names({"m": tree, "n": ast.parse("m._UNREAD(); C()._recursive")}) == {
        ("m", "_unused"),
    }
    assert _private_imports(ast.parse("from .semiring import Element, _unscaled_exp\nfrom . import _x\n")) == {
        "_unscaled_exp", "_x",
    }
    assert _private_parameters(ast.parse(
        "def f(x, *, _memo=None): pass\n"
        "def g(*_rest): pass\n"
        "def _h(_x): pass\n"
        "class C:\n"
        "    def __init__(self, _x): pass\n"
        "    def m(self, **_kw): pass\n"
        "    def _p(self, _x): pass\n"
        "    def ok(self, x): pass\n"
        "class _D:\n"
        "    def m(self, _x): pass\n"
    )) == {"f", "g", "C.__init__", "C.m"}
    assert _json_reads_without_hook(ast.parse(
        "json.loads(a, object_pairs_hook=_unique_keys)\n"
        "json.loads(b)\n"
        "json.loads(c, object_pairs_hook=dict)\n"
        "json.load(fh)\n"
        "json.JSONDecoder().decode(e)\n"
        "from json import loads\n"
        "json.dumps(d)\n"
        "pickle.loads(f)\n"
        "json.load(fh, object_pairs_hook=_unique_keys)\n"
    )) == [2, 3, 4, 5, 6]
    init = ast.parse("from .m import called, read, unread\nfrom .n import alone\n")
    assert _library_only(init, {"m": ast.parse("def f(): return called()\n"), "n": ast.parse("x = m.read\n")}) == {
        "unread", "alone",
    }


def test_no_public_function_takes_a_private_parameter():
    """A ``_``-prefixed parameter of a public function is a channel only the package is meant to
    use; what a caller needs goes in a public parameter, and a shared memo in a private function."""
    assert {(name, fn) for name, tree in _modules().items() for fn in _private_parameters(tree)} == set()


def test_the_front_end_imports_only_public_names():
    """``cli`` reaches the package through its public names; what it needs of a
    module's internals belongs behind a public function of that module."""
    assert _private_imports(_modules()["cli"]) == set()


def test_the_front_end_refuses_a_key_named_twice_in_every_json_read():
    """``json.loads`` keeps the last copy of a repeated key; ``cli`` reads each input
    document and ``--semifield`` through the hook that refuses one instead."""
    assert _json_reads_without_hook(_modules()["cli"]) == []
