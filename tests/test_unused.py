"""Every top-level function and class of src/sparqlkb is used: another
top-level statement of src/ reads it, or it is exported by
`sparqlkb.__all__`, imported by tests/test_acceptance.py, or wrapped by the
benchmark's tracer (perfbench/tracer.py's TIMED and COUNTED targets).  Code
that only the tests call belongs in tests/.

A statement reads a definition when it loads a name, or an attribute of a
module, that is bound to the definition's object.  An attribute of anything
else (``", ".join``, ``self.check``) reads nothing, and an import alone does
not read what it imports.  One limit: a local variable that shares a
module-level name counts as reading what that name is bound to."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import sparqlkb

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sparqlkb"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
TRACER = ROOT / "perfbench" / "tracer.py"


def _resolve(namespace: dict, node: ast.expr):
    """What node, a name or an attribute of a module, is bound to in the
    module whose globals are namespace, or None."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(namespace, node.value)
        if isinstance(base, types.ModuleType):
            return getattr(base, node.attr, None)
    return None


def _reads(namespace: dict, node: ast.AST) -> set[int]:
    """The ids of the objects that node reads."""
    return {
        id(_resolve(namespace, sub))
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    }


def unreferenced() -> list[tuple[str, str]]:
    """(module, name) of each top-level def and class of src/sparqlkb that
    no other top-level statement of src/ reads."""
    statements = []  # (module, its globals, statement)
    for path in sorted(SRC.glob("*.py")):
        module = "sparqlkb" if path.stem == "__init__" else f"sparqlkb.{path.stem}"
        namespace = vars(importlib.import_module(module))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        statements += [(module, namespace, node) for node in tree.body]
    reads = [_reads(namespace, node) for _, namespace, node in statements]
    found = []
    for i, (module, namespace, node) in enumerate(statements):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = id(namespace[node.name])
            if not any(defined in ids for j, ids in enumerate(reads) if j != i):
                found.append((module, node.name))
    return found


def _acceptance_imports() -> list[tuple[str, str]]:
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sparqlkb")
        for alias in node.names
    ]


def _tracer_targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(entry[0], entry[1]) for entry in tracer.TIMED + tracer.COUNTED]


def _lookup(module: str, name: str):
    return getattr(importlib.import_module(module), name, None)


def test_every_definition_in_src_is_used():
    listed = [("sparqlkb", name) for name in sparqlkb.__all__]
    listed += _acceptance_imports() + _tracer_targets()
    kept = {id(_lookup(module, name)) for module, name in listed}
    unused = [
        f"{module}.{name}"
        for module, name in unreferenced()
        if id(_lookup(module, name)) not in kept
    ]
    assert unused == []
