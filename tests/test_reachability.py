"""Every function in the package has a caller outside the tests.

A module-level function or public method whose name is referred to nowhere
in ``src/censim`` or ``perfbench/`` except inside its own definition can
only be reached from tests.  Such code is deleted, not kept alive by its
own tests.  Names exported through ``censim.__all__`` are the public API
and count as reachable.

Likewise every name a package module imports is used in that module, so a
refactor that moves code leaves no stale import behind.
"""

import ast
import re
from pathlib import Path

import censim

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "censim"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED = {
    # criterion 04 asserts the scalar Farr round trip
    "farr_probability", "invert_farr",
    # the tests build single-age classes with it
    "single_ages",
}

UNUSED_IMPORTS_ALLOWED = {
    # perfbench imports degrade from censim.synthgen and traces it there
    "synthgen.degrade",
}

# perfbench binds trace points by "module:attribute" strings
_SITE = re.compile(r"censim\.\w+:([\w.]+)")


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) for every name, attribute and trace site in a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for m in _SITE.finditer(node.value):
                out += [(part, node.lineno) for part in m.group(1).split(".")]
    return out


def _definitions(tree: ast.Module):
    """Module-level functions and public methods, as def nodes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (sub for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_"))


def test_every_function_is_reachable_outside_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    refs = {path: _references(tree) for path, tree in trees.items()}
    unreachable = []
    for path in SOURCES:
        if path.parent != PACKAGE:
            continue
        for node in _definitions(trees[path]):
            if node.name in censim.__all__ or node.name in ALLOWED:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (where == path and line in own)
                       for where, found in refs.items()
                       for name, line in found):
                unreachable.append(f"{path.name}:{node.lineno} {node.name}")
    assert unreachable == []


def _imports(tree: ast.Module):
    """(bound name, line) for every import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _uses(tree: ast.Module) -> set[str]:
    """Names a module reads, counting the strings of its ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _uses(tree)
        for name, line in _imports(tree):
            if name not in used and f"{path.stem}.{name}" not in UNUSED_IMPORTS_ALLOWED:
                unused.append(f"{path.name}:{line} {name}")
    assert unused == []
