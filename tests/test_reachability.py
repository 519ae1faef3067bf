"""Every function in the package has a caller outside the tests.

A module-level function or public method whose name is referred to nowhere
in ``src/censim`` or ``perfbench/`` except inside its own definition can
only be reached from tests.  Such code is deleted, not kept alive by its
own tests.  A perfbench trace site ("module:attribute") refers to the
attribute only while that module binds it.  Names exported through
``censim.__all__`` are the public API and count as reachable.

Likewise every name a package module imports is used in that module, so a
refactor that moves code leaves no stale import behind, and every parameter
default is overridden by some call in ``src/censim`` or ``perfbench/``: an
option no caller sets is a configuration nothing runs.
"""

import ast
import importlib
import re
from pathlib import Path

import censim

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "censim"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED = {
    # criterion 04 asserts the scalar Farr round trip
    "farr_probability", "invert_farr",
}

UNUSED_IMPORTS_ALLOWED = {
    # perfbench imports degrade from censim.synthgen and traces it there
    "synthgen.degrade",
}

# perfbench binds trace points by "module:attribute" strings
_SITE = re.compile(r"(censim\.\w+):([\w.]+)")


def _binds(module: str, path: str) -> bool:
    """Whether a trace site's module binds its dotted attribute path; a
    stale site names nothing and so refers to nothing."""
    obj = importlib.import_module(module)
    for part in path.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


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
                if _binds(*m.groups()):
                    out += [(part, node.lineno) for part in m.group(2).split(".")]
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


DEFAULTS_ALLOWED = {
    # perfbench calls it as censim_main, with an argument list
    "main(argv)",
    # the acceptance criteria in tests/test_acceptance.py set these
    "fit_mortality(alpha)", "ipf2(max_iter)", "ipf3(max_iter)",
    "build_life_table(l0)",
}


def _defaulted(tree: ast.Module):
    """(callable name, parameter, positional index or None) for every
    parameter with a default; an __init__ is called by its class's name."""
    def visit(node, owner):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.ClassDef):
                yield from visit(sub, sub)
            elif isinstance(sub, ast.FunctionDef):
                name = owner.name if sub.name == "__init__" else sub.name
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in sub.decorator_list)
                positional = sub.args.posonlyargs + sub.args.args
                if owner is not None and not static:
                    positional = positional[1:]
                tail = positional[len(positional) - len(sub.args.defaults):]
                for arg in tail:
                    yield name, arg.arg, positional.index(arg)
                for arg, default in zip(sub.args.kwonlyargs, sub.args.kw_defaults):
                    if default is not None:
                        yield name, arg.arg, None
                yield from visit(sub, None)
            else:
                yield from visit(sub, owner)
    yield from visit(tree, None)


def _passed(node: ast.AST, owner: str | None = None):
    """(callee name, parameter name or positional index) for every argument
    a call passes; a **kwargs argument passes every one, and cls inside a
    class is that class.  A *args argument passes none: how many it fills
    is unknown, so it and every positional argument after it are skipped."""
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "cls" and owner is not None:
                name = owner
            for i, arg in enumerate(sub.args):
                if isinstance(arg, ast.Starred):
                    break
                yield name, i
            for kw in sub.keywords:
                yield name, kw.arg or "**"
        yield from _passed(sub, sub.name if isinstance(sub, ast.ClassDef) else owner)


def test_every_parameter_default_is_set_outside_tests():
    passed = set()
    for path in SOURCES:
        passed |= set(_passed(ast.parse(path.read_text(encoding="utf-8"))))
    unset = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, param, index in _defaulted(tree):
            ways = {param, "**"} | ({index} if index is not None else set())
            if not any((name, way) in passed for way in ways):
                unset.add(f"{name}({param})")
    assert sorted(unset - DEFAULTS_ALLOWED) == []
    # an allowlist entry whose parameter gained a caller goes
    assert sorted(DEFAULTS_ALLOWED - unset) == []
