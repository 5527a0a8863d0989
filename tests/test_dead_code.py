"""A dead-code guard over src/zpdistill, with the standard library's ast alone.

Every name a module imports is read in that module (or exported through its
__all__), and every module-level private function, class or constant is
referenced somewhere in src/ besides its own definition.
"""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src" / "zpdistill"
_TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
          for path in sorted(_SRC.glob("*.py"))}


def _exported(tree):
    """The strings of a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _private_definitions(tree):
    """(name, line) of each module-level function, class or assigned name
    with one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _references(tree):
    """Every name a tree reads, the attribute names it reads and the names it
    imports from another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_imported_name_is_used():
    unused = []
    for module, tree in _TREES.items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{module}:{node.lineno} imports {name}")
    assert not unused


def test_every_private_module_level_name_is_referenced():
    referenced = {name for tree in _TREES.values() for name in _references(tree)}
    dead = [f"{module}:{line} defines {name}"
            for module, tree in _TREES.items()
            for name, line in _private_definitions(tree) if name not in referenced]
    assert not dead
