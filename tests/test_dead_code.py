"""A dead-code guard over src/zpdistill, with the standard library's ast alone.

Every name a module imports is read in that module (or exported through its
__all__), every module-level private function, class or constant is
referenced somewhere in src/ besides its own definition, and every function
or lambda reads each of its parameters in its body.
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


def _parameters(node):
    """The names of every parameter of a function or lambda node."""
    a = node.args
    extra = [arg for arg in (a.vararg, a.kwarg) if arg is not None]
    return [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, *extra)]


def test_every_parameter_is_read():
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    unread = []
    for module, tree in _TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, functions):
                continue
            body = node.body if isinstance(node, ast.Lambda) else ast.Module(node.body, [])
            read = {n.id for n in ast.walk(body)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{module}:{node.lineno} {name} never reads {param}"
                       for param in _parameters(node) if param not in read]
    assert not unread
