"""Import hygiene: no module of the package imports a name it never uses."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "robust_makespan"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports that no expression in it reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom numpy import array, zeros as z\nz(os.sep)\n")
    assert _unused_imports(tree) == ["array (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports(ast.parse((SRC / module).read_text())) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__") and not name.endswith("__")


def _defined_private_names(tree: ast.Module) -> dict[str, int]:
    """Private names (one leading underscore, no dunder) bound at module or class level."""
    defined = {}
    scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for n in nodes for t in ast.walk(n) if isinstance(t, ast.Name)]
            else:
                continue
            defined.update((name, node.lineno) for name in targets if _private(name))
    return defined


def _read_names(tree: ast.Module) -> set[str]:
    """Every loaded name, attribute and imported name of the module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_the_scan_sees_a_dead_private_name():
    tree = ast.parse("_A = 1\n_B = 2\nclass C:\n    _x = 0\n    def _f(self):\n"
                     "        return self._y\n    _y = _A\n__all__ = []\n")
    defined = _defined_private_names(tree)
    assert defined == {"_A": 1, "_B": 2, "_x": 4, "_f": 5, "_y": 7}
    assert sorted(set(defined) - _read_names(tree)) == ["_B", "_f", "_x"]


def test_every_private_name_is_read_somewhere_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(_read_names, trees.values()))
    dead = [f"{module}: {name} (line {line})" for module, tree in trees.items()
            for name, line in _defined_private_names(tree).items() if name not in read]
    assert dead == []
