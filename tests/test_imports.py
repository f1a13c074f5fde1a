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
