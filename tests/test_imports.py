"""Every name a source module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import fbcompose

MODULES = sorted(
    path for path in Path(fbcompose.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    source = "from __future__ import annotations\nimport os.path\nimport re as regex\nos.sep\n"
    assert _unused_imports(source) == ["regex (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == [], f"{path.name} imports names it never uses"
