"""Every name a source or test module imports is used in that module, and
the package exports exactly the names its ``__init__.py`` imports."""

import ast
from pathlib import Path

import pytest

import fbcompose

INIT = Path(fbcompose.__file__)
MODULES = sorted(path for path in INIT.parent.glob("*.py") if path != INIT)
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _imported_names(tree: ast.AST) -> dict[str, int]:
    """Each name the imports of ``tree`` bind, with the line that binds it."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    return imported


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = _imported_names(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    source = "from __future__ import annotations\nimport os.path\nimport re as regex\nos.sep\n"
    assert _unused_imports(source) == ["regex (line 3)"]


@pytest.mark.parametrize(
    "path", MODULES + TESTS, ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TESTS]
)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == [], f"{path.name} imports names it never uses"


def test_package_exports_exactly_the_names_it_imports():
    imported = set(_imported_names(ast.parse(INIT.read_text())))
    exported = set(fbcompose.__all__)
    assert imported - exported == set(), "imported by __init__.py but missing from __all__"
    assert exported - imported == set(), "in __all__ but not imported by __init__.py"
