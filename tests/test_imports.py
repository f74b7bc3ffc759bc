"""Every name a package or test module imports is used in that module."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "longctx"
MODULES = ([pytest.param(p, id=p.name) for p in sorted(PACKAGE.glob("*.py"))]
           + [pytest.param(p, id=f"tests/{p.name}") for p in sorted(TESTS.glob("*.py"))])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detector():
    source = ("from __future__ import annotations\nimport os\nimport xml.etree as ET\n"
              "from a import b, c as d\nET.parse(b)\n")
    assert unused_imports(source) == ["d (line 4)", "os (line 2)"]
