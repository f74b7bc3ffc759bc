"""Every name a package or test module imports is used in that module, and
every top-level name the package defines is referenced by the program."""

import ast
import functools
from pathlib import Path

import pytest

from longctx.numerics import RULES

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "longctx"
# the program: the package, its scripts and its benchmark, but not the tests
PROGRAM = [p for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
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


def imported_modules(source: str) -> set[str]:
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module)
    return out


@pytest.mark.parametrize("path", [pytest.param(p, id=p.name)
                                  for p in sorted(PACKAGE.glob("*.py")) if p.name != "data.py"])
def test_only_data_writes_csv(path):
    # every table goes through data.write_csv, so the CSV format is decided once
    assert "csv" not in imported_modules(path.read_text())


def test_only_ask_calls_generate_in_longcap():
    # the reply, check and one repair reprompt of every step is written once
    tree = ast.parse((PACKAGE / "longcap.py").read_text())
    callers = {getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "generate"}
    assert {c for c in callers if not c.endswith("Backend")} == {"_ask"}


def test_graph_builders_register_exactly_the_ops_with_a_rule():
    # each op is defined once, by its rule: a builder with no rule, or a rule
    # no builder reaches, fails here rather than in the middle of a forward
    tree = ast.parse((PACKAGE / "numerics.py").read_text())
    graph = next(top for top in tree.body if getattr(top, "name", None) == "Graph")
    ops = {node.args[0].value for node in ast.walk(graph)
           if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
           and node.func.attr == "_register"}
    assert ops - {"input"} == set(RULES)


def test_only_encoders_names_the_text_tower_inputs():
    # the PAD mask and the EOS index are built once, by encoders.text_inputs, so
    # training and retrieval give the text tower the same window
    naming = {p.name for p in PACKAGE.glob("*.py") for node in ast.walk(ast.parse(p.read_text()))
              if isinstance(node, ast.Constant) and node.value in ("mask", "eos_idx")}
    assert naming == {"encoders.py"}


def test_unused_import_detector():
    source = ("from __future__ import annotations\nimport os\nimport xml.etree as ET\n"
              "from a import b, c as d\nET.parse(b)\n")
    assert unused_imports(source) == ["d (line 4)", "os (line 2)"]


def defined_names(tree: ast.Module) -> dict[str, int]:
    """Top-level functions, classes and assigned names, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read, attributes read and names imported, matched by name only."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def dead_names(defining: str, used: set[str]) -> list[str]:
    return sorted(f"{name} (line {line})"
                  for name, line in defined_names(ast.parse(defining)).items()
                  if name not in used)


@functools.cache
def program_references() -> frozenset[str]:
    return frozenset().union(*(referenced_names(ast.parse(p.read_text())) for p in PROGRAM))


@pytest.mark.parametrize("path", [pytest.param(p, id=p.name)
                                  for p in sorted(PACKAGE.glob("*.py"))])
def test_every_top_level_name_is_referenced_by_the_program(path):
    assert dead_names(path.read_text(), program_references()) == []


def test_dead_name_detector():
    defining = "A = 1\nB, C = 2, 3\nD: int = 4\nclass K: pass\ndef f(): pass\ndef g(): pass\n"
    program = [defining, "from m import K\nprint(A, x.C, f())\n"]
    used = set().union(*(referenced_names(ast.parse(source)) for source in program))
    assert dead_names(defining, used) == ["B (line 2)", "D (line 3)", "g (line 6)"]
