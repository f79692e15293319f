"""Every name a library module imports is used in that module, and every
private module-level function is used by some library module. There is no
linter in the toolchain, so these scans stand in for one."""

import ast
from pathlib import Path

import pytest

import aftermarkets

SOURCES = sorted(Path(aftermarkets.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)", "path (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_private_functions(sources: dict[str, str]) -> list[str]:
    """The private (one leading underscore) module-level functions of
    `sources` (name -> source) that no source refers to, by name or as an
    attribute, outside their own body."""
    defined, used = {}, set()
    for name, source in sources.items():
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, ast.FunctionDef):
                own = node.name
                if own.startswith("_") and not own.startswith("__"):
                    defined[own] = f"{name}:{node.lineno}"
            for sub in ast.walk(node):
                ref = (sub.id if isinstance(sub, ast.Name)
                       else sub.attr if isinstance(sub, ast.Attribute) else None)
                if ref is not None and ref != own:
                    used.add(ref)
    return sorted(f"{fn} ({where})" for fn, where in defined.items()
                  if fn not in used)


def test_scan_finds_an_unused_private_function():
    sources = {"a.py": "def _kept():\n    return _kept()\n\n"
                       "def _called():\n    pass\n\n"
                       "def __dunder__():\n    pass\n",
               "b.py": "import a\n\ndef _gone():\n    pass\n\na._called()\n"}
    assert unused_private_functions(sources) == ["_gone (b.py:3)", "_kept (a.py:1)"]


def test_no_unused_private_functions():
    assert unused_private_functions({p.name: p.read_text() for p in SOURCES}) == []
