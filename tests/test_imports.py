"""Every name a library module imports is used in that module, every
private module-level function or class, and every private method, is used
by some library module, and every public method of a library class is
called by some library or test module. There is no linter in the
toolchain, so these scans stand in for one. Last, scipy loads only for the
`quad` fallback of the moment rule."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import aftermarkets

SOURCES = sorted(Path(aftermarkets.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _references(node, own=frozenset()):
    """The names and attribute names under `node`, except those a def or
    class refers to inside its own body by its own name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        own = own | {node.name}
    ref = (node.id if isinstance(node, ast.Name)
           else node.attr if isinstance(node, ast.Attribute) else None)
    if ref is not None and ref not in own:
        yield ref
    for child in ast.iter_child_nodes(node):
        yield from _references(child, own)


def unused_private_functions(sources: dict[str, str]) -> list[str]:
    """The private (one leading underscore) module-level functions and
    classes, and methods of module-level classes, of `sources` (name ->
    source) that no source refers to, by name or as an attribute, outside
    their own body."""
    defined, used = {}, set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name):
                defined[node.name] = f"{name}:{node.lineno}"
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and _private(method.name):
                        defined[f"{node.name}.{method.name}"] = f"{name}:{method.lineno}"
        used.update(_references(tree))
    return sorted(f"{fn} ({where})" for fn, where in defined.items()
                  if fn.rpartition(".")[2] not in used)


def test_scan_finds_an_unused_private_function():
    sources = {"a.py": "def _kept():\n    return _kept()\n\n"
                       "def _called():\n    pass\n\n"
                       "def __dunder__():\n    pass\n",
               "b.py": "import a\n\ndef _gone():\n    pass\n\na._called()\n",
               "c.py": "class _Lone:\n    def make(self):\n        return _Lone()\n\n"
                       "class Used:\n    def _step(self):\n        return self._step()\n\n"
                       "    def _run(self):\n        pass\n\n"
                       "    def __init__(self):\n        self._run()\n\n"
                       "Used()\n"}
    assert unused_private_functions(sources) == [
        "Used._step (c.py:6)", "_Lone (c.py:1)", "_gone (b.py:3)", "_kept (a.py:1)"]


def test_no_unused_private_functions():
    assert unused_private_functions({p.name: p.read_text() for p in SOURCES}) == []


def unused_public_methods(library: dict[str, str], users: dict[str, str]) -> list[str]:
    """The public methods of the module-level classes of `library` (name ->
    source) that no module of `library` or `users` refers to as an
    attribute."""
    defined, used = {}, set()
    for name, source in library.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                defined.update((f"{node.name}.{method.name}", f"{name}:{method.lineno}")
                               for method in node.body
                               if isinstance(method, ast.FunctionDef)
                               and not method.name.startswith("_"))
    for source in [*library.values(), *users.values()]:
        used.update(node.attr for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Attribute))
    return sorted(f"{fn} ({where})" for fn, where in defined.items()
                  if fn.rpartition(".")[2] not in used)


def test_scan_finds_an_unused_public_method():
    library = {"a.py": "class Batch:\n    def take(self):\n        return take\n\n"
                       "    def size(self):\n        return self._n\n\n"
                       "    def _hidden(self):\n        pass\n\n"
                       "def free():\n    pass\n",
               "b.py": "import a\n\nclass Lone:\n    def run(self):\n        pass\n\n"
                       "    def used(self):\n        pass\n"}
    users = {"test_a.py": "from a import Batch\n\nBatch().size()\nx.used\n"}
    assert unused_public_methods(library, users) == [
        "Batch.take (a.py:2)", "Lone.run (b.py:4)"]


def test_no_unused_public_methods():
    assert unused_public_methods({p.name: p.read_text() for p in SOURCES},
                                 {p.name: p.read_text() for p in TESTS}) == []


SCIPY_FREE_RUN = textwrap.dedent("""
    import math
    import sys

    import aftermarkets
    from aftermarkets.distributions import PiecewiseCdf, SegmentSpec, Uniform
    from aftermarkets.equilibrium import (default_deviation_grid, scripted_lower_bound_equilibrium,
                                          symmetric_fpa_check, verify_bne)

    def loaded():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    grids = {i: default_deviation_grid(10, r)
             for i, r in enumerate(("regular", "bulk", "speculator"))}
    assert verify_bne(scripted_lower_bound_equilibrium(10), grids, eps=1e-6).verdict
    square = PiecewiseCdf((SegmentSpec(0.0, 1.0, cdf=lambda x: x * x,
                                       pdf=lambda x: 2.0 * x, ppf=math.sqrt),))
    for dist in (Uniform(0.0, 1.0), square):
        assert symmetric_fpa_check(dist, 5, 21, 500, seed=1).passes(1e-6)
    cosine = PiecewiseCdf((SegmentSpec(0.0, 1.0, cdf=lambda x: (1.0 - math.cos(math.pi * x)) / 2.0,
                                       pdf=lambda x: math.pi / 2.0 * math.sin(math.pi * x)),))
    assert abs(cosine.quantile(0.1) - math.acos(0.8) / math.pi) < 1e-14
    assert loaded() == [], loaded()

    singular = PiecewiseCdf((SegmentSpec(0.0, 1.0, cdf=math.sqrt,
                                         pdf=lambda x: 0.5 / math.sqrt(x)),))
    got = singular.partial_mean(0.0, 0.5)
    assert math.isclose(got, 0.5 ** 1.5 / 3.0, rel_tol=1e-12), got
    assert "scipy.integrate" in sys.modules
""")


def test_scipy_loads_only_for_the_quad_fallback():
    """In a fresh interpreter the equilibrium check, both first-price checks
    and a quantile without a ppf leave scipy unloaded; the singular density
    1/(2 sqrt(x)) fails the Kronrod rule's check at 0 and loads it for quad."""
    src = str(Path(aftermarkets.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
