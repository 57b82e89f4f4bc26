"""The benchmark's traced layer boundaries must exist in the package.

``bench/run.py --trace 1`` wraps every ``(module, attribute)`` in its
``PATCHES`` table; a rename in ``src/`` would otherwise only surface when the
traced benchmark runs. The same table is the one reason a module may import a
name it never reads, so a leftover import, or a re-import whose patch is gone,
fails here.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_run():
    sys.path.insert(0, str(BENCH))  # run.py imports its sibling harness.py
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


PATCHES = load_bench_run().PATCHES


@pytest.mark.parametrize("module,attr", [p[1:3] for p in PATCHES],
                         ids=[f"{p[1]}.{p[2]}" for p in PATCHES])
def test_traced_layer_boundary_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def unused_imports(path):
    """Names that ``path`` imports at top level and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_unused_import_is_a_patched_boundary():
    """A top-level import no code reads is kept only for the bench to patch there."""
    patched = {(module, attr) for _, module, attr, _ in PATCHES}
    src = Path(__file__).resolve().parent.parent / "src" / "partgraph"
    unused = {(f"partgraph.{path.stem}", name) for path in sorted(src.glob("*.py"))
              if path.name != "__init__.py" for name in unused_imports(path)}
    assert unused - patched == set()
