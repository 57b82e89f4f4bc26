"""The benchmark's traced layer boundaries must exist in the package.

``bench/run.py --trace 1`` wraps every ``(module, attribute)`` in its
``PATCHES`` table; a rename in ``src/`` would otherwise only surface when the
traced benchmark runs.
"""

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
