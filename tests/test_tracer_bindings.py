"""Every name the bench tracer wraps still resolves on the package.

``bench/tracer.py`` binds functions and methods by name.  Loading it by
path and resolving each of its bindings here turns a rename in ``src``
into a failing test instead of a broken ``--trace 1`` run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
BINDINGS = sorted({binding for table in (tracer.SPANS, tracer.COUNTS) for names in table.values() for binding in names})


@pytest.mark.parametrize("module, attr", BINDINGS)
def test_traced_binding_resolves(module, attr):
    home = importlib.import_module(f"tropquad.{module}")
    assert callable(tracer._resolve(home, attr))
