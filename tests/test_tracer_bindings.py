"""Every name the bench tracer wraps still resolves on the package, and ``check`` reaches it.

``bench/tracer.py`` binds functions and methods by name.  Loading it by
path and resolving each of its bindings here turns a rename in ``src``
into a failing test instead of a broken ``--trace 1`` run.  A traced
``check`` shows that each cell still goes through the traced names once.
"""

import importlib
import importlib.util
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from tropquad import GroupKind, Semifield, cli
from tropquad.serialize import form_to_json

from gen import random_form

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


def test_a_traced_check_records_one_oracle_and_one_battery_span_per_cell(tmp_path, capsys):
    """``check`` of a 4 x 4 form calls the public oracle and the battery builder once
    for each of its 10 cells, and ``restore`` leaves no binding wrapped."""
    path = tmp_path / "q.json"
    path.write_text(json.dumps(form_to_json(random_form(random.Random(0), Semifield(GroupKind.RAT, 1), 4))))
    traced = tracer.Tracer()
    traced.install()
    try:
        code = cli.main(["check", str(path)])
    finally:
        traced.restore()
    package = [module for name, module in sys.modules.items() if name.split(".")[0] == "tropquad"]
    assert tracer.wrapped_bindings(package) == []
    assert code == 0 and json.loads(capsys.readouterr().out)["ok"]
    spans = Counter(name for name, *_ in traced.spans)
    assert spans["companions.oracle"] == spans["probes.battery"] == 10
