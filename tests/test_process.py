"""Fresh interpreters: what `import tropquad.cli` loads, and `python -m tropquad` end to end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

FORM = {"semifield": {"group": "int", "fiber_rank": 0}, "n": 2, "diag": ["t:2", "t:4"], "upper": {"1,2": "t:9"}}


def _python(*args, stdin: str = "") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, env=ENV, timeout=60
    )


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # either module costs every process about 10 ms of import time
    probe = "import sys, tropquad.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = _python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_module_eval_prints_one_json_document():
    proc = _python("-m", "tropquad", "eval", "-", "--vector", "t:1,t:0", stdin=json.dumps(FORM))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout) == {"value": "t:10"}


def test_module_bad_literal_prints_one_json_error():
    bad = dict(FORM, diag=["t:2", "t:x"])
    proc = _python("-m", "tropquad", "eval", "-", "--vector", "t:1,t:0", stdin=json.dumps(bad))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    answer = json.loads(proc.stderr)
    assert answer == {"error": "not a rational literal: 'x'", "path": "$.diag[2]"}


def test_module_argument_error_prints_one_json_error():
    proc = _python("-m", "tropquad", "eval", "-", stdin=json.dumps(FORM))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr) == {"error": "the following arguments are required: --vector", "path": "$.argv"}


@pytest.mark.parametrize("module, buffered", [
    pytest.param(module, buffered, id=f"{prefix}{buffered}")
    for module, prefix in (("tropquad", ""), ("tropquad.cli", "cli-"))
    for buffered in (True, False)
])
def test_module_exits_quietly_when_the_reader_closes_stdout_early(module, buffered):
    # `tropquad check big.json | head -c 100`: the reader is gone before the answer is written;
    # buffered, the write fails when stdout is flushed, unbuffered, when it is printed
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"} if buffered else dict(ENV, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", module, "check", "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(json.dumps(FORM).encode(), timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in err.decode() and "Exception ignored" not in err.decode(), err.decode()
