"""Tests of the benchmark itself: ``python -m pytest bench -q`` from the repo root."""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import corpus  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from worker import InProcess  # noqa: E402


def _strip_dir(manifest: dict, directory: str) -> str:
    return json.dumps(manifest, sort_keys=True).replace(directory, "<dir>")


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_a_function_of_the_seed(tmp_path, workload):
    a, b, c = (str(tmp_path / name) for name in "abc")
    ma, mb, mc = corpus.build(workload, 7, a), corpus.build(workload, 7, b), corpus.build(workload, 8, c)
    assert _strip_dir(ma, a) == _strip_dir(mb, b)
    names = sorted(n for n in os.listdir(a) if n != "manifest.json")
    assert names == sorted(n for n in os.listdir(b) if n != "manifest.json")
    assert filecmp.cmpfiles(a, b, names, shallow=False)[0] == names
    assert _strip_dir(ma, a) != _strip_dir(mc, c)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_rounds_hold_the_same_strata(tmp_path, workload):
    """Whole rounds measure one mix: the same (kind, size) pairs in every round."""
    manifest = corpus.build(workload, 3, str(tmp_path))

    def shape(c):
        parts = c["stratum"].split("/")
        return parts[0] if workload == "startup" else f"{parts[0]}/{parts[-1]}"

    shapes = [sorted(shape(c) for c in r) for r in manifest["rounds"]]
    assert all(s == shapes[0] for s in shapes)


def _package_bindings():
    mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "tropquad"]
    snap = {}
    for mod in mods:
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("tropquad"):
                for attr, member in vars(value).items():
                    snap[(mod.__name__, key, attr)] = member
    return mods, snap


def _calls(tmp_path):
    """Small calls covering every subcommand and every error exit."""
    startup = corpus.build("startup", 5, str(tmp_path / "s"))
    oracle = corpus.build("oracle", 5, str(tmp_path / "o"))
    return startup["rounds"][0] + oracle["warmup"]


def test_traced_and_untraced_stdout_are_identical_and_wrappers_go(tmp_path):
    runner = InProcess()
    calls = _calls(tmp_path)
    plain = [runner.call(c["argv"]) for c in calls]
    mods, before = _package_bindings()
    runner.start_trace()
    assert runner.cli.companion_table is not before[("tropquad.cli", "companion_table")]
    traced = [runner.traced_call(c["argv"]) for c in calls]
    dump = runner.stop_trace()
    # a defect's traceback passes through the wrappers, so only its stdout must match
    assert [(c["defect"] is None, code, out, err if c["defect"] is None else "")
            for c, (code, out, err) in zip(calls, traced)] == \
        [(c["defect"] is None, code, out, err if c["defect"] is None else "")
         for c, (code, out, err) in zip(calls, plain)]
    assert tracer.wrapped_bindings(mods) == []
    _, after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {span[0] for span in dump["spans"]}
    assert {"cli.self", "companions.table", "forms.beta", "serialize.parse", "companions.oracle"} <= names


def test_self_times_add_up_to_the_call(tmp_path):
    runner = InProcess()
    calls = _calls(tmp_path)
    runner.start_trace()
    try:
        for c in calls:
            runner.traced_call(c["argv"])
    finally:
        dump = runner.stop_trace()
    layers = tracer.summarize(dump)
    spans = dump["spans"]
    root_ms = sum(end - start for name, start, end, parent, _ in spans if parent < 0) * 1000 / len(calls)
    self_ms = sum(v for k, v in layers.items() if k.endswith("_ms"))
    assert self_ms == pytest.approx(root_ms, rel=1e-6)
    assert layers["companions.table.cells"] > 0 and layers["probes.elements"] > 0


def test_reference_accepts_the_program_and_rejects_wrong_output(tmp_path):
    runner = InProcess()
    for c in _calls(tmp_path):
        code, out, err = runner.call(c["argv"])
        if not c["defect"]:
            assert reference.check_output(c, code, out, err) == [], c["id"]
        if code == 0:
            doc = json.loads(out)
            wrong = json.dumps(dict(doc, extra=1))
            assert reference.check_output(c, code, wrong, err)
            assert reference.check_output(c, 1, out, err)
            assert reference.check_output(c, code, out + "Traceback (most recent call last):\n", err)


def test_tail_keeps_ten_samples_above():
    xs = list(range(1, 101))
    assert run.tail(xs, 90) == (90, 90)
    assert run.tail(xs, 99) == (90, 90)
    assert run.tail(xs, 75) == (75, 75)
    value, p = run.tail(list(range(1, 38)), 90)
    assert p == 72 and sum(x > value for x in range(1, 38)) >= 10


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_follows_benchmark_json(trace, kind):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "ingest", "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "ingest", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
