"""Byte-identical output on the benchmark corpus.

``bench/digests.json`` holds the stdout digest of every default-seed call
of every benchmark workload.  This replays each call that is not a
recorded defect through the benchmark's own in-process runner and compares
digests, so a change to any output byte fails here with the call id and
stratum.  It only reads ``bench/``; after a deliberate output change,
``python3 bench/digests.py`` regenerates the file.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# corpus and worker import their sibling ``reference`` by plain name
sys.path.insert(0, str(BENCH))
try:
    corpus, worker = _load("corpus"), _load("worker")
finally:
    sys.path.remove(str(BENCH))
DIGESTS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runner():
    return worker.InProcess()


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_stdout_matches_the_recorded_digests(tmp_path, runner, workload):
    assert DIGESTS["seed"] == corpus.DEFAULT_SEED
    expected = DIGESTS["workloads"][workload]
    manifest = corpus.build(workload, corpus.DEFAULT_SEED, str(tmp_path))
    seen, wrong = set(), []
    for c in manifest["warmup"] + [c for r in manifest["rounds"] for c in r]:
        if c["defect"]:
            continue
        _, stdout, _ = runner.call(c["argv"])
        seen.add(c["id"])
        if worker.digest(stdout) != expected.get(c["id"]):
            wrong.append(f"{c['id']} ({c['stratum']})")
    assert not wrong, f"{len(wrong)} calls changed stdout: {', '.join(wrong[:10])}"
    assert seen == set(expected)
