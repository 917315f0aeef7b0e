"""Regenerate ``digests.json``: stdout digests of every default-seed call.

Run from the root of a checkout: ``python3 bench/digests.py``.  Every
output is checked against the reference first; the file is written only
if all pass.  A change that alters any CLI output byte changes a digest,
which is the byte-identical refactor oracle of ROADMAP.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import corpus
import reference

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    from worker import InProcess, digest

    runner = InProcess()
    out = {"seed": corpus.DEFAULT_SEED, "workloads": {}}
    work = os.path.join(".bench_build", "digests")
    try:
        for workload in corpus.WORKLOADS:
            manifest = corpus.build(workload, corpus.DEFAULT_SEED, os.path.join(work, workload))
            digests = {}
            for c in manifest["warmup"] + [c for r in manifest["rounds"] for c in r]:
                code, stdout, stderr = runner.call(c["argv"])
                if c["defect"]:
                    continue
                bad = reference.check_output(c, code, stdout, stderr)
                if bad:
                    print(f"{c['id']} ({c['stratum']}): {bad}", file=sys.stderr)
                    return 1
                digests[c["id"]] = digest(stdout)
            out["workloads"][workload] = digests
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
