"""One benchmark client in a fresh process: set up, run whole rounds, check.

Started by ``run.py`` from the root of a checkout.  The client is a closed
loop: it sends the next CLI call only after the previous one returned.
``startup`` calls run as ``python -m tropquad`` subprocesses; the other
workloads call ``tropquad.cli.main(argv)`` in this process.  Each output is
checked between calls, outside the timed intervals.  The last stdout line
is this process's JSON report.

Host speed: the 2-CPU virtual machines this was built on change speed by up
to 1.6x, in phases that last from seconds to minutes.  That is far more
than the bounds a change is judged by.  So a fixed pure-Python kernel,
which runs no package code, is timed between calls.  Each duration is
reported with the factor that scales it to a host on which the kernel
takes ``KERNEL_REF_S``; ``run.py`` scales a run's durations by the median
of its calls' factors.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from fractions import Fraction

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
SUBPROCESS_TIMEOUT_S = 60
KERNEL_REF_S = 0.012  # the kernel's time on the host this was tuned on
KERNEL_EVERY_S = 0.25  # time the kernel again once this much has passed
KERNEL_WINDOW = 5  # the speed is the median of this many recent timings


def kernel_seconds() -> float:
    """Time one run of a fixed kernel in the package's style of work:
    exact fractions, small tuples, dict lookups and short linear scans."""
    t = time.perf_counter()
    acc, table, items = Fraction(0), {}, []
    for i in range(1, 1500):
        x = Fraction(i, 3 * i + 1)
        acc += x
        table[(i % 17, i)] = (acc.numerator % 7, x)
        items.append((i, x))
        if (i % 17, i - 1) in table:
            acc -= table[(i % 17, i - 1)][1] / 2
    for a, _ in items[:300]:
        for b, _ in items[:20]:
            if a == b:
                break
    return time.perf_counter() - t


class HostSpeed:
    """Recent kernel timings; ``factor`` scales a duration to reference speed."""

    def __init__(self):
        self.samples: deque = deque(maxlen=KERNEL_WINDOW)
        self.last = float("-inf")

    def sample(self):
        self.samples.append(kernel_seconds())
        self.last = time.perf_counter()

    def factor(self) -> float:
        if time.perf_counter() - self.last >= KERNEL_EVERY_S:
            self.sample()
        return KERNEL_REF_S / statistics.median(self.samples)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class InProcess:
    """Calls ``cli.main`` with stdout and stderr captured."""

    def __init__(self):
        from tropquad import cli  # the package import is part of set-up

        self.cli = cli
        self.tracer = None

    def call(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an escaped exception is a failed call, not a crashed client
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def traced_call(self, argv: list[str]):
        self.tracer.call += 1
        rec = self.tracer.begin("cli.self")
        try:
            return self.call(argv)
        finally:
            self.tracer.end(rec)

    def start_trace(self):
        import tracer

        self.tracer = tracer.Tracer()
        self.tracer.install()

    def stop_trace(self) -> dict:
        self.tracer.restore()
        return self.tracer.dump()

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Subprocess:
    """Runs ``python -m tropquad`` per call; traced calls go through tracer.py."""

    def __init__(self, workdir: str):
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.workdir = workdir
        self.dumps = None

    def _run(self, cmd: list[str]):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, timeout=SUBPROCESS_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def call(self, argv: list[str]):
        return self._run([sys.executable, "-m", "tropquad", *argv])

    def traced_call(self, argv: list[str]):
        out = os.path.join(self.workdir, f"trace{len(self.dumps)}.json")
        result = self._run([sys.executable, os.path.join(HERE, "tracer.py"), out, *argv])
        with open(out, encoding="utf-8") as fh:
            self.dumps.append(json.load(fh))
        os.remove(out)
        return result

    def start_trace(self):
        self.dumps = []

    def stop_trace(self) -> dict:
        """The children's spans as one dump: call ids numbered, parents offset."""
        merged = {"spans": [], "counts": {}, "calls": len(self.dumps)}
        for call, d in enumerate(self.dumps, 1):
            base = len(merged["spans"])
            merged["spans"] += [[name, t0, t1, parent + base if parent >= 0 else -1, call]
                                for name, t0, t1, parent, _ in d["spans"]]
            for key, value in d["counts"].items():
                merged["counts"][key] = merged["counts"].get(key, 0) + value
        return merged

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def run_rounds(runner, rounds: list, budget_s: float, traced: bool, checker, speed) -> list:
    """Run whole rounds while the next one is expected to end within the budget.

    Each output is checked right after its call, outside the call's timed
    interval.  Returns one ``(call, stdout digest, problems, seconds, round,
    host factor)`` per call.
    """
    call = runner.traced_call if traced else runner.call
    records, start, last = [], time.perf_counter(), 0.0
    r = 0
    while r == 0 or time.perf_counter() - start + last <= budget_s:
        round_start = time.perf_counter()
        for c in rounds[r % len(rounds)]:
            before = speed.factor()
            t = time.perf_counter()
            code, out, err = call(c["argv"])
            dt = time.perf_counter() - t
            # the host's speed on both sides of the call; a long call is timed again after it
            factor = (before + speed.factor()) / 2
            records.append((c, digest(out), checker(c, code, out, err), dt, r, factor))
        last = time.perf_counter() - round_start
        r += 1
    return records


class Checker:
    """Checks each output against the reference and, for the default seed,
    against the committed stdout digests.

    Rounds cycle through the pool, so a call can repeat; an outcome
    identical to one already checked for the same call gets the same
    verdict without recomputing the reference.
    """

    def __init__(self, digests: dict | None):
        self.digests = digests
        self.verdicts: dict[tuple, list[str]] = {}

    def __call__(self, c: dict, code: int, out: str, err: str) -> list[str]:
        key = (c["id"], code, hashlib.sha256(f"{out}\0{err}".encode("utf-8")).digest())
        if key not in self.verdicts:
            bad = reference.check_output(c, code, out, err)
            if not bad and not c["defect"] and self.digests is not None and self.digests.get(c["id"]) != digest(out):
                bad = ["stdout differs from the committed digest"]
            self.verdicts[key] = bad
        return self.verdicts[key]


def tally(records) -> tuple[int, int, list[str], dict]:
    """Returns (attempted, failed, problems, defects).

    Calls that exercise a known defect are tallied apart, per defect, so
    the defect stays visible without counting as a failed operation.
    """
    attempted = failed = 0
    problems, defects = [], {}
    for c, _, bad, *_ in records:
        if c["defect"]:
            entry = defects.setdefault(c["defect"], {"calls": 0, "misses": 0})
            entry["calls"] += 1
            entry["misses"] += bool(bad)
            continue
        attempted += 1
        if bad:
            failed += 1
            problems.append(f"{c['id']} ({c['stratum']}): {'; '.join(bad)}")
    return attempted, failed, problems, defects


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=int, required=True, help="time.monotonic_ns() when the parent started us")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", help="also run the rounds traced and write the spans here")
    ap.add_argument("--digests", help="committed stdout digests to compare with (default seed only)")
    args = ap.parse_args()

    with open(os.path.join(args.corpus, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    runner = Subprocess(args.corpus) if manifest["workload"] == "startup" else InProcess()
    warm = [(c, *runner.call(c["argv"])) for c in manifest["warmup"]]
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    speed = HostSpeed()
    for _ in range(KERNEL_WINDOW):
        speed.sample()
    setup = {"setup_s": setup_s, "setup_factor": speed.factor()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    digests = None
    if args.digests:
        with open(args.digests, encoding="utf-8") as fh:
            digests = json.load(fh)["workloads"][manifest["workload"]]
    checker = Checker(digests)
    records = [(c, digest(out), checker(c, code, out, err), 0.0, -1, 1.0) for c, code, out, err in warm]
    rounds = manifest["rounds"]
    budget = args.seconds / 2 if args.trace_out else args.seconds
    timed = run_rounds(runner, rounds, budget, False, checker, speed)
    report = {
        **setup,
        "peak_rss_mb": runner.peak_rss_mb(),
        "latencies_s": [[rec[0]["stratum"], rec[3], rec[4], rec[5]] for rec in timed],
    }
    records += timed
    if args.trace_out:
        import tracer

        runner.start_trace()
        try:
            traced = run_rounds(runner, rounds, budget, True, checker, speed)
        finally:
            dump = runner.stop_trace()
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            for span in dump["spans"]:
                fh.write(json.dumps(span) + "\n")
        untraced = {rec[0]["id"]: rec[1] for rec in timed}
        host = statistics.median(rec[5] for rec in traced)
        layers = tracer.summarize(dump)
        report["trace"] = {
            "busy_s": sum(rec[3] for rec in traced),
            "host": host,
            "calls": len(traced),
            "layers": {k: v * host if k.endswith("_ms") else v for k, v in layers.items()},
            "stdout_mismatches": sorted(
                rec[0]["id"] for rec in traced if rec[0]["id"] in untraced and untraced[rec[0]["id"]] != rec[1]
            ),
        }
        records += traced
    attempted, failed, problems, defects = tally(records)
    report.update(attempted=attempted, failed=failed, problems=problems, defects=defects)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
