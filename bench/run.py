"""tropquad benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tables --seed 0 --seconds 25 --trace 0

Builds the seeded corpus under ``.bench_build/``, measures set-up in
several fresh worker processes, runs the closed loop in one of them and
checks every output.  The last stdout line is the result: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run (whose spans are written to
``.bench_build/trace/``).  The line before it holds details: the tail's
percentile and sample count, failure and defect tallies and the source
line count.  Exits 2 without a result when the package source is absent.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".bench_build"
SOURCE = os.path.join("src", "tropquad")
DIGESTS = os.path.join(HERE, "digests.json")
SETUPS = 3  # fresh workers whose set-up is timed; the last one also runs the loop
# call_ms.tail per workload: a whole percentile that keeps at least ten
# samples above it at the sample count a 25-second run collects, fixed so that
# runs collecting a round more or less stay comparable.  Each lies inside the
# bulk of its workload's latencies rather than on a gap between strata.
TAIL_PERCENTILE = {"startup": 80, "tables": 70, "oracle": 70, "ingest": 95}
PROBE_REPEATS = 7  # interpreter-floor and import-time subprocesses per traced run
DEADLINE_S = 170


def spawn(args: list[str], timeout: float) -> dict:
    """Run a worker in its own process group; return its JSON report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args, "--t0", str(time.monotonic_ns())]
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, preexec_fn=os.setpgrp
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def tail(latencies_ms: list[float], percentile: int) -> tuple[float, int]:
    """The given whole percentile, or the highest one below it that keeps at
    least ten samples above it (nearest rank); returns (value, percentile)."""
    xs = sorted(latencies_ms)
    n = len(xs)
    p = min(percentile, max(0, 100 * (n - 10) // n))
    rank = max(1, -(-p * n // 100))
    return xs[rank - 1], p


def median_wall_ms(cmd: list[str], env: dict) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        subprocess.run(cmd, env=env, capture_output=True, check=True, timeout=60)
        times.append((time.perf_counter() - t) * 1000)
    return statistics.median(times)


IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)")


def package_import_ms(env: dict) -> float:
    """Median summed self time of the package's own modules, from ``-X importtime``."""
    totals = []
    for _ in range(PROBE_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import tropquad.cli"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        us = sum(int(m[1]) for m in IMPORT_LINE.finditer(proc.stderr) if m[2].split(".")[0] == "tropquad")
        totals.append(us / 1000)
    return statistics.median(totals)


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SOURCE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SOURCE, "cli.py")):
        print(f"bench: no package source at {SOURCE}; run from the root of a checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    work = os.path.join(WORK, f"run-{os.getpid()}")
    trace_dir = os.path.join(WORK, "trace")
    try:
        corpus.build(args.workload, args.seed, work)
        worker_args = ["--corpus", work, "--seconds", str(args.seconds)]
        setups = [
            spawn(worker_args + ["--setup-only"], DEADLINE_S - (time.monotonic() - started))
            for _ in range(SETUPS - 1)
        ]
        if args.seed == corpus.DEFAULT_SEED:
            worker_args += ["--digests", DIGESTS]
        if args.trace:
            os.makedirs(trace_dir, exist_ok=True)
            worker_args += ["--trace-out", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
        report = spawn(worker_args, DEADLINE_S - (time.monotonic() - started))
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(report)

    # durations scaled by the run's median host factor (see worker.py); raw ones in the details
    host = statistics.median(f for *_, f in report["latencies_s"])
    raw = [s * 1000 for _, s, _, _ in report["latencies_s"]]
    latencies = [ms * host for ms in raw]
    by_stratum = {}
    for (stratum, *_), ms in zip(report["latencies_s"], latencies):
        by_stratum.setdefault(stratum, []).append(ms)
    calls_per_s = 1000 * len(latencies) / sum(latencies)
    tail_ms, tail_p = tail(latencies, TAIL_PERCENTILE[args.workload])
    failed = report["failed"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "calls": len(latencies),
        "call_ms.tail": {"percentile": tail_p, "samples": len(latencies)},
        "failed_frac": failed / max(report["attempted"], 1),
        "attempted": report["attempted"],
        "failed": failed,
        "known_defects": report["defects"],
        "host_factor.median": host,
        "unscaled": {
            "setup_s": statistics.median(w["setup_s"] for w in setups),
            "calls_per_s": 1000 * len(raw) / sum(raw),
            "call_ms.p50": statistics.median(raw),
            "call_ms.tail": tail(raw, tail_p)[0],
        },
        "code.src_lines": src_lines(),
        "problems": report["problems"][:20],
        "stratum_ms.p50": {k: round(statistics.median(v), 3) for k, v in sorted(by_stratum.items())},
    }
    if args.trace:
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        traced = report["trace"]
        failed += len(traced["stdout_mismatches"])
        details["trace.stdout_mismatches"] = traced["stdout_mismatches"][:20]
        metrics = {name: (value, "count/call" if not name.endswith("_ms") else "ms/call")
                   for name, value in traced["layers"].items()}
        metrics["cli.import_ms"] = (package_import_ms(env), "ms")
        metrics["cli.interp_floor_ms"] = (median_wall_ms([sys.executable, "-c", "pass"], env), "ms")
        traced_calls_per_s = traced["calls"] / (traced["busy_s"] * traced["host"])
        metrics["trace.overhead_frac"] = (1 - traced_calls_per_s / calls_per_s, "ratio")
        metrics["code.src_lines"] = (details["code.src_lines"], "lines")
    else:
        metrics = {
            "setup_s": (statistics.median(w["setup_s"] * w["setup_factor"] for w in setups), "s"),
            "calls_per_s": (calls_per_s, "1/s"),
            "call_ms.p50": (statistics.median(latencies), "ms"),
            "call_ms.tail": (tail_ms, "ms"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
