"""Seeded corpus of CLI calls for each benchmark workload.

The same ``(workload, seed)`` always yields the same files and manifest.
Inputs are built here from the documented JSON schemas, without importing
the package or its tests, so later edits to either cannot change the
corpus; the program only ever receives the generated JSON files.

A workload is a pool of *rounds*.  Every round of a workload holds the
same multiset of (subcommand, size) strata, so a run that completes whole
rounds measures the same mix whatever the number of rounds; only the
random coefficients differ between rounds and seeds.  Each call's
expected exit code is fixed here, when its input is built.

Why each workload, and why these sizes:

* ``startup`` -- ``python -m tropquad`` subprocesses on forms with n <= 8
  (n = 2 for ``check``, whose oracle is costly even there), all nine subcommands in fixed proportions, all
  three exponent groups and fiber ranks 0 and 1.  The computation takes
  well under a millisecond, so interpreter start, package import and
  argparse set the time; a compute-layer change should not move it.  Six
  of the fifty calls in a round exit 1 or 2, three of them the known
  defects listed in ROADMAP.md.
* ``tables`` -- in-process ``companions``, ``decompose``,
  ``rigid-extrema`` and ``equal`` at n in {32, 48, 64} in every group, plus
  ``stropicalize``/``classes`` of rational forms at n in {32, 64} and
  p in {2, 3, 5}.  The O(n^4) coefficient scans and the eager pretty
  lines dominate here; n = 64 is the dimension limit and 32/48 show the
  growth.  ``equal`` runs on functionally equal pairs (cross terms below
  the geometric mean ghosted or zeroed) and on pairs that differ only in
  the last cross coefficient, so the witness search runs to the end.
* ``oracle`` -- in-process ``check`` at n in {4, 8, 12, 16}, every group,
  fiber ranks 0 and 1, a third each with no saved table, a correct one
  (exit 0) and one with a mutated cell (exit 2).  The membership oracle,
  the probe batteries and the cubic invariant loop dominate; n = 16 keeps
  a round near two seconds.
* ``ingest`` -- in-process ``eval``, ``invert`` and ``equal`` on forms
  whose diagonals differ (a unit vector answers it) at n in {32, 64}.
  Reading, validating, constructing and printing dominate, so this is
  where the write side of the coefficient store and schema checks cost.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import reference as ref

GROUPS = ref.GROUPS
PRIMES = ("2", "3", "5")
MODES = ("tangible", "ghost", "signed")
WORKLOADS = ("startup", "tables", "oracle", "ingest")
# The seed whose stdout is compared byte for byte with digests.json.
DEFAULT_SEED = 0
# Rounds generated per run; a run that needs more cycles through them again.
# The pools hold the rounds a 25-second run completes today, except for
# ingest, whose cheap calls would need dozens; the program keeps no state
# between calls, so a repeated input costs what a new one does.
POOL_ROUNDS = {"startup": 6, "tables": 6, "oracle": 8, "ingest": 8}


class CorpusWriter:
    """Writes input files and collects call records for one corpus."""

    def __init__(self, rng: random.Random, directory: str):
        self.rng = rng
        self.dir = directory
        self.calls: list[dict] = []
        self._files = 0

    # -- random values in the documented encodings ----------------------------

    def exponent(self, group: str, lo: int = -8, hi: int = 8) -> Fraction:
        rng = self.rng
        if group == "int":
            return Fraction(rng.randint(lo, hi))
        den = rng.choice((1, 1, 2, 3, 4, 5, 6)) if group == "rat" else 3 ** rng.choice((0, 0, 1, 2))
        return Fraction(rng.randint(lo * den, hi * den), den)

    def fiber(self, rank: int) -> tuple:
        return tuple(self.rng.choice((1, -1)) for _ in range(rank))

    def tangible(self, group: str, rank: int) -> tuple:
        return ref.tangible(self.exponent(group), self.fiber(rank))

    def nonzero(self, group: str, rank: int) -> tuple:
        if self.rng.random() < 0.5:
            return ref.ghost(self.exponent(group))
        return self.tangible(group, rank)

    def element(self, group: str, rank: int, zero_p: float = 0.25) -> tuple:
        return ref.ZERO if self.rng.random() < zero_p else self.nonzero(group, rank)

    def form(self, group: str, rank: int, n: int, density: float = 0.7, zero_share: float = 0.25):
        """A form with exactly ``round(zero_share * n)`` zero diagonal entries
        and ``round(density * pairs)`` cross terms, at random places, so that
        inputs of one stratum differ in values but not in amount of work."""
        zeros = set(self.rng.sample(range(n), round(zero_share * n)))
        diag = [ref.ZERO if i in zeros else self.nonzero(group, rank) for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        upper = {p: self.nonzero(group, rank) for p in sorted(self.rng.sample(pairs, round(density * len(pairs))))}
        return diag, upper

    def rational(self) -> str:
        num, den = self.rng.randint(-50, 50), self.rng.randint(1, 50)
        return str(Fraction(num, den))

    # -- files and call records -----------------------------------------------

    def write(self, doc) -> str:
        self._files += 1
        path = os.path.join(self.dir, f"in{self._files:05d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        return path

    def add(self, cid: str, stratum: str, argv: list, inputs: list, expect: dict, defect=None):
        self.calls.append({
            "id": cid,
            "stratum": stratum,
            "argv": argv,
            "inputs": inputs,
            "expect": expect,
            "defect": defect,
        })


# -- one maker per kind of call ------------------------------------------


def form_call(b: CorpusWriter, cid: str, cmd: str, group: str, rank: int, n: int):
    path = b.write(ref.form_doc(group, rank, *b.form(group, rank, n)))
    b.add(cid, f"{cmd}/{group}/{n}", [cmd, path], [path], {"exit": 0, "kind": cmd})


def eval_call(b: CorpusWriter, cid: str, group: str, rank: int, n: int):
    path = b.write(ref.form_doc(group, rank, *b.form(group, rank, n)))
    vector = ",".join(ref.fmt(b.element(group, rank)) for _ in range(n))
    b.add(cid, f"eval/{group}/{n}", ["eval", path, "--vector", vector], [path],
          {"exit": 0, "kind": "eval", "vector": vector})


def equal_call(b: CorpusWriter, cid: str, group: str, rank: int, n: int, how: str):
    """``same``: cross terms below the mean ghosted or zeroed (equal).
    ``late``: only the last cross coefficient raised above the mean.
    ``diag``: one late diagonal coefficient changed (a unit vector separates)."""
    diag, upper = b.form(group, rank, n)
    diag2, upper2 = list(diag), dict(upper)
    if how == "same":
        for (i, j), v in upper.items():
            below = diag[i][0] != "z" and diag[j][0] != "z" and 2 * v[1] < diag[i][1] + diag[j][1]
            if below:
                upper2[(i, j)] = ref.ghost(v[1]) if v[0] == "t" and b.rng.random() < 0.5 else ref.ZERO
    elif how == "late":
        i, j = n - 2, n - 1
        diag[i], diag[j] = b.tangible(group, rank), b.tangible(group, rank)
        diag2 = list(diag)
        upper[(i, j)] = ref.ghost(min(diag[i][1], diag[j][1]) - 1)
        upper2[(i, j)] = ref.tangible(max(diag[i][1], diag[j][1]) + 2, b.fiber(rank))
    else:
        k = n - 1 - b.rng.randrange(4)
        old = diag[k]
        diag2[k] = ref.tangible((old[1] if old[0] != "z" else 0) + 1, b.fiber(rank))
    p1 = b.write(ref.form_doc(group, rank, diag, upper))
    p2 = b.write(ref.form_doc(group, rank, diag2, upper2))
    b.add(cid, f"equal-{how}/{group}/{n}", ["equal", p1, p2], [p1, p2],
          {"exit": 0, "kind": "equal", "equal": how == "same"})


def check_call(b: CorpusWriter, cid: str, group: str, rank: int, n: int, saved: str):
    """``saved`` is ``none``, ``correct`` or ``mutated`` (one grid entry changed: exit 2)."""
    diag, upper = b.form(group, rank, n)
    doc = ref.form_doc(group, rank, diag, upper)
    path = b.write(doc)
    argv, inputs, expect = ["check", path], [path], {"exit": 0, "kind": "check"}
    if saved != "none":
        q = ref.Form(doc)
        grid = ref.table(q)
        if saved == "mutated":
            i, j = b.rng.randrange(n), b.rng.randrange(n)
            grid[i][j] = ref.mutate_cell(q, grid[i][j])
            expect = {"exit": 2, "kind": "check", "report": True}
        table_path = b.write(ref.table_json(q, grid))
        argv += ["--table", table_path]
        inputs.append(table_path)
    b.add(cid, f"check-{saved}/{group}/{n}", argv, inputs, expect)


def invert_call(b: CorpusWriter, cid: str, group: str, rank: int, n: int, monomial: bool = True):
    perm = list(range(n))
    b.rng.shuffle(perm)
    rows = [[ref.ZERO] * n for _ in range(n)]
    for i in range(n):
        rows[i][perm[i]] = b.tangible(group, rank)
    if not monomial:
        rows[0][perm[1]] = b.tangible(group, rank)
    doc = {"semifield": {"group": group, "fiber_rank": rank}, "rows": [[ref.fmt(v) for v in r] for r in rows]}
    path = b.write(doc)
    expect = {"exit": 0, "kind": "invert"} if monomial else {"exit": 2, "kind": "invert"}
    b.add(cid, f"invert/{group}/{n}", ["invert", path], [path], expect)


def ratform_call(b: CorpusWriter, cid: str, cmd: str, n: int, prime: str, mode: str):
    keys = [(i, j) for i in range(n) for j in range(i, n)]
    coeffs = {f"{i + 1},{j + 1}": b.rational() for i, j in sorted(b.rng.sample(keys, round(0.8 * len(keys))))}
    path = b.write({"n": n, "coeffs": coeffs})
    b.add(cid, f"{cmd}/{n}", [cmd, path, "--prime", prime, "--mode", mode], [path],
          {"exit": 0, "kind": cmd, "prime": prime, "mode": mode})


def error_call(b: CorpusWriter, cid: str, what: str):
    """Inputs that must be refused with exit 1 (schema) or 2 (precondition).

    ``defect-*`` are the open defects of ROADMAP.md: the CLI contract says
    exit 1 with a JSON error, which the program does not yet do.
    """
    if what == "bad-literal":
        path = b.write(ref.form_doc("int", 0, [ref.tangible(1), ref.tangible(2)], {}))
        b.add(cid, "error/bad-literal", ["eval", path, "--vector", "t:x,t:1"], [path],
              {"exit": 1, "kind": "eval"})
    elif what == "defect-rational-n":
        n = 65
        path = b.write({"n": n, "coeffs": {f"{i},{i}": b.rational() for i in range(1, n + 1)}})
        b.add(cid, "defect/rational-n", ["stropicalize", path, "--prime", "2"], [path],
              {"exit": 1, "kind": "stropicalize"}, defect="rational form with n > 64")
    elif what == "defect-bool-rank":
        doc = ref.form_doc("int", 1, [ref.tangible(1, (1,)), ref.tangible(2, (-1,))], {(0, 1): ref.tangible(0, (1,))})
        doc["semifield"]["fiber_rank"] = True
        path = b.write(doc)
        b.add(cid, "defect/bool-rank", ["companions", path], [path],
              {"exit": 1, "kind": "companions"}, defect="fiber_rank true")
    elif what == "defect-table-exponent":
        doc = ref.form_doc("int", 0, [ref.tangible(1), ref.tangible(3)], {})
        q = ref.Form(doc)
        grid = ref.table(q)
        saved = ref.table_json(q, grid)
        saved["cells"][0][1] = saved["cells"][1][0] = {"display": "nu-class(1/2)", "exp": "1/2", "kind": "nu_class"}
        path, table_path = b.write(doc), b.write(saved)
        b.add(cid, "defect/table-exponent", ["check", path, "--table", table_path], [path, table_path],
              {"exit": 1, "kind": "check"}, defect="check --table exponent outside the group")
    else:
        raise ValueError(what)


# -- workloads ---------------------------------------------------------------------


def startup_round(b: CorpusWriter, prefix: str, warmup: bool = False):
    """Fifty small calls; slot k fixes its group, fiber rank and size."""
    slots = (
        ["eval"] * 5 + ["companions"] * 5 + ["decompose"] * 5 + ["rigid-extrema"] * 5
        + ["equal-same"] * 3 + ["equal-late"] * 3 + ["check-none"] * 2 + ["check-correct"] * 2
        + ["check-mutated"] + ["invert"] * 4 + ["invert-singular"] + ["stropicalize"] * 5 + ["classes"] * 5
        + ["bad-literal", "defect-rational-n", "defect-bool-rank", "defect-table-exponent"]
    )
    if warmup:
        slots = ["eval", "companions", "decompose", "rigid-extrema", "equal-same", "check-none",
                 "invert", "stropicalize", "classes"]
    for k, slot in enumerate(slots):
        cid = f"{prefix}.{k}"
        group, rank = GROUPS[k % 3], (k // 3) % 2
        n = 2 if warmup else 2 + k % 7
        if slot in ("eval", "companions", "decompose", "rigid-extrema"):
            (eval_call(b, cid, group, rank, n) if slot == "eval" else form_call(b, cid, slot, group, rank, n))
        elif slot.startswith("equal-"):
            equal_call(b, cid, group, rank, max(n, 2), slot[len("equal-"):])
        elif slot.startswith("check-"):
            check_call(b, cid, group, rank, 2, slot[len("check-"):])
        elif slot.startswith("invert"):
            invert_call(b, cid, group, rank, max(n, 2), monomial=slot == "invert")
        elif slot in ("stropicalize", "classes"):
            ratform_call(b, cid, slot, n, PRIMES[k % 3], MODES[(k // 3) % 3])
        else:
            error_call(b, cid, slot)


TABLE_SIZES = (32, 48, 64)
TABLE_KINDS = ("companions", "decompose", "rigid-extrema", "equal-same", "equal-late")


def tables_round(b: CorpusWriter, prefix: str, warmup: bool = False):
    """Each kind once at each size, each size of a kind in another group,
    plus stropicalize and classes once each at n = 32 and n = 64."""
    k = 0
    for s, kind in enumerate(TABLE_KINDS):
        for g, group in enumerate(GROUPS):
            if warmup and g:
                continue
            n = TABLE_SIZES[0] if warmup else TABLE_SIZES[(s + g) % 3]
            cid = f"{prefix}.{k}"
            k += 1
            if kind.startswith("equal-"):
                equal_call(b, cid, group, 0, n, kind[len("equal-"):])
            else:
                form_call(b, cid, kind, group, 0, n)
    for c, cmd in enumerate(("stropicalize", "classes")):
        for m, n in enumerate((32,) if warmup else (32, 64)):
            ratform_call(b, f"{prefix}.{k}", cmd, n, PRIMES[(2 * c + m) % 3], MODES[(c + 2 * m) % 3])
            k += 1


ORACLE_SIZES = (4, 8, 12, 16)
SAVED = ("none", "correct", "mutated")


def oracle_round(b: CorpusWriter, prefix: str, warmup: bool = False):
    """Every group at every size; fiber rank and saved-table mode are fixed
    per stratum so that all rounds cost the same."""
    k = 0
    for g, group in enumerate(GROUPS):
        for s, n in enumerate(ORACLE_SIZES):
            if warmup and (g or s):
                continue
            check_call(b, f"{prefix}.{k}", group, (g + s) % 2, n, SAVED[(g + 2 * s) % 3])
            k += 1


INGEST_SIZES = (32, 64)


def ingest_round(b: CorpusWriter, prefix: str, warmup: bool = False):
    k = 0
    for g, group in enumerate(GROUPS):
        for s, n in enumerate(INGEST_SIZES):
            if warmup and (g or s):
                continue
            rank = (g + s) % 2
            eval_call(b, f"{prefix}.{k}", group, rank, n)
            invert_call(b, f"{prefix}.{k + 1}", group, rank, n)
            equal_call(b, f"{prefix}.{k + 2}", group, rank, n, "diag")
            k += 3


ROUNDS = {"startup": startup_round, "tables": tables_round, "oracle": oracle_round, "ingest": ingest_round}


def build(workload: str, seed: int, directory: str) -> dict:
    """Write the corpus of one workload into ``directory``; return its manifest.

    The manifest holds the warm-up calls (one per subcommand, smallest
    input) and the pool of rounds, each a list of call records.
    """
    os.makedirs(directory, exist_ok=True)
    b = CorpusWriter(random.Random(f"{workload}:{seed}"), directory)
    make = ROUNDS[workload]
    make(b, "w", warmup=True)
    warmup, b.calls = b.calls, []
    rounds = []
    for r in range(POOL_ROUNDS[workload]):
        make(b, f"r{r}")
        b.rng.shuffle(b.calls)
        rounds.append(b.calls)
        b.calls = []
    manifest = {"workload": workload, "seed": seed, "warmup": warmup, "rounds": rounds}
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest
