"""Every subcommand's printed JSON agrees with a second, independent source.

``bench/reference.py`` computes each subcommand's expected output from the
documented encodings without importing ``tropquad``.  Loading it by path
and checking ``cli.main``'s exit code, stdout and stderr with its
``check_output`` tests what the CLI prints against that reference, where
``tests/test_digests.py`` only compares the program with its own earlier
output.
"""

import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from tropquad import (
    ZERO, GroupKind, NuLtDoubled, QuadraticForm, RationalQuadraticForm, Semifield, companion_table, format_element,
)
from tropquad.cli import main
from tropquad.serialize import form_to_json, ratform_to_json

from gen import ALL_KINDS, random_element, random_form, random_ratform, random_vector

REFERENCE_PATH = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
PRIMES = ("2", "3", "5", "trivial")
MODES = ("tangible", "ghost", "signed")
# (upper_density, zero_p) of the forms: zero-heavy and dense
SHAPES = ((0.3, 0.6), (1.0, 0.0))


def _load_reference():
    spec = importlib.util.spec_from_file_location("bench_reference", REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


class Caller:
    """Writes inputs under one directory and checks each CLI call against the reference."""

    def __init__(self, directory: Path, capsys):
        self.dir, self.capsys, self.files, self.problems = directory, capsys, 0, []

    def write(self, doc: dict) -> str:
        self.files += 1
        path = self.dir / f"in{self.files}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def check(self, argv: list, inputs: list, expect: dict) -> str:
        """Check the call against the reference, and stdout byte for byte: the reference
        compares parsed documents, and the CLI prints sorted-key JSON, so re-encoding the
        parsed document with ``sort_keys`` must give stdout back, "1,10" before "1,2"."""
        code = main(argv)
        captured = self.capsys.readouterr()
        out, call = captured.out, {"id": " ".join(argv), "inputs": inputs, "expect": expect}
        self.problems += [f"{call['id']}: {p}" for p in reference.check_output(call, code, out, captured.err)]
        try:
            canonical = json.dumps(json.loads(out), sort_keys=True) + "\n"
        except ValueError:  # no document; check_output has judged stdout already
            return out
        if out != canonical:
            self.problems.append(f"{call['id']}: stdout is not its document with sorted keys")
        return out


def _partner(rng: random.Random, q: QuadraticForm) -> QuadraticForm:
    """q with each cross term below the mean of its diagonal ghosted or zeroed,
    which keeps the function, and now and then one coefficient redrawn."""
    sf, n = q.sf, q.n
    diag = list(q.diag)
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            beta, a1, a2 = q.cross[i][j], diag[i], diag[j]
            below = not (beta.is_zero or a1.is_zero or a2.is_zero) and 2 * beta.exp < a1.exp + a2.exp
            upper[(i, j)] = (sf.ghost(beta.exp) if rng.random() < 0.5 else ZERO) if below else beta
    if rng.random() < 0.5:
        pairs = list(upper)
        if pairs and rng.random() < 0.7:
            upper[rng.choice(pairs)] = random_element(rng, sf)
        else:
            diag[rng.randrange(n)] = random_element(rng, sf)
    return QuadraticForm(sf, tuple(diag), upper)


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_form_subcommands_print_what_the_reference_computes(kind, rank, tmp_path, capsys):
    rng = random.Random(f"{kind.value}:{rank}")
    sf = Semifield(kind, rank)
    caller, answers = Caller(tmp_path, capsys), set()
    for n in range(1, 7):
        for density, zero_p in SHAPES:
            q = random_form(rng, sf, n, density, zero_p)
            doc = form_to_json(q)
            path = caller.write(doc)
            vector = ",".join(map(format_element, random_vector(rng, sf, n, zero_p)))
            caller.check(["eval", path, "--vector", vector], [path], {"exit": 0, "kind": "eval", "vector": vector})
            for cmd in ("companions", "decompose", "rigid-extrema", "check"):
                caller.check([cmd, path], [path], {"exit": 0, "kind": cmd})
            ref_q = reference.Form(doc)
            grid = reference.table(ref_q)
            table = caller.write(reference.table_json(ref_q, grid))
            caller.check(["check", path, "--table", table], [path, table], {"exit": 0, "kind": "check"})
            i, j = rng.randrange(n), rng.randrange(n)
            grid[i][j] = reference.mutate_cell(ref_q, grid[i][j])
            mutated = caller.write(reference.table_json(ref_q, grid))
            caller.check(["check", path, "--table", mutated], [path, mutated],
                         {"exit": 2, "kind": "check", "report": True})
            doc2 = form_to_json(_partner(rng, q))
            path2 = caller.write(doc2)
            equal = reference.functionally_equal(ref_q, reference.Form(doc2))
            answers.add(equal)
            caller.check(["equal", path, path2], [path, path2], {"exit": 0, "kind": "equal", "equal": equal})
    assert caller.problems == []
    assert answers == {True, False}


@pytest.mark.parametrize("prime", PRIMES)
def test_rational_subcommands_print_what_the_reference_computes(prime, tmp_path, capsys):
    rng = random.Random(prime)
    caller = Caller(tmp_path, capsys)
    for n in range(1, 7):
        for zero_p in (0.7, 0.0):
            path = caller.write(ratform_to_json(random_ratform(rng, n, zero_p)))
            for cmd in ("stropicalize", "classes"):
                for mode in MODES:
                    caller.check([cmd, path, "--prime", prime, "--mode", mode], [path],
                                 {"exit": 0, "kind": cmd, "prime": prime, "mode": mode})
    assert caller.problems == []


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_table_sized_answers_at_two_digit_indices(kind, tmp_path, capsys):
    """companions, decompose and rigid-extrema at n 10-16, where an ``upper`` key such as
    "1,10" sorts before "1,2", on forms of fiber rank 2, including forms with no cross
    term.  Only rat3 has nu_lt cells (half a legal sum may leave the group), and there
    some tables hold one whose doubled bound is a Fraction."""
    rng = random.Random(f"two-digit:{kind.value}")
    sf = Semifield(kind, 2)
    caller, fraction_bounds, empty = Caller(tmp_path, capsys), 0, 0
    for n in range(10, 17):
        for density, zero_p in SHAPES + ((0.0, 0.3),):
            q = random_form(rng, sf, n, density, zero_p)
            doc = form_to_json(q)
            empty += doc["upper"] == {}
            path = caller.write(doc)
            for cmd in ("companions", "decompose", "rigid-extrema"):
                caller.check([cmd, path], [path], {"exit": 0, "kind": cmd})
            cells = companion_table(q).cells
            fraction_bounds += any(isinstance(c, NuLtDoubled) and c.bound2.__class__ is Fraction for r in cells for c in r)
    assert caller.problems == []
    assert empty == 7
    assert (fraction_bounds > 0) == (kind is GroupKind.RAT3)


def test_stropicalize_at_two_digit_indices(tmp_path, capsys):
    """stropicalize at n 10-16 under every prime and mode, on dense rational forms
    and on diagonal ones, whose image has an empty ``upper``."""
    rng = random.Random("two-digit")
    caller = Caller(tmp_path, capsys)
    for n in range(10, 17):
        dense = ratform_to_json(random_ratform(rng, n, 0.2))
        diagonal = ratform_to_json(RationalQuadraticForm(n, {(i, i): Fraction(i + 1) for i in range(n)}))
        for doc in (dense, diagonal):
            path = caller.write(doc)
            for prime in PRIMES:
                for mode in MODES:
                    caller.check(["stropicalize", path, "--prime", prime, "--mode", mode], [path],
                                 {"exit": 0, "kind": "stropicalize", "prime": prime, "mode": mode})
    assert caller.problems == []
