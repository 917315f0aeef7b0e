"""Independent reference semantics for checking CLI outputs.

Written against the documented encodings and the paper's statements, not
against the package: nothing here imports ``tropquad``, so a change to the
program cannot change what the benchmark expects.  Elements are tuples
``(tag, exp, fiber)`` with tag ``"z"``, ``"t"`` or ``"g"``, ``exp`` a
``Fraction`` (None for zero) and ``fiber`` a tuple over {1, -1}.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

ZERO = ("z", None, ())
GROUPS = ("int", "rat", "rat3")


# -- elements ------------------------------------------------------------------


def legal(group: str, x: Fraction) -> bool:
    if group == "int":
        return x.denominator == 1
    if group == "rat":
        return True
    d = x.denominator
    while d % 3 == 0:
        d //= 3
    return d == 1


def tangible(exp, fiber=()) -> tuple:
    return ("t", Fraction(exp), tuple(fiber))


def ghost(exp) -> tuple:
    return ("g", Fraction(exp), ())


def nu(a: tuple) -> tuple:
    return ghost(a[1]) if a[0] == "t" else a


def fmt(a: tuple) -> str:
    tag, exp, fiber = a
    if tag == "z":
        return "0"
    if tag == "g":
        return f"g:{exp}"
    if fiber:
        return f"t:{exp}:" + "".join("+" if s > 0 else "-" for s in fiber)
    return f"t:{exp}"


def parse(text: str) -> tuple:
    if text == "0":
        return ZERO
    parts = text.split(":")
    if parts[0] == "g":
        return ghost(Fraction(parts[1]))
    fiber = tuple(1 if c == "+" else -1 for c in parts[2]) if len(parts) == 3 else ()
    return tangible(Fraction(parts[1]), fiber)


def mul(a: tuple, b: tuple) -> tuple:
    if a[0] == "z" or b[0] == "z":
        return ZERO
    if a[0] == "t" and b[0] == "t":
        return tangible(a[1] + b[1], tuple(x * y for x, y in zip(a[2], b[2])))
    return ghost(a[1] + b[1])


def total(terms) -> tuple:
    """Supertropical sum: the largest level wins; a tie or a ghost ghosts it."""
    nonzero = [t for t in terms if t[0] != "z"]
    if not nonzero:
        return ZERO
    top = max(t[1] for t in nonzero)
    at_top = [t for t in nonzero if t[1] == top]
    if len(at_top) == 1 and at_top[0][0] == "t":
        return at_top[0]
    return ghost(top)


# -- quadratic forms -------------------------------------------------------------


class Form:
    """A triangular scheme as read from its JSON document."""

    def __init__(self, doc: dict):
        self.group = doc["semifield"]["group"]
        self.rank = doc["semifield"].get("fiber_rank", 0)
        self.n = doc["n"]
        self.diag = [parse(v) for v in doc["diag"]]
        self.upper = {}
        for key, v in doc.get("upper", {}).items():
            i, j = (int(k) - 1 for k in key.split(","))
            if parse(v)[0] != "z":
                self.upper[(i, j)] = parse(v)

    def beta(self, i: int, j: int) -> tuple:
        return self.upper.get((min(i, j), max(i, j)), ZERO)

    def value(self, x) -> tuple:
        terms = [mul(mul(self.diag[i], x[i]), x[i]) for i in range(self.n)]
        terms += [mul(mul(v, x[i]), x[j]) for (i, j), v in self.upper.items()]
        return total(terms)

    def identity(self) -> tuple:
        return (1,) * self.rank


def form_doc(group: str, rank: int, diag, upper: dict) -> dict:
    return {
        "semifield": {"group": group, "fiber_rank": rank},
        "n": len(diag),
        "diag": [fmt(a) for a in diag],
        "upper": {f"{i + 1},{j + 1}": fmt(v) for (i, j), v in sorted(upper.items()) if v[0] != "z"},
    }


# -- companion cells: the closed form of the paper's rank-2 classification -------


def pair_cell(group: str, a1: tuple, a2: tuple, a: tuple) -> tuple:
    """Admissible cross coefficients over diagonal (a1, a2) and cross term a.

    Cells are ``("singleton", elem)``, ``("nu_leq", bound2)``,
    ``("nu_lt", bound2)`` or ``("nu_class", exp)``; a bound is twice an
    exponent, compared against twice the coefficient's exponent.
    """
    if a1[0] == "z" or a2[0] == "z":
        return ("singleton", a)
    s = a1[1] + a2[1]
    ghosts = a1[0] == "g" and a2[0] == "g"
    if a[0] != "z" and 2 * a[1] > s:
        if group == "int" and s.denominator == 1 and s.numerator % 2 == 1 and 2 * a[1] == s + 1:
            return ("nu_leq", 2 * a[1]) if ghosts else ("nu_class", a[1])
        return ("singleton", a)
    if legal(group, s / 2):
        return ("nu_leq", s)
    if group == "int":
        return ("nu_leq", s + 1) if ghosts else ("nu_leq", s - 1)
    return ("nu_lt", s)


def diag_cell(a: tuple) -> tuple:
    return ("singleton", ZERO) if a[0] == "z" else ("nu_leq", 2 * a[1])


def cell_contains(cell: tuple, b: tuple) -> bool:
    kind, arg = cell
    if kind == "singleton":
        return b == arg
    if kind == "nu_class":
        return b[0] != "z" and b[1] == arg
    if b[0] == "z":
        return True
    return 2 * b[1] <= arg if kind == "nu_leq" else 2 * b[1] < arg


def cell_json(cell: tuple) -> dict:
    kind, arg = cell
    if kind == "singleton":
        return {"display": "{" + fmt(arg) + "}", "kind": kind, "value": fmt(arg)}
    if kind == "nu_class":
        return {"display": f"nu-class({arg})", "kind": kind, "exp": str(arg)}
    close = "]" if kind == "nu_leq" else "["
    return {"display": f"[0, g:{arg / 2}{close}", "kind": kind, "bound2": str(arg)}


def table(q: Form) -> list[list[tuple]]:
    grid = [[None] * q.n for _ in range(q.n)]
    for i in range(q.n):
        grid[i][i] = diag_cell(q.diag[i])
        for j in range(i + 1, q.n):
            grid[i][j] = grid[j][i] = pair_cell(q.group, q.diag[i], q.diag[j], q.beta(i, j))
    return grid


def table_json(q: Form, grid) -> dict:
    return {
        "semifield": {"group": q.group, "fiber_rank": q.rank},
        "n": q.n,
        "cells": [[cell_json(c) for c in row] for row in grid],
    }


def cell_min(q: Form, cell: tuple) -> tuple:
    kind, arg = cell
    if kind == "singleton":
        return arg
    if kind == "nu_class":
        return tangible(arg, q.identity())
    return ZERO


def cell_max(q: Form, cell: tuple) -> Optional[tuple]:
    kind, arg = cell
    if kind == "singleton":
        return arg
    if kind == "nu_class":
        return ghost(arg)
    if kind == "nu_leq" and legal(q.group, arg / 2):
        return ghost(arg / 2)
    return None


def mutate_cell(q: Form, cell: tuple) -> tuple:
    """A different cell of the same group, for a saved table that must not match."""
    kind, arg = cell
    if kind == "singleton":
        if arg[0] == "z":
            return ("singleton", tangible(0, q.identity()))
        return ("singleton", ghost(arg[1]) if arg[0] == "t" else tangible(arg[1], q.identity()))
    if kind == "nu_class":
        return ("nu_class", arg + 1)
    return (kind, arg + 2)


# -- supertropicalization ----------------------------------------------------------


def valuation(p: int, c: Fraction) -> int:
    v, num, den = 0, c.numerator, c.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def image(p: Optional[int], mode: str, c: Fraction) -> tuple:
    """phi(c): zero to zero, otherwise level -v_p(c) tagged by the mode."""
    if c == 0:
        return ZERO
    level = 0 if p is None else -valuation(p, c)
    if mode == "ghost":
        return ghost(level)
    return tangible(level, ((1 if c > 0 else -1),) if mode == "signed" else ())


def class_json(group: str, a: tuple) -> dict:
    if a[0] == "z":
        return {"kind": "zero"}
    parity = 0 if group == "rat" else a[1].numerator % 2
    out = {"kind": "ghost" if a[0] == "g" else "tangible", "parity": parity}
    if a[2]:
        out["fiber"] = "".join("+" if s > 0 else "-" for s in a[2])
    return out


def _class_key(a: tuple):
    if a[0] == "z":
        return (0, 0, ())
    return (1, (a[0] == "g", a[1].numerator % 2), a[2])


def square_classes(p, mode, coeffs: dict, n: int) -> list[dict]:
    diag = [image(p, mode, coeffs.get((i, i), Fraction(0))) for i in range(n)]
    return [class_json("int", a) for a in sorted(diag, key=_class_key)]


def read_ratform(doc: dict) -> dict:
    out = {}
    for key, v in doc["coeffs"].items():
        i, j = (int(k) - 1 for k in key.split(","))
        out[(i, j)] = Fraction(v)
    return out


# -- expected stdout per subcommand -------------------------------------------------


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expect_companions(q: Form) -> dict:
    grid = table(q)
    out = table_json(q, grid)
    out["rigid"] = all(a[0] == "z" for a in q.diag)
    out["quasilinear"] = all(
        cell_contains(grid[i][j], ZERO) for i in range(q.n) for j in range(i + 1, q.n)
    )
    return out


def extrema(q: Form, grid):
    lo, hi, no_max = {}, {}, None
    for i in range(q.n):
        for j in range(i + 1, q.n):
            lo[(i, j)] = cell_min(q, grid[i][j])
            top = cell_max(q, grid[i][j])
            if top is None:
                no_max = no_max or (i, j)
            else:
                hi[(i, j)] = top
    zeros = [ZERO] * q.n
    rigid_min = form_doc(q.group, q.rank, zeros, lo)
    rigid_max = None if no_max else form_doc(q.group, q.rank, zeros, hi)
    return rigid_min, rigid_max, (f"{no_max[0] + 1},{no_max[1] + 1}" if no_max else None)


def expect_decompose(q: Form) -> dict:
    grid = table(q)
    rigid_min, rigid_max, no_max = extrema(q, grid)
    out = {
        "ql": form_doc(q.group, q.rank, q.diag, {}),
        "rigid_min": rigid_min,
        "rigid_max": rigid_max,
        "table": table_json(q, grid),
    }
    if no_max:
        out["no_max_cell"] = no_max
    return out


def expect_rigid_extrema(q: Form) -> dict:
    rigid_min, rigid_max, no_max = extrema(q, table(q))
    return {"min": rigid_min, "max": rigid_max, "no_max_cell": no_max}


def functionally_equal(q1: Form, q2: Form) -> bool:
    if q1.diag != q2.diag:
        return False
    grid = table(q1)
    return all(cell_contains(grid[i][j], q2.beta(i, j)) for i in range(q1.n) for j in range(i + 1, q1.n))


def expect_stropicalize(doc: dict, p, mode: str) -> dict:
    n = doc["n"]
    coeffs = read_ratform(doc)
    rank = 1 if mode == "signed" else 0
    sf = {"group": "int", "fiber_rank": rank}
    img = lambda i, j: image(p, mode, coeffs.get((min(i, j), max(i, j)), Fraction(0)))  # noqa: E731
    diag = [img(i, i) for i in range(n)]
    upper = {(i, j): img(i, j) for i in range(n) for j in range(i + 1, n)}
    q = Form(form_doc("int", rank, diag, upper))
    balanced = [[nu(diag[i]) if i == j else img(i, j) for j in range(n)] for i in range(n)]
    doubled = [
        [image(p, mode, 2 * coeffs.get((i, i), Fraction(0))) if i == j else img(i, j) for j in range(n)]
        for i in range(n)
    ]
    grid = table(q)
    return {
        "form": form_doc("int", rank, diag, upper),
        "balanced": {"semifield": sf, "gram": [[fmt(v) for v in row] for row in balanced]},
        "b_phi": {"semifield": sf, "gram": [[fmt(v) for v in row] for row in doubled]},
        "square_classes": square_classes(p, mode, coeffs, n),
        "quasilinear": all(cell_contains(grid[i][j], ZERO) for i in range(n) for j in range(i + 1, n)),
    }


def expect_inverse(doc: dict) -> dict:
    """A monomial matrix with entries s_i at (i, perm i) inverts to s_i^-1 at (perm i, i)."""
    rows = [[parse(v) for v in row] for row in doc["rows"]]
    n = len(rows)
    inv = [[ZERO] * n for _ in range(n)]
    for i, row in enumerate(rows):
        (j, s), = [(j, v) for j, v in enumerate(row) if v[0] != "z"]
        inv[j][i] = tangible(-s[1], s[2])
    return {"inverse": {"semifield": doc["semifield"], "rows": [[fmt(v) for v in row] for row in inv]}}


def check_output(call: dict, code: int, out: str, err: str) -> list[str]:
    """Problems with one CLI call's outcome; empty when it is correct.

    Every call must exit with the code fixed when its input was built and
    print exactly one JSON document: on stdout for a result, on stderr for
    an error.  Results are then compared with what this module computes.
    """
    exp = call["expect"]
    problems = []
    if code != exp["exit"]:
        problems.append(f"exit {code}, expected {exp['exit']}")
    stream, other = (out, err) if exp["exit"] == 0 or exp.get("report") else (err, out)
    if other:
        problems.append("unexpected output on the other stream")
    try:
        doc = json.loads(stream)
    except ValueError:
        return problems + ["output is not exactly one JSON document"]
    if problems:
        return problems
    if exp["exit"] != 0 and not exp.get("report"):
        key = "path" if exp["exit"] == 1 else "precondition"
        return [] if isinstance(doc, dict) and "error" in doc and key in doc else [f"error document lacks {key!r}"]
    want = expected_document(call)
    if exp["kind"] == "check":
        doc = dict(doc, cells=[{k: v for k, v in c.items() if k != "probes"} for c in doc.get("cells", [])])
    if exp["kind"] == "equal" and not want["equal"]:
        if not isinstance(doc, dict) or doc.keys() != {"equal", "witness"} or doc["equal"] is not False:
            return ["equal output differs from the reference"]
        return _check_witness(call, doc)
    return [] if doc == want else [f"{exp['kind']} output differs from the reference"]


def _check_witness(call: dict, doc: dict) -> list[str]:
    q1, q2 = (Form(load(p)) for p in call["inputs"])
    try:
        x = [parse(v) for v in doc["witness"]["coords"]]
    except (KeyError, TypeError, ValueError, IndexError):
        return ["witness is not a vector"]
    if len(x) != q1.n or any(a[0] != "z" and not legal(q1.group, a[1]) for a in x):
        return ["witness is not a vector of the form's semifield"]
    if q1.value(x) == q2.value(x):
        return ["witness does not separate the forms"]
    return []


def expected_document(call: dict) -> dict:
    exp = call["expect"]
    kind = exp["kind"]
    paths = call["inputs"]
    if kind == "eval":
        q = Form(load(paths[0]))
        return {"value": fmt(q.value([parse(v) for v in exp["vector"].split(",")]))}
    if kind == "companions":
        return expect_companions(Form(load(paths[0])))
    if kind == "decompose":
        return expect_decompose(Form(load(paths[0])))
    if kind == "rigid-extrema":
        return expect_rigid_extrema(Form(load(paths[0])))
    if kind == "equal":
        q1, q2 = (Form(load(p)) for p in paths)
        equal = functionally_equal(q1, q2)
        if equal != exp["equal"]:
            raise AssertionError(f"corpus built an equal pair with the wrong answer: {call['id']}")
        return {"equal": True, "witness": None} if equal else {"equal": False}
    if kind == "check":
        q = Form(load(paths[0]))
        grid = table(q)
        mismatches = []
        if len(paths) > 1:
            given = load(paths[1])["cells"]
            diff = [
                {"i": i + 1, "j": j + 1, "computed": cell_json(grid[i][j]), "given": given[i][j]}
                for i in range(q.n)
                for j in range(q.n)
                if given[i][j] != cell_json(grid[i][j])
            ]
            if diff:
                mismatches.append({"table": diff})
        cells = [{"i": i + 1, "j": j + 1, "ok": True} for i in range(q.n) for j in range(i, q.n)]
        return {"cells": cells, "mismatches": mismatches, "ok": not mismatches}
    if kind == "invert":
        return expect_inverse(load(paths[0]))
    p = None if exp["prime"] == "trivial" else int(exp["prime"])
    doc = load(paths[0])
    if kind == "stropicalize":
        return expect_stropicalize(doc, p, exp["mode"])
    if kind == "classes":
        return {"square_classes": square_classes(p, exp["mode"], read_ratform(doc), doc["n"])}
    raise ValueError(f"unknown call kind {kind!r}")
