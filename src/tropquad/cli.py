"""Command-line front end.

Every subcommand reads JSON inputs (path or "-" for stdin) through
``_load``, the one place where ``--semifield`` replaces an input's own
"semifield" member.  It runs one pipeline and prints a JSON result with
sorted keys, so outputs are deterministic and diffable.  Exit codes: 0
success, 1 malformed input or arguments (with the JSON path of the
problem, ``$.argv`` for arguments), 2 violated algebraic precondition
(with the precondition's name).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from functools import partial
from typing import Callable

from . import serialize
from .companions import companion_table, contains, equality_witness, is_quasilinear
from .decomposition import quasilinear_part, rig_extrema
from .errors import PreconditionError
from .forms import DIMENSION_LIMIT, balanced_companion, eval_quadratic, is_rigid
from .matrices import invert, monomial_decomposition
from .semiring import ZERO, Element, format_element
from .serialize import SchemaError
from .stropicalize import square_class_sequence, stropicalize_images
from .probes import cell_disagreements


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict; a key that the object names twice raises ValueError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise ValueError(f"duplicate key {key!r}")
    return obj


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}", "$") from exc
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", f"$ (line {exc.lineno}, column {exc.colno})") from exc
    except (ValueError, RecursionError) as exc:  # a key named twice, an int past the digit limit; deep nesting
        raise SchemaError(f"invalid JSON: {exc}", "$") from exc


def _load(args, key: str):
    """The JSON document named by ``args.<key>``; --semifield replaces its "semifield" member."""
    doc = _read_json(getattr(args, key))
    if getattr(args, "semifield", None) and isinstance(doc, dict):
        try:
            doc = {**doc, "semifield": json.loads(args.semifield, object_pairs_hook=_unique_keys)}
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise SchemaError(f"invalid JSON in --semifield: {getattr(exc, 'msg', exc)}", "$.semifield") from exc
    return doc


def _form(args, key: str = "form"):
    return serialize.form_from_json(_load(args, key))


def _emit(args, payload: dict, pretty_lines: Callable[[], list[str]]) -> int:
    """Print the payload as JSON, or under --pretty the lines built on demand.

    The payload may hold forms, Gram matrices and companion tables as they
    are: :func:`serialize.dumps` writes each as its JSON object.
    """
    if args.pretty:
        print("\n".join(pretty_lines()))
    else:
        print(serialize.dumps(payload))
    return 0


def _show(args, a: Element) -> str:
    if args.min_plus and not a.is_zero:
        a = Element(a.tag, -a.exp, a.fiber)
    return format_element(a)


# -- subcommands ---------------------------------------------------------------


def _cmd_eval(args) -> int:
    q = _form(args)
    x = serialize.vector_from_text(q.sf, args.vector)
    value = eval_quadratic(q, x)
    return _emit(args, {"value": format_element(value)}, lambda: [f"value: {_show(args, value)}"])


def _cmd_companions(args) -> int:
    q = _form(args)
    table = companion_table(q)
    payload = serialize.document(table)
    payload["rigid"] = rigid = is_rigid(q)
    # is_quasilinear(q), read off the table: zero accompanies q iff every off-diagonal cell holds it
    payload["quasilinear"] = quasilinear = all(
        contains(cell, ZERO) for i, row in enumerate(table.cells) for cell in row[i + 1:]
    )

    def lines():
        rows = ("  " + " | ".join(serialize.cell_display(c) for c in row) for row in table.cells)
        return [f"companion table ({q.n} x {q.n}):", *rows, f"rigid: {rigid}   quasilinear: {quasilinear}"]

    return _emit(args, payload, lines)


def _no_max_key(ext):
    """rig_extrema's no_max_cell as an "i,j" key, or None."""
    cell = ext.no_max_cell
    return None if cell is None else f"{cell[0] + 1},{cell[1] + 1}"


def _cmd_decompose(args) -> int:
    q = _form(args)
    ext = rig_extrema(q)
    ql = quasilinear_part(q)
    cell = _no_max_key(ext)
    payload = {"ql": ql, "rigid_min": ext.minimum, "rigid_max": ext.maximum, "table": ext.table}
    if cell is not None:
        payload["no_max_cell"] = cell

    def lines():
        out = [
            f"quasilinear part: {ql!r}",
            f"minimal rigid complement: {ext.minimum!r}",
            "maximal rigid complement: "
            + (repr(ext.maximum) if ext.maximum is not None else "none"),
        ]
        if cell is not None:
            out.append(f"no maximum because cell ({cell}) is half-open")
        return out

    return _emit(args, payload, lines)


def _cmd_rigid_extrema(args) -> int:
    q = _form(args)
    ext = rig_extrema(q)
    payload = {"min": ext.minimum, "max": ext.maximum, "no_max_cell": _no_max_key(ext)}
    return _emit(args, payload, lambda: [
        f"min: {ext.minimum!r}",
        "max: " + (repr(ext.maximum) if ext.maximum is not None else "none"),
    ])


def _cmd_equal(args) -> int:
    q1, q2 = _form(args, "form1"), _form(args, "form2")
    witness = equality_witness(q1, q2)
    equal = witness is None
    payload = {
        "equal": equal,
        "witness": None if equal else serialize.vector_to_json(witness),
    }

    def lines():
        out = [f"equal: {equal}"]
        if witness is not None:
            out.append("witness vector: " + ", ".join(_show(args, v) for v in witness))
        return out

    return _emit(args, payload, lines)


def _cell_invariant_violations(*_):
    """Retired: every cell kind is convex and closed, so ``check`` runs no invariant rule.
    The name stays only for the bench tracer's ``cli.invariants`` span (ROADMAP item 1)."""
    raise NotImplementedError("check runs no invariant rule")


def _cmd_check(args) -> int:
    q = _form(args)
    table = companion_table(q)
    report = {"cells": [], "mismatches": []}
    for i in range(q.n):
        for j in range(i, q.n):
            size, disagreements = cell_disagreements(q, i, j, table.cell(i, j))
            bad = [f"oracle disagrees at {format_element(beta)}" for beta in disagreements]
            report["cells"].append({"i": i + 1, "j": j + 1, "probes": size, "ok": not bad})
            if bad:
                report["mismatches"].append({"i": i + 1, "j": j + 1, "problems": bad})
    if args.table:
        given = serialize.table_from_json(_load(args, "table"))
        if given.sf != q.sf:
            report["mismatches"].append({"table": "semifield mismatch"})
        elif given.n != table.n:
            report["mismatches"].append({"table": "dimension mismatch"})
        elif given.cells != table.cells:
            diff = [
                {"i": i + 1, "j": j + 1,
                 "computed": serialize.cell_to_json(table.cell(i, j)),
                 "given": serialize.cell_to_json(given.cell(i, j))}
                for i in range(q.n)
                for j in range(q.n)
                if given.cell(i, j) != table.cell(i, j)
            ]
            report["mismatches"].append({"table": diff})
    report["ok"] = not report["mismatches"]

    def lines():
        out = [f"cells checked: {len(report['cells'])}", f"ok: {report['ok']}"]
        if not report["ok"]:
            out.append("MISMATCHES: " + json.dumps(report["mismatches"], sort_keys=True))
        return out

    _emit(args, report, lines)
    return 0 if report["ok"] else 2


def _cmd_invert(args) -> int:
    m = serialize.matrix_from_json(_load(args, "matrix"))
    mono = monomial_decomposition(m)
    inv = invert(mono).to_general()
    payload = {"inverse": serialize.matrix_to_json(inv)}
    return _emit(args, payload, lambda: [f"inverse: {inv!r}"])


def _cmd_stropicalize(args) -> int:
    ratform = serialize.ratform_from_json(_load(args, "ratform"))
    if ratform.n > DIMENSION_LIMIT:
        # the image is a QuadraticForm; `classes` needs no image and has no limit
        raise SchemaError(f"dimension {ratform.n} outside 1..{DIMENSION_LIMIT}", "$.n")
    spec = serialize.supervaluation_from_args(args.prime, args.mode)
    qphi, b_phi, classes = stropicalize_images(spec, ratform)
    balanced = balanced_companion(qphi)
    payload = {
        "form": qphi,
        "balanced": balanced,
        "b_phi": b_phi,
        "square_classes": [serialize.class_tag_to_json(t) for t in classes],
        "quasilinear": is_quasilinear(qphi),
    }

    def lines():
        show = partial(_show, args)
        return [
            ("image form (min-plus display): " if args.min_plus else "image form: ") + qphi.render(show),
            f"balanced companion: {balanced.render(show)}",
            f"companion image: {b_phi.render(show)}",
            f"quasilinear: {payload['quasilinear']}",
        ]

    return _emit(args, payload, lines)


def _cmd_classes(args) -> int:
    ratform = serialize.ratform_from_json(_load(args, "ratform"))
    spec = serialize.supervaluation_from_args(args.prime, args.mode)
    classes = square_class_sequence(spec, ratform)
    payload = {"square_classes": [serialize.class_tag_to_json(t) for t in classes]}
    return _emit(args, payload, lambda: ["square classes: " + json.dumps(payload["square_classes"], sort_keys=True)])


class _Parser(argparse.ArgumentParser):
    """Usage errors raise :class:`SchemaError` at ``$.argv``, which :func:`main` answers
    as malformed input; the subcommand parsers are of this class too."""

    def error(self, message: str):
        raise SchemaError(message, "$.argv")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tropquad",
        description="Exact quadratic forms over supertropical semifields",
    )
    parser.add_argument("--pretty", action="store_true", help="human-readable output instead of JSON")
    parser.add_argument(
        "--min-plus", action="store_true", help="negate exponents in pretty eval, equal and stropicalize output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *inputs, semifield=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for arg in inputs:
            p.add_argument(arg)
        if semifield:
            p.add_argument("--semifield", help="semifield config JSON that replaces every input's own")
        return p

    p = add("eval", _cmd_eval, "evaluate a form at a vector", "form")
    p.add_argument("--vector", required=True, help="comma-separated elements, e.g. 't:1,t:0'")
    add("companions", _cmd_companions, "compute the companion table", "form")
    add("decompose", _cmd_decompose, "quasilinear part plus rigid extrema and table", "form")
    add("rigid-extrema", _cmd_rigid_extrema, "extreme rigid complements", "form")
    add("equal", _cmd_equal, "decide functional equality of two schemes", "form1", "form2")
    p = add("check", _cmd_check, "cross-validate the closed-form table against the oracle", "form")
    p.add_argument("--table", help="also compare against a previously saved table JSON")
    add("invert", _cmd_invert, "invert a monomial matrix", "matrix")
    for name, fn, help_text in (
        ("stropicalize", _cmd_stropicalize, "image of a rational form under a supervaluation"),
        ("classes", _cmd_classes, "square-class sequence of a rational form's image"),
    ):
        p = add(name, fn, help_text, "ratform", semifield=False)
        p.add_argument("--prime", required=True, help="a prime number, or 'trivial'")
        p.add_argument("--mode", default="tangible", choices=["tangible", "ghost", "signed"])

    return parser


_PARSER = build_parser()  # built once per process: a build costs about 1.7 ms


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.fn(args)
    except SchemaError as exc:
        print(json.dumps({"error": exc.reason, "path": exc.path}, sort_keys=True), file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(json.dumps({"error": str(exc), "precondition": exc.precondition}, sort_keys=True), file=sys.stderr)
        return 2


def run() -> int:
    """``main``, exiting 1 with no traceback when the reader closes stdout early."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
    except BrokenPipeError:  # Python's documented remedy: point stdout at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(run())
