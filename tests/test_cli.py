"""The command-line contract: subcommands, exit codes, determinism."""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropquad import (
    ZERO,
    GeneralMatrix,
    GroupKind,
    NuLeqDoubled,
    QuadraticForm,
    RationalQuadraticForm,
    Semifield,
    companion_table,
    is_quasilinear,
)
from tropquad import cli, companions
from tropquad.cli import main
from tropquad.semiring import format_element
from tropquad.serialize import (
    RATFORM_DIMENSION_LIMIT,
    form_from_json,
    form_to_json,
    matrix_to_json,
    ratform_to_json,
    semifield_to_json,
    table_to_json,
)

from gen import element_strategy

FORM = {"semifield": {"group": "int", "fiber_rank": 0}, "n": 2, "diag": ["t:2", "t:4"], "upper": {"1,2": "t:3"}}
HUGE = "t:" + "9" * 4300
FORM_GHOSTED = {"semifield": {"group": "int", "fiber_rank": 0}, "n": 2, "diag": ["t:2", "t:4"], "upper": {"1,2": "g:3"}}
RIGID1 = {"semifield": {"group": "int", "fiber_rank": 0}, "n": 2, "diag": ["t:0", "t:0"], "upper": {"1,2": "t:1"}}
RIGID2 = {"semifield": {"group": "int", "fiber_rank": 0}, "n": 2, "diag": ["t:0", "t:0"], "upper": {"1,2": "g:1"}}
RATFORM = {"n": 2, "coeffs": {"1,1": "1", "1,2": "2", "2,2": "4"}}
MATRIX = {"semifield": {"group": "int", "fiber_rank": 0}, "rows": [["t:2", "0"], ["0", "t:-1"]]}
GHOST_MATRIX = {"semifield": {"group": "int", "fiber_rank": 0}, "rows": [["g:0", "0"], ["0", "t:0"]]}


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(files, capsys):
    nine = dict(FORM, upper={"1,2": "t:9"})
    code, out, _ = run(capsys, "eval", files("f.json", nine), "--vector", "t:1,t:0")
    assert code == 0
    assert json.loads(out) == {"value": "t:10"}


def test_companions_table(files, capsys):
    code, out, _ = run(capsys, "companions", files("f.json", FORM))
    assert code == 0
    payload = json.loads(out)
    assert payload["cells"][0][1]["display"] == "[0, g:3]"
    assert payload["quasilinear"] is True and payload["rigid"] is False


def test_equal_pair(files, capsys):
    code, out, _ = run(capsys, "equal", files("a.json", FORM), files("b.json", FORM_GHOSTED))
    assert code == 0
    assert json.loads(out)["equal"] is True

    code, out, _ = run(capsys, "equal", files("c.json", RIGID1), files("d.json", RIGID2))
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is False and payload["witness"] is not None


def test_decompose_and_extrema(files, capsys):
    code, out, _ = run(capsys, "decompose", files("f.json", FORM))
    assert code == 0
    payload = json.loads(out)
    assert payload["ql"]["diag"] == ["t:2", "t:4"]
    assert payload["rigid_min"]["upper"] == {}
    assert payload["rigid_max"]["upper"] == {"1,2": "g:3"}

    dense = {
        "semifield": {"group": "rat3", "fiber_rank": 0},
        "n": 2,
        "diag": ["t:1", "t:2"],
        "upper": {},
    }
    code, out, _ = run(capsys, "rigid-extrema", files("g.json", dense))
    assert code == 0
    payload = json.loads(out)
    assert payload["max"] is None and payload["no_max_cell"] == "1,2"


def test_invert(files, capsys):
    code, out, _ = run(capsys, "invert", files("m.json", MATRIX))
    assert code == 0
    assert json.loads(out)["inverse"]["rows"] == [["t:-2", "0"], ["0", "t:1"]]


def test_invert_rejects_ghost(files, capsys):
    code, _, err = run(capsys, "invert", files("m.json", GHOST_MATRIX))
    assert code == 2
    payload = json.loads(err)
    assert payload["precondition"] == "monomial matrix required"
    assert "row 1" in payload["error"]


def test_stropicalize(files, capsys):
    code, out, _ = run(capsys, "stropicalize", files("r.json", RATFORM), "--prime", "2", "--mode", "tangible")
    assert code == 0
    payload = json.loads(out)
    assert payload["form"]["diag"] == ["t:0", "t:-2"]
    assert payload["form"]["upper"] == {"1,2": "t:-1"}
    assert payload["balanced"]["gram"] == [["g:0", "t:-1"], ["t:-1", "g:-2"]]
    assert payload["b_phi"]["gram"][0][0] == "t:-1" and payload["b_phi"]["gram"][1][1] == "t:-3"
    assert payload["quasilinear"] is True


def test_classes(files, capsys):
    code, out, _ = run(capsys, "classes", files("r.json", RATFORM), "--prime", "2")
    assert code == 0
    assert json.loads(out)["square_classes"] == [
        {"kind": "tangible", "parity": 0},
        {"kind": "tangible", "parity": 0},
    ]


def test_rational_form_beyond_the_dimension_limit(files, capsys):
    """The image form has at most 64 variables; square classes need no image and go further."""
    n = 65
    big = files("big.json", {"n": n, "coeffs": {f"{i},{i}": "1" for i in range(1, n + 1)}})
    code, out, err = run(capsys, "stropicalize", big, "--prime", "2")
    assert code == 1 and out == ""
    assert json.loads(err)["path"] == "$.n"

    code, out, _ = run(capsys, "classes", big, "--prime", "2")
    assert code == 0
    assert len(json.loads(out)["square_classes"]) == n

    # square classes cost time and memory linear in n, so n has a bound of its own
    n = RATFORM_DIMENSION_LIMIT
    code, out, _ = run(capsys, "classes", files("r.json", {"n": n, "coeffs": {f"{n},{n}": "3"}}), "--prime", "2")
    assert code == 0 and len(json.loads(out)["square_classes"]) == n
    for past in (n + 1, 10**9):
        code, out, err = run(capsys, "classes", files("r.json", {"n": past, "coeffs": {}}), "--prime", "2")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"n must be at most {n}", "path": "$.n"}


def _corrupted_table(files, capsys, form_path) -> str:
    """A saved table of the form whose cell (1,2) is replaced by the singleton {t:3}."""
    code, out, _ = run(capsys, "companions", form_path)
    assert code == 0
    table = json.loads(out)
    table["cells"][0][1] = {"kind": "singleton", "value": "t:3"}
    table["cells"][1][0] = {"kind": "singleton", "value": "t:3"}
    return files("table.json", table)


# the one table diff that check prints for FORM against its corrupted table
CORRUPTED_DIFF = [{"table": [
    {"computed": {"bound2": "6", "display": "[0, g:3]", "kind": "nu_leq"},
     "given": {"display": "{t:3}", "kind": "singleton", "value": "t:3"}, "i": i, "j": j}
    for i, j in ((1, 2), (2, 1))
]}]


def test_check_ok_and_corrupted_table(files, capsys):
    form_path = files("f.json", FORM)
    code, out, _ = run(capsys, "check", form_path)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and not report["mismatches"]

    code, out, _ = run(capsys, "check", form_path, "--table", _corrupted_table(files, capsys, form_path))
    assert code == 2
    assert json.loads(out)["ok"] is False


def test_schema_error_exit_code(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "eval", str(bad), "--vector", "t:0")
    assert code == 1
    assert "line" in json.loads(err)["path"]

    code, _, err = run(capsys, "companions", files("f.json", {"semifield": {"group": "int"}, "n": 1, "diag": ["t:1/2"]}))
    assert code == 1
    assert json.loads(err)["path"] == "$.diag[1]"


@pytest.mark.parametrize(
    "command, obj, path",
    [
        ("companions", dict(FORM, semifield={"group": "int", "fiber_rank": True}), "$.semifield.fiber_rank"),
        ("companions", dict(FORM, n=True), "$.n"),
        ("classes", dict(RATFORM, n=True), "$.n"),
        ("classes", dict(RATFORM, coeffs={"1,1": True}), "$.coeffs.1,1"),
    ],
)
def test_booleans_are_not_ints(files, capsys, command, obj, path):
    """JSON true/false parse to Python bools, which are ints; the schema refuses them."""
    extra = ("--prime", "2") if command == "classes" else ()
    code, out, err = run(capsys, command, files("f.json", obj), *extra)
    assert code == 1 and out == ""
    assert json.loads(err)["path"] == path


@pytest.mark.parametrize(
    "command, obj, error",
    [
        ("classes", dict(RATFORM, coeffs={"1,1": "1/2\n"}), {"error": "not a rational literal: '1/2\\n'", "path": "$.coeffs.1,1"}),
        (
            "companions",
            {"semifield": {"group": "int", "fiber_rank": 1}, "n": 1, "diag": ["t:1\n:+"]},
            {"error": "not a rational literal: '1\\n'", "path": "$.diag[1]"},
        ),
    ],
)
def test_a_trailing_newline_is_no_rational_literal(files, capsys, command, obj, error):
    """Rationals are ``p/q`` or integers, with nothing after them, a final newline included."""
    extra = ("--prime", "2") if command == "classes" else ()
    code, out, err = run(capsys, command, files("f.json", obj), *extra)
    assert code == 1 and out == ""
    assert json.loads(err) == error


@pytest.mark.parametrize(
    "cell, path",
    [
        ({"kind": "nu_class", "exp": "1/2"}, "$.cells[1][2].exp"),
        ({"kind": "nu_leq", "bound2": "1/3"}, "$.cells[1][2].bound2"),
        ({"kind": "nu_lt", "bound2": "5/2"}, "$.cells[1][2].bound2"),
    ],
)
def test_check_table_exponent_outside_the_group(files, capsys, cell, path):
    code, out, _ = run(capsys, "companions", files("f.json", FORM))
    table = json.loads(out)
    table["cells"][0][1] = cell
    code, out, err = run(capsys, "check", files("f.json", FORM), "--table", files("t.json", table))
    assert code == 1 and out == ""
    assert json.loads(err)["path"] == path


def test_check_table_is_read_without_the_forms_literals(files, capsys):
    """A literal the form parsed under rat3 is parsed again under the table's int group."""
    form = {"semifield": {"group": "rat3", "fiber_rank": 0}, "n": 2, "diag": ["t:1/3", "t:1/3"]}
    cells = [[{"kind": "singleton", "value": "t:1/3"}] * 2] * 2
    table = {"semifield": {"group": "int", "fiber_rank": 0}, "cells": cells}
    code, out, err = run(capsys, "check", files("f.json", form), "--table", files("t.json", table))
    assert code == 1 and out == ""
    assert json.loads(err)["path"] == "$.cells[1][1].value"


def test_precondition_exit_code(files, capsys):
    code, _, err = run(capsys, "eval", files("f.json", FORM), "--vector", "t:1")
    assert code == 2
    assert json.loads(err)["precondition"] == "dimension match required"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["eval", "FORM"], "the following arguments are required: --vector"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["classes", "RATFORM", "--prime", "2", "--mode", "bogus"], "argument --mode: invalid choice: 'bogus'"),
    ],
)
def test_argument_errors_answer_in_json(files, capsys, argv, error):
    paths = {"FORM": files("f.json", FORM), "RATFORM": files("r.json", RATFORM)}
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    answer = json.loads(err)
    assert answer["path"] == "$.argv" and answer["error"].startswith(error)


def test_help_still_prints_help(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tropquad")


def test_semifield_override(files, capsys):
    bare = {"semifield": {"group": "int", "fiber_rank": 0}, "n": 1, "diag": ["t:1/3"]}
    code, _, err = run(capsys, "companions", files("f.json", bare))
    assert code == 1  # 1/3 is not an integer exponent
    code, out, _ = run(
        capsys, "companions", files("g.json", bare), "--semifield", '{"group": "rat3", "fiber_rank": 0}'
    )
    assert code == 0
    assert json.loads(out)["semifield"]["group"] == "rat3"


def test_stdin_input(files, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(FORM)))
    code, out, _ = run(capsys, "companions", "-")
    assert code == 0
    assert json.loads(out)["n"] == 2


def test_output_is_deterministic(files, capsys):
    path = files("f.json", FORM)
    outs = set()
    for _ in range(3):
        code, out, _ = run(capsys, "decompose", path)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_pretty_mode(files, capsys):
    code, out, _ = run(capsys, "--pretty", "companions", files("f.json", FORM))
    assert code == 0
    assert "[0, g:3]" in out and "{" not in out.splitlines()[0]


RAT3_HALF_OPEN = {"semifield": {"group": "rat3", "fiber_rank": 0}, "n": 2, "diag": ["t:0", "t:1"], "upper": {}}
# forms that differ at the witness (t:-2, t:0), so min-plus shows (t:2, t:0)
WITNESSED = [
    {"semifield": {"group": "int", "fiber_rank": 0}, "n": 2, "diag": ["t:-2", "t:-2"], "upper": {"1,2": v}}
    for v in ("t:1", "g:1")
]


@pytest.mark.parametrize(
    "argv, inputs, lines",
    [
        (["decompose"], [RAT3_HALF_OPEN], [
            "quasilinear part: [t:0 0; t:1]",
            "minimal rigid complement: [0 0; 0]",
            "maximal rigid complement: none",
            "no maximum because cell (1,2) is half-open",
        ]),
        (["decompose"], [FORM], [
            "quasilinear part: [t:2 0; t:4]",
            "minimal rigid complement: [0 0; 0]",
            "maximal rigid complement: [0 g:3; 0]",
        ]),
        (["rigid-extrema"], [RAT3_HALF_OPEN], ["min: [0 0; 0]", "max: none"]),
        (["rigid-extrema"], [FORM], ["min: [0 0; 0]", "max: [0 g:3; 0]"]),
        (["invert"], [MATRIX], ["inverse: [t:-2 0; 0 t:1]"]),
        (["equal"], WITNESSED, ["equal: False", "witness vector: t:-2, t:0"]),
        (["--min-plus", "equal"], WITNESSED, ["equal: False", "witness vector: t:2, t:0"]),
        (["equal"], [FORM, FORM_GHOSTED], ["equal: True"]),
        (["--min-plus", "equal"], [FORM, FORM], ["equal: True"]),
        (["check"], [FORM], ["cells checked: 3", "ok: True"]),
    ],
)
def test_pretty_text(files, capsys, argv, inputs, lines):
    paths = [files(f"in{k}.json", obj) for k, obj in enumerate(inputs)]
    code, out, err = run(capsys, "--pretty", *argv, *paths)
    assert (code, err) == (0, "")
    assert out.splitlines() == lines


def test_pretty_check_prints_its_mismatches(files, capsys):
    form_path = files("f.json", FORM)
    code, out, _ = run(capsys, "--pretty", "check", form_path, "--table", _corrupted_table(files, capsys, form_path))
    assert code == 2
    assert out.splitlines() == [
        "cells checked: 3",
        "ok: False",
        "MISMATCHES: " + json.dumps(CORRUPTED_DIFF, sort_keys=True),
    ]


def test_classes_under_the_trivial_valuation(files, capsys):
    """The trivial valuation sends every nonzero rational to level 0, so each class has parity 0."""
    path = files("r.json", {"n": 2, "coeffs": {"1,1": "2", "1,2": "1/4", "2,2": "-8"}})
    code, out, _ = run(capsys, "classes", path, "--prime", "trivial", "--mode", "signed")
    assert code == 0
    assert out == json.dumps({"square_classes": [
        {"fiber": "-", "kind": "tangible", "parity": 0},
        {"fiber": "+", "kind": "tangible", "parity": 0},
    ]}, sort_keys=True) + "\n"


# an element literal of the text encoding: "0", "t:<rat>", "t:<rat>:<signs>" or "g:<rat>"
LITERAL = re.compile(r"0|[tg]:-?\d+(?:/\d+)?(?::[+-]+)?")


def _negated(literal: str) -> str:
    """An element literal with its exponent negated."""
    if literal == "0":
        return literal
    tag, exp, *signs = literal.split(":")
    return ":".join([tag, str(-Fraction(exp)), *signs])


def test_minplus_display(files, capsys):
    """Each exponent on the image, balanced-companion and companion-image
    lines is the negation of the matching JSON entry."""
    for ratform in (RATFORM, {"n": 2, "coeffs": {"1,1": "2", "1,2": "1/4", "2,2": "8"}}):
        for mode in ("tangible", "ghost", "signed"):
            path = files("r.json", ratform)
            _, out, _ = run(capsys, "stropicalize", path, "--prime", "2", "--mode", mode)
            payload = json.loads(out)
            form, n = payload["form"], payload["form"]["n"]
            triangle = [form["diag"][i] if i == j else form["upper"].get(f"{i + 1},{j + 1}", "0")
                        for i in range(n) for j in range(i, n)]
            code, out, _ = run(capsys, "--pretty", "--min-plus", "stropicalize", path, "--prime", "2", "--mode", mode)
            assert code == 0
            image, balanced, b_phi, _ = out.splitlines()
            assert image.startswith("image form (min-plus display): [")
            for line, entries in [
                (image, triangle),
                (balanced, [v for row in payload["balanced"]["gram"] for v in row]),
                (b_phi, [v for row in payload["b_phi"]["gram"] for v in row]),
            ]:
                assert LITERAL.findall(line.split(": ", 1)[1]) == [_negated(v) for v in entries]


def test_check_table_semifield_mismatch(files, capsys):
    """A saved table is read under its own semifield; one that differs from the form's is a mismatch."""
    rat3 = dict(FORM, semifield={"group": "rat3", "fiber_rank": 2})
    code, out, _ = run(capsys, "companions", files("g.json", rat3))
    saved = files("t.json", json.loads(out))
    code, out, _ = run(capsys, "check", files("f.json", FORM), "--table", saved)
    assert code == 2
    assert json.loads(out)["mismatches"] == [{"table": "semifield mismatch"}]

    # --semifield replaces the semifield of the form and of the table alike
    code, out, _ = run(capsys, "check", files("f.json", FORM), "--table", saved, "--semifield", '{"group": "int"}')
    assert code == 0 and json.loads(out)["ok"] is True


def test_check_table_dimension_mismatch(files, capsys, tmp_path):
    form_path = files("f.json", FORM)
    one = {"semifield": {"group": "int", "fiber_rank": 0}, "n": 1, "diag": ["t:2"]}
    code, out, _ = run(capsys, "companions", files("one.json", one))
    small_table = tmp_path / "small.json"
    small_table.write_text(out)
    code, out, _ = run(capsys, "check", form_path, "--table", str(small_table))
    assert code == 2
    assert json.loads(out)["mismatches"] == [{"table": "dimension mismatch"}]


def test_check_refuses_a_table_whose_n_contradicts_its_cells(files, capsys):
    """A saved table of one row that says ``"n": 2`` exits 1 at ``$.n`` rather
    than reading as a 1 x 1 table and reporting a dimension mismatch."""
    one = {"semifield": {"group": "int", "fiber_rank": 0}, "n": 1, "diag": ["t:2"]}
    _, out, _ = run(capsys, "companions", files("one.json", one))
    table = dict(json.loads(out), n=2)
    code, out, err = run(capsys, "check", files("f.json", FORM), "--table", files("t.json", table))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "n must be 1, the number of rows of cells", "path": "$.n"}


def _error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    return json.loads(err)


@pytest.mark.parametrize(
    "raw, argv, path, reason",
    [
        (b"5", ("invert",), "$", "matrix must be an object"),
        (b"[1]", ("invert", "--semifield", '{"group": "int"}'), "$", "matrix must be an object"),
        (json.dumps(dict(FORM, semifield={"group": []})).encode(), ("companions",), "$.semifield.group", None),
        (b"[" * 100_000, ("companions",), "$", None),
        (b"1" * 5000, ("companions",), "$", None),
        (bytes.fromhex("fffe7b"), ("companions",), "$", None),
    ],
    ids=["non-object-matrix", "non-object-matrix-override", "list-group", "deep-nesting", "long-int", "not-utf8"],
)
def test_inputs_that_used_to_raise(tmp_path, capsys, raw, argv, path, reason):
    """Each of these escaped as a Python traceback; each is a schema error at its path."""
    doc = tmp_path / "doc.json"
    doc.write_bytes(raw)
    error = _error(capsys, argv[0], str(doc), *argv[1:])
    assert error["path"] == path
    if reason is not None:
        assert error["error"] == reason


def test_table_kind_must_be_a_string(files, capsys):
    code, out, _ = run(capsys, "companions", files("f.json", FORM))
    table = json.loads(out)
    table["cells"][0][1] = {"kind": ["nu_leq"], "bound2": "6"}
    error = _error(capsys, "check", files("f.json", FORM), "--table", files("t.json", table))
    assert error["path"] == "$.cells[1][2].kind"


@pytest.mark.parametrize(
    "command, obj, path",
    [
        ("companions", dict(FORM, upper={"1,2": "t:1", "01,2": "t:5"}), "$.upper.01,2"),
        ("classes", dict(RATFORM, coeffs={"1,1": "1", "1,01": "3"}), "$.coeffs.1,01"),
    ],
)
def test_alias_index_keys_are_duplicates(files, capsys, command, obj, path):
    """Two keys that name one coefficient are refused at the second key, not resolved by whichever comes last."""
    extra = ("--prime", "2") if command == "classes" else ()
    error = _error(capsys, command, files("f.json", obj), *extra)
    assert error["path"] == path
    assert error["error"] == ("duplicate index (1,2)" if command == "companions" else "duplicate index (1,1)")


FORM_TEXT = json.dumps(FORM)


@pytest.mark.parametrize(
    "argv, texts, path, reason",
    [
        (("companions", 0), [FORM_TEXT[:-2] + ', "1,2": "t:9"}}'], "$", "invalid JSON: duplicate key '1,2'"),
        (
            ("eval", 0, "--vector", "t:1/2,0"),
            [FORM_TEXT[:-1] + ', "semifield": {"group": "rat", "fiber_rank": 0}}'],
            "$",
            "invalid JSON: duplicate key 'semifield'",
        ),
        (("companions", "-"), [FORM_TEXT[:-2] + ', "1,2": "t:9"}}'], "$", "invalid JSON: duplicate key '1,2'"),
        (
            ("check", 0, "--table", 1),
            [FORM_TEXT, json.dumps(table_to_json(companion_table(form_from_json(FORM))))[:-1] + ', "n": 2}'],
            "$",
            "invalid JSON: duplicate key 'n'",
        ),
        (
            ("companions", 0, "--semifield", '{"group": "int", "group": "rat"}'),
            [FORM_TEXT],
            "$.semifield",
            "invalid JSON in --semifield: duplicate key 'group'",
        ),
    ],
    ids=["file", "file-semifield", "stdin", "saved-table", "semifield-option"],
)
def test_a_key_named_twice_is_refused(tmp_path, capsys, monkeypatch, argv, texts, path, reason):
    """``json.loads`` alone keeps the last copy of a repeated key, so the call would go on with
    one of two values; every document the CLI reads refuses the key instead.  An int k in argv
    names the k-th text's file, and stdin holds the first text."""
    for k, text in enumerate(texts):
        (tmp_path / f"{k}.json").write_text(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(texts[0]))
    argv = [str(tmp_path / f"{a}.json") if isinstance(a, int) else a for a in argv]
    assert _error(capsys, *argv) == {"error": reason, "path": path}


def test_fiber_rank_bound(files, capsys):
    at_bound = dict(FORM, semifield={"group": "int", "fiber_rank": 64})
    code, out, _ = run(capsys, "companions", files("f.json", at_bound))
    assert code == 0 and json.loads(out)["semifield"]["fiber_rank"] == 64

    above = dict(FORM, semifield={"group": "int", "fiber_rank": 65})
    assert _error(capsys, "companions", files("f.json", above))["path"] == "$.semifield.fiber_rank"
    over = ("--semifield", '{"group": "int", "fiber_rank": 65}')
    assert _error(capsys, "companions", files("f.json", FORM), *over)["path"] == "$.semifield.fiber_rank"


def test_prime_bound(files, capsys):
    ratform = files("r.json", RATFORM)
    code, _, _ = run(capsys, "classes", ratform, "--prime", str(2**31 - 1))
    assert code == 0
    # 2**31 + 11 is the first prime above the bound
    assert _error(capsys, "classes", ratform, "--prime", str(2**31 + 11))["path"] == "$.prime"
    assert _error(capsys, "stropicalize", ratform, "--prime", "1000000000000000003")["path"] == "$.prime"


# -- every input answers with one JSON document --------------------------------

SEMIFIELDS = st.builds(Semifield, st.sampled_from(list(GroupKind)), st.sampled_from((0, 1)))
# scalars and containers with even odds: an unhashable value is what a lookup table trips on
JUNK = st.one_of(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 10**4), st.floats(), st.text(max_size=3)),
    st.one_of(
        st.lists(st.integers(-3, 3), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
    ),
)


def _keys(container) -> list:
    return list(container) if isinstance(container, dict) else list(range(len(container)))


@st.composite
def mutated(draw, doc, least=0):
    """doc with up to three members replaced by junk or dropped.

    A member is picked by a walk from the top that stops at each level with
    even odds, so that shallow members such as "semifield" are hit often.
    """
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(least, 3))):
        if not isinstance(doc, (dict, list)) or not doc or draw(st.integers(0, 9)) == 9:
            return draw(JUNK)
        parent, key = doc, draw(st.sampled_from(_keys(doc)))
        while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
            parent, key = parent[key], draw(st.sampled_from(_keys(parent[key])))
        if draw(st.booleans()):
            parent[key] = draw(JUNK)
        else:
            del parent[key]
    return doc


@st.composite
def forms(draw, sf, n):
    elems = element_strategy(sf)
    diag = draw(st.lists(elems, min_size=n, max_size=n))
    return QuadraticForm(sf, diag, {(i, j): draw(elems) for i in range(n) for j in range(i + 1, n)})


@st.composite
def cli_calls(draw):
    """(argv with int k for the k-th input file, input documents) for one subcommand."""
    sf, n = draw(SEMIFIELDS), draw(st.integers(1, 4))
    q = draw(forms(sf, n))
    command = draw(st.sampled_from(
        ["eval", "companions", "decompose", "rigid-extrema", "equal", "check", "invert", "stropicalize", "classes"]
    ))
    if command == "eval":
        vector = draw(st.lists(element_strategy(sf), min_size=n, max_size=n + 1))
        argv, docs = ["eval", 0, "--vector", ",".join(map(format_element, vector))], [form_to_json(q)]
    elif command == "equal":
        argv, docs = ["equal", 0, 1], [form_to_json(q), form_to_json(draw(forms(sf, n)))]
    elif command == "check" and draw(st.booleans()):
        other = draw(st.sampled_from([q, draw(forms(sf, n)), draw(forms(draw(SEMIFIELDS), n))]))
        argv, docs = ["check", 0, "--table", 1], [form_to_json(q), table_to_json(companion_table(other))]
    elif command == "invert":
        perm = draw(st.permutations(range(n)))
        rows = [[draw(element_strategy(sf)) if c == perm[r] else ZERO for c in range(n)] for r in range(n)]
        argv, docs = ["invert", 0], [matrix_to_json(GeneralMatrix(sf, rows))]
    elif command in ("stropicalize", "classes"):
        keys = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted).map(tuple)
        coeffs = draw(st.dictionaries(keys, st.fractions(-20, 20, max_denominator=6), max_size=6))
        prime = draw(st.sampled_from(["trivial", "2", "3", "5"]))
        mode = draw(st.sampled_from(["tangible", "ghost", "signed"]))
        argv = [command, 0, "--prime", prime, "--mode", mode]
        return argv, [draw(mutated(ratform_to_json(RationalQuadraticForm(n, coeffs))))]
    else:
        argv, docs = [command, 0], [form_to_json(q)]
    if draw(st.booleans()):
        # "--semifield=..." keeps argparse from reading a junk value such as "-1e+16" as an option
        argv.append("--semifield=" + json.dumps(draw(mutated(semifield_to_json(draw(SEMIFIELDS)), least=1))))
    return argv, [draw(mutated(doc)) for doc in docs]


@settings(max_examples=200, deadline=None)
@given(cli_calls())
# mutations that escaped as tracebacks before, pinned so that every run tries them
@example((["invert", 0], [5]))
@example((["companions", 0], [dict(FORM, semifield={"group": []})]))
@example((["eval", 0, "--vector", "t:0,t:0", '--semifield={"group": {}}'], [FORM]))
# exponents of 4300 digits, the interpreter's default limit: their printed sums are longer
@example((["companions", 0], [dict(FORM, diag=[HUGE, HUGE], upper={})]))
@example((["decompose", 0], [dict(FORM, diag=[HUGE, HUGE], upper={})]))
@example((["eval", 0, "--vector", HUGE], [dict(FORM, n=1, diag=[HUGE], upper={})]))
def test_every_input_answers_with_one_json_document(call):
    argv, docs = call
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for k, doc in enumerate(docs):
            paths.append(os.path.join(d, f"in{k}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths[a] if isinstance(a, int) else a for a in argv])
    assert code in (0, 1, 2)
    texts = [t for t in (out.getvalue(), err.getvalue()) if t]
    assert len(texts) == 1
    answer = json.loads(texts[0])
    if code == 1:
        assert err.getvalue() and "path" in answer


def _digit_bound_literals(group: str, digits: int) -> tuple[str, list[str]]:
    """An exponent of the group whose numerator has exactly ``digits`` digits and whose
    denominator has at most that many, and exponents whose numerator or denominator has one more."""
    top = 10**digits
    if group == "int":
        return str(top - 1), [str(top)]
    den = top - 1
    if group == "rat3":
        den = 1
        while 3 * den < top:
            den *= 3
    # top - 2 = 99...98 is prime to 3 and to top - 1
    return f"{top - 2}/{den}", [str(top), f"-1/{3 * den if group == 'rat3' else top}"]


@pytest.mark.parametrize("group", ["int", "rat", "rat3"])
@pytest.mark.parametrize("command", ["eval", "companions", "decompose", "rigid-extrema", "equal", "check", "check-table"])
def test_form_subcommands_answer_at_the_digit_bound_and_refuse_past_it(command, group, files, capsys):
    """With every exponent at a fifth of the interpreter's digit limit, each form subcommand
    prints JSON and exits 0, ``check --table`` with the form's own table included, whose
    doubled bounds are longer; one digit past it, the literal is refused at its path.  A
    table's exponents may have twice the digits."""
    digits = sys.get_int_max_str_digits() // 5
    big, pasts = _digit_bound_literals(group, digits)
    semifield = {"group": group, "fiber_rank": 1}
    q1 = {"semifield": semifield, "n": 2, "diag": [f"t:{big}:+", f"g:-{big}"], "upper": {"1,2": f"t:{big}:-"}}
    q2 = dict(q1, upper={"1,2": f"g:-{big}"})

    def call(form, vector=f"t:{big}:+,t:-{big}:-", table=None):
        argv = {
            "eval": ["eval", files("q.json", form), "--vector", vector],
            "equal": ["equal", files("q.json", form), files("r.json", q2)],
            "check-table": ["check", files("q.json", form), "--table", files("t.json", table)],
        }.get(command, [command, files("q.json", form)])
        return run(capsys, *argv)

    table = table_to_json(companion_table(form_from_json(q1)))
    code, out, _ = call(q1, table=table)
    assert code == 0 and json.loads(out)
    for past in pasts:
        code, _, err = call(dict(q1, diag=[f"t:{past}:+", q1["diag"][1]]), table=table)
        assert code == 1 and json.loads(err)["path"] == "$.diag[1]"
        if command == "eval":
            code, _, err = call(q1, vector=f"t:0:+,t:{past}:-")
            assert code == 1 and json.loads(err)["path"] == "$.vector[2]"
    if command == "check-table":
        cells = [row[:] for row in table["cells"]]
        cells[0][0] = {"kind": "nu_class", "exp": str(10 ** (2 * digits))}
        code, _, err = call(q1, table=dict(table, cells=cells))
        assert code == 1 and json.loads(err)["path"] == "$.cells[1][1].exp"


@st.composite
def _companions_inputs(draw):
    """A form of any group, fiber rank 0-2 and size 1-5, whose cross coefficients
    are zero now and then, so that it is quasilinear often enough."""
    sf = Semifield(draw(st.sampled_from(list(GroupKind))), draw(st.sampled_from((0, 1, 2))))
    n = draw(st.integers(1, 5))
    elems = element_strategy(sf)
    cross = st.one_of(st.just(ZERO), elems.map(lambda b: b.nu()), elems)
    diag = draw(st.lists(elems, min_size=n, max_size=n))
    return QuadraticForm(sf, diag, {(i, j): draw(cross) for i in range(n) for j in range(i + 1, n)})


@settings(max_examples=200, deadline=None)
@given(_companions_inputs())
def test_companions_prints_is_quasilinear_property(q):
    """``companions`` reads quasilinearity off its table; it prints what ``is_quasilinear`` decides."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "form.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(form_to_json(q), fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["companions", path]) == 0
    assert json.loads(out.getvalue())["quasilinear"] is is_quasilinear(q)


# -- check's verdicts ------------------------------------------------------------


def test_check_runs_no_invariant_rule(files, capsys, monkeypatch):
    """A cell's verdict is oracle agreement alone; a saved table is still compared."""

    def refuse(*_):
        raise AssertionError("check ran the invariant rules")

    monkeypatch.setattr(cli, "_cell_invariant_violations", refuse)
    for form in (FORM, FORM_GHOSTED, RIGID1, RIGID2, RAT3_HALF_OPEN):
        code, out, _ = run(capsys, "check", files("f.json", form))
        assert code == 0 and json.loads(out)["ok"] is True
    form_path = files("f.json", FORM)
    code, out, _ = run(capsys, "check", form_path, "--table", _corrupted_table(files, capsys, form_path))
    assert code == 2
    assert json.loads(out)["mismatches"] == CORRUPTED_DIFF


RAT_RANK1 = {"semifield": {"group": "rat", "fiber_rank": 1}, "n": 2, "diag": ["t:1", "t:2"], "upper": {"1,2": "t:0"}}


def _problems_at(*exps: str) -> list[str]:
    return [f"oracle disagrees at {b}" for e in exps for b in (f"t:{e}:+", f"g:{e}", f"t:{e}:-")]


@pytest.mark.parametrize(
    "on_diagonal, expected",
    [
        (False, [{"i": 1, "j": 2, "problems": _problems_at("7/6", "4/3", "3/2")}]),
        (True, [
            {"i": 1, "j": 1, "problems": _problems_at("2/3", "5/6", "1")},
            {"i": 2, "j": 2, "problems": _problems_at("5/3", "11/6", "2")},
        ]),
    ],
)
def test_check_reports_each_probe_where_the_oracle_disagrees(files, capsys, monkeypatch, on_diagonal, expected):
    """A closed form whose closed lower bound drops by one is caught at every
    probe between the two bounds, each named as the element it stands for."""
    real = companions.pair_analysis

    def lowered(sf, a1, a2, alpha):
        branch, cell = real(sf, a1, a2, alpha)
        if isinstance(cell, NuLeqDoubled) and (a1 == a2 and alpha == a1.nu()) == on_diagonal:
            cell = NuLeqDoubled(cell.bound2 - 1)
        return branch, cell

    monkeypatch.setattr(companions, "pair_analysis", lowered)
    code, out, _ = run(capsys, "check", files("f.json", RAT_RANK1))
    assert code == 2
    report = json.loads(out)
    assert report["ok"] is False
    assert report["mismatches"] == expected
    assert [c["ok"] for c in report["cells"]] == [not on_diagonal, on_diagonal, not on_diagonal]
