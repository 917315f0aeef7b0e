"""The command-line contract: subcommands, exit codes, determinism."""

import json

import pytest

from tropquad.cli import main

FORM = {"semifield": {"group": "int", "fiber_rank": 0}, "n": 2, "diag": ["t:2", "t:4"], "upper": {"1,2": "t:3"}}
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
    """The image form has at most 64 variables; square classes need no image."""
    n = 65
    big = files("big.json", {"n": n, "coeffs": {f"{i},{i}": "1" for i in range(1, n + 1)}})
    code, out, err = run(capsys, "stropicalize", big, "--prime", "2")
    assert code == 1 and out == ""
    assert json.loads(err)["path"] == "$.n"

    code, out, _ = run(capsys, "classes", big, "--prime", "2")
    assert code == 0
    assert len(json.loads(out)["square_classes"]) == n


def test_check_ok_and_corrupted_table(files, capsys, tmp_path):
    form_path = files("f.json", FORM)
    code, out, _ = run(capsys, "check", form_path)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and not report["mismatches"]

    code, out, _ = run(capsys, "companions", form_path)
    table = json.loads(out)
    table["cells"][0][1] = {"kind": "singleton", "value": "t:3"}
    table["cells"][1][0] = {"kind": "singleton", "value": "t:3"}
    bad_path = tmp_path / "table.json"
    bad_path.write_text(json.dumps(table))
    code, out, _ = run(capsys, "check", form_path, "--table", str(bad_path))
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


def test_precondition_exit_code(files, capsys):
    code, _, err = run(capsys, "eval", files("f.json", FORM), "--vector", "t:1")
    assert code == 2
    assert json.loads(err)["precondition"] == "dimension match required"


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


def test_minplus_display(files, capsys):
    code, out, _ = run(
        capsys, "--pretty", "--min-plus", "stropicalize", files("r.json", RATFORM), "--prime", "2"
    )
    assert code == 0
    assert "t:1" in out and "t:2" in out  # negated exponents in display


def test_check_table_dimension_mismatch(files, capsys, tmp_path):
    form_path = files("f.json", FORM)
    one = {"semifield": {"group": "int", "fiber_rank": 0}, "n": 1, "diag": ["t:2"]}
    code, out, _ = run(capsys, "companions", files("one.json", one))
    small_table = tmp_path / "small.json"
    small_table.write_text(out)
    code, out, _ = run(capsys, "check", form_path, "--table", str(small_table))
    assert code == 2
    assert json.loads(out)["mismatches"] == [{"table": "dimension mismatch"}]
