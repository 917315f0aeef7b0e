"""Round trips and positioned schema errors for every JSON surface."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropquad import (
    ZERO,
    Element,
    GeneralMatrix,
    GroupKind,
    QuadraticForm,
    Semifield,
    SymmetricBilinearForm,
    balanced_companion,
    companion_table,
)
from tropquad.companions import CompanionTable, NuClass, NuLeqDoubled, NuLtDoubled, Singleton
from tropquad.semiring import format_element
from tropquad import serialize
from tropquad.serialize import (
    SchemaError,
    bilinear_from_json,
    bilinear_to_json,
    cell_display,
    cell_to_json,
    form_from_json,
    form_to_json,
    matrix_from_json,
    matrix_to_json,
    ratform_from_json,
    ratform_to_json,
    semifield_from_json,
    semifield_to_json,
    table_from_json,
    table_to_json,
    vector_from_json,
    vector_from_text,
    vector_to_json,
)

from gen import (
    bilinear_from_json_reference,
    element_strategy,
    form_from_json_reference,
    kind_semifields,
    matrix_from_json_reference,
    random_form,
    random_ratform,
    random_square_matrix,
    random_vector,
    ratform_from_json_reference,
)

INT = Semifield(GroupKind.INT)
t = INT.tangible
g = INT.ghost


def test_semifield_roundtrip():
    for sf in kind_semifields() + kind_semifields(2):
        assert semifield_from_json(semifield_to_json(sf)) == sf


def test_form_roundtrip():
    rng = random.Random(0)
    for sf in kind_semifields() + kind_semifields(1):
        for _ in range(25):
            q = random_form(rng, sf, rng.randint(1, 4))
            assert form_from_json(form_to_json(q)) == q


def test_vector_roundtrip():
    rng = random.Random(1)
    for sf in kind_semifields(1):
        for _ in range(25):
            x = random_vector(rng, sf, 3)
            assert vector_from_json(sf, vector_to_json(x)) == x


def test_vector_from_text():
    assert vector_from_text(INT, "t:1, t:0") == (t(1), t(0))
    assert vector_from_text(INT, "0,g:-2") == (INT.zero, g(-2))
    with pytest.raises(SchemaError) as exc:
        vector_from_text(INT, "t:1,oats")
    assert "vector[2]" in exc.value.path
    with pytest.raises(SchemaError):
        vector_from_text(INT, "g:1/2")  # exponent outside the integer group


def test_bilinear_and_matrix_roundtrip():
    rng = random.Random(2)
    for sf in kind_semifields():
        for _ in range(15):
            m = random_square_matrix(rng, sf, 3)
            assert matrix_from_json(matrix_to_json(m)) == m
    from tropquad import balanced_companion

    q = QuadraticForm(INT, (t(2), t(4)), {(0, 1): t(9)})
    b = balanced_companion(q)
    assert bilinear_from_json(bilinear_to_json(b)) == b


@st.composite
def _grams(draw):
    """A symmetric Gram matrix of fiber rank 0-2 and n 1-6; each mirror entry is
    the same element, or an equal but distinct one whose exponent is a Fraction."""
    sf = Semifield(draw(st.sampled_from(list(GroupKind))), draw(st.integers(0, 2)))
    n = draw(st.integers(1, 6))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rows[i][j] = draw(element_strategy(sf))
            twin = v if v.is_zero or not draw(st.booleans()) else Element(v.tag, Fraction(v.exp), v.fiber)
            rows[j][i] = twin
    return SymmetricBilinearForm(sf, rows)


@settings(max_examples=200, deadline=None)
@given(_grams())
def test_gram_encoding_is_the_per_entry_encoding_property(b):
    assert bilinear_to_json(b)["gram"] == [[format_element(v) for v in row] for row in b.gram]


def test_table_roundtrip_and_display():
    rng = random.Random(3)
    for sf in kind_semifields():
        for _ in range(15):
            q = random_form(rng, sf, 3)
            table = companion_table(q)
            assert table_from_json(table_to_json(table)) == table
    q = QuadraticForm(INT, (t(2), t(4)), {(0, 1): t(3)})
    table = companion_table(q)
    assert cell_display(table.cell(0, 1)) == "[0, g:3]"
    payload = table_to_json(table)
    assert payload["cells"][0][1]["display"] == "[0, g:3]"


# doubled bounds and exponents of each group: negative odd ones, 0, and denominators 2 and 3^k
_CELL_EXPONENTS = {
    GroupKind.INT: [0, 1, -1, 6, -7, -13, 40],
    GroupKind.RAT: [0, -5, 8, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6), Fraction(-7, 3)],
    GroupKind.RAT3: [0, 3, -9, Fraction(1, 3), Fraction(-5, 3), Fraction(2, 9), Fraction(-7, 27), Fraction(4, 81)],
}


@pytest.mark.parametrize("group", list(_CELL_EXPONENTS))
def test_cell_text_is_read_off_the_integers(group):
    """Each cell kind's display and field, against a lower interval's edge computed as a Fraction."""
    sf = Semifield(group, 1)
    for x in _CELL_EXPONENTS[group]:
        edge = Fraction(x) / 2
        expected = [
            (NuLeqDoubled(x), {"display": f"[0, g:{edge}]", "kind": "nu_leq", "bound2": str(x)}),
            (NuLtDoubled(x), {"display": f"[0, g:{edge}[", "kind": "nu_lt", "bound2": str(x)}),
            (NuClass(x), {"display": f"nu-class({x})", "kind": "nu_class", "exp": str(x)}),
        ]
        for a in (ZERO, sf.tangible(x, (-1,)), sf.ghost(x)):
            text = format_element(a)
            expected.append((Singleton(a), {"display": "{" + text + "}", "kind": "singleton", "value": text}))
        for cell, value in expected:
            assert cell_to_json(cell) == value and cell_display(cell) == value["display"]


def test_writing_a_table_builds_no_fraction(monkeypatch):
    """The 64 x 64 seed-0 ``rat`` table's text is read off its cells' integers."""
    table = companion_table(random_form(random.Random(0), Semifield(GroupKind.RAT, 1), 64))
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    serialize.dumps(table)
    assert built == []
    assert any(isinstance(getattr(cell, "bound2", None), Fraction) for row in table.cells for cell in row)
    # the count sees the Fraction that halving a doubled bound as a Fraction builds
    Fraction(1, 3) / 2
    assert built != []


def test_ratform_roundtrip():
    rng = random.Random(4)
    for _ in range(25):
        q = random_ratform(rng, rng.randint(1, 3))
        assert ratform_from_json(ratform_to_json(q)) == q


def test_schema_error_paths():
    with pytest.raises(SchemaError) as exc:
        form_from_json({"semifield": {"group": "int"}, "n": 2, "diag": ["t:1", "wat"]})
    assert exc.value.path == "$.diag[2]"

    with pytest.raises(SchemaError) as exc:
        form_from_json({"semifield": {"group": "nope"}, "n": 1, "diag": ["0"]})
    assert exc.value.path == "$.semifield.group"

    with pytest.raises(SchemaError) as exc:
        form_from_json({"semifield": {"group": "int"}, "n": 2, "diag": ["t:1", "t:2"], "upper": {"2,1": "t:0"}})
    assert "upper" in exc.value.path

    with pytest.raises(SchemaError) as exc:
        form_from_json({"semifield": {"group": "int"}, "n": 2, "diag": ["t:1"]})
    assert exc.value.path == "$.diag"

    with pytest.raises(SchemaError) as exc:
        ratform_from_json({"n": 1, "coeffs": {"1,1": "1.5"}})
    assert exc.value.path == "$.coeffs.1,1"

    with pytest.raises(SchemaError) as exc:
        matrix_from_json({"semifield": {"group": "int"}, "rows": [["t:1"], ["t:2", "t:3"]]})
    assert exc.value.path.startswith("$")


def test_fractional_exponents_roundtrip():
    sf = Semifield(GroupKind.RAT3)
    q = form_from_json(
        {
            "semifield": {"group": "rat3", "fiber_rank": 0},
            "n": 2,
            "diag": ["t:1/3", "g:-2/9"],
            "upper": {"1,2": "t:5/3"},
        }
    )
    assert form_from_json(form_to_json(q)) == q
    with pytest.raises(SchemaError):
        form_from_json(
            {"semifield": {"group": "rat3"}, "n": 1, "diag": ["t:1/2"]}
        )


# -- one parse per distinct literal -----------------------------------------------


@st.composite
def _pooled_documents(draw):
    """A semifield, a few literals (some with stray spaces) and an n x n grid of them."""
    sf = Semifield(draw(st.sampled_from(list(GroupKind))), draw(st.sampled_from((0, 1))))
    pool = [format_element(e) for e in draw(st.lists(element_strategy(sf), min_size=1, max_size=4))]
    pool += [f" {text} " for text in pool[:1]]
    n = draw(st.integers(1, 5))
    grid = [[draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(n)]
    return sf, grid


@settings(max_examples=150, deadline=None)
@given(_pooled_documents())
def test_memo_changes_no_parsed_object_property(data):
    """Every reader gives what a literal-by-literal parse gives."""
    sf, grid = data
    parse = sf.parse_element
    n = len(grid)
    sf_json = semifield_to_json(sf)

    upper = {f"{i + 1},{j + 1}": grid[i][j] for i in range(n) for j in range(i + 1, n)}
    form = form_from_json({"semifield": sf_json, "n": n, "diag": [row[0] for row in grid], "upper": upper})
    expected_upper = {(i, j): parse(grid[i][j]) for i in range(n) for j in range(i + 1, n)}
    assert form == QuadraticForm(sf, tuple(parse(row[0]) for row in grid), expected_upper)

    rows = matrix_from_json({"semifield": sf_json, "rows": grid})
    assert rows == GeneralMatrix(sf, tuple(tuple(parse(v) for v in row) for row in grid))

    coords = grid[0]
    expected = tuple(parse(v) for v in coords)
    assert vector_from_json(sf, {"coords": coords}) == expected
    assert vector_from_text(sf, ",".join(coords)) == expected

    cells = [[{"kind": "singleton", "value": v} for v in row] for row in grid]
    table = table_from_json({"semifield": sf_json, "cells": cells})
    assert table == CompanionTable(sf, tuple(tuple(Singleton(parse(v)) for v in row) for row in grid))


@pytest.mark.parametrize(
    "read, doc, path",
    [
        (form_from_json, {"semifield": {"group": "int"}, "n": 3, "diag": ["g:1/2", "t:1", "g:1/2"]}, "$.diag[1]"),
        (matrix_from_json, {"semifield": {"group": "int"}, "rows": [["g:1/2"] * 2] * 2}, "$.rows[1][1]"),
        (
            form_from_json,
            {"semifield": {"group": "int"}, "n": 3, "diag": ["0"] * 3, "upper": {"1,2": "g:1/2", "2,3": "g:1/2"}},
            "$.upper.1,2",
        ),
    ],
)
def test_repeated_bad_literal_fails_at_its_first_path(read, doc, path):
    with pytest.raises(ValueError) as direct:
        INT.parse_element("g:1/2")
    with pytest.raises(SchemaError) as exc:
        read(doc)
    assert (exc.value.path, exc.value.reason) == (path, str(direct.value))


_FORM = {"semifield": {"group": "int"}, "n": 2, "diag": ["t:1", "t:2"]}
_TABLE = {
    "semifield": {"group": "int"},
    "cells": [
        [{"kind": "nu_leq", "bound2": "4"}, {"kind": "singleton", "value": "t:3"}],
        [{"kind": "singleton", "value": "t:3"}, {"kind": "singleton", "value": "0"}],
    ],
}


def _table_with(r, c, cell):
    cells = [list(row) for row in _TABLE["cells"]]
    cells[r][c] = cell
    return dict(_TABLE, cells=cells)


@pytest.mark.parametrize(
    "read, doc, path, reason",
    [
        (form_from_json, dict(_FORM, diag=["t:1", 5]), "$.diag[2]", "element must be an encoded string"),
        (form_from_json, dict(_FORM, upper={"1-2": "t:0"}), "$.upper.1-2", "index key must look like 'i,j'"),
        (form_from_json, dict(_FORM, upper={"a,2": "t:0"}), "$.upper.a,2", "index key must hold integers"),
        (form_from_json, dict(_FORM, upper={"1,3": "t:0"}), "$.upper.1,3", "indices out of range 1..2"),
        (form_from_json, dict(_FORM, upper={"2,1": "t:0"}), "$.upper.2,1", "upper coefficient needs i < j"),
        (form_from_json, dict(_FORM, upper={"1,2": "t:0", "01,2": "t:0"}), "$.upper.01,2", "duplicate index (1,2)"),
        (form_from_json, dict(_FORM, upper={"1,2": "t:x"}), "$.upper.1,2", "not a rational literal: 'x'"),
        (matrix_from_json, {"semifield": {"group": "int"}, "rows": [["t:1"], "x"]}, "$.rows[2]",
         "rows must be nonempty lists"),
        (matrix_from_json, {"semifield": {"group": "int"}, "rows": [["t:1", "t:1"], ["t:1", [1]]]}, "$.rows[2][2]",
         "element must be an encoded string"),
        (bilinear_from_json, {"semifield": {"group": "int"}, "gram": [["t:1", "t:1/3"], ["t:1/3", "t:1"]]},
         "$.gram[1][2]", "exponent 1/3 not in the int group"),
        (table_from_json, dict(_TABLE, cells=[_TABLE["cells"][0], _TABLE["cells"][1][:1]]), "$.cells[2]",
         "cells must be a square grid"),
        (table_from_json, _table_with(0, 1, "t:3"), "$.cells[1][2]", "cell must be an object"),
        (table_from_json, _table_with(1, 0, {"value": "t:3"}), "$.cells[2][1]", "missing key 'kind'"),
        (table_from_json, _table_with(0, 0, {"kind": "nu"}), "$.cells[1][1].kind",
         "kind must be singleton|nu_leq|nu_lt|nu_class"),
        (table_from_json, _table_with(0, 0, {"kind": "singleton"}), "$.cells[1][1]", "missing key 'value'"),
        (table_from_json, _table_with(1, 1, {"kind": "singleton", "value": "g:1/3"}), "$.cells[2][2].value",
         "exponent 1/3 not in the int group"),
        (table_from_json, _table_with(0, 1, {"kind": "nu_lt", "bound2": "x"}), "$.cells[1][2].bound2",
         "not a rational literal: 'x'"),
        (table_from_json, _table_with(0, 1, {"kind": "nu_class", "exp": "1/2"}), "$.cells[1][2].exp",
         "exponent 1/2 not in the int group"),
        (lambda doc: vector_from_json(INT, doc), {"coords": ["0", "t:1", None]}, "$.coords[3]",
         "element must be an encoded string"),
        (lambda text: vector_from_text(INT, text), "t:1, t:y", "$.vector[2]", "not a rational literal: 'y'"),
        (ratform_from_json, {"n": 2, "coeffs": {"1,2": [1]}}, "$.coeffs.1,2", "rational must be an int or 'p/q' string"),
        (ratform_from_json, {"n": 2, "coeffs": {"2,1": "1"}}, "$.coeffs.2,1", "triangular coefficient needs i <= j"),
        (table_from_json, dict(_TABLE, n=7), "$.n", "n must be 2, the number of rows of cells"),
        (table_from_json, dict(_TABLE, n="2"), "$.n", "n must be 2, the number of rows of cells"),
        (table_from_json, dict(_TABLE, n=2.0), "$.n", "n must be 2, the number of rows of cells"),
    ],
)
def test_every_cell_error_keeps_its_path_and_message(read, doc, path, reason):
    """Cell paths are built only when a cell fails; each error still names its
    cell the way it always did."""
    with pytest.raises(SchemaError) as exc:
        read(doc)
    assert (exc.value.path, exc.value.reason, str(exc.value)) == (path, reason, f"{path}: {reason}")


def _read_keys(read, doc):
    """The coefficients a reader keeps, by 0-based pair, or the error it raises."""
    try:
        obj = read(doc)
    except SchemaError as exc:
        return {"error": exc.reason, "path": exc.path}
    if isinstance(obj, QuadraticForm):
        return {(i, j): format_element(row[j]) for i, row in enumerate(obj.cross) for j in range(i + 1, obj.n)
                if not row[j].is_zero}
    return obj.coeffs


def _upper(upper):
    return {"semifield": {"group": "int"}, "n": 3, "diag": ["0"] * 3, "upper": upper}


@pytest.mark.parametrize("table", ["empty", "full"])
@pytest.mark.parametrize(
    "read, doc, answer",
    [
        (form_from_json, _upper({"1,2": "t:5"}), {(0, 1): "t:5"}),
        (form_from_json, _upper({"01,2": "t:5"}), {(0, 1): "t:5"}),
        (form_from_json, _upper({"01,2": "t:5", "1,2": "t:6"}),
         {"error": "duplicate index (1,2)", "path": "$.upper.1,2"}),
        (form_from_json, _upper({"2,2": "t:5"}), {"error": "upper coefficient needs i < j", "path": "$.upper.2,2"}),
        (form_from_json, _upper({"2,1": "t:5"}), {"error": "upper coefficient needs i < j", "path": "$.upper.2,1"}),
        (form_from_json, _upper({"3,4": "t:5"}), {"error": "indices out of range 1..3", "path": "$.upper.3,4"}),
        (ratform_from_json, {"n": 3, "coeffs": {"1,1": "2"}}, {(0, 0): 2}),
        (ratform_from_json, {"n": 100, "coeffs": {"70,80": "1/2"}}, {(69, 79): Fraction(1, 2)}),
        (ratform_from_json, {"n": 4096, "coeffs": {"1,4096": 3}}, {(0, 4095): 3}),
    ],
)
def test_every_index_key_answer(monkeypatch, table, read, doc, answer):
    """A canonical key is looked up in a table before it is parsed.  Whether the
    table is empty or holds every key of a 64 x 64 form, each key gets the
    parser's answer, and a document of n > 64 grows no table."""
    limit = serialize.DIMENSION_LIMIT
    keys = {}
    monkeypatch.setattr(serialize, "_CANONICAL_KEYS", keys)
    if table == "full":
        serialize._grow_canonical_keys(limit)
    assert _read_keys(read, doc) == answer
    width = limit if table == "full" else doc["n"] if doc["n"] <= limit else 0
    assert keys == {f"{i + 1},{j + 1}": (i, j) for j in range(width) for i in range(j + 1)}


def test_canonical_keys_are_read_without_the_general_parser(monkeypatch):
    """Every key of a seeded 64 x 64 form and of a 64 x 64 rational form is
    canonical, so each is looked up inline and ``_index_pair`` is never called;
    an alias appended last goes through it once and keeps its answer, a
    duplicate refused at the alias's own path."""
    rng = random.Random(31)
    form_doc = form_to_json(random_form(rng, Semifield(GroupKind.RAT3, 1), 64))
    form_doc["upper"].setdefault("1,2", "t:0:+")
    rat_doc = ratform_to_json(random_ratform(rng, 64))
    rat_doc["coeffs"].setdefault("1,2", "1/2")
    index_pair = serialize._index_pair
    keys = []

    def refuse(key, *args, **kwargs):
        raise AssertionError(f"the general parser was asked for the canonical key {key!r}")

    def counting(key, *args, **kwargs):
        keys.append(key)
        return index_pair(key, *args, **kwargs)

    cases = [
        (form_from_json, form_from_json_reference, form_doc, "upper"),
        (ratform_from_json, ratform_from_json_reference, rat_doc, "coeffs"),
    ]
    for read, reference, doc, field in cases:
        monkeypatch.setattr(serialize, "_index_pair", refuse)
        assert read(doc) == reference(doc)
        monkeypatch.setattr(serialize, "_index_pair", counting)
        aliased = {**doc, field: {**doc[field], "01,2": doc[field]["1,2"]}}
        with pytest.raises(SchemaError) as exc:
            read(aliased)
        assert (exc.value.path, exc.value.reason) == (f"$.{field}.01,2", "duplicate index (1,2)")
    assert keys == ["01,2", "01,2"]


def test_spaced_and_bare_literals_are_equal():
    diag = form_from_json({"semifield": {"group": "int"}, "n": 2, "diag": [" t:1", "t:1"]}).diag
    assert diag == (t(1), t(1))
    assert vector_from_text(INT, " t:1,t:1") == (t(1), t(1))


def test_each_distinct_literal_is_parsed_once_per_document(monkeypatch):
    parsed = []
    parse = Semifield.parse_element

    def counting(sf, text):
        parsed.append(text)
        return parse(sf, text)

    monkeypatch.setattr(Semifield, "parse_element", counting)
    rows = [["0" if (r + c) % 3 else "t:0" for c in range(64)] for r in range(64)]
    doc = {"semifield": {"group": "int"}, "rows": rows}
    first = matrix_from_json(doc)
    assert sorted(parsed) == ["0", "t:0"]
    # the memo lives for one document: an identical second one is parsed afresh
    assert matrix_from_json(doc) == first
    assert sorted(parsed) == ["0", "0", "t:0", "t:0"]


def test_a_repeated_bad_cell_fails_at_its_first_path():
    bad = {"kind": "nu_lt", "bound2": "1/2"}
    doc = dict(_TABLE, cells=[[_TABLE["cells"][0][0], bad], [bad, bad]])
    with pytest.raises(SchemaError) as exc:
        table_from_json(doc)
    assert (exc.value.path, exc.value.reason) == ("$.cells[1][2].bound2", "exponent 1/2 not in the int group")


def test_each_distinct_cell_is_read_once_per_document(monkeypatch):
    """Cells whose kind and member are the same strings are read once; a
    member given as a JSON int, or an extra key, changes nothing read."""
    read = []
    cell_from_json = serialize.cell_from_json

    def counting(sf, read_element, obj, path, *args):
        read.append(obj)
        return cell_from_json(sf, read_element, obj, path, *args)

    monkeypatch.setattr(serialize, "cell_from_json", counting)
    kinds = [
        {"kind": "nu_leq", "bound2": "4"},
        {"kind": "nu_leq", "bound2": "4", "display": "[0, g:2]"},
        {"kind": "singleton", "value": "t:3"},
        {"kind": "nu_lt", "bound2": 4},
    ]
    cells = [[kinds[(r * 3 + c) % 4] for c in range(16)] for r in range(16)]
    doc = {"semifield": {"group": "int"}, "cells": cells}
    table = table_from_json(doc)
    # the two nu_leq encodings share a key; each int member is read on its own
    assert sum(1 for obj in read if obj["kind"] != "nu_lt") == 2
    assert sum(1 for obj in read if obj["kind"] == "nu_lt") == sum(row.count(kinds[3]) for row in cells)
    assert table.cells == tuple(
        tuple(cell_from_json(INT, serialize._element_reader(INT), obj, "$") for obj in row) for row in cells
    )
    read.clear()
    assert table_from_json(doc) == table
    assert len([obj for obj in read if obj["kind"] != "nu_lt"]) == 2  # the memo lives for one document


def _cell_pool(sf: Semifield) -> list:
    """Cells that are equal or differ only in what a key might drop: the
    class (NuLeqDoubled(b) beside NuLtDoubled(b)), a singleton's fiber, and
    the type of an exponent of one value (1 == True, 4 == Fraction(4, 1)).
    Floats print apart from equal ints (4.0, and -0.0 == 0.0); a float is
    no group's exponent, and only a nu-class can still display one."""
    pool = [Singleton(ZERO), NuClass(4.0), NuClass(0.0), NuClass(-0.0)]
    for b in (0, 1, -3, 4, Fraction(4, 1), Fraction(1, 3), Fraction(-5, 9), True):
        pool.extend((NuLeqDoubled(b), NuLtDoubled(b), NuClass(b)))
    for e in (0, 2, Fraction(2, 3)):
        pool.append(Singleton(Element("ghost", e)))
        pool.extend(Singleton(Element("tangible", e, f)) for f in itertools.product((1, -1), repeat=sf.fiber_rank))
    # an Element built directly, not through Semifield.element, may hold a list fiber
    pool.append(Singleton(Element("tangible", 2, [-1] * sf.fiber_rank)))
    return pool


def test_table_encoding_is_the_per_cell_encoding():
    rng = random.Random(12)
    for sf in kind_semifields(1) + kind_semifields(2):
        pool = _cell_pool(sf)
        for n in (1, 2, 5, 12):
            for _ in range(4):
                upper = {(i, j): rng.choice(pool) for i in range(n) for j in range(i, n)}
                for symmetric in (True, False):
                    cells = tuple(
                        tuple(upper[min(i, j), max(i, j)] if symmetric else rng.choice(pool) for j in range(n))
                        for i in range(n)
                    )
                    table = CompanionTable(sf, cells)
                    assert table_to_json(table)["cells"] == [[cell_to_json(c) for c in row] for row in table.cells]
    # companion tables of random forms, whose cells repeat
    for sf in kind_semifields(1):
        table = companion_table(random_form(rng, sf, 24))
        assert table_to_json(table)["cells"] == [[cell_to_json(c) for c in row] for row in table.cells]


def _documented_objects() -> list:
    """Forms of n 1, 3 and 11 (an ``upper`` key "1,10" sorts before "1,2"), with their balanced
    companions' Gram matrices and their companion tables."""
    rng = random.Random(13)
    forms = [random_form(rng, sf, n) for sf in (INT, Semifield(GroupKind.RAT, 1)) for n in (1, 3, 11)]
    return forms + [balanced_companion(q) for q in forms] + [companion_table(q) for q in forms]


_STRINGS = st.one_of(st.text(max_size=6), st.sampled_from(['say "q"', "back\\slash", "naïve ✓ 字", "\x00grid\x00"]))
_PLAIN = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _STRINGS),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(_STRINGS, inner, max_size=3)),
    max_leaves=8,
)
# a dict's members, at any depth, may be forms, Gram matrices or tables; a list's never are
_PAYLOADS = st.recursive(
    st.one_of(_PLAIN, st.sampled_from(_documented_objects())),
    lambda inner: st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=10,
)


def _as_values(payload):
    """The payload with each form, Gram matrix and table replaced by its JSON value."""
    if isinstance(payload, dict):
        return {k: _as_values(v) for k, v in payload.items()}
    if isinstance(payload, (QuadraticForm, SymmetricBilinearForm, CompanionTable)):
        return json.loads(serialize.dumps(payload))
    return payload


@settings(max_examples=200, deadline=None)
@given(_PAYLOADS)
@example({"note": "\x00grid\x00"})
@example({"note": "\x00grid\x00", "table": _documented_objects()[-1]})
def test_dumps_is_json_dumps_of_the_payloads_values_property(payload):
    """``dumps`` writes a payload as ``json.dumps`` writes it with each object replaced by that
    object's JSON value, whatever strings the payload holds."""
    assert serialize.dumps(payload) == json.dumps(_as_values(payload), sort_keys=True)


def test_an_object_inside_a_list_raises_jsons_type_error():
    q = QuadraticForm(INT, (t(2), t(4)), {(0, 1): t(9)})
    with pytest.raises(TypeError, match="Object of type QuadraticForm is not JSON serializable"):
        serialize.dumps({"forms": [q]})


def test_a_dict_key_that_is_not_a_string_raises_type_error():
    """``json.dumps`` would write the key 1 as "1"; no payload has such a key, and ``dumps`` refuses it."""
    with pytest.raises(TypeError):
        serialize.dumps({1: "one"})


def test_int_literals_build_no_fraction(monkeypatch):
    """An integer literal becomes an int directly: reading an int-group form
    and matrix builds no Fraction."""
    rng = random.Random(17)
    sf = Semifield(GroupKind.INT, 1)
    form_doc = form_to_json(random_form(rng, sf, 64))
    matrix_doc = matrix_to_json(random_square_matrix(rng, sf, 64))
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    q, m = form_from_json(form_doc), matrix_from_json(matrix_doc)
    assert built == []
    assert q.n == m.nrows == 64 and len(set(form_doc["diag"]) | set(form_doc["upper"].values())) > 20
    # the count sees the Fraction that a p/q literal needs
    form_from_json(dict(form_doc, semifield={"group": "rat", "fiber_rank": 1}, diag=["t:1/2:+"] * 64))
    assert built != []


# -- the readers against the readers they replaced ------------------------------------


def _arabic_indic(text: str) -> str:
    return text.translate({ord(d): chr(0x660 + int(d)) for d in "0123456789"})


# rationals as a document writes them, legal or not: signed, zero-padded,
# reducible (4/2) and Unicode-digit ones, and near misses of the grammar
_RATIONAL_TEXTS = st.one_of(
    st.integers(-12, 12).map(str),
    st.builds("{}/{}".format, st.integers(-12, 12), st.integers(1, 12)),
    st.text("0123456789+-/ _.x٣", max_size=5),
    st.sampled_from([
        "+3", "-0", "007", "-03/6", "+4/2", "4/2", "٣", "-٣/9", "١٢/3", "2/1٣",
        "1/0", "1/01", "1.5", "x", "1/2/3", "", " 1", "1 ", "½", "1_0", "0x1", "--1", "+-1", "/2", "2/",
    ]),
)


@st.composite
def _element_texts(draw):
    """Element literals, legal or not; no newline, whose verdict changed on purpose."""
    head = draw(st.sampled_from(["0", "t", "t", "g", "g", "z", " t"]))
    if head == "0":
        return draw(st.sampled_from(["0", " 0 ", "00", "0:1"]))
    fiber = draw(st.sampled_from(["", "", "", ":+", ":-", ":+-", ":--", ":+x", ":", ":x", ":+:+"]))
    return f"{head}:{draw(_RATIONAL_TEXTS)}{fiber}"


# values a JSON document may hold where an element or a rational is due
_NON_STRINGS = st.sampled_from([5, -2, 0, None, True, False, 1.5, [1], ["t:1"], {"a": 1}])


def _index_keys(n: int):
    """Index keys, in range or not, upper or not, and the aliases int() reads the same."""
    pair = st.one_of(
        st.tuples(st.integers(1, n), st.integers(1, n)).map(sorted),
        st.tuples(st.integers(0, n + 1), st.integers(0, n + 1)),
    )
    plain = pair.map(lambda ij: f"{ij[0]},{ij[1]}")
    alias = st.tuples(pair, st.sampled_from(["0{},{}", " {},{}", "{}, {}", "+{},{}", "{},0{}", "{}_0,{}"])).map(
        lambda t: t[1].format(*t[0])
    )
    return st.one_of(
        plain, plain, alias,
        plain.map(_arabic_indic),
        st.sampled_from(["1-2", "a,2", "1,2,3", "", ",", "1,", "1.0,2", "1,2 ", "١,2"]),
    )


@st.composite
def _coefficient_entries(draw, n: int, good, value, duplicate_before_bad: bool):
    """The key-value entries of a coefficient object, in document order.

    With ``duplicate_before_bad``, a legal key and then an alias of it
    holding a bad value come at a drawn place: the duplicate key, read
    before its value, is the first error there.
    """
    entries = draw(st.lists(st.tuples(_index_keys(n), value), max_size=8))
    if duplicate_before_bad and n >= 2:
        i = draw(st.integers(1, n - 1))
        j = draw(st.integers(i + 1, n))
        bad = draw(st.one_of(_NON_STRINGS, st.just("t:x")))
        at = draw(st.integers(0, len(entries)))
        entries[at:at] = [(f"{i},{j}", draw(good)), (f"0{i},{j}", bad)]
    return entries


@st.composite
def _reader_documents(draw, duplicate_before_bad: bool):
    """(reader, reference reader, document): a form, matrix, bilinear form or rational form."""
    what = draw(st.sampled_from(["form", "matrix", "bilinear", "ratform"]))
    n = draw(st.integers(1, 4))
    if what == "ratform":
        value = st.one_of(_RATIONAL_TEXTS, st.integers(-5, 5), _NON_STRINGS)
        entries = draw(_coefficient_entries(n, _RATIONAL_TEXTS.filter(str.isascii), value, duplicate_before_bad))
        doc = {"n": draw(st.sampled_from([n] * 6 + [0, True, "2"])), "coeffs": dict(entries)}
        return ratform_from_json, ratform_from_json_reference, doc
    sf = Semifield(draw(st.sampled_from(list(GroupKind))), draw(st.sampled_from((0, 1, 2))))
    good = element_strategy(sf).map(format_element)
    # a few literals per document, so that they repeat and the memo is hit
    pool = draw(st.lists(st.one_of(good, good, _element_texts(), _NON_STRINGS), min_size=1, max_size=5))
    value = st.sampled_from(pool)
    sf_json = semifield_to_json(sf)
    if what == "form":
        diag = [draw(value) for _ in range(draw(st.sampled_from([n, n, n, n + 1])))]
        entries = draw(_coefficient_entries(n, good, value, duplicate_before_bad))
        return form_from_json, form_from_json_reference, {"semifield": sf_json, "n": n, "diag": diag, "upper": dict(entries)}
    grid = [[draw(value) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):  # symmetric, as a Gram matrix must be
        grid = [[grid[min(r, c)][max(r, c)] for c in range(n)] for r in range(n)]
    if draw(st.integers(0, 5)) == 0:
        grid[draw(st.integers(0, n - 1))] = draw(st.sampled_from([[], "x", None]))
    if what == "matrix":
        return matrix_from_json, matrix_from_json_reference, {"semifield": sf_json, "rows": grid}
    return bilinear_from_json, bilinear_from_json_reference, {"semifield": sf_json, "gram": grid}


def _exponent_types(value) -> list:
    if isinstance(value, QuadraticForm):
        elements = [*value.diag, *(v for row in value.cross for v in row)]
    elif isinstance(value, GeneralMatrix):
        elements = [v for row in value.rows for v in row]
    elif isinstance(value, SymmetricBilinearForm):
        elements = [v for row in value.gram for v in row]
    else:
        return [(key, type(c)) for key, c in value.coeffs.items()]
    return [type(a.exp) for a in elements]


def _outcome(read, doc):
    """The object read with its exponent types, or the error as (path, reason, message)."""
    try:
        value = read(doc)
    except SchemaError as exc:
        return "error", exc.path, exc.reason, str(exc)
    return "read", value, _exponent_types(value)


@pytest.mark.parametrize("duplicate_before_bad", [False, True])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_readers_agree_with_the_reference_readers_property(duplicate_before_bad, data):
    """Every reader returns the object, with the exponent types, that the
    reader it replaced returns, or fails at the same path with the same
    reason; the reference keeps the former code in ``tests/gen.py``."""
    read, reference, doc = data.draw(_reader_documents(duplicate_before_bad))
    assert _outcome(read, doc) == _outcome(reference, doc)
