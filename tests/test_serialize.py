"""Round trips and positioned schema errors for every JSON surface."""

import random

import pytest

from tropquad import GroupKind, QuadraticForm, Semifield, companion_table
from tropquad.serialize import (
    SchemaError,
    bilinear_from_json,
    bilinear_to_json,
    cell_display,
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
    kind_semifields,
    random_form,
    random_ratform,
    random_square_matrix,
    random_vector,
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
