"""The operand rule: an operation on two forms or matrices, or on one and a
vector, needs one semifield and one size, and says so under one label."""

from fractions import Fraction
from pathlib import Path

import pytest

import tropquad
from tropquad import (
    ZERO,
    GeneralMatrix,
    GroupKind,
    PreconditionError,
    QuadraticForm,
    RationalQuadraticForm,
    Semifield,
    add_forms,
    balanced_companion,
    change_base,
    equality_witness,
    eval_bilinear,
    eval_quadratic,
    functionally_equal,
    identity_matrix,
    is_companion,
    mat_mul,
    pointwise_leq_rigid,
)

INT = Semifield(GroupKind.INT)
RAT = Semifield(GroupKind.RAT)
LABEL = "dimension match required"


def _form(sf, n):
    return QuadraticForm(sf, (sf.one,) * n, {(0, 1): sf.tangible(1)})


def _rigid(sf, n):
    return QuadraticForm(sf, (ZERO,) * n, {(0, 1): sf.tangible(1)})


def _gram(sf, n):
    return balanced_companion(_form(sf, n))


def _matrix(sf, n):
    """n rows of two entries: the right factor's inner size is n."""
    return GeneralMatrix(sf, ((sf.one, sf.one),) * n)


# name, operation, left and right operand builders, the detail's operands
OPERATIONS = [
    ("add_forms", add_forms, _form, _form, "forms"),
    ("pointwise_leq_rigid", pointwise_leq_rigid, _rigid, _rigid, "forms"),
    ("change_base", change_base, _form, identity_matrix, "form and matrix"),
    ("mat_mul", mat_mul, _matrix, _matrix, "matrices"),
    ("functionally_equal", functionally_equal, _form, _form, "forms"),
    ("equality_witness", equality_witness, _form, _form, "forms"),
    ("is_companion", is_companion, _form, _gram, "form and Gram matrix"),
]


@pytest.mark.parametrize("sf, n", [(RAT, 2), (INT, 3)], ids=["other-semifield", "other-size"])
@pytest.mark.parametrize("name, op, left, right, what", OPERATIONS, ids=[o[0] for o in OPERATIONS])
def test_operands_share_a_semifield_and_a_size(name, op, left, right, what, sf, n):
    with pytest.raises(PreconditionError) as info:
        op(left(INT, 2), right(sf, n))
    assert info.value.precondition == LABEL
    assert str(info.value) == f"{what} live on different modules"
    op(left(INT, 2), right(INT, 2))  # the builders themselves pass the rule


ONE, Q1 = INT.one, Fraction(1)
FULL = (ONE,) * 3

VECTOR_CALLS = {
    "eval_quadratic": lambda x: eval_quadratic(_form(INT, 3), x),
    "eval_bilinear-x": lambda x: eval_bilinear(_gram(INT, 3), x, FULL),
    "eval_bilinear-y": lambda x: eval_bilinear(_gram(INT, 3), FULL, x),
    "MonomialMatrix.apply": lambda x: identity_matrix(INT, 3).apply(x),
    "RationalQuadraticForm.evaluate": lambda x: RationalQuadraticForm(3, {(0, 0): 1}).evaluate([Q1] * len(x)),
}


@pytest.mark.parametrize("name", VECTOR_CALLS)
def test_a_short_vector_is_refused_with_one_message(name):
    with pytest.raises(PreconditionError) as info:
        VECTOR_CALLS[name]((ONE, ONE))
    assert info.value.precondition == LABEL
    assert str(info.value) == "vector length 2 does not match dimension 3"
    VECTOR_CALLS[name](FULL)


# a coordinate of another semifield: an exponent outside the int group, a fiber of another rank;
# and values that are no element at all
FOREIGN = [
    (RAT.tangible(Fraction(1, 3)), "exponent 1/3 not in the int group"),
    (Semifield(GroupKind.INT, 1).tangible(1), r"bad fiber \(1,\) for rank 0"),
    (3, "not an element: 3"),
    (None, "not an element: None"),
    ("t:1", "not an element: 't:1'"),
]
SEMIFIELD_CALLS = [name for name in VECTOR_CALLS if name != "RationalQuadraticForm.evaluate"]


@pytest.mark.parametrize("coordinate, message", FOREIGN, ids=["exponent", "fiber", "int", "none", "text"])
@pytest.mark.parametrize("name", SEMIFIELD_CALLS)
def test_a_coordinate_outside_the_semifield_is_refused(name, coordinate, message):
    with pytest.raises(ValueError, match=message):
        VECTOR_CALLS[name]((ONE, coordinate, ONE))


@pytest.mark.parametrize("coordinate", [0.5, 2.0, True, False])
def test_a_rational_form_refuses_an_inexact_coordinate(coordinate):
    q = RationalQuadraticForm(2, {(0, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError, match=f"coordinate must be an exact number, not {type(coordinate).__name__}"):
        q.evaluate([Q1, coordinate])
    assert q.evaluate([Q1, 2]) == q.evaluate([Q1, Fraction(2)]) == 3


def test_a_rational_form_reads_a_coordinate_as_it_reads_a_coefficient():
    """ints, Fractions and rational strings, as the constructor takes them."""
    q = RationalQuadraticForm(2, {(0, 0): "1/2", (0, 1): 1})
    for coordinate in (2, Fraction(2), "2", "4/2"):
        assert q.evaluate([coordinate, "1/3"]) == Fraction(8, 3)


def test_the_label_is_written_in_one_module():
    src = Path(tropquad.__file__).parent
    holders = sorted(p.name for p in src.glob("*.py") if f'"{LABEL}"' in p.read_text(encoding="utf-8"))
    assert holders == ["errors.py"]
