"""Coefficient stores of QuadraticForm and RationalQuadraticForm, and JSON.

Lookups are symmetric and return what the constructor was given (zero when
absent); the input format does not change the value.  Every schema in
:mod:`tropquad.serialize` round-trips.  Form dimensions run up to the
QuadraticForm limit of 64.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tropquad import (
    ZERO,
    CompanionTable,
    GeneralMatrix,
    GroupKind,
    NuClass,
    NuLeqDoubled,
    NuLtDoubled,
    QuadraticForm,
    RationalQuadraticForm,
    Semifield,
    Singleton,
    SymmetricBilinearForm,
)
from tropquad.forms import DIMENSION_LIMIT
from tropquad.serialize import (
    bilinear_from_json,
    bilinear_to_json,
    form_from_json,
    form_to_json,
    matrix_from_json,
    matrix_to_json,
    ratform_from_json,
    ratform_to_json,
    table_from_json,
    table_to_json,
    vector_from_json,
    vector_to_json,
)

from gen import element_strategy, exponent_strategy

DIMS = st.one_of(st.integers(1, 8), st.integers(1, DIMENSION_LIMIT), st.just(DIMENSION_LIMIT))
SMALL = st.integers(1, 6)
SEMIFIELDS = st.builds(Semifield, st.sampled_from(list(GroupKind)), st.sampled_from((0, 1)))


def _keys(n: int, strict: bool):
    """Index pairs (i, j) with i < j (strict) or i <= j, below n."""
    lo = 1 if strict else 0
    return st.integers(0, n - 1 - lo).flatmap(lambda i: st.tuples(st.just(i), st.integers(i + lo, n - 1)))


@st.composite
def forms(draw):
    sf = draw(SEMIFIELDS)
    n = draw(DIMS)
    elems = element_strategy(sf)
    diag = draw(st.lists(elems, min_size=n, max_size=n))
    upper = draw(st.dictionaries(_keys(n, strict=True), elems, max_size=40)) if n > 1 else {}
    return sf, diag, upper


@st.composite
def ratforms(draw):
    n = draw(DIMS)
    values = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    return n, draw(st.dictionaries(_keys(n, strict=False), values, max_size=40))


@settings(max_examples=40, deadline=None)
@given(forms())
def test_beta_is_symmetric_and_returns_the_given_coefficient(data):
    sf, diag, upper = data
    q = QuadraticForm(sf, diag, upper)
    for i in range(q.n):
        for j in range(i + 1, q.n):
            assert q.beta(i, j) == q.beta(j, i) == upper.get((i, j), ZERO)


@settings(max_examples=40, deadline=None)
@given(ratforms())
def test_coeff_is_symmetric_and_returns_the_given_coefficient(data):
    n, coeffs = data
    r = RationalQuadraticForm(n, coeffs)
    for i in range(n):
        for j in range(i, n):
            assert r.coeff(i, j) == r.coeff(j, i) == coeffs.get((i, j), 0)


@settings(max_examples=40, deadline=None)
@given(forms(), st.data())
def test_form_value_does_not_depend_on_the_input_format(data, draw):
    """The value does not depend on the mapping's order or on explicit zeros."""
    sf, diag, upper = data
    shuffled = dict(draw.draw(st.permutations(list(upper.items()))))
    a = QuadraticForm(sf, diag, dict(sorted(upper.items())))
    b = QuadraticForm(sf, diag, shuffled)
    c = QuadraticForm(sf, diag, {k: v for k, v in upper.items() if not v.is_zero})
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)


@settings(max_examples=40, deadline=None)
@given(ratforms(), st.data())
def test_ratform_value_does_not_depend_on_the_input_order(data, draw):
    """The value does not depend on the mapping's order or on explicit zeros."""
    n, coeffs = data
    shuffled = dict(draw.draw(st.permutations(list(coeffs.items()))))
    a = RationalQuadraticForm(n, dict(sorted(coeffs.items())))
    b = RationalQuadraticForm(n, shuffled)
    c = RationalQuadraticForm(n, {k: v for k, v in coeffs.items() if v != 0})
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)


@settings(max_examples=40, deadline=None)
@given(forms())
def test_form_json_round_trip(data):
    q = QuadraticForm(*data)
    assert form_from_json(form_to_json(q)) == q


@settings(max_examples=40, deadline=None)
@given(ratforms())
def test_ratform_json_round_trip(data):
    n, coeffs = data
    r = RationalQuadraticForm(n, coeffs)
    assert ratform_from_json(ratform_to_json(r)) == r


@st.composite
def vectors(draw):
    sf = draw(SEMIFIELDS)
    return sf, tuple(draw(st.lists(element_strategy(sf), min_size=1, max_size=DIMENSION_LIMIT)))


@st.composite
def bilinear_forms(draw):
    sf = draw(SEMIFIELDS)
    n = draw(SMALL)
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(element_strategy(sf))
    return SymmetricBilinearForm(sf, tuple(map(tuple, rows)))


@st.composite
def matrices(draw):
    sf = draw(SEMIFIELDS)
    nrows, ncols = draw(SMALL), draw(SMALL)
    row = st.lists(element_strategy(sf), min_size=ncols, max_size=ncols).map(tuple)
    return GeneralMatrix(sf, tuple(draw(st.lists(row, min_size=nrows, max_size=nrows))))


def cells(sf: Semifield):
    """Companion cells of all four kinds; bounds and exponents lie in the group."""
    exps = exponent_strategy(sf)
    return st.one_of(
        st.builds(Singleton, element_strategy(sf)),
        st.builds(NuLeqDoubled, exps),
        st.builds(NuLtDoubled, exps),
        st.builds(NuClass, exps),
    )


@st.composite
def tables(draw):
    sf = draw(SEMIFIELDS)
    n = draw(SMALL)
    row = st.lists(cells(sf), min_size=n, max_size=n).map(tuple)
    return CompanionTable(sf, tuple(draw(st.lists(row, min_size=n, max_size=n))))


@settings(max_examples=40, deadline=None)
@given(vectors())
def test_vector_json_round_trip(data):
    sf, x = data
    assert vector_from_json(sf, vector_to_json(x)) == x


@settings(max_examples=40, deadline=None)
@given(bilinear_forms())
def test_bilinear_json_round_trip(b):
    assert bilinear_from_json(bilinear_to_json(b)) == b


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_matrix_json_round_trip(m):
    assert matrix_from_json(matrix_to_json(m)) == m


@settings(max_examples=40, deadline=None)
@given(tables())
def test_table_json_round_trip(table):
    assert table_from_json(table_to_json(table)) == table
