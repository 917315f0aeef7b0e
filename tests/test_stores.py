"""Coefficient stores of QuadraticForm and RationalQuadraticForm.

Lookups are symmetric and return what the constructor was given (zero when
absent); the input format does not change the value; JSON round-trips.
Dimensions run up to the QuadraticForm limit of 64.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tropquad import ZERO, GroupKind, QuadraticForm, RationalQuadraticForm, Semifield
from tropquad.forms import DIMENSION_LIMIT
from tropquad.serialize import form_from_json, form_to_json, ratform_from_json, ratform_to_json

from gen import element_strategy

DIMS = st.one_of(st.integers(1, 8), st.integers(1, DIMENSION_LIMIT), st.just(DIMENSION_LIMIT))


def _keys(n: int, strict: bool):
    """Index pairs (i, j) with i < j (strict) or i <= j, below n."""
    lo = 1 if strict else 0
    return st.integers(0, n - 1 - lo).flatmap(lambda i: st.tuples(st.just(i), st.integers(i + lo, n - 1)))


@st.composite
def forms(draw):
    sf = Semifield(draw(st.sampled_from(list(GroupKind))), draw(st.sampled_from((0, 1))))
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
    r = RationalQuadraticForm(n, tuple(coeffs.items()))
    for i in range(n):
        for j in range(i, n):
            assert r.coeff(i, j) == r.coeff(j, i) == coeffs.get((i, j), 0)


@settings(max_examples=40, deadline=None)
@given(forms(), st.data())
def test_form_value_does_not_depend_on_the_input_format(data, draw):
    sf, diag, upper = data
    triples = draw.draw(st.permutations([(i, j, v) for (i, j), v in upper.items()]))
    a = QuadraticForm(sf, diag, upper)
    b = QuadraticForm(sf, diag, triples)
    c = QuadraticForm(sf, diag, {k: v for k, v in upper.items() if not v.is_zero})
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)


@settings(max_examples=40, deadline=None)
@given(ratforms(), st.data())
def test_ratform_value_does_not_depend_on_the_input_order(data, draw):
    n, coeffs = data
    shuffled = draw.draw(st.permutations(list(coeffs.items())))
    a = RationalQuadraticForm(n, tuple(sorted(coeffs.items())))
    b = RationalQuadraticForm(n, tuple(shuffled))
    c = RationalQuadraticForm(n, tuple((k, v) for k, v in coeffs.items() if v != 0))
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
    r = RationalQuadraticForm(n, tuple(coeffs.items()))
    assert ratform_from_json(ratform_to_json(r)) == r
