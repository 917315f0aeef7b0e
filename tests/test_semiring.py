"""Semifield arithmetic: frozen examples, axiom grids, and the minimal order."""

import copy
import itertools
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropquad import (
    ZERO,
    Element,
    GroupKind,
    PreconditionError,
    QuadraticForm,
    Semifield,
    leq_minimal,
)
from tropquad.semiring import parse_rational

from gen import (
    ALL_KINDS,
    element_grid,
    fraction_between,
    fraction_legal,
    kind_semifields,
    parse_rational_reference,
    random_element,
)

INT = Semifield(GroupKind.INT)
RAT = Semifield(GroupKind.RAT)
RAT3 = Semifield(GroupKind.RAT3)
INT1 = Semifield(GroupKind.INT, 1)

t = INT.tangible
g = INT.ghost


# -- addition and multiplication ------------------------------------------------


def test_addition_examples():
    assert t(3) + t(5) == t(5)
    assert t(3) + t(3) == g(3)
    assert t(3) + ZERO == t(3)
    assert ZERO + g(-2) == g(-2)
    assert g(4) + t(4) == g(4)
    assert t(5) + g(3) == t(5)


def test_multiplication_examples():
    assert t(2) * g(3) == g(5)
    assert g(1) * g(1) == g(2)
    assert t(2) * ZERO == ZERO
    k = (-1,)
    assert INT1.tangible(2, k) * INT1.tangible(-2, k) == INT1.one
    assert INT1.tangible(1, (1,)) * INT1.tangible(2, (-1,)) == INT1.tangible(3, (-1,))


def test_rank0_products_keep_the_empty_fiber():
    """Products of two rank-0 tangibles, and of a tangible and a ghost:
    the summed exponent, of its own type, the tag and the () fiber."""
    for sf in kind_semifields(0):
        for x, y in itertools.product((-3, 0, 2, Fraction(1, 3), Fraction(-7, 9)), repeat=2):
            if not (sf.legal_exponent(Fraction(x)) and sf.legal_exponent(Fraction(y))):
                continue
            product = sf.tangible(x) * sf.tangible(y)
            assert (product.tag, product.exp, product.fiber) == ("tangible", x + y, ())
            assert type(product.exp) is type(x + y) and type(product.fiber) is tuple
            for mixed in (sf.tangible(x) * sf.ghost(y), sf.ghost(y) * sf.tangible(x)):
                assert (mixed.tag, mixed.exp, mixed.fiber) == ("ghost", x + y, ())


def test_products_of_mismatched_fiber_ranks_raise():
    rank0, rank1 = Element("tangible", 1, ()), Element("tangible", 2, (-1,))
    with pytest.raises(ValueError):
        rank0 * rank1
    with pytest.raises(ValueError):
        rank1 * rank0


def test_inverse_requires_tangible():
    assert t(7).inverse() == t(-7)
    with pytest.raises(PreconditionError):
        g(7).inverse()
    with pytest.raises(PreconditionError):
        ZERO.inverse()


def test_nu_map():
    assert t(3).nu() == g(3)
    assert g(3).nu() == g(3)
    assert ZERO.nu() == ZERO
    assert INT1.tangible(2, (-1,)).nu() == g(2)


@pytest.mark.parametrize("sf", kind_semifields() + kind_semifields(1))
def test_semiring_axioms_exhaustive(sf):
    grid = element_grid(sf, range(-2, 3))
    for a, b in itertools.product(grid, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.product(grid, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("sf", kind_semifields() + kind_semifields(1))
def test_double_frobenius_and_projection(sf):
    grid = element_grid(sf)
    e = sf.e
    for a in grid:
        assert a + a == a.nu()
        assert a.nu() == e * a
        assert a.nu().nu() == a.nu()
    for a, b in itertools.product(grid, repeat=2):
        assert (a + b) * (a + b) == a * a + b * b
        assert (a + b).nu() == a.nu() + b.nu()
        assert (a * b).nu() == a.nu() * b.nu()


def test_zero_sum_free():
    for sf in kind_semifields(1):
        for a, b in itertools.product(element_grid(sf, range(-2, 3)), repeat=2):
            if a + b == ZERO:
                assert a == ZERO and b == ZERO


# -- the minimal order -----------------------------------------------------------


def bounded_witness_search(sf, x, y):
    """Search for z with x + z = y over a grid covering all sum behaviors.

    A witness acts through its exponent region relative to x and y only, so
    a grid containing the exponents of x and y, legal points between and
    beyond them, and every fiber is exhaustive in behavior.
    """
    exps = {e for v in (x, y) if not v.is_zero for e in (v.exp,)}
    for e in sorted(exps):
        exps = exps | {e - 1, e + 1}
    lo = min(exps, default=0)
    hi = max(exps, default=0)
    mid = sf.between(lo, hi)
    if mid is not None:
        exps.add(mid)
    candidates = [ZERO]
    fibers = list(itertools.product((1, -1), repeat=sf.fiber_rank))
    for e in exps:
        candidates.append(sf.ghost(e))
        candidates.extend(sf.tangible(e, f) for f in fibers)
    return any(x + z == y for z in candidates)


@pytest.mark.parametrize("sf", [INT, RAT3, INT1])
def test_leq_minimal_matches_witness_search(sf):
    grid = element_grid(sf, range(-2, 3))
    for x, y in itertools.product(grid, repeat=2):
        assert leq_minimal(x, y) == bounded_witness_search(sf, x, y), (x, y)


def test_leq_examples():
    assert leq_minimal(t(3), g(3))
    assert not leq_minimal(g(3), t(3))
    assert leq_minimal(g(3), g(3))
    assert leq_minimal(ZERO, t(-9))
    assert leq_minimal(t(0), t(1))
    assert not leq_minimal(t(1), t(0))


@pytest.mark.parametrize("sf", [INT, INT1])
def test_order_axioms_and_compatibility(sf):
    grid = element_grid(sf, range(-2, 3))
    for x in grid:
        assert leq_minimal(x, x)
    for x, y in itertools.product(grid, repeat=2):
        if leq_minimal(x, y) and leq_minimal(y, x):
            assert x == y
    # compatibility with + and * plus 0 <= 1
    assert leq_minimal(ZERO, sf.one)
    small = element_grid(sf, range(-1, 2))
    for x, y in itertools.product(small, repeat=2):
        if not leq_minimal(x, y):
            continue
        for z in small:
            assert leq_minimal(x + z, y + z)
            assert leq_minimal(x * z, y * z)
    for x, y, z in itertools.product(small, repeat=3):
        if leq_minimal(x, y) and leq_minimal(y, z):
            assert leq_minimal(x, z)


def test_order_restricted_to_ghosts_is_bipotent_order():
    ghosts = [ZERO] + [g(e) for e in range(-4, 5)]
    for x, y in itertools.product(ghosts, repeat=2):
        assert x + y in (x, y)  # ghosts are bipotent
        assert leq_minimal(x, y) == (x + y == y)


def test_sum_is_upper_bound():
    for sf in kind_semifields(1):
        grid = element_grid(sf, range(-2, 3))
        for x, y in itertools.product(grid, repeat=2):
            assert leq_minimal(x, x + y)


# -- squares ------------------------------------------------------------------------


def test_is_nu_square():
    """A nonzero element is nu-equivalent to a square iff half its exponent is legal: ``halvable``."""
    assert INT.halvable(t(4).exp)
    assert not INT.halvable(g(3).exp)
    rng = random.Random(5)
    for _ in range(50):
        a = random_element(rng, RAT, zero_p=0.0)
        assert RAT.halvable(a.exp)
    assert RAT3.halvable(RAT3.tangible(Fraction(2, 3)).exp)
    assert not RAT3.halvable(RAT3.tangible(Fraction(1, 3)).exp)


def unit_square_search(sf, x, y, exponents=range(-4, 5)):
    """Is y = x * z^2 for some tangible z on the grid?"""
    fibers = list(itertools.product((1, -1), repeat=sf.fiber_rank))
    for e in exponents:
        for f in fibers:
            z = sf.tangible(e, f)
            if x * z * z == y:
                return True
    return False


@pytest.mark.parametrize("sf", [INT1, RAT3])
def test_square_class_matches_unit_square_search(sf):
    grid = [v for v in element_grid(sf, range(-3, 4)) if not v.is_zero]
    for x, y in itertools.product(grid, repeat=2):
        same = sf.square_class(x) == sf.square_class(y)
        assert same == unit_square_search(sf, x, y), (x, y)


def test_square_class_examples():
    minus = (-1,)
    assert INT1.square_class(INT1.tangible(0, minus)) == INT1.square_class(INT1.tangible(2, minus))
    assert INT1.square_class(INT1.tangible(0, (1,))) != INT1.square_class(INT1.tangible(1, (1,)))
    assert INT.square_class(g(0)) != INT.square_class(t(0))
    assert RAT.square_class(RAT.tangible(Fraction(1, 2))) == RAT.square_class(RAT.tangible(7))
    with pytest.raises(PreconditionError):
        INT.square_class(ZERO)


def test_prime_and_its_root():
    pi = INT.prime()
    assert pi == t(-1)
    # the ghost of the prime is the largest ghost below e
    assert leq_minimal(pi.nu(), INT.e)
    assert INT.between(pi.exp, 0) is None
    with pytest.raises(PreconditionError):
        RAT.prime()


# -- the group rules on scaled integers ----------------------------------------------


# denominators with and without factors of 2 and 3, so some scales clear a pick and some do not
DENOMINATORS = st.one_of(st.integers(1, 60), st.integers(0, 8).map(lambda k: 3**k))
RATIONALS = st.builds(Fraction, st.integers(-10**4, 10**4), DENOMINATORS)
# far apart, or close enough that rat3 refines its step
INTERVALS = RATIONALS.flatmap(lambda lo: st.tuples(
    st.just(lo), st.one_of(RATIONALS, st.builds(Fraction, st.integers(-3, 3), DENOMINATORS).map(lo.__add__))
))


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(ALL_KINDS), INTERVALS, st.integers(1, 60))
def test_integer_between_agrees_with_fraction_reference_property(kind, interval, factor):
    """At a scale S that makes lo and hi integers, the group's integer between
    rule is S times the reference pick when S clears it, raises when it does
    not, and is None when there is no pick; the rational form returns the pick itself."""
    sf = Semifield(kind)
    between = sf.scaled_rules[1]
    lo, hi = interval
    pick = fraction_between(sf, lo, hi)
    assert sf.between(lo, hi) == pick
    assert type(sf.between(lo, hi)) is type(pick)
    scale = factor * math.lcm(lo.denominator, hi.denominator)
    scaled = int(lo * scale), int(hi * scale)
    if pick is None:
        assert between(*scaled, scale) is None
    elif (pick * scale).denominator == 1:
        assert between(*scaled, scale) == pick * scale
    else:
        with pytest.raises(ValueError):
            between(*scaled, scale)


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(ALL_KINDS), st.integers(-10**4, 10**4), st.integers(1, 3**8 * 60))
def test_integer_legality_agrees_with_fraction_reference_property(kind, x, scale):
    sf = Semifield(kind)
    assert sf.scaled_rules[0](x, scale) == fraction_legal(sf, Fraction(x, scale))
    assert sf.legal_exponent(Fraction(x, scale)) == fraction_legal(sf, Fraction(x, scale))


def test_integer_between_refuses_a_scale_that_does_not_clear():
    # the picks between 0 and 1: 1/2 in rat, 1/3 in rat3, none in int
    for sf, scale in ((RAT, 2), (RAT3, 3)):
        between = sf.scaled_rules[1]
        with pytest.raises(ValueError):
            between(0, 1, 1)
        assert between(0, scale, scale) == 1
    assert INT.scaled_rules[1](0, 1, 1) is None


def test_group_kinds_hash_by_identity_and_stay_singletons():
    """A group is hashed by identity: it still keys a dict, copies and pickles
    give back the same member, and equal semifields hash equal."""
    rules = {kind: kind.value for kind in GroupKind}
    for kind in GroupKind:
        assert copy.copy(kind) is copy.deepcopy(kind) is pickle.loads(pickle.dumps(kind)) is kind
        assert rules[GroupKind(kind.value)] == kind.value
        assert hash(kind) == hash(copy.deepcopy(kind))
        sf = Semifield(kind, 1)
        twin = pickle.loads(pickle.dumps(sf))
        assert twin == sf and hash(twin) == hash(sf) == hash(Semifield(kind, 1))
        assert {sf: 1}[copy.deepcopy(sf)] == 1


# -- randomized algebra laws ----------------------------------------------------------


@st.composite
def elements(draw):
    kind = draw(st.sampled_from(ALL_KINDS))
    rank = draw(st.sampled_from((0, 1)))
    sf = Semifield(kind, rank)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    n = draw(st.integers(2, 3))
    return sf, [random_element(rng, sf) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(elements())
def test_random_algebra_laws(data):
    sf, vals = data
    a, b = vals[0], vals[1]
    c = vals[2] if len(vals) > 2 else sf.one
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * (a + b) == a * a + b * b
    assert a + a == a.nu()
    assert a * sf.one == a
    assert a + ZERO == a
    assert a * ZERO == ZERO


def test_element_text_roundtrip():
    rng = random.Random(11)
    for sf in kind_semifields() + kind_semifields(2):
        for _ in range(100):
            a = random_element(rng, sf)
            assert sf.parse_element(repr(a)) == a


def test_parse_rejects_garbage():
    for bad in ("t", "t:1.5", "x:3", "t:1:+0", "g:1:+", "t:3:++"):
        with pytest.raises(ValueError):
            INT1.parse_element(bad)


def _parsed(parse, text):
    """The value parse gives with its type, or its ValueError's message."""
    try:
        value = parse(text)
    except ValueError as exc:
        return "refused", str(exc)
    return value, type(value)


# digits (ASCII and others), signs, slashes and near misses; no newline, whose verdict changed
@settings(max_examples=500, deadline=None)
@given(st.text("0123456789+-/ _.xe٣١½\t", max_size=7))
def test_parse_rational_agrees_with_the_reference_property(text):
    """An integer literal becomes an int without a Fraction, a p/q literal a
    reduced Fraction or an int; the value, its type and every refusal are
    what the former Fraction(text) parse gave (``tests/gen.py``)."""
    assert _parsed(parse_rational, text) == _parsed(parse_rational_reference, text)


@pytest.mark.parametrize("text", ["1\n", "1/2\n", "-3\n", "\n1", "1\n/2", " 1", "1 "])
def test_parse_rational_refuses_a_newline_or_space(text):
    """The grammar is matched whole: a final newline, which a "$" anchor lets through, is refused too."""
    with pytest.raises(ValueError) as info:
        parse_rational(text)
    assert str(info.value) == f"not a rational literal: {text!r}"


def test_element_validation_rejects_malformed():
    from tropquad import Element

    with pytest.raises(ValueError):
        INT.element(Element("ghost", 1, (1,)))
    with pytest.raises(ValueError):
        INT.element(Element("zero", 0))
    with pytest.raises(ValueError):
        INT1.element(Element("tangible", 1, (2,)))


# (semifield, element) -> the exact ValueError message; pinned from the
# validation before int exponents and rank-0/1 fibers took a fast screen
ELEMENT_ERRORS = [
    (INT, ("tangible", 2.0, ()), "exponent 2.0 not in the int group"),
    (RAT, ("ghost", 2.0, ()), "exponent 2.0 not in the rat group"),
    (INT, ("tangible", Fraction(1, 2), ()), "exponent 1/2 not in the int group"),
    (RAT3, ("ghost", Fraction(1, 2), ()), "exponent 1/2 not in the rat3 group"),
    (INT1, ("tangible", Fraction(1, 2), (5,)), "exponent 1/2 not in the int group"),
    (INT1, ("tangible", 1, (1, 1)), "bad fiber (1, 1) for rank 1"),
    (INT1, ("tangible", 1, ()), "bad fiber () for rank 1"),
    (INT, ("tangible", 1, (1,)), "bad fiber (1,) for rank 0"),
    (INT1, ("tangible", 1, [2]), "bad fiber (2,) for rank 1"),
    (INT1, ("tangible", 1, (0,)), "bad fiber (0,) for rank 1"),
    (INT1, ("tangible", -3, (2,)), "bad fiber (2,) for rank 1"),
    (Semifield(GroupKind.RAT, 2), ("tangible", 1, (1, 2)), "bad fiber (1, 2) for rank 2"),
    (INT1, ("ghost", 1, (1,)), "ghosts carry no fiber"),
    (INT, ("zero", 0, ()), "zero carries no exponent or fiber"),
    (INT1, ("zero", None, (1,)), "zero carries no exponent or fiber"),
]


def _factory_calls(sf, tag, exp, fiber) -> dict:
    """The calls of tangible, ghost and parse_element that build the pinned element, where one can."""
    calls = {}
    if tag == "tangible":
        calls["tangible"] = lambda: sf.tangible(exp, fiber)
    if tag == "ghost" and not fiber:
        calls["ghost"] = lambda: sf.ghost(exp)
    says_fiber = (tag == "tangible" and (fiber or sf.fiber_rank == 0)) or (tag == "ghost" and not fiber)
    if says_fiber and not isinstance(exp, float) and set(fiber) <= {1, -1}:
        signs = "".join("+" if s > 0 else "-" for s in fiber)
        calls["parse_element"] = lambda: sf.parse_element(f"{tag[0]}:{exp}" + (f":{signs}" if signs else ""))
    return calls


def test_every_factory_meets_pinned_cases():
    names = [name for sf, fields, _ in ELEMENT_ERRORS for name in _factory_calls(sf, *fields)]
    assert {name: names.count(name) for name in names} == {"tangible": 10, "ghost": 2, "parse_element": 4}


@pytest.mark.parametrize("sf, fields, message", ELEMENT_ERRORS)
def test_element_validation_errors_keep_their_messages(sf, fields, message):
    """Semifield.element, and the factories that validate through it."""
    from tropquad import Element

    for build in [lambda: sf.element(Element(*fields)), *_factory_calls(sf, *fields).values()]:
        with pytest.raises(ValueError) as info:
            build()
        assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("sf", [INT, RAT, RAT3])
@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_exponent_is_refused(sf, flag):
    """bool is an int, but ``t:True`` is no rational literal, so a form holding
    it would not read back: the factories, ``element`` and a form refuse it."""
    from tropquad import QuadraticForm

    for build in (
        lambda: sf.tangible(flag),
        lambda: sf.ghost(flag),
        lambda: sf.element(Element("tangible", flag)),
        lambda: QuadraticForm(sf, (sf.tangible(0), Element("tangible", flag))),
    ):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == f"exponent {flag} not in the {sf.group.value} group"


class _Ratio(Fraction):
    """A Fraction subclass: ``Semifield.element`` validates it like any exponent of another class."""


@pytest.mark.parametrize("sf, exp, message", [
    (INT, Fraction(1, 2), "exponent 1/2 not in the int group"),
    (RAT3, Fraction(1, 2), "exponent 1/2 not in the rat3 group"),
    (RAT3, Fraction(5, 6), "exponent 5/6 not in the rat3 group"),
    (RAT3, 2.0, "exponent 2.0 not in the rat3 group"),
    (INT, _Ratio(1, 2), "exponent 1/2 not in the int group"),
    (RAT3, _Ratio(1, 4), "exponent 1/4 not in the rat3 group"),
])
def test_exponent_fast_paths_keep_their_refusals(sf, exp, message):
    """An int and an exact Fraction of legal denominator skip ``check_exponent``;
    every other exponent, tangible or ghost, is refused as before (a bool's
    refusal is pinned by ``test_a_bool_exponent_is_refused``)."""
    for tag in ("tangible", "ghost"):
        with pytest.raises(ValueError) as info:
            sf.element(Element(tag, exp))
        assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: INT.tangible("1"), "exponent 1 not in the int group"),
    (lambda: RAT.tangible(None), "exponent None not in the rat group"),
    (lambda: RAT3.ghost(Decimal(1)), "exponent 1 not in the rat3 group"),
    (lambda: INT.element(Element("tangible", None)), "exponent None not in the int group"),
    (lambda: INT.element(3), "not an element: 3"),
    (lambda: INT.element("t:1"), "not an element: 't:1'"),
    (lambda: QuadraticForm(INT, (1, 2)), "not an element: 1"),
], ids=["text", "none", "decimal", "exponentless-tangible", "int", "literal", "form"])
def test_a_value_that_is_not_an_element_or_a_number_is_refused(build, message):
    """README's library contract: such a value raises ValueError, not the AttributeError of a missing field."""
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("sf", [INT, RAT, RAT3])
def test_only_an_int_or_a_fraction_is_a_legal_exponent(sf):
    for x in ("1", None, Decimal(1), 1.0, True, 1j):
        assert sf.legal_exponent(x) is False
    for x in (0, -7, Fraction(3, 1), _Ratio(6, 3)):
        assert sf.legal_exponent(x) is True


def test_legal_fraction_exponents_pass_unchanged():
    for sf, exp in [(RAT, Fraction(1, 2)), (RAT3, Fraction(-1, 9)), (INT, Fraction(4, 1)), (RAT3, _Ratio(2, 3))]:
        for a in (Element("tangible", exp), Element("ghost", exp)):
            assert sf.element(a) is a


def test_factories_keep_exponents_canonical():
    assert type(INT.tangible(Fraction(4, 2)).exp) is int and INT.tangible(Fraction(4, 2)).exp == 2
    assert type(RAT.ghost(Fraction(-6, 3)).exp) is int
    assert RAT3.tangible(Fraction(1, 9)).exp == Fraction(1, 9)


def test_element_validation_accepts_what_it_accepted():
    from tropquad import Element

    # entries equal to the signs pass, as check_fiber's `in (1, -1)` lets them
    for sf, a in [
        (INT, Element("tangible", 3, ())),
        (INT, Element("tangible", Fraction(4, 1), ())),
        (RAT3, Element("ghost", Fraction(-1, 9))),
        (INT1, Element("tangible", -2, (True,))),
        (INT1, Element("tangible", 0, (-1.0,))),
        (Semifield(GroupKind.RAT, 2), Element("tangible", Fraction(1, 2), (1, -1))),
    ]:
        assert sf.element(a) is a
    # a fiber given as a list comes back as the validated tuple
    checked = INT1.element(Element("tangible", 0, [1]))
    assert checked == Element("tangible", 0, (1,)) and type(checked.fiber) is tuple


def test_a_list_fiber_leaves_the_form_hashable():
    from tropquad import Element, QuadraticForm

    sf = INT1
    listed = QuadraticForm(sf, (ZERO, sf.tangible(0)), {(0, 1): Element("tangible", 1, [1])})
    tupled = QuadraticForm(sf, (ZERO, sf.tangible(0)), {(0, 1): Element("tangible", 1, (1,))})
    assert hash(listed) == hash(tupled) and listed == tupled


# -- the halving rule -----------------------------------------------------------------


def exp_parity_reference(sf, x) -> int:
    """The residue modulo the doubled group as ``square_class`` computed it
    before it read ``halvable``: 0 in ``rat``, else the numerator's parity."""
    if sf.group is GroupKind.RAT:
        return 0
    return Fraction(x).numerator % 2


HALVING_EXPONENTS = (
    -3, -2, -1, 0, 1, 2, 7, 10**15 + 1, Fraction(4, 1), Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3),
    Fraction(2, 3), Fraction(-5, 9), Fraction(4, 9), Fraction(7, 6), Fraction(10**15 + 1, 27),
)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_halvable_is_half_legal_and_gives_the_square_class_parity(kind):
    for rank in (0, 1):
        sf = Semifield(kind, rank)
        for x in HALVING_EXPONENTS:
            assert sf.halvable(x) == fraction_legal(sf, Fraction(x) / 2), (sf, x)
            if not fraction_legal(sf, x):
                continue
            for a in (sf.ghost(x), sf.tangible(x)):
                assert sf.square_class(a).parity == exp_parity_reference(sf, x), (sf, a)
