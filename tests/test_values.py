"""Value semantics of the package's 16 immutable classes.

Each class keeps its fields in ``__slots__`` and derives from
``semiring.Value``: equality means the same type and equal fields, a value
hashes as the tuple of its fields, assignment and deletion raise
``AttributeError``, and the repr is ``Name(field=value, ...)`` unless the
class writes its own.  The expected reprs and error messages are the ones
the frozen dataclasses these classes replace produced.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from tropquad import (
    ZERO,
    CompanionTable,
    Decomposition,
    Element,
    GeneralMatrix,
    GroupKind,
    MonomialMatrix,
    NuClass,
    NuLeqDoubled,
    NuLtDoubled,
    PreconditionError,
    QuadraticForm,
    RationalQuadraticForm,
    RigExtrema,
    Semifield,
    Singleton,
    SquareClassTag,
    SupervaluationSpec,
    SymmetricBilinearForm,
)
from tropquad.semiring import Value

INT = Semifield(GroupKind.INT)
RAT3_1 = Semifield(GroupKind.RAT3, 1)
t = INT.tangible
g = INT.ghost

# field names in declaration order, as the dataclasses declared them
FIELDS = {
    Element: ("tag", "exp", "fiber"),
    SquareClassTag: ("ghost", "parity", "fiber"),
    Semifield: ("group", "fiber_rank"),
    QuadraticForm: ("sf", "diag", "cross"),
    SymmetricBilinearForm: ("sf", "gram"),
    GeneralMatrix: ("sf", "rows"),
    MonomialMatrix: ("sf", "perm", "scales"),
    Singleton: ("value",),
    NuLeqDoubled: ("bound2",),
    NuLtDoubled: ("bound2",),
    NuClass: ("exp",),
    CompanionTable: ("sf", "cells"),
    Decomposition: ("ql", "rigid", "companion"),
    RigExtrema: ("minimum", "maximum", "no_max_cell", "table"),
    RationalQuadraticForm: ("n", "coeffs"),
    SupervaluationSpec: ("prime", "mode"),
}


def samples() -> list:
    """Two unequal values of each class, fresh on every call; the first is built by keyword."""
    q = QuadraticForm(sf=INT, diag=(t(1), ZERO), upper={(0, 1): g(2)})
    rigid = QuadraticForm(INT, (ZERO, ZERO), {(0, 1): t(0)})
    b = SymmetricBilinearForm(sf=INT, gram=((ZERO, g(2)), (g(2), ZERO)))
    table = CompanionTable(sf=INT, cells=((Singleton(t(1)), NuLeqDoubled(4)), (NuLeqDoubled(4), NuLtDoubled(3))))
    return [
        (Element(tag="tangible", exp=Fraction(1, 3), fiber=(-1,)), Element("ghost", 2)),
        (SquareClassTag(ghost=False, parity=1, fiber=(1, -1)), SquareClassTag(True, 0, None)),
        (Semifield(group=GroupKind.RAT3, fiber_rank=1), Semifield()),
        (q, QuadraticForm(INT, (t(1),))),
        (b, SymmetricBilinearForm(INT, ((t(0),),))),
        (GeneralMatrix(sf=INT, rows=((t(0), ZERO), (g(1), t(-1)))), GeneralMatrix(INT, ((ZERO,),))),
        (MonomialMatrix(sf=INT, perm=(1, 0), scales=(t(2), t(-1))), MonomialMatrix(INT, (0,), (t(0),))),
        (Singleton(value=g(3)), Singleton(ZERO)),
        (NuLeqDoubled(bound2=4), NuLeqDoubled(Fraction(1, 3))),
        (NuLtDoubled(bound2=4), NuLtDoubled(5)),
        (NuClass(exp=Fraction(1, 3)), NuClass(0)),
        (table, CompanionTable(INT, ((NuClass(0),),))),
        (Decomposition(ql=QuadraticForm(INT, (t(1), ZERO)), rigid=rigid, companion=b), Decomposition(q, q, b)),
        (RigExtrema(minimum=rigid, maximum=None, no_max_cell=(0, 1), table=table), RigExtrema(rigid, rigid, None, table)),
        (RationalQuadraticForm(n=2, coeffs={(0, 0): 1, (0, 1): Fraction(1, 2)}), RationalQuadraticForm(1)),
        (SupervaluationSpec(prime=3, mode="signed"), SupervaluationSpec(None)),
    ]


def _ids(pairs) -> list[str]:
    return [type(a).__name__ for a, _ in pairs]


PAIRS = samples()


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


def test_every_value_class_is_sampled():
    assert sorted(_ids(PAIRS)) == sorted(cls.__name__ for cls in FIELDS)


@pytest.mark.parametrize("k", range(len(PAIRS)), ids=_ids(PAIRS))
def test_equality_means_same_type_and_equal_fields(k):
    a, b = PAIRS[k]
    again, _ = samples()[k]
    assert a is not again and a == again and not a != again
    assert a != b and not a == b
    assert a != _fields(a) and _fields(a) != a
    for other, _ in PAIRS:
        if type(other) is not type(a):
            assert a != other


def test_same_fields_of_another_class_are_unequal():
    assert NuLeqDoubled(4) != NuLtDoubled(4)
    assert NuLeqDoubled(4) == NuLeqDoubled(Fraction(4))
    assert Element("ghost", 1) == Element("ghost", Fraction(1))
    assert Element("zero") != "0" and Element("zero") != ("zero", None, ())


@pytest.mark.parametrize("k", range(len(PAIRS)), ids=_ids(PAIRS))
def test_hash_is_the_hash_of_the_field_tuple(k):
    a, _ = PAIRS[k]
    again, _ = samples()[k]
    assert hash(a) == hash(again)
    if isinstance(a, RationalQuadraticForm):  # its coefficient dict is hashed as a frozenset of items
        assert hash(a) == hash((a.n, frozenset(a.coeffs.items())))
    else:
        assert hash(a) == hash(_fields(a))
    assert len({a, again}) == 1


def _value_classes() -> set:
    """Every subclass of Value that the package defines, at any depth."""
    found, todo = set(), [Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("tropquad.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def test_every_value_subclass_hashes_as_the_tuple_of_its_slots():
    """The field tuple, built with attrgetter, is a tuple for one-slot classes
    too, so a value hashes as it did when the tuple was built field by field."""
    assert _value_classes() == set(FIELDS)
    for a, b in PAIRS:
        for v in (a, b):
            slots = tuple(getattr(v, name) for name in v.__slots__)
            assert v._fields(v) == slots and type(v._fields(v)) is tuple
            if not isinstance(v, RationalQuadraticForm):  # hashes its coefficient dict as a frozenset
                assert hash(v) == hash(slots)


@pytest.mark.parametrize("k", range(len(PAIRS)), ids=_ids(PAIRS))
def test_fields_cannot_be_assigned_or_deleted(k):
    a, b = PAIRS[k]
    before = _fields(a)
    for name in FIELDS[type(a)]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert _fields(a) == before


# the inputs of these two are not their fields; samples() builds them by keyword
BY_FIELDS = [a for a, _ in PAIRS if not isinstance(a, (QuadraticForm, RationalQuadraticForm))]


@pytest.mark.parametrize("a", BY_FIELDS, ids=_ids((a, a) for a in BY_FIELDS))
def test_keyword_construction_from_the_fields(a):
    assert type(a)(**dict(zip(FIELDS[type(a)], _fields(a)))) == a


def test_defaults():
    assert Semifield() == Semifield(GroupKind.INT, 0) == Semifield(fiber_rank=0)
    assert SupervaluationSpec(2) == SupervaluationSpec(prime=2, mode="tangible")
    assert Element("zero") == ZERO == Element(tag="zero", exp=None, fiber=())
    assert Element("ghost", 3).fiber == ()
    assert QuadraticForm(INT, (t(1), t(2))).cross == ((ZERO, ZERO), (ZERO, ZERO))
    assert RationalQuadraticForm(3).coeffs == {}


@pytest.mark.parametrize("k", range(len(PAIRS)), ids=_ids(PAIRS))
def test_copy_and_pickle_keep_the_value(k):
    a, _ = PAIRS[k]
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == a and hash(twin) == hash(a)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Semifield(GroupKind.INT, -1), ValueError, "fiber_rank must be nonnegative"),
        (lambda: Semifield("int"), ValueError, "group must be a GroupKind, not 'int'"),
        (lambda: Semifield(GroupKind.INT, True), ValueError, "fiber_rank must be an int, not True"),
        (lambda: Semifield(GroupKind.INT, 1.0), ValueError, "fiber_rank must be an int, not 1.0"),
        (lambda: SupervaluationSpec(2.0), ValueError, "prime must be an exact number, not float 2.0"),
        (lambda: SupervaluationSpec(True), ValueError, "prime must be an exact number, not bool True"),
        (
            lambda: RationalQuadraticForm(1, {(0, 0): 0.1}),
            ValueError,
            "coefficient must be an exact number, not float 0.1",
        ),
        (
            lambda: RationalQuadraticForm(1, {(0, 0): True}),
            ValueError,
            "coefficient must be an exact number, not bool True",
        ),
        (
            lambda: RationalQuadraticForm(2.0, {(0, 0): 1}),
            ValueError,
            "dimension must be an exact number, not float 2.0",
        ),
        (lambda: RationalQuadraticForm(True, {}), ValueError, "dimension must be an exact number, not bool True"),
        (lambda: RationalQuadraticForm("2", {}), ValueError, "dimension must be an int, not str '2'"),
        (lambda: RationalQuadraticForm(2, {(0.0, 1): 1}), ValueError, "coefficient index (0.0, 1) must be a pair of ints"),
        (lambda: RationalQuadraticForm(2, {(0, True): 1}), ValueError, "coefficient index (0, True) must be a pair of ints"),
        (lambda: RationalQuadraticForm(2, {0: 1}), ValueError, "coefficient index 0 must be a pair of ints"),
        (lambda: RationalQuadraticForm(2, {(0, 1, 1): 1}), ValueError, "coefficient index (0, 1, 1) must be a pair of ints"),
        (
            lambda: RationalQuadraticForm(1, {(0, 0): None}),
            ValueError,
            "coefficient must be a number or a string, not NoneType None",
        ),
        (lambda: SupervaluationSpec(4), ValueError, "4 is not a prime"),
        (lambda: SupervaluationSpec(1), ValueError, "1 is not a prime"),
        (lambda: SupervaluationSpec(2, "max"), ValueError, "mode must be one of ('tangible', 'ghost', 'signed')"),
        (lambda: SymmetricBilinearForm(INT, ()), ValueError, "dimension 0 outside 1..64"),
        (lambda: SymmetricBilinearForm(INT, ((t(0), t(0)),)), ValueError, "gram matrix must be square"),
        (
            lambda: SymmetricBilinearForm(INT, ((t(0), t(1)), (g(1), t(0)))),
            ValueError,
            "gram matrix not symmetric at (0,1)",
        ),
        (lambda: SymmetricBilinearForm(RAT3_1, ((t(0),),)), ValueError, "bad fiber () for rank 1"),
        (lambda: GeneralMatrix(INT, ()), ValueError, "matrix must be nonempty"),
        (lambda: GeneralMatrix(INT, ((t(0),), (t(0), t(0)))), ValueError, "ragged matrix"),
        (lambda: GeneralMatrix(INT, ((Element("tangible", Fraction(1, 2)),),)), ValueError, "exponent 1/2 not in the int group"),
        (
            lambda: MonomialMatrix(INT, (0, 0), (t(0), t(0))),
            ValueError,
            "perm must be a permutation of 0..n-1 matching scales",
        ),
        (lambda: MonomialMatrix(INT, (0,), ()), ValueError, "perm must be a permutation of 0..n-1 matching scales"),
        (
            lambda: MonomialMatrix(INT, (0,), (g(0),)),
            PreconditionError,
            "monomial matrices must carry tangible (unit) scales",
        ),
    ],
)
def test_init_errors_keep_their_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: QuadraticForm(INT, (t(0), t(0)), {(0.0, 1.0): t(1)}), "upper index (0.0, 1.0) must be a pair of ints"),
        (lambda: QuadraticForm(INT, (t(0), t(0)), {(False, True): t(1)}), "upper index (False, True) must be a pair of ints"),
        (lambda: QuadraticForm(INT, (t(0), t(0)), {(0, 1, 1): t(1)}), "upper index (0, 1, 1) must be a pair of ints"),
        (lambda: QuadraticForm(INT, (t(0), t(0)), {0: t(1)}), "upper index 0 must be a pair of ints"),
        (lambda: MonomialMatrix(INT, (1.0, 0.0), (t(0), t(0))), "perm entry 1.0 must be an int"),
        (lambda: MonomialMatrix(INT, (True, False), (t(0), t(0))), "perm entry True must be an int"),
    ],
)
def test_an_index_that_is_no_int_is_refused_when_built(build, message):
    """As in ``RationalQuadraticForm``: a float or bool index, or a key that is no
    pair, fails with a ValueError naming it, not later with a bare TypeError."""
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# the reprs the dataclasses printed; every class keeps them
REPRS = {
    'Element': ['t:1/3:-', 'g:2'],
    'SquareClassTag': ['SquareClassTag(ghost=False, parity=1, fiber=(1, -1))', 'SquareClassTag(ghost=True, parity=0, fiber=None)'],
    'Semifield': ["Semifield(group=<GroupKind.RAT3: 'rat3'>, fiber_rank=1)", "Semifield(group=<GroupKind.INT: 'int'>, fiber_rank=0)"],
    'QuadraticForm': ['[t:1 g:2; 0]', '[t:1]'],
    'SymmetricBilinearForm': ['[[0, g:2], [g:2, 0]]', '[[t:0]]'],
    'GeneralMatrix': ['[t:0 0; g:1 t:-1]', '[0]'],
    'MonomialMatrix': ['[0 t:-1; t:2 0]', '[t:0]'],
    'Singleton': ['Singleton(value=g:3)', 'Singleton(value=0)'],
    'NuLeqDoubled': ['NuLeqDoubled(bound2=4)', 'NuLeqDoubled(bound2=Fraction(1, 3))'],
    'NuLtDoubled': ['NuLtDoubled(bound2=4)', 'NuLtDoubled(bound2=5)'],
    'NuClass': ['NuClass(exp=Fraction(1, 3))', 'NuClass(exp=0)'],
    'CompanionTable': ["CompanionTable(sf=Semifield(group=<GroupKind.INT: 'int'>, fiber_rank=0), cells=((Singleton(value=t:1), NuLeqDoubled(bound2=4)), (NuLeqDoubled(bound2=4), NuLtDoubled(bound2=3))))", "CompanionTable(sf=Semifield(group=<GroupKind.INT: 'int'>, fiber_rank=0), cells=((NuClass(exp=0),),))"],
    'Decomposition': ['Decomposition(ql=[t:1 0; 0], rigid=[0 t:0; 0], companion=[[0, g:2], [g:2, 0]])', 'Decomposition(ql=[t:1 g:2; 0], rigid=[t:1 g:2; 0], companion=[[0, g:2], [g:2, 0]])'],
    'RigExtrema': ["RigExtrema(minimum=[0 t:0; 0], maximum=None, no_max_cell=(0, 1), table=CompanionTable(sf=Semifield(group=<GroupKind.INT: 'int'>, fiber_rank=0), cells=((Singleton(value=t:1), NuLeqDoubled(bound2=4)), (NuLeqDoubled(bound2=4), NuLtDoubled(bound2=3)))))", "RigExtrema(minimum=[0 t:0; 0], maximum=[0 t:0; 0], no_max_cell=None, table=CompanionTable(sf=Semifield(group=<GroupKind.INT: 'int'>, fiber_rank=0), cells=((Singleton(value=t:1), NuLeqDoubled(bound2=4)), (NuLeqDoubled(bound2=4), NuLtDoubled(bound2=3)))))"],
    'RationalQuadraticForm': ['RationalQuadraticForm(n=2, coeffs={(0, 0): Fraction(1, 1), (0, 1): Fraction(1, 2)})', 'RationalQuadraticForm(n=1, coeffs={})'],
    'SupervaluationSpec': ["SupervaluationSpec(prime=3, mode='signed')", "SupervaluationSpec(prime=None, mode='tangible')"],
}


@pytest.mark.parametrize("k", range(len(PAIRS)), ids=_ids(PAIRS))
def test_reprs_are_unchanged(k):
    a, b = PAIRS[k]
    assert [repr(a), repr(b)] == REPRS[type(a).__name__]


# the records that take Value's generic constructor, with one value per field
RECORDS = {
    SquareClassTag: (False, 1, (1, -1)),
    CompanionTable: (INT, ((NuClass(0),),)),
    Decomposition: (QuadraticForm(INT, (t(1),)), QuadraticForm(INT, (ZERO,)), SymmetricBilinearForm(INT, ((ZERO,),))),
    RigExtrema: (QuadraticForm(INT, (ZERO,)), None, (0, 1), CompanionTable(INT, ((NuClass(0),),))),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_generic_constructor_takes_fields_by_position_name_or_both(cls):
    values, names = RECORDS[cls], FIELDS[cls]
    expected = cls(*values)
    assert _fields(expected) == values
    assert cls(**dict(zip(names, values))) == expected
    assert cls(**dict(reversed(list(zip(names, values))))) == expected
    for k in range(len(values)):
        assert cls(*values[:k], **dict(zip(names[k:], values[k:]))) == expected


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_generic_constructor_refuses_a_missing_extra_or_repeated_field(cls):
    values, names = RECORDS[cls], FIELDS[cls]
    message = f"{cls.__name__} takes each of the fields {names} once, by position or name"
    for args, kwargs in [
        (values[:-1], {}),  # missing, by position
        ((), dict(zip(names[1:], values[1:]))),  # missing, by name
        ((*values, None), {}),  # extra, by position
        (values, {"extra": None}),  # extra, by name
        (values, {names[0]: values[0]}),  # repeated
        (values[:1], {names[0]: values[0], **dict(zip(names[1:], values[1:]))}),  # repeated, all named too
    ]:
        with pytest.raises(TypeError) as info:
            cls(*args, **kwargs)
        assert str(info.value) == message
