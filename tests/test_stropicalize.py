"""Valuation-derived images of rational quadratic forms."""

import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from tropquad import (
    ZERO,
    GroupKind,
    MonomialMatrix,
    PreconditionError,
    QuadraticForm,
    RationalQuadraticForm,
    Semifield,
    SupervaluationSpec,
    apply_supervaluation,
    balanced_companion,
    balanced_companion_of_strop,
    change_base,
    companion_table,
    contains,
    eval_quadratic,
    is_companion,
    is_quasilinear,
    leq_minimal,
    padic_valuation,
    ring_companion_matrix,
    square_class_sequence,
    stropicalize_bilinear,
    stropicalize_form,
)

from tropquad.stropicalize import _rational, stropicalize_images

from gen import random_ratform, random_rational

ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
F = Fraction
WORKED = RationalQuadraticForm(2, {(0, 0): F(1), (0, 1): F(2), (1, 1): F(4)})
P2 = SupervaluationSpec(2, "tangible")


def test_padic_valuation():
    assert padic_valuation(2, F(4)) == 2
    assert padic_valuation(2, F(3, 8)) == -3
    assert padic_valuation(5, F(-50, 3)) == 2
    with pytest.raises(ValueError):
        padic_valuation(2, F(0))


def test_padic_valuation_refuses_a_base_below_two():
    """A base of 1 or -1 used to divide forever, and 0 to divide by zero; the
    calls run in a fresh interpreter, so a hang fails the test instead of
    stalling the run."""
    probe = (
        "from tropquad import padic_valuation\n"
        "for p in (1, -1, 0):\n"
        "    try:\n"
        "        padic_valuation(p, 3)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=ENV, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"the base of a valuation must be at least 2, not {p}" for p in (1, -1, 0)
    ]


def test_apply_examples():
    sf = P2.semifield
    assert apply_supervaluation(P2, F(4)) == sf.tangible(-2)
    assert apply_supervaluation(P2, F(1)) == sf.one
    assert apply_supervaluation(SupervaluationSpec(2, "ghost"), F(1)) == Semifield(GroupKind.INT).ghost(0)
    signed = SupervaluationSpec(2, "signed")
    assert apply_supervaluation(signed, F(-3)) == signed.semifield.tangible(0, (-1,))
    assert apply_supervaluation(P2, F(0)) == ZERO
    trivial = SupervaluationSpec(None, "tangible")
    assert apply_supervaluation(trivial, F(123, 7)) == trivial.semifield.one


@pytest.mark.parametrize("a", [0.1, 4.0, True, False])
def test_apply_refuses_a_float_or_bool(a):
    with pytest.raises(ValueError) as info:
        apply_supervaluation(P2, a)
    assert str(info.value) == f"argument must be an exact number, not {type(a).__name__} {a!r}"


def test_exact_inputs_keep_working():
    """ints, Fractions and rational strings, as a coefficient and as the argument."""
    for c in (4, F(4), "4", "8/2"):
        assert RationalQuadraticForm(1, {(0, 0): c}).coeffs == {(0, 0): F(4)}
        assert apply_supervaluation(P2, c) == P2.semifield.tangible(-2)
    assert apply_supervaluation(P2, 0) == ZERO


def test_rational_returns_a_fraction_as_it_is():
    """Its refusals of a float, a bool and None are pinned through
    ``apply_supervaluation`` by the tests around this one."""
    f = F(-9, 4)
    assert _rational("argument", f) is f

    class Ratio(F):
        pass

    converted = _rational("argument", Ratio(3, 6))
    assert type(converted) is F and converted == F(1, 2)


@pytest.mark.parametrize("p", [2.5, 2.0, True, "3", F(3)])
def test_padic_valuation_refuses_a_base_that_is_not_an_int(p):
    kind = "an exact number" if isinstance(p, (float, bool)) else "an int"
    with pytest.raises(ValueError) as info:
        padic_valuation(p, 4)
    assert str(info.value) == f"the base of a valuation must be {kind}, not {type(p).__name__} {p!r}"


def test_padic_valuation_reads_its_argument_as_apply_supervaluation_does():
    for a in (F(9, 2), "9/2", "4.5"):
        assert padic_valuation(3, a) == 2
    assert padic_valuation(2, 12) == 2
    for a in (4.5, True):
        with pytest.raises(ValueError) as info:
            padic_valuation(3, a)
        assert str(info.value) == f"argument must be an exact number, not {type(a).__name__} {a!r}"


@pytest.mark.parametrize("x", [None, [1], (1, 2), {}, 1j])
def test_a_value_that_is_neither_a_number_nor_a_string_is_named(x):
    """A coefficient, a coordinate and a valuation's argument name the input, as a float's error does."""
    calls = [
        ("coefficient", lambda: RationalQuadraticForm(1, {(0, 0): x})),
        ("coordinate", lambda: RationalQuadraticForm(1, {(0, 0): 1}).evaluate([x])),
        ("argument", lambda: apply_supervaluation(P2, x)),
        ("argument", lambda: padic_valuation(3, x)),
    ]
    for what, call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"{what} must be a number or a string, not {type(x).__name__} {x!r}"


def test_an_infinite_decimal_is_refused_by_name():
    with pytest.raises(ValueError) as info:
        RationalQuadraticForm(1, {(0, 0): Decimal("-Infinity")})
    assert str(info.value) == "coefficient must be finite, not Decimal('-Infinity')"


@pytest.mark.parametrize("p", ["3", F(3)])
def test_spec_refuses_a_prime_that_is_not_an_int(p):
    with pytest.raises(ValueError) as info:
        SupervaluationSpec(p)
    assert str(info.value) == f"prime must be an int, not {type(p).__name__} {p!r}"


def test_spec_validation():
    with pytest.raises(ValueError):
        SupervaluationSpec(4, "tangible")
    with pytest.raises(ValueError):
        SupervaluationSpec(2, "loud")
    assert SupervaluationSpec(2, "signed").semifield.fiber_rank == 1


def test_multiplicativity_and_unit():
    rng = random.Random(0)
    for mode in ("tangible", "ghost", "signed"):
        for p in (2, 3, 5, None):
            spec = SupervaluationSpec(p, mode)
            for _ in range(60):
                a = random_rational(rng)
                b = random_rational(rng)
                assert apply_supervaluation(spec, a * b) == apply_supervaluation(spec, a) * apply_supervaluation(spec, b)
            if mode != "ghost":
                assert apply_supervaluation(spec, F(1)) == spec.semifield.one


def test_ultrametric_transport():
    rng = random.Random(1)
    for p in (2, 3, 5):
        spec = SupervaluationSpec(p, "tangible")
        for _ in range(100):
            a = random_rational(rng)
            b = random_rational(rng)
            lhs = apply_supervaluation(spec, a + b).nu()
            rhs = (apply_supervaluation(spec, a) + apply_supervaluation(spec, b)).nu()
            assert leq_minimal(lhs, rhs)


def test_worked_example():
    sf = P2.semifield
    t, g = sf.tangible, sf.ghost
    qphi = stropicalize_form(P2, WORKED)
    assert qphi == QuadraticForm(sf, (t(0), t(-2)), {(0, 1): t(-1)})
    assert is_quasilinear(qphi)
    balanced = balanced_companion_of_strop(P2, WORKED)
    assert balanced.gram == ((g(0), t(-1)), (t(-1), g(-2)))
    bphi = stropicalize_bilinear(P2, ring_companion_matrix(WORKED))
    assert bphi.gram[0][0] == t(-1) and bphi.gram[1][1] == t(-3)
    assert bphi.gram[0][1] == t(-1)
    # both are companions of the image form, with different diagonals
    assert is_companion(qphi, balanced)
    assert is_companion(qphi, bphi)
    assert balanced.gram[0][0] != bphi.gram[0][0]


def test_strop_form_more_examples():
    sf = P2.semifield
    t = sf.tangible
    zero = RationalQuadraticForm(2, {})
    assert stropicalize_form(P2, zero) == QuadraticForm(sf, (ZERO, ZERO))
    hexagonal = RationalQuadraticForm(2, {(0, 0): F(1), (0, 1): F(1), (1, 1): F(1)})
    image = stropicalize_form(P2, hexagonal)
    assert image == QuadraticForm(sf, (t(0), t(0)), {(0, 1): t(0)})
    assert is_quasilinear(image)


def test_strop_bilinear_examples():
    sf = P2.semifield
    t = sf.tangible
    ident = ((F(1), F(0)), (F(0), F(1)))
    assert stropicalize_bilinear(P2, ident).gram == ((t(0), ZERO), (ZERO, t(0)))
    zero = ((F(0), F(0)), (F(0), F(0)))
    assert stropicalize_bilinear(P2, zero).gram == ((ZERO, ZERO), (ZERO, ZERO))


def test_strop_bilinear_names_the_first_asymmetric_cell():
    m = ((F(1), F(2), F(7)), (F(2), F(1), F(5)), (F(0), F(3), F(1)))  # asymmetric at (1,3) and (2,3)
    with pytest.raises(PreconditionError) as err:
        stropicalize_bilinear(P2, m)
    assert err.value.precondition == "symmetric matrix required"
    assert str(err.value) == "asymmetry at (1,3)"


def test_balanced_matches_generic_balanced_companion():
    rng = random.Random(2)
    for p in (2, 3, 5):
        for mode in ("tangible", "signed"):
            spec = SupervaluationSpec(p, mode)
            for _ in range(20):
                q = random_ratform(rng, rng.randint(1, 3))
                # the image of the rational coefficients, diagonal ghosted, read straight off q
                expected = tuple(
                    tuple(
                        apply_supervaluation(spec, q.coeff(i, j)).nu() if i == j
                        else apply_supervaluation(spec, q.coeff(i, j))
                        for j in range(q.n)
                    )
                    for i in range(q.n)
                )
                assert balanced_companion_of_strop(spec, q).gram == expected
                assert balanced_companion(stropicalize_form(spec, q)).gram == expected


def test_triangular_scheme_commutes_with_image():
    rng = random.Random(3)
    for p in (2, 3, 5):
        spec = SupervaluationSpec(p, "tangible")
        for _ in range(25):
            q = random_ratform(rng, 3)
            qphi = stropicalize_form(spec, q)
            # entrywise image of the triangular matrix, read back as a scheme
            tri = tuple(
                tuple(q.coeff(i, j) if i <= j else F(0) for j in range(3)) for i in range(3)
            )
            image = [[apply_supervaluation(spec, c) for c in row] for row in tri]
            assert tuple(image[i][i] for i in range(3)) == qphi.diag
            for i in range(3):
                for j in range(i + 1, 3):
                    assert image[i][j] == qphi.beta(i, j)


def test_companion_membership_of_both_companions():
    """Both companions lie in q^phi's companion table, and ``stropicalize_images`` reads the ring
    companion's image and the square classes off q^phi as the library path computes them, in every
    mode, at the trivial valuation and p = 2, 3, 5, with zero diagonals and the coefficients 2 and 1/2."""
    rng = random.Random(4)
    pool = (F(0), F(2), F(1, 2), F(-2), F(-1, 2))
    for mode in ("tangible", "ghost", "signed"):
        for p in (None, 2, 3, 5):
            spec = SupervaluationSpec(p, mode)
            for _ in range(20):
                q = RationalQuadraticForm(3, {
                    (i, j): rng.choice(pool) if rng.random() < 0.5 else random_rational(rng)
                    for i in range(3) for j in range(i, 3)
                })
                qphi = stropicalize_form(spec, q)
                bphi = stropicalize_bilinear(spec, ring_companion_matrix(q))
                assert stropicalize_images(spec, q) == (qphi, bphi, square_class_sequence(spec, q))
                table = companion_table(qphi)
                for comp in (balanced_companion_of_strop(spec, q), bphi):
                    for i in range(3):
                        for j in range(i, 3):
                            assert contains(table.cell(i, j), comp.gram[i][j])
                # doubling never lowers the valuation, strictly raises it at p = 2
                for i in range(3):
                    if q.coeff(i, i) == 0:
                        continue
                    assert leq_minimal(bphi.gram[i][i].nu(), qphi.diag[i].nu())
                    if p == 2:
                        assert bphi.gram[i][i].nu() != qphi.diag[i].nu()


def _compatible(spec, q, vec) -> bool:
    """Whether phi commutes with evaluation at vec: q^phi(phi(vec)) == phi(q(vec))."""
    image = tuple(apply_supervaluation(spec, c) for c in vec)
    return eval_quadratic(stropicalize_form(spec, q), image) == apply_supervaluation(spec, q.evaluate(vec))


def test_axis_compatibility():
    assert _compatible(P2, WORKED, (F(3), F(0)))
    # both off-axis samples happen to agree here
    assert _compatible(P2, WORKED, (F(1), F(1))) and _compatible(P2, WORKED, (F(1), F(-1)))

    rng = random.Random(5)
    for p in (2, 3, 5):
        spec = SupervaluationSpec(p, "signed")
        for _ in range(20):
            q = random_ratform(rng, 3)
            for i in range(3):
                c = random_rational(rng)
                assert _compatible(spec, q, tuple(c if k == i else F(0) for k in range(3)))


def test_off_axis_failure_exists():
    # x^2 - y^2 at p = 2: the valuation of q(1, 1) = 0 jumps
    q = RationalQuadraticForm(2, {(0, 0): F(1), (1, 1): F(-1)})
    assert not _compatible(P2, q, (F(1), F(1)))


def test_square_class_sequence_examples():
    even = RationalQuadraticForm(2, {(0, 0): F(1), (1, 1): F(4)})
    tags = square_class_sequence(P2, even)
    assert [(tag.ghost, tag.parity) for tag in tags] == [(False, 0), (False, 0)]

    mixed = RationalQuadraticForm(2, {(0, 0): F(1), (1, 1): F(2)})
    tags = square_class_sequence(P2, mixed)
    assert sorted(tag.parity for tag in tags) == [0, 1]

    signed = SupervaluationSpec(2, "signed")
    neg = RationalQuadraticForm(2, {(0, 0): F(-1), (0, 1): F(1), (1, 1): F(1)})
    tags = square_class_sequence(signed, neg)
    assert sorted(tag.fiber for tag in tags) == [(-1,), (1,)]

    with_zero = RationalQuadraticForm(2, {(0, 1): F(3)})
    tags = square_class_sequence(P2, with_zero)
    assert tags == (None, None)


def test_square_classes_invariant_under_square_scaled_base_change():
    rng = random.Random(6)
    for p in (2, 3):
        spec = SupervaluationSpec(p, "signed")
        sf = spec.semifield
        for _ in range(20):
            q = random_ratform(rng, 3)
            qphi = stropicalize_form(spec, q)
            perm = list(range(3))
            rng.shuffle(perm)
            scales = tuple(sf.tangible(2 * rng.randint(-3, 3)) for _ in range(3))  # unit squares
            moved = change_base(qphi, MonomialMatrix(sf, tuple(perm), scales))
            original = sorted([None if a.is_zero else sf.square_class(a) for a in qphi.diag], key=repr)
            relocated = sorted([None if a.is_zero else sf.square_class(a) for a in moved.diag], key=repr)
            assert original == relocated


def test_each_distinct_value_is_imaged_once_per_stropicalize_call(monkeypatch, tmp_path, capsys):
    """``stropicalize`` images the form once and reads the ring companion's image and the square
    classes off the image form: counted by wrapping ``apply_supervaluation``, each distinct
    coefficient value of q (zero for an absent diagonal) is imaged once, plus 2 once, and a second
    call images them all again, so nothing is carried from one call to the next."""
    import json
    from collections import Counter

    from tropquad import cli, stropicalize
    from tropquad.serialize import ratform_to_json

    q = random_ratform(random.Random(5), 64)
    path = tmp_path / "q.json"
    path.write_text(json.dumps(ratform_to_json(q)))
    seen = []
    original = stropicalize.apply_supervaluation

    def counted(spec, a):
        seen.append(a)
        return original(spec, a)

    monkeypatch.setattr(stropicalize, "apply_supervaluation", counted)
    values = set(q.coeffs.values()) | {q.coeff(i, i) for i in range(q.n)}
    assert F(0) in values
    for _ in range(2):
        seen.clear()
        assert cli.main(["stropicalize", str(path), "--prime", "2"]) == 0
        capsys.readouterr()
        assert Counter(seen) == Counter(values) + Counter([2])
