"""Monomial matrices, inversion, and the exhaustive inverse-search oracle."""

import itertools
import random

import pytest

from fractions import Fraction

from tropquad import (
    ZERO,
    Element,
    GeneralMatrix,
    GroupKind,
    MonomialMatrix,
    PreconditionError,
    Semifield,
    identity_matrix,
    invert,
    is_invertible,
    mat_mul,
    monomial_decomposition,
)

from gen import kind_semifields, random_monomial, random_nonmonomial

INT = Semifield(GroupKind.INT)
t = INT.tangible
g = INT.ghost


def monomial_inverse_search(m: GeneralMatrix):
    """Exhaustively search candidate inverses.

    Any two-sided inverse X satisfies, for each permutation pattern it might
    carry, a forced system: the diagonal of M X needs exactly one unit
    product per row and zero-sum-freeness kills every other contribution.
    Enumerating all patterns and solving the forced scales is therefore an
    exhaustive search over possible inverses.
    """
    if not m.is_square:
        return None
    n = m.nrows
    ident = identity_matrix(m.sf, n).to_general()
    for sigma in itertools.permutations(range(n)):
        scales = []
        ok = True
        for k in range(n):
            pivot = m.rows[k][sigma[k]]
            if not pivot.is_tangible:
                ok = False
                break
            scales.append(pivot.inverse())
        if not ok:
            continue
        rows = [[ZERO] * n for _ in range(n)]
        for k in range(n):
            rows[sigma[k]][k] = scales[k]
        candidate = GeneralMatrix(m.sf, tuple(tuple(r) for r in rows))
        if mat_mul(m, candidate).rows == ident.rows and mat_mul(candidate, m).rows == ident.rows:
            return candidate
    return None


def test_invertibility_examples():
    assert is_invertible(GeneralMatrix(INT, ((t(2), ZERO), (ZERO, t(-1)))))
    assert not is_invertible(GeneralMatrix(INT, ((t(0), t(0)), (ZERO, t(0)))))
    assert not is_invertible(GeneralMatrix(INT, ((g(0), ZERO), (ZERO, t(0)))))


def test_invert_examples():
    ident = identity_matrix(INT, 3)
    assert invert(ident).to_general().rows == ident.to_general().rows
    diag = MonomialMatrix(INT, (0, 1), (t(2), t(-1)))
    assert invert(diag).to_general().rows == ((t(-2), ZERO), (ZERO, t(1)))
    swap = MonomialMatrix(INT, (1, 0), (t(1), t(0)))
    inv = invert(swap)
    assert inv.perm == (1, 0) and inv.scales == (t(0), t(-1))
    prod = mat_mul(swap.to_general(), inv.to_general())
    assert prod.rows == identity_matrix(INT, 2).to_general().rows
    assert mat_mul(inv.to_general(), swap.to_general()).rows == prod.rows


def test_mat_mul_examples():
    a = GeneralMatrix(INT, ((t(1),),))
    b = GeneralMatrix(INT, ((t(2),),))
    assert mat_mul(a, b).rows == ((t(3),),)
    m = random_monomial(random.Random(0), INT, 3).to_general()
    ident = identity_matrix(INT, 3).to_general()
    assert mat_mul(m, ident).rows == m.rows
    assert mat_mul(ident, m).rows == m.rows


def test_mat_mul_rectangular():
    a = GeneralMatrix(INT, ((t(0), t(1)),))  # 1x2
    b = GeneralMatrix(INT, ((t(2),), (t(3),)))  # 2x1
    assert mat_mul(a, b).rows == ((t(4),),)
    with pytest.raises(PreconditionError):
        mat_mul(b, b)


def test_non_square_rejected():
    rect = GeneralMatrix(INT, ((t(0), t(1)),))
    with pytest.raises(PreconditionError):
        is_invertible(rect)


def _violation(rows) -> str:
    with pytest.raises(PreconditionError) as exc:
        monomial_decomposition(GeneralMatrix(INT, rows))
    assert exc.value.precondition == "monomial matrix required"
    return str(exc.value)


def test_monomial_decomposition_violation_messages():
    """The exact message of each violation: a column's count, a ghost entry, a row's count."""
    assert _violation(((t(0), ZERO), (ZERO, ZERO))) == "column 2 has 0 nonzero entries (need exactly 1)"
    assert _violation(((t(0), ZERO), (t(0), t(0)))) == "column 1 has 2 nonzero entries (need exactly 1)"
    assert _violation(((t(0), ZERO), (ZERO, g(0)))) == "entry at row 2, column 2 is ghost, hence not a unit"
    assert _violation(((t(0), ZERO, ZERO), (ZERO, t(1), t(2)), (ZERO, ZERO, ZERO))) == (
        "row 2 has 2 nonzero entries (need exactly 1)"
    )


def test_monomial_decomposition_reports_the_first_violation_in_column_major_order():
    """Column by column, a column's count before its entry's tag; rows only after all columns."""
    # a ghost in column 1 comes before the two entries of column 2
    assert _violation(((g(0), t(0)), (ZERO, t(0)))) == "entry at row 1, column 1 is ghost, hence not a unit"
    # two entries in column 1 come before the ghost of column 2
    assert _violation(((t(0), g(0)), (t(0), ZERO))) == "column 1 has 2 nonzero entries (need exactly 1)"
    # a column's count comes before its own ghost
    assert _violation(((g(0), ZERO), (g(1), t(0)))) == "column 1 has 2 nonzero entries (need exactly 1)"
    # rows 2 and 3 both fail; the first is named
    assert _violation(((t(0), ZERO, ZERO), (ZERO, ZERO, ZERO), (ZERO, t(1), t(2)))) == (
        "row 2 has 0 nonzero entries (need exactly 1)"
    )


@pytest.mark.parametrize("sf", kind_semifields() + kind_semifields(1))
def test_random_monomials_invert_both_sides(sf):
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = random_monomial(rng, sf, n)
        ident = identity_matrix(sf, n).to_general().rows
        gm = m.to_general()
        assert is_invertible(gm)
        inv = invert(m).to_general()
        assert mat_mul(gm, inv).rows == ident
        assert mat_mul(inv, gm).rows == ident
        found = monomial_inverse_search(gm)
        assert found is not None and found.rows == inv.rows


@pytest.mark.parametrize("sf", kind_semifields())
def test_random_rejections_agree_with_search(sf):
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = random_nonmonomial(rng, sf, n)
        assert not is_invertible(m)
        assert monomial_inverse_search(m) is None


@pytest.mark.parametrize("bad", [Element("zero", 1), Element("tangible", Fraction(1, 2)), Element("ghost", 1, (1,))])
def test_a_mostly_zero_matrix_still_validates_every_other_entry(bad):
    """The shared ZERO is taken as it is; any other entry, a zero-tagged Element
    that is not ZERO included, raises the error that ``Semifield.element`` raises."""
    sf = Semifield(GroupKind.INT, 1)
    with pytest.raises(ValueError) as direct:
        sf.element(bad)
    rows = [[ZERO] * 8 for _ in range(8)]
    rows[5][3] = bad
    with pytest.raises(ValueError) as built:
        GeneralMatrix(sf, rows)
    assert str(built.value) == str(direct.value)
    assert GeneralMatrix(sf, [[ZERO] * 8] * 8).rows[7][7] is ZERO
