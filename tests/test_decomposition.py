"""Quasilinear-rigid splitting and the structure of Rig(q)."""

import random

import pytest

from tropquad import (
    ZERO,
    GroupKind,
    NuLtDoubled,
    PreconditionError,
    QuadraticForm,
    Semifield,
    SymmetricBilinearForm,
    add_forms,
    balanced_companion,
    build_companion,
    companion_table,
    contains,
    decompose,
    eval_quadratic,
    functionally_equal,
    is_rigid,
    leq_minimal,
    off_diagonal_companion,
    pointwise_leq_rigid,
    quasilinear_part,
    rig_contains,
    rig_extrema,
    rigid_complement,
    scale_form,
)
from tropquad.probes import boundary_probe_elements

from gen import kind_semifields, random_element, random_form, random_vector

INT = Semifield(GroupKind.INT)
RAT3 = Semifield(GroupKind.RAT3)
t = INT.tangible
g = INT.ghost


def sample_companions(rng, q, count=3):
    """The balanced companion plus random table selections."""
    table = companion_table(q)
    out = [balanced_companion(q)]
    for _ in range(count - 1):
        choice = {}
        for i in range(q.n):
            for j in range(i, q.n):
                cell = table.cell(i, j)
                opts = [b for b in boundary_probe_elements(q.sf, None, cell) if contains(cell, b)]
                choice[(i, j)] = rng.choice(opts)
        out.append(build_companion(table, choice))
    return out


def test_quasilinear_part_examples():
    q = QuadraticForm(INT, (t(2), t(4)), {(0, 1): t(9)})
    assert quasilinear_part(q) == QuadraticForm(INT, (t(2), t(4)))
    rigid = QuadraticForm(INT, (ZERO, ZERO), {(0, 1): t(9)})
    assert quasilinear_part(rigid) == QuadraticForm(INT, (ZERO, ZERO))
    diag = QuadraticForm(INT, (t(1), g(2)))
    assert quasilinear_part(diag) == diag


def test_rigid_complement_examples():
    q = QuadraticForm(INT, (t(2), t(4)), {(0, 1): t(9)})
    rho = rigid_complement(q, balanced_companion(q))
    assert rho == QuadraticForm(INT, (ZERO, ZERO), {(0, 1): t(9)})
    assert functionally_equal(q, add_forms(quasilinear_part(q), rho))

    ql = QuadraticForm(INT, (t(2), t(3)))
    zero_b = SymmetricBilinearForm(INT, ((ZERO, ZERO), (ZERO, ZERO)))
    assert rigid_complement(ql, zero_b) == QuadraticForm(INT, (ZERO, ZERO))

    q2 = QuadraticForm(INT, (t(2), t(4)), {(0, 1): t(3)})
    b0 = SymmetricBilinearForm(INT, ((ZERO, ZERO), (ZERO, ZERO)))
    assert rigid_complement(q2, b0) == QuadraticForm(INT, (ZERO, ZERO))
    assert functionally_equal(q2, quasilinear_part(q2))  # 0 was admissible


def test_rigid_complement_rejects_non_companion():
    q = QuadraticForm(INT, (t(0), t(0)), {(0, 1): t(5)})
    bad = SymmetricBilinearForm(INT, ((ZERO, t(4)), (t(4), ZERO)))
    with pytest.raises(PreconditionError):
        rigid_complement(q, bad)


def test_off_diagonal_companion():
    rho = QuadraticForm(INT, (ZERO, ZERO), {(0, 1): t(9)})
    b = off_diagonal_companion(rho)
    assert b.gram == ((ZERO, t(9)), (t(9), ZERO))
    zero = QuadraticForm(INT, (ZERO, ZERO))
    assert off_diagonal_companion(zero).gram == ((ZERO, ZERO), (ZERO, ZERO))
    with pytest.raises(PreconditionError):
        off_diagonal_companion(QuadraticForm(INT, (t(1), ZERO)))


def test_off_diagonal_round_trip():
    rng = random.Random(0)
    for sf in kind_semifields():
        for _ in range(20):
            rho = random_form(rng, sf, 3, zero_p=1.0)
            b = off_diagonal_companion(rho)
            q = add_forms(QuadraticForm(sf, tuple(random_element(rng, sf) for _ in range(3))), rho)
            assert rigid_complement(q, off_diagonal_companion(rho)) == rho
            assert is_rigid(rho)
            assert b.gram == off_diagonal_companion(rigid_complement(q, b)).gram


def test_decomposition_identity_random():
    rng = random.Random(1)
    for sf in kind_semifields(1):
        for _ in range(25):
            n = rng.randint(1, 4)
            q = random_form(rng, sf, n)
            ql = quasilinear_part(q)
            for b in sample_companions(rng, q):
                d = decompose(q, b)
                assert d.ql == ql and d.rigid == rigid_complement(q, b)
                assert is_rigid(d.rigid)
                back = add_forms(ql, d.rigid)
                assert functionally_equal(q, back)
                for _ in range(20):
                    x = random_vector(rng, sf, n)
                    value = eval_quadratic(q, x)
                    assert value == eval_quadratic(back, x) == eval_quadratic(ql, x) + eval_quadratic(d.rigid, x)


def test_quasilinear_part_unique_across_companions():
    rng = random.Random(2)
    for sf in kind_semifields():
        for _ in range(15):
            q = random_form(rng, sf, 3)
            decs = [decompose(q, b) for b in sample_companions(rng, q)]
            assert len({d.ql for d in decs}) == 1
            # pinned by the axis values of q
            for i in range(3):
                x = tuple(sf.one if k == i else ZERO for k in range(3))
                assert eval_quadratic(decs[0].ql, x) == eval_quadratic(q, x)


def test_module_laws():
    rng = random.Random(3)
    for sf in kind_semifields():
        for _ in range(25):
            n = rng.randint(1, 4)
            q1 = random_form(rng, sf, n)
            q2 = random_form(rng, sf, n)
            lam = random_element(rng, sf)
            assert quasilinear_part(add_forms(q1, q2)) == add_forms(quasilinear_part(q1), quasilinear_part(q2))
            assert quasilinear_part(scale_form(lam, q1)) == scale_form(lam, quasilinear_part(q1))
            rho1 = rig_extrema(q1).minimum
            rho2 = rigid_complement(q2, balanced_companion(q2))
            assert rig_contains(add_forms(q1, q2), add_forms(rho1, rho2))
            assert rig_contains(scale_form(lam, q1), scale_form(lam, rho1))


def test_rig_extrema_examples():
    q = QuadraticForm(INT, (t(2), t(4)), {(0, 1): t(3)})
    ext = rig_extrema(q)
    assert ext.minimum == QuadraticForm(INT, (ZERO, ZERO))
    assert ext.maximum == QuadraticForm(INT, (ZERO, ZERO), {(0, 1): g(3)})

    forced = QuadraticForm(INT, (t(0), t(0)), {(0, 1): t(5)})
    ext2 = rig_extrema(forced)
    assert ext2.minimum == ext2.maximum == QuadraticForm(INT, (ZERO, ZERO), {(0, 1): t(5)})

    q3 = QuadraticForm(RAT3, (RAT3.tangible(1), RAT3.tangible(2)), {(0, 1): RAT3.tangible(0)})
    ext3 = rig_extrema(q3)
    assert ext3.maximum is None and ext3.no_max_cell == (0, 1)
    assert isinstance(ext3.table.cell(0, 1), NuLtDoubled)


def test_rig_contains():
    q = QuadraticForm(INT, (t(2), t(4)), {(0, 1): t(3)})
    ext = rig_extrema(q)
    assert rig_contains(q, ext.minimum)
    assert rig_contains(q, ext.maximum)
    above = QuadraticForm(INT, (ZERO, ZERO), {(0, 1): t(4)})
    assert not rig_contains(q, above)
    with pytest.raises(PreconditionError):
        rig_contains(q, QuadraticForm(INT, (t(1), ZERO)))


def test_members_sandwiched_between_extrema():
    rng = random.Random(4)
    for sf in kind_semifields():
        for _ in range(25):
            n = rng.randint(2, 4)
            q = random_form(rng, sf, n)
            ext = rig_extrema(q)
            for b in sample_companions(rng, q):
                rho = rigid_complement(q, b)
                assert rig_contains(q, rho)
                assert pointwise_leq_rigid(ext.minimum, rho)
                if ext.maximum is not None:
                    assert pointwise_leq_rigid(rho, ext.maximum)


def test_rig_is_lower_set_and_convex_for_quasilinear():
    rng = random.Random(5)
    for sf in kind_semifields():
        checked = 0
        while checked < 15:
            q = random_form(rng, sf, 3)
            from tropquad import is_quasilinear

            if not is_quasilinear(q):
                continue
            checked += 1
            ext = rig_extrema(q)
            table = ext.table
            # any zero-diagonal form coefficientwise below a member stays a member
            for b in sample_companions(rng, q):
                rho = rigid_complement(q, b)
                chi_upper = {}
                for i in range(3):
                    for j in range(i + 1, 3):
                        cell = table.cell(i, j)
                        below = [
                            c
                            for c in boundary_probe_elements(sf, None, cell)
                            if leq_minimal(c, rho.beta(i, j))
                        ]
                        chi_upper[(i, j)] = rng.choice(below) if below else ZERO
                chi = QuadraticForm(sf, (ZERO,) * 3, chi_upper)
                assert is_rigid(chi)
                assert pointwise_leq_rigid(chi, rho)
                assert rig_contains(q, chi)


def test_maximal_quasilinear_property():
    rng = random.Random(6)
    for sf in kind_semifields():
        for _ in range(25):
            q = random_form(rng, sf, 3)
            ql = quasilinear_part(q)
            # diagonal forms below q stay below the quasilinear part
            chi = QuadraticForm(
                sf,
                tuple(
                    rng.choice(
                        [ZERO]
                        + [
                            c
                            for c in boundary_probe_elements(sf, None, companion_table(q).cell(0, 0))
                            if leq_minimal(c, a)
                        ]
                    )
                    for a in q.diag
                ),
            )
            for i in range(3):
                assert leq_minimal(chi.diag[i], ql.diag[i])


def test_minimal_members_nu_equivalent_discrete():
    rng = random.Random(7)
    for _ in range(30):
        q = random_form(rng, INT, 3)
        table = companion_table(q)
        for i in range(3):
            for j in range(i + 1, 3):
                cell = table.cell(i, j)
                probes = boundary_probe_elements(INT, None, cell)
                members = [b for b in probes if contains(cell, b)]
                minimal = [
                    m for m in members if not any(leq_minimal(o, m) and o != m for o in members)
                ]
                for m1 in minimal:
                    for m2 in minimal:
                        assert m1.nu() == m2.nu(), (cell, m1, m2)


def test_decompose_defaults_to_minimal_companion():
    q = QuadraticForm(INT, (t(2), t(4)), {(0, 1): t(3)})
    d = decompose(q)
    assert d.ql == quasilinear_part(q)
    assert d.rigid == rig_extrema(q).minimum
    assert d.companion.gram == off_diagonal_companion(rig_extrema(q).minimum).gram
    assert all(d.companion.gram[i][i] == ZERO for i in range(2))


def test_default_decompose_splits_along_the_minimal_companion():
    rng = random.Random(9)
    for sf in kind_semifields():
        for _ in range(10):
            q = random_form(rng, sf, 3)
            d = decompose(q)
            assert d == decompose(q, d.companion)
            assert all(d.companion.gram[i][i] == ZERO for i in range(3))
            assert d.rigid == rig_extrema(q).minimum
