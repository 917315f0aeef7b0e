"""Companion sets and tables against the independent membership oracle."""

import json
import math
import random
import sys
import types
from fractions import Fraction
from functools import partial
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropquad import (
    ZERO,
    Element,
    GroupKind,
    NuClass,
    NuLeqDoubled,
    NuLtDoubled,
    PairBranch,
    PreconditionError,
    QuadraticForm,
    Semifield,
    Singleton,
    SymmetricBilinearForm,
    balanced_companion,
    build_companion,
    companion_membership_oracle,
    companion_table,
    contains,
    diagonal_membership_oracle,
    equality_witness,
    eval_bilinear,
    eval_quadratic,
    functionally_equal,
    is_balanced_pair,
    is_companion,
    is_quasilinear,
    is_rigid,
    leq_minimal,
    pair_analysis,
    rigid_complement,
    set_max,
    set_min,
)
from tropquad import probes as probe_module
from tropquad.cli import main
from tropquad.companions import _common_scale, _probe_exponents_for, cell_boundary, triple_membership_oracle
from tropquad.probes import _scaled_cell, boundary_probe_elements, cell_disagreements
from tropquad.semiring import _canon_exp
from tropquad.serialize import form_to_json

from gen import (
    _scaled,
    any_cells,
    any_elements,
    diagonal_cell_reference,
    element_grid,
    element_strategy,
    fraction_between,
    fraction_cell_boundary,
    fraction_legal,
    fraction_pair_analysis,
    kind_semifields,
    membership_oracle_reference,
    pair_triples_for_kind,
    random_form,
    random_tangible,
    random_vector,
    uniform_triple,
    wide_element_strategy,
)

INT = Semifield(GroupKind.INT)
INT1 = Semifield(GroupKind.INT, 1)
RAT = Semifield(GroupKind.RAT)
RAT3 = Semifield(GroupKind.RAT3)
t = INT.tangible
g = INT.ghost


# -- frozen pair examples -------------------------------------------------------


def test_pair_examples_discrete():
    assert pair_analysis(INT, t(2), t(4), t(3))[1] == NuLeqDoubled(6)
    assert pair_analysis(INT, t(0), t(0), t(5))[1] == Singleton(t(5))
    assert pair_analysis(INT, g(0), g(1), t(1))[1] == NuLeqDoubled(2)
    assert pair_analysis(INT, t(0), t(1), t(1))[1] == NuClass(1)


def test_pair_example_dense_gap():
    cell = pair_analysis(RAT3, RAT3.tangible(1), RAT3.tangible(2), ZERO)[1]
    assert cell == NuLtDoubled(3)
    assert contains(cell, RAT3.ghost(Fraction(4, 3)))
    assert not contains(cell, RAT3.ghost(Fraction(5, 3)))


def test_pair_zero_side():
    assert pair_analysis(INT, ZERO, t(4), t(3))[1] == Singleton(t(3))
    assert pair_analysis(INT, t(4), ZERO, ZERO)[1] == Singleton(ZERO)


def test_pair_branches():
    assert pair_analysis(INT, ZERO, t(4), t(3))[0] is PairBranch.ZERO_SIDE
    assert pair_analysis(INT, t(0), t(0), t(5))[0] is PairBranch.DOMINANT
    assert pair_analysis(INT, g(0), g(1), t(1))[0] is PairBranch.DOMINANT_EDGE_GHOSTS
    assert pair_analysis(INT, t(0), t(1), t(1))[0] is PairBranch.DOMINANT_EDGE_TANGIBLE
    assert pair_analysis(INT, t(2), t(4), t(3))[0] is PairBranch.MEAN_IN_GROUP
    assert pair_analysis(RAT3, RAT3.tangible(1), RAT3.tangible(2), ZERO)[0] is PairBranch.MEAN_GAP_DENSE
    assert pair_analysis(INT, t(0), t(1), ZERO)[0] is PairBranch.MEAN_GAP_DISCRETE_TANGIBLE
    assert pair_analysis(INT, g(0), g(1), ZERO)[0] is PairBranch.MEAN_GAP_DISCRETE_GHOSTS


WIDE = 10**15
# per group: integers, half and third steps, and exponents far from the others
PAIR_EXPONENTS = {
    GroupKind.INT: (-3, -1, 0, 1, 2, 4, WIDE, WIDE + 1),
    GroupKind.RAT: (-1, Fraction(-1, 2), 0, Fraction(1, 3), Fraction(1, 2), Fraction(5, 6), 2, WIDE + Fraction(1, 2)),
    GroupKind.RAT3: (-1, Fraction(-1, 3), 0, Fraction(1, 9), Fraction(2, 3), 1, 3, WIDE + Fraction(1, 3)),
}


def _cell_exponent(cell):
    """The exponent a cell holds: its element's for a singleton."""
    if isinstance(cell, Singleton):
        return cell.value.exp
    return cell.bound2 if isinstance(cell, (NuLeqDoubled, NuLtDoubled)) else cell.exp


@pytest.mark.parametrize("rank", (0, 1))
def test_pair_analysis_matches_the_fraction_reference(rank):
    """Branch, cell and the type of every exponent agree with the Fraction
    computation on every triple over zero, ghosts and tangibles of each fiber."""
    seen = set()
    for kind, exps in PAIR_EXPONENTS.items():
        sf = Semifield(kind, rank)
        # a hand-built element may hold a whole exponent as a Fraction
        whole = Fraction(2, 1)
        elements = element_grid(sf, exps) + [Element("ghost", whole), Element("tangible", whole, sf.identity_fiber())]
        for a1 in elements:
            for a2 in elements:
                for alpha in elements:
                    branch, cell = pair_analysis(sf, a1, a2, alpha)
                    ref_branch, ref_cell = fraction_pair_analysis(sf, a1, a2, alpha)
                    assert (branch, cell) == (ref_branch, ref_cell), (a1, a2, alpha)
                    assert type(_cell_exponent(cell)) is type(_cell_exponent(ref_cell))
                    edge, ref_edge = cell_boundary(cell), fraction_cell_boundary(ref_cell)
                    assert edge == ref_edge and type(edge) is type(ref_edge)
                    seen.add(branch)
    assert seen == set(PairBranch)


@pytest.mark.parametrize("rank", (0, 1))
def test_table_diagonal_is_the_diagonal_rule(rank):
    """A diagonal cell is the rank-2 case at (alpha, alpha, nu(alpha)): its
    branch is ZERO_SIDE or MEAN_IN_GROUP, and its cell is the diagonal rule."""
    for kind, exps in PAIR_EXPONENTS.items():
        sf = Semifield(kind, rank)
        whole = Fraction(2, 1)
        diag = element_grid(sf, exps) + [Element("ghost", whole), Element("tangible", whole, sf.identity_fiber())]
        table = companion_table(QuadraticForm(sf, tuple(diag)))
        for i, alpha in enumerate(diag):
            branch, cell = pair_analysis(sf, alpha, alpha, alpha.nu())
            expected = diagonal_cell_reference(alpha)
            assert branch is (PairBranch.ZERO_SIDE if alpha.is_zero else PairBranch.MEAN_IN_GROUP)
            assert cell == expected and table.cell(i, i) == expected, alpha
            assert type(_cell_exponent(cell)) is type(_cell_exponent(expected))


def test_cell_boundary_matches_the_fraction_reference():
    cells = [Singleton(ZERO), Singleton(t(3)), Singleton(RAT.ghost(Fraction(1, 2))), NuClass(Fraction(2, 3)), NuClass(5)]
    for bound2 in (-3, -2, 0, 7, WIDE + 1, Fraction(1, 3), Fraction(-5, 9), Fraction(6, 1), Fraction(7, 1), WIDE + Fraction(1, 2)):
        cells.extend((NuLeqDoubled(bound2), NuLtDoubled(bound2)))
    for cell in cells:
        edge, ref_edge = cell_boundary(cell), fraction_cell_boundary(cell)
        assert edge == ref_edge and type(edge) is type(ref_edge), cell


def test_oracle_examples():
    assert companion_membership_oracle(INT, t(2), t(4), t(3), [g(3), t(4)]) == [True, False]
    assert companion_membership_oracle(INT, t(2), t(4), t(3), []) == []
    assert diagonal_membership_oracle(INT, t(2), [g(2), ZERO, t(3)]) == [True, True, False]
    rng = random.Random(0)
    for sf in kind_semifields(1):
        for _ in range(20):
            a1, a2, a = uniform_triple(rng, sf)
            assert companion_membership_oracle(sf, a1, a2, a, [a]) == [True]


def test_nu_class_membership():
    cell = pair_analysis(INT, t(0), t(1), t(1))[1]
    assert contains(cell, t(1))
    assert contains(cell, g(1))
    assert not contains(cell, t(0))
    assert not contains(cell, ZERO)
    sf1 = Semifield(GroupKind.INT, 1)
    cell1 = pair_analysis(sf1, sf1.tangible(0), sf1.tangible(1), sf1.tangible(1))[1]
    assert contains(cell1, sf1.tangible(1, (-1,)))


def test_contains_examples():
    assert contains(Singleton(t(5)), t(5))
    assert not contains(Singleton(t(5)), g(5))
    assert contains(NuLeqDoubled(6), ZERO)
    assert contains(NuLeqDoubled(6), t(3)) and not contains(NuLeqDoubled(6), t(4))
    assert contains(NuLtDoubled(6), t(2)) and not contains(NuLtDoubled(6), t(3))


def test_set_extrema():
    assert set_max(INT, NuLeqDoubled(6)) == g(3)
    assert set_min(INT, NuLeqDoubled(6)) == ZERO
    assert set_max(RAT3, NuLtDoubled(3)) is None
    assert set_min(INT, NuClass(1)) == t(1)
    assert set_max(INT, NuClass(1)) == g(1)
    assert set_min(INT, Singleton(t(5))) == set_max(INT, Singleton(t(5))) == t(5)
    sf1 = Semifield(GroupKind.INT, 1)
    assert set_min(sf1, NuClass(2)) == sf1.tangible(2, (1,))


def test_set_extrema_really_extreme():
    rng = random.Random(1)
    for sf in kind_semifields(1):
        for _ in range(60):
            a1, a2, a = uniform_triple(rng, sf)
            cell = pair_analysis(sf, a1, a2, a)[1]
            members = [b for b in boundary_probe_elements(sf, a, cell) if contains(cell, b)]
            lo = set_min(sf, cell)
            hi = set_max(sf, cell)
            assert contains(cell, lo)
            for b in members:
                assert leq_minimal(lo, b) or not leq_minimal(b, lo)  # lo is minimal
                if leq_minimal(b, lo):
                    assert b == lo or b.nu() == lo.nu()
                if hi is not None:
                    assert leq_minimal(b, hi)
            if hi is not None:
                assert contains(cell, hi)


# exponents of each group's grid, fine enough to hold every edge below
_GRIDS = {
    GroupKind.INT: range(-4, 5),
    GroupKind.RAT: [_canon_exp(Fraction(k, 12)) for k in range(-48, 49)],
    GroupKind.RAT3: [_canon_exp(Fraction(k, 9)) for k in range(-36, 37)],
}
# doubled bounds and nu-class exponents, in a cell's group or not
_BOUNDS = [-3, -2, 0, 1, 3, 4, Fraction(7, 2), Fraction(-5, 3), Fraction(2, 3), Fraction(1, 2)]


@pytest.mark.parametrize("rank", (0, 1))
@pytest.mark.parametrize("kind", list(GroupKind))
def test_set_max_is_the_largest_member(kind, rank):
    """On hand-built cells of every kind, set_max is the maximum under the
    minimal order of the cell's members in a grid that holds every edge.

    A dense group has no maximum below an open edge, nor below a closed one
    that is no exponent, but a finite grid still has a largest member; there
    set_max is None, and the group's pick between that member and the edge
    is a larger member.
    """
    sf = Semifield(kind, rank)
    grid = element_grid(sf, _GRIDS[kind])
    cells = [Singleton(x) for x in grid[::7]]
    cells += [cls(b) for cls in (NuLeqDoubled, NuLtDoubled) for b in _BOUNDS]
    cells += [NuClass(e) for e in _GRIDS[kind][::5]]
    for cell in cells:
        members = [x for x in grid if contains(cell, x)]
        tops = [m for m in members if all(leq_minimal(x, m) for x in members)]
        top = set_max(sf, cell)
        if top is not None:
            assert tops == [top], cell
        else:
            assert kind is not GroupKind.INT and isinstance(cell, (NuLeqDoubled, NuLtDoubled)), cell
            (largest,) = tops
            above = sf.ghost(sf.between(largest.exp, Fraction(cell.bound2) / 2))
            assert contains(cell, above) and not leq_minimal(above, largest), cell


# -- tables ---------------------------------------------------------------------


def test_table_examples():
    q = QuadraticForm(INT, (t(2), t(4)), {(0, 1): t(3)})
    table = companion_table(q)
    assert table.cell(0, 0) == NuLeqDoubled(4)
    assert table.cell(1, 1) == NuLeqDoubled(8)
    assert table.cell(0, 1) == table.cell(1, 0) == NuLeqDoubled(6)

    rigid = QuadraticForm(INT, (ZERO, ZERO), {(0, 1): t(9)})
    tab2 = companion_table(rigid)
    assert tab2.cell(0, 0) == Singleton(ZERO)
    assert tab2.cell(0, 1) == Singleton(t(9))

    one = companion_table(QuadraticForm(INT, (g(1),)))
    assert one.cell(0, 0) == NuLeqDoubled(2)


def test_table_cells_depend_only_on_their_pair():
    rng = random.Random(2)
    for sf in kind_semifields():
        for _ in range(15):
            q = random_form(rng, sf, 4)
            table = companion_table(q)
            for i in range(4):
                for j in range(i + 1, 4):
                    sub = QuadraticForm(sf, (q.diag[i], q.diag[j]), {(0, 1): q.beta(i, j)})
                    assert companion_table(sub).cell(0, 1) == table.cell(i, j)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_diagonal_cell_oracle_agreement(data):
    sf = Semifield(data.draw(st.sampled_from(list(GroupKind))), data.draw(st.sampled_from((0, 1))))
    alpha = data.draw(wide_element_strategy(sf))
    cell = pair_analysis(sf, alpha, alpha, alpha.nu())[1]
    probes = boundary_probe_elements(sf, None, cell)
    assert [contains(cell, b) for b in probes] == diagonal_membership_oracle(sf, alpha, probes)


def test_build_companion():
    q = QuadraticForm(INT, (t(2), t(4)), {(0, 1): t(3)})
    table = companion_table(q)
    allmin = build_companion(table, {(0, 0): ZERO, (0, 1): ZERO, (1, 1): ZERO})
    assert allmin.gram == ((ZERO, ZERO), (ZERO, ZERO))
    balanced = build_companion(table, {(0, 0): g(2), (0, 1): t(3), (1, 1): g(4)})
    assert balanced.gram == balanced_companion(q).gram
    with pytest.raises(PreconditionError):
        build_companion(table, {(0, 0): ZERO, (0, 1): t(4), (1, 1): ZERO})
    with pytest.raises(PreconditionError):
        build_companion(table, {(0, 0): ZERO})
    zero_table = companion_table(QuadraticForm(INT, (ZERO, ZERO)))
    only = build_companion(zero_table, {(0, 0): ZERO, (0, 1): ZERO, (1, 1): ZERO})
    assert only.gram == ((ZERO, ZERO), (ZERO, ZERO))


def test_built_companions_satisfy_expansion_rule():
    rng = random.Random(4)
    for sf in kind_semifields(1):
        for _ in range(12):
            n = rng.randint(1, 3)
            q = random_form(rng, sf, n)
            table = companion_table(q)
            choice = {}
            for i in range(n):
                for j in range(i, n):
                    cell = table.cell(i, j)
                    options = [b for b in boundary_probe_elements(sf, None, cell) if contains(cell, b)]
                    choice[(i, j)] = rng.choice(options)
            b = build_companion(table, choice)
            assert is_companion(q, b)
            for i in range(n):
                assert leq_minimal(b.gram[i][i].nu(), q.diag[i].nu())
            for _ in range(15):
                x = random_vector(rng, sf, n)
                y = random_vector(rng, sf, n)
                xy = tuple(u + v for u, v in zip(x, y))
                assert eval_quadratic(q, xy) == eval_quadratic(q, x) + eval_quadratic(q, y) + eval_bilinear(b, x, y)


# -- predicates -------------------------------------------------------------------


def test_is_rigid_examples():
    assert is_rigid(QuadraticForm(INT, (ZERO, ZERO), {(0, 1): t(9)}))
    assert not is_rigid(QuadraticForm(INT, (t(2), t(4)), {(0, 1): t(9)}))
    assert not is_rigid(QuadraticForm(INT, (t(1),)))
    assert is_rigid(QuadraticForm(INT, (ZERO,)))


def test_rigid_iff_all_cells_singleton():
    rng = random.Random(5)
    for sf in kind_semifields():
        for _ in range(40):
            q = random_form(rng, sf, rng.randint(1, 4), zero_p=0.5)
            table = companion_table(q)
            all_singleton = all(
                isinstance(table.cell(i, j), Singleton) for i in range(q.n) for j in range(i, q.n)
            )
            assert is_rigid(q) == all_singleton


def test_is_rigid_at_pair_examples():
    # a pair is rigid when its cross coefficient is forced: a singleton cell
    assert pair_analysis(INT, t(0), t(0), t(1))[1] == Singleton(t(1))
    assert not isinstance(pair_analysis(INT, g(0), g(1), t(1))[1], Singleton)
    assert pair_analysis(RAT, RAT.tangible(0), RAT.tangible(0), RAT.tangible(1))[1] == Singleton(RAT.tangible(1))
    assert pair_analysis(INT, ZERO, t(3), ZERO)[1] == Singleton(ZERO)


def test_is_rigid_at_pair_matches_singleton():
    """A cell is a singleton iff the oracle admits exactly one probe element."""
    rng = random.Random(6)
    for sf in kind_semifields(1):
        for a1, a2, a in pair_triples_for_kind(rng, sf, total=400):
            cell = pair_analysis(sf, a1, a2, a)[1]
            probes = list(set(boundary_probe_elements(sf, a, cell)))
            admitted = [b for b, ok in zip(probes, companion_membership_oracle(sf, a1, a2, a, probes)) if ok]
            assert (len(admitted) == 1) == isinstance(cell, Singleton), (a1, a2, a, admitted)


def test_is_quasilinear_examples():
    assert is_quasilinear(QuadraticForm(INT, (t(0), t(0)), {(0, 1): t(0)}))
    assert not is_quasilinear(QuadraticForm(INT, (t(0), t(0)), {(0, 1): t(1)}))
    assert is_quasilinear(QuadraticForm(INT, (g(0), g(1)), {(0, 1): t(1)}))
    assert is_quasilinear(QuadraticForm(INT, (t(5),)))  # any diagonal form


def test_quasilinear_matches_zero_membership_and_function():
    rng = random.Random(7)
    for sf in kind_semifields():
        for a1, a2, a in pair_triples_for_kind(rng, sf, total=300):
            cell = pair_analysis(sf, a1, a2, a)[1]
            assert [contains(cell, ZERO)] == companion_membership_oracle(sf, a1, a2, a, [ZERO])
        for _ in range(25):
            q = random_form(rng, sf, 3)
            table = companion_table(q)
            by_cells = all(contains(table.cell(i, j), ZERO) for i in range(3) for j in range(i + 1, 3))
            assert is_quasilinear(q) == by_cells
            if is_quasilinear(q):
                for _ in range(15):
                    x = random_vector(rng, sf, 3)
                    y = random_vector(rng, sf, 3)
                    xy = tuple(u + v for u, v in zip(x, y))
                    assert eval_quadratic(q, xy) == eval_quadratic(q, x) + eval_quadratic(q, y)


# -- cell structure invariants ------------------------------------------------------


def _assert_convex(cell, probes):
    """Pairwise: a probe that lies between two members in the minimal order is a member."""
    members = [b for b in probes if contains(cell, b)]
    for mid in probes:
        if any(leq_minimal(b, mid) for b in members) and any(leq_minimal(mid, b) for b in members):
            assert contains(cell, mid), (cell, mid)


def _assert_closed_once_meeting_ghosts(cell, probes):
    """Pairwise: once a member is zero or a ghost, every sum of two members is a member."""
    members = [b for b in probes if contains(cell, b)]
    if any(m.is_ghost or m.is_zero for m in members):
        for b1 in members:
            for b2 in members:
                assert contains(cell, b1 + b2), (cell, b1, b2)


@st.composite
def _any_cell_batteries(draw):
    """Any cell of the four kinds (illegal exponents and fibered singletons
    included) with its battery, plus up to 8 extra or duplicated probes."""
    sf = Semifield(draw(st.sampled_from(list(GroupKind))), draw(st.sampled_from((0, 1))))
    cell = draw(any_cells(sf))
    probes = list(boundary_probe_elements(sf, draw(st.one_of(st.none(), any_elements(sf))), cell))
    for extra in draw(st.lists(st.one_of(any_elements(sf), st.sampled_from(probes)), max_size=8)):
        probes.insert(draw(st.integers(0, len(probes))), extra)
    return cell, probes


def _on_every_battery(seed, check):
    """check(cell, probes) on the closed-form cells of seeded random triples
    with their batteries, then on 500 drawn :func:`_any_cell_batteries`."""
    rng = random.Random(seed)
    for sf in kind_semifields():
        for _ in range(60):
            a1, a2, a = uniform_triple(rng, sf)
            cell = pair_analysis(sf, a1, a2, a)[1]
            check(cell, boundary_probe_elements(sf, a, cell))

    @settings(max_examples=500, deadline=None)
    @given(_any_cell_batteries())
    def on_any_cell(battery):
        check(*battery)

    on_any_cell()


def test_cells_are_convex():
    _on_every_battery(8, _assert_convex)


def test_ghost_meeting_cells_closed_under_addition():
    _on_every_battery(9, _assert_closed_once_meeting_ghosts)


def test_quasilinear_cells_sum_rule_and_ghost_stability():
    rng = random.Random(10)
    for sf in kind_semifields():
        checked = 0
        while checked < 40:
            a1, a2, a = uniform_triple(rng, sf)
            cell = pair_analysis(sf, a1, a2, a)[1]
            if not contains(cell, ZERO):
                continue
            checked += 1
            probes = boundary_probe_elements(sf, a, cell)
            for b1 in probes:
                assert contains(cell, b1) == contains(cell, b1.nu())
                for b2 in probes:
                    both = contains(cell, b1) and contains(cell, b2)
                    assert both == contains(cell, b1 + b2), (a1, a2, a, b1, b2)


def test_base_change_scaling_equivariance():
    rng = random.Random(11)
    for sf in kind_semifields(1):
        for _ in range(60):
            a1, a2, a = uniform_triple(rng, sf)
            c1 = random_tangible(rng, sf, -3, 3)
            c2 = random_tangible(rng, sf, -3, 3)
            cell = pair_analysis(sf, a1, a2, a)[1]
            scaled = pair_analysis(sf, c1 * c1 * a1, c2 * c2 * a2, c1 * c2 * a)[1]
            for b in boundary_probe_elements(sf, a, cell):
                assert contains(cell, b) == contains(scaled, c1 * c2 * b)


# -- functional equality ---------------------------------------------------------------


def test_functional_equality_examples():
    q = QuadraticForm(INT, (t(2), t(4)), {(0, 1): t(3)})
    assert functionally_equal(q, q)
    ghosted = QuadraticForm(INT, (t(2), t(4)), {(0, 1): g(3)})
    assert functionally_equal(q, ghosted)
    r1 = QuadraticForm(INT, (t(0), t(0)), {(0, 1): t(1)})
    r2 = QuadraticForm(INT, (t(0), t(0)), {(0, 1): g(1)})
    assert not functionally_equal(r1, r2)


def test_equality_is_symmetric_and_matches_evaluation():
    rng = random.Random(12)
    for sf in kind_semifields():
        for _ in range(40):
            n = rng.randint(1, 3)
            q1 = random_form(rng, sf, n)
            q2 = random_form(rng, sf, n)
            if rng.random() < 0.5:
                # perturb q1 into a candidate-equal form
                table = companion_table(q1)
                upper = {}
                for i in range(n):
                    for j in range(i + 1, n):
                        cell = table.cell(i, j)
                        opts = [b for b in boundary_probe_elements(sf, None, cell) if contains(cell, b)]
                        upper[(i, j)] = rng.choice(opts)
                q2 = QuadraticForm(sf, q1.diag, upper)
            verdict = functionally_equal(q1, q2)
            assert verdict == functionally_equal(q2, q1)
            witness = equality_witness(q1, q2)
            if verdict:
                assert witness is None
                for _ in range(30):
                    x = random_vector(rng, sf, n)
                    assert eval_quadratic(q1, x) == eval_quadratic(q2, x)
            else:
                assert witness is not None
                assert eval_quadratic(q1, witness) != eval_quadratic(q2, witness)


def test_equality_verdict_and_witness_agree():
    rng = random.Random(31)
    for sf in kind_semifields(0) + kind_semifields(1):
        for _ in range(60):
            n = rng.randint(1, 4)
            q1 = random_form(rng, sf, n)
            if rng.random() < 0.6:
                # q1's diagonal, q2's cross coefficients mostly drawn from q1's cells
                table = companion_table(q1)
                upper = {}
                for i in range(n):
                    for j in range(i + 1, n):
                        cell = table.cell(i, j)
                        opts = [b for b in boundary_probe_elements(sf, q1.beta(i, j), cell) if contains(cell, b)]
                        upper[(i, j)] = rng.choice(opts) if rng.random() < 0.8 else random_vector(rng, sf, 1)[0]
                q2 = QuadraticForm(sf, q1.diag, upper)
            else:
                q2 = random_form(rng, sf, n)
            witness = equality_witness(q1, q2)
            assert functionally_equal(q1, q2) == (witness is None)
            if witness is not None:
                assert eval_quadratic(q1, witness) != eval_quadratic(q2, witness)


def test_witness_skips_admissible_differences():
    """Pairs (1,2) and (1,3) differ but are admissible; the witness sits on
    the inadmissible pair (2,3) and is the vector the full pair scan gave."""
    q1 = QuadraticForm(INT, (t(0), t(0), t(0)), {(0, 1): t(-1), (0, 2): t(-2), (1, 2): t(-1)})
    q2 = QuadraticForm(INT, (t(0), t(0), t(0)), {(0, 1): ZERO, (0, 2): g(-2), (1, 2): t(1)})
    table = companion_table(q1)
    assert [contains(table.cell(i, j), q2.beta(i, j)) for i, j in ((0, 1), (0, 2), (1, 2))] == [True, True, False]
    assert not functionally_equal(q1, q2)
    assert equality_witness(q1, q2) == (ZERO, t(-1), t(0))


def test_witness_on_a_pair_separates_the_whole_forms():
    """The witness is found on the rank-2 restrictions to its pair; it still
    has the forms' length, lives on that pair, and separates the whole forms,
    whose other coefficients are nonzero."""
    rng = random.Random(43)
    for sf in kind_semifields(0) + kind_semifields(1):
        for _ in range(12):
            n = rng.randint(5, 12)
            q1 = random_form(rng, sf, n, upper_density=0.9, zero_p=0.1)
            upper = {(i, j): q1.cross[i][j] for i in range(n) for j in range(i + 1, n)}
            i, j = sorted(rng.sample(range(n), 2))
            upper[(i, j)] = random_vector(rng, sf, 1, zero_p=0.3)[0]
            q2 = QuadraticForm(sf, q1.diag, upper)
            witness = equality_witness(q1, q2)
            assert (witness is None) == functionally_equal(q1, q2)
            if witness is not None:
                assert len(witness) == n and {k for k, x in enumerate(witness) if not x.is_zero} == {i, j}
                assert eval_quadratic(q1, witness) != eval_quadratic(q2, witness)


def test_companion_predicates_reject_another_semifield():
    """A Gram matrix over another group is refused, not read cell by cell."""
    q = QuadraticForm(INT, (t(1), t(1)))
    b = SymmetricBilinearForm(RAT, ((RAT.ghost(1), RAT.tangible(Fraction(1, 2))), (RAT.tangible(Fraction(1, 2)), RAT.ghost(1))))
    for predicate in (is_companion, is_balanced_pair, rigid_complement):
        with pytest.raises(PreconditionError) as info:
            predicate(q, b)
        assert info.value.precondition == "dimension match required"


def test_equality_rejects_mismatched_shapes():
    q1 = QuadraticForm(INT, (t(1),))
    q2 = QuadraticForm(INT, (t(1), t(2)))
    with pytest.raises(PreconditionError):
        functionally_equal(q1, q2)
    with pytest.raises(PreconditionError):
        functionally_equal(q1, QuadraticForm(RAT, (RAT.tangible(1),)))


def _table_scan_difference(q1: QuadraticForm, q2: QuadraticForm):
    """The pair the whole-table scan finds: the first unequal diagonal
    coefficient, else the first cell of q1's companion table that does not
    hold q2's coefficient, in row-major order, else None."""
    for i, (a1, a2) in enumerate(zip(q1.diag, q2.diag)):
        if a1 != a2:
            return i, i
    table = companion_table(q1)
    for i in range(q1.n):
        for j in range(i + 1, q1.n):
            if not contains(table.cell(i, j), q2.beta(i, j)):
                return i, j
    return None


def _elements_at(sf: Semifield, exp):
    """The tangibles of one exponent, of any fiber."""
    return st.tuples(*[st.sampled_from((1, -1))] * sf.fiber_rank).map(lambda fiber: sf.tangible(exp, fiber))


@st.composite
def _scheme_pairs(draw):
    """q1 over any group, fiber rank 0-2 and n 1-8, and q2: q1 with up to three
    cross coefficients replaced, each by any element, by a member of its
    cell, by one of the cell's boundary probes or by an element of the same
    exponent, now and then one diagonal coefficient replaced, and now and
    then every coefficient rebuilt as an equal but distinct element."""
    sf = Semifield(draw(st.sampled_from(list(GroupKind))), draw(st.integers(0, 2)))
    n = draw(st.integers(1, 8))
    elems = element_strategy(sf)
    diag = draw(st.lists(elems, min_size=n, max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    upper = {ij: draw(elems) for ij in pairs}
    q1 = QuadraticForm(sf, diag, upper)
    table = companion_table(q1)
    upper2, diag2 = dict(upper), list(diag)
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True)) if pairs else ():
        beta, how = upper[i, j], draw(st.sampled_from(("any", "member", "probe", "twin")))
        if how == "any" or (how == "twin" and beta.is_zero):
            upper2[i, j] = draw(elems)
        elif how == "twin":  # the same exponent, any tag and fiber
            upper2[i, j] = draw(st.one_of(st.just(sf.ghost(beta.exp)), _elements_at(sf, beta.exp)))
        else:
            cell = table.cell(i, j)
            probes = [beta, *boundary_probe_elements(sf, beta, cell)]
            upper2[i, j] = draw(st.sampled_from([b for b in probes if how == "probe" or contains(cell, b)]))
    if draw(st.integers(0, 4)) == 0:
        diag2[draw(st.integers(0, n - 1))] = draw(elems)
    if draw(st.booleans()):
        diag2 = [Element(a.tag, a.exp, a.fiber) for a in diag2]
        upper2 = {ij: Element(b.tag, b.exp, b.fiber) for ij, b in upper2.items()}
    return q1, QuadraticForm(sf, diag2, upper2)


@settings(max_examples=300, deadline=None)
@given(_scheme_pairs())
def test_equality_matches_the_table_scan_property(data):
    """``functionally_equal`` and ``equality_witness`` decide only the pairs where
    the schemes differ; they answer what the whole-table scan answers, and the
    witness is the one of the pair that scan finds: a unit vector for a
    diagonal, else the rank-2 witness of the two coefficients placed at i and j."""
    q1, q2 = data
    sf, n = q1.sf, q1.n
    found = _table_scan_difference(q1, q2)
    assert functionally_equal(q1, q2) == (found is None)
    witness = equality_witness(q1, q2)
    if found is None:
        assert witness is None
        return
    i, j = found
    if i == j:
        expected = tuple(sf.one if k == i else ZERO for k in range(n))
    else:
        r1, r2 = (QuadraticForm(sf, (q.diag[i], q.diag[j]), {(0, 1): q.cross[i][j]}) for q in (q1, q2))
        lam, one = equality_witness(r1, r2)
        expected = tuple(lam if k == i else (one if k == j else ZERO) for k in range(n))
    assert witness == expected
    assert eval_quadratic(q1, witness) != eval_quadratic(q2, witness)


# -- oracle equivalence (the big differential check lives in acceptance) -----------------


@pytest.mark.parametrize("rank", [0, 1])
def test_closed_form_matches_oracle_sampled(rank):
    rng = random.Random(13)
    for sf in kind_semifields(rank):
        for a1, a2, a in pair_triples_for_kind(rng, sf, total=150):
            cell = pair_analysis(sf, a1, a2, a)[1]
            probes = boundary_probe_elements(sf, a, cell)
            verdicts = companion_membership_oracle(sf, a1, a2, a, probes)
            for beta, by_oracle in zip(probes, verdicts):
                assert contains(cell, beta) == by_oracle, (sf.group, a1, a2, a, beta)


def test_dense_gap_rejection_needs_fine_resolution():
    # Violating scalars for these rejections live strictly between adjacent
    # ninth-step exponents, so only a finer 3-adic probe can witness them;
    # the oracle's between-point construction must drill down far enough.
    cases = [
        ("g:-11/3", "g:2", "0", "t:-7/9"),
        ("g:-71/9", "g:22/3", "g:-2/3", "g:-2/9"),
        ("g:-14/9", "g:-3", "g:-5", "t:-20/9"),
    ]
    for sa1, sa2, sa, sb in cases:
        a1, a2, a, beta = (RAT3.parse_element(x) for x in (sa1, sa2, sa, sb))
        cell = pair_analysis(RAT3, a1, a2, a)[1]
        assert isinstance(cell, NuLtDoubled)
        # the ghost just below the bound is still inside
        bound = Fraction(cell.bound2) / 2
        inside = RAT3.ghost(RAT3.between(bound - Fraction(1, 3), bound))
        assert [contains(cell, beta), contains(cell, inside)] == [False, True]
        assert companion_membership_oracle(RAT3, a1, a2, a, [beta]) == [False]
        assert companion_membership_oracle(RAT3, a1, a2, a, [beta, inside]) == [False, True]


def _names_reached(*functions) -> tuple[set[str], set[str]]:
    """Global and attribute names used by the functions, following every
    call into another function of the same module, nested code included."""
    module = sys.modules[functions[0].__module__]
    visited: set[str] = set()
    names: set[str] = set()
    todo = list(functions)
    while todo:
        fn = todo.pop()
        if fn.__name__ in visited:
            continue
        visited.add(fn.__name__)
        codes = [fn.__code__]
        while codes:
            code = codes.pop()
            codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            for name in code.co_names:
                names.add(name)
                target = getattr(module, name, None)
                if isinstance(target, types.FunctionType) and target.__module__ == module.__name__:
                    todo.append(target)
    return visited, names


def test_oracle_shares_no_code_with_the_case_analysis():
    """The oracles, and the core that ``check`` calls, must stay independent of the closed form they validate."""
    closed_form = {
        "pair_analysis", "contains", "holds", "halvable", "_first_difference", "cell_boundary",
        "set_min", "set_max", "companion_table", "CompanionSet", "CompanionTable",
        "Singleton", "NuLeqDoubled", "NuLtDoubled", "NuClass", "PairBranch",
        "build_companion", "is_companion", "is_balanced_pair", "is_quasilinear", "functionally_equal",
    }
    for start in ((triple_membership_oracle,), (companion_membership_oracle, diagonal_membership_oracle)):
        reached, names = _names_reached(*start)
        assert {"triple_membership_oracle", "_probe_exponents_for", "_tie_points", "_probe_exponents"} <= reached
        assert "scaled_rules" in names  # the group's integer rules, looked up once per probe set
        assert not names & closed_form, names & closed_form


@st.composite
def _mixed_battery_inputs(draw):
    """A semifield of any group and fiber rank 0, 1 or 2, a rank-2 triple
    (alpha1 = alpha2 = 0 now and then, so every probe's lambda-part is zero)
    and a battery mixing drawn elements, zeros, duplicates, elements at
    alpha's exponent and a boundary battery of a cell of any kind."""
    sf = Semifield(draw(st.sampled_from(list(GroupKind))), draw(st.sampled_from((0, 1, 2))))
    elems = st.one_of(element_strategy(sf), wide_element_strategy(sf))
    a1, a2, a = draw(elems), draw(elems), draw(elems)
    if draw(st.integers(0, 4)) == 0:
        a1 = a2 = ZERO
    at_alpha = [ZERO]
    if not a.is_zero:
        at_alpha += [a, a.nu(), sf.tangible(a.exp), sf.tangible(a.exp, (-1,) * sf.fiber_rank)]
    betas = draw(st.lists(st.one_of(elems, st.sampled_from(at_alpha)), max_size=8))
    exp = elems.filter(lambda x: not x.is_zero).map(lambda x: x.exp)
    cell = draw(st.one_of(
        st.just(pair_analysis(sf, a1, a2, a)[1]),
        st.just(Singleton(ZERO)),
        elems.map(Singleton),
        exp.map(NuClass),
        exp.map(NuLeqDoubled),
        exp.map(NuLtDoubled),
    ))
    betas += boundary_probe_elements(sf, draw(st.sampled_from((a, None))), cell)
    betas += draw(st.lists(st.sampled_from(betas), max_size=4))
    return sf, a1, a2, a, draw(st.permutations(betas))


@settings(max_examples=300, deadline=None)
@given(_mixed_battery_inputs())
# alpha1 = alpha2 = 0: base is zero at every probe, and only alpha itself survives
@example(data=(INT1, ZERO, ZERO, INT1.tangible(2, (-1,)), [
    INT1.tangible(2, (-1,)), INT1.ghost(2), ZERO, INT1.tangible(2, (1,)), INT1.tangible(-1, (-1,))]))
# below t:5 the left side is t:3, then g:3, then base itself: t:5 is refuted, t:3 (alpha) survives
@example(data=(INT, t(0), t(0), t(3), [t(5), t(3), g(3), t(4), ZERO]))
# base is t:1 at both lowest probes: only the tie there refutes t:1 and g:1
@example(data=(INT, t(0), t(1), ZERO, [t(1), g(1), t(0), g(0), t(-1), ZERO]))
# duplicated candidates, zeros among them, in a dense group
@example(data=(RAT, RAT.tangible(1), RAT.ghost(-1), RAT.tangible(-1), [
    RAT.ghost(0), ZERO, RAT.tangible(-2), RAT.ghost(0), ZERO, RAT.tangible(-2), RAT.tangible(Fraction(1, 2)),
    RAT.tangible(Fraction(1, 2))]))
def test_oracle_matches_the_pairwise_reference(data):
    """Deciding each candidate from three per-probe facts (the largest
    exponent of base at which base differs from the left side, the
    exponents at which its ghost does, its least exponent) gives the verdict
    that one sum and one comparison per pair of probe and candidate would."""
    sf, a1, a2, a, betas = data
    assert companion_membership_oracle(sf, a1, a2, a, betas) == membership_oracle_reference(sf, a1, a2, a, betas)
    assert diagonal_membership_oracle(sf, a1, betas) == membership_oracle_reference(sf, a1, a1, a1.nu(), betas)


# -- property-based statement of the flagship invariant ---------------------------


@st.composite
def _membership_inputs(draw, elements=element_strategy):
    """A semifield of fiber rank 0 or 1, a rank-2 triple and a battery of candidates."""
    kind = draw(st.sampled_from(list(GroupKind)))
    rank = draw(st.sampled_from((0, 1)))
    sf = Semifield(kind, rank)
    elems = elements(sf)
    return sf, draw(elems), draw(elems), draw(elems), draw(st.lists(elems, min_size=1, max_size=6))


@settings(max_examples=400, deadline=None)
@given(_membership_inputs())
def test_oracle_equivalence_property(data):
    sf, a1, a2, a, betas = data
    cell = pair_analysis(sf, a1, a2, a)[1]
    assert [contains(cell, b) for b in betas] == companion_membership_oracle(sf, a1, a2, a, betas)


@settings(max_examples=200, deadline=None)
@given(_membership_inputs(wide_element_strategy))
def test_batch_verdicts_equal_one_beta_verdicts_property(data):
    """One probe set for a whole battery gives each beta its own verdict."""
    sf, a1, a2, a, drawn = data
    cell = pair_analysis(sf, a1, a2, a)[1]
    betas = drawn + list(boundary_probe_elements(sf, a, cell))
    cross = companion_membership_oracle(sf, a1, a2, a, betas)
    assert cross == [companion_membership_oracle(sf, a1, a2, a, [b])[0] for b in betas]
    assert cross == [contains(cell, b) for b in betas]
    betas = drawn + list(boundary_probe_elements(sf, None, pair_analysis(sf, a1, a1, a1.nu())[1]))
    diagonal = diagonal_membership_oracle(sf, a1, betas)
    assert diagonal == [diagonal_membership_oracle(sf, a1, [b])[0] for b in betas]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_lambda_fiber_never_changes_a_verdict_property(data):
    """The lemma behind the oracle's single fiber: flipping lambda's fiber may
    change both sums, but never whether they coincide."""
    sf = Semifield(data.draw(st.sampled_from(list(GroupKind))), 1)
    a1, a2, a, beta = (data.draw(wide_element_strategy(sf)) for _ in range(4))
    # exponents where a lambda-term ties another summand, beside wide ones
    ties = [x.exp - a1.exp for x in (a, beta) if not (x.is_zero or a1.is_zero)]
    ties += [a2.exp - x.exp for x in (a, beta) if not (x.is_zero or a2.is_zero)]
    if not (a1.is_zero or a2.is_zero):
        ties.append(Fraction(a2.exp - a1.exp, 2))
    wide = wide_element_strategy(sf).filter(lambda x: not x.is_zero).map(lambda x: x.exp)
    legal_ties = [sf.check_exponent(e) for e in ties if sf.legal_exponent(Fraction(e))]
    exp = data.draw(st.one_of(wide, st.sampled_from(legal_ties)) if legal_ties else wide)

    def coincide(fiber):
        lam = sf.tangible(exp, fiber)
        base = lam * a1 + lam.inverse() * a2
        return base + a == base + beta

    assert coincide((1,)) == coincide((-1,))


# -- the probe-set builder on integer coordinates --------------------------------


def _fraction_tie_points(terms):
    """Reference: the tie points as the builder computed them on Fractions."""
    return sorted({Fraction(o2 - o1) / (s1 - s2) for (s1, o1), (s2, o2) in combinations(terms, 2) if s1 != s2})


def _fraction_probe_exponents(sf, criticals):
    """Reference: the probe exponents as the builder computed them on Fractions."""
    if not criticals:
        return [0]
    probes = [_canon_exp(c) for c in criticals if sf.legal_exponent(c)]
    for lo, hi in zip(criticals, criticals[1:]):
        mid = sf.between(lo, hi)
        if mid is not None:
            probes.append(mid)
    probes.append(sf.between(criticals[0] - 2, criticals[0]))
    probes.append(sf.between(criticals[-1], criticals[-1] + 2))
    return sorted(set(probes))


@st.composite
def _wide_lines(draw):
    """A semifield of any group and rank 0 or 1, and 2-20 lines of slope +1, -1 or 0."""
    sf = Semifield(draw(st.sampled_from(list(GroupKind))), draw(st.sampled_from((0, 1))))
    line = st.tuples(st.sampled_from((1, -1, 0)), wide_element_strategy(sf))
    return sf, draw(st.lists(line, min_size=2, max_size=20))


@settings(max_examples=300, deadline=None)
@given(_wide_lines())
def test_integer_probe_set_equals_fraction_probe_set_property(data):
    """Same probe exponents, in the same order and of the same types, as the
    Fraction builder (this keeps equality witnesses byte-identical), and the
    battery's scale clears the denominator of every one of them."""
    sf, levels = data
    terms = {(slope, a.exp) for slope, a in levels if not a.is_zero}
    expected = _fraction_probe_exponents(sf, _fraction_tie_points(terms))
    scale, line_exps, _, scaled = _probe_exponents_for(sf, *levels)
    probes = [_canon_exp(Fraction(p, scale)) for p in scaled]
    assert probes == expected
    assert [type(p) for p in probes] == [type(p) for p in expected]
    assert scale == _common_scale(a for _, a in levels)
    assert all(isinstance(p, int) for p in scaled)
    assert line_exps == [_scaled(a, scale).exp for _, a in levels]


def _fraction_boundary_probe_elements(sf, alpha, cell):
    """Reference: the battery as the builder computed it on Fractions."""
    exps = set()
    boundary = cell_boundary(cell)
    if boundary is not None:
        for offset in (Fraction(k, d) for k in (-1, 0, 1) for d in (1, 2, 3)):
            if fraction_legal(sf, boundary + offset):
                exps.add(boundary + offset)
        for lo, hi in ((boundary - Fraction(1, 3), boundary), (boundary, boundary + Fraction(1, 3))):
            inside = fraction_between(sf, lo, hi)
            if inside is not None:
                exps.add(inside)
    else:
        exps.add(0)
    probes = [ZERO]
    for exp in sorted(Fraction(e) for e in exps):
        probes.append(sf.tangible(exp))
        probes.append(sf.ghost(exp))
        if sf.fiber_rank > 0:
            probes.append(sf.tangible(exp, (-1,) + sf.identity_fiber()[1:]))
    if alpha is not None and not alpha.is_zero:
        probes.append(alpha)
        probes.append(alpha.nu())
    return probes


@st.composite
def _battery_inputs(draw):
    """A semifield, a cell of any kind ({0} included) over wide exponents, and alpha or None."""
    sf = Semifield(draw(st.sampled_from(list(GroupKind))), draw(st.sampled_from((0, 1))))
    elems = wide_element_strategy(sf)
    exp = elems.filter(lambda a: not a.is_zero).map(lambda a: a.exp)
    cell = draw(st.one_of(
        st.just(Singleton(ZERO)),
        elems.map(Singleton),
        exp.map(NuClass),
        exp.map(NuLeqDoubled),
        exp.map(NuLtDoubled),
    ))
    return sf, draw(st.one_of(st.none(), elems)), cell


@settings(max_examples=500, deadline=None)
@given(_battery_inputs())
def test_integer_battery_equals_fraction_battery_property(data):
    """Same elements, in the same order and with the same exponent types, as
    the battery built on Fractions, for every kind of cell."""
    sf, alpha, cell = data
    probes = boundary_probe_elements(sf, alpha, cell)
    expected = _fraction_boundary_probe_elements(sf, alpha, cell)
    assert list(probes) == expected
    assert [type(b.exp) for b in probes] == [type(b.exp) for b in expected]


# -- one integer frame from battery to verdict ------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_lambda_term_is_its_element_raised_property(data):
    """The oracle builds lambda * a as a with its exponent raised by exp(lambda),
    its tag and fiber kept, and lambda^-1 * a as a lowered by it: lambda has
    the identity fiber."""
    sf = Semifield(data.draw(st.sampled_from(list(GroupKind))), data.draw(st.sampled_from((0, 1, 2))))
    a = data.draw(st.one_of(any_elements(sf), wide_element_strategy(sf)))
    x = data.draw(wide_element_strategy(sf).filter(lambda b: not b.is_zero)).exp
    one = sf.one
    for exp, product in ((x, Element(one.tag, x, one.fiber) * a), (-x, Element(one.tag, -x, one.fiber) * a)):
        assert product == (a if a.is_zero else Element(a.tag, a.exp + exp, a.fiber))


def _times(triples, k):
    """The triples with every exponent times k."""
    return [(tag, None if x is None else k * x, fiber) for tag, x, fiber in triples]


@st.composite
def _framed_inputs(draw):
    """A semifield, a rank-2 triple, a cell (its own or any kind), alpha or
    None, and a multiplier k in 1..4 of the cell's battery frame."""
    sf = Semifield(draw(st.sampled_from(list(GroupKind))), draw(st.sampled_from((0, 1))))
    elems = st.one_of(element_strategy(sf), wide_element_strategy(sf))
    a1, a2, a = draw(elems), draw(elems), draw(elems)
    cell = draw(st.one_of(st.just(pair_analysis(sf, a1, a2, a)[1]), any_cells(sf)))
    return sf, a1, a2, a, draw(st.sampled_from((a, None))), cell, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(_framed_inputs())
def test_a_battery_decides_the_same_at_any_frame_that_clears_it_property(data):
    """A battery's triples are its elements held at its frame F, ``holds`` of
    the cell held at F on them is ``contains`` on the elements, and the
    oracle core, asked about the triples scaled by k at k * F, gives both
    public oracles' verdicts on the battery and on the list of its elements."""
    sf, a1, a2, a, alpha, cell, k = data
    battery = boundary_probe_elements(sf, alpha, cell)
    elements, frame = list(battery), battery.frame
    assert battery.triples == [(b.tag, None if b.is_zero else b.exp * frame, b.fiber) for b in elements]
    assert all(x is None or isinstance(x, int) for _, x, _ in battery.triples)
    holds = _scaled_cell(cell, frame).holds
    assert [holds(x) for x in battery.triples] == [contains(cell, b) for b in elements]
    scaled = _times(battery.triples, k)
    for line, oracle in (((a1, a2, a), partial(companion_membership_oracle, sf, a1, a2, a)),
                         ((a1, a1, a1.nu()), partial(diagonal_membership_oracle, sf, a1))):
        assert triple_membership_oracle(sf, *line, scaled, k * frame) == oracle(battery) == oracle(elements)


@st.composite
def _rat3_triples(draw):
    sf = Semifield(GroupKind.RAT3, draw(st.sampled_from((0, 1))))
    elems = st.one_of(element_strategy(sf), wide_element_strategy(sf))
    return sf, draw(elems), draw(elems), draw(elems)


@settings(max_examples=300, deadline=None)
@given(_rat3_triples())
# battery frame 36 = 4 * 9, and a pick of this cross cell's probe set needs 27 in the
# scale: 12 * 36 has it, lcm(36, 12 * 1) = 36 does not, and the between rule would raise
@example(data=(RAT3, RAT3.tangible(3), RAT3.tangible(-2), ZERO))
def test_a_rat3_battery_at_its_frame_never_raises_property(data):
    """The oracle's scale, 12 * lcm(F, D), clears every rat3 pick of a battery
    held at k times its frame F, and the oracle agrees with ``holds`` there,
    on the :class:`Battery` itself (k = 1) and on its triples scaled by k."""
    sf, a1, a2, a = data
    for alpha, line in ((a, (a1, a2, a)), (None, (a1, a1, a1.nu()))):
        cell = pair_analysis(sf, *line)[1]
        battery = boundary_probe_elements(sf, alpha, cell)
        holds = _scaled_cell(cell, battery.frame).holds
        expected = [holds(x) for x in battery.triples]
        if alpha is None:
            assert diagonal_membership_oracle(sf, a1, battery) == expected
        else:
            assert companion_membership_oracle(sf, a1, a2, a, battery) == expected
        for k in range(1, 5):
            assert triple_membership_oracle(sf, *line, _times(battery.triples, k), k * battery.frame) == expected


@st.composite
def _framed_reference_inputs(draw):
    """A semifield of any group and fiber rank 0, 1 or 2, a rank-2 triple
    whose diagonal is zero on both sides, on one or on neither, and a
    multiplier k in 1..4 of the battery frame."""
    sf = Semifield(draw(st.sampled_from(list(GroupKind))), draw(st.sampled_from((0, 1, 2))))
    elems = st.one_of(element_strategy(sf), wide_element_strategy(sf))
    nonzero = elems.filter(lambda x: not x.is_zero)
    a1, a2 = draw(st.sampled_from(((ZERO, ZERO), (ZERO, None), (None, ZERO), (None, None))))
    a1 = draw(nonzero) if a1 is None else a1
    a2 = draw(nonzero) if a2 is None else a2
    return sf, a1, a2, draw(elems), draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(_framed_reference_inputs())
def test_the_framed_oracle_matches_the_pairwise_reference_property(data):
    """The oracle core, handed a cell's battery triples scaled by k at k times
    the battery's frame, gives the verdicts of the one-sum-per-pair reference
    on the battery's elements."""
    sf, a1, a2, a, k = data
    for alpha, line in ((a, (a1, a2, a)), (None, (a1, a1, a1.nu()))):
        battery = boundary_probe_elements(sf, alpha, pair_analysis(sf, *line)[1])
        verdicts = triple_membership_oracle(sf, *line, _times(battery.triples, k), k * battery.frame)
        assert verdicts == membership_oracle_reference(sf, *line, list(battery))


@pytest.mark.parametrize("kind", list(GroupKind))
def test_a_large_form_checks_cell_by_cell_against_the_reference(kind, monkeypatch, tmp_path, capsys):
    """On a random 32 x 32 form of fiber rank 1, the oracle verdicts that
    ``cell_disagreements`` computes equal the reference's on every cell's
    frame-1 battery, no cell disagrees with ``contains``, and ``check`` exits 0."""
    sf = Semifield(kind, 1)
    q = random_form(random.Random(0), sf, 32)
    verdicts = []

    def recorded(oracle):
        def call(*args):
            verdicts.append(oracle(*args))
            return verdicts[-1]
        return call

    table = companion_table(q)
    with monkeypatch.context() as patched:
        for name in ("companion_membership_oracle", "diagonal_membership_oracle"):
            patched.setattr(probe_module, name, recorded(getattr(probe_module, name)))
        for i in range(q.n):
            for j in range(i, q.n):
                assert cell_disagreements(q, i, j, table.cell(i, j)) == (
                    len(boundary_probe_elements(sf, None if i == j else q.cross[i][j], table.cell(i, j))), []
                )
    cells = [(i, j) for i in range(q.n) for j in range(i, q.n)]
    assert len(verdicts) == len(cells)
    for (i, j), found in zip(cells, verdicts):
        a1 = q.diag[i]
        if i == j:
            expected = membership_oracle_reference(sf, a1, a1, a1.nu(), boundary_probe_elements(sf, None, table.cell(i, i)))
        else:
            battery = boundary_probe_elements(sf, q.cross[i][j], table.cell(i, j))
            expected = membership_oracle_reference(sf, a1, q.diag[j], q.cross[i][j], battery)
        assert found == expected, (i, j)
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form_to_json(q)))
    assert main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


@st.composite
def _cell_check_inputs(draw):
    """A 2 x 2 form over a semifield of any group and fiber rank 0, 1 or 2,
    one of its cells (i, j), and the cell's own companion set or a mutated
    one of any kind, so that oracle and cell disagree now and then."""
    sf = Semifield(draw(st.sampled_from(list(GroupKind))), draw(st.sampled_from((0, 1, 2))))
    elems = st.one_of(element_strategy(sf), wide_element_strategy(sf))
    q = QuadraticForm(sf, (draw(elems), draw(elems)), {(0, 1): draw(elems)})
    i, j = draw(st.sampled_from(((0, 0), (1, 1), (0, 1))))
    exp = elems.filter(lambda x: not x.is_zero).map(lambda x: x.exp)
    cell = draw(st.one_of(
        st.just(companion_table(q).cell(i, j)),
        any_cells(sf),
        elems.map(Singleton),
        exp.map(NuClass),
        exp.map(NuLeqDoubled),
        exp.map(NuLtDoubled),
    ))
    return q, i, j, cell


RAT3_2 = Semifield(GroupKind.RAT3, 2)


def _member_reference(cell, beta) -> bool:
    """Reference: whether beta lies in the cell, read off the definitions of the four kinds."""
    if isinstance(cell, Singleton):
        return beta == cell.value
    if beta.is_zero:
        return not isinstance(cell, NuClass)
    if isinstance(cell, NuClass):
        return beta.exp == cell.exp
    doubled = 2 * Fraction(beta.exp)
    return doubled <= cell.bound2 if isinstance(cell, NuLeqDoubled) else doubled < cell.bound2


@settings(max_examples=400, deadline=None)
@given(_cell_check_inputs())
@example(data=(QuadraticForm(INT, (t(0), t(0)), {(0, 1): t(0)}), 0, 1, NuLeqDoubled(4)))
@example(data=(QuadraticForm(RAT3_2, (RAT3_2.tangible(Fraction(1, 3)), ZERO), {}), 0, 0, NuLtDoubled(Fraction(2, 3))))
def test_cell_disagreements_match_the_reference_property(data):
    """``cell_disagreements`` gives the size of the battery built on Fractions
    and each of its probes where the pairwise reference oracle and the cell's
    definition disagree; the battery builder, the oracle core and ``holds``
    stay off the reference side.  A diagonal cell is asked at (alpha, alpha, nu(alpha))."""
    q, i, j, cell = data
    a1 = q.diag[i]
    alpha = None if i == j else q.cross[i][j]
    a2, a = (a1, a1.nu()) if alpha is None else (q.diag[j], alpha)
    battery = _fraction_boundary_probe_elements(q.sf, alpha, cell)
    verdicts = membership_oracle_reference(q.sf, a1, a2, a, battery)
    expected = [b for b, ok in zip(battery, verdicts) if _member_reference(cell, b) != ok]
    assert cell_disagreements(q, i, j, cell) == (len(battery), expected)


def test_cell_disagreements_name_the_probes_a_mutated_cell_gets_wrong():
    # the cell of t:0 t:0 with cross term t:0 is 2 exp(beta) <= 0; the mutant admits up to exponent 2
    q = QuadraticForm(INT, (t(0), t(0)), {(0, 1): t(0)})
    assert cell_disagreements(q, 0, 1, NuLeqDoubled(4)) == (9, [t(1), g(1), t(2), g(2)])
    # the diagonal cell of t:1/3 in rat3 is 2 exp(beta) <= 2/3; the mutant leaves out exponent 1/3
    third = Fraction(1, 3)
    q = QuadraticForm(RAT3_2, (RAT3_2.tangible(third), ZERO), {})
    assert cell_disagreements(q, 0, 0, NuLtDoubled(2 * third))[1] == [
        RAT3_2.tangible(third), RAT3_2.ghost(third), RAT3_2.tangible(third, (-1, 1)),
    ]
    assert cell_disagreements(q, 0, 0, companion_table(q).cell(0, 0))[1] == []


def test_check_computes_each_cell_boundary_once(monkeypatch, tmp_path, capsys):
    """One ``cell_boundary`` call per cell: the battery, its frame and the oracle share it."""
    q = random_form(random.Random(0), Semifield(GroupKind.RAT3, 1), 12)
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form_to_json(q)))
    calls = []

    def counted(cell):
        calls.append(cell)
        return cell_boundary(cell)

    for module in [m for name, m in sys.modules.items() if name.startswith("tropquad.")]:
        if getattr(module, "cell_boundary", None) is cell_boundary:
            monkeypatch.setattr(module, "cell_boundary", counted)
    assert main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert len(calls) == q.n * (q.n + 1) // 2


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scaling_exponents_commutes_with_arithmetic_property(data):
    """x -> S * x on every exponent commutes with +, * and inverse and keeps
    equality, for any positive integer S that makes the exponents integers."""
    sf = Semifield(data.draw(st.sampled_from(list(GroupKind))), data.draw(st.sampled_from((0, 1))))
    a = data.draw(wide_element_strategy(sf))
    same_level = [a, a.nu()]
    if not a.is_zero:
        same_level += [sf.tangible(a.exp, (s,) * sf.fiber_rank) for s in (1, -1)]
    b = data.draw(st.one_of(wide_element_strategy(sf), st.sampled_from(same_level)))
    denominators = math.lcm(*(x.exp.denominator for x in (a, b) if not x.is_zero))
    scale = data.draw(st.integers(1, 10**4)) * denominators

    def up(x):
        return _scaled(x, scale)

    assert all(isinstance(x.exp, int) for x in (up(a), up(b)) if not x.is_zero)
    assert up(a + b) == up(a) + up(b)
    assert up(a * b) == up(a) * up(b)
    assert (a == b) == (up(a) == up(b))
    if a.is_tangible:
        assert up(a.inverse()) == up(a).inverse()


@settings(max_examples=200, deadline=None)
@given(_membership_inputs())
def test_scheme_coefficient_always_admissible_property(data):
    sf, a1, a2, a, _ = data
    cell = pair_analysis(sf, a1, a2, a)[1]
    assert contains(cell, a)
    if contains(cell, ZERO):
        assert contains(cell, a.nu())  # ghost of an admissible entry stays admissible
