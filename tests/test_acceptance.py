"""Acceptance suite.

Every check is exact; there are no numeric tolerances anywhere.  Each
criterion prints one final pass line (run with `pytest -s` to see them).
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from tropquad import (
    ZERO,
    GroupKind,
    NuLtDoubled,
    QuadraticForm,
    RationalQuadraticForm,
    Semifield,
    Singleton,
    SupervaluationSpec,
    add_forms,
    apply_supervaluation,
    balanced_companion,
    balanced_companion_of_strop,
    build_companion,
    companion_membership_oracle,
    companion_table,
    contains,
    equality_witness,
    eval_quadratic,
    functionally_equal,
    identity_matrix,
    invert,
    is_companion,
    is_invertible,
    is_quasilinear,
    is_rigid,
    leq_minimal,
    mat_mul,
    pair_analysis,
    pointwise_leq_rigid,
    quasilinear_part,
    rig_contains,
    rig_extrema,
    rigid_complement,
    ring_companion_matrix,
    scale_form,
    stropicalize_bilinear,
    stropicalize_form,
)
from tropquad.companions import PairBranch
from tropquad.probes import boundary_probe_elements

from gen import (
    ALL_KINDS,
    element_grid,
    pair_triples_for_kind,
    random_form,
    random_monomial,
    random_nonmonomial,
    random_ratform,
    random_rational,
    random_vector,
)
from test_matrices import monomial_inverse_search


@pytest.fixture(scope="module")
def triple_batches():
    rng = random.Random(0xACCE97)
    return {kind: pair_triples_for_kind(rng, Semifield(kind), total=1000) for kind in ALL_KINDS}


def test_criterion_1_oracle_equivalence(triple_batches):
    start = time.perf_counter()
    checked = 0
    for kind, triples in triple_batches.items():
        sf = Semifield(kind)
        assert len(triples) >= 1000
        assert any(a.is_zero for _, _, a in triples)
        assert any(x.is_ghost for a1, a2, x in triples for x in (a1, a2, x))
        assert all(-8 <= v.exp <= 8 for tri in triples for v in tri if not v.is_zero)
        for a1, a2, a in triples:
            _, cell = pair_analysis(sf, a1, a2, a)
            probes = boundary_probe_elements(sf, a, cell)
            verdicts = companion_membership_oracle(sf, a1, a2, a, probes)
            for beta, by_oracle in zip(probes, verdicts):
                assert contains(cell, beta) == by_oracle, (kind, a1, a2, a, beta)
            checked += len(probes)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"
    print(f"criterion 1 PASS: {checked} membership probes agree across 3000 triples in {elapsed:.1f}s")


def test_criterion_2_branch_coverage(triple_batches):
    counts = {branch: 0 for branch in PairBranch}
    for kind, triples in triple_batches.items():
        sf = Semifield(kind)
        for a1, a2, a in triples:
            counts[pair_analysis(sf, a1, a2, a)[0]] += 1
    for branch, count in counts.items():
        assert count >= 20, f"{branch} hit only {count} times"
    summary = ", ".join(f"{b.value}={c}" for b, c in counts.items())
    print(f"criterion 2 PASS: {summary}")


def test_criterion_3_arithmetic_laws():
    start = time.perf_counter()
    for kind in ALL_KINDS:
        for rank in (0, 1):
            sf = Semifield(kind, rank)
            grid = element_grid(sf, range(-4, 5))
            e = sf.e
            for a in grid:
                assert a + a == a.nu() == e * a
                assert a.nu().nu() == a.nu()
                assert a + ZERO == a and a * ZERO == ZERO
                assert leq_minimal(a, a)
            for a, b in itertools.product(grid, repeat=2):
                assert a + b == b + a
                assert a * b == b * a
                assert (a + b) * (a + b) == a * a + b * b
                assert (a + b).nu() == a.nu() + b.nu()
                if leq_minimal(a, b) and leq_minimal(b, a):
                    assert a == b
            for a, b, c in itertools.product(grid, repeat=3):
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
            # positive partial order rules and the ghost restriction
            assert leq_minimal(ZERO, sf.one)
            below = [(x, y) for x in grid for y in grid if leq_minimal(x, y)]
            for x, y in below:
                for z in grid:
                    assert leq_minimal(x + z, y + z)
                    assert leq_minimal(x * z, y * z)
            index = {v: k for k, v in enumerate(grid)}
            rel = {(index[x], index[y]) for x, y in below}
            for x, y in below:
                for z in grid:
                    if (index[y], index[z]) in rel:
                        assert (index[x], index[z]) in rel
            ghosts = [v for v in grid if v.is_ghost or v.is_zero]
            for x, y in itertools.product(ghosts, repeat=2):
                assert leq_minimal(x, y) == (x + y == y)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"arithmetic grid took {elapsed:.1f}s"
    print(f"criterion 3 PASS: exhaustive arithmetic/order laws on all six grids in {elapsed:.1f}s")


def _sample_companion(rng, q, table):
    choice = {}
    for i in range(q.n):
        for j in range(i, q.n):
            cell = table.cell(i, j)
            opts = [
                b
                for b in boundary_probe_elements(q.sf, None, cell)
                if contains(cell, b)
            ]
            choice[(i, j)] = rng.choice(opts)
    return build_companion(table, choice)


def test_criterion_4_decomposition_suite():
    rng = random.Random(0xDEC0)
    forms = 0
    while forms < 500:
        sf = Semifield(rng.choice(ALL_KINDS))
        n = rng.randint(1, 4)
        q = random_form(rng, sf, n)
        forms += 1
        table = companion_table(q)
        ql = quasilinear_part(q)
        companions = [balanced_companion(q), _sample_companion(rng, q, table)]
        rigids = []
        for b in companions:
            rho = rigid_complement(q, b)
            rigids.append(rho)
            assert is_rigid(rho)  # zero diagonal by construction
            back = add_forms(ql, rho)
            assert functionally_equal(q, back)
            for _ in range(100):
                x = random_vector(rng, sf, n)
                assert eval_quadratic(q, x) == eval_quadratic(back, x)
        # uniqueness of the quasilinear part across companions
        assert quasilinear_part(add_forms(ql, rigids[0])) == quasilinear_part(add_forms(ql, rigids[1])) == ql
        # module laws
        q2 = random_form(rng, sf, n)
        lam = rng.choice([sf.one, sf.e, ZERO] + [sf.tangible(rng.randint(-3, 3))])
        assert quasilinear_part(add_forms(q, q2)) == add_forms(ql, quasilinear_part(q2))
        assert quasilinear_part(scale_form(lam, q)) == scale_form(lam, ql)
        rho2 = rig_extrema(q2).minimum
        assert rig_contains(add_forms(q, q2), add_forms(rigids[0], rho2))
        assert rig_contains(scale_form(lam, q), scale_form(lam, rigids[0]))
        # rigidity criterion coherence: zero diagonal iff all cells forced
        all_singleton = all(
            isinstance(table.cell(i, j), Singleton) for i in range(n) for j in range(i, n)
        )
        assert is_rigid(q) == all_singleton
    print(f"criterion 4 PASS: decomposition identity, module laws, and rigidity coherence on {forms} forms")


def test_criterion_5_rig_extrema():
    rng = random.Random(0x8174)
    no_max_seen = 0
    for count in range(200):
        kind = ALL_KINDS[count % 3]
        sf = Semifield(kind)
        n = rng.randint(2, 4)
        q = random_form(rng, sf, n)
        ext = rig_extrema(q)
        table = ext.table
        members = []
        for _ in range(3):
            upper = {}
            for i in range(n):
                for j in range(i + 1, n):
                    cell = table.cell(i, j)
                    opts = [
                        b
                        for b in boundary_probe_elements(sf, None, cell)
                        if contains(cell, b)
                    ]
                    upper[(i, j)] = rng.choice(opts)
            members.append(QuadraticForm(sf, (ZERO,) * n, upper))
        for rho in members:
            assert rig_contains(q, rho)
            assert pointwise_leq_rigid(ext.minimum, rho)
            if ext.maximum is not None:
                assert pointwise_leq_rigid(rho, ext.maximum)
        if kind is GroupKind.INT:
            assert ext.maximum is not None  # discrete groups always close off
        if ext.maximum is None:
            assert kind is not GroupKind.INT
            assert ext.no_max_cell is not None
            assert isinstance(table.cell(*ext.no_max_cell), NuLtDoubled)
            if kind is GroupKind.RAT3:
                no_max_seen += 1
    # force the witness count with targeted dense-gap forms
    sf = Semifield(GroupKind.RAT3)
    while no_max_seen < 20:
        e1 = rng.randint(-4, 4)
        s = Fraction(rng.randint(-9, 9) | 1, 3 ** rng.randint(0, 2))
        q = QuadraticForm(sf, (sf.tangible(e1), sf.tangible(s - e1)))
        ext = rig_extrema(q)
        assert ext.maximum is None and ext.no_max_cell == (0, 1)
        assert isinstance(ext.table.cell(0, 1), NuLtDoubled)
        no_max_seen += 1
    print(f"criterion 5 PASS: extrema sandwich verified; {no_max_seen} dense-gap no-max witnesses")


def test_criterion_6_unique_base_invertibility():
    rng = random.Random(0x0B45E)
    for _ in range(200):
        sf = Semifield(rng.choice(ALL_KINDS), rng.choice((0, 1)))
        n = rng.randint(1, 5)
        m = random_monomial(rng, sf, n)
        gm = m.to_general()
        ident = identity_matrix(sf, n).to_general().rows
        assert is_invertible(gm)
        inv = invert(m).to_general()
        assert mat_mul(gm, inv).rows == ident
        assert mat_mul(inv, gm).rows == ident
    rejected = 0
    for _ in range(200):
        sf = Semifield(rng.choice(ALL_KINDS))
        n = rng.randint(1, 4)
        m = random_nonmonomial(rng, sf, n)
        assert not is_invertible(m)
        assert monomial_inverse_search(m) is None
        rejected += 1
    print(f"criterion 6 PASS: 200 monomial inverses verified two-sided, {rejected} rejections confirmed by search")


def test_criterion_7_stropicalization():
    rng = random.Random(0x57120)
    F = Fraction
    # worked example, frozen
    worked = RationalQuadraticForm(2, {(0, 0): F(1), (0, 1): F(2), (1, 1): F(4)})
    spec2 = SupervaluationSpec(2, "tangible")
    sf = spec2.semifield
    t, g = sf.tangible, sf.ghost
    qphi = stropicalize_form(spec2, worked)
    assert qphi == QuadraticForm(sf, (t(0), t(-2)), {(0, 1): t(-1)})
    assert balanced_companion_of_strop(spec2, worked).gram == ((g(0), t(-1)), (t(-1), g(-2)))
    bphi = stropicalize_bilinear(spec2, ring_companion_matrix(worked))
    assert (bphi.gram[0][0], bphi.gram[1][1]) == (t(-1), t(-3))
    assert is_quasilinear(qphi)

    pairs = 0
    for count in range(100):
        q = random_ratform(rng, rng.randint(1, 3))
        for p in (2, 3, 5):
            spec = SupervaluationSpec(p, rng.choice(("tangible", "signed")))
            for _ in range(4):
                a, b = random_rational(rng), random_rational(rng)
                assert apply_supervaluation(spec, a * b) == apply_supervaluation(spec, a) * apply_supervaluation(spec, b)
                pairs += 1
            qp = stropicalize_form(spec, q)
            # axis identity
            for i in range(q.n):
                c = random_rational(rng)
                vec = tuple(c if k == i else F(0) for k in range(q.n))
                image = tuple(apply_supervaluation(spec, v) for v in vec)
                assert eval_quadratic(qp, image) == apply_supervaluation(spec, q.evaluate(vec))
            # scheme image commutes with reading the scheme
            tri = tuple(tuple(q.coeff(i, j) if i <= j else F(0) for j in range(q.n)) for i in range(q.n))
            image = [[apply_supervaluation(spec, c) for c in row] for row in tri]
            assert tuple(image[i][i] for i in range(q.n)) == qp.diag
            assert all(image[i][j] == qp.beta(i, j) for i in range(q.n) for j in range(i + 1, q.n))
            # both canonical companions pass membership cellwise
            table = companion_table(qp)
            for comp in (balanced_companion_of_strop(spec, q), stropicalize_bilinear(spec, ring_companion_matrix(q))):
                assert is_companion(qp, comp)
                for i in range(q.n):
                    for j in range(i, q.n):
                        assert contains(table.cell(i, j), comp.gram[i][j])
    assert pairs >= 1000
    print(f"criterion 7 PASS: worked example frozen; {pairs} multiplicativity pairs; 100 forms x 3 primes checked")


def test_criterion_8_functional_equality():
    rng = random.Random(0xE81A1)
    INT = Semifield(GroupKind.INT)
    t, g = INT.tangible, INT.ghost
    assert functionally_equal(
        QuadraticForm(INT, (t(2), t(4)), {(0, 1): t(3)}),
        QuadraticForm(INT, (t(2), t(4)), {(0, 1): g(3)}),
    )
    assert not functionally_equal(
        QuadraticForm(INT, (t(0), t(0)), {(0, 1): t(1)}),
        QuadraticForm(INT, (t(0), t(0)), {(0, 1): g(1)}),
    )
    agreements = 0
    for count in range(200):
        sf = Semifield(ALL_KINDS[count % 3])
        n = rng.randint(1, 3)
        q1 = random_form(rng, sf, n)
        if rng.random() < 0.5:
            table = companion_table(q1)
            upper = {}
            for i in range(n):
                for j in range(i + 1, n):
                    cell = table.cell(i, j)
                    opts = [
                        b
                        for b in boundary_probe_elements(sf, None, cell)
                        if contains(cell, b)
                    ]
                    upper[(i, j)] = rng.choice(opts)
            q2 = QuadraticForm(sf, q1.diag, upper)
        else:
            q2 = random_form(rng, sf, n)
        verdict = functionally_equal(q1, q2)
        if verdict:
            for _ in range(500):
                x = random_vector(rng, sf, n)
                assert eval_quadratic(q1, x) == eval_quadratic(q2, x)
        else:
            witness = equality_witness(q1, q2)
            assert witness is not None
            assert eval_quadratic(q1, witness) != eval_quadratic(q2, witness)
        agreements += 1
    print(f"criterion 8 PASS: decision matches evaluation on {agreements} random pairs (500 vectors each when equal)")
