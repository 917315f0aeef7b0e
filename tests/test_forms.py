"""Forms: evaluation, companions on the balanced side, module ops, base change."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropquad import (
    ZERO,
    Element,
    GeneralMatrix,
    GroupKind,
    MonomialMatrix,
    PreconditionError,
    QuadraticForm,
    Semifield,
    SymmetricBilinearForm,
    add_forms,
    balanced_companion,
    change_base,
    eval_bilinear,
    eval_quadratic,
    identity_matrix,
    invert,
    is_rigid,
    off_diagonal_companion,
    pointwise_leq_rigid,
    scale_form,
    semiring_sum,
)

from gen import (
    element_strategy,
    exponent_strategy,
    kind_semifields,
    random_element,
    random_form,
    random_monomial,
    random_nonzero,
    random_rigid_form,
    random_vector,
    wide_element_strategy,
)

INT = Semifield(GroupKind.INT)
t = INT.tangible
g = INT.ghost


def form(diag, upper=None):
    return QuadraticForm(INT, diag, upper or {})


def test_eval_examples():
    q = form((t(2), t(4)), {(0, 1): t(9)})
    assert eval_quadratic(q, (t(1), t(0))) == t(10)
    assert eval_quadratic(q, (ZERO, ZERO)) == ZERO
    ql = form((t(0), t(0)))
    assert eval_quadratic(ql, (t(0), t(0))) == g(0)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_eval_quadratic_is_the_term_by_term_sum_property(data):
    """eval_quadratic's value equals the term-by-term sum of its definition, of
    alpha_i x_i x_i and beta_{i,j} x_i x_j.  Zero-heavy draws make zero terms
    common, and exponents in [-8, 8] make ties common."""
    sf = Semifield(data.draw(st.sampled_from(list(GroupKind))), data.draw(st.integers(0, 2)))
    n = data.draw(st.integers(1, 8))
    elements = st.one_of(st.just(ZERO), element_strategy(sf))
    diag = data.draw(st.lists(elements, min_size=n, max_size=n))
    upper = {(i, j): data.draw(elements) for i in range(n) for j in range(i + 1, n)}
    x = data.draw(st.lists(elements, min_size=n, max_size=n))
    terms = [diag[i] * x[i] * x[i] for i in range(n)]
    terms += [beta * x[i] * x[j] for (i, j), beta in upper.items()]
    assert eval_quadratic(QuadraticForm(sf, diag, upper), x) == semiring_sum(terms)


def _whole_as_fraction(a: Element) -> Element:
    """The same element, with a whole exponent held as Fraction(k, 1)."""
    return Element(a.tag, Fraction(a.exp), a.fiber) if a.exp.__class__ is int else a


def _first_primes(k: int) -> list:
    primes = []
    p = 2
    while len(primes) < k:
        if all(p % d for d in primes if d * d <= p):
            primes.append(p)
        p += 1
    return primes


@st.composite
def _elements_at(draw, sf: Semifield, exp):
    """A tangible of any fiber at the exponent exp, or one time in four a ghost,
    so that a tie of tangible terms, whose sum is a ghost, is common."""
    if draw(st.integers(0, 3)) == 0:
        return sf.ghost(exp)
    return sf.tangible(exp, tuple(draw(st.sampled_from((1, -1))) for _ in range(sf.fiber_rank)))


@st.composite
def _eval_draws(draw, bilinear: bool = False):
    """A semifield, coefficients and vectors of one flavour: narrow or wide
    exponents, whole exponents held as Fraction(k, 1), rat exponents over 200
    coprime denominators, or a tie-heavy draw whose top terms share one
    exponent with mixed tags and fibers: one to three in one row or anywhere,
    or every term whose x_i and y_j are nonzero.  Returns
    (sf, coefficient of (i, j) for i <= j, x, y), with y = x unless ``bilinear``."""
    sf = Semifield(draw(st.sampled_from(list(GroupKind))), draw(st.integers(0, 2)))
    n = draw(st.integers(1, 8 if bilinear else 16))
    # ties twice: a tie is decided by the tag of one product, so few tie draws catch a lost tie
    flavour = draw(st.sampled_from(["narrow", "wide", "whole-as-fraction", "denominators", "ties", "ties"]))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    if flavour == "ties":
        exps = exponent_strategy(sf)
        top = draw(exps)
        steps = exps.map(abs).filter(bool)
        elements = st.one_of(st.just(ZERO), exps.flatmap(lambda e: _elements_at(sf, e)))
        vector = st.lists(elements, min_size=n, max_size=n)
        x = draw(vector)
        y = draw(vector) if bilinear else x
        live = [(i, j) for i, j in pairs if not (x[i].is_zero or y[j].is_zero)]
        tops = set()
        if live:
            shape = draw(st.sampled_from(["one row", "anywhere", "all"]))
            if shape == "one row":
                row = draw(st.sampled_from(live))[0]
                live = [(i, j) for i, j in live if i == row]
            some = st.sets(st.sampled_from(live), min_size=min(2, len(live)), max_size=3)
            tops = set(live) if shape == "all" else draw(some)

        def coefficient(i, j):
            """One that puts the term x_i c y_j at the top exponent if (i, j) is in tops, else zero or below it."""
            if x[i].is_zero or y[j].is_zero or (i, j) not in tops and draw(st.booleans()):
                return ZERO
            return draw(_elements_at(sf, top - x[i].exp - y[j].exp - (0 if (i, j) in tops else draw(steps))))

        return sf, {(i, j): coefficient(i, j) for i, j in pairs}, x, y
    if flavour == "denominators" and sf.group is GroupKind.RAT:
        exps = st.builds(Fraction, st.integers(-10**4, 10**4), st.sampled_from(_first_primes(200)))
        elements = exps.flatmap(lambda e: _elements_at(sf, e))
    elif flavour == "narrow":
        elements = element_strategy(sf)
    else:
        elements = st.one_of(element_strategy(sf), wide_element_strategy(sf))
    if flavour == "whole-as-fraction":
        elements = elements.map(_whole_as_fraction)
    elements = st.one_of(st.just(ZERO), elements)
    vector = st.lists(elements, min_size=n, max_size=n)
    x = draw(vector)
    y = draw(vector) if bilinear else x
    return sf, {(i, j): draw(elements) for i, j in pairs}, x, y


@settings(max_examples=400, deadline=None)
@given(_eval_draws())
def test_eval_quadratic_matches_the_term_by_term_sum_on_wide_whole_and_tied_draws_property(draw):
    """The largest-term pass against the definition, on draws that would break
    a shortcut: wide exponents, whole exponents held as Fraction(k, 1), rat
    exponents over many coprime denominators, and many top terms at one exponent."""
    sf, coeffs, x, _ = draw
    n = len(x)
    diag = [coeffs[i, i] for i in range(n)]
    upper = {(i, j): c for (i, j), c in coeffs.items() if i < j}
    terms = [diag[i] * x[i] * x[i] for i in range(n)]
    terms += [beta * x[i] * x[j] for (i, j), beta in upper.items()]
    assert eval_quadratic(QuadraticForm(sf, diag, upper), x) == semiring_sum(terms)


@settings(max_examples=300, deadline=None)
@given(_eval_draws(bilinear=True))
def test_eval_bilinear_is_the_term_by_term_sum_property(draw):
    """b(x, y) against its definition, the sum of g_{i,j} x_i y_j over all i
    and j, on the same draws; (i, j) and (j, i) are two terms."""
    sf, coeffs, x, y = draw
    n = len(x)
    gram = [[coeffs[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    terms = [gram[i][j] * x[i] * y[j] for i in range(n) for j in range(n)]
    assert eval_bilinear(SymmetricBilinearForm(sf, gram), x, y) == semiring_sum(terms)


def test_eval_quadratic_of_a_form_with_pairwise_coprime_denominators():
    """A 64 x 64 rat form whose 2080 cross exponents and 64 vector exponents have
    2144 pairwise coprime denominators: a frame shared by every term would be
    their product, while each term's own denominator is a product of three."""
    sf, n, rng = Semifield(GroupKind.RAT, 1), 64, random.Random(29)
    dens = iter(_first_primes(2080 + n))

    def element(den):
        exp = Fraction(rng.randint(-8 * den, 8 * den), den)
        return sf.ghost(exp) if rng.random() < 0.5 else sf.tangible(exp, (rng.choice((1, -1)),))

    diag = [element(1) for _ in range(n)]
    upper = {(i, j): element(next(dens)) for i in range(n) for j in range(i + 1, n)}
    x = [element(next(dens)) for _ in range(n)]
    terms = [diag[i] * x[i] * x[i] for i in range(n)]
    terms += [beta * x[i] * x[j] for (i, j), beta in upper.items()]
    assert eval_quadratic(QuadraticForm(sf, diag, upper), x) == semiring_sum(terms)


@pytest.mark.parametrize("build", [identity_matrix])
@pytest.mark.parametrize("n", [2.0, True])
def test_size_builders_refuse_an_n_that_is_not_an_int(build, n):
    """A float used to end in a bare TypeError, and True built a 1 x 1 object."""
    with pytest.raises(ValueError, match=re.escape(f"n must be an int, not {n!r}")):
        build(INT, n)


def test_eval_dimension_mismatch():
    q = form((t(2), t(4)))
    with pytest.raises(PreconditionError):
        eval_quadratic(q, (t(1),))


def test_eval_bilinear_examples():
    b = SymmetricBilinearForm(INT, ((g(0), ZERO), (ZERO, g(0))))
    assert eval_bilinear(b, (t(0), ZERO), (t(0), ZERO)) == g(0)
    b2 = SymmetricBilinearForm(INT, ((ZERO, t(9)), (t(9), ZERO)))
    assert eval_bilinear(b2, (t(1), ZERO), (ZERO, t(0))) == t(10)
    assert eval_bilinear(b2, (t(1), t(5)), (ZERO, ZERO)) == ZERO


def test_gram_must_be_symmetric():
    with pytest.raises(ValueError):
        SymmetricBilinearForm(INT, ((ZERO, t(1)), (t(2), ZERO)))


def test_gram_names_its_first_asymmetric_entry():
    """Asymmetric at (0,2) and (1,2): the error names (0,2), the first in row-major order."""
    gram = ((t(0), t(1), t(2)), (t(1), t(0), t(3)), (t(5), t(4), t(0)))
    with pytest.raises(ValueError) as info:
        SymmetricBilinearForm(INT, gram)
    assert str(info.value) == "gram matrix not symmetric at (0,2)"


def test_gram_accepts_equal_but_distinct_mirror_entries():
    """The transpose compare skips an entry that is its own mirror; one whose
    mirror is another, equal object is compared by value and passes."""
    twin = Element("ghost", Fraction(2, 1))
    assert twin == g(2) and twin is not g(2)
    b = SymmetricBilinearForm(INT, ((ZERO, g(2), t(1)), (twin, ZERO, ZERO), (t(1), ZERO, g(0))))
    assert b.gram[0][1] == b.gram[1][0] and b.gram[1][0] is twin


def test_balanced_companion_examples():
    q = form((t(2), t(4)), {(0, 1): t(9)})
    b = balanced_companion(q)
    assert b.gram == ((g(2), t(9)), (t(9), g(4)))
    assert balanced_companion(form((ZERO, ZERO))).gram == ((ZERO, ZERO), (ZERO, ZERO))
    assert balanced_companion(QuadraticForm(INT, (g(1),))).gram == ((g(1),),)


def test_add_scale_examples():
    q = form((t(2), t(4)), {(0, 1): t(9)})
    assert add_forms(q, form((ZERO, ZERO))) == q
    assert scale_form(INT.one, q) == q
    assert add_forms(form((t(0),)), form((t(0),))) == QuadraticForm(INT, (g(0),))


def test_add_is_pointwise():
    rng = random.Random(2)
    for sf in kind_semifields(1):
        for _ in range(20):
            q1 = random_form(rng, sf, 3)
            q2 = random_form(rng, sf, 3)
            s = add_forms(q1, q2)
            lam = random_element(rng, sf)
            sc = scale_form(lam, q1)
            for _ in range(10):
                x = random_vector(rng, sf, 3)
                assert eval_quadratic(s, x) == eval_quadratic(q1, x) + eval_quadratic(q2, x)
                assert eval_quadratic(sc, x) == lam * eval_quadratic(q1, x)


def test_square_homogeneity_and_diagonal_additivity():
    rng = random.Random(3)
    for sf in kind_semifields():
        for _ in range(25):
            q = random_form(rng, sf, 3)
            a = random_element(rng, sf)
            x = random_vector(rng, sf, 3)
            ax = tuple(a * c for c in x)
            assert eval_quadratic(q, ax) == a * a * eval_quadratic(q, x)
            xx = tuple(c + c for c in x)
            assert eval_quadratic(q, xx) == eval_quadratic(q, x) + eval_quadratic(q, x)


def test_expansion_rule_with_balanced_companion():
    rng = random.Random(4)
    for sf in kind_semifields(1):
        for _ in range(25):
            q = random_form(rng, sf, 3)
            b = balanced_companion(q)
            for _ in range(10):
                x = random_vector(rng, sf, 3)
                y = random_vector(rng, sf, 3)
                xy = tuple(u + v for u, v in zip(x, y))
                assert eval_quadratic(q, xy) == eval_quadratic(q, x) + eval_quadratic(q, y) + eval_bilinear(b, x, y)


def test_pointwise_leq_rigid_examples():
    rho = form((ZERO, ZERO), {(0, 1): t(3)})
    rho_g = form((ZERO, ZERO), {(0, 1): g(3)})
    assert pointwise_leq_rigid(rho, rho)
    assert pointwise_leq_rigid(rho, rho_g)
    assert not pointwise_leq_rigid(rho_g, rho)
    with pytest.raises(PreconditionError):
        pointwise_leq_rigid(form((t(1), ZERO)), rho)


def test_pointwise_leq_rigid_matches_functional_order():
    from tropquad import leq_minimal

    rng = random.Random(5)
    for sf in kind_semifields():
        for _ in range(30):
            r1 = random_form(rng, sf, 3, zero_p=1.0)  # zero diagonal
            r2 = random_form(rng, sf, 3, zero_p=1.0)
            claimed = pointwise_leq_rigid(r1, r2)
            sample_ok = all(
                leq_minimal(eval_quadratic(r1, x), eval_quadratic(r2, x))
                for x in (random_vector(rng, sf, 3) for _ in range(25))
            )
            if claimed:
                assert sample_ok
            # evaluating at pairs of unit vectors recovers each coefficient
            basis_ok = True
            for i in range(3):
                for j in range(i + 1, 3):
                    x = tuple(sf.one if k in (i, j) else ZERO for k in range(3))
                    if not leq_minimal(eval_quadratic(r1, x), eval_quadratic(r2, x)):
                        basis_ok = False
            assert claimed == basis_ok


def test_change_base_examples():
    q = form((t(2), t(4)), {(0, 1): t(9)})
    assert change_base(q, identity_matrix(INT, 2)) == q
    scaling = MonomialMatrix(INT, (0, 1), (t(1), t(1)))
    assert change_base(q, scaling) == form((t(4), t(6)), {(0, 1): t(11)})
    swap = MonomialMatrix(INT, (1, 0), (t(0), t(0)))
    assert change_base(q, swap) == form((t(4), t(2)), {(0, 1): t(9)})


def test_change_base_is_composition_with_matrix():
    rng = random.Random(6)
    for sf in kind_semifields(1):
        for _ in range(25):
            n = rng.randint(1, 4)
            q = random_form(rng, sf, n)
            p = random_monomial(rng, sf, n)
            qp = change_base(q, p)
            for _ in range(10):
                x = random_vector(rng, sf, n)
                assert eval_quadratic(qp, x) == eval_quadratic(q, p.apply(x))
            assert change_base(qp, invert(p)) == q


def test_change_base_group_action():
    rng = random.Random(7)
    sf = Semifield(GroupKind.RAT)
    for _ in range(20):
        q = random_form(rng, sf, 3)
        p1 = random_monomial(rng, sf, 3)
        p2 = random_monomial(rng, sf, 3)
        composed = MonomialMatrix(
            sf,
            tuple(p1.perm[p2.perm[j]] for j in range(3)),
            tuple(p1.scales[p2.perm[j]] * p2.scales[j] for j in range(3)),
        )
        assert change_base(change_base(q, p1), p2) == change_base(q, composed)


def test_form_validation():
    with pytest.raises(ValueError):
        QuadraticForm(INT, ())
    with pytest.raises(ValueError):
        QuadraticForm(INT, (t(1),), {(0, 1): t(0)})
    with pytest.raises(ValueError):
        QuadraticForm(Semifield(GroupKind.INT, 1), (t(1),))  # rank-0 element in rank-1 field
    q = form((t(1), t(2)), {(0, 1): ZERO})
    assert q == form((t(1), t(2)))  # a zero cross term is the absent one


@pytest.mark.parametrize("kind", list(GroupKind))
@pytest.mark.parametrize("tag, exp, twin_exp", [("tangible", 1, True), ("ghost", 2, 2.0)])
def test_constructors_refuse_a_bool_or_float_exponent_after_an_equal_int(kind, tag, exp, twin_exp):
    """``Element("tangible", True) == Element("tangible", 1)`` with equal hashes,
    and ``2.0 == 2`` likewise.  A constructor that skipped elements equal to
    ones it had validated would let the bool or float through; each
    constructor validates every coefficient as the object it is."""
    sf = Semifield(kind)
    first = sf.tangible(exp) if tag == "tangible" else sf.ghost(exp)
    twin = Element(tag, twin_exp)
    assert twin == first and hash(twin) == hash(first)
    for build in (
        lambda: QuadraticForm(sf, (first, twin)),
        lambda: QuadraticForm(sf, (first, first), {(0, 1): twin}),
        lambda: SymmetricBilinearForm(sf, ((first, twin), (twin, first))),
        lambda: GeneralMatrix(sf, ((first, twin), (first, first))),
    ):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == f"exponent {twin_exp} not in the {kind.value} group"


def _rigid_verdicts(q: QuadraticForm, rho: QuadraticForm) -> list:
    """What each of the three rigidity tests says of q: True, or the (label, message) it raises."""
    verdicts = [is_rigid(q)]
    for call in (lambda: off_diagonal_companion(q), lambda: pointwise_leq_rigid(q, rho), lambda: pointwise_leq_rigid(rho, q)):
        try:
            call()
            verdicts.append(True)
        except PreconditionError as exc:
            verdicts.append((exc.precondition, str(exc)))
    return verdicts


def test_rigidity_is_one_test():
    """is_rigid, off_diagonal_companion and pointwise_leq_rigid agree on which forms are rigid."""
    rng = random.Random(14)
    not_rigid = [
        False,
        ("rigid form required", "the form has a nonzero diagonal coefficient"),
        ("rigid form required", "pointwise comparison is only defined for zero-diagonal forms"),
        ("rigid form required", "pointwise comparison is only defined for zero-diagonal forms"),
    ]
    for sf in kind_semifields() + kind_semifields(1):
        for n in (1, 2, 4):
            for _ in range(10):
                rho = random_rigid_form(rng, sf, n)
                assert _rigid_verdicts(rho, rho) == [True] * 4
                assert off_diagonal_companion(rho).gram == rho.cross
                k = rng.randrange(n)
                diag = tuple(random_nonzero(rng, sf) if i == k else ZERO for i in range(n))
                q = QuadraticForm(sf, diag, {(i, j): rho.cross[i][j] for i in range(n) for j in range(i + 1, n)})
                assert _rigid_verdicts(q, rho) == not_rigid
