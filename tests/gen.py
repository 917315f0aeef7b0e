"""Seeded random generators shared across the test modules."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from typing import Any

from hypothesis import strategies as st

from tropquad import (
    ZERO,
    Element,
    GeneralMatrix,
    GroupKind,
    MonomialMatrix,
    NuClass,
    NuLeqDoubled,
    NuLtDoubled,
    PairBranch,
    QuadraticForm,
    RationalQuadraticForm,
    Semifield,
    Singleton,
    SymmetricBilinearForm,
)
from tropquad.companions import _probe_exponents_for
from tropquad.semiring import Exponent, _canon_exp, _scaled_exp
from tropquad.serialize import RATFORM_DIMENSION_LIMIT, SchemaError, _get, _is_int, _object_sf

ALL_KINDS = (GroupKind.INT, GroupKind.RAT, GroupKind.RAT3)


def fraction_legal(sf: Semifield, x) -> bool:
    """Reference: whether the rational x lies in sf's exponent group, on Fractions."""
    q = Fraction(x).denominator
    if sf.group is GroupKind.INT:
        return q == 1
    if sf.group is GroupKind.RAT:
        return True
    while q % 3 == 0:
        q //= 3
    return q == 1


def _fraction_canon(x):
    return int(x) if isinstance(x, Fraction) and x.denominator == 1 else x


def fraction_pair_analysis(sf: Semifield, alpha1: Element, alpha2: Element, alpha: Element):
    """Reference: the rank-2 case analysis computed on Fractions, as
    ``pair_analysis`` computed it before it kept the exponents' own type."""
    if alpha1.is_zero or alpha2.is_zero:
        return PairBranch.ZERO_SIDE, Singleton(alpha)
    total = _fraction_canon(Fraction(alpha1.exp) + Fraction(alpha2.exp))
    halvable = sf.legal_exponent(Fraction(total) / 2)
    ghost_pair = alpha1.is_ghost and alpha2.is_ghost
    if not alpha.is_zero and 2 * alpha.exp > total:
        if sf.group is GroupKind.INT and not halvable and 2 * alpha.exp == total + 1:
            if ghost_pair:
                return PairBranch.DOMINANT_EDGE_GHOSTS, NuLeqDoubled(_fraction_canon(2 * alpha.exp))
            return PairBranch.DOMINANT_EDGE_TANGIBLE, NuClass(alpha.exp)
        return PairBranch.DOMINANT, Singleton(alpha)
    if halvable:
        return PairBranch.MEAN_IN_GROUP, NuLeqDoubled(total)
    if sf.group is GroupKind.INT:
        if ghost_pair:
            return PairBranch.MEAN_GAP_DISCRETE_GHOSTS, NuLeqDoubled(total + 1)
        return PairBranch.MEAN_GAP_DISCRETE_TANGIBLE, NuLeqDoubled(total - 1)
    return PairBranch.MEAN_GAP_DENSE, NuLtDoubled(total)


def fraction_cell_boundary(cell):
    """Reference: ``cell_boundary`` computed on Fractions."""
    if isinstance(cell, Singleton):
        return None if cell.value.is_zero else cell.value.exp
    if isinstance(cell, NuClass):
        return cell.exp
    return _fraction_canon(Fraction(cell.bound2) / 2)


def diagonal_cell_reference(alpha: Element):
    """Reference: the diagonal rule as ``companions.diagonal_cell`` stated it
    before diagonal cells became the rank-2 case at (alpha, alpha, nu(alpha))."""
    if alpha.is_zero:
        return Singleton(ZERO)
    return NuLeqDoubled(_fraction_canon(2 * alpha.exp))


def fraction_between(sf: Semifield, lo, hi):
    """Reference: the group's pick strictly between lo and hi, on Fractions, or None."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        return None
    if sf.group is GroupKind.RAT:
        value = (lo + hi) / 2
    elif sf.group is GroupKind.INT:
        value = Fraction(math.floor(lo) + 1)
        if value >= hi:
            return None
    else:
        step = Fraction(1)
        while step >= hi - lo:
            step /= 3
        value = (math.floor(lo / step) + 1) * step
    return int(value) if value.denominator == 1 else value


def _scaled(a: Element, scale: int) -> Element:
    """a with its exponent multiplied by scale; tag and fiber unchanged."""
    return a if a.is_zero else Element(a.tag, _scaled_exp(a.exp, scale), a.fiber)


def membership_oracle_reference(sf: Semifield, alpha1: Element, alpha2: Element, alpha: Element, betas):
    """Reference: ``companion_membership_oracle`` deciding its battery with
    one sum and one comparison per pair of probe and candidate."""
    levels = ((1, alpha1), (-1, alpha2), (0, alpha), *((0, b) for b in betas))
    scale, _, _, exps = _probe_exponents_for(sf, *levels)
    a1, a2, a, *scaled_betas = (_scaled(x, scale) for _, x in levels)
    one = sf.one
    verdicts = [True] * len(betas)
    for exp in exps:
        lam = Element(one.tag, exp, one.fiber)
        base = lam * a1 + lam.inverse() * a2
        lhs = base + a
        for k, beta in enumerate(scaled_betas):
            if verdicts[k] and base + beta != lhs:
                verdicts[k] = False
    return verdicts


def kind_semifields(rank: int = 0) -> list[Semifield]:
    return [Semifield(kind, rank) for kind in ALL_KINDS]


def element_grid(sf: Semifield, exponents=range(-4, 5)) -> list[Element]:
    """All elements over the given exponents: zero, ghosts, every tangible fiber."""
    import itertools

    fibers = list(itertools.product((1, -1), repeat=sf.fiber_rank))
    out = [ZERO]
    for e in exponents:
        out.append(sf.ghost(e))
        out.extend(sf.tangible(e, f) for f in fibers)
    return out


def random_exponent(rng: random.Random, sf: Semifield, lo: int = -8, hi: int = 8):
    if sf.group is GroupKind.INT:
        return rng.randint(lo, hi)
    if sf.group is GroupKind.RAT:
        den = rng.choice((1, 1, 2, 3, 4, 5, 6))
    else:
        den = 3 ** rng.choice((0, 0, 1, 2))
    x = Fraction(rng.randint(lo * den, hi * den), den)
    return int(x) if x.denominator == 1 else x


def random_fiber(rng: random.Random, sf: Semifield):
    return tuple(rng.choice((1, -1)) for _ in range(sf.fiber_rank))


def random_tangible(rng, sf, lo=-8, hi=8) -> Element:
    return sf.tangible(random_exponent(rng, sf, lo, hi), random_fiber(rng, sf))


def random_nonzero(rng, sf, lo=-8, hi=8) -> Element:
    if rng.random() < 0.5:
        return sf.ghost(random_exponent(rng, sf, lo, hi))
    return random_tangible(rng, sf, lo, hi)


def random_element(rng, sf, zero_p=0.15, lo=-8, hi=8) -> Element:
    if rng.random() < zero_p:
        return ZERO
    return random_nonzero(rng, sf, lo, hi)


def exponent_strategy(sf: Semifield):
    """Hypothesis strategy for exponents of sf's group in [-8, 8], canonical form."""
    if sf.group is GroupKind.INT:
        exps = st.integers(-8, 8)
    elif sf.group is GroupKind.RAT:
        exps = st.fractions(min_value=-8, max_value=8, max_denominator=6)
    else:
        exps = st.builds(Fraction, st.integers(-72, 72), st.sampled_from((1, 3, 9))).filter(
            lambda x: -8 <= x <= 8
        )
    return exps.map(sf.check_exponent)


def _elements_over(sf: Semifield, exps):
    """Zero, ghosts and tangibles of every fiber over an exponent strategy."""
    fibers = st.tuples(*[st.sampled_from((1, -1))] * sf.fiber_rank)
    return st.one_of(
        st.just(ZERO),
        st.builds(sf.ghost, exps),
        st.builds(sf.tangible, exps, fibers),
    )


def element_strategy(sf: Semifield):
    """Hypothesis strategy for elements of sf with exponents in [-8, 8]."""
    return _elements_over(sf, exponent_strategy(sf))


def wide_element_strategy(sf: Semifield):
    """Hypothesis strategy for elements of sf with exponents in [-10^4, 10^4].

    Denominators reach 3^12 in the rat3 group and 10^4 in the rat group.
    Small exponents stay likely, so lines still tie now and then.
    """
    bound = 10**4
    if sf.group is GroupKind.INT:
        wide = st.integers(-bound, bound)
    else:
        dens = st.integers(0, 12).map(lambda k: 3**k) if sf.group is GroupKind.RAT3 else st.integers(1, bound)
        wide = dens.flatmap(lambda d: st.builds(Fraction, st.integers(-bound * d, bound * d), st.just(d)))
    return _elements_over(sf, st.one_of(exponent_strategy(sf), wide.map(sf.check_exponent)))


# any rational exponent in [-8, 8] of denominator at most 12, in its
# semifield's group or not: one draw from the list, which shrinks towards 0
ANY_EXPONENT = st.sampled_from(sorted(
    {_fraction_canon(Fraction(k, d)) for d in range(1, 13) for k in range(-8 * d, 8 * d + 1)},
    key=lambda x: (x.denominator, abs(x), x),
))


@st.composite
def any_elements(draw, sf):
    """Zero, ghosts and tangibles of any fiber over any rational exponent, built without validation."""
    tag = draw(st.sampled_from(["zero", "ghost", "tangible"]))
    if tag == "zero":
        return ZERO
    if tag == "ghost":
        return Element("ghost", draw(ANY_EXPONENT))
    fiber = tuple(draw(st.sampled_from((1, -1))) for _ in range(sf.fiber_rank))
    return Element("tangible", draw(ANY_EXPONENT), fiber)


@st.composite
def any_cells(draw, sf):
    """A cell of each of the four kinds, with any exponent; a singleton holds any element."""
    kind = draw(st.sampled_from([Singleton, NuLeqDoubled, NuLtDoubled, NuClass]))
    if kind is Singleton:
        return Singleton(draw(any_elements(sf)))
    return kind(draw(ANY_EXPONENT))


def random_vector(rng, sf, n, zero_p=0.25):
    return tuple(random_element(rng, sf, zero_p) for _ in range(n))


def random_form(rng, sf, n, upper_density=0.7, zero_p=0.25) -> QuadraticForm:
    diag = tuple(random_element(rng, sf, zero_p) for _ in range(n))
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < upper_density:
                upper[(i, j)] = random_nonzero(rng, sf)
    return QuadraticForm(sf, diag, upper)


def random_rigid_form(rng, sf, n, upper_density=0.8) -> QuadraticForm:
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < upper_density:
                upper[(i, j)] = random_nonzero(rng, sf)
    return QuadraticForm(sf, (ZERO,) * n, upper)


def random_monomial(rng, sf, n) -> MonomialMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    scales = tuple(random_tangible(rng, sf) for _ in range(n))
    return MonomialMatrix(sf, tuple(perm), scales)


def random_square_matrix(rng, sf, n, zero_p=0.45) -> GeneralMatrix:
    rows = tuple(tuple(random_element(rng, sf, zero_p) for _ in range(n)) for _ in range(n))
    return GeneralMatrix(sf, rows)


def random_nonmonomial(rng, sf, n) -> GeneralMatrix:
    """A square matrix that is not monomial-with-tangible-scales."""
    from tropquad import is_invertible

    while True:
        if rng.random() < 0.5:
            m = random_square_matrix(rng, sf, n)
        else:
            # ghost-bearing corruption of a monomial pattern
            base = random_monomial(rng, sf, n).to_general()
            rows = [list(row) for row in base.rows]
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = sf.ghost(random_exponent(rng, sf))
            m = GeneralMatrix(sf, tuple(tuple(r) for r in rows))
        if not is_invertible(m):
            return m


def random_rational(rng, lo=-50, hi=50) -> Fraction:
    num = rng.randint(lo, hi)
    den = 0
    while den == 0:
        den = rng.randint(1, hi)
    return Fraction(num, den)


def random_ratform(rng, n, zero_p=0.2) -> RationalQuadraticForm:
    coeffs = {}
    for i in range(n):
        for j in range(i, n):
            if rng.random() >= zero_p:
                coeffs[(i, j)] = random_rational(rng)
    return RationalQuadraticForm(n, coeffs)


# ---------------------------------------------------------------------------
# stratified rank-2 triples for branch coverage


def _tagged(rng, sf, exp, ghost=None) -> Element:
    if ghost is None:
        ghost = rng.random() < 0.5
    return sf.ghost(exp) if ghost else sf.tangible(exp, random_fiber(rng, sf))


def triple_zero_side(rng, sf):
    nz = random_nonzero(rng, sf)
    alpha = random_element(rng, sf, zero_p=0.3)
    return (ZERO, nz, alpha) if rng.random() < 0.5 else (nz, ZERO, alpha)


def triple_dominant(rng, sf):
    a1 = random_nonzero(rng, sf, -5, 4)
    a2 = random_nonzero(rng, sf, -5, 4)
    # strictly above both diagonal exponents, hence beyond any edge case
    top = max(a1.exp, a2.exp) + rng.randint(1, 3)
    return a1, a2, _tagged(rng, sf, top)


def _odd_sum_exponents(rng, lo=-4, hi=4):
    x = rng.randint(lo, hi)
    y = rng.randint(lo, hi - 1)
    if (x + y) % 2 == 0:
        y += 1
    return x, y


def triple_dominant_edge(rng, sf, both_ghost):
    assert sf.group is GroupKind.INT
    x, y = _odd_sum_exponents(rng)
    if both_ghost:
        a1, a2 = sf.ghost(x), sf.ghost(y)
    else:
        tags = rng.choice(((False, False), (False, True), (True, False)))
        a1 = _tagged(rng, sf, x, tags[0])
        a2 = _tagged(rng, sf, y, tags[1])
    return a1, a2, _tagged(rng, sf, (x + y + 1) // 2)


def triple_mean_in_group(rng, sf):
    e1 = random_exponent(rng, sf, -4, 4)
    delta = random_exponent(rng, sf, -2, 2)
    e2 = e1 + 2 * delta  # sum is twice a legal exponent
    a1 = _tagged(rng, sf, e1)
    a2 = _tagged(rng, sf, e2)
    if rng.random() < 0.3:
        return a1, a2, ZERO
    half = e1 + delta
    drop = random_exponent(rng, sf, 0, 2)
    return a1, a2, _tagged(rng, sf, half - drop)


def triple_mean_gap_dense(rng, sf):
    assert sf.group is GroupKind.RAT3
    den = 3 ** rng.choice((0, 1, 2))
    num = rng.randint(-5 * den, 5 * den) | 1  # odd numerator: sum not halvable
    s = Fraction(num, den)
    e1 = random_exponent(rng, sf, -2, 2)
    a1 = _tagged(rng, sf, e1)
    a2 = _tagged(rng, sf, s - e1)
    if rng.random() < 0.3:
        return a1, a2, ZERO
    below = sf.between(Fraction(s) / 2 - rng.randint(1, 3), Fraction(s) / 2)
    return a1, a2, _tagged(rng, sf, below)


def triple_mean_gap_discrete(rng, sf, both_ghost):
    assert sf.group is GroupKind.INT
    x, y = _odd_sum_exponents(rng)
    if both_ghost:
        a1, a2 = sf.ghost(x), sf.ghost(y)
    else:
        tags = rng.choice(((False, False), (False, True), (True, False)))
        a1 = _tagged(rng, sf, x, tags[0])
        a2 = _tagged(rng, sf, y, tags[1])
    if rng.random() < 0.25:
        return a1, a2, ZERO
    a = (x + y - 1) // 2 - rng.randint(0, 3)
    return a1, a2, _tagged(rng, sf, a)


def uniform_triple(rng, sf):
    return (
        random_element(rng, sf, zero_p=0.12),
        random_element(rng, sf, zero_p=0.12),
        random_element(rng, sf, zero_p=0.2),
    )


def pair_triples_for_kind(rng, sf, total=1000):
    """A batch of rank-2 triples stratified so every classification branch
    reachable in this exponent group shows up at least ~40 times."""
    makers = [lambda: triple_zero_side(rng, sf), lambda: triple_dominant(rng, sf),
              lambda: triple_mean_in_group(rng, sf)]
    if sf.group is GroupKind.INT:
        makers += [
            lambda: triple_dominant_edge(rng, sf, both_ghost=True),
            lambda: triple_dominant_edge(rng, sf, both_ghost=False),
            lambda: triple_mean_gap_discrete(rng, sf, both_ghost=True),
            lambda: triple_mean_gap_discrete(rng, sf, both_ghost=False),
        ]
    if sf.group is GroupKind.RAT3:
        makers.append(lambda: triple_mean_gap_dense(rng, sf))
    triples = []
    per = 40
    for make in makers:
        triples.extend(make() for _ in range(per))
    while len(triples) < total:
        triples.append(uniform_triple(rng, sf))
    rng.shuffle(triples)
    return triples


# ---------------------------------------------------------------------------
# reference schema readers: the readers as they were before they formatted a
# path only on failure, tested index keys against the dict they fill, and read
# an integer literal without a Fraction.  The bodies are kept verbatim, but for
# two things: the helpers that differ from the package's are renamed _ref_*,
# and a path may still be a function that builds it, which _ref_path resolves
# (the key reader raises at ``where()``).


def _ref_path(path) -> str:
    return path() if callable(path) else path


def _ref_expect(cond: bool, message: str, path):
    if not cond:
        raise SchemaError(message, _ref_path(path))


def _ref_schema(make, path, *args):
    """``make(*args)``, with its ValueError re-raised as a SchemaError at path."""
    try:
        return make(*args)
    except ValueError as exc:
        raise SchemaError(str(exc), _ref_path(path)) from exc


_REF_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def parse_rational_reference(text: str) -> Exponent:
    if not _REF_RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return _canon_exp(Fraction(text))


def parse_element_reference(sf: Semifield, text: str) -> Element:
    """``Semifield.parse_element``, reading its exponents with :func:`parse_rational_reference`."""
    text = text.strip()
    if text == "0":
        return ZERO
    parts = text.split(":")
    if parts[0] == "g" and len(parts) == 2:
        return sf.ghost(parse_rational_reference(parts[1]))
    if parts[0] == "t" and len(parts) in (2, 3):
        exp = parse_rational_reference(parts[1])
        if len(parts) == 2:
            return sf.tangible(exp)
        if any(c not in "+-" for c in parts[2]) or not parts[2]:
            raise ValueError(f"bad fiber signs in {text!r}")
        fiber = tuple(1 if c == "+" else -1 for c in parts[2])
        return sf.tangible(exp, fiber)
    raise ValueError(f"bad element literal: {text!r}")


def _ref_element_reader(sf: Semifield):
    """``read(obj, path)`` for one document: each distinct literal is parsed once."""
    memo: dict[str, Element] = {}

    def read(obj: Any, path) -> Element:
        _ref_expect(isinstance(obj, str), "element must be an encoded string", path)
        element = memo.get(obj)
        if element is None:
            element = memo[obj] = _ref_schema(lambda text: parse_element_reference(sf, text), path, obj)
        return element

    return read


def _ref_rational_from_json(obj: Any, path) -> Fraction:
    if _is_int(obj):
        return Fraction(obj)
    _ref_expect(isinstance(obj, str), "rational must be an int or 'p/q' string", path)
    return Fraction(_ref_schema(parse_rational_reference, path, obj))


def _ref_index_pair(key: str, n: int, path: str, seen: set, strict_upper: bool) -> tuple[int, int]:
    """0-based (i, j) of an "i,j" key; a second key naming a cell in ``seen`` is refused."""

    def where() -> str:
        return f"{path}.{key}"

    parts = key.split(",")
    _ref_expect(len(parts) == 2, "index key must look like 'i,j'", where)
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise SchemaError("index key must hold integers", where()) from None
    if not (1 <= i <= n and 1 <= j <= n):
        raise SchemaError(f"indices out of range 1..{n}", where())
    if strict_upper:
        _ref_expect(i < j, "upper coefficient needs i < j", where)
    else:
        _ref_expect(i <= j, "triangular coefficient needs i <= j", where)
    if (i, j) in seen:
        raise SchemaError(f"duplicate index ({i},{j})", where())
    seen.add((i, j))
    return i - 1, j - 1


def form_from_json_reference(obj: Any) -> QuadraticForm:
    sf = _object_sf(obj, "form")
    n = _get(obj, "n", "$")
    _ref_expect(_is_int(n) and n >= 1, "n must be a positive int", "$.n")
    diag_obj = _get(obj, "diag", "$")
    _ref_expect(isinstance(diag_obj, list) and len(diag_obj) == n, f"diag must list {n} elements", "$.diag")
    read = _ref_element_reader(sf)
    diag = tuple(read(v, lambda: f"$.diag[{k + 1}]") for k, v in enumerate(diag_obj))
    upper_obj = obj.get("upper", {})
    _ref_expect(isinstance(upper_obj, dict), "upper must be an object", "$.upper")
    seen = set()
    upper = {
        _ref_index_pair(key, n, "$.upper", seen, strict_upper=True): read(val, lambda: f"$.upper.{key}")
        for key, val in upper_obj.items()
    }
    return _ref_schema(QuadraticForm, "$", sf, diag, upper)


def _ref_grid_from_json(sf: Semifield, obj: dict, key: str):
    rows_obj = _get(obj, key, "$")
    _ref_expect(isinstance(rows_obj, list) and rows_obj, f"{key} must be a nonempty list", f"$.{key}")
    read = _ref_element_reader(sf)
    rows = []
    for r, row in enumerate(rows_obj):
        row_path = f"$.{key}[{r + 1}]"
        _ref_expect(isinstance(row, list) and row, "rows must be nonempty lists", row_path)
        rows.append(tuple(read(v, lambda: f"{row_path}[{c + 1}]") for c, v in enumerate(row)))
    return tuple(rows)


def bilinear_from_json_reference(obj: Any) -> SymmetricBilinearForm:
    sf = _object_sf(obj, "bilinear form")
    return _ref_schema(SymmetricBilinearForm, "$", sf, _ref_grid_from_json(sf, obj, "gram"))


def matrix_from_json_reference(obj: Any) -> GeneralMatrix:
    sf = _object_sf(obj, "matrix")
    return _ref_schema(GeneralMatrix, "$", sf, _ref_grid_from_json(sf, obj, "rows"))


def ratform_from_json_reference(obj: Any) -> RationalQuadraticForm:
    _ref_expect(isinstance(obj, dict), "rational form must be an object", "$")
    n = _get(obj, "n", "$")
    _ref_expect(_is_int(n) and n >= 1, "n must be a positive int", "$.n")
    _ref_expect(n <= RATFORM_DIMENSION_LIMIT, f"n must be at most {RATFORM_DIMENSION_LIMIT}", "$.n")
    coeffs_obj = _get(obj, "coeffs", "$")
    _ref_expect(isinstance(coeffs_obj, dict), "coeffs must be an object", "$.coeffs")
    seen = set()
    coeffs = {
        _ref_index_pair(key, n, "$.coeffs", seen, strict_upper=False): _ref_rational_from_json(
            val, lambda: f"$.coeffs.{key}"
        )
        for key, val in coeffs_obj.items()
    }
    return _ref_schema(RationalQuadraticForm, "$", n, coeffs)
