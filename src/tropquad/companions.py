"""Companion tables: which symmetric bilinear forms accompany a quadratic form.

For a pair of base vectors, the set of admissible cross coefficients is one
of four shapes, decided by comparing the cross coefficient against the
geometric mean of the two diagonal coefficients (at the exponent level):

* a singleton (the coefficient is forced),
* a closed lower interval ``{0} union {beta : 2 exp(beta) <= r}``,
* a half-open lower interval (strict bound, no maximum),
* a nu-class (all tangibles of one exponent plus its ghost).

The case analysis is written once, in :func:`pair_analysis`, which returns
the branch that fired beside the cell; pair-level predicates read it off
the cell (forced means a :class:`Singleton`, the zero form accompanies the
pair iff the cell contains zero), and a diagonal cell is the same rule at
(alpha, alpha, nu(alpha)).  It computes on the exponents as given: a
Fraction is built only where an exponent already is one, or where half an
odd doubled bound leaves the integers; whether half the diagonal sum is an
exponent is the group's one halving rule, :meth:`Semifield.halvable`.
:func:`functionally_equal` and :func:`equality_witness` read one scan of
the two schemes, :func:`_first_difference`, which decides only the pairs
where the schemes differ: a scheme's own coefficient always lies in its cell.

The case analysis is cross-validated by :func:`triple_membership_oracle`,
an independent decision procedure that checks the defining one-parameter
family of scaling identities on a finite critical set of exponents, for a
whole battery of candidates in one pass, and decides each candidate from
three facts collected at the probes, with no sum.  It takes its
candidates as one :class:`Battery`, (tag, exponent, fiber) triples held at
an integer frame, the only carrier of a frame: the public oracles,
:func:`companion_membership_oracle` and :func:`diagonal_membership_oracle`
(the diagonal (alpha, alpha) with cross term nu(alpha)), take elements that
stand for themselves and hand it the Battery they were given, or a list's
triples at the lcm of its exponents' denominators.  It and
:func:`equality_witness` find the critical set on integers with one
helper, :func:`_probe_exponents_for`, which reads the same Battery, shares
no code with the case analysis or the companion-set types, and whose
docstring proves its frame exact.  An exponent becomes a rational again only where it leaves as an
element: in :func:`equality_witness`'s vectors and in a probe where the
oracle and the closed form disagree.  Building a battery, and holding the
cell at its frame for ``holds``, is :mod:`tropquad.probes`' business.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import PreconditionError, check_operands
from .forms import QuadraticForm, SymmetricBilinearForm, eval_quadratic, is_rigid  # is_rigid: re-exported
from .semiring import (
    _TAG_GHOST, ZERO, Element, Exponent, GroupKind, Semifield, Value, _canon_exp, _scaled_exp, _set, _unscaled_exp,
)

# ---------------------------------------------------------------------------
# symbolic companion sets
# Each cell class spells out its one-field ``__init__`` for speed: the
# generic ``Value.__init__`` costs about 0.7 us more per call (2 CPUs,
# Python 3.11), some 3 ms on the 4096 cells of a 64 x 64 table.  Each
# states its membership rule once, as ``holds``, on an element's (tag,
# exponent, fiber) triple; zero is the triple whose exponent is None.


class Singleton(Value):
    """The one forced element; ``__init__`` spelled out for speed."""

    __slots__ = ("value",)

    def __init__(self, value: Element):
        _set(self, "value", value)

    def holds(self, beta: tuple) -> bool:
        value = self.value
        return beta == (value.tag, value.exp, value.fiber)


class NuLeqDoubled(Value):
    """{0} union {beta : 2 * exp(beta) <= bound2} (closed lower set); ``__init__`` spelled out for speed."""

    __slots__ = ("bound2",)

    def __init__(self, bound2: Exponent):
        _set(self, "bound2", bound2)

    def holds(self, beta: tuple) -> bool:
        return (exp := beta[1]) is None or 2 * exp <= self.bound2


class NuLtDoubled(Value):
    """{0} union {beta : 2 * exp(beta) < bound2} (no maximal element); ``__init__`` spelled out for speed."""

    __slots__ = ("bound2",)

    def __init__(self, bound2: Exponent):
        _set(self, "bound2", bound2)

    def holds(self, beta: tuple) -> bool:
        return (exp := beta[1]) is None or 2 * exp < self.bound2


class NuClass(Value):
    """All tangibles with the given exponent, plus its ghost; ``__init__`` spelled out for speed."""

    __slots__ = ("exp",)

    def __init__(self, exp: Exponent):
        _set(self, "exp", exp)

    def holds(self, beta: tuple) -> bool:
        return (exp := beta[1]) is not None and exp == self.exp


CompanionSet = Union[Singleton, NuLeqDoubled, NuLtDoubled, NuClass]


def cell_key(cell: CompanionSet) -> Optional[tuple]:
    """Which cells are one value, read by :func:`companion_table`: the class and field (a singleton's
    element as tag, fiber and exponent), the exponent as an int, None or a Fraction's numerator and
    denominator.  Cells of one key print alike and have the same extremes.  A cell whose exponent
    has another type (a Fraction subclass, a float) has no key (None): 2.0 == 2 prints as "2.0"."""
    cls = cell.__class__
    if cls is Singleton:
        value = cell.value
        head, exp = (cls, value.tag, tuple(value.fiber)), value.exp
    else:
        head, exp = cls, cell.exp if cls is NuClass else cell.bound2
    if exp.__class__ is int or exp is None:
        return head, exp
    if exp.__class__ is Fraction:
        return head, exp.numerator, exp.denominator
    return None


def contains(cell: CompanionSet, beta: Element) -> bool:
    """Whether beta lies in the cell, by its kind's rule ``holds`` on beta's (tag, exponent, fiber)
    triple; a caller that asks one cell about many triples may bind that method once."""
    return cell.holds((beta.tag, beta.exp, beta.fiber))


def set_min(sf: Semifield, cell: CompanionSet) -> Element:
    """A minimal element of the cell.

    Lower-set variants contain zero; a singleton is its own minimum.  In a
    nu-class every tangible is minimal, so the identity-fiber tangible is
    returned as the canonical pick.
    """
    if isinstance(cell, Singleton):
        return cell.value
    if isinstance(cell, (NuLeqDoubled, NuLtDoubled)):
        return ZERO
    return sf.tangible(cell.exp)


def set_max(sf: Semifield, cell: CompanionSet) -> Optional[Element]:
    """The maximum of the cell, or None when no maximal element exists.

    A lower interval's maximum is the ghost at its largest exponent: in
    ``int`` the largest integer e with 2e <= bound2 (or 2e < bound2); in a
    dense group half a closed bound, if that is an exponent.
    """
    if isinstance(cell, Singleton):
        return cell.value
    if isinstance(cell, NuClass):
        return sf.ghost(cell.exp)
    if sf.group is GroupKind.INT:
        return sf.ghost(cell.bound2 // 2 if isinstance(cell, NuLeqDoubled) else -(-cell.bound2 // 2) - 1)
    return sf.ghost(cell_boundary(cell)) if isinstance(cell, NuLeqDoubled) and sf.halvable(cell.bound2) else None


def cell_boundary(cell: CompanionSet) -> Optional[Exponent]:
    """The exponent at the cell's edge, canonical; None for {0}.

    A lower interval's edge is half its doubled bound, a nu-class's is its
    exponent, and a nonzero singleton's is its element's exponent.
    """
    if isinstance(cell, Singleton):
        return None if cell.value.is_zero else cell.value.exp
    if isinstance(cell, NuClass):
        return cell.exp
    return _unscaled_exp(cell.bound2.numerator, 2 * cell.bound2.denominator)


# ---------------------------------------------------------------------------
# the rank-2 case analysis


class PairBranch(enum.Enum):
    """Which branch of the cross-coefficient classification fired."""

    ZERO_SIDE = "zero_side"  # some diagonal coefficient is zero
    DOMINANT = "dominant"  # cross coefficient nu-exceeds the mean: forced
    DOMINANT_EDGE_GHOSTS = "dominant_edge_ghosts"  # discrete half-step edge, ghost diagonal
    DOMINANT_EDGE_TANGIBLE = "dominant_edge_tangible"  # discrete half-step edge, tangible side
    MEAN_IN_GROUP = "mean_in_group"  # the mean exponent is realizable
    MEAN_GAP_DENSE = "mean_gap_dense"  # dense group, mean exponent missing
    MEAN_GAP_DISCRETE_TANGIBLE = "mean_gap_discrete_tangible"
    MEAN_GAP_DISCRETE_GHOSTS = "mean_gap_discrete_ghosts"


def pair_analysis(
    sf: Semifield, alpha1: Element, alpha2: Element, alpha: Element
) -> tuple[PairBranch, CompanionSet]:
    """Classify and compute the cross-coefficient companion set of
    the rank-2 form with diagonal (alpha1, alpha2) and cross term alpha."""
    if alpha1.is_zero or alpha2.is_zero:
        return PairBranch.ZERO_SIDE, Singleton(alpha)
    total = _canon_exp(alpha1.exp + alpha2.exp)
    halvable = sf.halvable(total)
    ghost_pair = alpha1.is_ghost and alpha2.is_ghost
    if not alpha.is_zero and 2 * alpha.exp > total:
        # exactly half a discrete step above the mean, the set widens
        if sf.group is GroupKind.INT and not halvable and 2 * alpha.exp == total + 1:
            if ghost_pair:
                return PairBranch.DOMINANT_EDGE_GHOSTS, NuLeqDoubled(_canon_exp(2 * alpha.exp))
            return PairBranch.DOMINANT_EDGE_TANGIBLE, NuClass(alpha.exp)
        return PairBranch.DOMINANT, Singleton(alpha)
    if halvable:
        return PairBranch.MEAN_IN_GROUP, NuLeqDoubled(total)
    if sf.group is GroupKind.INT:
        if ghost_pair:
            return PairBranch.MEAN_GAP_DISCRETE_GHOSTS, NuLeqDoubled(total + 1)
        return PairBranch.MEAN_GAP_DISCRETE_TANGIBLE, NuLeqDoubled(total - 1)
    return PairBranch.MEAN_GAP_DENSE, NuLtDoubled(total)


# ---------------------------------------------------------------------------
# the independent membership oracle


def _tie_points(up: set[int], down: set[int], flat: set[int]) -> list[int]:
    """Where two lines ``slope * x + offset`` of different slopes meet, ascending, given the
    offsets of the lines of slope +1, -1 and 0.

    A flat line ``f`` meets a rising one ``x + u`` at ``f - u`` and a
    falling one ``-x + d`` at ``d - f``, and a rising and a falling line
    meet at ``(d - u) / 2``.  The offsets are even integers, so each
    meeting point is an integer.
    """
    points = {f - u for u in up for f in flat}
    points.update(d - f for d in down for f in flat)
    points.update((d - u) // 2 for u in up for d in down)
    return sorted(points)


def _probe_exponents(sf: Semifield, criticals: list[int], scale: int) -> list[int]:
    """Legal exponents covering every region the critical points cut out, times scale.

    ``criticals`` are the distinct critical points times scale, ascending.
    The probes come out ascending and distinct without a sort: each is a
    critical point or lies strictly inside the interval it was drawn from.
    """
    if not criticals:
        return [0]
    legal, between = sf.scaled_rules
    # every group has an exponent inside an interval of length 2
    reach = 2 * scale
    probes = [between(criticals[0] - reach, criticals[0], scale)]
    for lo, hi in zip(criticals, criticals[1:] + [criticals[-1] + reach]):
        if legal(lo, scale):
            probes.append(lo)
        mid = between(lo, hi, scale)
        if mid is not None:
            probes.append(mid)
    return probes


def _probe_exponents_for(
    sf: Semifield, *lines: tuple[int, Element], battery: Optional[Battery] = None
) -> tuple[int, list[Optional[int]], list[Optional[int]], list[int]]:
    """The probe set's integer frame: its scale, its lines scaled, the battery's exponents, its probes.

    Each ``(slope, element)`` of ``lines`` stands for the line ``slope *
    exp(lambda) + exp(element)``, and each element of ``battery`` for a flat
    line: its triple holds the integer exponent at the battery's frame F (F
    times the one it stands for), or None for zero.  Zero has no level and
    contributes no line.  Returns the scale S, each line's exponent at scale
    S and each battery element's, the integer S // F times it, in the order
    given (None for zero), and the probe exponents times S, read off the
    scaled exponents: each line and battery element is scaled once.

    S = 12 * D, where D is the lcm of F (1 with no battery) and the lines'
    denominators, clears the denominator of every offset, tie point and
    probe.  The scale is taken from the inputs alone and trusts nothing a
    caller computed: a battery exponent x at frame F has its offset x / F in
    (1/F)Z, so D clears every offset and S // F is an integer.  Then:

    * each scaled offset is a multiple of 12, in particular even;
    * slopes are +1, -1 and 0, so two slopes differ by 1 or 2 and a tie
      point ``(o2 - o1) / (s1 - s2)`` lies in (1/2D)Z;
    * a probe is a legal tie point or the group's ``between`` pick of two
      tie points, or of a tie point and that point minus or plus 2.  In
      ``int`` that is an integer.  In ``rat`` it is a midpoint, which
      halves once: (1/4D)Z.  In ``rat3`` the step argument needs only the
      power-of-3 part D3 of D: the offsets are exponents of the group, so
      they lie in (1/D3)Z and the tie points in (1/2D3)Z; two distinct such
      points are more than 1/(3D3) apart, so the largest power-of-3 step
      below their distance is at least 1/(3D3), and the pick is a multiple
      of that step: (1/3D3)Z, one extra factor of 3.

    Both (1/4D)Z and (1/3D3)Z are cleared by 12 * D, so the semifield's
    integer rules, legal and between, decide every probe at scale S (the
    latter raises rather than round if S did not clear its pick);
    :func:`_probe_exponents` takes them from :attr:`Semifield.scaled_rules`
    once per call.

    Computing on the scaled exponents is exact.  x -> S * x is an
    injective, order-preserving homomorphism of the rationals, and an
    element's sum, product, inverse and equality read its exponent only
    through +, -, < and ==.  So scaling every exponent, with tags and
    fibers untouched, commutes with +, * and inverse, two scaled sums are
    equal iff the sums are, and sums and negatives of scaled exponents
    stay integers.
    """
    frame, triples = (1, ()) if battery is None else (battery.frame, battery.triples)
    scale = 12 * math.lcm(frame, *(a.exp.denominator for _, a in lines if not a.is_zero))
    line_exps = [None if a.exp is None else _scaled_exp(a.exp, scale) for _, a in lines]
    up = scale // frame
    exps = [None if x is None else x * up for _, x, _ in triples]
    offsets = {1: set(), -1: set(), 0: set(exps)}
    for (slope, _), x in zip(lines, line_exps):
        offsets[slope].add(x)
    for group in offsets.values():
        group.discard(None)
    return scale, line_exps, exps, _probe_exponents(sf, _tie_points(offsets[1], offsets[-1], offsets[0]), scale)


def triple_membership_oracle(
    sf: Semifield, alpha1: Element, alpha2: Element, alpha: Element, battery: Battery
) -> list[bool]:
    """Decide cross-coefficient membership of each triple of the battery from its definition.

    beta is admissible iff for every tangible lambda the two sums

        lambda * alpha1 + lambda^-1 * alpha2 + alpha
        lambda * alpha1 + lambda^-1 * alpha2 + beta

    coincide.  As a function of exp(lambda) the four summand nu-levels are
    linear with slopes +1, -1, 0, 0, so whether the sums coincide is
    constant on each open interval between pairwise tie points of those
    lines.  Probing every legal tie point, one legal exponent inside each
    open interval, and one beyond each end therefore decides the universal
    statement exactly.

    The outcome depends on lambda only through its exponent, so one fiber
    is probed.  Lambda's fiber moves no tag or exponent of a lambda-term,
    and a sum is its one summand of largest exponent if that summand is
    tangible and alone there, and otherwise zero or a ghost, since addition
    ghosts every exponent tie; so each side's tag and exponent come from
    tags and exponents alone.  Two tangible sums of one exponent are then
    either the same lambda-term, equal whatever the fiber, or alpha and
    beta, which hold no lambda: a lambda-term that wins alone on one side
    is a summand of the other at that exponent and ties any other winner.

    The whole battery shares one probe set, built from the tie points of
    every line at once: alpha1, alpha2, alpha and each beta.  That union of
    tie points refines each beta's own partition: every coarse tie point is
    a fine one, and every coarse open interval is a union of fine tie
    points and fine open intervals.  So a legal exponent in a coarse
    interval is either a probed fine tie point or lies in a fine open
    interval, and every fine open interval that holds a legal exponent
    holds a probe (the two unbounded ones always do).  Each beta thus still
    meets a probe in every piece of its own partition that holds a legal
    exponent, and its verdict is the one its own probe set would give.

    At a probe, write ``base = lambda * alpha1 + lambda^-1 * alpha2`` and
    ``lhs = base + alpha``; beta survives the probe iff ``base + beta ==
    lhs``.  If alpha1 and alpha2 are both zero, base is zero at every probe,
    so ``base + beta = beta`` and ``lhs = alpha``: the verdict is ``beta ==
    alpha``.  Otherwise base is nonzero at every probe; call its exponent
    b.  The addition rule of :mod:`tropquad.semiring` (zero is the
    identity; of two nonzero summands the one of strictly larger exponent
    wins, and a tie gives the ghost of the shared exponent) gives ``base +
    beta`` without a sum: ``base`` if beta is zero or exp(beta) < b,
    ``nu(base)`` if exp(beta) == b, and ``beta`` if exp(beta) > b.  So one
    pass over the probes collects three facts that decide every candidate:

    * ``below``, the largest b at which ``base != lhs``.  A zero beta
      survives iff there is none; a nonzero beta needs exp(beta) >= below,
      since at every probe with b > exp(beta) its sum is base.
    * ``ties``, the set of b at which ``nu(base) != lhs``.  A nonzero beta
      whose exponent lies in it fails the probe where it ties base.
    * ``low``, the least b.  A nonzero beta with exp(beta) > low must equal
      lhs at every probe with b < exp(beta), and there ``lhs = base +
      alpha`` is base, nu(base) or alpha.  The first two have exponent b,
      so beta survives those probes iff it is alpha.

    Each candidate then costs a set lookup and a few comparisons, and its
    verdict is the conjunction that one sum and one comparison per pair of
    probe and candidate would give.

    Each candidate is a (tag, exponent, fiber) triple of the battery, an
    element held at its frame F: the exponent is F times the one it stands
    for, an integer (None for zero).  The sums are evaluated at the scale
    that :func:`_probe_exponents_for` takes from alpha1, alpha2, alpha and F
    alone; its docstring proves each verdict exact, with no Fraction in the
    loop, and "beta is alpha" is equality of triples at that scale.

    No element is built in the loop: base is held as its exponent b and
    whether it is a ghost.  Lambda has the identity fiber, so ``lambda *
    alpha1`` is alpha1 with its exponent raised by exp(lambda) and its tag
    kept, and ``lambda^-1 * alpha2`` is alpha2 lowered by it; a zero line
    has no term.  Of the two terms, base is the one of strictly larger
    exponent, and at a tie the ghost of the shared exponent.  ``lhs = base
    + alpha`` is base if alpha is zero or lies below b, alpha if it lies
    above, and ``nu(base)`` at a tie: :meth:`Element.__add__` case by case.
    A ghost is its own ``nu``, and a tangible differs from its ``nu`` in
    tag, while alpha's exponent differs from b whenever lhs is alpha.  So
    ``base != lhs`` exactly when lhs is alpha, or is ``nu(base)`` and base
    is no ghost, and ``nu(base) != lhs`` exactly when lhs is alpha, or is
    base and base is no ghost: each fact is the one the elements would give.
    """
    _, (e1, e2, e), beta_exps, exps = _probe_exponents_for(sf, (1, alpha1), (-1, alpha2), (0, alpha), battery=battery)
    triples, a = battery.triples, (alpha.tag, e, alpha.fiber)
    if e1 is None and e2 is None:
        return [(tag, x, fiber) == a for (tag, _, fiber), x in zip(triples, beta_exps)]
    g1, g2 = alpha1.tag == _TAG_GHOST, alpha2.tag == _TAG_GHOST
    base_exps, misses, ties = [], [], set()
    for x in exps:
        if e2 is None:
            b, ghost = e1 + x, g1
        elif e1 is None:
            b, ghost = e2 - x, g2
        else:
            up, down = e1 + x, e2 - x
            b, ghost = (up, g1) if up > down else (down, g2) if up < down else (up, True)
        base_exps.append(b)
        if e is None or b > e:  # lhs is base
            if not ghost:
                ties.add(b)
        elif b < e:  # lhs is alpha
            misses.append(b)
            ties.add(b)
        elif not ghost:  # lhs is nu(base)
            misses.append(b)
    below, low = max(misses, default=None), min(base_exps)
    return [
        below is None if x is None
        else (below is None or x >= below) and x not in ties and (x <= low or (tag, x, fiber) == a)
        for (tag, _, fiber), x in zip(triples, beta_exps)
    ]


class Battery(Sequence):
    """A read-only sequence of elements held as (tag, exponent, fiber) triples at the integer frame
    ``frame``, each exponent ``frame`` times the element's (None for zero): built only where read."""

    __slots__ = ("triples", "frame")

    def __init__(self, triples: list[tuple], frame: int):
        self.triples, self.frame = triples, frame

    def __len__(self) -> int:
        return len(self.triples)

    def __getitem__(self, k: int) -> Element:
        tag, x, fiber = self.triples[k]
        return ZERO if x is None else Element(tag, _unscaled_exp(x, self.frame), fiber)


def _as_battery(betas: Sequence[Element]) -> Battery:
    """betas as a :class:`Battery`: itself if it is one, or else their triples at the
    lcm of their exponent denominators."""
    if isinstance(betas, Battery):
        return betas
    frame = math.lcm(*(b.exp.denominator for b in betas if b.exp.__class__ is Fraction))
    return Battery([(b.tag, None if b.exp is None else _scaled_exp(b.exp, frame), b.fiber) for b in betas], frame)


def companion_membership_oracle(
    sf: Semifield, alpha1: Element, alpha2: Element, alpha: Element, betas: Sequence[Element]
) -> list[bool]:
    """Decide cross-coefficient membership of each beta from its definition, by
    :func:`triple_membership_oracle` on the betas as a battery (see :func:`_as_battery`)."""
    return triple_membership_oracle(sf, alpha1, alpha2, alpha, _as_battery(betas))


def diagonal_membership_oracle(sf: Semifield, alpha: Element, betas: Sequence[Element]) -> list[bool]:
    """Decide for each beta whether it is an admissible Gram diagonal entry.

    The defining family of identities, after dividing by the product of the
    two scalars, becomes one-parameter in t = lambda/mu:

        (t + t^-1 + e) * alpha  ==  (t + t^-1) * alpha + beta.

    By distributivity and e * alpha = nu(alpha) the left side is
    t * alpha + t^-1 * alpha + nu(alpha), and the right side is
    t * alpha + t^-1 * alpha + beta: the cross-coefficient statement with
    diagonal (alpha, alpha) and cross term nu(alpha), which
    :func:`triple_membership_oracle` decides on the betas as a battery.  Its
    extra line (0, nu(alpha)) meets the lines of slope +1 and -1 only at
    exponent 0, where those two already tie, so it adds no tie point.
    """
    return triple_membership_oracle(sf, alpha, alpha, alpha.nu(), _as_battery(betas))


# ---------------------------------------------------------------------------
# tables


class CompanionTable(Value):
    """Symmetric grid of companion sets, one per pair of base vectors."""

    __slots__ = ("sf", "cells")

    @property
    def n(self) -> int:
        return len(self.cells)

    def cell(self, i: int, j: int) -> CompanionSet:
        return self.cells[i][j]


def companion_table(q: QuadraticForm) -> CompanionTable:
    """Each cell depends only on the two coefficients it indexes.

    The cross coefficients are read off the rows of ``q.cross``.  A
    diagonal cell is the rank-2 case at (alpha, alpha, nu(alpha)).  Every
    cell of one :func:`cell_key` is the first cell of that key, so a reader
    keys cells by object; a cell with no key keeps its own object.
    """
    sf, diag = q.sf, q.diag
    n = len(diag)
    grid: list[list[CompanionSet]] = [[None] * n for _ in range(n)]  # type: ignore[list-item]
    first: dict[tuple, CompanionSet] = {}
    for i, (alpha1, row) in enumerate(zip(diag, q.cross)):
        nu = alpha1.nu()
        for j in range(i, n):
            cell = pair_analysis(sf, alpha1, diag[j], row[j] if j > i else nu)[1]
            if (key := cell_key(cell)) is not None:
                cell = first.setdefault(key, cell)
            grid[i][j] = grid[j][i] = cell
    return CompanionTable(sf, tuple(map(tuple, grid)))


def build_companion(table: CompanionTable, choice) -> SymmetricBilinearForm:
    """Assemble a companion from a symmetric per-cell choice of entries.

    ``choice`` maps (i, j) with i <= j to an element of cell (i, j); any
    entry outside its cell is rejected.
    """
    n = table.n
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            beta = choice.get((i, j))
            if beta is None:
                raise PreconditionError("complete choice required", f"no entry chosen for cell ({i + 1},{j + 1})")
            if not contains(table.cell(i, j), beta):
                raise PreconditionError(
                    "choice within companion cell required",
                    f"entry {beta} at ({i + 1},{j + 1}) lies outside its companion set",
                )
            rows[i][j] = rows[j][i] = beta
    return SymmetricBilinearForm(table.sf, tuple(tuple(r) for r in rows))


def is_companion(q: QuadraticForm, b: SymmetricBilinearForm) -> bool:
    """Whether b accompanies q, via cellwise membership."""
    check_operands("form and Gram matrix", q, b)
    table = companion_table(q)
    return all(contains(table.cell(i, j), b.gram[i][j]) for i in range(q.n) for j in range(i, q.n))


# ---------------------------------------------------------------------------
# form predicates


def is_quasilinear(q: QuadraticForm) -> bool:
    """Whether the zero bilinear form accompanies q."""
    return all(
        contains(pair_analysis(q.sf, q.diag[i], q.diag[j], q.beta(i, j))[1], ZERO)
        for i in range(q.n)
        for j in range(i + 1, q.n)
    )


def _first_difference(q1: QuadraticForm, q2: QuadraticForm) -> Optional[tuple[int, int]]:
    """(i, i) for the first unequal diagonal coefficient, else the first (i, j),
    i < j, whose q2 cross coefficient lies outside q1's cell, else None.

    The rows of the two schemes are walked side by side, and the case
    analysis runs only on a pair whose coefficients differ: a scheme's own
    coefficient always lies in its cell (every branch of
    :func:`pair_analysis` admits its cross term, which
    ``test_scheme_coefficient_always_admissible_property`` checks), so a
    pair where q2 holds q1's coefficient is never the difference.  No
    table, diagonal cell or ``beta`` lookup is built, and the scan is still
    row-major, so the pair found is the first.
    """
    check_operands("forms", q1, q2)
    diag = q1.diag
    for i, (a1, a2) in enumerate(zip(diag, q2.diag)):
        if a1 != a2:
            return i, i
    sf, n = q1.sf, q1.n
    for i, (alpha1, row1, row2) in enumerate(zip(diag, q1.cross, q2.cross)):
        for j in range(i + 1, n):
            beta1, beta2 = row1[j], row2[j]
            if beta2 is beta1 or beta2 == beta1:
                continue
            if not contains(pair_analysis(sf, alpha1, diag[j], beta1)[1], beta2):
                return i, j
    return None


def functionally_equal(q1: QuadraticForm, q2: QuadraticForm) -> bool:
    """Whether two triangular schemes denote the same function.

    A functional form is pinned down by its axis values together with any
    single companion, so equal diagonals plus cellwise admissibility of the
    other scheme's cross coefficients decide equality.
    """
    return _first_difference(q1, q2) is None


def equality_witness(q1: QuadraticForm, q2: QuadraticForm):
    """A vector on which the two forms evaluate differently, or None.

    Unequal diagonals are separated by a unit vector.  An inadmissible
    cross coefficient is separated by a vector supported on its two
    indices, found among the oracle's probe exponents; on such a vector the
    forms differ only in that coefficient, so only an inadmissible one can
    separate them.  Every other term at that vector is a product with ZERO,
    so each form is evaluated as its rank-2 restriction to the two indices.
    """
    found = _first_difference(q1, q2)
    if found is None:
        return None
    sf, n, one = q1.sf, q1.n, q1.sf.one
    i, j = found
    if i == j:
        return tuple(one if k == i else ZERO for k in range(n))
    r1, r2 = (QuadraticForm(sf, (q.diag[i], q.diag[j]), {(0, 1): q.beta(i, j)}) for q in (q1, q2))
    scale, _, _, exps = _probe_exponents_for(sf, (1, q1.diag[i]), (-1, q1.diag[j]), (0, q1.beta(i, j)), (0, q2.beta(i, j)))
    for exp in exps:
        lam = sf.tangible(_unscaled_exp(exp, scale))
        if eval_quadratic(r1, (lam, one)) != eval_quadratic(r2, (lam, one)):
            return tuple(lam if k == i else (one if k == j else ZERO) for k in range(n))
    raise AssertionError("unequal forms must admit a distinguishing vector")
