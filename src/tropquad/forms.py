"""Quadratic forms as triangular schemes and bilinear forms as Gram matrices.

A quadratic form is stored formally: diagonal coefficients alpha_i plus
cross coefficients beta_{i,j}, held once in a symmetric n x n grid (the
layout of a Gram matrix), so a lookup is one index operation and a walk
over the scheme is O(n^2).  Two distinct schemes may denote one
function; functional identity is decided in :mod:`tropquad.companions`,
never by coefficient comparison here.  Indices are 0-based internally and
rendered 1-based at the JSON boundary.

:func:`eval_quadratic` and :func:`eval_bilinear` find the largest term.
Supertropical addition is associative and commutative, and a sum of
nonzero summands is its unique summand of largest exponent, or the ghost
of that exponent when two or more summands reach it, whatever their tags
and fibers.  So the term of largest exponent decides
q(x) = sum_i alpha_i x_i^2 + sum_{i<j} beta_{i,j} x_i x_j: the value is
that term's product, its ghost at a tie, and zero when every term is
zero, the same element as the term-by-term sum.  The exponent of a term
is the sum of its factors' exponents, so one exact pass over the
exponents, on ints, finds the winner before any element is built.
"""

from __future__ import annotations

from itertools import count
from operator import itemgetter
from typing import Callable, Mapping, Optional, Sequence

from .errors import PreconditionError, check_operands, check_vector
from .matrices import MonomialMatrix
from .semiring import ZERO, Element, Semifield, Value, format_element, leq_minimal

DIMENSION_LIMIT = 64

Vector = tuple[Element, ...]


class QuadraticForm(Value):
    """Triangular coefficient scheme of a quadratic form.

    ``cross`` is the symmetric n x n grid of cross coefficients: entry
    (i, j) holds beta_{i,j} for i != j; absent coefficients and the
    diagonal hold zero.  The constructor takes the strict-upper part as a
    mapping ``{(i, j): beta}`` with i < j; a mapping names each cell once.
    """

    __slots__ = ("sf", "diag", "cross")

    def __init__(self, sf: Semifield, diag: Sequence[Element], upper: Mapping[tuple[int, int], Element] = {}):
        element = sf.element
        diag = tuple(map(element, diag))
        n = len(diag)
        if not 1 <= n <= DIMENSION_LIMIT:
            raise ValueError(f"dimension {n} outside 1..{DIMENSION_LIMIT}")
        rows = [[ZERO] * n for _ in range(n)]
        for key, v in upper.items():
            try:
                i, j = key
            except (TypeError, ValueError):  # not a pair
                i = j = None
            if i.__class__ is not int or j.__class__ is not int:  # a bool or a float is no index
                raise ValueError(f"upper index {key!r} must be a pair of ints")
            if not (0 <= i < j < n):
                raise ValueError(f"upper index ({i},{j}) out of range for n={n}")
            rows[i][j] = rows[j][i] = element(v)
        Value.__init__(self, sf, diag, tuple(map(tuple, rows)))

    @property
    def n(self) -> int:
        return len(self.diag)

    def beta(self, i: int, j: int) -> Element:
        """Cross coefficient, symmetric in i and j; zero if absent."""
        if i == j:
            raise ValueError("beta is defined for distinct indices")
        return self.cross[i][j]

    def render(self, show: Callable[[Element], str]) -> str:
        """The triangle row by row, alpha_i then beta_{i,j} for j > i, each element through ``show``."""
        rows = (" ".join(map(show, (self.diag[i], *row[i + 1 :]))) for i, row in enumerate(self.cross))
        return "[" + "; ".join(rows) + "]"

    def __repr__(self) -> str:
        return self.render(format_element)


class SymmetricBilinearForm(Value):
    """Symmetric Gram matrix over the semifield.

    Every entry is validated.  Symmetry is then checked by comparing the
    validated grid with its transpose as tuples, in C: a tuple compare
    skips an entry that is the same object as its mirror, which is exact
    because element equality is reflexive.  Only a grid that fails is
    walked for its first asymmetric (i, j), the one the error names.
    """

    __slots__ = ("sf", "gram")

    def __init__(self, sf: Semifield, gram: Sequence[Sequence[Element]]):
        gram = tuple(tuple(sf.element(v) for v in row) for row in gram)
        n = len(gram)
        if not 1 <= n <= DIMENSION_LIMIT:
            raise ValueError(f"dimension {n} outside 1..{DIMENSION_LIMIT}")
        if any(len(row) != n for row in gram):
            raise ValueError("gram matrix must be square")
        if gram != tuple(zip(*gram)):
            for i in range(n):
                for j in range(i + 1, n):
                    if gram[i][j] != gram[j][i]:
                        raise ValueError(f"gram matrix not symmetric at ({i},{j})")
        Value.__init__(self, sf, gram)

    @property
    def n(self) -> int:
        return len(self.gram)

    def render(self, show: Callable[[Element], str]) -> str:
        """The Gram matrix row by row, each element through ``show``."""
        return "[" + ", ".join("[" + ", ".join(map(show, row)) + "]" for row in self.gram) + "]"

    def __repr__(self) -> str:
        return self.render(format_element)


def eval_quadratic(q: QuadraticForm, x: Sequence[Element]) -> Element:
    """Value of the form: sum of alpha_i x_i^2 and beta_{i,j} x_i x_j.

    A supertropical sum is its unique summand of largest exponent, or that
    exponent's ghost at a tie, and addition is associative and commutative,
    so the largest term decides the value, as a term-by-term sum would.
    """
    x = tuple(map(q.sf.element, check_vector(q, x)))
    return _largest_term(x, q.cross, x, q.diag)


def eval_bilinear(b: SymmetricBilinearForm, x: Sequence[Element], y: Sequence[Element]) -> Element:
    """b(x, y), the term of a companion's defining identity q(x + y) = q(x) + q(y) + b(x, y), which
    ``test_expansion_rule_with_balanced_companion`` and ``test_built_companions_satisfy_expansion_rule`` check."""
    x = tuple(map(b.sf.element, check_vector(b, x)))
    y = tuple(map(b.sf.element, check_vector(b, y)))
    return _largest_term(x, b.gram, y)


def _largest_term(x: Vector, grid: Sequence[Sequence[Element]], y: Vector, diag: Optional[Vector] = None) -> Element:
    """The sum of the terms x_i grid[i][j] y_j, decided by its largest term.

    With ``diag`` (and y = x) the terms are a quadratic form's instead:
    x_i diag[i] x_i, and x_i grid[i][j] x_j for j > i.

    Only the indices where x and y are nonzero are read.  A term's exponent
    is held as an unreduced fraction of ints, whose denominator is the
    product of its factors' denominators, so no frame is shared by the
    whole form; a term of two whole exponents is their int sum over 1.  Two
    exponents are compared by cross-multiplying, exact because denominators
    are positive, and (-1, 0) lies below every exponent.  The pass builds
    no element and no ``Fraction``; the winning term's product is the one
    element built, and its ghost is the sum when another term ties it.
    """
    rows = [i for i, a in enumerate(x) if a.exp is not None]
    cols = rows if y is x else [j for j, a in enumerate(y) if a.exp is not None]
    if not rows or not cols:
        return ZERO
    pick = itemgetter(*cols) if len(cols) > 1 else lambda row: (row[cols[0]],)
    ys = [y[j] for j in cols]
    ratios = [(a.exp.numerator, a.exp.denominator) for a in ys]
    top_n, top_d, tie, at = -1, 0, False, None
    for p, i in enumerate(rows):
        # the row's terms are x_i coeffs[k] ys[s + k]; rn / rd is the largest exponent of coeffs[k] ys[s + k]
        coeffs, s = (pick(grid[i]), 0) if diag is None else ((diag[i], *pick(grid[i])[p + 1 :]), p)
        rn, rd, k, row_tie = -1, 0, None, False
        for j, c, (en, ed) in zip(count(), coeffs, ratios[s:]):
            b = c.exp
            if b is None:
                continue
            if ed == 1 and b.__class__ is int:
                tn, td = b + en, 1
            else:
                bd = b.denominator
                tn, td = b.numerator * ed + en * bd, bd * ed
            if tn * rd > rn * td:
                rn, rd, k, row_tie = tn, td, j, False
            elif tn * rd == rn * td:
                row_tie = True
        if not rd:
            continue
        left = x[i].exp
        ld = left.denominator
        rn, rd = rn * ld + left.numerator * rd, rd * ld
        if rn * top_d > top_n * rd:
            top_n, top_d, tie, at = rn, rd, row_tie, (i, coeffs[k], ys[s + k])
        elif rn * top_d == top_n * rd:
            tie = True
    if at is None:
        return ZERO
    i, c, a = at
    product = x[i] * c * a
    return product.nu() if tie else product


def balanced_companion(q: QuadraticForm) -> SymmetricBilinearForm:
    """The companion whose diagonal doubles the form's diagonal.

    Doubling in this semiring is the ghost map, so the Gram diagonal is
    nu(alpha_i) and the off-diagonal copies the scheme coefficients.
    """
    return _cross_with_diagonal(q, [a.nu() for a in q.diag])


def _cross_with_diagonal(q: QuadraticForm, diag: Sequence[Element]) -> SymmetricBilinearForm:
    """The Gram matrix of q's cross grid with ``diag`` on its diagonal."""
    rows = [list(row) for row in q.cross]
    for i, a in enumerate(diag):
        rows[i][i] = a
    return SymmetricBilinearForm(q.sf, rows)


def add_forms(q1: QuadraticForm, q2: QuadraticForm) -> QuadraticForm:
    check_operands("forms", q1, q2)
    diag = tuple(a + b for a, b in zip(q1.diag, q2.diag))
    n = q1.n
    upper = {(i, j): q1.cross[i][j] + q2.cross[i][j] for i in range(n) for j in range(i + 1, n)}
    return QuadraticForm(q1.sf, diag, upper)


def scale_form(lam: Element, q: QuadraticForm) -> QuadraticForm:
    diag = tuple(lam * a for a in q.diag)
    upper = {(i, j): lam * row[j] for i, row in enumerate(q.cross) for j in range(i + 1, q.n)}
    return QuadraticForm(q.sf, diag, upper)


def is_rigid(q: QuadraticForm) -> bool:
    """A form admits exactly one companion iff its diagonal vanishes."""
    return all(a.is_zero for a in q.diag)


def pointwise_leq_rigid(r1: QuadraticForm, r2: QuadraticForm) -> bool:
    """Functional order between rigid (zero-diagonal) forms.

    For zero-diagonal forms the pointwise order over all vectors reduces to
    the coefficientwise minimal order: evaluating at the sum of two unit
    vectors recovers each coefficient, and compatibility of the order with
    addition and multiplication gives the converse.  Non-rigid inputs are
    rejected; no such reduction is available for them.
    """
    if not (is_rigid(r1) and is_rigid(r2)):
        raise PreconditionError("rigid form required", "pointwise comparison is only defined for zero-diagonal forms")
    check_operands("forms", r1, r2)
    return all(leq_minimal(a, b) for row1, row2 in zip(r1.cross, r2.cross) for a, b in zip(row1, row2))


def change_base(q: QuadraticForm, p: MonomialMatrix) -> QuadraticForm:
    """q composed with P, x -> q(Px), where P sends unit vector j to c_j * eps_{perm[j]}.

    ``test_change_base_is_composition_with_matrix`` checks it with ``MonomialMatrix.apply`` and ``eval_quadratic``."""
    check_operands("form and matrix", q, p)
    diag = tuple(p.scales[k] * p.scales[k] * q.diag[p.perm[k]] for k in range(q.n))
    n = q.n
    upper = {
        (k, l): p.scales[k] * p.scales[l] * q.cross[p.perm[k]][p.perm[l]]
        for k in range(n)
        for l in range(k + 1, n)
    }
    return QuadraticForm(q.sf, diag, upper)
