"""Supertropicalization of rational quadratic forms.

A supervaluation spec wraps a p-adic (or trivial) valuation on the
rationals into a multiplicative map phi into the discrete semifield.  Sign
convention: phi(a) carries exponent -v_p(a), so elements of small
valuation are large in the max ordering and the ghosted image of phi is
order-reversing against v_p.  JSON output always uses this max convention;
the CLI offers a min-plus rendering for display only.

The image form q^phi is the coefficientwise image of the triangular scheme
and lives on the standard base, which monomial base changes can only
permute and rescale.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import PreconditionError
from .forms import QuadraticForm, SymmetricBilinearForm, balanced_companion, eval_quadratic
from .semiring import Element, GroupKind, Semifield, SquareClassTag, Value, _set

RatMatrix = tuple[tuple[Fraction, ...], ...]


_QZERO = Fraction(0)


class RationalQuadraticForm(Value):
    """Triangular scheme with exact rational coefficients.

    ``coeffs`` maps each key (i, j), i <= j, to its nonzero coefficient; it
    has no dimension limit, so it is sparse rather than an n x n grid.  The
    constructor takes a mapping ``{(i, j): c}``.  Treat ``coeffs`` as
    read-only: the form is a value, compared and hashed by content.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[tuple[int, int], Fraction] = {}):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        for i, j in coeffs:
            if not (0 <= i <= j < n):
                raise ValueError(f"coefficient index ({i},{j}) out of range")
        canon = ((k, Fraction(c)) for k, c in sorted(coeffs.items()))
        _set(self, "n", n)
        _set(self, "coeffs", {k: c for k, c in canon if c != 0})

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.coeffs.items())))

    def coeff(self, i: int, j: int) -> Fraction:
        return self.coeffs.get((i, j) if i <= j else (j, i), _QZERO)

    def evaluate(self, x: Sequence[Fraction]) -> Fraction:
        if len(x) != self.n:
            raise PreconditionError("dimension match required", "vector length mismatch")
        total = Fraction(0)
        for (i, j), c in self.coeffs.items():
            total += c * x[i] * x[j]
        return total


MODES = ("tangible", "ghost", "signed")


class SupervaluationSpec(Value):
    """prime None means the trivial valuation (everything nonzero maps to level 0)."""

    __slots__ = ("prime", "mode")

    def __init__(self, prime: Optional[int], mode: str = "tangible"):
        if prime is not None and (prime < 2 or not _is_prime(prime)):
            raise ValueError(f"{prime} is not a prime")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        _set(self, "prime", prime)
        _set(self, "mode", mode)

    @property
    def semifield(self) -> Semifield:
        return Semifield(GroupKind.INT, 1 if self.mode == "signed" else 0)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def padic_valuation(p: int, a: Fraction) -> int:
    if a == 0:
        raise ValueError("the valuation of zero is not finite")
    v = 0
    num, den = a.numerator, a.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def apply_supervaluation(spec: SupervaluationSpec, a) -> Element:
    """phi: zero to zero, nonzero a to level -v_p(a), tagged per mode."""
    a = Fraction(a)
    sf = spec.semifield
    if a == 0:
        return sf.zero
    level = 0 if spec.prime is None else -padic_valuation(spec.prime, a)
    if spec.mode == "ghost":
        return sf.ghost(level)
    if spec.mode == "signed":
        return sf.tangible(level, (1,) if a > 0 else (-1,))
    return sf.tangible(level)


def stropicalize_form(spec: SupervaluationSpec, q: RationalQuadraticForm) -> QuadraticForm:
    """Coefficientwise image of the triangular scheme."""
    sf = spec.semifield
    diag = tuple(apply_supervaluation(spec, q.coeff(i, i)) for i in range(q.n))
    upper = {(i, j): apply_supervaluation(spec, c) for (i, j), c in q.coeffs.items() if i != j}
    return QuadraticForm(sf, diag, upper)


def stropicalize_bilinear(spec: SupervaluationSpec, m: RatMatrix) -> SymmetricBilinearForm:
    """Entrywise image of a symmetric rational Gram matrix."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise PreconditionError("square matrix required", "Gram matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise PreconditionError("symmetric matrix required", f"asymmetry at ({i + 1},{j + 1})")
    return SymmetricBilinearForm(
        spec.semifield, tuple(tuple(apply_supervaluation(spec, c) for c in row) for row in m)
    )


def ring_companion_matrix(q: RationalQuadraticForm) -> RatMatrix:
    """The unique companion over the rationals: doubled diagonal, shared cross terms."""
    n = q.n
    rows = [[_QZERO] * n for _ in range(n)]
    for (i, j), c in q.coeffs.items():
        rows[i][j] = rows[j][i] = 2 * c if i == j else c
    return tuple(map(tuple, rows))


def balanced_companion_of_strop(spec: SupervaluationSpec, q: RationalQuadraticForm) -> SymmetricBilinearForm:
    """Balanced companion of the image form: ghosted diagonal, copied cross terms."""
    return balanced_companion(stropicalize_form(spec, q))


class AxisReport(Value):
    """Outcome of checking phi-compatibility of evaluation on sampled vectors.

    Compatibility is an identity on axis multiples; off the axes it can
    fail, so off-axis counterexamples are informational only.
    """

    __slots__ = ("axis_checked", "axis_failures", "off_axis_checked", "off_axis_counterexamples")

    def __init__(
        self,
        axis_checked: int,
        axis_failures: tuple[tuple[tuple[Fraction, ...], Element, Element], ...],
        off_axis_checked: int,
        off_axis_counterexamples: tuple[tuple[tuple[Fraction, ...], Element, Element], ...],
    ):
        _set(self, "axis_checked", axis_checked)
        _set(self, "axis_failures", axis_failures)
        _set(self, "off_axis_checked", off_axis_checked)
        _set(self, "off_axis_counterexamples", off_axis_counterexamples)


def axis_compatibility_check(
    spec: SupervaluationSpec, q: RationalQuadraticForm, samples: Sequence[Sequence[Fraction]]
) -> AxisReport:
    qphi = stropicalize_form(spec, q)
    axis_checked = off_checked = 0
    axis_failures = []
    off_examples = []
    for raw in samples:
        vec = tuple(Fraction(c) for c in raw)
        if len(vec) != q.n:
            raise PreconditionError("dimension match required", "sample vector length mismatch")
        image = tuple(apply_supervaluation(spec, c) for c in vec)
        lhs = eval_quadratic(qphi, image)
        rhs = apply_supervaluation(spec, q.evaluate(vec))
        on_axis = sum(1 for c in vec if c != 0) <= 1
        if on_axis:
            axis_checked += 1
            if lhs != rhs:
                axis_failures.append((vec, lhs, rhs))
        else:
            off_checked += 1
            if lhs != rhs:
                off_examples.append((vec, lhs, rhs))
    return AxisReport(axis_checked, tuple(axis_failures), off_checked, tuple(off_examples))


def square_class_sequence(
    spec: SupervaluationSpec, q: RationalQuadraticForm
) -> tuple[Optional[SquareClassTag], ...]:
    """Unordered multiset (sorted canonically) of diagonal image square classes.

    Zero diagonal entries contribute None, the marker for the zero class.
    """
    sf = spec.semifield
    tags: list[Optional[SquareClassTag]] = []
    for i in range(q.n):
        image = apply_supervaluation(spec, q.coeff(i, i))
        tags.append(None if image.is_zero else sf.square_class(image))
    return tuple(sorted(tags, key=_class_sort_key))


def _class_sort_key(tag: Optional[SquareClassTag]):
    if tag is None:
        return (0, 0, ())
    return (1, (tag.ghost, tag.parity), tag.fiber or ())
