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

Coefficients repeat, so each function maps them through one
:func:`_image_map`, a per-call memo that images each distinct value once:
phi(c) depends on the value of c alone.  :func:`stropicalize_images`, the
CLI's one call, images q once and reads the ring companion's image and the
square classes off q^phi.  ``spec.semifield`` is one of two module-level
values and builds nothing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import PreconditionError, check_vector
from .forms import QuadraticForm, SymmetricBilinearForm, _cross_with_diagonal, balanced_companion
from .semiring import Element, GroupKind, Semifield, SquareClassTag, Value

RatMatrix = tuple[tuple[Fraction, ...], ...]


_QZERO = Fraction(0)


def _exact(what: str, x):
    """x, unless it is a float (inexact) or a bool (an int that prints as a word)."""
    if isinstance(x, (float, bool)):
        raise ValueError(f"{what} must be an exact number, not {type(x).__name__} {x!r}")
    return x


def _rational(what: str, x) -> Fraction:
    """x as a Fraction: it must be an exact number or a rational string, which the error names.

    A value whose class is exactly Fraction is returned as it is; a
    subclass is converted like any other number.
    """
    if x.__class__ is Fraction:
        return x
    try:
        return Fraction(_exact(what, x))
    except TypeError:
        raise ValueError(f"{what} must be a number or a string, not {type(x).__name__} {x!r}") from None
    except OverflowError:  # an infinite Decimal
        raise ValueError(f"{what} must be finite, not {x!r}") from None


def _base(what: str, p) -> int:
    """p, unless it is not an int: a float or bool is inexact, anything else ill-typed."""
    if p.__class__ is not int:
        _exact(what, p)
        raise ValueError(f"{what} must be an int, not {type(p).__name__} {p!r}")
    return p


class RationalQuadraticForm(Value):
    """Triangular scheme with exact rational coefficients.

    ``coeffs`` maps each key (i, j), i <= j, to its nonzero coefficient; it
    has no dimension limit, so it is sparse rather than an n x n grid.  The
    constructor takes a mapping ``{(i, j): c}``.  Treat ``coeffs`` as
    read-only: the form is a value, compared and hashed by content.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[tuple[int, int], Fraction] = {}):
        if _base("dimension", n) < 1:
            raise ValueError("dimension must be at least 1")
        for key in coeffs:
            i, j = key if key.__class__ is tuple and len(key) == 2 else (None, None)
            if i.__class__ is not int or j.__class__ is not int:
                raise ValueError(f"coefficient index {key!r} must be a pair of ints")
            if not (0 <= i <= j < n):
                raise ValueError(f"coefficient index ({i},{j}) out of range")
        canon = ((k, _rational("coefficient", c)) for k, c in sorted(coeffs.items()))
        Value.__init__(self, n, {k: c for k, c in canon if c != 0})

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.coeffs.items())))

    def coeff(self, i: int, j: int) -> Fraction:
        return self.coeffs.get((i, j) if i <= j else (j, i), _QZERO)

    def evaluate(self, x: Sequence[Fraction]) -> Fraction:
        x = [_rational("coordinate", c) for c in check_vector(self, x)]
        total = Fraction(0)
        for (i, j), c in self.coeffs.items():
            total += c * x[i] * x[j]
        return total


MODES = ("tangible", "ghost", "signed")


class SupervaluationSpec(Value):
    """prime None means the trivial valuation (everything nonzero maps to level 0)."""

    __slots__ = ("prime", "mode")

    def __init__(self, prime: Optional[int], mode: str = "tangible"):
        if prime is not None and (_base("prime", prime) < 2 or not _is_prime(prime)):
            raise ValueError(f"{prime} is not a prime")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        Value.__init__(self, prime, mode)

    @property
    def semifield(self) -> Semifield:
        return _SIGNED if self.mode == "signed" else _UNSIGNED


_SIGNED, _UNSIGNED = Semifield(GroupKind.INT, 1), Semifield(GroupKind.INT, 0)


def _is_prime(p: int) -> bool:
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def padic_valuation(p: int, a: Fraction) -> int:
    """The exponent of p in the nonzero rational a; p must be an int of at least 2."""
    if _base("the base of a valuation", p) < 2:
        raise ValueError(f"the base of a valuation must be at least 2, not {p}")
    if a.__class__ is not Fraction:  # apply_supervaluation hands over a Fraction
        a = _rational("argument", a)
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
    a = _rational("argument", a)
    sf = spec.semifield
    if a == 0:
        return sf.zero
    level = 0 if spec.prime is None else -padic_valuation(spec.prime, a)
    if spec.mode == "ghost":
        return sf.ghost(level)
    if spec.mode == "signed":
        return sf.tangible(level, (1,) if a > 0 else (-1,))
    return sf.tangible(level)


def _image_map(spec: SupervaluationSpec):
    """``image(c)`` for one call: apply_supervaluation, once per distinct coefficient.

    The memo's key, a Fraction's lowest-terms numerator and denominator,
    names the value exactly and hashes faster than the Fraction.
    """
    memo: dict[tuple[int, int], Element] = {}

    def image(c) -> Element:
        if c.__class__ is not Fraction:
            c = Fraction(c)
        key = (c.numerator, c.denominator)
        out = memo.get(key)
        if out is None:
            out = memo[key] = apply_supervaluation(spec, c)
        return out

    return image


def stropicalize_form(spec: SupervaluationSpec, q: RationalQuadraticForm) -> QuadraticForm:
    """Coefficientwise image of the triangular scheme."""
    image = _image_map(spec)
    diag = tuple(image(q.coeff(i, i)) for i in range(q.n))
    upper = {(i, j): image(c) for (i, j), c in q.coeffs.items() if i != j}
    return QuadraticForm(spec.semifield, diag, upper)


def stropicalize_bilinear(spec: SupervaluationSpec, m: RatMatrix) -> SymmetricBilinearForm:
    """Entrywise image of a symmetric rational Gram matrix.

    Entry (i, j) is imaged for j >= i and the element is put at (j, i)
    too.  That is the image of the mirror entry: the check above found the
    two equal, and phi(c) depends on the value of c alone.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise PreconditionError("square matrix required", "Gram matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise PreconditionError("symmetric matrix required", f"asymmetry at ({i + 1},{j + 1})")
    image = _image_map(spec)
    rows = [[None] * n for _ in range(n)]
    for i, row in enumerate(m):
        out = rows[i]
        for j in range(i, n):
            out[j] = rows[j][i] = image(row[j])
    return SymmetricBilinearForm(spec.semifield, tuple(map(tuple, rows)))


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


def square_class_sequence(spec: SupervaluationSpec, q: RationalQuadraticForm) -> tuple[Optional[SquareClassTag], ...]:
    """The square classes of the image of q's diagonal; no dimension limit."""
    image = _image_map(spec)
    return _square_classes(spec.semifield, [image(q.coeff(i, i)) for i in range(q.n)])


def _square_classes(sf: Semifield, diag: Sequence[Element]) -> tuple[Optional[SquareClassTag], ...]:
    """The square classes of ``diag`` as a multiset, sorted canonically; None marks each zero entry."""
    tags = (None if a.is_zero else sf.square_class(a) for a in diag)
    return tuple(sorted(tags, key=lambda t: (0, 0, ()) if t is None else (1, (t.ghost, t.parity), t.fiber or ())))


def stropicalize_images(spec: SupervaluationSpec, q: RationalQuadraticForm) -> tuple:
    """(q^phi, the image of q's ring companion matrix, the square classes of q^phi's diagonal).

    q is imaged once and the rest is read off q^phi.  The ring companion
    has 2 c_ii on its diagonal and c_ij off it.  phi depends on a value
    alone, sends zero to zero and is multiplicative, so phi(2 c_ii) =
    phi(2) alpha_i and phi(c_ij) = beta_ij, for every prime, the trivial
    valuation and every mode: the image is q^phi's cross grid with
    phi(2) alpha_i on its diagonal.
    """
    qphi = stropicalize_form(spec, q)
    two = apply_supervaluation(spec, 2)
    b_phi = _cross_with_diagonal(qphi, [two * a for a in qphi.diag])
    return qphi, b_phi, _square_classes(spec.semifield, qphi.diag)
