"""Exact supertropical semifield arithmetic.

An element is zero, tangible, or ghost.  Tangibles carry an exponent in a
totally ordered abelian group plus an optional sign vector (the "fiber") in
an elementary 2-group; ghosts carry only the exponent.  Zero is the
additive identity.  Of two nonzero summands, addition picks the one with
the strictly larger exponent, and collapses ties to the ghost of the shared
exponent, whatever the summands' tags and fibers; multiplication adds
exponents and ghosts the result as soon as one factor is ghost.  The ghost
map ``nu`` sends an element to the ghost with the same exponent and is an
idempotent semiring projection.

Everything is exact: exponents are ints or ``fractions.Fraction``, never
floats.  All values are immutable: each value class derives from
:class:`Value`, declares its fields once, in ``__slots__``, and sets them
only at construction; ``Value`` makes every later assignment or deletion
raise ``AttributeError``.  Every operation is a pure function, so the whole
module is safe for concurrent use.

Three exponent groups are supported:

* ``int``  -- the integers (discrete: each exponent has an immediate
  predecessor, and ``Tangible(-1)`` acts as the prime element);
* ``rat``  -- all rationals (dense and 2-divisible, so every nonzero
  element is a nu-square);
* ``rat3`` -- rationals whose denominator is a power of 3 (dense but not
  2-divisible, so non-nu-squares exist).

All three are nontrivial, so the degenerate one-ghost semifield cannot be
configured.  Each group states its rules, which exponents are legal and
which one lies between two others, once, on integers at a scale; the
rational methods read them, and :attr:`Semifield.scaled_rules` hands them out.
"""

from __future__ import annotations

import enum
import math
import re
from fractions import Fraction
from operator import attrgetter, mul
from typing import Callable, Optional, Union

from .errors import PreconditionError

Exponent = Union[int, Fraction]

_TAG_ZERO = "zero"
_TAG_TANGIBLE = "tangible"
_TAG_GHOST = "ghost"


class GroupKind(enum.Enum):
    """Which totally ordered abelian group supplies the exponents."""

    INT = "int"
    RAT = "rat"
    RAT3 = "rat3"

    # Enum hashes a member by its name, in Python; members are singletons
    # compared by identity, so the identity hash, in C, agrees with equality
    # and makes each lookup of a group's rules cheaper
    __hash__ = object.__hash__


_set = object.__setattr__


class Value:
    """Base of the package's immutable value classes.

    A subclass declares its fields once, in order, in ``__slots__``; this
    ``__init__`` sets them by position or name, and a validating subclass
    ends its own in one call of it.  Assigning or deleting an attribute
    afterwards raises ``AttributeError``.  Two values are equal when they
    have the same type and equal fields, a value hashes as the tuple of its
    fields, and its repr is ``Name(field=value, ...)``.  Each subclass gets
    ``_fields(value)``, which builds that tuple, with ``operator.attrgetter``
    over its ``__slots__``.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        names = self.__slots__
        if len(values) > len(names) or sorted([*names[: len(values)], *named]) != sorted(names):
            raise TypeError(f"{type(self).__name__} takes each of the fields {names} once, by position or name")
        for name, value in (*zip(names, values), *named.items()):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore slots through this instead of __setattr__
        for name, value in state[1].items():
            _set(self, name, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        get = attrgetter(*names)
        # attrgetter builds the tuple in C for two or more names; of one name it returns the bare field
        cls._fields = staticmethod(get if len(names) > 1 else lambda value: (get(value),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


def _canon_exp(x: Exponent) -> Exponent:
    """Normalize denominator-1 fractions to ints (repr and speed)."""
    if x.__class__ is not int and isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _scaled_exp(x: Exponent, scale: int) -> int:
    """``scale * x`` for an exponent whose denominator divides scale."""
    return x.numerator * (scale // x.denominator)


def _unscaled_exp(x: int, scale: int) -> Exponent:
    """The exponent ``x / scale``, canonical: an int when it is whole."""
    return x // scale if x % scale == 0 else Fraction(x, scale)


class Element(Value):
    """A supertropical value: zero, tangible, or ghost.

    ``exp`` is None exactly for zero.  ``fiber`` is a tuple over {+1, -1},
    nonempty only for tangibles in a semifield with positive fiber rank.
    Instances compare by value; two tangibles are equal only if exponents
    and fibers both agree.  This is the hot type, so it spells out
    ``__init__``, ``__eq__`` and ``__hash__`` field by field, and its
    ``__init__`` calls the slot descriptors' setters directly, which is
    faster than ``object.__setattr__``.
    """

    __slots__ = ("tag", "exp", "fiber")

    def __init__(self, tag: str, exp: Optional[Exponent] = None, fiber: tuple[int, ...] = ()):
        _set_tag(self, tag)
        _set_exp(self, exp)
        _set_fiber(self, fiber)

    def __eq__(self, other):
        if other.__class__ is Element:
            return self.tag == other.tag and self.exp == other.exp and self.fiber == other.fiber
        return NotImplemented

    def __hash__(self):
        return hash((self.tag, self.exp, self.fiber))

    @property
    def is_zero(self) -> bool:
        return self.tag == _TAG_ZERO

    @property
    def is_tangible(self) -> bool:
        return self.tag == _TAG_TANGIBLE

    @property
    def is_ghost(self) -> bool:
        return self.tag == _TAG_GHOST

    def nu(self) -> "Element":
        """Ghost map: the ghost with the same exponent (zero stays zero)."""
        if self.tag == _TAG_TANGIBLE:
            return Element(_TAG_GHOST, self.exp)
        return self

    def inverse(self) -> "Element":
        """Multiplicative inverse; only tangibles are units."""
        if self.tag != _TAG_TANGIBLE:
            raise PreconditionError(
                "tangible element required",
                f"only tangible elements are invertible, got {self}",
            )
        return Element(_TAG_TANGIBLE, -self.exp, self.fiber)

    def __add__(self, other: "Element") -> "Element":
        if self.tag == _TAG_ZERO:
            return other
        if other.tag == _TAG_ZERO:
            return self
        if self.exp > other.exp:
            return self
        if self.exp < other.exp:
            return other
        return Element(_TAG_GHOST, self.exp)

    def __mul__(self, other: "Element") -> "Element":
        if self.tag == _TAG_ZERO or other.tag == _TAG_ZERO:
            return ZERO
        exp = self.exp + other.exp
        if self.tag == _TAG_TANGIBLE and other.tag == _TAG_TANGIBLE:
            f1, f2 = self.fiber, other.fiber
            if len(f1) != len(f2):
                raise ValueError(f"cannot multiply fibers of ranks {len(f1)} and {len(f2)}")
            # rank 0 builds no product, and map multiplies the signs without a generator's frames
            return Element(_TAG_TANGIBLE, exp, tuple(map(mul, f1, f2)) if f1 else ())
        return Element(_TAG_GHOST, exp)

    def __repr__(self) -> str:
        return format_element(self)


_set_tag, _set_exp, _set_fiber = (vars(Element)[name].__set__ for name in Element.__slots__)

ZERO = Element(_TAG_ZERO)


def semiring_sum(terms) -> Element:
    total = ZERO
    for t in terms:
        total = total + t
    return total


def leq_minimal(x: Element, y: Element) -> bool:
    """The minimal partial order: x <= y iff some z satisfies x + z = y.

    Decided by the closed rule: equal, or strictly nu-smaller, or nu-equal
    with a ghost on the right.  (A witness z then is y itself, resp. x.)
    """
    if x == y:
        return True
    if x.tag == _TAG_ZERO:
        return True
    if y.tag == _TAG_ZERO:
        return False
    if x.exp < y.exp:
        return True
    return x.exp == y.exp and y.tag == _TAG_GHOST


class SquareClassTag(Value):
    """Identifies the orbit of an element under multiplication by unit squares.

    Unit squares are the tangibles with doubled exponents and identity
    fiber, so the class of a nonzero element is determined by its
    ghost/tangible tag, its exponent modulo the doubled group, and (for
    tangibles) its full fiber.
    """

    __slots__ = ("ghost", "parity", "fiber")


# matched whole, with fullmatch: a "$" anchor would also let a final newline through
_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/[1-9]\d*)?")


def parse_rational(text: str) -> Exponent:
    """The rational that the literal ``p`` or ``p/q`` names, canonical: an int when it is whole.

    The grammar is checked first; an integer literal then becomes an int
    without a ``Fraction``.
    """
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    p, slash, q = text.partition("/")
    if not slash:
        return int(p)
    return _canon_exp(Fraction(int(p), int(q)))


def format_element(a: Element) -> str:
    """Render an element in the shared text encoding.

    ``"0"``; ``"t:<rat>"`` or ``"t:<rat>:<signs>"`` for tangibles;
    ``"g:<rat>"`` for ghosts.  Signs are '+'/'-' characters, one per fiber
    coordinate.
    """
    if a.tag == _TAG_ZERO:
        return "0"
    if a.tag == _TAG_GHOST:
        return f"g:{a.exp}"
    if a.fiber:
        signs = "".join("+" if s > 0 else "-" for s in a.fiber)
        return f"t:{a.exp}:{signs}"
    return f"t:{a.exp}"


# the legal fibers of ranks 0 and 1; a tuple matches one only if its
# entries equal the signs, which is what check_fiber asks
_SMALL_FIBERS = (((),), ((1,), (-1,)))

# the fibers that the sign strings of rank 1 name
_RANK1_SIGNS = {"+": (1,), "-": (-1,)}


# -- the group rules on integers ------------------------------------------------
# Each group states its two rules once, as plain functions of the integer
# exponent x standing for x / S and the scale S, chosen by a table keyed by
# the group, so a caller in a loop looks the group up once
# (Semifield.scaled_rules).  Legality is a test of the reduced denominator
# S / gcd(x, S): 1 in int (S divides x), anything in rat, a power of 3 in
# rat3.  A between rule returns S times the group's pick strictly between
# lo / S and hi / S, or None when lo >= hi or the group has none; it raises
# ValueError, rather than round, when S does not clear the pick.  The
# rational forms are these rules, not copies: a reduced fraction of
# denominator q is legal iff 1 / q is (Semifield._legal_denominator), x is
# halvable iff x / 2 is legal, and Semifield.between asks the between rule at
# a scale that clears its pick.  tests/test_semiring.py checks every one of
# them against rules stated on Fractions.


def _int_legal(x: int, scale: int) -> bool:
    return x % scale == 0


def _rat_legal(x: int, scale: int) -> bool:
    return True


def _rat3_legal(x: int, scale: int) -> bool:
    q = scale // math.gcd(x, scale)
    while q % 3 == 0:
        q //= 3
    return q == 1


def _int_between(lo: int, hi: int, scale: int) -> Optional[int]:
    """The least integer above lo / S; it exceeds lo, so lo >= hi gives None."""
    m = (lo // scale + 1) * scale
    return m if m < hi else None


def _cleared(n: int, d: int, scale: int) -> int:
    if n % d:
        raise ValueError(f"scale {scale} does not clear the pick {n}/{d} over it")
    return n // d


def _rat_between(lo: int, hi: int, scale: int) -> Optional[int]:
    """The midpoint."""
    return None if lo >= hi else _cleared(lo + hi, 2, scale)


def _rat3_between(lo: int, hi: int, scale: int) -> Optional[int]:
    """The least multiple above lo / S of the largest step 1/p, p a power of 3,
    shorter than the interval."""
    if lo >= hi:
        return None
    p = 1
    while scale >= (hi - lo) * p:  # step 1/p not shorter than (hi - lo) / scale
        p *= 3
    return _cleared((lo * p // scale + 1) * scale, p, scale)


_SCALED_RULES = {
    GroupKind.INT: (_int_legal, _int_between),
    GroupKind.RAT: (_rat_legal, _rat_between),
    GroupKind.RAT3: (_rat3_legal, _rat3_between),
}


class Semifield(Value):
    """Configuration of the ambient semifield: exponent group + fiber rank.

    Acts as a factory with validation; the elements themselves stay plain
    values so arithmetic never needs the configuration.
    """

    __slots__ = ("group", "fiber_rank")

    def __init__(self, group: GroupKind = GroupKind.INT, fiber_rank: int = 0):
        if not isinstance(group, GroupKind):
            raise ValueError(f"group must be a GroupKind, not {group!r}")
        if isinstance(fiber_rank, bool) or not isinstance(fiber_rank, int):
            raise ValueError(f"fiber_rank must be an int, not {fiber_rank!r}")
        if fiber_rank < 0:
            raise ValueError("fiber_rank must be nonnegative")
        Value.__init__(self, group, fiber_rank)

    # -- exponent group ---------------------------------------------------

    # The methods below read the group rules from _SCALED_RULES; every
    # other caller takes them from scaled_rules.

    def _legal_denominator(self, q: int) -> bool:
        """Whether a reduced fraction of denominator q lies in the group: 1 / q is legal."""
        return _SCALED_RULES[self.group][0](1, q)

    def legal_exponent(self, x: Exponent) -> bool:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):  # bool is an int, but prints as a word
            return False
        return self._legal_denominator(x.denominator)

    def halvable(self, x: Exponent) -> bool:
        """Whether half the exponent x is legal: x lies in the doubled group."""
        return _SCALED_RULES[self.group][0](x.numerator, 2 * x.denominator)

    def check_exponent(self, x: Exponent) -> Exponent:
        if not self.legal_exponent(x):
            raise ValueError(f"exponent {x} not in the {self.group.value} group")
        return _canon_exp(x)

    def between(self, lo: Exponent, hi: Exponent) -> Optional[Exponent]:
        """Some legal exponent strictly between lo and hi, or None.

        The pick is the group's between rule's at a scale that clears it: the
        lcm S of the denominators times 2 * 3^k, 3^k >= 3 * S.  Any scale
        clears an ``int`` pick, and the factor 2 a ``rat`` midpoint.  With lo
        and hi at scale S the integers L < H, the ``rat3`` step is 1/p, p the
        least power of 3 with S < (H - L) * p, so p <= 3 * S; multiplying
        the scale and L and H by 2 * 3^k leaves p as it is, and the pick, a
        multiple of the step, becomes an integer, since p divides 3^k.
        """
        scale = math.lcm(lo.denominator, hi.denominator)
        power = 3
        while power < 3 * scale:
            power *= 3
        scale *= 2 * power
        pick = _SCALED_RULES[self.group][1](_scaled_exp(lo, scale), _scaled_exp(hi, scale), scale)
        return None if pick is None else _unscaled_exp(pick, scale)

    @property
    def scaled_rules(self) -> tuple[Callable[[int, int], bool], Callable[[int, int, int], Optional[int]]]:
        """This group's two integer rules, ``legal(x, S)`` and ``between(lo, hi, S)``,
        as plain functions, for a caller that applies them in a loop: the group
        is looked up once, not once per call."""
        return _SCALED_RULES[self.group]

    # -- element factories -------------------------------------------------

    def identity_fiber(self) -> tuple[int, ...]:
        return (1,) * self.fiber_rank

    def check_fiber(self, fiber: tuple[int, ...]) -> tuple[int, ...]:
        fiber = tuple(fiber)
        if len(fiber) != self.fiber_rank or any(s not in (1, -1) for s in fiber):
            raise ValueError(f"bad fiber {fiber} for rank {self.fiber_rank}")
        return fiber

    @property
    def zero(self) -> Element:
        return ZERO

    @property
    def one(self) -> Element:
        return Element(_TAG_TANGIBLE, 0, self.identity_fiber())

    @property
    def e(self) -> Element:
        """The additive double of one: the smallest ghost unit."""
        return Element(_TAG_GHOST, 0)

    def tangible(self, exp: Exponent, fiber: Optional[tuple[int, ...]] = None) -> Element:
        if fiber is None:
            fiber = self.identity_fiber()
        return self.element(Element(_TAG_TANGIBLE, _canon_exp(exp), fiber))

    def ghost(self, exp: Exponent) -> Element:
        return self.element(Element(_TAG_GHOST, _canon_exp(exp)))

    def prime(self) -> Element:
        """Tangible whose ghost is the largest ghost below e (discrete only)."""
        if self.group is not GroupKind.INT:
            raise PreconditionError(
                "discrete exponent group required",
                "a prime element exists only over the integer exponent group",
            )
        return self.tangible(-1)

    def element(self, a: Element) -> Element:
        """Validate that an element fits this semifield and return it.

        This is the one statement of an element's legality: :meth:`tangible`
        and :meth:`ghost` build their elements through it, and
        :meth:`parse_element` calls it directly.  Every group holds the
        integers, so an ``int`` exponent needs no test, and an exponent of
        class exactly ``Fraction`` needs only its denominator's; any other
        exponent, and a ``Fraction`` that fails, goes to
        :meth:`check_exponent`, which raises the error.  A fiber of rank 0
        or 1 is screened by equality with the legal fibers of its rank; any
        other fiber, and any that fails the screen, goes to
        :meth:`check_fiber`, which raises the error; a fiber given as a list,
        say, comes back as the validated tuple.  A value without an element's
        fields is refused by the ``AttributeError`` of reading them.
        """
        try:
            tag, exp, fiber = a.tag, a.exp, a.fiber
        except AttributeError:
            raise ValueError(f"not an element: {a!r}") from None
        if tag == _TAG_ZERO:
            if exp is not None or fiber:
                raise ValueError("zero carries no exponent or fiber")
            return a
        if exp.__class__ is not int:
            if exp.__class__ is not Fraction or not self._legal_denominator(exp.denominator):
                self.check_exponent(exp)
        if tag == _TAG_TANGIBLE:
            rank = self.fiber_rank
            if fiber.__class__ is not tuple or rank > 1 or fiber not in _SMALL_FIBERS[rank]:
                if (checked := self.check_fiber(fiber)) is not fiber:
                    return Element(tag, exp, checked)
        elif fiber:
            raise ValueError("ghosts carry no fiber")
        return a

    # -- square structure --------------------------------------------------

    def square_class(self, a: Element) -> SquareClassTag:
        if a.is_zero:
            raise PreconditionError("nonzero element required", "zero has no square class")
        parity = 0 if self.halvable(a.exp) else 1
        if a.is_ghost:
            return SquareClassTag(True, parity, None)
        return SquareClassTag(False, parity, a.fiber)

    # -- text encoding -----------------------------------------------------

    def parse_element(self, text: str) -> Element:
        """The element a literal names, built with one call of :meth:`element`.

        The exponent is read first, canonical, by :func:`parse_rational`,
        then the signs: a rank-1 sign string through a two-entry table, any
        other through the general rule.
        """
        text = text.strip()
        if text == "0":
            return ZERO
        parts = text.split(":")
        if parts[0] == "g" and len(parts) == 2:
            return self.element(Element(_TAG_GHOST, parse_rational(parts[1])))
        if parts[0] == "t" and len(parts) in (2, 3):
            exp = parse_rational(parts[1])
            if len(parts) == 2:
                fiber = self.identity_fiber()
            elif (fiber := _RANK1_SIGNS.get(parts[2])) is None:
                if any(c not in "+-" for c in parts[2]) or not parts[2]:
                    raise ValueError(f"bad fiber signs in {text!r}")
                fiber = tuple(1 if c == "+" else -1 for c in parts[2])
            return self.element(Element(_TAG_TANGIBLE, exp, fiber))
        raise ValueError(f"bad element literal: {text!r}")
