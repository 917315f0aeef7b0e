"""Matrices over the semifield; the invertible ones are exactly the
monomial (generalized permutation) matrices with tangible scales."""

from __future__ import annotations

from typing import Sequence

from .errors import PreconditionError, check_operands, check_vector
from .semiring import _TAG_TANGIBLE, _TAG_ZERO, ZERO, Element, Semifield, Value, semiring_sum


class GeneralMatrix(Value):
    """Rectangular matrix of semifield elements."""

    __slots__ = ("sf", "rows")

    def __init__(self, sf: Semifield, rows: Sequence[Sequence[Element]]):
        # the shared ZERO is legal in every semifield; every other entry is validated
        element = sf.element
        rows = tuple(tuple([v if v is ZERO else element(v) for v in row]) for row in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged matrix")
        Value.__init__(self, sf, rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __repr__(self) -> str:
        return "[" + "; ".join(" ".join(repr(v) for v in row) for row in self.rows) + "]"


class MonomialMatrix(Value):
    """One tangible entry per row and column: scales[j] sits at row perm[j] of column j."""

    __slots__ = ("sf", "perm", "scales")

    def __init__(self, sf: Semifield, perm: Sequence[int], scales: Sequence[Element]):
        perm = tuple(perm)
        for p in perm:
            if p.__class__ is not int:
                raise ValueError(f"perm entry {p!r} must be an int")
        scales = tuple(sf.element(c) for c in scales)
        n = len(perm)
        if sorted(perm) != list(range(n)) or len(scales) != n:
            raise ValueError("perm must be a permutation of 0..n-1 matching scales")
        if any(not c.is_tangible for c in scales):
            raise PreconditionError(
                "tangible scales required",
                "monomial matrices must carry tangible (unit) scales",
            )
        Value.__init__(self, sf, perm, scales)

    @property
    def n(self) -> int:
        return len(self.perm)

    def to_general(self) -> GeneralMatrix:
        rows = [[ZERO] * self.n for _ in range(self.n)]
        for j in range(self.n):
            rows[self.perm[j]][j] = self.scales[j]
        return GeneralMatrix(self.sf, tuple(tuple(r) for r in rows))

    def apply(self, x: Sequence[Element]) -> tuple[Element, ...]:
        x = tuple(map(self.sf.element, check_vector(self, x)))
        out = [ZERO] * self.n
        for j in range(self.n):
            out[self.perm[j]] = self.scales[j] * x[j]
        return tuple(out)

    def __repr__(self) -> str:
        return repr(self.to_general())


def identity_matrix(sf: Semifield, n: int) -> MonomialMatrix:
    if n.__class__ is not int:  # a bool is an int, and a float cannot count rows
        raise ValueError(f"n must be an int, not {n!r}")
    return MonomialMatrix(sf, tuple(range(n)), (sf.one,) * n)


def mat_mul(a: GeneralMatrix, b: GeneralMatrix) -> GeneralMatrix:
    check_operands("matrices", a, b, (a.ncols, b.nrows))
    rows = tuple(
        tuple(semiring_sum(a.rows[i][j] * b.rows[j][k] for j in range(a.ncols)) for k in range(b.ncols))
        for i in range(a.nrows)
    )
    return GeneralMatrix(a.sf, rows)


def monomial_decomposition(m: GeneralMatrix) -> MonomialMatrix:
    """Read a general matrix as monomial, or raise naming the first violation.

    Columns are read in order, each once; a column's count of nonzero
    entries is checked before its entry's tag, and the rows only after
    every column has passed.
    """
    if not m.is_square:
        raise PreconditionError("square matrix required", "only square matrices can be inverted")
    n = m.nrows
    perm: list[int] = []
    scales: list[Element] = []
    for j, column in enumerate(zip(*m.rows)):
        hits = [i for i, a in enumerate(column) if a.tag != _TAG_ZERO]
        if len(hits) != 1:
            raise PreconditionError(
                "monomial matrix required",
                f"column {j + 1} has {len(hits)} nonzero entries (need exactly 1)",
            )
        i = hits[0]
        entry = column[i]
        if entry.tag != _TAG_TANGIBLE:
            raise PreconditionError(
                "monomial matrix required",
                f"entry at row {i + 1}, column {j + 1} is ghost, hence not a unit",
            )
        perm.append(i)
        scales.append(entry)
    for i in range(n):
        if perm.count(i) != 1:
            raise PreconditionError(
                "monomial matrix required",
                f"row {i + 1} has {perm.count(i)} nonzero entries (need exactly 1)",
            )
    return MonomialMatrix(m.sf, tuple(perm), tuple(scales))


def is_invertible(m: GeneralMatrix) -> bool:
    try:
        monomial_decomposition(m)
    except PreconditionError as exc:
        if exc.precondition == "square matrix required":
            raise
        return False
    return True


def invert(m: MonomialMatrix) -> MonomialMatrix:
    inv_perm = [0] * m.n
    for j in range(m.n):
        inv_perm[m.perm[j]] = j
    scales = tuple(m.scales[inv_perm[k]].inverse() for k in range(m.n))
    return MonomialMatrix(m.sf, tuple(inv_perm), scales)
