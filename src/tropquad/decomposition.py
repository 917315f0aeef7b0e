"""Quasilinear part, rigid complements, and the extremes of Rig(q).

Every form splits as diagonal quasilinear part plus a rigid (zero-diagonal)
complement; the complements correspond bijectively to the off-diagonal
companions, so Rig(q) is represented implicitly by the companion table and
is never enumerated.
"""

from __future__ import annotations

from typing import Optional

from .companions import NuLtDoubled, companion_table, is_companion, set_max, set_min
from .errors import PreconditionError
from .forms import QuadraticForm, SymmetricBilinearForm, is_rigid
from .semiring import ZERO, Value


class Decomposition(Value):
    __slots__ = ("ql", "rigid", "companion")


def quasilinear_part(q: QuadraticForm) -> QuadraticForm:
    """The diagonal-only form; the unique maximal quasilinear form below q."""
    return QuadraticForm(q.sf, q.diag)


def rigid_complement(q: QuadraticForm, b: SymmetricBilinearForm) -> QuadraticForm:
    """The zero-diagonal form carved out of a companion's off-diagonal part."""
    if not is_companion(q, b):
        raise PreconditionError(
            "companion required",
            "rigid complements come from companions of the form",
        )
    upper = {}
    for i in range(q.n):
        for j in range(i + 1, q.n):
            upper[(i, j)] = b.gram[i][j]
    return QuadraticForm(q.sf, (ZERO,) * q.n, upper)


def off_diagonal_companion(rho: QuadraticForm) -> SymmetricBilinearForm:
    """A rigid form's unique companion: zero diagonal, its own cross coefficients."""
    if not is_rigid(rho):
        raise PreconditionError("rigid form required", "the form has a nonzero diagonal coefficient")
    return SymmetricBilinearForm(rho.sf, rho.cross)


def decompose(q: QuadraticForm, b: Optional[SymmetricBilinearForm] = None) -> Decomposition:
    """Split q along a companion (default: the zero-diagonal minimal one)."""
    rho = rig_extrema(q).minimum if b is None else rigid_complement(q, b)
    return Decomposition(quasilinear_part(q), rho, off_diagonal_companion(rho))


class RigExtrema(Value):
    """``no_max_cell`` is the witness (i, j) when ``maximum`` is None."""

    __slots__ = ("minimum", "maximum", "no_max_cell", "table")


def rig_extrema(q: QuadraticForm) -> RigExtrema:
    """Cellwise extremes of the set of rigid complements in q.

    The minimum picks each cell's canonical minimal element; the maximum
    exists iff every off-diagonal cell has one (half-open cells over a
    dense gap do not).  The table is walked by rows, and a zero extreme is
    left out of its mapping, since an absent coefficient is zero.

    ``set_min`` and ``set_max`` run once per cell object, and
    :func:`~tropquad.companions.companion_table` hands out one object per
    cell value, so cells of one value share their extremes' objects.
    """
    sf, n = q.sf, q.n
    table = companion_table(q)
    min_upper = {}
    max_upper = {}
    no_max_cell = None
    extremes: dict[int, tuple] = {}  # id(cell) -> (set_min, set_max); the table keeps each cell alive
    for i, row in enumerate(table.cells):
        for j in range(i + 1, n):
            cell = row[j]
            pair = extremes.get(id(cell))
            if pair is None:
                pair = extremes[id(cell)] = (set_min(sf, cell), set_max(sf, cell))
            low, top = pair
            if not low.is_zero:
                min_upper[(i, j)] = low
            if top is None:
                if no_max_cell is None:
                    no_max_cell = (i, j)
                    assert isinstance(cell, NuLtDoubled)
            elif not top.is_zero:
                max_upper[(i, j)] = top
    minimum = QuadraticForm(sf, (ZERO,) * n, min_upper)
    maximum = None if no_max_cell is not None else QuadraticForm(sf, (ZERO,) * n, max_upper)
    return RigExtrema(minimum, maximum, no_max_cell, table)


def rig_contains(q: QuadraticForm, rho: QuadraticForm) -> bool:
    """Whether the zero-diagonal form rho is a rigid complement in q: its companion accompanies q."""
    return is_companion(q, off_diagonal_companion(rho))

