"""Probe batteries for companion cells, and the check of one cell against the oracle.

Given a cell, the battery straddles its boundary exponent from both sides
at whole, half, and third steps (whichever are legal in the exponent
group), in tangible and ghost flavors, and always includes zero and the
form's own cross coefficient.  Dense groups additionally get points found
strictly inside the one-third neighborhoods, which matters when the
boundary itself is not a legal exponent.

The exponents are found on integers, at one scale per battery (see
:func:`boundary_probe_elements`), and a battery comes out at a frame F,
every exponent multiplied by F.  :func:`cell_disagreements`, which
``check`` runs on each cell, holds the battery, the cell and both verdicts
at the F of :func:`battery_frame`, where every exponent is an integer.
"""

from __future__ import annotations

import math
from typing import Optional

from .companions import (
    CompanionSet, NuClass, Singleton, cell_boundary, companion_membership_oracle, diagonal_membership_oracle,
)
from .forms import QuadraticForm
from .semiring import ZERO, Element, Semifield, _scaled_exp, _unscaled_exp


def battery_frame(alpha: Optional[Element], cell: CompanionSet) -> int:
    """The frame at which the cell's battery, the cell and alpha have integer exponents.

    That is lcm(18 * D, den exp(alpha)), with D the boundary's denominator
    (1 for the cell {0}): 18 * D clears the battery (see
    :func:`boundary_probe_elements`), and the boundary's denominator is a
    multiple of the cell's doubled bound's.
    """
    boundary = cell_boundary(cell)
    frame = 18 if boundary is None else 18 * boundary.denominator
    return frame if alpha is None or alpha.is_zero else math.lcm(frame, alpha.exp.denominator)


def boundary_probe_elements(
    sf: Semifield, alpha: Optional[Element], cell: CompanionSet, frame: int = 1
) -> list[Element]:
    """Elements worth testing for membership in the cell of cross coefficient alpha,
    with every exponent multiplied by ``frame``.

    alpha is None for a diagonal cell.  The battery holds zero and the
    ghost of each of its elements.

    With D the boundary's denominator, the scale S = 18 * D clears every
    exponent the battery holds: the boundary and its whole, half and third
    offsets lie in (1/6D)Z, and so does the ``rat`` midpoint of a
    one-third neighborhood (a sixth step from its ends).  The ``int`` pick
    inside a neighborhood is an integer, and the ``rat3`` pick is a
    multiple of 1/9, the largest power-of-3 step shorter than 1/3.
    """
    if (boundary := cell_boundary(cell)) is None:
        exps = [0]
    else:
        scale = 18 * boundary.denominator
        edge = _scaled_exp(boundary, scale)
        half, third = scale // 2, scale // 3
        steps = (-scale, -half, -third, 0, third, half, scale)
        legal, between = sf.scaled_rules
        found = {edge + step for step in steps if legal(edge + step, scale)}
        for lo, hi in ((edge - third, edge), (edge, edge + third)):
            inside = between(lo, hi, scale)
            if inside is not None:
                found.add(inside)
        exps = [_unscaled_exp(x * frame, scale) for x in sorted(found)]
    # the exponents are legal and canonical (at frame 1), so the elements need no checks
    one = sf.one
    flipped = (-1,) + one.fiber[1:]
    probes: list[Element] = [ZERO]
    for exp in exps:
        tangible = Element(one.tag, exp, one.fiber)
        probes += (tangible, tangible.nu())
        if sf.fiber_rank > 0:
            probes.append(Element(one.tag, exp, flipped))
    if alpha is not None and not alpha.is_zero:
        alpha = Element(alpha.tag, _unscaled_exp(alpha.exp.numerator * frame, alpha.exp.denominator), alpha.fiber)
        probes += (alpha, alpha.nu())
    return probes


def _scaled_cell(cell: CompanionSet, scale: int) -> CompanionSet:
    """The cell with every exponent times scale, which must clear them.  :func:`contains`
    reads an exponent only through ``2 * x``, ``<``, ``<=`` and ``==``, which
    x -> scale * x keeps, so the scaled cell holds exactly the scaled members."""
    if isinstance(cell, Singleton):
        return cell if (b := cell.value).is_zero else Singleton(Element(b.tag, _scaled_exp(b.exp, scale), b.fiber))
    if isinstance(cell, NuClass):
        return NuClass(_scaled_exp(cell.exp, scale))
    return cell.__class__(_scaled_exp(cell.bound2, scale))


def cell_disagreements(q: QuadraticForm, i: int, j: int, cell: CompanionSet) -> tuple[int, list[Element]]:
    """Cell (i, j)'s battery size, and each probe where the oracle and :func:`contains` disagree
    about the cell, as the element it stands for; battery and cell are held at :func:`battery_frame`'s frame."""
    alpha = None if i == j else q.cross[i][j]
    frame = battery_frame(alpha, cell)
    probes = boundary_probe_elements(q.sf, alpha, cell, frame)
    if alpha is None:
        by_oracle = diagonal_membership_oracle(q.sf, q.diag[i], probes, frame)
    else:
        by_oracle = companion_membership_oracle(q.sf, q.diag[i], q.diag[j], alpha, probes, frame)
    holds = _scaled_cell(cell, frame).holds  # contains, with the cell's kind looked up once
    return len(probes), [
        beta if beta.is_zero else Element(beta.tag, _unscaled_exp(beta.exp, frame), beta.fiber)
        for beta, ok in zip(probes, by_oracle) if holds(beta) != ok
    ]
