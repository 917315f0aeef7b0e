"""Probe batteries for differential testing of companion cells.

Given a cell, the battery straddles its boundary exponent from both sides
at whole, half, and third steps (whichever are legal in the exponent
group), in tangible and ghost flavors, and always includes zero and the
form's own cross coefficient.  Dense groups additionally get points found
strictly inside the one-third neighborhoods, which matters when the
boundary itself is not a legal exponent.

The exponents are found on integers, at one scale per battery: eighteen
times the boundary's denominator (the proof is in
:func:`boundary_probe_elements`).  The semifield's integer rules decide
legality and the points inside the neighborhoods.  A battery comes out at
a frame F, every exponent multiplied by F: at F = 1 its exponents are the
rationals they stand for, and at the F of :func:`battery_frame` they are
integers, which ``check`` keeps from the battery to the verdict.
"""

from __future__ import annotations

import math
from typing import Optional

from .companions import CompanionSet, cell_boundary
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
        found = {edge + step for step in steps if sf.legal_scaled(edge + step, scale)}
        for lo, hi in ((edge - third, edge), (edge, edge + third)):
            inside = sf.between_scaled(lo, hi, scale)
            if inside is not None:
                found.add(inside)
        exps = [_unscaled_exp(x * frame, scale) for x in sorted(found)]
    # the exponents are legal and canonical (at frame 1), so the elements need no checks
    one = sf.one
    flipped = (-1,) + one.fiber[1:]
    probes: list[Element] = [ZERO]
    for exp in exps:
        tangible = Element(one.tag, exp, one.fiber)
        probes.append(tangible)
        probes.append(tangible.nu())
        if sf.fiber_rank > 0:
            probes.append(Element(one.tag, exp, flipped))
    if alpha is not None and not alpha.is_zero:
        alpha = Element(alpha.tag, _unscaled_exp(alpha.exp.numerator * frame, alpha.exp.denominator), alpha.fiber)
        probes.append(alpha)
        probes.append(alpha.nu())
    return probes
