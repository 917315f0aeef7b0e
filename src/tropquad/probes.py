"""Probe batteries for differential testing of companion cells.

Given a cell, the battery straddles its boundary exponent from both sides
at whole, half, and third steps (whichever are legal in the exponent
group), in tangible and ghost flavors, and always includes zero and the
form's own cross coefficient.  Dense groups additionally get points found
strictly inside the one-third neighborhoods, which matters when the
boundary itself is not a legal exponent.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .companions import CompanionSet, cell_boundary
from .semiring import ZERO, Element, Exponent, Semifield


def boundary_probe_elements(sf: Semifield, alpha: Optional[Element], cell: CompanionSet) -> list[Element]:
    """Elements worth testing for membership in the cell of cross coefficient alpha.

    alpha is None for a diagonal cell.  The battery holds zero and the
    ghost of each of its elements.
    """
    exps: set[Exponent] = set()
    boundary = cell_boundary(cell)
    if boundary is not None:
        for offset in (
            Fraction(-1),
            Fraction(-1, 2),
            Fraction(-1, 3),
            Fraction(0),
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(1),
        ):
            candidate = boundary + offset
            if sf.legal_exponent(candidate):
                exps.add(candidate)
        for lo, hi in ((boundary - Fraction(1, 3), boundary), (boundary, boundary + Fraction(1, 3))):
            inside = sf.between(lo, hi)
            if inside is not None:
                exps.add(inside)
    else:
        exps.add(0)
    probes: list[Element] = [ZERO]
    for exp in sorted(Fraction(e) for e in exps):
        probes.append(sf.tangible(exp))
        probes.append(sf.ghost(exp))
        if sf.fiber_rank > 0:
            probes.append(sf.tangible(exp, (-1,) + sf.identity_fiber()[1:]))
    if alpha is not None and not alpha.is_zero:
        probes.append(alpha)
        probes.append(alpha.nu())
    return probes
