"""Probe batteries for companion cells, and the check of one cell against the oracle.

Given a cell, the battery straddles its boundary exponent from both sides
at whole, half, and third steps (whichever are legal in the exponent
group), in tangible and ghost flavors, and always includes zero and the
form's own cross coefficient.  Dense groups additionally get points found
strictly inside the one-third neighborhoods, which matters when the
boundary itself is not a legal exponent.

:func:`boundary_probe_elements` builds the battery from one
:func:`cell_boundary` call and returns it as a
:class:`~tropquad.companions.Battery`: (tag, exponent, fiber) triples at
an integer frame F, each exponent F times the one it stands for, which
builds an element only where one is read.  The frame is the battery's own
and leaves with it: every element that this module hands out stands for
itself.  :func:`cell_disagreements`, which ``check`` runs on each cell,
hands that battery to the public oracle, which reads its triples and
frame, and asks the cell's ``holds`` rule, held at F too, about the same
triples; only a probe where they disagree becomes an element.
"""

from __future__ import annotations

import math
from typing import Optional

from .companions import Battery, CompanionSet, NuClass, Singleton, cell_boundary
from .companions import companion_membership_oracle, diagonal_membership_oracle
from .forms import QuadraticForm
from .semiring import _TAG_GHOST, _TAG_TANGIBLE, _TAG_ZERO, Element, Semifield, _scaled_exp


def boundary_probe_elements(sf: Semifield, alpha: Optional[Element], cell: CompanionSet) -> Battery:
    """Elements worth testing for membership in the cell of cross coefficient alpha (None for a
    diagonal cell), as a :class:`Battery`.  It holds zero and the ghost of each of its elements.

    With D the boundary's denominator (1 for the cell {0}), the scale
    S = 18 * D clears every exponent the battery holds: the boundary and
    its whole, half and third offsets lie in (1/6D)Z, and so does the
    ``rat`` midpoint of a one-third neighborhood (a sixth step from its
    ends).  The ``int`` pick inside a neighborhood is an integer, and the
    ``rat3`` pick is a multiple of 1/9, the largest power-of-3 step shorter
    than 1/3.  The battery's frame is F = lcm(S, den exp(alpha)), which
    also clears alpha and the cell: D is a multiple of the denominator of
    the cell's doubled bound.
    """
    boundary = cell_boundary(cell)
    scale = 18 if boundary is None else 18 * boundary.denominator
    frame = scale if alpha is None or alpha.is_zero else math.lcm(scale, alpha.exp.denominator)
    if boundary is None:
        exps = [0]
    else:
        edge = _scaled_exp(boundary, scale)
        half, third = scale // 2, scale // 3
        steps = (-scale, -half, -third, 0, third, half, scale)
        legal, between = sf.scaled_rules
        found = {edge + step for step in steps if legal(edge + step, scale)}
        for lo, hi in ((edge - third, edge), (edge, edge + third)):
            inside = between(lo, hi, scale)
            if inside is not None:
                found.add(inside)
        up = frame // scale
        exps = [x * up for x in sorted(found)]
    fiber = sf.identity_fiber()
    kinds = ((_TAG_TANGIBLE, fiber), (_TAG_GHOST, ())) + (((_TAG_TANGIBLE, (-1,) + fiber[1:]),) if fiber else ())
    battery = [(_TAG_ZERO, None, ())] + [(tag, x, f) for x in exps for tag, f in kinds]
    if alpha is not None and not alpha.is_zero:
        x = _scaled_exp(alpha.exp, frame)
        battery += ((alpha.tag, x, alpha.fiber), (_TAG_GHOST, x, ()))  # alpha and nu(alpha)
    return Battery(battery, frame)


def _scaled_cell(cell: CompanionSet, scale: int) -> CompanionSet:
    """The cell with every exponent times scale, which must clear them.  ``holds`` reads an exponent
    only through ``2 * x``, ``<``, ``<=`` and ``==``, which x -> scale * x keeps, so the scaled cell
    holds exactly the scaled members."""
    if isinstance(cell, Singleton):
        return cell if (b := cell.value).is_zero else Singleton(Element(b.tag, _scaled_exp(b.exp, scale), b.fiber))
    if isinstance(cell, NuClass):
        return NuClass(_scaled_exp(cell.exp, scale))
    return cell.__class__(_scaled_exp(cell.bound2, scale))


def cell_disagreements(q: QuadraticForm, i: int, j: int, cell: CompanionSet) -> tuple[int, list[Element]]:
    """Cell (i, j)'s battery size, and each probe where the oracle and :func:`contains` disagree about the cell:
    both read the battery's triples, the cell held at the battery's frame, and only such a probe becomes an element."""
    alpha = None if i == j else q.cross[i][j]
    probes = boundary_probe_elements(q.sf, alpha, cell)
    if alpha is None:
        by_oracle = diagonal_membership_oracle(q.sf, q.diag[i], probes)
    else:
        by_oracle = companion_membership_oracle(q.sf, q.diag[i], q.diag[j], alpha, probes)
    holds = _scaled_cell(cell, probes.frame).holds  # contains, with the cell's kind looked up once
    return len(probes), [probes[k] for k, ok in enumerate(by_oracle) if holds(probes.triples[k]) != ok]
