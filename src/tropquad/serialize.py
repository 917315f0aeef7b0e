"""JSON schemas for every domain object, with positioned parse errors.

External indices are 1-based ("1,2" keys); internal storage is 0-based.
Serialization is deterministic: keys are sorted and element text uses the
shared encoding from :mod:`tropquad.semiring`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Optional

from .companions import CompanionSet, CompanionTable, NuClass, NuLeqDoubled, NuLtDoubled, Singleton
from .forms import QuadraticForm, SymmetricBilinearForm, Vector
from .matrices import GeneralMatrix
from .semiring import (
    Element,
    Exponent,
    GroupKind,
    Semifield,
    SquareClassTag,
    format_element,
    parse_rational,
)
from .stropicalize import RationalQuadraticForm, SupervaluationSpec


class SchemaError(Exception):
    """Input does not match the expected schema; `path` locates the problem."""

    def __init__(self, message: str, path: str = "$"):
        self.path = path
        self.reason = message
        super().__init__(f"{path}: {message}")


def _expect(cond: bool, message: str, path: str):
    if not cond:
        raise SchemaError(message, path)


def _is_int(x: Any) -> bool:
    """JSON ints only: ``true``/``false`` parse to bools, which are ints too."""
    return isinstance(x, int) and not isinstance(x, bool)


def _get(obj: dict, key: str, path: str, required: bool = True):
    if key not in obj:
        if required:
            raise SchemaError(f"missing key {key!r}", path)
        return None
    return obj[key]


# -- semifield config --------------------------------------------------------

_GROUPS = {k.value: k for k in GroupKind}


def semifield_from_json(obj: Any, path: str = "$.semifield") -> Semifield:
    _expect(isinstance(obj, dict), "semifield config must be an object", path)
    group = _get(obj, "group", path)
    _expect(group in _GROUPS, f"group must be one of {sorted(_GROUPS)}", f"{path}.group")
    rank = obj.get("fiber_rank", 0)
    _expect(_is_int(rank) and rank >= 0, "fiber_rank must be a nonnegative int", f"{path}.fiber_rank")
    return Semifield(_GROUPS[group], rank)


def semifield_to_json(sf: Semifield) -> dict:
    return {"group": sf.group.value, "fiber_rank": sf.fiber_rank}


# -- elements ----------------------------------------------------------------


def element_from_json(sf: Semifield, obj: Any, path: str) -> Element:
    _expect(isinstance(obj, str), "element must be an encoded string", path)
    try:
        return sf.parse_element(obj)
    except ValueError as exc:
        raise SchemaError(str(exc), path) from exc


def rational_from_json(obj: Any, path: str) -> Fraction:
    if _is_int(obj):
        return Fraction(obj)
    _expect(isinstance(obj, str), "rational must be an int or 'p/q' string", path)
    try:
        return Fraction(parse_rational(obj))
    except ValueError as exc:
        raise SchemaError(str(exc), path) from exc


def _exponent_from_json(sf: Semifield, obj: Any, path: str) -> Exponent:
    try:
        return sf.check_exponent(rational_from_json(obj, path))
    except ValueError as exc:
        raise SchemaError(str(exc), path) from exc


def _index_pair(key: str, n: int, path: str, strict_upper: bool) -> tuple[int, int]:
    parts = key.split(",")
    _expect(len(parts) == 2, "index key must look like 'i,j'", f"{path}.{key}")
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise SchemaError("index key must hold integers", f"{path}.{key}") from None
    _expect(1 <= i <= n and 1 <= j <= n, f"indices out of range 1..{n}", f"{path}.{key}")
    if strict_upper:
        _expect(i < j, "upper coefficient needs i < j", f"{path}.{key}")
    else:
        _expect(i <= j, "triangular coefficient needs i <= j", f"{path}.{key}")
    return i - 1, j - 1


# -- quadratic forms ---------------------------------------------------------


def form_from_json(obj: Any, override_sf: Optional[Semifield] = None, path: str = "$") -> QuadraticForm:
    _expect(isinstance(obj, dict), "form must be an object", path)
    sf = override_sf or semifield_from_json(_get(obj, "semifield", path), f"{path}.semifield")
    n = _get(obj, "n", path)
    _expect(_is_int(n) and n >= 1, "n must be a positive int", f"{path}.n")
    diag_obj = _get(obj, "diag", path)
    _expect(isinstance(diag_obj, list) and len(diag_obj) == n, f"diag must list {n} elements", f"{path}.diag")
    diag = tuple(element_from_json(sf, v, f"{path}.diag[{k + 1}]") for k, v in enumerate(diag_obj))
    upper_obj = obj.get("upper", {})
    _expect(isinstance(upper_obj, dict), "upper must be an object", f"{path}.upper")
    upper = {}
    for key, val in upper_obj.items():
        i, j = _index_pair(key, n, f"{path}.upper", strict_upper=True)
        upper[(i, j)] = element_from_json(sf, val, f"{path}.upper.{key}")
    try:
        return QuadraticForm(sf, diag, upper)
    except ValueError as exc:
        raise SchemaError(str(exc), path) from exc


def form_to_json(q: QuadraticForm) -> dict:
    return {
        "semifield": semifield_to_json(q.sf),
        "n": q.n,
        "diag": [format_element(a) for a in q.diag],
        "upper": {
            f"{i + 1},{j + 1}": format_element(row[j])
            for i, row in enumerate(q.cross)
            for j in range(i + 1, q.n)
            if not row[j].is_zero
        },
    }


def vector_from_json(sf: Semifield, obj: Any, path: str = "$") -> Vector:
    _expect(isinstance(obj, dict), "vector must be an object", path)
    coords = _get(obj, "coords", path)
    _expect(isinstance(coords, list) and coords, "coords must be a nonempty list", f"{path}.coords")
    return tuple(element_from_json(sf, v, f"{path}.coords[{k + 1}]") for k, v in enumerate(coords))


def vector_from_text(sf: Semifield, text: str) -> Vector:
    parts = [p.strip() for p in text.split(",")]
    out = []
    for k, p in enumerate(parts):
        try:
            out.append(sf.parse_element(p))
        except ValueError as exc:
            raise SchemaError(str(exc), f"$.vector[{k + 1}]") from exc
    return tuple(out)


def vector_to_json(x: Vector) -> dict:
    return {"coords": [format_element(v) for v in x]}


# -- bilinear forms and matrices ---------------------------------------------


def _grid_from_json(sf: Semifield, obj: Any, key: str, path: str):
    _expect(isinstance(obj, dict), "expected an object", path)
    rows_obj = _get(obj, key, path)
    _expect(isinstance(rows_obj, list) and rows_obj, f"{key} must be a nonempty list", f"{path}.{key}")
    rows = []
    for r, row in enumerate(rows_obj):
        _expect(isinstance(row, list) and row, "rows must be nonempty lists", f"{path}.{key}[{r + 1}]")
        rows.append(
            tuple(element_from_json(sf, v, f"{path}.{key}[{r + 1}][{c + 1}]") for c, v in enumerate(row))
        )
    return tuple(rows)


def bilinear_from_json(obj: Any, override_sf: Optional[Semifield] = None, path: str = "$") -> SymmetricBilinearForm:
    sf = override_sf or semifield_from_json(_get(obj, "semifield", path), f"{path}.semifield")
    rows = _grid_from_json(sf, obj, "gram", path)
    try:
        return SymmetricBilinearForm(sf, rows)
    except ValueError as exc:
        raise SchemaError(str(exc), path) from exc


def bilinear_to_json(b: SymmetricBilinearForm) -> dict:
    return {
        "semifield": semifield_to_json(b.sf),
        "gram": [[format_element(v) for v in row] for row in b.gram],
    }


def matrix_from_json(obj: Any, override_sf: Optional[Semifield] = None, path: str = "$") -> GeneralMatrix:
    sf = override_sf or semifield_from_json(_get(obj, "semifield", path), f"{path}.semifield")
    rows = _grid_from_json(sf, obj, "rows", path)
    try:
        return GeneralMatrix(sf, rows)
    except ValueError as exc:
        raise SchemaError(str(exc), path) from exc


def matrix_to_json(m: GeneralMatrix) -> dict:
    return {
        "semifield": semifield_to_json(m.sf),
        "rows": [[format_element(v) for v in row] for row in m.rows],
    }


# -- companion cells and tables ------------------------------------------------


def cell_display(sf: Semifield, cell: CompanionSet) -> str:
    if isinstance(cell, Singleton):
        return "{" + format_element(cell.value) + "}"
    if isinstance(cell, NuLeqDoubled):
        half = Fraction(cell.bound2) / 2
        if sf.legal_exponent(half):
            return f"[0, {format_element(sf.ghost(half))}]"
        return f"[0, g:{half}]"  # bound itself outside the group
    if isinstance(cell, NuLtDoubled):
        return f"[0, g:{Fraction(cell.bound2) / 2}["
    return f"nu-class({cell.exp})"


def cell_to_json(sf: Semifield, cell: CompanionSet) -> dict:
    out: dict[str, Any] = {"display": cell_display(sf, cell)}
    if isinstance(cell, Singleton):
        out["kind"] = "singleton"
        out["value"] = format_element(cell.value)
    elif isinstance(cell, NuLeqDoubled):
        out["kind"] = "nu_leq"
        out["bound2"] = str(cell.bound2)
    elif isinstance(cell, NuLtDoubled):
        out["kind"] = "nu_lt"
        out["bound2"] = str(cell.bound2)
    else:
        out["kind"] = "nu_class"
        out["exp"] = str(cell.exp)
    return out


def cell_from_json(sf: Semifield, obj: Any, path: str) -> CompanionSet:
    _expect(isinstance(obj, dict), "cell must be an object", path)
    kind = _get(obj, "kind", path)
    if kind == "singleton":
        return Singleton(element_from_json(sf, _get(obj, "value", path), f"{path}.value"))
    if kind == "nu_leq":
        return NuLeqDoubled(_exponent_from_json(sf, _get(obj, "bound2", path), f"{path}.bound2"))
    if kind == "nu_lt":
        return NuLtDoubled(_exponent_from_json(sf, _get(obj, "bound2", path), f"{path}.bound2"))
    if kind == "nu_class":
        return NuClass(_exponent_from_json(sf, _get(obj, "exp", path), f"{path}.exp"))
    raise SchemaError("kind must be singleton|nu_leq|nu_lt|nu_class", f"{path}.kind")


def table_to_json(table: CompanionTable) -> dict:
    return {
        "semifield": semifield_to_json(table.sf),
        "n": table.n,
        "cells": [[cell_to_json(table.sf, cell) for cell in row] for row in table.cells],
    }


def table_from_json(obj: Any, override_sf: Optional[Semifield] = None, path: str = "$") -> CompanionTable:
    _expect(isinstance(obj, dict), "table must be an object", path)
    sf = override_sf or semifield_from_json(_get(obj, "semifield", path), f"{path}.semifield")
    cells_obj = _get(obj, "cells", path)
    _expect(isinstance(cells_obj, list) and cells_obj, "cells must be a nonempty list", f"{path}.cells")
    n = len(cells_obj)
    rows = []
    for r, row in enumerate(cells_obj):
        _expect(isinstance(row, list) and len(row) == n, "cells must be a square grid", f"{path}.cells[{r + 1}]")
        rows.append(tuple(cell_from_json(sf, c, f"{path}.cells[{r + 1}][{c_i + 1}]") for c_i, c in enumerate(row)))
    return CompanionTable(sf, tuple(rows))


# -- rational forms and square classes -----------------------------------------


def ratform_from_json(obj: Any, path: str = "$") -> RationalQuadraticForm:
    _expect(isinstance(obj, dict), "rational form must be an object", path)
    n = _get(obj, "n", path)
    _expect(_is_int(n) and n >= 1, "n must be a positive int", f"{path}.n")
    coeffs_obj = _get(obj, "coeffs", path)
    _expect(isinstance(coeffs_obj, dict), "coeffs must be an object", f"{path}.coeffs")
    coeffs = []
    for key, val in coeffs_obj.items():
        i, j = _index_pair(key, n, f"{path}.coeffs", strict_upper=False)
        coeffs.append(((i, j), rational_from_json(val, f"{path}.coeffs.{key}")))
    try:
        return RationalQuadraticForm(n, tuple(coeffs))
    except ValueError as exc:
        raise SchemaError(str(exc), path) from exc


def ratform_to_json(q: RationalQuadraticForm) -> dict:
    return {
        "n": q.n,
        "coeffs": {f"{i + 1},{j + 1}": str(c) for (i, j), c in q.coeffs.items()},
    }


def supervaluation_from_args(prime: str, mode: str) -> SupervaluationSpec:
    if prime == "trivial":
        p = None
    else:
        try:
            p = int(prime)
        except ValueError:
            raise SchemaError("prime must be an integer or 'trivial'", "$.prime") from None
    try:
        return SupervaluationSpec(p, mode)
    except ValueError as exc:
        raise SchemaError(str(exc), "$.prime" if "prime" in str(exc) else "$.mode") from exc


def class_tag_to_json(tag: Optional[SquareClassTag]) -> dict:
    if tag is None:
        return {"kind": "zero"}
    out: dict[str, Any] = {
        "kind": "ghost" if tag.ghost else "tangible",
        "parity": tag.parity,
    }
    if tag.fiber:
        out["fiber"] = "".join("+" if s > 0 else "-" for s in tag.fiber)
    return out
