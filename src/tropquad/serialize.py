"""JSON schemas for every domain object, with positioned parse errors.

External indices are 1-based ("1,2" keys); internal storage is 0-based.
Serialization is deterministic: keys are sorted and element text uses the
shared encoding from :mod:`tropquad.semiring`.  Each ``*_from_json``
reader reads a whole document and takes no path: its errors are located
from the document root, ``$``.

A document's element literals repeat: a grid drawn from a few exponents
holds each literal many times.  Each ``*_from_json`` call (and
:func:`vector_from_text`) therefore reads its elements through one
:func:`_element_reader`, which parses and validates each distinct literal
once with :meth:`Semifield.parse_element` and hands the same immutable
:class:`Element` to every later copy.  Only successful parses are kept, so
an invalid literal fails at the path of its first occurrence, and the memo
dies with the call, so nothing is carried from one document to the next.

The write side mirrors it for companion tables, whose cells repeat just as
often: :func:`table_to_json` encodes each distinct cell once per call,
through one :func:`_cell_encoder`.  Its memo is keyed by exactly what the
encoding reads (the cell's class, its exponent as an int or as a reduced
Fraction's numerator and denominator, and a singleton's tag and fiber), so
two cells of one key print the same text.  A cell whose exponent has any
other type bypasses the memo.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Optional, Union

from .companions import CompanionSet, CompanionTable, NuClass, NuLeqDoubled, NuLtDoubled, Singleton, cell_boundary
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


Path = Union[str, Callable[[], str]]


class SchemaError(Exception):
    """Input does not match the expected schema; `path` locates the problem.

    Wherever a path is passed, a function that builds it may be passed
    instead: a reader of many cells then formats a cell's path only when
    that cell fails.
    """

    def __init__(self, message: str, path: Path = "$"):
        self.path = path() if callable(path) else path
        self.reason = message
        super().__init__(f"{self.path}: {message}")


def _expect(cond: bool, message: str, path: Path):
    if not cond:
        raise SchemaError(message, path)


def _is_int(x: Any) -> bool:
    """JSON ints only: ``true``/``false`` parse to bools, which are ints too."""
    return isinstance(x, int) and not isinstance(x, bool)


def _get(obj: dict, key: str, path: Path):
    if key not in obj:
        raise SchemaError(f"missing key {key!r}", path)
    return obj[key]


def _schema(make, path: Path, *args):
    """``make(*args)``, with its ValueError re-raised as a SchemaError at path."""
    try:
        return make(*args)
    except ValueError as exc:
        raise SchemaError(str(exc), path) from exc


# -- semifield config --------------------------------------------------------

_GROUPS = {k.value: k for k in GroupKind}
# Input bounds: every tangible carries a fiber of fiber_rank signs, a
# rational form's square classes take time and memory linear in its n, and
# a prime is checked by trial division up to its square root.
FIBER_RANK_LIMIT = 64
RATFORM_DIMENSION_LIMIT = 4096
PRIME_LIMIT = 2**31 - 1


def semifield_from_json(obj: Any) -> Semifield:
    _expect(isinstance(obj, dict), "semifield config must be an object", "$.semifield")
    group = _get(obj, "group", "$.semifield")
    _expect(isinstance(group, str) and group in _GROUPS, f"group must be one of {sorted(_GROUPS)}", "$.semifield.group")
    rank = obj.get("fiber_rank", 0)
    _expect(_is_int(rank) and rank >= 0, "fiber_rank must be a nonnegative int", "$.semifield.fiber_rank")
    _expect(rank <= FIBER_RANK_LIMIT, f"fiber_rank must be at most {FIBER_RANK_LIMIT}", "$.semifield.fiber_rank")
    return Semifield(_GROUPS[group], rank)


def _object_sf(obj: Any, what: str) -> Semifield:
    """Check that the document obj is an object and read its ``semifield`` member."""
    _expect(isinstance(obj, dict), f"{what} must be an object", "$")
    return semifield_from_json(_get(obj, "semifield", "$"))


def semifield_to_json(sf: Semifield) -> dict:
    return {"group": sf.group.value, "fiber_rank": sf.fiber_rank}


# -- elements ----------------------------------------------------------------


def _element_reader(sf: Semifield):
    """``read(obj, path)`` for one document: each distinct literal is parsed once."""
    memo: dict[str, Element] = {}

    def read(obj: Any, path: Path) -> Element:
        _expect(isinstance(obj, str), "element must be an encoded string", path)
        element = memo.get(obj)
        if element is None:
            element = memo[obj] = _schema(sf.parse_element, path, obj)
        return element

    return read


def rational_from_json(obj: Any, path: Path) -> Fraction:
    if _is_int(obj):
        return Fraction(obj)
    _expect(isinstance(obj, str), "rational must be an int or 'p/q' string", path)
    return Fraction(_schema(parse_rational, path, obj))


def _exponent_from_json(sf: Semifield, obj: Any, path: Path) -> Exponent:
    return _schema(sf.check_exponent, path, rational_from_json(obj, path))


def _index_pair(key: str, n: int, path: str, seen: set, strict_upper: bool) -> tuple[int, int]:
    """0-based (i, j) of an "i,j" key; a second key naming a cell in ``seen`` is refused."""

    def where() -> str:
        return f"{path}.{key}"

    parts = key.split(",")
    _expect(len(parts) == 2, "index key must look like 'i,j'", where)
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise SchemaError("index key must hold integers", where) from None
    if not (1 <= i <= n and 1 <= j <= n):
        raise SchemaError(f"indices out of range 1..{n}", where)
    if strict_upper:
        _expect(i < j, "upper coefficient needs i < j", where)
    else:
        _expect(i <= j, "triangular coefficient needs i <= j", where)
    if (i, j) in seen:
        raise SchemaError(f"duplicate index ({i},{j})", where)
    seen.add((i, j))
    return i - 1, j - 1


# -- quadratic forms ---------------------------------------------------------


def form_from_json(obj: Any) -> QuadraticForm:
    sf = _object_sf(obj, "form")
    n = _get(obj, "n", "$")
    _expect(_is_int(n) and n >= 1, "n must be a positive int", "$.n")
    diag_obj = _get(obj, "diag", "$")
    _expect(isinstance(diag_obj, list) and len(diag_obj) == n, f"diag must list {n} elements", "$.diag")
    read = _element_reader(sf)
    diag = tuple(read(v, lambda: f"$.diag[{k + 1}]") for k, v in enumerate(diag_obj))
    upper_obj = obj.get("upper", {})
    _expect(isinstance(upper_obj, dict), "upper must be an object", "$.upper")
    seen = set()
    upper = {
        _index_pair(key, n, "$.upper", seen, strict_upper=True): read(val, lambda: f"$.upper.{key}")
        for key, val in upper_obj.items()
    }
    return _schema(QuadraticForm, "$", sf, diag, upper)


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


def vector_from_json(sf: Semifield, obj: Any) -> Vector:
    _expect(isinstance(obj, dict), "vector must be an object", "$")
    coords = _get(obj, "coords", "$")
    _expect(isinstance(coords, list) and coords, "coords must be a nonempty list", "$.coords")
    read = _element_reader(sf)
    return tuple(read(v, lambda: f"$.coords[{k + 1}]") for k, v in enumerate(coords))


def vector_from_text(sf: Semifield, text: str) -> Vector:
    read = _element_reader(sf)
    return tuple(read(p.strip(), lambda: f"$.vector[{k + 1}]") for k, p in enumerate(text.split(",")))


def vector_to_json(x: Vector) -> dict:
    return {"coords": [format_element(v) for v in x]}


# -- bilinear forms and matrices ---------------------------------------------


def _grid_from_json(sf: Semifield, obj: dict, key: str):
    rows_obj = _get(obj, key, "$")
    _expect(isinstance(rows_obj, list) and rows_obj, f"{key} must be a nonempty list", f"$.{key}")
    read = _element_reader(sf)
    rows = []
    for r, row in enumerate(rows_obj):
        row_path = f"$.{key}[{r + 1}]"
        _expect(isinstance(row, list) and row, "rows must be nonempty lists", row_path)
        rows.append(tuple(read(v, lambda: f"{row_path}[{c + 1}]") for c, v in enumerate(row)))
    return tuple(rows)


def _grid_to_json(sf: Semifield, key: str, rows) -> dict:
    return {"semifield": semifield_to_json(sf), key: [[format_element(v) for v in row] for row in rows]}


def bilinear_from_json(obj: Any) -> SymmetricBilinearForm:
    sf = _object_sf(obj, "bilinear form")
    return _schema(SymmetricBilinearForm, "$", sf, _grid_from_json(sf, obj, "gram"))


def bilinear_to_json(b: SymmetricBilinearForm) -> dict:
    return _grid_to_json(b.sf, "gram", b.gram)


def matrix_from_json(obj: Any) -> GeneralMatrix:
    sf = _object_sf(obj, "matrix")
    return _schema(GeneralMatrix, "$", sf, _grid_from_json(sf, obj, "rows"))


def matrix_to_json(m: GeneralMatrix) -> dict:
    return _grid_to_json(m.sf, "rows", m.rows)


# -- companion cells and tables ------------------------------------------------


# cell kind -> (cell type, the JSON field that holds the cell's attribute of that name)
_CELLS = {
    "singleton": (Singleton, "value"),
    "nu_leq": (NuLeqDoubled, "bound2"),
    "nu_lt": (NuLtDoubled, "bound2"),
    "nu_class": (NuClass, "exp"),
}
_CELL_KINDS = {cls: (kind, field) for kind, (cls, field) in _CELLS.items()}
_KIND_MESSAGE = "kind must be " + "|".join(_CELLS)


def cell_display(cell: CompanionSet) -> str:
    if isinstance(cell, Singleton):
        return "{" + format_element(cell.value) + "}"
    if isinstance(cell, NuClass):
        return f"nu-class({cell.exp})"
    return f"[0, g:{cell_boundary(cell)}{']' if isinstance(cell, NuLeqDoubled) else '['}"


def cell_to_json(cell: CompanionSet) -> dict:
    kind, field = _CELL_KINDS[type(cell)]
    value = getattr(cell, field)
    text = format_element(value) if isinstance(cell, Singleton) else str(value)
    return {"display": cell_display(cell), "kind": kind, field: text}


def cell_from_json(sf: Semifield, read_element, obj: Any, where: Callable[[], str]) -> CompanionSet:
    """The cell encoded by obj; ``where()`` builds its path, only for an error."""
    _expect(isinstance(obj, dict), "cell must be an object", where)
    kind = _get(obj, "kind", where)
    _expect(isinstance(kind, str) and kind in _CELLS, _KIND_MESSAGE, lambda: f"{where()}.kind")
    cls, field = _CELLS[kind]
    value = _get(obj, field, where)
    if cls is Singleton:
        return cls(read_element(value, lambda: f"{where()}.{field}"))
    return cls(_exponent_from_json(sf, value, lambda: f"{where()}.{field}"))


def _cell_encoder() -> Callable[[CompanionSet], dict]:
    """``encode(cell)`` for one table: each distinct cell is encoded once.

    The key is what the encoding reads (see the module docstring), and
    cells of one key share one dict.  A cell whose exponent is neither an
    int nor a Fraction is encoded on its own: 2.0 == 2 prints differently.
    """
    memo: dict[tuple, dict] = {}

    def encode(cell: CompanionSet) -> dict:
        cls = cell.__class__
        value = getattr(cell, _CELL_KINDS[cls][1])
        if cls is Singleton:
            key, exp = (value.tag, tuple(value.fiber)), value.exp
        else:
            key, exp = cls, value
        if exp.__class__ is int or exp is None:
            key = (key, exp)
        elif exp.__class__ is Fraction:
            key = (key, exp.numerator, exp.denominator)
        else:
            return cell_to_json(cell)
        out = memo.get(key)
        if out is None:
            out = memo[key] = cell_to_json(cell)
        return out

    return encode


def table_to_json(table: CompanionTable) -> dict:
    """The table's JSON; equal cells share one encoding dict (see :func:`_cell_encoder`)."""
    encode = _cell_encoder()
    return {
        "semifield": semifield_to_json(table.sf),
        "n": table.n,
        "cells": [[encode(cell) for cell in row] for row in table.cells],
    }


def table_from_json(obj: Any) -> CompanionTable:
    sf = _object_sf(obj, "table")
    cells_obj = _get(obj, "cells", "$")
    _expect(isinstance(cells_obj, list) and cells_obj, "cells must be a nonempty list", "$.cells")
    n = len(cells_obj)
    read = _element_reader(sf)
    rows = []
    for r, row in enumerate(cells_obj):
        row_path = f"$.cells[{r + 1}]"
        _expect(isinstance(row, list) and len(row) == n, "cells must be a square grid", row_path)
        rows.append(tuple(cell_from_json(sf, read, cell, lambda: f"{row_path}[{c + 1}]") for c, cell in enumerate(row)))
    return CompanionTable(sf, tuple(rows))


# -- rational forms and square classes -----------------------------------------


def ratform_from_json(obj: Any) -> RationalQuadraticForm:
    _expect(isinstance(obj, dict), "rational form must be an object", "$")
    n = _get(obj, "n", "$")
    _expect(_is_int(n) and n >= 1, "n must be a positive int", "$.n")
    _expect(n <= RATFORM_DIMENSION_LIMIT, f"n must be at most {RATFORM_DIMENSION_LIMIT}", "$.n")
    coeffs_obj = _get(obj, "coeffs", "$")
    _expect(isinstance(coeffs_obj, dict), "coeffs must be an object", "$.coeffs")
    seen = set()
    coeffs = {
        _index_pair(key, n, "$.coeffs", seen, strict_upper=False): rational_from_json(val, lambda: f"$.coeffs.{key}")
        for key, val in coeffs_obj.items()
    }
    return _schema(RationalQuadraticForm, "$", n, coeffs)


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
        _expect(p <= PRIME_LIMIT, f"prime must be at most {PRIME_LIMIT}", "$.prime")
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
