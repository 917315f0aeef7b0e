"""JSON schemas for every domain object, with positioned parse errors.

External indices are 1-based ("1,2" keys); internal storage is 0-based.
Serialization is deterministic: keys are sorted and element text uses the
shared encoding from :mod:`tropquad.semiring`.  Each ``*_from_json``
reader reads a whole document and takes no path: its errors are located
from the document root, ``$``.

A path is built only when a check fails.  The readers of many values
(elements, index keys, cells, rational coefficients) take a value's path
as a format string and its arguments, such as ``("$.diag[{}]", 3)`` or
``("$.upper.{}", key)``, and call ``str.format`` only on the branch that
raises, so a document that passes builds no path string, closure or
lambda per key or per value.

A document's element literals repeat: a grid drawn from a few exponents
holds each literal many times.  Each ``*_from_json`` call (and
:func:`vector_from_text`) therefore reads its elements through one
:func:`_element_reader`, which parses and validates each distinct literal
once with :meth:`Semifield.parse_element`, refuses an exponent too long to
print once combined with others (:func:`_check_digits`), and hands the
same immutable :class:`Element` to every later copy.  Only successful
parses are kept, so an invalid literal fails at the path of its first
occurrence, and the memo dies with the call, so nothing is carried from
one document to the next.  The caller owns the memo: the two hot loops, a
form's ``upper`` and a matrix's rows, look an exact ``str`` up in it first
and call the reader only on a miss, so a repeated literal costs one dict
lookup.

Index keys repeat across documents rather than within one: every form of
size n names its cells "1,2" ... "n-1,n".  :func:`_grow_canonical_keys` keeps
one table from each canonical key "i,j" (1 <= i <= j, no sign, no leading
zero) to its 0-based pair, grown to a document's n the first time it is
read and never past ``DIMENSION_LIMIT``, so a rational form of n up to
4096 never builds n^2/2 entries.  :func:`form_from_json` and
:func:`ratform_from_json` look each key up in it inline and take the
table's pair only when it is in range for the document, on the right side
of the diagonal and not already read; :func:`_index_pair`, the general
parser, answers every other key, such as an alias "01,2", an out-of-range
key or a duplicate, so each refusal keeps its message and path.  The
table holds only what the parser would return for its keys, so sharing it
between documents carries nothing from one to the next.

A table's cells repeat the same way, so :func:`table_from_json` reads
them through one :func:`_cell_reader`, which reads each distinct cell
encoding once per document on the same terms.

The write side has one writer, :func:`dumps`, which the CLI prints
through.  A payload's dicts hold forms, Gram matrices and companion tables
as they are, and a :class:`_TextWriter` writes the payload in one walk: a
dict as its members in sorted key order, an object as its
:func:`document`, whose grid (``upper``, ``gram`` or ``cells``) carries
the writer method and the entry encoder for it, and any other value with
``json``'s own encoder, whose string escaping the keys share.  The writer
keeps each element's and cell's text by object, encoded when first met.
The package shares one element object per value, and
:func:`~tropquad.companions.companion_table` one cell object per value, so
each distinct element and cell is encoded once per document, a cell from
its integers alone.  ``upper`` keys come in ``sort_keys`` order ("1,10"
before "1,2").  :func:`form_to_json`, :func:`bilinear_to_json`,
:func:`table_to_json` and :func:`cell_to_json` read their values back
from that text, so each schema has one encoding rule.
"""

from __future__ import annotations

import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _quote  # json.dumps's string encoder under ensure_ascii
from operator import itemgetter
from typing import Any, Callable, NamedTuple, Optional

from .companions import (
    CompanionSet, CompanionTable, NuClass, NuLeqDoubled, NuLtDoubled, Singleton,
)
from .forms import DIMENSION_LIMIT, QuadraticForm, SymmetricBilinearForm, Vector
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
    """Input does not match the expected schema; `path` locates the problem.

    The path is a JSON path from the document root, such as
    ``$.upper.1,2``.  A reader formats it when it raises this error, and
    never on a value that passes (see the module docstring).
    """

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


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"missing key {key!r}", path)
    return obj[key]


def _schema(make, path: str, *args):
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


def _element_reader(sf: Semifield, memo: Optional[dict[str, Element]] = None):
    """``read(obj, path, *args)`` for one document: each distinct literal is parsed once.

    ``path.format(*args)`` locates obj, and is formatted only if obj fails.
    The parsed literals are kept in ``memo``, a new dict unless the caller
    passes its own to look literals up in before calling ``read``.
    """
    if memo is None:
        memo = {}
    parse, digits = sf.parse_element, _max_digits()

    def read(obj: Any, path: str, *args) -> Element:
        if obj.__class__ is str:
            element = memo.get(obj)
            if element is not None:
                return element
        elif not isinstance(obj, str):
            raise SchemaError("element must be an encoded string", path.format(*args))
        try:
            element = parse(obj)
        except ValueError as exc:
            raise SchemaError(str(exc), path.format(*args)) from exc
        if 0 < digits < len(obj) and element.exp is not None:  # a shorter text holds no longer number
            _check_digits(element.exp, digits, path, *args)
        memo[obj] = element
        return element

    return read


def rational_from_json(obj: Any, path: str, *args) -> Exponent:
    """The rational obj, a JSON int or a ``p/q`` string, as an int when it is whole.

    ``path.format(*args)`` locates obj, and is formatted only if obj fails.
    """
    if _is_int(obj):
        return obj
    if isinstance(obj, str):
        try:
            return parse_rational(obj)
        except ValueError as exc:
            raise SchemaError(str(exc), path.format(*args)) from exc
    raise SchemaError("rational must be an int or 'p/q' string", path.format(*args))


def _exponent_from_json(sf: Semifield, obj: Any, path: str, *args) -> Exponent:
    """A table cell's exponent: a doubled bound is the sum of two input exponents, so it may have
    twice their digits (:func:`_max_digits`), and a table that ``companions`` prints reads back."""
    x = rational_from_json(obj, path, *args)
    try:
        x = sf.check_exponent(x)
    except ValueError as exc:
        raise SchemaError(str(exc), path.format(*args)) from exc
    _check_digits(x, 2 * _max_digits(), path, *args)
    return x


def _max_digits() -> int:
    """The most digits an input exponent's numerator or denominator may have; 0 for no bound.

    An int's decimal text is refused past sys.get_int_max_str_digits() digits (no limit when it is
    0; Python before 3.10.7 has none).  A printed exponent combines up to four input exponents (the
    midpoint of two tie points in an ``equal`` witness), so an input exponent keeps a fifth of it.
    """
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() // 5


@functools.lru_cache(maxsize=None)
def _digit_ceiling(digits: int) -> int:
    """The least int of digits + 1 digits."""
    return 10**digits


def _check_digits(x: Exponent, digits: int, path: str, *args) -> None:
    """Refuse x, at ``path.format(*args)``, if its numerator or denominator has more than
    ``digits`` digits; 0 sets no bound."""
    if digits and max(abs(x.numerator), x.denominator) >= _digit_ceiling(digits):
        raise SchemaError(f"exponent numerator and denominator must have at most {digits} digits", path.format(*args))


# canonical index key "i,j" -> 0-based (i, j), for 1 <= i <= j <= the largest n read so far (see the module docstring)
_CANONICAL_KEYS: dict[str, tuple[int, int]] = {}


def _grow_canonical_keys(n: int) -> None:
    """Grow the canonical key table to n columns, if n is at most ``DIMENSION_LIMIT``."""
    # every growth to m columns adds all of them, so key "n,n" stands for the first n
    if n <= DIMENSION_LIMIT and f"{n},{n}" not in _CANONICAL_KEYS:
        _CANONICAL_KEYS.update({f"{i + 1},{j + 1}": (i, j) for j in range(n) for i in range(j + 1)})


def _index_pair(key: str, n: int, path: str, known: dict, strict_upper: bool) -> tuple[int, int]:
    """0-based (i, j) of an "i,j" key; a key naming a cell already in ``known`` is refused.

    The general parser, for every key that the readers' canonical lookup
    does not answer (see the module docstring).  Errors are located at
    ``{path}.{key}``.
    """
    parts = key.split(",")
    if len(parts) != 2:
        reason = "index key must look like 'i,j'"
    else:
        try:
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
        except ValueError:
            reason = "index key must hold integers"
        else:
            if not (0 <= i < n and 0 <= j < n):
                reason = f"indices out of range 1..{n}"
            elif strict_upper and i >= j:
                reason = "upper coefficient needs i < j"
            elif i > j:
                reason = "triangular coefficient needs i <= j"
            elif (i, j) in known:
                reason = f"duplicate index ({i + 1},{j + 1})"
            else:
                return i, j
    raise SchemaError(reason, f"{path}.{key}")


# -- quadratic forms ---------------------------------------------------------


def form_from_json(obj: Any) -> QuadraticForm:
    sf = _object_sf(obj, "form")
    n = _get(obj, "n", "$")
    _expect(_is_int(n) and n >= 1, "n must be a positive int", "$.n")
    diag_obj = _get(obj, "diag", "$")
    _expect(isinstance(diag_obj, list) and len(diag_obj) == n, f"diag must list {n} elements", "$.diag")
    memo: dict[str, Element] = {}
    read = _element_reader(sf, memo)
    diag = tuple([read(v, "$.diag[{}]", k) for k, v in enumerate(diag_obj, 1)])
    upper_obj = obj.get("upper", {})
    _expect(isinstance(upper_obj, dict), "upper must be an object", "$.upper")
    _grow_canonical_keys(n)
    upper = {}
    canonical = _CANONICAL_KEYS.get
    for key, val in upper_obj.items():
        ij = canonical(key)
        if ij is None or ij[1] >= n or ij[0] == ij[1] or ij in upper:
            ij = _index_pair(key, n, "$.upper", upper, strict_upper=True)
        # the class is checked first: a list is unhashable; an Element is always true
        upper[ij] = (val.__class__ is str and memo.get(val)) or read(val, "$.upper.{}", key)
    return _schema(QuadraticForm, "$", sf, diag, upper)


def form_to_json(q: QuadraticForm) -> dict:
    """The form's JSON value, read back from the text :func:`dumps` writes for it."""
    return json.loads(dumps(q))


def vector_from_json(sf: Semifield, obj: Any) -> Vector:
    _expect(isinstance(obj, dict), "vector must be an object", "$")
    coords = _get(obj, "coords", "$")
    _expect(isinstance(coords, list) and coords, "coords must be a nonempty list", "$.coords")
    read = _element_reader(sf)
    return tuple([read(v, "$.coords[{}]", k) for k, v in enumerate(coords, 1)])


def vector_from_text(sf: Semifield, text: str) -> Vector:
    read = _element_reader(sf)
    return tuple([read(p.strip(), "$.vector[{}]", k) for k, p in enumerate(text.split(","), 1)])


def vector_to_json(x: Vector) -> dict:
    return {"coords": [format_element(v) for v in x]}


# -- bilinear forms and matrices ---------------------------------------------


def _grid_from_json(sf: Semifield, obj: dict, key: str):
    rows_obj = _get(obj, key, "$")
    _expect(isinstance(rows_obj, list) and rows_obj, f"{key} must be a nonempty list", f"$.{key}")
    memo: dict[str, Element] = {}
    read = _element_reader(sf, memo)
    get = memo.get
    path = f"$.{key}[{{}}][{{}}]"
    rows = []
    for r, row in enumerate(rows_obj, 1):
        if not (isinstance(row, list) and row):
            raise SchemaError("rows must be nonempty lists", f"$.{key}[{r}]")
        # the class is checked first: a list is unhashable; an Element is always true
        rows.append(tuple([(v.__class__ is str and get(v)) or read(v, path, r, c) for c, v in enumerate(row, 1)]))
    return tuple(rows)


def bilinear_from_json(obj: Any) -> SymmetricBilinearForm:
    sf = _object_sf(obj, "bilinear form")
    return _schema(SymmetricBilinearForm, "$", sf, _grid_from_json(sf, obj, "gram"))


def bilinear_to_json(b: SymmetricBilinearForm) -> dict:
    """The Gram matrix's JSON value, read back from the text :func:`dumps` writes for it."""
    return json.loads(dumps(b))


def matrix_from_json(obj: Any) -> GeneralMatrix:
    sf = _object_sf(obj, "matrix")
    return _schema(GeneralMatrix, "$", sf, _grid_from_json(sf, obj, "rows"))


def matrix_to_json(m: GeneralMatrix) -> dict:
    return {"semifield": semifield_to_json(m.sf), "rows": [[format_element(v) for v in row] for row in m.rows]}


# -- companion cells and tables ------------------------------------------------


# cell kind -> (cell type, the JSON field that holds the cell's attribute of that name)
_CELLS = {
    "singleton": (Singleton, "value"),
    "nu_leq": (NuLeqDoubled, "bound2"),
    "nu_lt": (NuLtDoubled, "bound2"),
    "nu_class": (NuClass, "exp"),
}
_KIND_MESSAGE = "kind must be " + "|".join(_CELLS)


def _display_and_field(cell: CompanionSet) -> tuple[str, str]:
    """The cell's display and the text of its field.  A lower interval's edge is half its doubled
    bound p/d: p/2 over d when p is even (then d is odd), else p over 2d, both in lowest terms."""
    if isinstance(cell, Singleton):
        text = format_element(cell.value)
        return "{" + text + "}", text
    if isinstance(cell, NuClass):
        text = str(cell.exp)
        return f"nu-class({text})", text
    bound2 = cell.bound2
    p, d = bound2.numerator, bound2.denominator
    p, d = (p // 2, d) if p % 2 == 0 else (p, 2 * d)
    edge = str(p) if d == 1 else f"{p}/{d}"
    return f"[0, g:{edge}{']' if isinstance(cell, NuLeqDoubled) else '['}", str(bound2)


def cell_display(cell: CompanionSet) -> str:
    return _display_and_field(cell)[0]


def _cell_template(kind: str, field: str) -> str:
    """The JSON text of a cell of this kind, keys sorted, with ``%(display)s`` and ``%(value)s``
    standing for its quoted display and field."""
    members = {"display": "%(display)s", "kind": _quote(kind), field: "%(value)s"}
    return "{" + ", ".join([f"{_quote(k)}: {v}" for k, v in sorted(members.items())]) + "}"


_CELL_TEXT = {cls: _cell_template(kind, field) for kind, (cls, field) in _CELLS.items()}


def _cell_text(cell: CompanionSet) -> str:
    """The cell's JSON text: its display, its kind and its field, an element or an exponent."""
    display, field = _display_and_field(cell)
    return _CELL_TEXT[cell.__class__] % {"display": _quote(display), "value": _quote(field)}


def cell_to_json(cell: CompanionSet) -> dict:
    """The cell's JSON value, read back from its text."""
    return json.loads(_cell_text(cell))


def cell_from_json(sf: Semifield, read_element, obj: Any, path: str, *args) -> CompanionSet:
    """The cell encoded by obj, read with ``read_element`` if it is a singleton.

    ``path.format(*args)`` locates the cell and ``path + ".{}"`` formats the
    path of its member; each is formatted only if that check fails.
    """
    if not isinstance(obj, dict):
        raise SchemaError("cell must be an object", path.format(*args))
    if "kind" not in obj:
        raise SchemaError("missing key 'kind'", path.format(*args))
    kind = obj["kind"]
    if not (isinstance(kind, str) and kind in _CELLS):
        raise SchemaError(_KIND_MESSAGE, path.format(*args) + ".kind")
    cls, field = _CELLS[kind]
    if field not in obj:
        raise SchemaError(f"missing key {field!r}", path.format(*args))
    if cls is Singleton:
        return cls(read_element(obj[field], path + ".{}", *args, field))
    return cls(_exponent_from_json(sf, obj[field], path + ".{}", *args, field))


def _cell_reader(sf: Semifield):
    """``read(obj, path, *args)`` for one table: each distinct cell encoding is read once.

    The memo is keyed by the cell's kind and member when both are exact
    ``str``, which is all :func:`cell_from_json` reads of such a cell, and
    keeps only cells that were read without error, so a malformed cell
    fails at the path of its first occurrence.  Any other cell is read on
    its own.
    """
    memo: dict[tuple[str, str], CompanionSet] = {}
    read_element = _element_reader(sf)

    def read(obj: Any, path: str, *args) -> CompanionSet:
        if obj.__class__ is dict and (kind := obj.get("kind")).__class__ is str and kind in _CELLS:
            key = (kind, obj.get(_CELLS[kind][1]))
            if key[1].__class__ is str:
                cell = memo.get(key)
                if cell is None:
                    cell = memo[key] = cell_from_json(sf, read_element, obj, path, *args)
                return cell
        return cell_from_json(sf, read_element, obj, path, *args)

    return read


def table_to_json(table: CompanionTable) -> dict:
    """The table's JSON value, read back from the text :func:`dumps` writes for it."""
    return json.loads(dumps(table))


def table_from_json(obj: Any) -> CompanionTable:
    sf = _object_sf(obj, "table")
    cells_obj = _get(obj, "cells", "$")
    _expect(isinstance(cells_obj, list) and cells_obj, "cells must be a nonempty list", "$.cells")
    n = len(cells_obj)
    if "n" in obj:  # optional; when given, it must agree with the grid
        _expect(_is_int(obj["n"]) and obj["n"] == n, f"n must be {n}, the number of rows of cells", "$.n")
    read = _cell_reader(sf)
    rows = []
    for r, row in enumerate(cells_obj, 1):
        if not (isinstance(row, list) and len(row) == n):
            raise SchemaError("cells must be a square grid", f"$.cells[{r}]")
        rows.append(tuple([read(cell, "$.cells[{}][{}]", r, c) for c, cell in enumerate(row, 1)]))
    return CompanionTable(sf, tuple(rows))


# -- rational forms and square classes -----------------------------------------


def ratform_from_json(obj: Any) -> RationalQuadraticForm:
    _expect(isinstance(obj, dict), "rational form must be an object", "$")
    n = _get(obj, "n", "$")
    _expect(_is_int(n) and n >= 1, "n must be a positive int", "$.n")
    _expect(n <= RATFORM_DIMENSION_LIMIT, f"n must be at most {RATFORM_DIMENSION_LIMIT}", "$.n")
    coeffs_obj = _get(obj, "coeffs", "$")
    _expect(isinstance(coeffs_obj, dict), "coeffs must be an object", "$.coeffs")
    _grow_canonical_keys(n)
    coeffs = {}
    canonical = _CANONICAL_KEYS.get
    for key, val in coeffs_obj.items():
        ij = canonical(key)
        if ij is None or ij[1] >= n or ij in coeffs:
            ij = _index_pair(key, n, "$.coeffs", coeffs, strict_upper=False)
        coeffs[ij] = rational_from_json(val, "$.coeffs.{}", key)
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


# -- JSON text -------------------------------------------------------------------

# json.dumps builds a new encoder on every call that passes sort_keys; this one is built once
_ENCODE = json.JSONEncoder(sort_keys=True).encode


class _Grid(NamedTuple):
    """A grid member of a :func:`document`: its entries, the :class:`_TextWriter` method that writes them
    and the function that encodes one entry."""

    entries: tuple
    write: Callable
    encode: Callable


def document(obj: Any) -> dict:
    """The JSON object of a form, Gram matrix or companion table, its grid left to :func:`dumps`.

    A form's grid is ``upper``, a Gram matrix's ``gram`` and a table's
    ``cells``.  Any other obj raises the ``TypeError`` that ``json.dumps``
    raises for a value it cannot encode.
    """
    if isinstance(obj, QuadraticForm):
        return {
            "semifield": semifield_to_json(obj.sf),
            "n": obj.n,
            "diag": [format_element(a) for a in obj.diag],
            "upper": _Grid(obj.cross, _TextWriter._upper_text, _element_text),
        }
    if isinstance(obj, SymmetricBilinearForm):
        return {"semifield": semifield_to_json(obj.sf), "gram": _Grid(obj.gram, _TextWriter._rows_text, _element_text)}
    if isinstance(obj, CompanionTable):
        cells = _Grid(obj.cells, _TextWriter._rows_text, _cell_text)
        return {"semifield": semifield_to_json(obj.sf), "n": obj.n, "cells": cells}
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def dumps(payload: Any) -> str:
    """``json.dumps(payload, sort_keys=True)``, where each form, Gram matrix or table is its :func:`document`.

    Such an object may be the payload or a dict's member at any depth; inside a list it raises
    ``json``'s ``TypeError``, and so does a dict key that is not a string, which ``json.dumps``
    would convert (no caller does either).  Each grid's distinct entries are written once.
    """
    return _TextWriter().text(payload)


@functools.lru_cache(maxsize=None)
def _upper_layout(n: int) -> tuple:
    """A size-n form's ``upper`` keys in the order of ``sort_keys``, by row: (i, pick, prefixes).

    ``pick(row)`` is the tuple of the row's entries at the row's keys, and
    ``prefixes`` their ``"i,j": `` texts, interned so that the layouts of
    all sizes share them.  Keys sort as strings, so "1,10" comes before
    "1,2"; and the keys of one row are contiguous in that order, since the
    comma sorts below every digit.
    """
    rows: dict[int, list] = {}
    for key, i, j in sorted((f"{i + 1},{j + 1}", i, j) for i in range(n) for j in range(i + 1, n)):
        rows.setdefault(i, []).append((j, sys.intern(_quote(key) + ": ")))
    layout = []
    for i, entries in rows.items():
        cols = [j for j, _ in entries]
        pick = itemgetter(*cols) if len(cols) > 1 else (lambda row, j=cols[0]: (row[j],))
        layout.append((i, pick, tuple(prefix for _, prefix in entries)))
    return tuple(layout)


def _element_text(v: Element) -> str:
    return _quote(format_element(v))


class _TextWriter:
    """One payload's JSON text, written in one walk by :meth:`text` (see the module docstring).

    ``by_id`` holds the text of each element and cell object met; each
    belongs to a grid of the payload, which outlives the writer, so no id
    is reused.  Elements, and a companion table's cells, share one object
    per value, so each value is encoded once.
    """

    def __init__(self):
        self.by_id: dict[int, str] = {}

    def text(self, value: Any) -> str:
        if isinstance(value, dict):
            return "{" + ", ".join([_quote(k) + ": " + self.text(v) for k, v in sorted(value.items())]) + "}"
        if value.__class__ is _Grid:
            return value.write(self, value.entries, value.encode)
        if value is None or isinstance(value, (str, int, float, list, tuple)):
            return _ENCODE(value)
        return self.text(document(value))  # document raises json's TypeError for any other object

    def _texts(self, entries: tuple, encode) -> list[str]:
        """The texts of a row's entries: from ``by_id``, and from ``encode``, kept there, where that misses."""
        by_id = self.by_id
        texts = list(map(by_id.get, map(id, entries)))
        if None in texts:  # a row may hold a new object more than once: it is encoded once
            texts = [t or by_id.get(id(v)) or by_id.setdefault(id(v), encode(v)) for t, v in zip(texts, entries)]
        return texts

    def _rows_text(self, rows, encode) -> str:
        return "[" + ", ".join(["[" + ", ".join(self._texts(row, encode)) + "]" for row in rows]) + "]"

    def _upper_text(self, cross, encode) -> str:
        """The members "i,j" of a form's nonzero cross coefficients, i < j, from its cross grid."""
        parts = []
        for i, pick, prefixes in _upper_layout(len(cross)):
            texts = self._texts(pick(cross[i]), encode)
            parts += [p + t for p, t in zip(prefixes, texts) if t != '"0"']  # only zero prints "0"
        return "{" + ", ".join(parts) + "}"
