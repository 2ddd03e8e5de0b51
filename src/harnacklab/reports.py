"""Serialization: canonical JSON reports, CSV flattening, raw sample dumps.

Determinism contract: identical inputs produce byte-identical files except
for the ``created_at`` stamp, which callers strip before comparing.  All
floats go through repr-faithful JSON (no rounding), NaN and infinity are
rejected rather than smuggled in as non-standard tokens, and CSV rows follow
the per-node order of the report.
"""

from __future__ import annotations

import csv
import json
import numbers
import operator
import reprlib
from datetime import datetime, timezone
from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = [
    "canonical_json",
    "indented_json",
    "load_schema",
    "SchemaError",
    "validate_config",
    "validate_report",
    "validate_grid_override",
    "write_report",
    "report_csv_rows",
    "write_samples_dump",
    "read_samples_dump",
    "timestamp",
]


# the top-level key canonical_json leaves out: it differs between runs
_VOLATILE_KEY = "created_at"


def canonical_json(obj) -> str:
    """Sorted-key compact JSON without the ``created_at`` stamp.

    This is the string used for determinism comparisons; two runs agree iff
    their canonical forms are equal.  The document first goes through the
    writer's walk, so it refuses what ``indented_json`` refuses: NaN and
    infinity raise ValueError, and a tuple, a non-``str`` key or any other
    value that is not JSON raises TypeError, where json.dumps alone would
    write a tuple as a list and a key 3 as "3".
    """
    if isinstance(obj, dict):
        obj = {k: v for k, v in obj.items() if k != _VOLATILE_KEY}
    _indented(obj)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


_FLOAT_TEXT = float.__repr__
_INT_TEXT = int.__repr__
_STR_TEXT = json.encoder.encode_basestring_ascii


def _indented(doc, node: _Node | None = None) -> str:
    """The text json.dumps gives for ``doc`` with sorted keys and indent 2.

    Python's C encoder takes no indent, so json.dumps falls back to its
    pure-Python encoder; this walks the dicts and lists itself and leaves
    each scalar to the C routines that encoder calls.  As in json.dumps, a
    float subclass (np.float64) is written as a float.  NaN and infinity
    raise ValueError rather than appear as non-standard tokens; any other
    value that is not JSON, a tuple or np.int64 say, raises TypeError.
    With a schema node, a value its node refuses raises SchemaError unwritten.
    """
    parts: list[str] = []
    _put_indented(doc, "\n", parts.append, node)
    return "".join(parts)


def _put_indented(obj, newline: str, put, node: _Node | None = None) -> None:
    if node is not None:
        node.check(obj)
    tp = type(obj)
    if tp is float:
        if obj - obj != 0.0:
            raise ValueError("non-finite value cannot be written as JSON")
        put(_FLOAT_TEXT(obj))
    elif tp is str:
        put(_STR_TEXT(obj))
    elif tp is dict:
        if not obj:
            put("{}")
            return
        props = {} if node is None else node.properties
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(sep)
            put(_STR_TEXT(key))
            put(": ")
            try:
                _put_indented(obj[key], inner, put, props.get(key))
            except SchemaError as exc:
                exc.path = (key, *exc.path)
                raise
            sep = "," + inner
        put(newline + "}")
    elif tp is list:
        if not obj:
            put("[]")
            return
        items = None if node is None else node.items
        inner = newline + "  "
        sep = "[" + inner
        for i, item in enumerate(obj):
            put(sep)
            try:
                _put_indented(item, inner, put, items)
            except SchemaError as exc:
                exc.path = (i, *exc.path)
                raise
            sep = "," + inner
        put(newline + "]")
    elif tp is int:
        put(_INT_TEXT(obj))
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif obj is None:
        put("null")
    elif isinstance(obj, float):
        _put_indented(float(obj), newline, put)
    else:
        raise TypeError(f"Object of type {tp.__name__} is not JSON serializable")


def indented_json(obj) -> str:
    """Sorted-key JSON indented by 2, plus a newline: the text of every
    indented JSON file the package writes.  NaN and infinity raise
    ValueError, any other value that is not JSON TypeError."""
    return _indented(obj) + "\n"


def timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# schema plumbing


def load_schema(name: str) -> dict:
    """Load one of the published schemas (config, grid, report) by stem."""
    path = resources.files("harnacklab.schemas").joinpath(f"{name}.schema.json")
    return json.loads(path.read_text())


# Keywords a schema node understands; reading a schema with any other keyword
# raises, so a schema edit cannot slip past the check.
_KEYWORDS = frozenset({
    "$schema", "$id", "title", "description", "type", "enum", "properties", "required",
    "additionalProperties", "items", "minItems", "minimum", "exclusiveMinimum", "exclusiveMaximum",
})
# the Python classes of each JSON type (a bool is no number): a value whose
# exact type is one of them passes at once, any other is checked by isinstance
_TYPES = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "boolean": (bool,),
    "null": (type(None),),
    "number": (int, float, numbers.Number),
    "integer": (int,),  # and an integral float, see _Node.check
}
# the relation by which a number breaks each bound, so NaN breaks none
_BOUNDS = {"minimum": operator.lt, "exclusiveMinimum": operator.le, "exclusiveMaximum": operator.ge}


class SchemaError(ValueError):
    """A value a published schema refuses, raised as SchemaError(schema,
    keyword, reason): ``path`` holds its keys and list indices in the
    document, ``keyword`` the schema keyword it fails."""

    path = ()
    keyword = property(lambda self: self.args[1])

    def __str__(self) -> str:
        schema, keyword, reason = self.args
        where = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in self.path)
        return f"{schema} schema: {where.lstrip('.') or 'the document'} fails {keyword}: {reason}"


class _Node:
    """One subschema of the published schema ``name``, read once: what the
    writer's walk and ``validate`` check values against, with Draft 2020-12
    meaning.  Reading a keyword outside ``_KEYWORDS``, an enum member that
    is an array or object, or an additionalProperties schema raises ValueError.
    """

    def __init__(self, schema: dict, name: str):
        if not isinstance(schema, dict):
            raise ValueError(f"cannot read the schema {schema!r}")
        unknown = set(schema) - _KEYWORDS
        if unknown:
            raise ValueError(f"cannot read schema keywords {sorted(unknown)}")
        if type(schema.get("additionalProperties", True)) is not bool:
            raise ValueError("cannot read additionalProperties other than true or false")
        if any(isinstance(m, (list, dict)) for m in schema.get("enum", ())):
            raise ValueError("cannot read enum members that are arrays or objects")
        self.name = name
        names = schema.get("type")
        self.names = [names] if isinstance(names, str) else names
        self.classes = None if names is None else tuple(tp for n in self.names for tp in _TYPES[n])
        self.types = None if names is None else frozenset(self.classes)
        # takes an integral float, which validate hands on as its int
        self.integer = names is not None and "integer" in self.names and "number" not in self.names
        self.enum = schema.get("enum")
        self.bounds = [(kw, _BOUNDS[kw], schema[kw]) for kw in _BOUNDS if kw in schema]
        self.required = schema.get("required", ())
        self.closed = schema.get("additionalProperties") is False
        self.properties = {key: _Node(sub, name) for key, sub in schema.get("properties", {}).items()}
        self.items = _Node(schema["items"], name) if "items" in schema else None
        self.min_items = schema.get("minItems", 0)

    def check(self, v) -> None:
        """Raise SchemaError if ``v`` fails this node's own keywords."""
        tp = type(v)
        if self.types is not None and tp not in self.types and not (
            tp is not bool and isinstance(v, self.classes)
            or self.integer and isinstance(v, float) and v.is_integer()
        ):
            raise SchemaError(self.name, "type", f"{reprlib.repr(v)} is not of type {' or '.join(self.names)}")
        # a bool member matches only itself, and 1 and 1.0 match each other
        if self.enum is not None and not any(
            v is m or not (isinstance(v, bool) or isinstance(m, bool)) and v == m for m in self.enum
        ):
            raise SchemaError(self.name, "enum", f"{reprlib.repr(v)} is not one of {self.enum!r}")
        if self.bounds and tp is not bool and isinstance(v, numbers.Number):
            for keyword, breaks, bound in self.bounds:
                if breaks(v, bound):
                    raise SchemaError(self.name, keyword, f"{v!r} is past the bound {bound!r}")
        if (self.required or self.closed) and isinstance(v, dict):
            for key in self.required:
                if key not in v:
                    raise SchemaError(self.name, "required", f"{key!r} is missing")
            if self.closed and not v.keys() <= self.properties.keys():
                extra = ", ".join(sorted(map(repr, v.keys() - self.properties.keys())))
                raise SchemaError(self.name, "additionalProperties", f"{extra} not allowed")
        elif self.min_items and isinstance(v, list) and len(v) < self.min_items:
            raise SchemaError(self.name, "minItems", f"{reprlib.repr(v)} has fewer than {self.min_items} items")

    def validate(self, v):
        """Check ``v`` and all it holds; return it with each integral float
        at an integer node (itself or inside it, in place) as its int."""
        self.check(v)
        if self.integer and isinstance(v, float):
            return int(v)
        if isinstance(v, dict):
            below = [(key, node) for key, node in self.properties.items() if key in v]
        elif isinstance(v, list) and self.items is not None:
            below = [(i, self.items) for i in range(len(v))]
        else:
            return v
        for key, node in below:
            try:
                v[key] = node.validate(v[key])
            except SchemaError as exc:
                exc.path = (key, *exc.path)
                raise
        return v


@cache
def _schema_node(schema_name: str) -> _Node:
    """The root node of a published schema, read on first use."""
    return _Node(load_schema(schema_name), schema_name)


# Each raises SchemaError where its document fails its schema, and hands the
# lab ints: an integral float at an integer field ("n": 2000.0) becomes its
# int in place.
def validate_config(config: dict) -> None:
    _schema_node("config").validate(config)


def validate_report(report: dict) -> None:
    _schema_node("report").validate(report)


def validate_grid_override(grid: dict) -> None:
    _schema_node("grid").validate(grid)


# ---------------------------------------------------------------------------
# report writing


def report_csv_rows(report: dict) -> tuple[list[str], list[list]]:
    """Flatten per_node entries to a rectangular table.

    Columns: the scalar node fields in a fixed order, then vector components
    expanded as x1..xd (y, z likewise).  Missing values are left empty.
    """
    nodes = report.get("per_node", [])
    d = 0
    has_z = False
    keys: list[str] = []
    for nd in nodes:
        d = max(d, len(nd.get("x", [])))
        has_z = has_z or "z" in nd
        for k in nd:
            if k not in ("x", "y", "z") and k not in keys:
                keys.append(k)
    header = []
    for k in keys:
        header.append(k)
        if k == "t":
            header.extend(f"x{i+1}" for i in range(d))
            header.extend(f"y{i+1}" for i in range(d))
            if has_z:
                header.extend(f"z{i+1}" for i in range(d))
    rows = []
    for nd in nodes:
        row = []
        for k in keys:
            row.append(nd.get(k, ""))
            if k == "t":
                for vec in ("x", "y") + (("z",) if has_z else ()):
                    comp = nd.get(vec, [])
                    row.extend(list(comp) + [""] * (d - len(comp)))
        rows.append(row)
    return header, rows


def write_report(report: dict, out: Path | str, fmt: str = "json") -> list[Path]:
    """Write a validated report as pretty JSON and/or flattened CSV.

    ``out`` is the JSON path; the CSV sibling swaps the suffix.  Returns the
    paths written.  One walk builds the JSON text and checks each value
    against its node of report.schema.json as it writes it, so an invalid
    report raises SchemaError naming the first value, in sorted-key order,
    that fails.  The JSON text is built before anything is written, so an
    invalid report or a value the writer refuses (see :func:`indented_json`)
    leaves no file either, whatever the format.
    """
    if fmt not in ("json", "csv", "both"):
        raise ValueError(f"format must be json, csv or both, got {fmt!r}")
    text = _indented(report, _schema_node("report")) + "\n"
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("json", "both"):
        out.write_text(text)
        written.append(out)
    if fmt in ("csv", "both"):
        csv_path = out.with_suffix(".csv")
        header, rows = report_csv_rows(report)
        with csv_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        written.append(csv_path)
    return written


# ---------------------------------------------------------------------------
# raw sample dumps


def write_samples_dump(samples: np.ndarray, path: Path | str, sidecar: dict) -> tuple[Path, Path]:
    """Binary dump: little-endian float64, row-major, plus a JSON sidecar.

    The sidecar records at least n, d and whatever context the caller adds
    (t, spec, seed); n and d are always overwritten from the array shape so
    they cannot drift from the payload.
    """
    samples = np.ascontiguousarray(np.asarray(samples, dtype="<f8"))
    if samples.ndim != 2:
        raise ValueError("samples must be a 2-d array (n, d)")
    meta = dict(sidecar)
    meta["n"], meta["d"] = int(samples.shape[0]), int(samples.shape[1])
    text = indented_json(meta)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    samples.tofile(path)
    sidecar_path = path.with_suffix(path.suffix + ".json")
    sidecar_path.write_text(text)
    return path, sidecar_path


def read_samples_dump(path: Path | str) -> tuple[np.ndarray, dict]:
    """Inverse of write_samples_dump."""
    path = Path(path)
    meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    flat = np.fromfile(path, dtype="<f8")
    return flat.reshape(meta["n"], meta["d"]), meta
