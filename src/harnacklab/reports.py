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
import math
import numbers
from datetime import datetime, timezone
from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

__all__ = [
    "canonical_json",
    "load_schema",
    "validate_against",
    "validate_config",
    "validate_report",
    "validate_grid_override",
    "write_report",
    "report_csv_rows",
    "write_samples_dump",
    "read_samples_dump",
    "timestamp",
]


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json sees pure Python.

    Floats, the most common leaves, are tested first (np.float64 is a float).
    """
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            raise ValueError("non-finite value cannot be serialized to a report")
        return v
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj, exclude: tuple[str, ...] = ("created_at",)) -> str:
    """Sorted-key compact JSON with volatile top-level keys removed.

    This is the string used for determinism comparisons; two runs agree iff
    their canonical forms are equal.
    """
    plain = _plain(obj)
    if isinstance(plain, dict):
        plain = {k: v for k, v in plain.items() if k not in exclude}
    return json.dumps(plain, sort_keys=True, separators=(",", ":"), allow_nan=False)


def timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# schema plumbing


def load_schema(name: str) -> dict:
    """Load one of the published schemas (config, grid, report) by stem."""
    path = resources.files("harnacklab.schemas").joinpath(f"{name}.schema.json")
    return json.loads(path.read_text())


def validate_against(instance: dict, schema_name: str) -> None:
    """Raise jsonschema.ValidationError listing the first schema failure."""
    _validate_plain(_plain(instance), schema_name)


def _validate_plain(plain: dict, schema_name: str) -> None:
    """validate_against for a document _plain has already converted."""
    Draft202012Validator(load_schema(schema_name)).validate(plain)


# Keywords the compiled check understands; anything else in a schema is
# refused when it is compiled, so a schema edit cannot slip past it.
_KEYWORDS = frozenset({
    "$schema", "$id", "title",
    "type", "enum", "properties", "required", "items", "minimum", "additionalProperties",
})
# exact Python types per JSON type: a subclass is refused, which is stricter
# than jsonschema and costs only the fallback
_TYPES = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "boolean": (bool,),
    "null": (type(None),),
    "number": (int, float),
}


def _type_check(names):
    names = [names] if isinstance(names, str) else list(names)
    exact = frozenset(tp for name in names if name != "integer" for tp in _TYPES[name])
    if "integer" not in names:
        return lambda v: type(v) in exact
    return lambda v: type(v) in exact or type(v) is int or (type(v) is float and v.is_integer())


def _enum_check(members):
    # same type and equal, so True never matches 1 and [True] never [1]
    scalars = [m for m in members if not isinstance(m, (list, dict))]
    return lambda v: any(type(v) is type(m) and v == m for m in scalars)


def _minimum_check(bound):
    def check(v):
        if isinstance(v, bool) or not isinstance(v, numbers.Number):
            return True  # jsonschema applies minimum to numbers only
        return type(v) in (int, float) and v >= bound

    return check


def _compile_schema(schema: dict):
    """A predicate that accepts only instances ``schema`` accepts.

    It covers ``type``, ``enum``, ``properties``, ``required``, ``items``,
    ``minimum``, ``additionalProperties: true`` and the annotations, with
    Draft 2020-12 meaning, and raises ValueError on any other keyword.  It
    may reject what jsonschema would accept (a subclass of dict or float,
    say), never the reverse, so a rejection is only a cue to ask jsonschema.
    """
    if not isinstance(schema, dict):
        raise ValueError(f"cannot compile the schema {schema!r}")
    unknown = set(schema) - _KEYWORDS
    if unknown:
        raise ValueError(f"cannot compile schema keywords {sorted(unknown)}")
    if schema.get("additionalProperties", True) is not True:
        raise ValueError("cannot compile additionalProperties other than true")
    checks = []
    if "type" in schema:
        checks.append(_type_check(schema["type"]))
    if "enum" in schema:
        checks.append(_enum_check(schema["enum"]))
    if "minimum" in schema:
        checks.append(_minimum_check(schema["minimum"]))
    if "required" in schema:
        required = frozenset(schema["required"])
        checks.append(lambda v: not isinstance(v, dict) or v.keys() >= required)
    if "properties" in schema:
        props = tuple((k, _compile_schema(sub)) for k, sub in schema["properties"].items())
        checks.append(_properties_check(props))
    if "items" in schema:
        item = _compile_schema(schema["items"])
        checks.append(lambda v: not isinstance(v, list) or all(map(item, v)))
    if not checks:
        return lambda v: True
    if len(checks) == 1:
        return checks[0]
    return _all_of(tuple(checks))


def _properties_check(props):
    def check(v):
        if isinstance(v, dict):
            for key, ok in props:
                if key in v and not ok(v[key]):
                    return False
        return True

    return check


def _all_of(checks):
    def check(v):
        for ok in checks:
            if not ok(v):
                return False
        return True

    return check


@cache
def _schema_check(schema_name: str):
    """The compiled predicate of a published schema, built on first use."""
    return _compile_schema(load_schema(schema_name))


def validate_config(config: dict) -> None:
    validate_against(config, "config")


def validate_report(report: dict) -> None:
    validate_against(report, "report")


def validate_grid_override(grid: dict) -> None:
    validate_against(grid, "grid")


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
    paths written.  The report is checked against report.schema.json by a
    predicate compiled from the schema once per process; only when that
    rejects does jsonschema validate it, so an invalid report raises
    jsonschema's own ValidationError and nothing is written.
    """
    if fmt not in ("json", "csv", "both"):
        raise ValueError(f"format must be json, csv or both, got {fmt!r}")
    report = _plain(report)
    if not _schema_check("report")(report):
        _validate_plain(report, "report")
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("json", "both"):
        out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    samples.tofile(path)
    meta = dict(sidecar)
    meta["n"], meta["d"] = int(samples.shape[0]), int(samples.shape[1])
    sidecar_path = path.with_suffix(path.suffix + ".json")
    sidecar_path.write_text(json.dumps(_plain(meta), sort_keys=True, indent=2) + "\n")
    return path, sidecar_path


def read_samples_dump(path: Path | str) -> tuple[np.ndarray, dict]:
    """Inverse of write_samples_dump."""
    path = Path(path)
    meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    flat = np.fromfile(path, dtype="<f8")
    return flat.reshape(meta["n"], meta["d"]), meta
