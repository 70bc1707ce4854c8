"""Deterministic report serialization: json, csv, and markdown.

A report is an object that says how it serialises, through three methods:
to_json_dict() for json, table() -> (header, rows) for csv, and to_md() for
markdown; a Record is a report of named fields.  This module writes the
bytes: sorted JSON keys, rationals printed as a/b, and floats clipped to 12
significant digits, so repeated runs are byte-identical.  Report modules
build their markdown tables with md_table.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from .errors import DegenerateInputError
from .polys import _fmt_coeff

FORMATS = ("json", "csv", "md")

_METHODS = {"json": "to_json_dict", "csv": "table", "md": "to_md"}


def _round_floats(obj):
    # exact types first: isinstance against Fraction goes through ABCMeta
    if type(obj) is str or type(obj) is int or obj is None:
        return obj
    if isinstance(obj, float):
        return float("%.12g" % obj)
    if isinstance(obj, Fraction):
        text = _fmt_coeff(abs(obj))
        return "-" + text if obj < 0 else text
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _fmt_cell(v) -> str:
    # type(v) is int: a bool is an int and still prints true or false
    if type(v) is str or type(v) is int:
        return str(v)
    if v is None:
        return ""
    if isinstance(v, float):
        return "%.12g" % v
    if isinstance(v, Fraction):
        return _round_floats(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _csv_table(header, rows) -> str:
    """A header line and one line per row, cells quoted where csv needs it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt_cell(v) for v in row] for row in rows)
    return out.getvalue()


def md_table(header, rows) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(_fmt_cell(v) for v in row) + " |")
    return "\n".join(lines) + "\n"


# json.dumps(indent=2)'s bytes, without its pure-Python encoder: the
# containers laid out here, the leaves encoded by the C functions
_STR = json.encoder.encode_basestring_ascii


def _json_value(v, nl: str) -> str:
    t = type(v)
    if t is str:
        return _STR(v)
    if t is int or t is float and math.isfinite(v):
        return t.__repr__(v)
    inner = nl + "  "
    if t is dict and v:     # a key that is not a str is quoted JSON text
        return "{" + inner + ("," + inner).join(
            [_STR(k if type(k) is str else json.dumps(k)) + ": "
             + _json_value(x, inner) for k, x in sorted(v.items())]) + nl + "}"
    if t is list and v:
        return "[" + inner + ("," + inner).join(
            [_json_value(x, inner) for x in v]) + nl + "]"
    return json.dumps(v)    # bools, None, NaN, infinities, empty containers


def _json_text(d: dict) -> str:
    return _json_value(_round_floats(d), "\n") + "\n"


class Record(dict):
    """A report of named fields: json, one csv row, or a table of field and
    value."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return self

    def table(self):
        keys = sorted(self)
        # a list or dict value is one cell of JSON, not a Python repr
        return keys, [[json.dumps(_round_floats(self[k]), sort_keys=True)
                       if isinstance(self[k], (list, tuple, dict))
                       else self[k] for k in keys]]

    def to_md(self) -> str:
        keys, (cells,) = self.table()
        return md_table(("field", "value"),
                        [(k, _fmt_cell(_round_floats(v)))
                         for k, v in zip(keys, cells)])


def emit(report, fmt: str = "json") -> bytes:
    """Serialize a report to one of json, csv, md."""
    if fmt not in FORMATS:
        raise DegenerateInputError("unsupported format %r (choose from %s)"
                                   % (fmt, ", ".join(FORMATS)))
    render = getattr(report, _METHODS[fmt], None)
    if render is None:
        raise DegenerateInputError("report type %s is not serializable"
                                   % type(report).__name__)
    out = render()
    if fmt == "json":
        out = _json_text(out)
    elif fmt == "csv":
        out = _csv_table(*out)
    return out.encode("utf-8")
