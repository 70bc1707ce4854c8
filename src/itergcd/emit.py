"""Deterministic report serialization: json, csv, and markdown.

Every report type carries its own to_json_dict; this module flattens those
dicts to bytes with stable ordering (sorted JSON keys, fixed CSV columns),
rationals printed as a/b, and floats clipped to 12 significant digits so
repeated runs are byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import DegenerateInputError
from .gcdlab import GcdGridReport, SuiteReport
from .multiplicity import MultiplicityCertificate
from .polys import _decimal

FORMATS = ("json", "csv", "md")


def _round_floats(obj):
    if isinstance(obj, float):
        return float("%.12g" % obj)
    if isinstance(obj, Fraction):
        # _decimal renders integers past the interpreter's int->str limit
        text = _decimal(abs(obj.numerator))
        if obj.denominator != 1:
            text += "/" + _decimal(obj.denominator)
        return "-" + text if obj < 0 else text
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _as_dict(report) -> dict:
    if isinstance(report, dict):
        return report
    to_dict = getattr(report, "to_json_dict", None)
    if to_dict is None:
        raise DegenerateInputError("report type %s is not serializable"
                                   % type(report).__name__)
    return to_dict()


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return "%.12g" % v
    if isinstance(v, Fraction):
        return _round_floats(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    return str(v)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _md_table(header, rows) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(_fmt_cell(v) for v in row) + " |")
    return "\n".join(lines) + "\n"


def _factors_token(factors) -> str:
    return ";".join("%s:%d" % (p, e) for p, e in factors)


GRID_COLUMNS = ("m", "n", "degree", "gcd", "factors", "millis")
SUITE_COLUMNS = ("family", "n", "claim", "ok")
CERT_COLUMNS = ("case", "bound", "congruence", "ell", "r", "e", "u", "s",
                "d", "exceptional", "notes", "lambda_modulus", "c0")
PROBE_COLUMNS = ("n", "factor_degree", "height", "error", "predicted")


def _grid_rows(d: dict):
    return [(c["m"], c["n"], c["degree"], c["gcd"],
             _factors_token(c["factors"]), c["millis"]) for c in d["cells"]]


def _cert_row(d: dict):
    return [(d["case"], d["bound"], d["congruence"], d["ell"], d["r"],
             d["e"], d["u"], d["s"], d["d"],
             ";".join("%d:%d" % (n, v) for n, v in d["exceptional"]),
             ";".join(d["notes"]), d["lambda_modulus"], d["c0"])]


def _suite_rows(d: dict):
    return [(r["family"], r["n"], r["claim"], r["ok"]) for r in d["rows"]]


def _probe_rows(d: dict):
    return [(r["n"], r["factor_degree"], r["height"], r["error"],
             r["predicted"]) for r in d["rows"]]


def _to_csv(report, d: dict) -> str:
    if isinstance(report, GcdGridReport) or "cells" in d:
        return _csv(GRID_COLUMNS, _grid_rows(d))
    if isinstance(report, MultiplicityCertificate) or "congruence" in d:
        return _csv(CERT_COLUMNS, _cert_row(d))
    if isinstance(report, SuiteReport):
        return _csv(SUITE_COLUMNS, _suite_rows(d))
    if "rows" in d and d["rows"] and "predicted" in d["rows"][0]:
        return _csv(PROBE_COLUMNS, _probe_rows(d))
    keys = sorted(d)
    return _csv(tuple(keys), [tuple(d[k] for k in keys)])


def _to_md(report, d: dict) -> str:
    if isinstance(report, GcdGridReport) or "cells" in d:
        head = ("gcd grid: f = %s, g = %s, c = %s, N = %d%s\n\n"
                % (d["f"], d["g"], d["c"], d["grid_n"],
                   " (diagonal)" if d["diagonal_only"] else ""))
        uni = _md_table(("factor", "max multiplicity"),
                        [(p, e) for p, e in d["factor_universe"]])
        cells = _md_table(GRID_COLUMNS, _grid_rows(d))
        tail = "\nstabilized: %s\n" % _fmt_cell(d["stabilized"])
        if d["degenerate_cells"]:
            tail += _md_table(("m", "n", "reason"),
                              [(c["m"], c["n"], c["reason"])
                               for c in d["degenerate_cells"]])
        return head + uni + "\n" + cells + tail
    if isinstance(report, MultiplicityCertificate) or "congruence" in d:
        return _md_table(CERT_COLUMNS, _cert_row(d))
    if isinstance(report, SuiteReport):
        body = _md_table(SUITE_COLUMNS, _suite_rows(d))
        return body + "\nall pass: %s\n" % _fmt_cell(d["all_pass"])
    if "rows" in d and d["rows"] and "predicted" in d["rows"][0]:
        return _md_table(PROBE_COLUMNS, _probe_rows(d))
    keys = sorted(d)
    return _md_table(("field", "value"), [(k, _fmt_cell(_round_floats(d[k])))
                                          for k in keys])


def emit(report, fmt: str = "json") -> bytes:
    """Serialize a report (or plain dict) to one of json, csv, md."""
    if fmt not in FORMATS:
        raise DegenerateInputError("unsupported format %r (choose from %s)"
                                   % (fmt, ", ".join(FORMATS)))
    d = _as_dict(report)
    if fmt == "json":
        text = json.dumps(_round_floats(d), sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        text = _to_csv(report, d)
    else:
        text = _to_md(report, d)
    return text.encode("utf-8")
