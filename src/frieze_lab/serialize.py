"""JSON and CSV document schemas.

Rationals travel as canonical reduced strings "p/q" ("q" omitted when 1), so
documents are lossless and language-neutral.  Frieze documents are validated
on ingestion by re-propagating the quiddity and comparing every row.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Sequence

from .frieze import FriezePattern, propagate_from_quiddity, str_to_fraction


def fraction_to_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def scalar_to_json(x):
    """Fractions as strings, floats as floats."""
    if isinstance(x, (int, Fraction)):
        return fraction_to_str(Fraction(x))
    return float(x)


DOC_KEYS = ("width", "period", "quiddity", "rows")


def frieze_to_doc(frieze: FriezePattern) -> dict:
    return {
        "width": frieze.width,
        "period": frieze.period,
        "quiddity": [fraction_to_str(x) for x in frieze.quiddity],
        "rows": [
            [fraction_to_str(x) for x in frieze.rows[r + 1]]
            for r in range(0, frieze.width + 2)
        ],
    }


def frieze_from_doc(doc: dict) -> FriezePattern:
    if not isinstance(doc, dict) or any(k not in doc for k in DOC_KEYS):
        raise ValueError(f"frieze document needs the keys {', '.join(DOC_KEYS)}")
    rows = doc["rows"]
    if not isinstance(doc["quiddity"], list) or not (
        isinstance(rows, list) and all(isinstance(r, list) for r in rows)
    ):
        raise ValueError("document quiddity must be a list and rows a list of lists")
    quiddity = [str_to_fraction(x) for x in doc["quiddity"]]
    frieze = propagate_from_quiddity(quiddity)
    if frieze.width != doc["width"] or frieze.period != doc["period"]:
        raise ValueError("document width/period inconsistent with quiddity")
    rows = [[str_to_fraction(x) for x in row] for row in rows]
    stored = [list(frieze.rows[r + 1]) for r in range(0, frieze.width + 2)]
    if rows != stored:
        raise ValueError("document rows inconsistent with quiddity propagation")
    return frieze


def polygon_to_doc(polygon) -> dict:
    return {"vertices": [[scalar_to_json(v[0]), scalar_to_json(v[1])] for v in polygon]}


def dumps(doc: dict) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=2) + "\n"


def csv_string(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """RFC-4180 CSV (CRLF line endings) with repr-exact floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
    return buf.getvalue()
