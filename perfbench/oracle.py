"""Reference outputs recorded from the package, and the comparison against them.

References live in ``perfbench/refs`` as gzip-compressed JSON, one file per
(workload, input variant).  Numbers are compared with a relative tolerance,
so last-digit changes from a reordered but equivalent computation pass;
strings (unit ids, model names), integers, booleans and exit codes must match
exactly.
"""
from __future__ import annotations

import gzip
import json
import math
import os

RTOL = 1e-7
ATOL = 1e-10
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def ref_path(workload: str, variant: int, smoke: bool) -> str:
    tag = "smoke" if smoke else "full"
    return os.path.join(REF_DIR, f"{workload}-{tag}-{variant}.json.gz")


def load(path: str):
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save(path: str, doc) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(gzip.compress(data, mtime=0))


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_output(path: str):
    """A written output file as plain data.

    JSON files load as they are.  CSV files become their header, rows (numeric
    cells as floats, others as strings) and the ``# key=value`` notes; the
    leading format-version comment is kept as a string.
    """
    with open(path, "r", encoding="utf-8") as fh:
        if path.endswith(".json"):
            return json.load(fh)
        lines = fh.read().splitlines()
    doc = {"version": None, "header": None, "rows": [], "notes": {}}
    for line in lines:
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body and " " not in body:
                key, value = body.split("=", 1)
                doc["notes"][key] = _cell(value)
            elif doc["version"] is None:
                doc["version"] = body
            continue
        cells = line.split(",")
        if doc["header"] is None:
            doc["header"] = cells
        else:
            doc["rows"].append([_cell(c) for c in cells])
    return doc


def diff(actual, expected, where: str = "$"):
    """First mismatch between two output documents as a message, or None."""
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(actual, bool) or isinstance(expected, bool) or \
                not isinstance(actual, (int, float)) or \
                not isinstance(expected, (int, float)):
            return f"{where}: {actual!r} != {expected!r}"
        a, e = float(actual), float(expected)
        if math.isnan(a) and math.isnan(e):
            return None
        if a == e or abs(a - e) <= ATOL + RTOL * max(abs(a), abs(e)):
            return None
        return f"{where}: {a!r} differs from reference {e!r}"
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or sorted(actual) != sorted(expected):
            return f"{where}: keys differ from the reference"
        for key in sorted(expected):
            msg = diff(actual[key], expected[key], f"{where}.{key}")
            if msg:
                return msg
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{where}: length differs from the reference"
        for k, (a, e) in enumerate(zip(actual, expected)):
            msg = diff(a, e, f"{where}[{k}]")
            if msg:
                return msg
        return None
    if actual != expected or type(actual) is not type(expected):
        return f"{where}: {actual!r} != {expected!r}"
    return None
