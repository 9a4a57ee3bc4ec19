"""Correctness checks on written reports.

The checks read only counter totals, cycle counts and oracle verdicts, so
a report-layout change that keeps those values does not break them. Each
check returns None when the report is correct, else a one-line reason.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path


def _totals_from_json(report: dict) -> dict[str, int]:
    """Every integer ``total`` found under each counter, keyed counter/id."""
    found: dict[str, int] = {}

    def walk(obj, counter: str, key: str) -> None:
        if not isinstance(obj, dict):
            return
        if isinstance(obj.get("total"), int):
            found[f"{counter}/{key}" if key != counter else counter] = obj["total"]
        for k, v in obj.items():
            walk(v, counter, k)

    for counter, section in report.get("counters", {}).items():
        walk(section, counter, counter)
    return found


def _totals_from_csv(path: Path) -> dict[str, int]:
    """The ``__total__`` row of a CSV report, keyed like the JSON totals."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader([fh.readline()]))
        last = None
        for line in fh:
            last = line
    row = next(csv.reader([last]))
    if row[0] != "__total__":
        raise ValueError("last CSV row is not __total__")
    out = {}
    for col, val in zip(header[1:], row[1:]):
        if col.startswith("o") and ":" in col:
            order, mid = col.split(":", 1)
            col = f"order{order[1:]}/{mid}"
        out[col] = int(val)
    return out


def _compare(got: dict, want: dict, what: str) -> str | None:
    missing = sorted(set(want) - set(got))
    if missing:
        return f"{what}: {len(missing)} missing, first {missing[0]}"
    bad = sorted(k for k in want if got[k] != want[k])
    if bad:
        k = bad[0]
        return f"{what}: {len(bad)} differ, first {k}: {got[k]} != {want[k]}"
    return None


def check_report(kind: str, path: Path, ref: dict) -> str | None:
    """Check one report file of the given kind against its reference."""
    try:
        if kind == "csv_totals":
            return _compare(_totals_from_csv(path), ref["totals"], "totals")
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        if report.get("errors"):
            return f"report lists errors: {sorted(report['errors'])[:3]}"
        if kind == "cycles":
            return _compare(report["counters"]["cycles"], ref["cycles"],
                            "cycles")
        if kind == "json_totals":
            return _compare(_totals_from_json(report), ref["totals"],
                            "totals")
        if kind == "oracle":
            checks = report.get("oracle_check", {})
            if set(checks) != set(report["counters"]):
                return "oracle_check does not cover every counter"
            bad = sorted(c for c, v in checks.items()
                         if v.get("verified") is not True)
            return f"not verified: {bad}" if bad else None
    except (OSError, ValueError, KeyError, StopIteration, TypeError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
    raise ValueError(f"unknown check {kind!r}")
