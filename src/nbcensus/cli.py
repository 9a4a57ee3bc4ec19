"""Command-line front end: load a graph, run counters, emit a report.

The report is deterministic: identical input and options produce byte
identical output, so runs can be diffed. JSON values are integers,
strings and booleans only; stage timings go to the error stream instead
of the report. The JSON text is exactly what ``json.dumps(report,
indent=2, sort_keys=True)`` plus a final newline gives: keys in sorted
order, two-space indentation, and every non-ASCII or control character
as a ``\\uXXXX`` escape. It is written straight from the count vectors,
without building a ``{label: count}`` dict per counter. CSV lays out one
row per location (directed edge or vertex) with one column per counter
id and a trailing ``__total__`` row (so an input vertex of that name is
refused); a refused counter gets no column, and each error the JSON
report would list goes to the error stream as ``error: <key>: <message>``.

Counters: ``order3``, ``order4``, ``order5`` (catalog formulas, edge and
vertex rootings), ``k6`` (edge-rooted 6-cliques), ``cycles`` (C3..C9),
and ``generic:<pattern-file>`` (the constructive engine on an arbitrary
rooted pattern). A pattern file is an ordinary edge list plus header
lines ``r: ...`` and ``s: ...`` naming the root vertices.

With ``--output`` the report is written to the file as it is formed, a
block at a time, so the whole report text is never held.

Exit status: 0 on success, 1 on input problems, a report file that
cannot be written or a run out of memory (one ``error:`` line on the
error stream and no report: a partly written report file is removed),
2 on any integrity failure (inexact division, overflow guard, oracle
mismatch).
"""

from __future__ import annotations

import csv
import io
import json
import os
import stat
import sys
import time
from dataclasses import dataclass
from itertools import combinations, repeat
from json.encoder import encode_basestring_ascii
from typing import TextIO

import click
import numpy as np

from . import catalog
from .connection import (RootedGraph, ScaleGuardError, build_formula,
                         eval_formula, kappa_direct, tuple_coords)
from .cycle_census import full_census
from .edge_matrix import EdgeSpace, IntegrityError, _blocks
from .graphs import (DirectedEdgeIndex, Graph, GraphError, load_graph,
                     utf8_text)
from .motifs import eval_k6_edge, evaluate_catalog
from .oracle import (OracleGuardError, edge_rooted_vector,
                     simple_cycle_census, vertex_rooted_vector)

KNOWN_COUNTERS = ("order3", "order4", "order5", "k6", "cycles")


@dataclass
class RunConfig:
    """Everything one invocation needs; validated on construction."""
    input_path: str
    counters: tuple[str, ...]
    fmt: str = "json"
    oracle_check: bool = False
    max_oracle_n: int = 12
    output: str | None = None

    def __post_init__(self):
        self.counters = tuple(self.counters)
        if not self.counters:
            raise ValueError("select at least one counter")
        for c in self.counters:
            if c in KNOWN_COUNTERS or c.startswith("generic:"):
                continue
            raise ValueError(
                f"unknown counter {c!r}; choose from "
                f"{', '.join(KNOWN_COUNTERS)} or generic:<pattern-file>")
        if len(set(self.counters)) != len(self.counters):
            raise ValueError("counters may not repeat")
        if self.fmt not in ("json", "csv"):
            raise ValueError("format must be json or csv")
        if self.max_oracle_n <= 0:
            raise ValueError("--max-oracle-n must be positive")


def load_pattern(path: str) -> RootedGraph:
    """Parse a rooted pattern file: edge list plus ``r:`` / ``s:`` lines."""
    roots: dict[str, list[str] | None] = {"r": None, "s": None}
    edge_lines: list[str] = []
    with utf8_text(path) as fh:
        for raw in fh:
            stripped = raw.split("#", 1)[0].strip()
            for side in ("r", "s"):
                if stripped == side + ":" or stripped.startswith(side + ": "):
                    if roots[side] is not None:
                        raise GraphError(f"duplicate {side}: header")
                    roots[side] = stripped[2:].split()
                    break
            else:
                edge_lines.append(raw)
    if roots["r"] is None or roots["s"] is None:
        raise GraphError("pattern file needs both r: and s: header lines")
    g = load_graph(edge_lines)
    ids = {label: v for v, label in enumerate(g.labels)}
    picked = []
    for side in ("r", "s"):
        chosen = []
        for token in roots[side]:
            if token not in ids:
                raise GraphError(
                    f"root vertex {token!r} does not appear in any edge")
            chosen.append(ids[token])
        picked.append(tuple(chosen))
    return RootedGraph(g, picked[0], picked[1])


# ---------------------------------------------------------------------------
# counter stages
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PerLocation:
    """One count per location: ``values[k]`` is the count at ``labels[k]``.

    The report's ``per_location`` objects; the labels are distinct (vertex
    tokens, or ``tail->head`` over tokens without ``->``), so the writers
    render a block as the mapping ``{label: count}`` with one key per
    location. Every block over the same locations shares one ``labels``
    tuple, so the writers lay each tuple out once per run.
    """
    labels: tuple[str, ...]
    values: np.ndarray


def _vector_block(labels: tuple[str, ...], values: np.ndarray) -> dict:
    return {"per_location": PerLocation(labels, values),
            "total": int(values.sum())}


def _order_section(space: EdgeSpace, index: DirectedEdgeIndex,
                   order: int, errors: dict) -> dict:
    edge_entries, vertex_entries = catalog.entries_for_order(order)
    collected: dict[str, str] = {}
    values = evaluate_catalog(space, {**edge_entries, **vertex_entries},
                              collect_errors=collected)
    for mid, msg in collected.items():
        errors[f"order{order}/{mid}"] = msg
    return {
        "edge": {mid: _vector_block(index.labels, values[mid])
                 for mid in edge_entries if mid in values},
        "vertex": {mid: _vector_block(space.graph.labels, values[mid])
                   for mid in vertex_entries if mid in values},
    }


def _generic_section(space: EdgeSpace, counter: str, computed: dict) -> dict:
    """The engine's matrix for a ``generic:`` counter as a report section.

    ``computed[counter]`` keeps what the oracle check compares: the pattern
    and its matrix, or the refusal that stopped the engine.
    """
    pattern = load_pattern(counter.split(":", 1)[1])
    try:
        km = eval_formula(build_formula(pattern), space.graph)
    except (IntegrityError, ScaleGuardError) as exc:
        computed[counter] = exc
        raise
    computed[counter] = (pattern, km)
    labels, n = space.graph.labels, space.graph.n
    rows, cols = np.nonzero(km.data)
    # each nonzero cell's row and column tuples, labels joined by ","
    keys = [[",".join(labels[v] for v in t)
             for t in tuple_coords(idx, n, arity).T.tolist()]
            for idx, arity in ((rows, km.row_arity), (cols, km.col_arity))]
    entries = dict(zip(map("{}->{}".format, *keys),
                       km.data[rows, cols].tolist()))
    if len(entries) != rows.size:
        raise GraphError(
            f"{rows.size} nonzero entries print only {len(entries)} distinct "
            "keys: host labels containing ',' join into the same key")
    return {
        "pattern_order": pattern.graph.n,
        "pattern_edges": pattern.graph.m,
        "row_arity": km.row_arity,
        "col_arity": km.col_arity,
        "entries": entries,
        "total": int(km.data.sum()),
    }


# ---------------------------------------------------------------------------
# oracle cross-checks
# ---------------------------------------------------------------------------

def _oracle_check(space, counter, section, errors, max_n, computed) -> dict:
    """The oracle's verdict on the counts the report holds; a refused
    count raises its refusal again."""
    g = space.graph
    if g.n > max_n:
        return {"status": f"skipped: n={g.n} exceeds max-oracle-n={max_n}"}
    if counter.startswith("generic:"):
        return _check_generic(counter, computed[counter], g)
    for key, msg in errors.items():
        if key == counter or key.startswith(counter + "/"):
            raise IntegrityError(msg)
    if counter == "cycles":
        return _check_cycles(section, g)
    if counter == "k6":
        return _check_k6(section, space.index)
    return _check_order(section, space.index, int(counter[-1]))


def _verdict(mismatches: list, checked: int) -> dict:
    out = {"verified": not mismatches, "checked": checked}
    if mismatches:
        out["mismatches"] = mismatches
    return out


def _values(block: dict) -> list[int]:
    return block["per_location"].values.tolist()


def _check_order(section, index, order) -> dict:
    g = index.graph
    edge_entries, vertex_entries = catalog.entries_for_order(order)
    mismatches = []
    for mid in edge_entries:
        shape, root = catalog.pattern_for(mid)
        if _values(section["edge"][mid]) != edge_rooted_vector(
                shape, root, g, index):
            mismatches.append(mid)
    for mid in vertex_entries:
        shape, root = catalog.pattern_for(mid)
        if _values(section["vertex"][mid]) != vertex_rooted_vector(
                shape, root[0], g):
            mismatches.append(mid)
    return _verdict(sorted(mismatches),
                    len(edge_entries) + len(vertex_entries))


def _check_cycles(section, g) -> dict:
    want = simple_cycle_census(g)
    return _verdict([f"C{k}" for k in range(3, 10)
                     if section[f"C{k}"] != want[k]], 7)


def _check_k6(section, index) -> dict:
    k6 = Graph(6, list(combinations(range(6), 2)))
    want = edge_rooted_vector(k6, (0, 1), index.graph, index)
    return _verdict([] if _values(section) == want else ["K6"], 1)


def _check_generic(counter, result, g) -> dict:
    """``kappa_direct`` against the matrix the section was built from; the
    refusal that stopped the engine is raised again."""
    if isinstance(result, Exception):
        raise result
    pattern, got = result
    want = kappa_direct(pattern, g)
    return _verdict([] if got.equal(want) else [counter], 1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _to_json(report: dict, out: TextIO) -> None:
    """Write ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``, byte
    for byte, to the text stream ``out`` as it is formed: the skeleton piece
    by piece, and each ``PerLocation`` in one write, straight from its
    vector."""
    _write_json(report, "", out.write, {})
    out.write("\n")


def _write_json(obj, pad: str, write, layouts: dict) -> None:
    if isinstance(obj, PerLocation):
        write(_per_location_json(obj, pad, layouts))
    elif isinstance(obj, (dict, list)) and obj:
        inner = pad + "  "
        if isinstance(obj, dict):
            opening, closing = "{", "}"
            items = [(encode_basestring_ascii(key) + ": ", obj[key])
                     for key in sorted(obj)]
        else:
            opening, closing = "[", "]"
            items = [("", item) for item in obj]
        sep = opening + "\n"
        for key, value in items:
            write(sep + inner + key)
            _write_json(value, inner, write, layouts)
            sep = ",\n"
        write("\n" + pad + closing)
    else:
        write(json.dumps(obj))


def _per_location_json(block: PerLocation, pad: str, layouts: dict) -> str:
    """The object ``{label: count}`` with sorted keys, its entries indented
    under ``pad``; the key order and a ``%``-template of the object (key
    text, with each ``%`` doubled, and a ``%d`` per count) are computed once
    per label tuple and indentation."""
    if not block.labels:
        return "{}"
    key = (id(block.labels), pad)
    if key not in layouts:
        labels = block.labels
        order = sorted(range(len(labels)), key=labels.__getitem__)
        inner = pad + "  "
        entries = ",\n".join(
            inner + encode_basestring_ascii(labels[k]).replace("%", "%%")
            + ": %d" for k in order)
        layouts[key] = ("{\n" + entries + "\n" + pad + "}",
                        np.array(order, dtype=np.intp))
    template, order = layouts[key]
    return template % tuple(block.values[order].tolist())


def _to_csv(report: dict, config: RunConfig, index: DirectedEdgeIndex,
            out: TextIO) -> None:
    """Write the CSV report to the text stream ``out`` as it is formed: the
    header, each block of rows (``_blocks``, a row weighing its cells), and
    the totals row."""
    columns: list[tuple[str, PerLocation | None, PerLocation | None, int]] = []
    counters = report["counters"]
    refused = report.get("errors", {})
    for counter in config.counters:
        if counter in refused:
            continue
        if counter in ("order3", "order4", "order5"):
            section = counters[counter]
            order = counter[-1]
            for mid, block in section["edge"].items():
                columns.append((f"o{order}:{mid}", block["per_location"],
                                None, block["total"]))
            for mid, block in section["vertex"].items():
                columns.append((f"o{order}:{mid}", None,
                                block["per_location"], block["total"]))
        elif counter == "k6":
            block = counters["k6"]
            columns.append(("k6", block["per_location"], None,
                            block["total"]))
        elif counter == "cycles":
            for name, value in counters["cycles"].items():
                columns.append((name, None, None, value))
        else:
            block = counters[counter]
            columns.append((counter, None, None, block["total"]))

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["location"] + [c[0] for c in columns])
    for labels, side in ((index.labels, 1), (index.graph.labels, 2)):
        for lo, hi in _blocks(np.full(len(labels), 1 + len(columns))):
            writer.writerows(zip(labels[lo:hi], *[
                repeat("") if c[side] is None
                else c[side].values[lo:hi].tolist() for c in columns]))
    writer.writerow(["__total__"] + [c[3] for c in columns])


# ---------------------------------------------------------------------------
# the run itself
# ---------------------------------------------------------------------------

def _stage_error(stage: str, exc: Exception) -> tuple[int, str]:
    """One ``error:`` line for a stage that failed on its input or ran out
    of memory; exit 1 and no report."""
    print(f"error: {stage}: {str(exc) or 'out of memory'}", file=sys.stderr)
    return 1, ""


def _write_report(path: str | None, write) -> str:
    """The report that ``write(stream)`` forms: with no ``path``, its text;
    else "", once it is written to the file ``path`` as it is formed. A
    failure removes the partly written file if it is a regular file (not a
    device such as /dev/null), and is raised again."""
    if path is None:
        buf = io.StringIO()
        write(buf)
        return buf.getvalue()
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            write(fh)
    except BaseException:
        try:
            if stat.S_ISREG(os.stat(path).st_mode):
                os.remove(path)
        except OSError:  # the failure that got here is the one to report
            pass
        raise
    return ""


def _stage(timings: list, name: str, fn):
    start = time.perf_counter()
    out = fn()
    timings.append((name, int((time.perf_counter() - start) * 1000)))
    return out


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one configured run; returns (exit status, report text), the
    text "" once the report is written to ``config.output``."""
    timings: list[tuple[str, int]] = []
    try:
        g = _stage(timings, "parse", lambda: load_graph(config.input_path))
        if config.fmt == "csv" and "__total__" in g.labels:
            raise GraphError("vertex '__total__' reads as the CSV totals row")
        space = _stage(timings, "edge-space", lambda: EdgeSpace(g))
    except (OSError, GraphError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1, ""

    errors: dict[str, str] = {}
    computed: dict = {}
    index = space.index
    report: dict = {
        "meta": {"n": g.n, "m": g.m, "l": 2 * g.m},
        "counters": {},
    }

    for counter in config.counters:
        try:
            if counter in ("order3", "order4", "order5"):
                section = _stage(timings, counter, lambda c=counter: (
                    _order_section(space, index, int(c[-1]), errors)))
            elif counter == "k6":
                result = _stage(timings, counter, lambda: eval_k6_edge(space))
                section = _vector_block(index.labels, result.values)
            elif counter == "cycles":
                section = _stage(timings, counter, lambda: dict(
                    full_census(space).cycle_counts))
            else:
                section = _stage(timings, counter, lambda c=counter: (
                    _generic_section(space, c, computed)))
        except (OSError, GraphError, MemoryError) as exc:
            return _stage_error(counter, exc)
        except (IntegrityError, ScaleGuardError) as exc:
            errors[counter] = str(exc)
            section = {"error": str(exc)}
        report["counters"][counter] = section

    if config.oracle_check:
        checks: dict = {}
        for counter in config.counters:
            try:
                checks[counter] = _stage(
                    timings, f"check:{counter}",
                    lambda c=counter: _oracle_check(
                        space, c, report["counters"][c], errors,
                        config.max_oracle_n, computed))
            except (OracleGuardError, ScaleGuardError) as exc:
                checks[counter] = {"status": f"skipped: {exc}"}
            except IntegrityError as exc:
                errors[f"check:{counter}"] = str(exc)
                checks[counter] = {"verified": False}
            except MemoryError as exc:
                return _stage_error(f"check:{counter}", exc)
        report["oracle_check"] = checks
        for counter, outcome in checks.items():
            if outcome.get("verified") is False:
                errors.setdefault(
                    f"check:{counter}",
                    "oracle mismatch: " + ",".join(
                        outcome.get("mismatches", ["?"])))

    if errors:
        report["errors"] = errors

    try:
        text = _write_report(config.output, (
            (lambda out: _to_json(report, out)) if config.fmt == "json"
            else lambda out: _to_csv(report, config, index, out)))
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 1, ""
    except MemoryError as exc:
        return _stage_error("report", exc)
    if config.fmt == "csv":
        for key, msg in errors.items():
            print(f"error: {key}: {msg}", file=sys.stderr)

    report_nnz = space.stats.get("peak_product_nnz", 0)
    if "traces_ms" in space.stats:
        timings.append(("traces", space.stats["traces_ms"]))
    for name, ms in timings:
        print(f"[timing] {name}: {ms} ms", file=sys.stderr)
    print(f"[stats] peak product nnz: {report_nnz}", file=sys.stderr)
    return (2 if errors else 0), text


@click.command(name="nbcensus")
@click.option("--input", "input_path", required=True,
              type=click.Path(), help="Edge-list file to analyse.")
@click.option("--counts", required=True, metavar="LIST",
              help="Comma-separated counters: order3, order4, order5, k6, "
                   "cycles, generic:<pattern-file>.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True, help="Report layout.")
@click.option("--oracle-check", is_flag=True,
              help="Cross-check every requested counter against the "
                   "brute-force oracle (desk-scale graphs only).")
@click.option("--max-oracle-n", type=int, default=12, show_default=True,
              help="Largest vertex count the oracle check will attempt.")
@click.option("--output", type=click.Path(), default=None,
              help="Write the report here instead of standard output.")
def main(input_path, counts, fmt, oracle_check, max_oracle_n, output):
    """Exact rooted subgraph and cycle counts over an edge-list graph."""
    try:
        config = RunConfig(
            input_path=input_path,
            counters=tuple(c.strip() for c in counts.split(",") if c.strip()),
            fmt=fmt,
            oracle_check=oracle_check,
            max_oracle_n=max_oracle_n,
            output=output,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    status, text = run(config)
    if text:
        click.echo(text, nl=False)
    sys.exit(status)


if __name__ == "__main__":
    main()
