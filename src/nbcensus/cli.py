"""Command-line front end: load a graph, run counters, emit a report.

The report is deterministic: identical input and options produce byte
identical output, so runs can be diffed. JSON values are integers,
strings and booleans only; stage timings go to the error stream instead
of the report. CSV lays out one row per location (directed edge or
vertex) with one column per counter id and a trailing ``__total__`` row;
a refused counter gets no column, and each error the JSON report would
list goes to the error stream as ``error: <key>: <message>``.

Counters: ``order3``, ``order4``, ``order5`` (catalog formulas, edge and
vertex rootings), ``k6`` (edge-rooted 6-cliques), ``cycles`` (C3..C9),
and ``generic:<pattern-file>`` (the constructive engine on an arbitrary
rooted pattern). A pattern file is an ordinary edge list plus header
lines ``r: ...`` and ``s: ...`` naming the root vertices.

Exit status: 0 on success, 1 on input problems, 2 on any integrity
failure (inexact division, overflow guard, oracle mismatch).
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass

import click
import numpy as np

from . import catalog
from .connection import (RootedGraph, ScaleGuardError, build_formula,
                         eval_formula, kappa_direct)
from .cycle_census import full_census
from .edge_matrix import EdgeSpace, IntegrityError
from .graphs import DirectedEdgeIndex, Graph, GraphError, load_graph
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
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            stripped = raw.split("#", 1)[0].strip()
            took = False
            for side in ("r", "s"):
                if stripped == side + ":" or stripped.startswith(side + ": "):
                    if roots[side] is not None:
                        raise GraphError(f"duplicate {side}: header")
                    roots[side] = stripped[2:].split()
                    took = True
            if not took:
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

def _vector_block(ids, values, labels) -> dict:
    out = {}
    for mid in ids:
        vec = values[mid]
        out[mid] = {
            "per_location": {labels[k]: int(vec[k]) for k in range(len(vec))},
            "total": int(vec.sum()),
        }
    return out


def _order_section(space: EdgeSpace, index: DirectedEdgeIndex,
                   order: int, errors: dict) -> dict:
    edge_entries, vertex_entries = catalog.entries_for_order(order)
    collected: dict[str, str] = {}
    values = evaluate_catalog(space, {**edge_entries, **vertex_entries},
                              collect_errors=collected)
    for mid, msg in collected.items():
        errors[f"order{order}/{mid}"] = msg
    edge_labels = [index.label(e) for e in range(index.size)]
    g = space.graph
    return {
        "edge": _vector_block([m for m in edge_entries if m in values],
                              values, edge_labels),
        "vertex": _vector_block([m for m in vertex_entries if m in values],
                                values, list(g.labels)),
    }


def _tuple_label(t: tuple[int, ...], labels) -> str:
    return ",".join(labels[v] for v in t)


def _generic_section(space: EdgeSpace, counter: str, errors: dict) -> dict:
    path = counter.split(":", 1)[1]
    pattern = load_pattern(path)
    expr = build_formula(pattern)
    km = eval_formula(expr, space.graph)
    labels = space.graph.labels
    n = space.graph.n
    entries = {}
    rows, cols = km.data.shape
    for ri in range(rows):
        row = km.data[ri]
        if not row.any():
            continue
        i = _decode(ri, n, km.row_arity)
        for ci in range(cols):
            v = int(row[ci])
            if v:
                j = _decode(ci, n, km.col_arity)
                key = f"{_tuple_label(i, labels)}->{_tuple_label(j, labels)}"
                entries[key] = v
    return {
        "pattern_order": pattern.graph.n,
        "pattern_edges": pattern.graph.m,
        "row_arity": km.row_arity,
        "col_arity": km.col_arity,
        "entries": entries,
        "total": int(km.data.sum()),
    }


def _decode(idx: int, n: int, arity: int) -> tuple[int, ...]:
    out = []
    for a in range(arity):
        out.append(idx // n ** (arity - 1 - a) % n)
    return tuple(out)


# ---------------------------------------------------------------------------
# oracle cross-checks
# ---------------------------------------------------------------------------

def _oracle_check(space, counter, section, errors, max_n) -> dict:
    """The oracle's verdict on the counts the report holds (a generic
    counter is recomputed); a refused count raises its refusal again."""
    g = space.graph
    if g.n > max_n:
        return {"status": f"skipped: n={g.n} exceeds max-oracle-n={max_n}"}
    if counter.startswith("generic:"):
        return _check_generic(space, counter)
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
    return list(block["per_location"].values())


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
    from itertools import combinations
    k6 = Graph(6, list(combinations(range(6), 2)))
    want = edge_rooted_vector(k6, (0, 1), index.graph, index)
    return _verdict([] if _values(section) == want else ["K6"], 1)


def _check_generic(space, counter) -> dict:
    g = space.graph
    pattern = load_pattern(counter.split(":", 1)[1])
    try:
        got = eval_formula(build_formula(pattern), g)
        want = kappa_direct(pattern, g)
    except ScaleGuardError as exc:
        return {"status": f"skipped: {exc}"}
    return _verdict([] if got.equal(want) else [counter], 1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _to_csv(report: dict, config: RunConfig, index: DirectedEdgeIndex) -> str:
    g = index.graph
    edge_rows = [index.label(e) for e in range(index.size)]
    vertex_rows = list(g.labels)
    columns: list[tuple[str, dict | None, dict | None, int]] = []
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

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["location"] + [c[0] for c in columns])
    for label in edge_rows:
        writer.writerow([label] + [("" if by_edge is None
                                    else by_edge.get(label, 0))
                                   for _, by_edge, _, _ in columns])
    for label in vertex_rows:
        writer.writerow([label] + [("" if by_vertex is None
                                    else by_vertex.get(label, 0))
                                   for _, _, by_vertex, _ in columns])
    writer.writerow(["__total__"] + [c[3] for c in columns])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# the run itself
# ---------------------------------------------------------------------------

def _stage(timings: list, name: str, fn):
    start = time.perf_counter()
    out = fn()
    timings.append((name, int((time.perf_counter() - start) * 1000)))
    return out


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one configured run; returns (exit status, serialized report)."""
    timings: list[tuple[str, int]] = []
    try:
        g = _stage(timings, "parse", lambda: load_graph(config.input_path))
    except (OSError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, ""

    errors: dict[str, str] = {}
    space = _stage(timings, "edge-space", lambda: EdgeSpace(g))
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
                section = _vector_block(
                    ["k6"], {"k6": result.values},
                    [index.label(e) for e in range(index.size)])["k6"]
            elif counter == "cycles":
                section = _stage(timings, counter, lambda: dict(
                    full_census(space).cycle_counts))
            else:
                section = _stage(timings, counter, lambda c=counter: (
                    _generic_section(space, c, errors)))
        except (OSError, GraphError) as exc:
            print(f"error: {counter}: {exc}", file=sys.stderr)
            return 1, ""
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
                        config.max_oracle_n))
            except OracleGuardError as exc:
                checks[counter] = {"status": f"skipped: {exc}"}
            except IntegrityError as exc:
                errors[f"check:{counter}"] = str(exc)
                checks[counter] = {"verified": False}
        report["oracle_check"] = checks
        for counter, outcome in checks.items():
            if outcome.get("verified") is False:
                errors.setdefault(
                    f"check:{counter}",
                    "oracle mismatch: " + ",".join(
                        outcome.get("mismatches", ["?"])))

    if errors:
        report["errors"] = errors

    if config.fmt == "json":
        text = _to_json(report)
    else:
        text = _to_csv(report, config, index)
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
        if config.output:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            click.echo(text, nl=False)
    sys.exit(status)


if __name__ == "__main__":
    main()
