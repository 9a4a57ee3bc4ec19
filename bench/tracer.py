"""Run one nbcensus CLI invocation with spans around each layer's entry points.

Usage: python3 bench/tracer.py SPANS.jsonl -- <nbcensus CLI arguments>

The spans are recorded from here, by wrapping the functions the program
calls across module boundaries; the program itself is not modified. Each
span has a name, attributes, its parent span, its duration and its self
time (duration minus the time its child spans cover). Counters sit on the
same boundaries: guard refusals (IntegrityError raised), connection scale
refusals, failed catalog entries, oracle verdicts. Everything is kept in
memory and written as JSON lines when the invocation ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

import scipy.sparse as sp

from nbcensus import cli, connection, cycle_census, edge_matrix, graphs, oracle


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.stats: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        row = {"id": len(self.spans),
               "parent": self.stack[-1] if self.stack else None,
               "name": name, "start": time.perf_counter(), **attrs}
        self.spans.append(row)
        self.stack.append(row["id"])
        try:
            yield row
        except BaseException as exc:
            row["error"] = type(exc).__name__
            raise
        finally:
            row["dur"] = time.perf_counter() - row["start"]
            self.stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None):
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name) as row:
                out = orig(*args, **kwargs)
                if after is not None:
                    after(row, args, kwargs, out)
                return out
        setattr(owner, attr, wrapper)

    def count_raised(self, exc_type, key: str):
        base_init = exc_type.__init__

        def init(exc, *args, **kwargs):
            self.counts[key] += 1
            base_init(exc, *args, **kwargs)
        exc_type.__init__ = init

    def rows(self) -> list[dict]:
        child = Counter()
        for row in self.spans:
            if row["parent"] is not None:
                child[row["parent"]] += row["dur"]
        for row in self.spans:
            row["self"] = row["dur"] - child[row["id"]]
        return self.spans


def _nnz(val) -> int:
    return int(val.nnz) if sp.issparse(val) else int(getattr(val, "size", 0))


def install(rec: Recorder) -> None:
    es = edge_matrix.EdgeSpace

    orig_init = es.__init__

    def space_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        rec.stats.append(self.stats)
    es.__init__ = space_init

    orig_get = es._get

    def get(self, key, build):
        if key in self._cache:
            return orig_get(self, key, build)
        label = key if isinstance(key, str) else f"{key[0]}{key[1]}"
        with rec.span("edge_matrix.build", key=label) as row:
            val = orig_get(self, key, build)
            row["nnz"] = _nnz(val)
        return val
    es._get = get

    orig_trace = es.trace

    def trace(self, k, *args, **kwargs):
        with rec.span("edge_matrix.trace", k=k):
            return orig_trace(self, k, *args, **kwargs)
    es.trace = trace

    def nnz_after(row, args, kwargs, out):
        row["nnz"] = _nnz(out)
    rec.wrap(edge_matrix, "nonbacktracking_matrix", "edge_matrix.B", nnz_after)
    rec.wrap(graphs.DirectedEdgeIndex, "__init__", "graphs.index")
    rec.wrap(cli, "load_graph", "graphs.load_graph")

    rec.wrap(cycle_census, "eval_walk_corrections", "cycle_census.corrections")
    rec.wrap(cycle_census, "eval_cycles", "cycle_census.cycles")

    def catalog_after(row, args, kwargs, out):
        rec.counts["motifs.entries"] += len(args[1])
        rec.counts["motifs.entries_failed"] += len(
            kwargs.get("collect_errors") or {})
    rec.wrap(cli, "evaluate_catalog", "motifs.catalog", catalog_after)
    rec.wrap(cli, "eval_k6_edge", "motifs.k6")

    rec.wrap(cli, "build_formula", "connection.build_formula")
    rec.wrap(cli, "eval_formula", "connection.eval_formula")
    rec.wrap(cli, "kappa_direct", "connection.kappa_direct")

    rec.wrap(cli, "edge_rooted_vector", "oracle.edge_rooted")
    rec.wrap(cli, "vertex_rooted_vector", "oracle.vertex_rooted")
    rec.wrap(cli, "simple_cycle_census", "oracle.cycle_census")

    def verdict_after(row, args, kwargs, out):
        if "verified" in out:
            rec.counts["oracle.checks"] += 1
            if not out["verified"]:
                rec.counts["oracle.mismatches"] += len(
                    out.get("mismatches", ["?"]))
    for name in ("_check_order", "_check_cycles", "_check_k6",
                 "_check_generic"):
        rec.wrap(cli, name, "oracle.check", verdict_after)

    orig_stage = cli._stage

    def stage(timings, name, fn):
        with rec.span("cli.stage", stage=name):
            return orig_stage(timings, name, fn)
    cli._stage = stage

    def run_after(row, args, kwargs, out):
        rec.counts["cli.report_bytes"] += len(out[1].encode("utf-8"))
    rec.wrap(cli, "run", "cli.run", run_after)
    rec.wrap(cli, "_to_json", "cli.serialize")
    rec.wrap(cli, "_to_csv", "cli.serialize")

    rec.count_raised(edge_matrix.IntegrityError, "edge_matrix.guard_refusals")
    rec.count_raised(connection.ScaleGuardError, "connection.scale_refusals")
    rec.count_raised(oracle.OracleGuardError, "oracle.guard_refusals")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.jsonl -- <nbcensus arguments>",
              file=sys.stderr)
        return 2
    rec = Recorder()
    install(rec)
    try:
        cli.main.main(args=argv[2:], prog_name="nbcensus",
                      standalone_mode=False)
        status = 0
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    with open(argv[0], "w", encoding="utf-8") as fh:
        for row in rec.rows():
            fh.write(json.dumps({"kind": "span", **row}) + "\n")
        peak = max((s.get("peak_product_nnz", 0) for s in rec.stats),
                   default=0)
        counts = {**rec.counts, "edge_matrix.peak_product_nnz": peak}
        fh.write(json.dumps({"kind": "counts", **counts}) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
