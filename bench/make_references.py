"""Regenerate bench/references.json: stored totals for every pool graph.

Usage (from the repository root):

    PYTHONPATH=src python3 bench/make_references.py [kind ...]

For each kind of large graph and each of the ``workloads.POOL`` graphs this
records the edge-list hash and the values the run-time check compares:
C3..C9 for census_sparse, every counter total for motifs_json and hub_csv.
The values come from the package at the commit that made the file
("pinned"). Where a route independent of the formulas is affordable at
n=2000, the pinned value is first checked against the brute-force oracle
and listed under ``oracle_checked``:

- census_sparse: C3..C6 by ``oracle.simple_cycle_census`` (kmax=6);
- motifs_json: every order-3 and order-4 total by oracle embedding counts;
- hub_csv: every order-3 total by oracle embedding counts (order-4
  embeddings around degree-300 hubs are too many to enumerate).

A rooted total summed over all locations equals the pattern's embeddings
divided by the automorphisms fixing its root, which is what
``_oracle_total`` computes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads
from nbcensus import catalog
from nbcensus.cycle_census import full_census
from nbcensus.edge_matrix import EdgeSpace
from nbcensus.graphs import load_graph
from nbcensus.motifs import eval_k6_edge, evaluate_catalog
from nbcensus.oracle import (OracleConfig, automorphism_count_fixing,
                             count_embeddings, simple_cycle_census)

BENCH = Path(__file__).resolve().parent


def _oracle_total(mid: str, g) -> int:
    shape, root = catalog.pattern_for(mid)
    emb = count_embeddings(shape, g)
    aut = automorphism_count_fixing(shape, root)
    if emb % aut:
        raise AssertionError(f"{mid}: embeddings not divisible by {aut}")
    return emb // aut


def _motif_totals(space, orders, k6: bool) -> dict[str, int]:
    out = {}
    for order in orders:
        edge, vertex = catalog.entries_for_order(order)
        values = evaluate_catalog(space, {**edge, **vertex})
        for mid, vec in values.items():
            out[f"order{order}/{mid}"] = int(vec.sum())
    if k6:
        out["k6"] = int(eval_k6_edge(space).total)
    return out


def reference(name: str, idx: int, tmp: Path) -> dict:
    fp = workloads.write_edges(tmp / "graph.txt",
                               workloads.large_graph(name, idx))
    g = load_graph(tmp / "graph.txt")
    space = EdgeSpace(g)
    entry = {"sha256": fp["sha256"], "n": g.n, "m": g.m}
    if name == "census_sparse":
        cycles = full_census(space).cycle_counts
        want = simple_cycle_census(g, kmax=6,
                                   config=OracleConfig(max_vertices=g.n))
        for k in (3, 4, 5, 6):
            if cycles[f"C{k}"] != want[k]:
                raise AssertionError(f"{name}[{idx}] C{k} disagrees with oracle")
        entry["cycles"] = dict(cycles)
        entry["oracle_checked"] = ["C3", "C4", "C5", "C6"]
        return entry
    hub = name == "hub_csv"
    totals = _motif_totals(space, (3, 4, 5), k6=hub)
    checked = [k for k in totals
               if k.startswith("order3/") or (not hub and k.startswith("order4/"))]
    for key in checked:
        if totals[key] != _oracle_total(key.split("/", 1)[1], g):
            raise AssertionError(f"{name}[{idx}] {key} disagrees with oracle")
    entry["totals"] = totals
    entry["oracle_checked"] = checked
    return entry


def main(argv: list[str]) -> int:
    """Regenerate the named graph kinds (default: all), keeping the others."""
    path = BENCH / "references.json"
    out = json.loads(path.read_text()) if path.is_file() else {}
    out["about"] = __doc__.strip().splitlines()[0]
    names = argv or list(workloads.LARGE)
    with tempfile.TemporaryDirectory(dir=BENCH.parent / ".bench_build") as tmp:
        for name in names:
            out[name] = {}
            for idx in range(workloads.POOL):
                out[name][str(idx)] = reference(name, idx, Path(tmp))
                print(f"{name}[{idx}] done", file=sys.stderr, flush=True)
    path.write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
