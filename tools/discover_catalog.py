#!/usr/bin/env python3
"""One-time discovery pass: pin every catalog id to a concrete rooted shape.

The catalog formulas identify their motifs only through the counts they
produce. This script evaluates every entry over a corpus of small random
graphs, computes embedding-oracle vectors for every candidate rooted
pattern (all connected graphs of the right order, one representative per
root orbit), and records the unique candidate matching each id. The
result is frozen into src/nbcensus/data/motif_patterns.json.

Run from the repository root:  python3 tools/discover_catalog.py
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nbcensus import catalog, oracle
from nbcensus.edge_matrix import EdgeSpace
from nbcensus.graphs import Graph
from nbcensus.motifs import evaluate_catalog


def corpus() -> list[Graph]:
    rng = random.Random(20240817)
    graphs = []
    for n, p in [(6, 0.5), (7, 0.45), (7, 0.8), (8, 0.35), (8, 0.6), (9, 0.85)]:
        while True:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p]
            g = Graph(n, edges)
            if g.m >= 4 and min(g.degrees) >= 1:
                break
        graphs.append(g)
    return graphs


def connected_classes(k: int) -> list[Graph]:
    """One representative per isomorphism class of connected order-k graphs."""
    seen = {}
    pairs = list(itertools.combinations(range(k), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        if len(edges) < k - 1:
            continue
        g = Graph(k, edges)
        # connectivity
        seen_v = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in g.neighbors(v):
                if w not in seen_v:
                    seen_v.add(w)
                    frontier.append(w)
        if len(seen_v) != k:
            continue
        key = oracle.canonical_form(k, edges)
        if key not in seen:
            seen[key] = g
    return list(seen.values())


def edge_root_orbits(g: Graph) -> list[tuple[int, int]]:
    auts = oracle.automorphisms(g)
    seen, reps = set(), []
    for u, v in g.edges:
        for root in ((u, v), (v, u)):
            if root in seen:
                continue
            orbit = {(a[root[0]], a[root[1]]) for a in auts}
            seen |= orbit
            reps.append(root)
    return reps


def vertex_root_orbits(g: Graph) -> list[int]:
    auts = oracle.automorphisms(g)
    seen, reps = set(), []
    for v in range(g.n):
        if v in seen:
            continue
        orbit = {a[v] for a in auts}
        seen |= orbit
        reps.append(v)
    return reps


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python3 tools/discover_catalog.py (no arguments; it "
              "rewrites src/nbcensus/data/motif_patterns.json)",
              file=sys.stderr)
        return 2
    graphs = corpus()
    spaces = [EdgeSpace(g) for g in graphs]

    # formula values for every id on every graph
    formula_vals: dict[str, list[tuple[int, ...]]] = {}
    eval_errors: dict[str, str] = {}
    for order in (3, 4, 5):
        e, v = catalog.entries_for_order(order)
        merged = {**e, **v}
        for space in spaces:
            errs: dict = {}
            vals = evaluate_catalog(space, merged, collect_errors=errs)
            for mid, msg in errs.items():
                eval_errors[mid] = msg
            for mid, vec in vals.items():
                formula_vals.setdefault(mid, []).append(tuple(int(x) for x in vec))
    for mid, msg in sorted(eval_errors.items()):
        print(f"EVAL ERROR {mid}: {msg}")
        formula_vals.pop(mid, None)

    assignments: dict[str, dict] = {}
    problems: list[str] = []

    for order in (3, 4, 5):
        t0 = time.time()
        classes = connected_classes(order)
        edge_cands = [(g, r) for g in classes for r in edge_root_orbits(g)]
        vert_cands = [(g, r) for g in classes for r in vertex_root_orbits(g)]
        print(f"order {order}: {len(classes)} classes, "
              f"{len(edge_cands)} edge orbits, {len(vert_cands)} vertex orbits")

        class RG:
            def __init__(self, g, r):
                self.graph, self.r, self.s = g, r, ()

        edge_sigs = {}
        for g, root in edge_cands:
            sig = tuple(
                tuple(oracle.edge_rooted_vector(g, root, host, sp.index))
                for host, sp in zip(graphs, spaces))
            edge_sigs[(id(g), root)] = (g, root, sig)
        vert_sigs = {}
        for g, root in vert_cands:
            sig = tuple(tuple(oracle.vertex_rooted_vector(g, root, host))
                        for host in graphs)
            vert_sigs[(id(g), root)] = (g, root, sig)
        print(f"  oracle vectors in {time.time()-t0:.1f}s")

        e_entries, v_entries = catalog.entries_for_order(order)
        matched_orbits = set()
        for mid in e_entries:
            if mid not in formula_vals or len(formula_vals[mid]) != len(graphs):
                problems.append(f"{mid}: evaluation failed")
                continue
            sig = tuple(formula_vals[mid])
            hits = [(g, r) for g, r, s in edge_sigs.values() if s == sig]
            if len(hits) == 1:
                g, r = hits[0]
                assignments[mid] = {"order": order, "edges": sorted(g.edges),
                                    "root": list(r)}
                matched_orbits.add((oracle.canonical_form(order, g.edges), r))
            else:
                problems.append(f"{mid}: {len(hits)} candidate matches")
        for mid in v_entries:
            if mid not in formula_vals or len(formula_vals[mid]) != len(graphs):
                problems.append(f"{mid}: evaluation failed")
                continue
            sig = tuple(formula_vals[mid])
            hits = [(g, r) for g, r, s in vert_sigs.values() if s == sig]
            if len(hits) == 1:
                g, r = hits[0]
                assignments[mid] = {"order": order, "edges": sorted(g.edges),
                                    "root": [r]}
            else:
                problems.append(f"{mid}: {len(hits)} candidate matches")

        uncovered = [(g.edges, r) for g, r, s in edge_sigs.values()
                     if (oracle.canonical_form(order, g.edges), r) not in matched_orbits]
        if uncovered:
            print(f"  edge orbits not matched by any id: {len(uncovered)}")
            for edges, r in uncovered:
                print(f"    edges={sorted(edges)} root={r}")

    if problems:
        print("\nUNMATCHED IDS:")
        for p in problems:
            print(" ", p)

    out_path = Path(__file__).resolve().parent.parent / "src" / "nbcensus" / "data" / "motif_patterns.json"
    out_path.write_text(json.dumps(assignments, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {len(assignments)} assignments -> {out_path}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
