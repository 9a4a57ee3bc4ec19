#!/usr/bin/env python3
"""One-time discovery pass: pin the F1..F35 correction entries to shapes.

The cycle formulas subtract "walks per copy times copies" for every
shape a closed non-backtracking k-walk (k <= 9) can trace. This script
enumerates those shapes abstractly, matches each correction entry to its
shape by comparing formula values with embedding-oracle copy counts over
a corpus, and audits the repaired F15 main term. The shape table, with
the walk multiplicities that cycle_census.eval_cycles subtracts, is frozen
into src/nbcensus/data/walk_classes.json.

Run from the repository root:  python3 tools/discover_walks.py
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from nbcensus import cycle_census, oracle
from nbcensus.edge_matrix import EdgeSpace, Evaluator
from nbcensus.graphs import Graph

OUT = Path(__file__).resolve().parent.parent / "src" / "nbcensus" / "data" / "walk_classes.json"


def corpus() -> list[Graph]:
    rng = random.Random(20240818)
    graphs = []
    for n, p in [(6, 0.5), (7, 0.45), (7, 0.7), (8, 0.35), (8, 0.55),
                 (9, 0.4), (9, 0.6), (10, 0.3)]:
        while True:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p]
            g = Graph(n, edges)
            if g.m >= n and min(g.degrees) >= 1:
                break
        graphs.append(g)
    # structured graphs: known cycle content breaks coincidental ties
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    wheel = Graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(6, i) for i in range(6)])
    k6 = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    graphs += [petersen, wheel, k6]
    return graphs


def decode_canonical(key: tuple) -> list[tuple[int, int]]:
    """Edges of the canonical representative (set bit = non-adjacent)."""
    n, rows = key
    edges = []
    for pos in range(n):
        for b in range(pos):
            if not (rows[pos] >> (pos - b - 1)) & 1:
                edges.append((b, pos))
    return edges


def is_cycle(g: Graph) -> bool:
    return g.m == g.n and all(d == 2 for d in g.degrees)


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python3 tools/discover_walks.py (no arguments; it "
              "rewrites src/nbcensus/data/walk_classes.json)",
              file=sys.stderr)
        return 2
    t0 = time.time()
    problems = []

    # ---- enumerate every shape a closed nb k-walk can trace, k = 3..9
    classes: dict[tuple, dict] = {}
    for k in range(3, 10):
        for entry in oracle.walk_shape_classes(k):
            key = oracle.canonical_form(entry["order"],
                                        [tuple(e) for e in entry["edges"]])
            rec = classes.setdefault(key, {"walks": {}})
            rec["walks"][k] = entry["walks"]
    print(f"distinct walk shapes for k=3..9: {len(classes)}")
    if len(classes) != 40:
        problems.append(f"expected 40 walk shapes, found {len(classes)}")

    shapes = {key: Graph(key[0], decode_canonical(key)) for key in classes}
    cycles = {key for key, g in shapes.items() if is_cycle(g)}
    print(f"cycle shapes: {sorted(shapes[key].n for key in cycles)}")
    for key in cycles:
        n = shapes[key].n
        if classes[key]["walks"].get(n) != 2 * n:
            problems.append(f"{n}-cycle walk multiplicity != {2 * n}")

    # ---- corpus values: formula outputs and oracle copy counts
    graphs = corpus()
    f_values: dict[str, list[int]] = {name: [] for name in cycle_census.F_NAMES}
    copies: dict[tuple, list[int]] = {key: [] for key in classes}
    traces: list[dict[int, int]] = []
    for g in graphs:
        space = EdgeSpace(g)
        f = cycle_census.eval_walk_corrections(space)
        for name in cycle_census.F_NAMES:
            f_values[name].append(f[name])
        for key in classes:
            copies[key].append(oracle.count_copies(shapes[key], g))
        traces.append({k: space.trace(k) for k in range(3, 10)})

    # ---- master identity: tr(B^k) = sum over shapes of walks * copies
    for gi, g in enumerate(graphs):
        for k in range(3, 10):
            lhs = traces[gi][k]
            rhs = sum(classes[key]["walks"].get(k, 0) * copies[key][gi]
                      for key in classes)
            if lhs != rhs:
                problems.append(
                    f"trace identity fails: graph {gi}, k={k}: {lhs} != {rhs}")
    print(f"trace identity checked on {len(graphs)} graphs x k=3..9")

    # ---- match each F entry to the unique shape with the same profile
    profile_to_keys: dict[tuple, list[tuple]] = {}
    for key in classes:
        profile_to_keys.setdefault(tuple(copies[key]), []).append(key)
    for prof, keys in profile_to_keys.items():
        if len(keys) > 1:
            problems.append(f"copy-count profiles collide: {keys}")

    name_of: dict[tuple, str] = {}
    for name in cycle_census.F_NAMES:
        keys = profile_to_keys.get(tuple(f_values[name]), [])
        if len(keys) != 1:
            problems.append(f"{name}: {len(keys)} candidate shapes "
                            f"(profile {f_values[name]})")
            continue
        key = keys[0]
        if key in name_of:
            problems.append(f"{name} and {name_of[key]} match the same shape")
        name_of[key] = name
        g = shapes[key]
        tag = "cycle" if key in cycles else f"n={g.n} m={g.m}"
        print(f"{name}: {tag} degs={sorted(g.degrees)}")

    for key in cycles:
        n = shapes[key].n
        if key not in name_of:
            name_of[key] = f"C{n}"
    unmatched = [key for key in classes if key not in name_of]
    for key in unmatched:
        problems.append(f"shape n={shapes[key].n} m={shapes[key].m} unmatched")

    # sanity: the triangle and square classes are the F1 / F8 entries
    for key in cycles:
        n = shapes[key].n
        expect = {3: "F1", 4: "F8"}.get(n, f"C{n}")
        if name_of.get(key) != expect:
            problems.append(f"{n}-cycle mapped to {name_of.get(key)}, "
                            f"expected {expect}")

    by_name = {name: key for key, name in name_of.items()}

    # ---- audit the repaired F15 main term against the required totals
    if "F15" in {name for name in name_of.values()}:
        key15 = by_name["F15"]
        deps = ((8, "F8"), (48, "F10"), (48, "F12"), (12, "F11"),
                (16, "F13"), (20, "F9"), (72, "F7"))
        printed_misses = 0
        for gi, g in enumerate(graphs):
            space = EdgeSpace(g)
            ev = Evaluator(space)
            d3, d4 = (ev.eval(cycle_census.DIAGONALS[k])
                      for k in (3, 4))
            required = 8 * copies[key15][gi] + sum(
                c * f_values[dep][gi] for c, dep in deps)
            repaired = int(d4 @ (space.B @ d4))
            printed = int(d3 @ (space.B @ d3))
            if repaired != required:
                problems.append(f"F15 repaired main wrong on graph {gi}: "
                                f"{repaired} != required {required}")
            if printed != required:
                printed_misses += 1
        if printed_misses == 0:
            problems.append("F15 printed main never differs from the "
                            "required totals on this corpus")
        print(f"F15 audit: repaired main matches the walk-required totals "
              f"on all graphs; printed main misses on "
              f"{printed_misses}/{len(graphs)}")

    # ---- freeze
    table = {}
    for key, name in sorted(name_of.items(), key=lambda kv: kv[1]):
        g = shapes[key]
        table[name] = {
            "order": g.n,
            "edges": [list(e) for e in g.edges],
            "walks": {str(k): w for k, w in sorted(classes[key]["walks"].items())},
        }
    if problems:
        print("\nPROBLEMS:")
        for p in problems:
            print(" -", p)
        print(f"(elapsed {time.time() - t0:.1f}s; nothing frozen)")
        return 1
    OUT.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"froze {len(table)} classes -> {OUT}")
    print(f"elapsed {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
