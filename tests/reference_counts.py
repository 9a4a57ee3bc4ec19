"""Brute-force counters that only the tests use.

Each is an independent route to a number the package computes another
way: ``count_rooted_copies_dedup`` counts rooted copies by collecting
distinct (vertex set, edge set) pairs instead of dividing by automorphisms,
``count_simple_cycles`` reads one length off the cycle census, and
``closed_nb_walk_total`` sums the enumerated closed non-backtracking walks.
"""

from __future__ import annotations

from typing import Sequence

from nbcensus.graphs import Graph
from nbcensus.oracle import (DEFAULT_CONFIG, OracleConfig, _check_guards,
                             _pin_map, closed_nb_walks_by_edge_set,
                             simple_cycle_census)


def count_rooted_copies_dedup(F, G: Graph, i: Sequence[int] = (),
                              j: Sequence[int] = (),
                              config: OracleConfig = DEFAULT_CONFIG) -> int:
    """``oracle.count_rooted_copies`` by explicit subgraph-set deduplication
    (slow cross-check)."""
    if isinstance(F, Graph):
        pattern, r, s = F, (), ()
    else:
        pattern, r, s = F.graph, tuple(F.r), tuple(F.s)
    _check_guards(pattern, G, config)
    pins = _pin_map(r, s, i, j)
    if pins is None:
        return 0

    copies: set[tuple] = set()
    n = pattern.n
    image = [-1] * n
    used = set()
    for pv, hv in pins.items():
        image[pv] = hv
        used.add(hv)
    free = [v for v in range(n) if v not in pins]

    def walk(idx: int) -> None:
        if idx == len(free):
            for u, v in pattern.edges:
                if not G.has_edge(image[u], image[v]):
                    return
            vset = frozenset(image)
            eset = frozenset(
                (min(image[u], image[v]), max(image[u], image[v]))
                for u, v in pattern.edges)
            copies.add((vset, eset))
            return
        pv = free[idx]
        for hv in range(G.n):
            if hv in used:
                continue
            image[pv] = hv
            used.add(hv)
            walk(idx + 1)
            used.discard(hv)
            image[pv] = -1

    walk(0)
    return len(copies)


def count_simple_cycles(G: Graph, k: int,
                        config: OracleConfig = DEFAULT_CONFIG) -> int:
    if not 3 <= k:
        raise ValueError("cycles have length at least 3")
    return simple_cycle_census(G, kmax=k, config=config)[k]


def closed_nb_walk_total(G: Graph, k: int, max_walks: int = 2_000_000) -> int:
    """Trace of the k-th non-backtracking power, by explicit enumeration."""
    return sum(closed_nb_walks_by_edge_set(G, k, max_walks).values())
