"""Simple undirected graphs and their directed-edge index.

A graph here is always simple: no self-loops, no parallel edges, undirected.
Vertices are dense integers 0..n-1 internally; the labels found in an input
file are kept alongside so reports can speak the caller's language.

Every undirected edge k is split into two directed orientations with ids
2k and 2k+1, so reversal is id ^ 1. All edge-indexed matrices in this
package use that numbering.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Raised for malformed graph input (self-loops, bad edge lines)."""


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "labels", "_adj", "_deg")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: Sequence[str] | None = None):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        seen: set[tuple[int, int]] = set()
        ordered: list[tuple[int, int]] = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u} is not allowed")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            ordered.append(key)
        self.n = n
        self.edges = tuple(ordered)
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise GraphError("label list length must equal vertex count")
        self.labels = labels
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = tuple(frozenset(s) for s in adj)
        self._deg = tuple(len(s) for s in adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self._deg[v]

    @property
    def degrees(self) -> tuple[int, ...]:
        return self._deg

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


class DirectedEdgeIndex:
    """Both orientations of every edge, numbered so reversal is ``id ^ 1``.

    Undirected edge k (in the graph's edge order) becomes directed ids
    2k (u -> v with u < v) and 2k+1 (v -> u). ``tail``/``head`` give the
    endpoint arrays, ``id_of`` maps an ordered vertex pair back to its id.
    """

    __slots__ = ("graph", "tail", "head", "id_of", "_labels")

    def __init__(self, graph: Graph):
        self.graph = graph
        self.tail = tuple(x for u, v in graph.edges for x in (u, v))
        self.head = tuple(x for u, v in graph.edges for x in (v, u))
        self.id_of = {pair: e for e, pair in
                      enumerate(zip(self.tail, self.head))}
        self._labels: tuple[str, ...] | None = None

    @property
    def size(self) -> int:
        """Number of directed edges (2m)."""
        return 2 * self.graph.m

    @staticmethod
    def reverse(e: int) -> int:
        return e ^ 1

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.tail[e], self.head[e]

    def label(self, e: int) -> str:
        """Human-readable 'tail->head' form using the original labels."""
        return self.labels[e]

    @property
    def labels(self) -> tuple[str, ...]:
        """Every id's ``label``, built on first use and then shared."""
        if self._labels is None:
            names = self.graph.labels
            self._labels = tuple(f"{names[t]}->{names[h]}"
                                 for t, h in zip(self.tail, self.head))
        return self._labels


def path2_count(graph: Graph) -> int:
    """Number of directed 2-paths: sum over v of deg(v)(deg(v)-1).

    This equals the number of nonzeros of the non-backtracking matrix,
    which makes it a cheap structural cross-check.
    """
    return sum(d * (d - 1) for d in graph.degrees)


def load_graph(source) -> Graph:
    """Parse an edge-list file into a Graph.

    ``source`` may be a path, an open text file, or an iterable of lines.
    Each non-blank line holds two whitespace-separated vertex tokens;
    anything after '#' is a comment. Tokens are arbitrary strings and are
    assigned dense integer ids in order of first appearance (the original
    strings are kept as labels). Duplicate edges are collapsed silently;
    self-loops and malformed lines raise GraphError with the line number.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return _parse_lines(fh)
    return _parse_lines(source)


def _parse_lines(lines: Iterable[str]) -> Graph:
    ids: dict[str, int] = {}
    labels: list[str] = []
    edges: list[tuple[int, int]] = []

    def vertex_id(token: str) -> int:
        if token not in ids:
            ids[token] = len(labels)
            labels.append(token)
        return ids[token]

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphError(
                f"line {lineno}: expected two vertex tokens, got {len(tokens)}")
        a, b = tokens
        if a == b:
            raise GraphError(f"line {lineno}: self-loop on vertex {a!r}")
        edges.append((vertex_id(a), vertex_id(b)))

    return Graph(len(labels), edges, labels)
