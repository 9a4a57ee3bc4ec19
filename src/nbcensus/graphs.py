"""Simple undirected graphs and their directed-edge index.

A graph here is always simple: no self-loops, no parallel edges, undirected.
Vertices are dense integers 0..n-1 internally; the labels found in an input
file are kept alongside so reports can speak the caller's language.

Every undirected edge k is split into two directed orientations with ids
2k and 2k+1, so reversal is id ^ 1. All edge-indexed matrices in this
package use that numbering, and ``DirectedEdgeIndex`` is the one place that
holds it: int64 endpoint and reversal arrays over the ids, and the
``tail->head`` labels reports print.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np


class GraphError(ValueError):
    """Raised for malformed graph input (self-loops, bad edge lines,
    tokens containing ``->``, bytes that are not UTF-8)."""


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
    2k (u -> v with u < v) and 2k+1 (v -> u). ``tail``, ``head`` and
    ``rev`` are int64 arrays over the ids. ``id_of`` maps an ordered
    vertex pair back to its id and ``labels`` prints each id as
    ``tail->head`` in the original labels; both are built on first use.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.tail = np.fromiter(chain.from_iterable(graph.edges),
                                dtype=np.int64, count=2 * graph.m)
        self.rev = np.arange(self.tail.size, dtype=np.int64) ^ 1
        self.head = self.tail[self.rev]

    @property
    def size(self) -> int:
        """Number of directed edges (2m)."""
        return self.tail.size

    @cached_property
    def id_of(self) -> dict[tuple[int, int], int]:
        return dict(zip(zip(self.tail.tolist(), self.head.tolist()),
                        range(self.size)))

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Every id as ``tail->head``. The parser refuses vertex tokens
        containing ``->``, so on a parsed graph no two ids print the same
        label."""
        names = self.graph.labels
        return tuple(f"{names[t]}->{names[h]}"
                     for t, h in zip(self.tail.tolist(), self.head.tolist()))


def path2_count(graph: Graph) -> int:
    """Number of directed 2-paths: sum over v of deg(v)(deg(v)-1).

    This equals the number of nonzeros of the non-backtracking matrix,
    which makes it a cheap structural cross-check.
    """
    return sum(d * (d - 1) for d in graph.degrees)


@contextmanager
def utf8_text(path):
    """``path`` opened as UTF-8 text, less a leading byte-order mark. A byte
    that does not decode raises GraphError naming its offset in the file."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        # the text reader decodes in chunks, so its offsets are not file
        # offsets: decode the whole file again to find the byte
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphError(
                f"{os.fspath(path)}: byte 0x{data[exc.start]:02x} at offset "
                f"{exc.start} is not UTF-8") from None
        raise


def load_graph(source) -> Graph:
    """Parse an edge-list file into a Graph.

    ``source`` may be a path, an open text file, or an iterable of lines.
    Each non-blank line holds two whitespace-separated vertex tokens;
    anything after '#' is a comment. Tokens are arbitrary strings without
    ``->`` (so every directed-edge label ``tail->head`` splits back one
    way) and are assigned dense integer ids in order of first appearance
    (the original strings are kept as labels). Duplicate edges are
    collapsed silently; self-loops, tokens containing ``->``, malformed
    lines and a file that is not UTF-8 raise GraphError.
    """
    if isinstance(source, (str, os.PathLike)):
        with utf8_text(source) as fh:
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
        if "->" in line:
            raise GraphError(f"line {lineno}: vertex token "
                             f"{a if '->' in a else b!r} contains '->'")
        edges.append((vertex_id(a), vertex_id(b)))

    return Graph(len(labels), edges, labels)
