"""Brute-force ground truth: rooted copy counts, cycles, closed walks.

Everything here is deliberately naive pure Python over explicit loops. The
formula modules are certified against these counters, so this module must
not share any machinery with them: no sparse matrices, no formula tables,
just backtracking over injective maps.

Counting semantics for rooted patterns: a copy of a pattern F with root
tuples (r, s) at a location (i, j) is a distinct subgraph of the host whose
vertices can be matched to F by a bijection sending r onto i and s onto j
componentwise. Equivalently: injective edge-preserving maps pinned at the
roots, divided by the automorphisms of F that fix every root vertex. The
test suite cross-checks the two, counting the copies themselves in its
``reference_counts`` module.

The backtracking enumerator ``embeddings`` is the package's only one, and
every pinned pattern map the package needs comes from it:
``automorphisms`` are a pattern's embeddings into itself;
``connection.kappa_direct``, the direct route the formula engine is
certified against, tallies its maps by root location (and so builds the
order-6 evaluation's fully rooted blocks); ``connection.prop1_chain``
takes each pinned copy of its two parts from it.

The whole-vector counters ``edge_rooted_vector`` and
``vertex_rooted_vector`` do not backtrack. Once per rooted pattern of order
k they list its labelled copies on local vertices 0..k-1 (all k!
placements, divided by the automorphisms fixing the root), and once per
host and k they list every k-subset with the bitmask of the edges it
induces. A subset's rooted counts are the copies whose edges its mask
contains, summed by root image; each distinct mask is tabulated once per
call. Their cost follows the number of k-subsets, not the number of maps,
so dense desk-scale hosts stay cheap.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Iterator, Mapping, Sequence

from .graphs import DirectedEdgeIndex, Graph


@dataclass(frozen=True)
class OracleConfig:
    """Hard size guards; the oracle certifies at desk scale only."""
    max_vertices: int = 512
    max_pattern_order: int = 10

    def __post_init__(self):
        if self.max_vertices <= 0 or self.max_pattern_order <= 0:
            raise ValueError("oracle guards must be positive")


DEFAULT_CONFIG = OracleConfig()


class OracleGuardError(RuntimeError):
    """Input exceeds the configured brute-force size guard."""


def _check_guards(pattern: Graph, host: Graph, config: OracleConfig) -> None:
    if host.n > config.max_vertices:
        raise OracleGuardError(
            f"host graph has {host.n} vertices, guard is {config.max_vertices}")
    if pattern.n > config.max_pattern_order:
        raise OracleGuardError(
            f"pattern has order {pattern.n}, guard is {config.max_pattern_order}")


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _automorphisms_cached(n: int, edges: tuple) -> tuple:
    g = Graph(n, edges)
    return tuple(tuple(image) for image in embeddings(g, g))


def automorphisms(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """All automorphisms of ``graph`` as vertex-image tuples (cached).

    They are the embeddings of the graph into itself: an injective
    edge-preserving self-map of a finite graph permutes its edges, so it
    also maps non-edges to non-edges.
    """
    return _automorphisms_cached(graph.n, graph.edges)


def automorphism_count_fixing(graph: Graph, fixed: Iterable[int]) -> int:
    """Number of automorphisms fixing every listed vertex pointwise."""
    fixed = tuple(fixed)
    count = 0
    for perm in automorphisms(graph):
        if all(perm[v] == v for v in fixed):
            count += 1
    return count


# ---------------------------------------------------------------------------
# injective embedding counts
# ---------------------------------------------------------------------------

def _pin_map(r: Sequence[int], s: Sequence[int],
             i: Sequence[int], j: Sequence[int]) -> dict[int, int] | None:
    """Combine root tuples into a pattern->host pin map.

    Returns None when the location is inconsistent with the root structure
    (same pattern vertex sent to two hosts, or two pattern vertices sharing
    a host vertex), in which case the rooted count is zero by definition.
    """
    pins: dict[int, int] = {}
    for pv, hv in zip(tuple(r) + tuple(s), tuple(i) + tuple(j)):
        if pv in pins:
            if pins[pv] != hv:
                return None
        else:
            pins[pv] = hv
    targets = list(pins.values())
    if len(set(targets)) != len(targets):
        return None
    return pins


def embeddings(pattern: Graph, host: Graph,
               pins: Mapping[int, int] | None = None) -> Iterator[list[int]]:
    """Yield every injective edge-preserving map V(pattern) -> V(host) that
    extends ``pins``, as the list of host images indexed by pattern vertex.

    This is the package's one backtracking enumerator. The yielded list is
    the search's own working state: read it before asking for the next map.
    """
    pins = dict(pins or {})
    n = pattern.n
    order: list[int] = list(pins.keys())
    remaining = [v for v in range(n) if v not in pins]
    # place the most constrained vertices first: connected to placed, high degree
    while remaining:
        placed = set(order)
        remaining.sort(
            key=lambda v: (-len(pattern.neighbors(v) & placed), -pattern.degree(v), v))
        order.append(remaining.pop(0))

    image = [-1] * n
    used = set()
    for pv, hv in pins.items():
        if not (0 <= hv < host.n):
            raise ValueError(f"pinned host vertex {hv} out of range")
        image[pv] = hv
        used.add(hv)

    # pinned pattern edges must already be present
    for pv in pins:
        for pw in pattern.neighbors(pv):
            if image[pw] != -1 and not host.has_edge(image[pv], image[pw]):
                return

    free = order[len(pins):]

    def place(idx: int) -> Iterator[list[int]]:
        if idx == len(free):
            yield image
            return
        pv = free[idx]
        needed = [image[pw] for pw in pattern.neighbors(pv) if image[pw] != -1]
        if needed:
            candidates = set(host.neighbors(needed[0]))
            for hv in needed[1:]:
                candidates &= host.neighbors(hv)
            candidates -= used
            pool: Iterable[int] = sorted(candidates)
        else:
            pool = (hv for hv in range(host.n) if hv not in used)
        for hv in pool:
            image[pv] = hv
            used.add(hv)
            yield from place(idx + 1)
            used.discard(hv)
            image[pv] = -1

    yield from place(0)


def count_embeddings(pattern: Graph, host: Graph,
                     pins: Mapping[int, int] | None = None) -> int:
    """Injective maps V(pattern) -> V(host) preserving edges, extending pins."""
    return sum(1 for _ in embeddings(pattern, host, pins))


def count_rooted_copies(F, G: Graph, i: Sequence[int] = (), j: Sequence[int] = (),
                        config: OracleConfig = DEFAULT_CONFIG) -> int:
    """Distinct copies of the rooted pattern ``F`` at host location (i, j).

    ``F`` is anything with ``graph``/``r``/``s`` attributes (a RootedGraph),
    or a bare Graph, in which case both root tuples are empty.
    """
    if isinstance(F, Graph):
        pattern, r, s = F, (), ()
    else:
        pattern, r, s = F.graph, tuple(F.r), tuple(F.s)
    if len(i) != len(r) or len(j) != len(s):
        raise ValueError(
            f"location arity ({len(i)},{len(j)}) does not match roots "
            f"({len(r)},{len(s)})")
    _check_guards(pattern, G, config)
    pins = _pin_map(r, s, i, j)
    if pins is None:
        return 0
    emb = count_embeddings(pattern, G, pins)
    if emb == 0:
        return 0
    aut = automorphism_count_fixing(pattern, pins.keys())
    if emb % aut:
        raise AssertionError(
            "embedding count not divisible by root-fixing automorphisms")
    return emb // aut


def count_copies(pattern: Graph, G: Graph,
                 config: OracleConfig = DEFAULT_CONFIG) -> int:
    """Unrooted copy count of ``pattern`` in ``G``."""
    _check_guards(pattern, G, config)
    emb = count_embeddings(pattern, G)
    aut = len(automorphisms(pattern))
    if emb % aut:
        raise AssertionError("embedding count not divisible by automorphisms")
    return emb // aut


# ---------------------------------------------------------------------------
# whole-vector rooted counts (table-accelerated, still brute force)
# ---------------------------------------------------------------------------
#
# The three kinds of work the module docstring describes, and where each
# is kept:
#   - labelled copies, once per rooted pattern: a bounded cache keyed by
#     (order, edges, root);
#   - the mask list, once per host and k: a bounded cache keyed by
#     (n, edges, k), so every pattern of one order shares one subset scan.
#     It keeps only the masks, as 64-bit words in combinations order (room
#     for the 55 pairs of order 11); the subsets are generated again
#     alongside them;
#   - mask tables, once per call and distinct mask: a mask with fewer edges
#     than the pattern gets an empty table without a scan.
# Local vertices are 0..k-1; bit b of a bitmask is the b-th local pair in
# combinations(range(k), 2) order.

@lru_cache(maxsize=1024)
def _labelled_copies(k: int, edges: tuple, root: tuple) -> tuple:
    """(edge bitmask, root image, copies) for each labelled copy of the
    pattern (k, edges) rooted at ``root`` on local vertices 0..k-1."""
    bit = {}
    for b, (p, q) in enumerate(combinations(range(k), 2)):
        bit[(p, q)] = bit[(q, p)] = 1 << b
    counts: Counter = Counter()
    for perm in permutations(range(k)):
        bits = 0
        for u, v in edges:
            bits |= bit[(perm[u], perm[v])]
        counts[(bits, tuple(perm[r] for r in root))] += 1
    aut = automorphism_count_fixing(Graph(k, edges), root)
    out = []
    for (bits, image), c in sorted(counts.items()):
        if c % aut:
            raise AssertionError("rooted table count not divisible by aut")
        out.append((bits, image, c // aut))
    return tuple(out)


@lru_cache(maxsize=8)
def _subset_masks(n: int, edges: tuple, k: int) -> array:
    """The induced edge bitmask of every k-subset of the host, in
    ``combinations(range(n), k)`` order (8 bytes per subset)."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    pairs = list(enumerate(combinations(range(k), 2)))
    masks = array("Q")
    for subset in combinations(range(n), k):
        mask = 0
        for b, (p, q) in pairs:
            if adj[subset[p]] >> subset[q] & 1:
                mask |= 1 << b
        masks.append(mask)
    return masks


def _located_tables(pattern: Graph, root: tuple, G: Graph):
    """Yield (subset, ((root image, copies), ...)) for every k-subset of
    ``G`` that holds a copy of the rooted pattern."""
    k = pattern.n
    copies = _labelled_copies(k, pattern.edges, root)
    size = pattern.m
    tables: dict[int, tuple] = {}
    for subset, mask in zip(combinations(range(G.n), k),
                            _subset_masks(G.n, G.edges, k)):
        table = tables.get(mask)
        if table is None:
            counts: Counter = Counter()
            if mask.bit_count() >= size:
                for bits, image, c in copies:
                    if not bits & ~mask:
                        counts[image] += c
            table = tables[mask] = tuple(counts.items())
        if table:
            yield subset, table


def edge_rooted_vector(pattern: Graph, root: tuple[int, int], G: Graph,
                       index: DirectedEdgeIndex | None = None,
                       config: OracleConfig = DEFAULT_CONFIG) -> list[int]:
    """Rooted copies of ``pattern`` per directed host edge.

    ``root`` is a directed pattern edge (a, b); entry e of the result counts
    copies whose root lands on directed edge e (tail -> a, head -> b).
    """
    _check_guards(pattern, G, config)
    if not pattern.has_edge(*root):
        raise ValueError("edge root must be an edge of the pattern")
    if index is None:
        index = DirectedEdgeIndex(G)
    out = [0] * index.size
    if pattern.n > G.n:
        return out
    id_of = index.id_of
    for subset, table in _located_tables(pattern, tuple(root), G):
        for (la, lb), c in table:
            out[id_of[(subset[la], subset[lb])]] += c
    return out


def vertex_rooted_vector(pattern: Graph, root: int, G: Graph,
                         config: OracleConfig = DEFAULT_CONFIG) -> list[int]:
    """Rooted copies of ``pattern`` per host vertex."""
    _check_guards(pattern, G, config)
    if not 0 <= root < pattern.n:
        raise ValueError("vertex root must be a vertex of the pattern")
    out = [0] * G.n
    if pattern.n > G.n:
        return out
    for subset, table in _located_tables(pattern, (root,), G):
        for (lv,), c in table:
            out[subset[lv]] += c
    return out


# ---------------------------------------------------------------------------
# simple cycles
# ---------------------------------------------------------------------------

def simple_cycle_census(G: Graph, kmax: int = 9,
                        config: OracleConfig = DEFAULT_CONFIG) -> dict[int, int]:
    """Count simple k-cycles for all 3 <= k <= kmax.

    Each cycle is counted once (not per orientation or starting point):
    the DFS only starts at a cycle's smallest vertex and only closes in
    one direction.
    """
    if G.n > config.max_vertices:
        raise OracleGuardError(
            f"cycle census guard exceeded: n={G.n} > {config.max_vertices}")
    n = G.n
    adj = [0] * n
    for u, v in G.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    counts = {k: 0 for k in range(3, kmax + 1)}
    path = [0] * (kmax + 1)

    def bits(x: int):
        while x:
            b = x & -x
            yield b.bit_length() - 1
            x ^= b

    for s in range(n):
        allowed = ~((1 << (s + 1)) - 1)  # vertices strictly above s
        sbit = 1 << s

        def dfs(v: int, depth: int, visited: int) -> None:
            nbrs = adj[v]
            if depth >= 3 and (nbrs & sbit) and path[1] < v:
                counts[depth] += 1
            if depth == kmax:
                return
            for w in bits(nbrs & allowed & ~visited):
                path[depth] = w
                dfs(w, depth + 1, visited | (1 << w))

        path[0] = s
        dfs(s, 1, sbit)
    return counts


# ---------------------------------------------------------------------------
# closed non-backtracking walks
# ---------------------------------------------------------------------------

def closed_nb_walks_by_edge_set(G: Graph, k: int, max_walks: int = 2_000_000
                                ) -> Counter:
    """Closed non-backtracking k-walks grouped by traversed edge set.

    A walk is a vertex sequence v0, ..., vk with vk = v0, consecutive
    vertices adjacent, and no immediate reversal anywhere, including across
    the wrap-around (v1 != v_{k-1} and the usual v_{t+1} != v_{t-1}).
    Walks are counted rooted (per starting directed edge), so the total
    equals the trace of the k-th power of the non-backtracking matrix.
    Keys are frozensets of undirected edges.
    """
    out: Counter = Counter()
    n = G.n
    adj = {v: sorted(G.neighbors(v)) for v in range(n)}
    walk = [0] * (k + 1)
    budget = [max_walks]

    def step(t: int) -> None:
        v_prev, v = walk[t - 1], walk[t]
        if t == k - 1:
            # final step must return to the start without backtracking
            v0, v1 = walk[0], walk[1]
            if v0 in adj[v] and v0 != v_prev and v != v1:
                walk[k] = v0
                budget[0] -= 1
                if budget[0] < 0:
                    raise OracleGuardError("closed-walk enumeration budget exceeded")
                eset = frozenset(
                    (min(walk[a], walk[a + 1]), max(walk[a], walk[a + 1]))
                    for a in range(k))
                out[eset] += 1
            return
        for w in adj[v]:
            if w != v_prev:
                walk[t + 1] = w
                step(t + 1)

    for v0 in range(n):
        for v1 in adj[v0]:
            walk[0], walk[1] = v0, v1
            step(1)
    return out


def walk_shape_classes(k: int) -> list[dict]:
    """All shapes a closed non-backtracking k-walk can trace, abstractly.

    Enumerates walks with vertices labelled in order of first visit (so each
    labelled shape appears exactly once per walk-on-shape up to relabelling)
    and groups them by traversed graph. For each class the returned dict has
    'order', 'edges', and 'walks': the number of closed nb k-walks in that
    graph that traverse every edge, which is the multiplicity with which the
    class contributes to the trace of the k-th power.
    """
    classes: dict[tuple, dict] = {}
    walk = [0] * (k + 1)
    walk[1] = 1

    def record() -> None:
        edges = frozenset(
            (min(walk[a], walk[a + 1]), max(walk[a], walk[a + 1]))
            for a in range(k))
        order = max(max(e) for e in edges) + 1
        key = canonical_form(order, edges)
        entry = classes.get(key)
        if entry is None:
            classes[key] = {"order": order, "edges": sorted(edges), "canonical": 1}
        else:
            entry["canonical"] += 1

    def step(t: int, top: int) -> None:
        v_prev, v = walk[t - 1], walk[t]
        if t == k - 1:
            # close: next vertex is 0; nb at both junctions
            if v_prev != 0 and v != 0 and walk[1] != v:
                walk[k] = 0
                record()
            return
        for w in range(top + 2):
            if w == v or w == v_prev:
                continue
            walk[t + 1] = w
            step(t + 1, max(top, w))

    step(1, 1)
    out = []
    for key, entry in sorted(classes.items()):
        g = Graph(entry["order"], entry["edges"])
        aut = len(automorphisms(g))
        out.append({
            "order": entry["order"],
            "edges": entry["edges"],
            "walks": entry["canonical"] * aut,
        })
    return out


# ---------------------------------------------------------------------------
# canonical forms for small graphs
# ---------------------------------------------------------------------------

@lru_cache(maxsize=65536)
def _canonical_cached(n: int, edges: tuple) -> tuple:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    # Minimise the per-position row encoding over all vertex orders, where a
    # set bit means NON-adjacency to an earlier vertex. Preferring edges to
    # early positions keeps the search tightly pruned on sparse graphs.
    best: list[int] | None = None
    perm = [-1] * n
    used = [False] * n

    def search(pos: int, partial: list[int]) -> None:
        nonlocal best
        if pos == n:
            if best is None or partial < best:
                best = list(partial)
            return
        for v in range(n):
            if used[v]:
                continue
            row = 0
            for b in range(pos):
                if not (adj[v] >> perm[b]) & 1:
                    row |= 1 << (pos - b - 1)
            partial.append(row)
            if best is None or partial <= best[: pos + 1]:
                perm[pos] = v
                used[v] = True
                search(pos + 1, partial)
                used[v] = False
                perm[pos] = -1
            partial.pop()

    search(0, [])
    assert best is not None
    return (n, tuple(best))


def canonical_form(n: int, edges: Iterable[tuple[int, int]]) -> tuple:
    """A label-independent key: two graphs get the same key iff isomorphic.

    Brute-force minimisation of the column-wise upper-triangle encoding with
    prefix pruning; fine for the pattern orders used here (n <= 9).
    """
    norm = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
    return _canonical_cached(n, norm)
