"""Connection matrices of rooted patterns, by enumeration and by formula.

A rooted pattern is a small graph together with two ordered vertex tuples,
the row roots and the column roots. Its connection matrix against a host
graph G is indexed by vertex tuples of G: entry (i, j) counts the distinct
subgraph copies of the pattern whose roots land exactly on (i, j).

Two independent routes to that matrix live here.

``kappa_direct`` tallies the embeddings of the pattern in the host (from
``oracle.embeddings``) by root location; one exact division by the
root-fixing automorphism count turns embeddings into copies.

``build_formula`` emits a closed-form expression for the same matrix using
nothing but the host adjacency matrix and seven algebraic node kinds of the
package's one expression language. ``eval_formula`` checks every node's size
against the cell budget, then evaluates the formula exactly on
``edge_matrix.Evaluator``, the catalog's interpreter, over a dense tuple
space: the host's adjacency matrix, and read-only selections that
``selection`` builds once per host order. ``tuple_index`` lays out tuples.
The builder works by recursion on pattern order: a minimum-degree vertex is
set aside, the edges avoiding it and the star at it are each produced by
one-order-smaller builds chained with a two-vertex pattern, the halves are
overlaid on a shared full rooting, and the requested roots are restored at
the end.

The calculus rules that the builder composes are exported on their own
(``lemma1_*`` for single-pattern rewrites, ``prop1_*`` for compositions).
Two of them need corrections that plain matrix algebra does not show:

* dropping row roots overcounts each copy once per coset of the root
  stabiliser, so the projection divides by a subgroup index computed on
  the pattern;
* chaining two patterns through shared middle roots pollutes entries
  whose row and column placements collide off the glued pattern, and
  counts each surviving copy once per way the glued pattern splits back
  into its parts. A 0/1 gate removes the former; an exact division by
  the split count, found by enumeration on the pattern alone, removes
  the latter.

Every division checks exact divisibility and raises ``IntegrityError``
otherwise. Matrix sizes are capped by a hard desk-scale cell budget; this
module exists for certification and generality, not throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product as tuple_product
from math import gcd
from types import MappingProxyType, SimpleNamespace

import numpy as np

from .edge_matrix import Evaluator, IntegrityError
from .graphs import Graph
from .oracle import _pin_map, automorphism_count_fixing, embeddings

MAX_CELLS = 1_000_000
MAX_PATTERN_ORDER = 8


class ScaleGuardError(RuntimeError):
    """A requested matrix would exceed the desk-scale cell budget."""


class CompositionError(ValueError):
    """Operands do not satisfy a composition rule's preconditions."""


def _guard_cells(n: int, p: int, q: int) -> None:
    """Refuse a tuple matrix above the budget, MAX_CELLS as read now."""
    if n ** (p + q) > MAX_CELLS:
        raise ScaleGuardError(f"tuple matrix would need {n}^{p + q} cells, "
                              f"budget is {MAX_CELLS}")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootedGraph:
    """A pattern graph with ordered row and column root tuples.

    Root tuples may repeat vertices and may overlap each other; every
    entry must be a vertex of the pattern.
    """
    graph: Graph
    r: tuple[int, ...] = ()
    s: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(self.r))
        object.__setattr__(self, "s", tuple(self.s))
        for v in self.r + self.s:
            if not 0 <= v < self.graph.n:
                raise ValueError(f"root vertex {v} is not in the pattern")

    @property
    def fully_rooted(self) -> bool:
        return set(self.r) | set(self.s) == set(range(self.graph.n))


def tuple_index(t, n: int):
    """The one tuple layout: row-major, last coordinate fastest (the order of
    ``itertools.product``), so ``t`` sits at sum of t_a * n**(len(t)-1-a)
    and the empty tuple at 0. Coordinates are ints or int64 arrays."""
    idx = 0
    for v in t:
        idx = idx * n + v
    return idx


def tuple_coords(idx, n: int, arity: int) -> np.ndarray:
    """Inverse of ``tuple_index`` over an array of linear indices: row a of
    the (arity, len(idx)) result holds coordinate a of every tuple."""
    out = np.empty((arity, np.size(idx)), dtype=np.int64)
    for a in reversed(range(arity)):
        idx, out[a] = np.divmod(idx, n)
    return out


@dataclass(frozen=True, eq=False)
class TupleMatrix:
    """Integer matrix indexed by vertex tuples of a fixed host order.

    Rows range over [0, n)^row_arity and columns over [0, n)^col_arity,
    each laid out by ``tuple_index``.
    """
    n: int
    row_arity: int
    col_arity: int
    data: np.ndarray

    def entry(self, i: tuple[int, ...] = (), j: tuple[int, ...] = ()) -> int:
        if len(i) != self.row_arity or len(j) != self.col_arity:
            raise ValueError("tuple arity mismatch")
        return int(self.data[tuple_index(i, self.n), tuple_index(j, self.n)])

    def equal(self, other: "TupleMatrix") -> bool:
        return (self.n == other.n
                and self.row_arity == other.row_arity
                and self.col_arity == other.col_arity
                and bool(np.array_equal(self.data, other.data)))


# ---------------------------------------------------------------------------
# direct enumeration
# ---------------------------------------------------------------------------

def kappa_direct(F: RootedGraph, G: Graph) -> TupleMatrix:
    """Connection matrix of ``F`` against ``G`` by embedding enumeration.

    Embeddings are tallied at the linearized images of the root tuples,
    then the whole table is divided by the number of pattern automorphisms
    fixing every root vertex; that group is the same at every location, so
    copies come out exact everywhere or an ``IntegrityError`` is raised.
    """
    p, q = len(F.r), len(F.s)
    _guard_cells(G.n, p, q)
    if F.graph.n > MAX_PATTERN_ORDER:
        raise ScaleGuardError(
            f"pattern order {F.graph.n} exceeds limit {MAX_PATTERN_ORDER}")
    tally = np.zeros((G.n ** p, G.n ** q), dtype=np.int64)
    for image in embeddings(F.graph, G):
        tally[tuple_index([image[v] for v in F.r], G.n),
              tuple_index([image[v] for v in F.s], G.n)] += 1
    aut = automorphism_count_fixing(F.graph, set(F.r) | set(F.s))
    if (tally % aut).any():
        raise IntegrityError(
            "embedding tallies not divisible by the root-fixing "
            "automorphism count")
    tally //= aut
    return TupleMatrix(G.n, p, q, tally)


# ---------------------------------------------------------------------------
# formula expressions
# ---------------------------------------------------------------------------
#
# A formula is a nested tuple in the expression language of
# edge_matrix.Evaluator, restricted to seven node kinds:
#
#   ("adj",)                 host adjacency matrix, arity (1, 1)
#   ("sel", p, q, eq, ne)    0/1 constraint matrix, arity (p, q); eq and ne
#                            are sorted tuples of (a, b) position pairs
#                            demanding i_a == j_b resp. i_a != j_b; one
#                            shared matrix per host order (``selection``)
#   ("T", e)                 transpose
#   ("vec", e)               row-major column stacking, arity (p+q, 0)
#   ("mm", e1, e2)           matrix product over the shared inner arity;
#                            over inner arity 0 it is the outer product
#   ("had", e1, e2)          entrywise product of equal-arity operands
#   ("scale", e, num, den)   exact rational rescale; den must divide
#
# Tuples are hashable, so shared subterms deduplicate in the evaluator.

@lru_cache(maxsize=256)
def _arities(expr: tuple) -> MappingProxyType:
    """Row and column arity of every distinct node of a formula, validating
    shapes as it goes. Keys are in the order a depth-first walk first meets
    the nodes, each parent before its children.

    The arities depend on the formula alone, so each is walked once and the
    read-only result shared by every host it is evaluated on."""
    out: dict[tuple, tuple[int, int]] = {}

    def arity(e: tuple) -> tuple[int, int]:
        got = out.get(e)
        if got is not None:
            return got
        out[e] = None  # holds the node's place ahead of its children
        head = e[0]
        if head == "adj":
            got = (1, 1)
        elif head == "sel":
            _, p, q, eq, ne = e
            for a, b in eq + ne:
                if not (0 <= a < p and 0 <= b < q):
                    raise ValueError(f"selection pair ({a},{b}) out of range")
            got = (p, q)
        elif head in ("T", "vec"):
            p, q = arity(e[1])
            got = (q, p) if head == "T" else (p + q, 0)
        elif head == "scale":
            got = arity(e[1])
        elif head == "mm":
            p, k1 = arity(e[1])
            k2, q = arity(e[2])
            if k1 != k2:
                raise CompositionError(f"inner arities differ: {k1} vs {k2}")
            got = (p, q)
        elif head == "had":
            got = arity(e[1])
            a2 = arity(e[2])
            if got != a2:
                raise CompositionError(
                    f"entrywise arities differ: {got} vs {a2}")
        else:
            raise ValueError(f"unknown formula node kind {head!r}")
        out[e] = got
        return got

    arity(expr)
    return MappingProxyType(out)


def formula_arity(expr: tuple) -> tuple[int, int]:
    """Row and column arity of a formula node; validates shapes as it goes."""
    return _arities(expr)[expr]


def _sel(p: int, q: int, eq=(), ne=()) -> tuple:
    return ("sel", p, q, tuple(sorted(eq)), tuple(sorted(ne)))


def _scale(expr: tuple, num: int, den: int) -> tuple:
    if den == 0:
        raise ValueError("zero denominator")
    if den < 0:
        num, den = -num, -den
    g = gcd(abs(num), den)
    num, den = num // g, den // g
    if (num, den) == (1, 1):
        return expr
    if expr[0] == "scale":
        return _scale(expr[1], num * expr[2], den * expr[3])
    return ("scale", expr, num, den)


# A selection depends on the host's order alone, so all hosts of one order
# share it; the cache is emptied when a new one would take it past this.
SELECTION_CACHE_CELLS = 4 * MAX_CELLS
_selections: dict[tuple, np.ndarray] = {}


def selection(n: int, p: int, q: int, eq=(), ne=()) -> np.ndarray:
    """The ``("sel", p, q, eq, ne)`` leaf over hosts of order n: a shared,
    read-only 0/1 int64 matrix whose entry (i, j) is 1 iff i_a == j_b for
    every (a, b) in eq and i_a != j_b for every (a, b) in ne."""
    key = (n, p, q, eq, ne)
    out = _selections.get(key)
    if out is None:
        rows, cols = (tuple_coords(np.arange(n ** k), n, k) for k in (p, q))
        mask = np.ones((n ** p, n ** q), dtype=bool)
        for a, b in eq:
            mask &= rows[a][:, None] == cols[b]
        for a, b in ne:
            mask &= rows[a][:, None] != cols[b]
        out = mask.astype(np.int64)
        out.flags.writeable = False
        held = sum(m.size for m in _selections.values())
        if held + out.size > SELECTION_CACHE_CELLS:
            _selections.clear()
        _selections[key] = out
    return out


def eval_formula(expr: tuple, G: Graph) -> TupleMatrix:
    """Evaluate a formula on a host graph with exact integer arithmetic.

    Every node's size is checked against ``MAX_CELLS`` before anything is
    evaluated; ``edge_matrix.Evaluator`` then evaluates the formula over the
    host's tuple space.
    """
    arities = _arities(expr)
    for p, q in arities.values():
        _guard_cells(G.n, p, q)
    p, q = arities[expr]
    adj = np.zeros((G.n, G.n), dtype=np.int64)
    for u, v in G.edges:
        adj[u, v] = adj[v, u] = 1
    host = SimpleNamespace(adj=adj, sel=partial(selection, G.n), stats=None)
    return TupleMatrix(G.n, p, q, Evaluator(host).eval(expr))


# ---------------------------------------------------------------------------
# single-pattern rewrites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootedFormula:
    """A rooted pattern paired with a formula for its connection matrix."""
    pattern: RootedGraph
    expr: tuple


def lemma1_transpose(rf: RootedFormula) -> RootedFormula:
    """Swap row and column roots; the matrix transposes."""
    pat = rf.pattern
    return RootedFormula(RootedGraph(pat.graph, pat.s, pat.r), ("T", rf.expr))


def lemma1_vectorize(rf: RootedFormula) -> RootedFormula:
    """Move all roots to the row side; the matrix stacks into a column."""
    pat = rf.pattern
    return RootedFormula(RootedGraph(pat.graph, pat.r + pat.s, ()),
                         ("vec", rf.expr))


def lemma1_project(rf: RootedFormula, keep: tuple[int, ...]) -> RootedFormula:
    """Drop row roots down to the positions listed in ``keep``.

    Rows are summed over the dropped coordinates by a selection matrix.
    Each copy of the smaller-rooted pattern is hit once per placement of
    the dropped roots, and those placements form a coset family of the
    full root stabiliser inside the kept one, so the sum is divided by
    that subgroup index (computed on the pattern, exactly).
    """
    pat = rf.pattern
    p = len(pat.r)
    keep = tuple(keep)
    for k in keep:
        if not 0 <= k < p:
            raise ValueError(f"kept position {k} out of range")
    new_r = tuple(pat.r[k] for k in keep)
    sel = _sel(len(keep), p, eq=[(a, k) for a, k in enumerate(keep)])
    expr = ("mm", sel, rf.expr)
    wide = automorphism_count_fixing(pat.graph, set(new_r) | set(pat.s))
    tight = automorphism_count_fixing(pat.graph, set(pat.r) | set(pat.s))
    if wide % tight:
        raise IntegrityError("root stabilisers do not nest")
    index = wide // tight
    return RootedFormula(RootedGraph(pat.graph, new_r, pat.s),
                         _scale(expr, 1, index))


def lemma1_inflate(rf: RootedFormula, dup: tuple[int, ...]) -> RootedFormula:
    """Echo chosen row-root coordinates into a fresh column index.

    Only valid when the column side is empty. The column vector spreads
    across all column tuples (its outer product with the all-ones row
    ``sel(0, q)``) and a 0/1 gate keeps the columns that repeat the
    selected row coordinates; no correction factor is needed because the
    new column roots are already pinned by the rows.
    """
    pat = rf.pattern
    if pat.s:
        raise CompositionError("inflation requires an empty column side")
    p = len(pat.r)
    dup = tuple(dup)
    for k in dup:
        if not 0 <= k < p:
            raise ValueError(f"duplicated position {k} out of range")
    q = len(dup)
    new_s = tuple(pat.r[k] for k in dup)
    spread = ("mm", rf.expr, _sel(0, q))
    gate = _sel(p, q, eq=[(k, b) for b, k in enumerate(dup)])
    return RootedFormula(RootedGraph(pat.graph, pat.r, new_s),
                         ("had", gate, spread))


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------

def prop1_restrict(rf: RootedFormula, new_r: tuple[int, ...],
                   new_s: tuple[int, ...]) -> RootedFormula:
    """Re-root a pattern on any tuples drawn from its current root set.

    Route: vectorize, echo the new column roots out of the flat row tuple,
    then project the rows down to the new row roots.
    """
    pat = rf.pattern
    new_r, new_s = tuple(new_r), tuple(new_s)
    covered = set(pat.r) | set(pat.s)
    missing = (set(new_r) | set(new_s)) - covered
    if missing:
        raise CompositionError(
            f"new roots {sorted(missing)} are not covered by current roots")
    if (pat.r, pat.s) == (new_r, new_s):
        return rf
    flat = lemma1_vectorize(rf)
    rs = flat.pattern.r
    inflated = lemma1_inflate(flat, tuple(rs.index(v) for v in new_s))
    return lemma1_project(inflated, tuple(rs.index(v) for v in new_r))


def prop1_union_same_roots(rf1: RootedFormula,
                           rf2: RootedFormula) -> RootedFormula:
    """Overlay two fully rooted patterns sharing vertex set and roots.

    With every vertex pinned by a root, each entry is a 0/1 indicator of
    one pinned copy, so the overlay is the entrywise product exactly.
    """
    p1, p2 = rf1.pattern, rf2.pattern
    if p1.graph.n != p2.graph.n:
        raise CompositionError("patterns must share a vertex set")
    if p1.r != p2.r or p1.s != p2.s:
        raise CompositionError("patterns must share both root tuples")
    if not p1.fully_rooted:
        raise CompositionError("overlay requires fully rooted operands")
    union = Graph(p1.graph.n, p1.graph.edges + p2.graph.edges)
    return RootedFormula(RootedGraph(union, p1.r, p1.s),
                         ("had", rf1.expr, rf2.expr))


def prop1_chain(rf1: RootedFormula, rf2: RootedFormula) -> RootedFormula:
    """Glue two fully rooted patterns along shared middle roots.

    The first operand's column roots are identified positionally with the
    second's row roots; the second pattern's remaining vertices get fresh
    labels. The matrix product sums over middle placements, which is almost
    the glued pattern's connection matrix. Two corrections make it exact:
    a selection gate zeroes entries whose outer row and column placements
    collide (or fail to coincide) off the glued pattern's own structure,
    and the result is divided by the number of ways the glued pattern
    splits back into its two parts, found by enumerating middle placements
    on the pattern itself and taking each part's pinned copy from
    ``oracle.embeddings``. That split count always equals the number of
    pattern automorphisms fixing the outer roots, which is asserted.
    """
    p1, p2 = rf1.pattern, rf2.pattern
    mid1, mid2 = p1.s, p2.r
    if len(mid1) != len(mid2):
        raise CompositionError("middle root tuples differ in arity")
    if not p1.fully_rooted or not p2.fully_rooted:
        raise CompositionError("chaining requires fully rooted operands")

    relab: dict[int, int] = {}
    for v2, v1 in zip(mid2, mid1):
        if relab.setdefault(v2, v1) != v1:
            raise CompositionError("middle gluing is inconsistent")
    glued = set(relab.values())
    if len(glued) != len(relab):
        raise CompositionError("middle gluing merges second-pattern vertices")
    nxt = p1.graph.n
    for v in range(p2.graph.n):
        if v not in relab:
            relab[v] = nxt
            nxt += 1

    union = Graph(nxt, p1.graph.edges
                  + tuple((relab[u], relab[v]) for u, v in p2.graph.edges))
    outer_r = p1.r
    outer_t = tuple(relab[v] for v in p2.s)
    glued_pat = RootedGraph(union, outer_r, outer_t)

    expr = ("mm", rf1.expr, rf2.expr)
    eq, ne = [], []
    for a, u in enumerate(outer_r):
        for b, v in enumerate(outer_t):
            (eq if u == v else ne).append((a, b))
    if eq or ne:
        expr = ("had", _sel(len(outer_r), len(outer_t), eq, ne), expr)

    def copy_edges(pattern: Graph, pins) -> set | None:
        """Edge set of the pinned copy of a fully rooted part, or None."""
        image = None if pins is None else next(
            embeddings(pattern, union, pins), None)
        return None if image is None else {
            (min(image[u], image[v]), max(image[u], image[v]))
            for u, v in pattern.edges}

    whole, c = set(union.edges), 0
    for w in tuple_product(range(union.n), repeat=len(mid1)):
        left = copy_edges(p1.graph, _pin_map(p1.r, mid1, outer_r, w))
        if left is None:
            continue
        right = copy_edges(p2.graph, _pin_map(mid2, p2.s, w, outer_t))
        if right is not None and left | right == whole:
            c += 1
    aut = automorphism_count_fixing(union, set(outer_r) | set(outer_t))
    if c != aut:
        raise IntegrityError(
            f"chain split count {c} disagrees with the automorphism "
            f"count {aut} fixing the outer roots")
    return RootedFormula(glued_pat, _scale(expr, 1, c))


# ---------------------------------------------------------------------------
# recursive builder
# ---------------------------------------------------------------------------

def _relabel(rf: RootedFormula, mapping: dict[int, int]) -> RootedFormula:
    """Rename pattern vertices; the formula itself is label-free."""
    g = rf.pattern.graph
    relabeled = Graph(g.n, tuple((mapping[u], mapping[v]) for u, v in g.edges))
    return RootedFormula(
        RootedGraph(relabeled,
                    tuple(mapping[v] for v in rf.pattern.r),
                    tuple(mapping[v] for v in rf.pattern.s)),
        rf.expr)


def _pair_bundle(g2: Graph) -> RootedFormula:
    """Formula for a two-vertex pattern rooted (first, second)."""
    expr = ("adj",) if g2.m == 1 else _sel(1, 1, ne=[(0, 0)])
    return RootedFormula(RootedGraph(g2, (0,), (1,)), expr)


def _build_full(g: Graph) -> RootedFormula:
    """A fully rooted bundle for ``g``; root layout is the builder's choice."""
    n = g.n
    if n == 1:
        return RootedFormula(RootedGraph(g, (0,), (0,)),
                             _sel(1, 1, eq=[(0, 0)]))
    if n == 2:
        return _pair_bundle(g)

    t = min(range(n), key=lambda v: (g.degree(v), v))
    others = [v for v in range(n) if v != t]
    rows, cols = tuple(others), (t,)

    # edges avoiding t: build the pattern without t, then chain a loose
    # non-edge pair to re-attach t as a bare rooted vertex
    drop_t = {v: i for i, v in enumerate(others)}
    rest = Graph(n - 1, [(drop_t[u], drop_t[v]) for u, v in g.edges
                         if t not in (u, v)])
    side = _build_rooted(RootedGraph(rest, tuple(range(n - 1)), (0,)))
    chained = prop1_chain(side, _pair_bundle(Graph(2, [])))
    back = {drop_t[v]: v for v in others}
    back[n - 1] = t
    part = _relabel(chained, back)

    star_edges = [(u, v) for u, v in g.edges if t in (u, v)]
    if not star_edges:
        return part

    # the star at t: set aside one other vertex, build the reduced star,
    # then chain the missing pair back through t
    s2 = others[0]
    keep = [v for v in range(n) if v != s2]
    drop_s = {v: i for i, v in enumerate(keep)}
    reduced = Graph(n - 1, [(drop_s[u], drop_s[v]) for u, v in star_edges
                            if s2 not in (u, v)])
    core = _build_rooted(RootedGraph(reduced, tuple(range(n - 1)),
                                     (drop_s[t],)))
    tail = Graph(2, [(0, 1)] if g.has_edge(t, s2) else [])
    chained = prop1_chain(core, _pair_bundle(tail))
    back = {drop_s[v]: v for v in keep}
    back[n - 1] = s2
    star = prop1_restrict(_relabel(chained, back), rows, cols)

    return prop1_union_same_roots(part, star)


def _build_rooted(F: RootedGraph) -> RootedFormula:
    if F.graph.n > MAX_PATTERN_ORDER:
        raise ScaleGuardError(
            f"pattern order {F.graph.n} exceeds limit {MAX_PATTERN_ORDER}")
    return prop1_restrict(_build_full(F.graph), F.r, F.s)


def build_formula(F: RootedGraph) -> tuple:
    """Emit a formula whose evaluation is the connection matrix of ``F``.

    The output uses only the seven node kinds understood by
    ``eval_formula``; correctness is certified against ``kappa_direct``
    in the test suite rather than assumed.
    """
    return _build_rooted(F).expr
