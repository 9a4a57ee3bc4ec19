"""Rooted subgraph counting formulas over the non-backtracking matrix.

The catalog (see catalog.py) is declarative: each motif id maps either to
an expression tree over directed-edge matrix primitives, to the row
reversal of a sibling id, or to a stated fraction of the gamma aggregation
of its edge-rooted counterpart. This module interprets those trees
(``evaluate_catalog`` evaluates a block of entries) and holds the general
order-6 edge-rooted construction and the 6-clique shortcut.

The trees are written in the expression language of
``edge_matrix.Evaluator``, whose atoms (B, its powers, the step matrices
and the diagonals) are edge_matrix's ATOMS table; every node that
computes new values goes through edge_matrix's int64 guards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .edge_matrix import (EdgeSpace, Evaluator, IntegrityError,
                          checked_hadamard, checked_matmul, checked_scale,
                          checked_total, exact_div, last_uses)
from .graphs import Graph
from .oracle import automorphism_count_fixing


@dataclass(frozen=True)
class MotifId:
    order: int
    tag: str
    rooting: str  # "edge" | "vertex"

    def __post_init__(self):
        if self.rooting not in ("edge", "vertex"):
            raise ValueError("rooting must be 'edge' or 'vertex'")


@dataclass
class MotifResult:
    motif: MotifId
    values: np.ndarray
    total: int = field(init=False)

    def __post_init__(self):
        self.total = int(self.values.sum())


def evaluate_catalog(space: EdgeSpace, entries: dict,
                     collect_errors: dict | None = None) -> dict[str, np.ndarray]:
    """Evaluate a block of catalog entries, resolving cross-references.

    With ``collect_errors`` given, an entry whose evaluation raises an
    IntegrityError is skipped and the error recorded under its id instead
    of aborting the whole block. The evaluator's memo shares subexpressions
    between entries and forgets each after the last entry that reads it (an
    entry is evaluated at its own position or, when a sibling refers to it,
    earlier).
    """
    done = last_uses([entry.get("expr") for entry in entries.values()])
    ev = Evaluator(space)
    values: dict[str, np.ndarray] = {}

    def value_of(mid: str) -> np.ndarray:
        if mid in values:
            return values[mid]
        entry = entries[mid]
        kind = entry["kind"]
        if kind == "expr":
            out = ev.eval(entry["expr"])
        elif kind == "rowrev_of":
            out = space.revvec(value_of(entry["of"]))
        elif kind == "gamma_of":
            agg = space.gamma(value_of(entry["of"]))
            frac = Fraction(entry["num"], entry["den"])
            scaled = checked_scale(agg, frac.numerator, f"gamma:{mid}")
            out = exact_div(scaled, frac.denominator, f"gamma:{mid}")
        else:
            raise ValueError(f"bad catalog entry kind {kind!r}")
        out = np.asarray(out).ravel()
        values[mid] = out
        return out

    for mid, forget in zip(entries, done):
        try:
            value_of(mid)
        except IntegrityError as exc:
            if collect_errors is None:
                raise
            collect_errors[mid] = str(exc)
        ev.forget(forget)
    return values


# ---------------------------------------------------------------------------
# order 6: one composition formula for every edge-rooted pattern
# ---------------------------------------------------------------------------

def _ordered_pair_index(n: int):
    pairs = [(p, q) for p in range(n) for q in range(n) if p != q]
    idx = {pq: i for i, pq in enumerate(pairs)}
    return pairs, idx


def pair_connection_matrix(G: Graph, pattern: Graph,
                           r: tuple[int, int], s: tuple[int, int]) -> np.ndarray:
    """Dense connection matrix of a fully double-pair-rooted order-4 pattern.

    Rows and columns are indexed by ordered pairs of distinct host
    vertices; with all four pattern vertices rooted the count at each
    location is 0 or 1 (the copy, if present, is pinned completely).
    """
    if pattern.n != 4:
        raise ValueError("pair connection matrices are for order-4 patterns")
    n = G.n
    pairs, _ = _ordered_pair_index(n)
    P = len(pairs)
    arr = np.array(pairs, dtype=np.int64)
    x, y = arr[:, 0], arr[:, 1]
    adj = np.zeros((n, n), dtype=bool)
    for u, v in G.edges:
        adj[u, v] = adj[v, u] = True

    out = np.ones((P, P), dtype=np.int64)
    # all four host vertices distinct
    for rowv in (x, y):
        for colv in (x, y):
            out *= (rowv[:, None] != colv[None, :])
    slot = {r[0]: ("row", 0), r[1]: ("row", 1), s[0]: ("col", 0), s[1]: ("col", 1)}
    rowvecs, colvecs = (x, y), (x, y)
    for u, v in pattern.edges:
        su, sv = slot[u], slot[v]
        if su[0] == "row" and sv[0] == "row":
            out *= adj[rowvecs[su[1]], rowvecs[sv[1]]][:, None]
        elif su[0] == "col" and sv[0] == "col":
            out *= adj[colvecs[su[1]], colvecs[sv[1]]][None, :]
        else:
            a = rowvecs[su[1]] if su[0] == "row" else rowvecs[sv[1]]
            b = colvecs[sv[1]] if sv[0] == "col" else colvecs[su[1]]
            out *= adj[a[:, None], b[None, :]]
    return out


def eval_order6_edge(space: EdgeSpace, F) -> MotifResult:
    """Edge-rooted count of any order-6 pattern via three order-4 slices.

    The four non-root vertices are split into two pairs; the three
    patterns induced on (roots+pair1), (pair1+pair2), (roots+pair2) are
    fully rooted, so composing their pair-indexed connection matrices and
    summing reconstructs each placement of F once per automorphism fixing
    the root edge. Dividing by that automorphism count gives the copy
    count. Intended for desk-scale graphs; the host pair space is dense.
    """
    pattern: Graph = F.graph
    root = tuple(F.r)
    if pattern.n != 6:
        raise ValueError("pattern must have order 6")
    if len(root) != 2 or not pattern.has_edge(*root):
        raise ValueError("root must be a directed edge of the pattern")
    if getattr(F, "s", ()) not in ((), None):
        raise ValueError("order-6 evaluation is edge-rooted only")
    G = space.graph
    a1, a2 = root
    rest = sorted(set(range(6)) - {a1, a2})
    b1, b2, c1, c2 = rest

    def induced(keep: tuple[int, ...]) -> Graph:
        pos = {v: i for i, v in enumerate(keep)}
        edges = [(pos[u], pos[v]) for u, v in pattern.edges
                 if u in pos and v in pos]
        return Graph(len(keep), edges)

    Fa = induced((a1, a2, b1, b2))
    Fb = induced((b1, b2, c1, c2))
    Fc = induced((a1, a2, c1, c2))
    ka = pair_connection_matrix(G, Fa, (0, 1), (2, 3))
    kb = pair_connection_matrix(G, Fb, (0, 1), (2, 3))
    kc = pair_connection_matrix(G, Fc, (0, 1), (2, 3))
    label = "order6 composition"
    per_pair = checked_total(checked_hadamard(
        checked_matmul(ka, kb, label), kc, label), label, axis=1)
    divisor = automorphism_count_fixing(pattern, (a1, a2))
    per_pair = exact_div(per_pair, divisor, "order6 root-fixing symmetry")

    pairs, idx = _ordered_pair_index(G.n)
    out = np.zeros(space.size, dtype=np.int64)
    for e in range(space.size):
        u, v = space.index.endpoints(e)
        out[e] = per_pair[idx[(u, v)]]
    return MotifResult(MotifId(6, "order6", "edge"), out)


def eval_k6_edge(space: EdgeSpace) -> MotifResult:
    """Edge-rooted 6-clique count straight from the derived step matrices.

    A 6-clique splits through any edge into three 4-cliques glued along
    three edges; the crossed-square step matrix is exactly the
    double-edge-rooted 4-clique connection matrix, and the composition
    overcounts each 6-clique 4! times per root edge.
    """
    vec = Evaluator(space).eval(
        ("div", ("rowsum", ("had", ("mm", "crossed", "crossed"), "crossed")),
         24))
    return MotifResult(MotifId(6, "K6", "edge"), vec)
