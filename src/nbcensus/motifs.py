"""Rooted subgraph counting formulas over the non-backtracking matrix.

The catalog (see catalog.py) is declarative: each motif id maps either to
an expression tree over directed-edge matrix primitives, to the row
reversal of a sibling id, or to a stated fraction of the gamma aggregation
of its edge-rooted counterpart. ``evaluate_catalog`` compiles each entry
of a block to one expression (``compiled``) and runs the block through
``edge_matrix.Evaluator.run`` on the EdgeSpace host. This module also
holds the general order-6 edge-rooted construction, which composes three
fully rooted order-4 blocks, each a dense connection matrix from
``connection.kappa_direct`` and so bounded by its cell budget (hosts of at
most 31 vertices), and the 6-clique shortcut.

The trees are written in the expression language of
``edge_matrix.Evaluator``, whose atoms (B, its powers and the step
matrices) are edge_matrix's ATOMS table; every node that computes new
values goes through edge_matrix's int64 guards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connection import RootedGraph, kappa_direct, tuple_index
from .edge_matrix import (EdgeSpace, Evaluator, IntegrityError,
                          checked_hadamard, checked_matmul, checked_total,
                          exact_div)
from .graphs import Graph
from .oracle import automorphism_count_fixing


@dataclass
class MotifResult:
    values: np.ndarray
    total: int = field(init=False)

    def __post_init__(self):
        self.total = int(self.values.sum())


def compiled(entries: dict, mid: str) -> tuple:
    """The one expression that computes entry ``mid``: its tree, the row
    reversal of its sibling's, or num/den times the sum of its edge-rooted
    sibling's over each vertex's outgoing edges."""
    entry = entries[mid]
    kind = entry["kind"]
    if kind == "expr":
        return entry["expr"]
    of = compiled(entries, entry["of"])
    if kind == "rowrev_of":
        return ("rowrev", of)
    if kind == "gamma_of":  # rowrev(H)[e, v] = 1 iff e starts at v
        return ("scale", ("mm", ("T", ("rowrev", "H")), of), entry["num"],
                entry["den"])
    raise ValueError(f"bad catalog entry kind {kind!r}")


def evaluate_catalog(space: EdgeSpace, entries: dict,
                     collect_errors: dict | None = None) -> dict[str, np.ndarray]:
    """Evaluate a block of catalog entries, resolving cross-references.

    Each entry is compiled to one expression and the block goes through one
    ``Evaluator.run``, so an entry and its partners share their subtrees and
    each node is dropped after its last reader. With ``collect_errors``
    given, an entry whose evaluation raises an IntegrityError is skipped and
    the error recorded under its id instead of aborting the whole block.
    """
    values: dict[str, np.ndarray] = {}
    results = Evaluator(space).run(compiled(entries, mid) for mid in entries)
    for mid, val in zip(entries, results):
        if isinstance(val, IntegrityError):
            if collect_errors is None:
                raise val
            collect_errors[mid] = str(val)
        else:
            values[mid] = np.asarray(val).ravel()
    return values


# ---------------------------------------------------------------------------
# order 6: one composition formula for every edge-rooted pattern
# ---------------------------------------------------------------------------

def eval_order6_edge(space: EdgeSpace, F) -> MotifResult:
    """Edge-rooted count of any order-6 pattern via three order-4 blocks.

    The four non-root vertices are split into two pairs; the patterns
    induced on (roots+pair1), (pair1+pair2), (roots+pair2), rooted (first
    pair; second pair), are fully rooted. Their ``kappa_direct`` matrices
    are n^2 x n^2 over ordered vertex pairs, zero where a vertex repeats;
    composing them and summing rows reconstructs each placement of F once
    per automorphism fixing the root edge, which is divided out. Each
    block is dense under ``kappa_direct``'s cell budget: a host above 31
    vertices raises ScaleGuardError before anything is enumerated.
    """
    pattern: Graph = F.graph
    root = tuple(F.r)
    if pattern.n != 6:
        raise ValueError("pattern must have order 6")
    if len(root) != 2 or not pattern.has_edge(*root):
        raise ValueError("root must be a directed edge of the pattern")
    if getattr(F, "s", ()) not in ((), None):
        raise ValueError("order-6 evaluation is edge-rooted only")
    G, index = space.graph, space.index
    a1, a2 = root
    b1, b2, c1, c2 = sorted(set(range(6)) - {a1, a2})

    def block(keep: tuple[int, ...]) -> np.ndarray:
        pos = {v: i for i, v in enumerate(keep)}
        induced = Graph(4, [(pos[u], pos[v]) for u, v in pattern.edges
                            if u in pos and v in pos])
        return kappa_direct(RootedGraph(induced, (0, 1), (2, 3)), G).data

    ka = block((a1, a2, b1, b2))
    kb = block((b1, b2, c1, c2))
    kc = block((a1, a2, c1, c2))
    label = "order6 composition"
    per_pair = checked_total(checked_hadamard(
        checked_matmul(ka, kb, label), kc, label), label, axis=1)
    divisor = automorphism_count_fixing(pattern, (a1, a2))
    per_pair = exact_div(per_pair, divisor, "order6 root-fixing symmetry")
    return MotifResult(per_pair[tuple_index((index.tail, index.head), G.n)])


# the edge-rooted 6-clique count (``eval_k6_edge``)
K6 = ("div", ("rowsum", ("had", ("mm", "crossed", "crossed"), "crossed")), 24)


def eval_k6_edge(space: EdgeSpace) -> MotifResult:
    """Edge-rooted 6-clique count straight from the derived step matrices.

    A 6-clique splits through any edge into three 4-cliques glued along
    three edges; the crossed-square step matrix is exactly the
    double-edge-rooted 4-clique connection matrix, and the composition
    overcounts each 6-clique 4! times per root edge.
    """
    return MotifResult(Evaluator(space).eval(K6))
