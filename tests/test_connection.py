"""Rooted connection matrices: direct enumeration, formula evaluation,
and the composition rules that build formulas for arbitrary patterns.

The direct enumerator is the semantic anchor; every composition rule is
tested by comparing its output formula against a fresh enumeration of
the pattern it claims to represent.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import complete_graph, cycle_graph, er_graph
from nbcensus import connection
from nbcensus.connection import (MAX_PATTERN_ORDER, CompositionError,
                                 RootedFormula, RootedGraph, ScaleGuardError,
                                 TupleMatrix, build_formula, eval_formula,
                                 formula_arity, kappa_direct, lemma1_project,
                                 lemma1_transpose, lemma1_vectorize,
                                 prop1_chain, prop1_restrict,
                                 prop1_union_same_roots, selection)
from nbcensus.edge_matrix import EdgeSpace, Evaluator, IntegrityError
from nbcensus.graphs import Graph
from reference_counts import count_rooted_copies_dedup

P2 = Graph(2, [(0, 1)])
P3 = Graph(3, [(0, 1), (1, 2)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
TRIANGLE = complete_graph(3)
DIAMOND = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])


def rooted_formula(graph, r, s=()):
    F = RootedGraph(graph, r, s)
    return RootedFormula(F, build_formula(F))


def test_rooted_graph_validates_vertices():
    with pytest.raises(ValueError):
        RootedGraph(TRIANGLE, (3,), ())
    assert RootedGraph(TRIANGLE, (0, 0), (0,)).fully_rooted is False
    assert RootedGraph(TRIANGLE, (0, 1), (2,)).fully_rooted is True


def test_tuple_matrix_linearization():
    data = np.arange(27, dtype=np.int64).reshape(9, 3)
    M = TupleMatrix(3, 2, 1, data)
    assert M.entry((1, 2), (0,)) == 15
    assert M.entry((0, 0), (2,)) == 2
    with pytest.raises(ValueError):
        M.entry((1,), (0,))


def test_kappa_of_rooted_edge_is_adjacency():
    g = er_graph(6, 0.5, 71)
    M = kappa_direct(RootedGraph(P2, (0,), (1,)), g)
    adj = np.zeros((6, 6), dtype=np.int64)
    for u, v in g.edges:
        adj[u, v] = adj[v, u] = 1
    assert np.array_equal(M.data, adj)


def test_kappa_of_path_pairs_is_nonbacktracking_step(k4):
    M = kappa_direct(RootedGraph(P3, (0, 1), (1, 2)), k4)
    space = EdgeSpace(k4)
    B = space.B.toarray()
    for e in range(space.size):
        for f in range(space.size):
            i = (space.index.tail[e], space.index.head[e])
            j = (space.index.tail[f], space.index.head[f])
            assert M.entry(i, j) == B[e, f]


def test_kappa_triangle_fixtures(k4):
    full = kappa_direct(RootedGraph(TRIANGLE, (0,), (1, 2)), k4)
    assert int(full.data.sum()) == 24
    assert set(np.unique(full.data)) == {0, 1}
    per_vertex = kappa_direct(RootedGraph(TRIANGLE, (0,), ()), k4)
    assert list(per_vertex.data.ravel()) == [3, 3, 3, 3]


def test_kappa_guards(monkeypatch):
    with pytest.raises(ScaleGuardError):
        kappa_direct(RootedGraph(cycle_graph(MAX_PATTERN_ORDER + 1),
                                 (0,), ()), complete_graph(4))
    monkeypatch.setattr(connection, "MAX_CELLS", 20)
    with pytest.raises(ScaleGuardError):
        kappa_direct(RootedGraph(TRIANGLE, (0, 1), (2,)), complete_graph(5))


@pytest.mark.parametrize("F", [
    RootedGraph(P3, (0, 0), (1,)),
    RootedGraph(TRIANGLE, (0, 1), (1, 2)),
    RootedGraph(cycle_graph(4), (2,), (0, 2)),
    RootedGraph(DIAMOND, (1, 3), (3,)),
])
def test_kappa_matches_subgraph_set_count_everywhere(F):
    """The enumeration route against the oracle's subgraph-set route, which
    shares no enumerator with it, at every location."""
    g = er_graph(5, 0.6, 302)
    M = kappa_direct(F, g)
    for i in product(range(g.n), repeat=len(F.r)):
        for j in product(range(g.n), repeat=len(F.s)):
            assert M.entry(i, j) == count_rooted_copies_dedup(F, g, i, j), (i, j)


def test_eval_formula_atoms():
    g = cycle_graph(5)
    adj = eval_formula(("adj",), g)
    assert adj.row_arity == adj.col_arity == 1
    assert int(adj.data.sum()) == 2 * g.m
    off = eval_formula(("sel", 1, 1, (), ((0, 0),)), g)
    assert np.array_equal(off.data, 1 - np.eye(5, dtype=np.int64))


@st.composite
def selection_keys(draw):
    """(n, p, q, eq, ne) with n <= 4, p + q <= 4 and random position pairs."""
    n = draw(st.integers(0, 4))
    p = draw(st.integers(0, 4))
    q = draw(st.integers(0, 4 - p))
    pairs = st.sampled_from([(a, b) for a in range(p) for b in range(q)])
    eq, ne = (tuple(sorted(draw(st.lists(pairs, unique=True))))
              if p and q else () for _ in range(2))
    return n, p, q, eq, ne


@settings(max_examples=200, deadline=None)
@given(key=selection_keys())
def test_selection_matches_the_per_cell_reference(key):
    n, p, q, eq, ne = key
    want = [[int(all(i[a] == j[b] for a, b in eq)
                 and all(i[a] != j[b] for a, b in ne))
             for j in product(range(n), repeat=q)]
            for i in product(range(n), repeat=p)]
    got = selection(*key)
    assert got.dtype == np.int64 and got.shape == (n ** p, n ** q)
    assert got.tolist() == want


def test_selections_are_read_only():
    sel = selection(3, 1, 1, ((0, 0),), ())
    with pytest.raises(ValueError, match="read-only"):
        sel[0, 1] = 1
    with pytest.raises(ValueError, match="read-only"):
        sel += 1
    assert np.array_equal(sel, np.eye(3, dtype=np.int64))


def test_hosts_of_one_order_share_each_selection(monkeypatch):
    # an empty cache, so that no build empties it between the two hosts
    monkeypatch.setattr(connection, "_selections", {}, raising=False)
    seen = []
    apply = Evaluator._apply

    def spy(self, expr):
        out = apply(self, expr)
        if expr[0] == "sel":
            seen.append(out)
        return out
    monkeypatch.setattr(Evaluator, "_apply", spy)
    expr = build_formula(RootedGraph(DIAMOND, (0,), (2,)))
    results, leaves = [], []
    for g in (complete_graph(5), er_graph(5, 0.8, 3)):
        seen.clear()
        results.append(eval_formula(expr, g))
        leaves.append(list(seen))
    assert not results[0].equal(results[1])
    assert leaves[0] and len(leaves[0]) == len(leaves[1])
    assert all(a is b for a, b in zip(*leaves))


def test_selection_cache_stays_within_its_cell_bound(monkeypatch):
    monkeypatch.setattr(connection, "SELECTION_CACHE_CELLS", 100)
    monkeypatch.setattr(connection, "_selections", {})
    for n in range(2, 9):
        selection(n, 1, 1, (), ((0, 0),))
        assert sum(m.size for m in connection._selections.values()) <= 100
    assert selection(8, 1, 1, (), ((0, 0),)) is selection(8, 1, 1, (),
                                                          ((0, 0),))


def test_eval_formula_guards(monkeypatch):
    expr = ("mm", ("vec", ("adj",)), ("T", ("vec", ("adj",))))
    with monkeypatch.context() as patched:
        patched.setattr(connection, "MAX_CELLS", 10)
        with pytest.raises(ScaleGuardError):
            eval_formula(expr, complete_graph(4))
    with pytest.raises(IntegrityError, match="not exact"):
        eval_formula(("scale", ("adj",), 1, 2), complete_graph(3))


def test_eval_formula_guards_inner_nodes(monkeypatch):
    """A 1x1 formula whose inner outer-product node needs 4^4 cells is
    refused."""
    K = ("mm", ("vec", ("adj",)), ("T", ("vec", ("adj",))))
    expr = ("mm", ("T", ("vec", K)), ("vec", K))
    assert formula_arity(expr) == (0, 0)
    monkeypatch.setattr(connection, "MAX_CELLS", 100)
    with pytest.raises(ScaleGuardError):
        eval_formula(expr, complete_graph(4))


def test_formula_arity_checks_composition():
    assert formula_arity(("adj",)) == (1, 1)
    assert formula_arity(("vec", ("adj",))) == (2, 0)
    assert formula_arity(
        ("mm", ("vec", ("adj",)), ("T", ("vec", ("adj",))))) == (2, 2)
    with pytest.raises(ValueError, match="unknown formula node kind 'kron'"):
        formula_arity(("kron", ("adj",), ("adj",)))
    with pytest.raises(CompositionError):
        formula_arity(("had", ("adj",), ("vec", ("adj",))))
    with pytest.raises(CompositionError):
        formula_arity(("mm", ("vec", ("adj",)), ("adj",)))


def test_transpose_round_trip():
    g = er_graph(5, 0.6, 72)
    rf = rooted_formula(TRIANGLE, (0,), (1,))
    back = lemma1_transpose(lemma1_transpose(rf))
    assert eval_formula(back.expr, g).equal(eval_formula(rf.expr, g))
    once = lemma1_transpose(rf)
    assert eval_formula(once.expr, g).equal(
        kappa_direct(RootedGraph(TRIANGLE, (1,), (0,)), g))


def test_vectorize_stacks_columns():
    g = er_graph(5, 0.6, 73)
    rf = rooted_formula(TRIANGLE, (0,), (1,))
    flat = lemma1_vectorize(rf)
    assert eval_formula(flat.expr, g).equal(
        kappa_direct(RootedGraph(TRIANGLE, (0, 1), ()), g))


def test_projection_divides_by_stabiliser_index():
    """Dropping both path ends from the root set halves the tally.

    The path's end-swap fixes the centre, so each centre-rooted copy is
    seen twice while summing over dropped coordinates; the emitted
    formula must carry the exact factor 1/2.
    """
    rf = rooted_formula(P3, (1, 0, 2))
    projected = lemma1_project(rf, (0,))
    assert projected.pattern.r == (1,)
    head = projected.expr
    assert head[0] == "scale" and (head[2], head[3]) == (1, 2)
    g = er_graph(6, 0.5, 74)
    assert eval_formula(projected.expr, g).equal(
        kappa_direct(RootedGraph(P3, (1,), ()), g))


def test_projection_with_identity_keep_is_lossless():
    g = er_graph(5, 0.5, 75)
    rf = rooted_formula(P3, (0, 1, 2))
    same = lemma1_project(rf, (0, 1, 2))
    assert eval_formula(same.expr, g).equal(eval_formula(rf.expr, g))


def test_restrict_reroots_patterns():
    g = er_graph(6, 0.5, 76)
    rf = rooted_formula(TRIANGLE, (0, 1, 2))
    for new_r, new_s in [((0,), (1,)), ((0, 1), ()), ((), (2,)),
                         ((2,), (0, 1))]:
        out = prop1_restrict(rf, new_r, new_s)
        assert eval_formula(out.expr, g).equal(
            kappa_direct(RootedGraph(TRIANGLE, new_r, new_s), g))


def test_restrict_rejects_uncovered_roots():
    rf = rooted_formula(P3, (0,), (1,))
    with pytest.raises(CompositionError, match="not covered"):
        prop1_restrict(rf, (0, 2), ())


def test_union_overlays_edge_sets():
    g = er_graph(6, 0.55, 77)
    rf1 = rooted_formula(P3, (0, 1, 2))
    rf2 = rooted_formula(Graph(3, [(0, 2)]), (0, 1, 2))
    out = prop1_union_same_roots(rf1, rf2)
    assert set(out.pattern.graph.edges) == set(TRIANGLE.edges)
    assert eval_formula(out.expr, g).equal(
        kappa_direct(RootedGraph(TRIANGLE, (0, 1, 2), ()), g))


def test_union_requires_matching_fully_rooted_operands():
    rf1 = rooted_formula(P3, (0, 1, 2))
    with pytest.raises(CompositionError):
        prop1_union_same_roots(rf1, rooted_formula(P2, (0, 1)))
    partial = rooted_formula(P3, (0,), (1,))
    with pytest.raises(CompositionError):
        prop1_union_same_roots(partial, partial)


def test_chain_gates_the_collided_diagonal():
    """Gluing edge to edge gives two-step adjacency minus the diagonal.

    The raw matrix product counts closed a-b-a walks on the diagonal,
    but those place both path ends on one host vertex, which the glued
    path forbids; the gate has to remove them.
    """
    rf = RootedFormula(RootedGraph(P2, (0,), (1,)), ("adj",))
    out = prop1_chain(rf, rf)
    assert out.pattern.graph.n == 3
    g = er_graph(6, 0.6, 78)
    got = eval_formula(out.expr, g)
    assert got.equal(kappa_direct(RootedGraph(out.pattern.graph, (0,),
                                              (2,)), g))
    adj = eval_formula(("adj",), g).data
    two_step = adj @ adj
    assert np.array_equal(np.diag(got.data), np.zeros(6, dtype=np.int64))
    off = ~np.eye(6, dtype=bool)
    assert np.array_equal(got.data[off], two_step[off])


def test_chain_divides_by_split_count():
    """Gluing two paths end-to-end closes a square; each square splits
    back into its halves twice, so the formula carries 1/2."""
    rf1 = rooted_formula(P3, (1,), (0, 2))
    rf2 = rooted_formula(P3, (0, 2), (1,))
    out = prop1_chain(rf1, rf2)
    assert sorted(map(tuple, out.pattern.graph.edges)) == [
        (0, 1), (0, 3), (1, 2), (2, 3)]
    head = out.expr
    assert head[0] == "scale" and (head[2], head[3]) == (1, 2)
    g = er_graph(6, 0.6, 79)
    assert eval_formula(out.expr, g).equal(
        kappa_direct(out.pattern, g))


def test_chain_requires_fully_rooted_operands():
    rf = RootedFormula(RootedGraph(P3, (0,), (1,)),
                       build_formula(RootedGraph(P3, (0,), (1,))))
    with pytest.raises(CompositionError):
        prop1_chain(rf, rf)


@pytest.mark.parametrize("pattern,r,s", [
    (TRIANGLE, (0,), (1,)),
    (TRIANGLE, (0, 1), ()),
    (P4, (0,), (3,)),
    (cycle_graph(4), (0, 1), (2, 3)),
    (DIAMOND, (0,), ()),
    (complete_graph(4), (0,), (1, 2)),
])
@pytest.mark.parametrize("host", [
    complete_graph(4), cycle_graph(5), er_graph(6, 0.5, 301),
])
def test_built_formulas_match_direct_enumeration(pattern, r, s, host):
    F = RootedGraph(pattern, r, s)
    expr = build_formula(F)
    assert formula_arity(expr) == (len(r), len(s))
    assert eval_formula(expr, host).equal(kappa_direct(F, host))


def test_empty_host_and_undersized_host_give_zeros():
    F = RootedGraph(TRIANGLE, (0,), ())
    expr = build_formula(F)
    bare = Graph(3, [])
    assert not eval_formula(expr, bare).data.any()
    assert not kappa_direct(F, bare).data.any()
    big = RootedGraph(cycle_graph(5), (0,), (1,))
    small_host = complete_graph(3)
    assert not eval_formula(build_formula(big), small_host).data.any()
