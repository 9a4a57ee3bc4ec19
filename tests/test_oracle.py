"""Brute-force reference counters.

The oracle is the trust anchor for everything else, so these tests stay
close to first principles: tiny fixtures with hand-checked values, plus
agreement between the two independent rooted-count strategies.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (complete_graph, cycle_graph, differential_hosts,
                      er_graph, petersen_graph)
from nbcensus import catalog
from nbcensus.connection import RootedGraph
from nbcensus.edge_matrix import EdgeSpace
from nbcensus.graphs import DirectedEdgeIndex, Graph
from nbcensus.oracle import (OracleConfig, OracleGuardError,
                             automorphism_count_fixing, automorphisms,
                             count_copies, count_embeddings,
                             count_rooted_copies, edge_rooted_vector,
                             simple_cycle_census, vertex_rooted_vector,
                             walk_shape_classes)
from reference_counts import (closed_nb_walk_total, count_rooted_copies_dedup,
                              count_simple_cycles)

PATH3 = Graph(3, [(0, 1), (1, 2)])
TRIANGLE = complete_graph(3)
K6 = complete_graph(6)


def rooted_patterns():
    """(shape, root, edge rooted?) for every order 3..5 catalog id, and K6
    rooted on an edge."""
    out = []
    for order in (3, 4, 5):
        edge, vertex = catalog.entries_for_order(order)
        for mid in (*edge, *vertex):
            shape, root = catalog.pattern_for(mid)
            out.append((shape, tuple(root), mid in edge))
    out.append((K6, (0, 1), True))
    return out


ROOTED_PATTERNS = rooted_patterns()


def test_automorphism_group_sizes():
    assert len(automorphisms(complete_graph(4))) == 24
    assert len(automorphisms(cycle_graph(5))) == 10
    assert len(automorphisms(PATH3)) == 2
    assert len(automorphisms(petersen_graph())) == 120


@st.composite
def hosts_up_to_7(draw):
    """Any graph on at most 7 vertices; shrinks towards edgeless ones."""
    n = draw(st.integers(0, 7))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph(n, [pair for pair, k in zip(pairs, keep) if k])


@settings(max_examples=60, deadline=None)
@given(hosts_up_to_7())
@example(Graph(0, []))
@example(Graph(6, []))
@example(Graph(7, [(0, 1), (1, 2), (3, 4)]))
@example(complete_graph(7))
def test_automorphisms_are_the_edge_set_preserving_permutations(g):
    edges = {frozenset(e) for e in g.edges}
    want = [perm for perm in permutations(range(g.n))
            if {frozenset((perm[u], perm[v])) for u, v in g.edges} == edges]
    assert sorted(automorphisms(g)) == want


def test_automorphisms_fixing_subsets():
    assert automorphism_count_fixing(complete_graph(4), {0}) == 6
    assert automorphism_count_fixing(complete_graph(4), {0, 1}) == 2
    assert automorphism_count_fixing(PATH3, {1}) == 2   # middle: ends swap
    assert automorphism_count_fixing(PATH3, {0}) == 1
    assert automorphism_count_fixing(cycle_graph(6), {0}) == 2


def test_embedding_counts():
    assert count_embeddings(TRIANGLE, TRIANGLE) == 6
    assert count_embeddings(TRIANGLE, complete_graph(4)) == 24
    assert count_embeddings(PATH3, complete_graph(4)) == 24
    assert count_embeddings(TRIANGLE, cycle_graph(5)) == 0


def test_count_copies_fixtures():
    assert count_copies(TRIANGLE, complete_graph(4)) == 4
    assert count_copies(Graph(2, [(0, 1)]), complete_graph(5)) == 10
    assert count_copies(PATH3, complete_graph(4)) == 12
    assert count_copies(cycle_graph(4), complete_graph(4)) == 3
    assert count_copies(cycle_graph(5), petersen_graph()) == 12


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_rooted_strategies_agree(seed):
    host = er_graph(7, 0.5, seed)
    rooted = [
        RootedGraph(TRIANGLE, (0,), (1,)),
        RootedGraph(PATH3, (1,), (0, 2)),
        RootedGraph(cycle_graph(4), (0, 1), ()),
        RootedGraph(Graph(4, [(0, 1), (1, 2), (2, 3)]), (0,), (3,)),
    ]
    for F in rooted:
        for base in range(host.n):
            i = tuple((base + t) % host.n for t in range(len(F.r)))
            j = tuple((base + len(F.r) + t) % host.n for t in range(len(F.s)))
            a = count_rooted_copies(F, host, i, j)
            b = count_rooted_copies_dedup(F, host, i, j)
            assert a == b, (F, i, j)


def test_rooted_location_arity_checked(k4):
    with pytest.raises(ValueError, match="arity"):
        count_rooted_copies(RootedGraph(TRIANGLE, (0,), ()), k4, (0, 1), ())


def test_rooted_repeated_host_vertex_is_zero(k4):
    F = RootedGraph(PATH3, (0, 2), ())
    assert count_rooted_copies(F, k4, (1, 1), ()) == 0


def test_cycle_census_fixtures():
    assert list(simple_cycle_census(complete_graph(4)).values()) == [
        4, 3, 0, 0, 0, 0, 0]
    assert list(simple_cycle_census(cycle_graph(9)).values()) == [
        0, 0, 0, 0, 0, 0, 1]
    assert list(simple_cycle_census(petersen_graph()).values()) == [
        0, 0, 12, 10, 0, 15, 20]


def test_cycle_census_bipartite_has_no_odd_cycles():
    k33 = Graph(6, [(a, b + 3) for a in range(3) for b in range(3)])
    census = simple_cycle_census(k33)
    assert census[3] == census[5] == census[7] == census[9] == 0
    assert census[4] == 9
    assert census[6] == 6


@pytest.mark.parametrize("seed", [31, 32])
def test_census_agrees_with_copy_counts(seed):
    g = er_graph(8, 0.45, seed)
    census = simple_cycle_census(g)
    for k in range(3, 8):
        assert census[k] == count_copies(cycle_graph(k), g), k


def test_count_simple_cycles_rejects_short():
    with pytest.raises(ValueError):
        count_simple_cycles(complete_graph(4), 2)


@pytest.mark.parametrize("seed", [41, 42])
def test_walk_total_is_matrix_trace(seed):
    g = er_graph(7, 0.55, seed)
    space = EdgeSpace(g)
    for k in range(3, 7):
        assert closed_nb_walk_total(g, k) == space.trace(k), k


def test_short_walk_shapes_are_cycles():
    for k in (3, 4, 5):
        classes = walk_shape_classes(k)
        assert len(classes) == 1
        (cls,) = classes
        assert cls["order"] == k
        assert len(cls["edges"]) == k
        assert cls["walks"] == 2 * k


def test_length_six_walk_shapes():
    shapes = walk_shape_classes(6)
    fingerprint = sorted(
        (cls["order"], len(cls["edges"]), cls["walks"]) for cls in shapes)
    # doubled triangle, diamond, bowtie, hexagon
    assert fingerprint == [(3, 3, 6), (4, 5, 12), (5, 6, 24), (6, 6, 12)]


@pytest.mark.parametrize("pattern,root", [
    (TRIANGLE, (0, 1)),
    (PATH3, (0, 1)),
    (cycle_graph(4), (0, 1)),
])
def test_edge_vector_matches_pointwise_counts(pattern, root, petersen):
    index = DirectedEdgeIndex(petersen)
    vec = edge_rooted_vector(pattern, root, petersen, index)
    F = RootedGraph(pattern, root, ())
    for e in range(index.size):
        assert vec[e] == count_rooted_copies(
            F, petersen, (index.tail[e], index.head[e]), ())


def test_vertex_vector_matches_pointwise_counts(petersen):
    vec = vertex_rooted_vector(PATH3, 1, petersen)
    F = RootedGraph(PATH3, (1,), ())
    for v in range(petersen.n):
        assert vec[v] == count_rooted_copies(F, petersen, (v,), ())
    # every Petersen vertex is the middle of deg-choose-2 paths
    assert vec == [3] * 10


@pytest.mark.parametrize("root", [3, 5, -1])
def test_vertex_vector_rejects_a_root_outside_the_pattern(root):
    with pytest.raises(ValueError, match="vertex root must be a vertex"):
        vertex_rooted_vector(PATH3, root, complete_graph(4))
    with pytest.raises(ValueError, match="edge root must be an edge"):
        edge_rooted_vector(PATH3, (0, root), complete_graph(4))


def test_vector_on_a_host_smaller_than_the_pattern_is_zero():
    assert vertex_rooted_vector(PATH3, 1, complete_graph(2)) == [0, 0]
    assert edge_rooted_vector(PATH3, (0, 1), complete_graph(2)) == [0, 0]


def test_guards_refuse_oversize_work():
    tight = OracleConfig(max_vertices=4, max_pattern_order=3)
    with pytest.raises(OracleGuardError):
        count_copies(TRIANGLE, complete_graph(5), config=tight)
    with pytest.raises(OracleGuardError):
        count_copies(cycle_graph(4), complete_graph(4), config=tight)
    with pytest.raises(OracleGuardError):
        simple_cycle_census(complete_graph(5), config=tight)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_rooted_strategies_agree_property(seed):
    host = er_graph(6, 0.5, seed)
    F = RootedGraph(TRIANGLE, (0,), (1, 2))
    i0 = seed % host.n
    j = ((seed // 7) % host.n, (seed // 49) % host.n)
    assert (count_rooted_copies(F, host, (i0,), j)
            == count_rooted_copies_dedup(F, host, (i0,), j))


# The oracle's former whole-vector route, kept as the reference: for every
# k-subset of the host, every one of the k! placements of the pattern is
# checked against the induced edges, the hits are tallied by root location
# and divided by the automorphisms fixing the root.

@lru_cache(maxsize=None)
def reference_table(k, mask, edges, root):
    pairs = list(combinations(range(k), 2))
    bit = {}
    for b, (p, q) in enumerate(pairs):
        bit[(p, q)] = bit[(q, p)] = b
    counts = Counter()
    for perm in permutations(range(k)):
        if all((mask >> bit[(perm[u], perm[v])]) & 1 for u, v in edges):
            counts[tuple(perm[r] for r in root)] += 1
    aut = automorphism_count_fixing(Graph(k, edges), root)
    assert all(c % aut == 0 for c in counts.values())
    return {loc: c // aut for loc, c in counts.items()}


def reference_counts(pattern, root, host):
    """{host root location: rooted copies} by the permutation tables."""
    k = pattern.n
    pairs = list(combinations(range(k), 2))
    out = Counter()
    for subset in combinations(range(host.n), k):
        mask = sum(1 << b for b, (p, q) in enumerate(pairs)
                   if host.has_edge(subset[p], subset[q]))
        for loc, c in reference_table(k, mask, pattern.edges, root).items():
            out[tuple(subset[v] for v in loc)] += c
    return out


@settings(max_examples=40, deadline=None)
@given(differential_hosts())
@example(Graph(0, []))
@example(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
@example(complete_graph(8))
def test_vectors_match_permutation_tables(host):
    index = DirectedEdgeIndex(host)
    for shape, root, on_edge in ROOTED_PATTERNS:
        want = reference_counts(shape, root, host)
        if on_edge:
            got = edge_rooted_vector(shape, root, host, index)
            locations = zip(index.tail, index.head)
        else:
            got = vertex_rooted_vector(shape, root[0], host)
            locations = ((v,) for v in range(host.n))
        assert got == [want[loc] for loc in locations], (shape.edges, root)
        assert sum(got) == sum(want.values()), (shape.edges, root)


@pytest.mark.parametrize("mid", ["X032", "X051", "X141", "X011v", "X204v",
                                 "X102v"])
def test_order5_vectors_match_dedup_pointwise(mid):
    host = er_graph(7, 0.7, 52)
    shape, root = catalog.pattern_for(mid)
    F = RootedGraph(shape, tuple(root), ())
    if len(root) == 2:
        index = DirectedEdgeIndex(host)
        vec = edge_rooted_vector(shape, tuple(root), host, index)
        locations = list(zip(index.tail, index.head))
    else:
        vec = vertex_rooted_vector(shape, root[0], host)
        locations = [(v,) for v in range(host.n)]
    assert any(vec)
    assert vec == [count_rooted_copies_dedup(F, host, loc, ())
                   for loc in locations]
