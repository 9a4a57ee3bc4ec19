"""The edge-step matrix, its powers, and the derived step matrices.

Structural identities here are checked against first-principles brute
force on small graphs; the counting semantics of the derived matrices
are certified elsewhere against the embedding oracle.
"""

import itertools
import random
import re
import tracemalloc
from math import comb
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from conftest import (complete_graph, cycle_graph, differential_hosts,
                      er_graph, petersen_graph)
from nbcensus import catalog, edge_matrix
from nbcensus.cycle_census import CORRECTIONS, DIAGONALS, full_census
from nbcensus.edge_matrix import (ATOMS, DOTS, INT64_GUARD, MEETS,
                                  TRACE_TERMS, EdgeSpace, Evaluator,
                                  IntegrityError, checked_binom,
                                  checked_hadamard, checked_matmul,
                                  checked_scale, checked_total, exact_div)
from nbcensus.graphs import DirectedEdgeIndex, Graph, path2_count
from nbcensus.motifs import compiled


def brute_B(g: Graph) -> np.ndarray:
    idx = DirectedEdgeIndex(g)
    out = np.zeros((idx.size, idx.size), dtype=np.int64)
    for e in range(idx.size):
        for f in range(idx.size):
            if idx.head[e] == idx.tail[f] and f != (e ^ 1):
                out[e, f] = 1
    return out


@pytest.mark.parametrize("g", [
    complete_graph(4),
    cycle_graph(5),
    Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]),
    er_graph(7, 0.5, 83),
])
def test_matrix_matches_definition(g):
    space = EdgeSpace(g)
    assert np.array_equal(space.B.toarray(), brute_B(g))
    assert space.B.nnz == path2_count(g)


def small_graphs():
    yield complete_graph(4)
    yield complete_graph(5)
    yield petersen_graph()
    for seed in (5, 6, 7):
        yield er_graph(6 + seed % 3, 0.45, seed)


@pytest.mark.parametrize("g", list(small_graphs()))
def test_fundamental_involution(g):
    """B[e, f] = B[rev f, rev e]: reversing both arrows flips the step."""
    space = EdgeSpace(g)
    B = space.B.toarray()
    assert np.array_equal(B, space.rowrev(space.colrev(space.B)).toarray().T)


@pytest.mark.parametrize("g", list(small_graphs()))
def test_square_is_zero_one(g):
    data = EdgeSpace(g).atom("B2").data
    assert data.size == 0 or set(np.unique(data)) <= {1}


@pytest.mark.parametrize("g", list(small_graphs()))
def test_two_step_splits_into_triangle_and_wedge(g):
    space = EdgeSpace(g)
    lhs = space.atom("B2").toarray()
    tri, wedge = space.atom("tri").toarray(), space.atom("wedge").toarray()
    assert np.array_equal(lhs, tri + wedge)
    # the split is disjoint
    assert not np.any(tri * wedge)


@pytest.mark.parametrize("g", list(small_graphs()))
def test_reversal_conjugation_fixes_square_and_cube(g):
    space = EdgeSpace(g)
    for name in ("B2", "B3"):
        M = space.atom(name).toarray()
        conj = space.rowrev(space.colrev(space.atom(name))).toarray()
        assert np.array_equal(M, conj.T)


def test_crossed_square_total_counts_k4():
    # one K4: total 24; K5 holds five K4s
    assert checked_total(EdgeSpace(complete_graph(4)).atom("crossed"),
                         "t") == 24
    assert checked_total(EdgeSpace(complete_graph(5)).atom("crossed"),
                         "t") == 5 * 24


@pytest.mark.parametrize("g", list(small_graphs()))
def test_diag_matches_dense_power(g):
    space = EdgeSpace(g)
    ev = Evaluator(space)
    B = space.B.toarray()
    acc = B @ B
    for k in range(3, 7):
        acc = acc @ B
        assert np.array_equal(ev.eval(DIAGONALS[k]), np.diag(acc)), k


def five_vertex_three_steps(g: Graph) -> np.ndarray:
    """[e, f] counts the walks e, (v1, c), (c, v3), f through five distinct
    vertices, where e = (v0, v1) and f = (v3, v4)."""
    idx = DirectedEdgeIndex(g)
    out = np.zeros((idx.size, idx.size), dtype=np.int64)
    for e, f in itertools.product(range(idx.size), repeat=2):
        v0, v1, v3, v4 = idx.tail[e], idx.head[e], idx.tail[f], idx.head[f]
        for c in g.neighbors(v1) & g.neighbors(v3):
            out[e, f] += len({v0, v1, c, v3, v4}) == 5
    return out


def dense_vertex_atoms(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency matrix A and C = I - D on dense arrays."""
    A = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        A[u, v] = A[v, u] = 1
    return A, np.diag(1 - A.sum(axis=1))


def dense_atoms(g: Graph) -> dict[str, np.ndarray]:
    """Every ATOMS entry on dense arrays, from brute_B, the adjacency A of
    the edge list, the walk blocks P_2 and P_3 from the walk recurrence
    P_k = P_(k-1) A + P_(k-2) (I - D) and, for chordless3, from walk
    enumeration."""
    B = brute_B(g)
    rev = np.arange(B.shape[0]) ^ 1
    B2 = B @ B
    B3 = B2 @ B
    tri, square, texit = B2 * B.T, B2 * B2.T, B2 * B2[rev]
    A, C = dense_vertex_atoms(g)
    P2 = A @ A + C
    return {
        "B2": B2, "B3": B3, "A": A, "P2": P2, "P3": P2 @ A + A @ C,
        "AC": A @ C,
        "tri": tri, "wedge": B2 - tri, "square": square,
        "crossed": square * square[:, rev], "twin": B2 * B2[:, rev],
        "texit": texit, "chordless3": five_vertex_three_steps(g),
        "join": texit @ tri[rev],
    }


ATOM_GRAPHS = [*small_graphs(), Graph(0, []), Graph(3, []),
               Graph(8, [(0, 1), (1, 2), (1, 3), (3, 4), (5, 6), (6, 7)])]


@pytest.mark.parametrize("g", ATOM_GRAPHS)
def test_every_atom_matches_dense_reference(g):
    space = EdgeSpace(g)
    want = dense_atoms(g)
    assert set(want) == set(ATOMS)
    for name, ref in want.items():
        got = space.atom(name)
        assert got.dtype == np.int64, name
        got = got.toarray() if sp.issparse(got) else got
        assert np.array_equal(got, ref), name


@pytest.mark.parametrize("g", ATOM_GRAPHS)
def test_chordless3_union_mask_matches_mask_chain(g):
    """One hadnot against the union of the masks drops what the chain of
    three hadnots and the cleared diagonal dropped."""
    space = EdgeSpace(g)
    chain = space.atom("B3").copy()
    for mask in (space.B.T.tocsr(), space.colrev(space.B).tocsr(),
                 space.rowrev(space.B).tocsr()):
        chain = (chain - chain.multiply(mask != 0)).tocsr()
    chain.setdiag(0)
    assert np.array_equal(space.atom("chordless3").toarray(),
                          chain.toarray())


# masks of the masked power: 0/1 ones, one with larger entries (the X121
# mask) and an empty one; and the two masks of the 2m-long gathers, the
# diagonal and the entries (e, rev e)
MASKS = ["B", ("T", "B"), ("colrev", "B2"), "square", MEETS,
         ("had", ("mm", "tri", ("rowrev", "tri")), ("T", "B")),
         ("sub", "B", "B"), "I", ("colrev", "I")]


def dense_powers(g: Graph) -> list[np.ndarray]:
    """B^0..B^6 on dense arrays, from brute_B."""
    B = brute_B(g)
    powers = [np.eye(B.shape[0], dtype=np.int64)]
    for _ in range(6):
        powers.append(powers[-1] @ B)
    return powers


@settings(max_examples=60, deadline=None)
@given(differential_hosts())
@example(Graph(0, []))
@example(Graph(4, []))
@example(Graph(8, [(0, 1), (1, 2), (1, 3), (3, 4), (5, 6)]))
@example(petersen_graph())
@example(er_graph(9, 0.5, 84))
def test_masked_product_matches_dense_product(g):
    """("bpow", M, k) is M * B^k entrywise, k = 1..6, int64 and stored
    without zeros, on hosts without vertices or edges and with isolated
    vertices too."""
    space = EdgeSpace(g)
    ev = Evaluator(space)
    powers = dense_powers(g)
    for m in MASKS:
        M = ev.eval(m).toarray()
        for k in range(1, 7):
            got = ev.eval(("bpow", m, k))
            assert got.dtype == np.int64 and got.shape == M.shape, (m, k)
            assert np.all(got.data != 0), (m, k)
            assert np.array_equal(got.toarray(), M * powers[k]), (m, k)


def big(m):
    return ("scale", m, 2 ** 61, 1)


@settings(max_examples=60, deadline=None)
@given(differential_hosts())
@example(complete_graph(4))
def test_masked_product_refuses_where_the_full_product_does(g):
    """Mask entries of 2**61 make M * B^k wrap wherever B^k reaches 2 at one
    of them; the masked power must refuse there, naming its node, and
    elsewhere agree with the exact product (it may refuse earlier: its
    bound pairs max|M| with the largest value of B^k at any entry)."""
    space = EdgeSpace(g)
    powers = dense_powers(g)
    for m in MASKS:
        try:
            M = Evaluator(space).eval(big(m)).toarray().astype(object)
        except IntegrityError:  # the mask itself would wrap
            for k in range(1, 7):
                with pytest.raises(IntegrityError):
                    Evaluator(space).eval(("bpow", big(m), k))
            continue
        for k in range(1, 7):
            node = ("bpow", big(m), k)
            want = M * powers[k].astype(object)
            try:
                got = Evaluator(space).eval(node)
            except IntegrityError as exc:
                assert str(exc).startswith(repr(node)[:80]), exc
                continue
            assert all(abs(x) < 2 ** 62 for x in want.flat), (m, k)
            assert np.array_equal(got.toarray().astype(object), want), (m, k)


# B^k as a matrix, for the full products M * B^k
POWERS = {1: "B", 2: "B2", 3: "B3", 4: ("mm", "B3", "B"),
          5: ("mm", "B3", "B2"), 6: ("mm", "B3", "B3")}
STEP_CORPUS = [complete_graph(3), cycle_graph(5), petersen_graph()] + [
    er_graph(n, 0.3, seed) for n in range(5, 9) for seed in range(20)]


def test_masked_product_computes_wherever_the_full_product_does():
    """The masked power's guard reads B^k only at the mask's entries, so it
    computes wherever the product with the whole of B^k does."""
    computed = 0
    for g in STEP_CORPUS:
        space = EdgeSpace(g)
        for m in MASKS:
            for k, power in POWERS.items():
                try:
                    want = Evaluator(space).eval(("had", big(m), power))
                except IntegrityError:
                    continue
                got = Evaluator(space).eval(("bpow", big(m), k))
                assert np.array_equal(got.toarray(), want.toarray()), (
                    g.edges, m, k)
                computed += 1
    assert computed == 3461


class WideQSpace(EdgeSpace):
    """An EdgeSpace whose P_2 atom is scaled by ``scale`` once P_3 has been
    built from the true one: the masked powers read the scaled P_2, still
    a guarded value, as Q_2 and Q_4 and in the dot products of P_4 and
    P_5."""

    def __init__(self, graph: Graph, scale: int):
        super().__init__(graph)
        self.atom("P3")
        key = ATOMS["P2"][0]
        self._cache[key] = checked_scale(self.atom("P2"), scale, "wide")


def test_masked_product_refusal_names_the_node():
    """On a triangle, P_2 is 1 everywhere; scaled to 2**62 - 1, it makes
    every k >= 3 gather a value of Q_2 or Q_4 at or beyond the guard, or a
    dot product of P_4 or P_5 beyond it, and the masked power refuses and
    names its node, while k <= 2 reads Q_1 and Q_0 alone and computes."""
    g = complete_graph(3)
    space = WideQSpace(g, INT64_GUARD - 1)
    assert edge_matrix._max_abs(space.atom("P2")) == INT64_GUARD - 1
    powers = dense_powers(g)
    for k in range(1, 7):
        node = ("bpow", "B", k)
        if k <= 2:
            got = Evaluator(space).eval(node)
            assert np.array_equal(got.toarray(), powers[1] * powers[k])
            continue
        with pytest.raises(IntegrityError) as refused:
            Evaluator(space).eval(node)
        assert str(refused.value).startswith(repr(node)[:80]), k


def test_masked_product_guards_its_dot_products():
    """On K4, P_2 scaled by 2**32 stays below 2**33, but its row dot
    products, which P_4 and so B^5 read, reach 2**66: unguarded they would
    wrap int64 to a wrong value. ("bpow", "I", 5) refuses and names its
    node; ("bpow", "I", 3) reads Q_2 = P_2 + I alone and is 2**32 times the
    diagonal of B^3."""
    g = complete_graph(4)
    space = WideQSpace(g, 2 ** 32)
    assert edge_matrix._max_abs(space.atom("P2")) < 2 ** 62
    node = ("bpow", "I", 5)
    with pytest.raises(IntegrityError) as refused:
        Evaluator(space).eval(node)
    assert str(refused.value).startswith(repr(node)[:80])
    got = Evaluator(space).eval(("bpow", "I", 3))
    assert np.array_equal(got.toarray(), 2 ** 32 * np.diag(np.diag(
        dense_powers(g)[3])))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 12), max_size=30), st.integers(1, 20))
def test_blocks_are_the_longest_ranges_within_the_weight(weights, cells):
    """The one block rule: the ranges cover range(len(weights)),
    contiguous and in order; each weighs at most BLOCK_CELLS unless it
    holds a single item; and every range but the last would weigh more
    than BLOCK_CELLS with its next item added."""
    with mock.patch.object(edge_matrix, "BLOCK_CELLS", cells):
        ranges = list(edge_matrix._blocks(weights))
    assert [i for lo, hi in ranges for i in range(lo, hi)] == list(
        range(len(weights)))
    for i, (lo, hi) in enumerate(ranges):
        assert lo < hi
        assert hi - lo == 1 or sum(weights[lo:hi]) <= cells, (lo, hi)
        if i + 1 < len(ranges):
            assert sum(weights[lo:hi + 1]) > cells, (lo, hi)


def test_row_dot_products_are_blocked_by_stored_entries():
    """On 1024 disjoint K4s (n = 4096) the diagonal of B^6 is 8 at every
    directed edge, as on one K4 computed densely. A block of Q_4 or Q_5
    dots is bounded by the stored entries of the rows they slice, a few
    per dot here, not by BLOCK_CELLS // n dots, so each gather of Q_4 or
    Q_5 takes one entrywise product per DOTS pair."""
    k4 = complete_graph(4)
    assert set(np.diag(np.linalg.matrix_power(brute_B(k4), 6))) == {8}
    g = Graph(4096, [(4 * c + u, 4 * c + v) for c in range(1024)
                     for u, v in k4.edges])
    gather, hadamard = EdgeSpace._gather, edge_matrix.checked_hadamard
    products, per_gather = [], []  # one entry per entrywise product

    def spy_gather(self, j, *args):
        before = len(products)
        out = gather(self, j, *args)
        if j >= 4:
            per_gather.append((j, len(products) - before))
        return out

    def spy_hadamard(*args):
        products.append(args[-1])
        return hadamard(*args)

    with mock.patch.object(EdgeSpace, "_gather", spy_gather), \
            mock.patch.object(edge_matrix, "checked_hadamard", spy_hadamard):
        got = Evaluator(EdgeSpace(g)).eval(("rowsum", ("bpow", "I", 6)))
    assert np.array_equal(got, np.full(2 * g.m, 8))
    assert per_gather
    assert all(count == len(DOTS[j]) for j, count in per_gather), per_gather


def assert_traces_match_dense_power(g: Graph) -> None:
    space = EdgeSpace(g)
    B = brute_B(g)
    acc = np.eye(B.shape[0], dtype=np.int64)
    for k in range(1, 10):
        acc = acc @ B
        if k >= 3:
            assert space.trace(k) == int(np.trace(acc)), k


@pytest.mark.parametrize("g", list(small_graphs()))
def test_trace_matches_dense_power(g):
    assert_traces_match_dense_power(g)


def row_blocked_trace(space: EdgeSpace, k: int, block: int) -> int:
    """tr(B^k), k = 7..9, from row blocks of 2m x 2m edge-space products:
    the trace path that preceded the vertex-space table, kept as a
    reference."""
    B2, B3 = space.atom("B2"), space.atom("B3")
    total = 0
    for lo in range(0, space.size, block):
        hi = min(lo + block, space.size)
        if k == 7:
            right = B3[:, lo:hi]
        else:
            right = (B2 if k == 8 else B3) @ B2[:, lo:hi]
        total += int((B2[lo:hi] @ B2).multiply(right.T).sum())
    return total


def test_trace_matches_row_blocked_reference(petersen):
    space = EdgeSpace(petersen)
    for k in (7, 8, 9):
        for block in (4, 2048):
            assert space.trace(k) == row_blocked_trace(space, k, block), k


@settings(max_examples=80, deadline=None)
@given(differential_hosts())
@example(Graph(0, []))
@example(Graph(5, []))
@example(Graph(7, [(0, v) for v in range(1, 7)]))
@example(er_graph(9, 0.5, 61))
@example(er_graph(10, 0.3, 62))
@example(er_graph(12, 0.6, 63))
def test_trace_matches_dense_power_on_degenerate_graphs(g):
    """Graph(0, []), edgeless graphs and forests make m - n, and with it
    the even-k term of the vertex-space identity, zero or negative; stars,
    cliques and random hosts exercise every n x n block and pairing."""
    assert_traces_match_dense_power(g)


def complete_graph_trace(n: int, k: int) -> int:
    """tr(B^k) on K_n in closed form (exact Python int).

    The adjacency eigenvalue n-1 contributes (n-2)^k + 1, each of the n-1
    eigenvalues -1 contributes s_k, the k-th power sum of the roots of
    x^2 + x + (n-2), and the m - n extra eigenvalue pairs +-1 contribute
    1 + (-1)^k each.
    """
    m = n * (n - 1) // 2
    s = [2, -1]
    while len(s) <= k:
        s.append(-s[-1] - (n - 2) * s[-2])
    return (n - 2) ** k + 1 + (n - 1) * s[k] + (m - n) * (1 + (-1) ** k)


@pytest.mark.parametrize("n", range(4, 9))
def test_trace_matches_closed_form_on_cliques(n):
    space = EdgeSpace(complete_graph(n))
    for k in range(3, 10):
        assert space.trace(k) == complete_graph_trace(n, k), k


def trace_blocks() -> list:
    """The blocks P_0..P_5 as TRACE_TERMS writes them: the vertex identity,
    the adjacency matrix and the atoms P_2 and P_3 by name."""
    P = ["V", "A", "P2", "P3"]
    for k in range(4, 6):
        P.append(("add", ("mm", P[k - 1], "A"), ("mm", P[k - 2], "C")))
    return P


# The trace terms that read P_4 (H_7, 2 c'H_7 1, H_8 and H_9), as the parts
# of the one "byrows" pass of TRACE_TERMS, and that pass.
_P = trace_blocks()
_READS_P4 = (("total", ("had", _P[4], _P[3])),
             ("total", ("mm", ("had", _P[4], _P[3]), "c")),
             ("total", ("had", _P[4], _P[4])),
             ("total", ("had", _P[5], _P[4])))
P4_PASS = ("byrows", ("totals", *_READS_P4))

# F20, F32 and F33, the totals of the census's one "byrows" pass, as whole
# definitions over B^2 (B^3 at (B^2)^T and at B^2), and that pass.
_MASKED_WHOLE = (("total", ("binom", ("bpow", ("T", "B2"), 3), 2)),
                 ("total", ("had", DIAGONALS[3], ("mm", (
                     "bpow", "B2", 3), DIAGONALS[3]))),
                 ("total", ("binom", ("bpow", ("T", "B2"), 3), 3)))
MASKED_PASS = {name: main for name, main, _, _ in CORRECTIONS}["F20"][1]

# The trees that "byrows" computes by blocks of rows, each with its whole
# definition as the parent tree wrote it: tri, square, each total of the
# trace pass and each total of the census pass.
BY_ROWS = [
    ("tri", ("had", "B2", ("T", "B"))),
    ("square", ("had", "B2", ("T", "B2"))),
    *[(("part", P4_PASS, i), total) for i, total in enumerate(_READS_P4)],
    *[(("part", MASKED_PASS, i), whole)
      for i, whole in enumerate(_MASKED_WHOLE)],
]


@settings(max_examples=40, deadline=None)
@given(differential_hosts())
@example(petersen_graph())
@example(er_graph(9, 0.6, 96))
def test_row_blocked_trees_match_their_whole_definitions(g):
    """With blocks of a few cells, so many blocks of rows, each "byrows"
    tree equals its whole definition, and a masked power at a block of a
    mask's rows (an empty one, one of odd length) equals those rows of the
    masked power at the whole mask."""
    with mock.patch.object(edge_matrix, "BLOCK_CELLS", 7):
        space = EdgeSpace(g)
        for tree, whole in BY_ROWS:
            got = Evaluator(space).eval(tree)
            want = Evaluator(space).eval(whole)
            if sp.issparse(want):
                assert got.dtype == np.int64, tree
                assert got.shape == want.shape, tree
                assert (got != want).nnz == 0, tree
            else:
                assert got == want, tree
        size, ev = space.size, Evaluator(space)
        third = size // 3
        blocks = [(0, 0), (size, size), (0, size)] + [
            (third, size - (size - third + 1) % 2)] * (size > 0)
        for m in MASKS:
            M = ev.eval(m)
            for k in (1, 3, 4):  # Q_-1..Q_3, and the J and I terms
                whole = ev.eval(("bpow", m, k))
                for lo, hi in blocks:
                    got = space.bpow(M[lo:hi], k, "block", lo)
                    assert got.shape == (hi - lo, size), (m, k, lo, hi)
                    assert (got != whole[lo:hi]).nnz == 0, (m, k, lo, hi)


def test_a_masked_power_fills_only_the_walk_rows_it_reads():
    """A masked power at two mask rows, one edge both ways, fills of each
    walk block only the rows at that edge's ends, not every row of the
    block of vertices they fall in."""
    space = EdgeSpace(petersen_graph())
    walks = {id(space.atom(name).indptr) for name in edge_matrix.WALKS[:4]}
    filled, row_entries = set(), edge_matrix._row_entries

    def spy(indptr, rows):
        if id(indptr) in walks:
            filled.update(rows.tolist())
        return row_entries(indptr, rows)

    with mock.patch.object(edge_matrix, "_row_entries", spy):
        space.bpow(space.B[4:6], 3, "two rows", 4)
    ends = {int(space.index.head[4]), int(space.index.tail[4])}
    assert filled and filled <= ends


def test_trace_on_k200_is_exact_or_refused():
    """tr(B^7) on K_200 is 1.19e16 and exact; tr(B^9) is 4.77e20, beyond
    int64, so the guard must refuse it rather than wrap. The refusal names
    B^9 and then, as every guard does, the refused node: 2 c'H_7 1, a part
    of the row-blocked pass whose H_9 total refuses too."""
    space = EdgeSpace(complete_graph(200))
    assert space.trace(7) == complete_graph_trace(200, 7)
    assert complete_graph_trace(200, 9) > 2 ** 63
    term = ("scale", ("part", P4_PASS, 1), 2, 1)
    assert (9, term) in TRACE_TERMS
    with pytest.raises(IntegrityError, match="B\\^9") as refused:
        space.trace(9)
    assert str(refused.value) == (
        f"trace:B^9: {repr(term)[:80]}: rescaled entry bound 4.77254e+18 "
        "exceeds the int64 guard")
    totals = Evaluator(space).eval(P4_PASS)
    assert [isinstance(t, IntegrityError) for t in totals] == [
        False, False, False, True]


class IharaBassSpace(EdgeSpace):
    """An EdgeSpace whose trace table is built from the powers of the
    2n x 2n operator B~ itself, as before the n x n blocks: each tr(B~^k)
    totals B~^i times (B~^j)^T entrywise, i + j = k."""

    def _trace_table(self) -> dict:
        n, m = self.graph.n, self.graph.m
        tail, head = self.index.tail, self.index.head
        A = sp.csr_matrix((np.ones(self.size, dtype=np.int64),
                           (tail, head)), shape=(n, n), dtype=np.int64)
        step = sp.bmat([[A, sp.diags(1 - np.bincount(tail, minlength=n),
                                     dtype=np.int64)],
                        [sp.identity(n, dtype=np.int64), None]],
                       format="csr", dtype=np.int64)
        powers, table = [None, step], {}
        for k in range(3, 10):
            i, j = k - k // 2, k // 2
            try:
                while len(powers) <= i:
                    powers.append(checked_matmul(
                        powers[-1], step, f"trace:B~^{len(powers)}"))
                pair = checked_hadamard(powers[i], powers[j].T,
                                        f"trace:B~^{k} pairing")
                table[k] = (checked_total(pair, f"trace:B^{k}")
                            + (1 + (-1) ** k) * (m - n))
            except IntegrityError as exc:
                table[k] = exc
        return table


@pytest.mark.parametrize("n, refused", [(150, {9}), (200, {9}),
                                        (260, {8, 9}), (400, {8, 9})])
def test_trace_refusals_match_the_2n_operator_table(n, refused):
    """On cliques the guards refuse the same traces as the 2n x 2n table
    did, each with an error naming B^k, and every other trace is exact."""
    g = complete_graph(n)
    new = EdgeSpace(g)._trace_table()
    old = IharaBassSpace(g)._trace_table()
    for table in (new, old):
        assert {k for k, v in table.items()
                if isinstance(v, IntegrityError)} == refused
    for k in range(3, 10):
        if k in refused:
            assert f"B^{k}" in str(new[k]), k
        else:
            assert new[k] == old[k] == complete_graph_trace(n, k), k


def test_gamma_moves_edge_mass_to_tails():
    g = Graph(3, [(0, 1), (1, 2)])
    space = EdgeSpace(g)
    vec = np.arange(space.size, dtype=np.int64) + 1
    out = space.gamma(vec)
    want = np.zeros(g.n, dtype=np.int64)
    for e in range(space.size):
        want[space.index.tail[e]] += vec[e]
    assert np.array_equal(out, want)


def test_exact_div_raises_on_remainder():
    with pytest.raises(IntegrityError, match="label"):
        exact_div(np.array([3]), 2, "label")


def test_checked_total_guards_magnitude():
    M = sp.csr_matrix(np.array([[2 ** 61, 2 ** 61]], dtype=np.int64))
    with pytest.raises(IntegrityError):
        checked_total(M, "huge")


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 7), st.data())
def test_involution_property(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=n - 1,
                                max_size=len(pairs), unique=True))
    g = Graph(n, chosen)
    if g.m == 0:
        return
    space = EdgeSpace(g)
    B = space.B.toarray()
    rev = np.asarray(space.rev)
    assert np.array_equal(B, B[rev][:, rev].T)


# -- the shared int64 guards ---------------------------------------------
#
# Each guard must return the exact value when the result sits just below
# the 2**62 guard, and refuse operands whose result would wrap int64.

BELOW = 2 ** 62 - 2 ** 31          # = 2**31 * (2**31 - 1)


def _csr(rows):
    return sp.csr_matrix(np.array(rows, dtype=np.int64))


def _dense(rows):
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("wrap", [_csr, _dense])
def test_checked_matmul_matrix_guard(wrap):
    out = checked_matmul(wrap([[2 ** 31]]), wrap([[2 ** 31 - 1]]), "mm")
    assert int(out[0, 0]) == BELOW
    with pytest.raises(IntegrityError, match="mm"):
        checked_matmul(wrap([[2 ** 32]]), wrap([[2 ** 32]]), "mm")


def test_checked_matmul_vector_guard():
    out = checked_matmul(_csr([[2 ** 31, 0]]), _dense([2 ** 31 - 1, 5]), "mv")
    assert out.tolist() == [BELOW]
    with pytest.raises(IntegrityError, match="mv"):
        checked_matmul(_csr([[1, 1]]), _dense([2 ** 62, 2 ** 62]), "mv")


def test_checked_hadamard_guard():
    out = checked_hadamard(_csr([[2 ** 31, 3]]), _csr([[2 ** 31 - 1, 0]]), "h")
    assert out.toarray().tolist() == [[BELOW, 0]]
    with pytest.raises(IntegrityError, match="h"):
        checked_hadamard(_csr([[2 ** 32]]), _csr([[2 ** 32]]), "h")


def test_checked_total_guard():
    assert checked_total(_dense([2 ** 61, 2 ** 61 - 2 ** 31]), "t") == BELOW
    assert checked_total(_csr([[2 ** 61], [2 ** 61 - 2 ** 31]]), "t",
                         axis=0).tolist() == [BELOW]
    with pytest.raises(IntegrityError, match="t"):
        checked_total(_dense([2 ** 62, 2 ** 62]), "t")


@pytest.mark.parametrize("wrap", [_csr, _dense])
def test_checked_scale_guard(wrap):
    out = checked_scale(wrap([[2 ** 31, 0]]), 2 ** 31 - 1, "s")
    assert (out.toarray() if sp.issparse(out) else out).tolist() == [[BELOW, 0]]
    with pytest.raises(IntegrityError, match="s"):
        checked_scale(wrap([[2 ** 32]]), 2 ** 32, "s")


@pytest.mark.parametrize("wrap", [_csr, _dense])
@pytest.mark.parametrize("r,top,wraps", [
    # top is the largest x whose falling factorial x...(x-r+1) is under 2**62
    (2, 2 ** 31, 2 ** 32),
    (3, 1_664_511, 3_000_000),
])
def test_checked_binom_guard(wrap, r, top, wraps):
    out = checked_binom(wrap([[top, 1, 0]]), r, "b")
    got = out.toarray() if sp.issparse(out) else out
    assert got.tolist() == [[comb(top, r), comb(1, r), 0]]
    with pytest.raises(IntegrityError, match="b"):
        checked_binom(wrap([[top + 1]]), r, "b")
    with pytest.raises(IntegrityError, match="b"):
        checked_binom(wrap([[wraps]]), r, "b")


def test_evaluator_binom_node_refuses_instead_of_wrapping():
    ev = Evaluator(EdgeSpace(complete_graph(3)))
    assert set(ev.eval(("binom", ("scale", "B", 1_664_511, 1), 3)).data) == {
        comb(1_664_511, 3)}
    with pytest.raises(IntegrityError, match="binom"):
        ev.eval(("binom", ("scale", "B", 3_000_000, 1), 3))


@settings(max_examples=40, deadline=None)
@given(differential_hosts())
@example(er_graph(9, 0.5, 61))
@example(er_graph(12, 0.4, 62))
def test_run_changes_no_value(g):
    """Evaluator.run yields what plain eval computes, for the census mains,
    each order's compiled catalog entries and the trace terms."""
    space = EdgeSpace(g)
    sequences = [[main for _, main, _, _ in CORRECTIONS],
                 [term for _, term in TRACE_TERMS]]
    for order in (3, 4, 5):
        edge, vertex = catalog.entries_for_order(order)
        entries = {**edge, **vertex}
        sequences.append([compiled(entries, mid) for mid in entries])
    for exprs in sequences:
        plain = Evaluator(space)
        for expr, got in zip(exprs, Evaluator(space).run(exprs)):
            assert np.array_equal(got, plain.eval(expr)), expr


def test_run_drops_each_node_after_its_last_reader():
    """While the trace terms run, no walk block above P_3 is held whole:
    P_4, P_5 and the products P_3 A and P_4 A are row-local in the one
    "byrows" pass of the terms that read P_4, which forms P_3[lo:hi] A once
    per block; P_2 and P_3 are atoms, which the space keeps and the run
    never holds; the memo is empty after."""
    P = trace_blocks()
    held, at_blocks, blocks, products = set(), set(), [], []

    class Spy(Evaluator):
        def _eval(self, expr):
            val = super()._eval(expr)
            held.update(self._memo)
            return val

        def _apply(self, expr, block=None):
            if block is not None:
                at_blocks.update(self._memo)
            return super()._apply(expr, block)

        def _row_blocks(self, local):
            out = super()._row_blocks(local)
            blocks.append(out)
            return out

    def spy(A, B, label, stats=None):
        products.append(getattr(label, "node", label))
        return checked_matmul(A, B, label, stats)

    space = EdgeSpace(er_graph(12, 0.4, 62))
    ev = Spy(space)
    with mock.patch.object(edge_matrix, "BLOCK_CELLS", 60), \
            mock.patch.object(edge_matrix, "checked_matmul", spy):
        list(ev.run(term for _, term in TRACE_TERMS))
    assert {term[1] for _, term in TRACE_TERMS if term[0] == "part"} == {
        P4_PASS}
    for never in (P[4], P[5], ("mm", P[3], "A"), ("mm", P[4], "A"),
                  ("mm", P[2], "C"), ("mm", P[3], "C")):
        assert never not in held, never
    assert not at_blocks, at_blocks
    (pass_blocks,) = blocks
    assert len(pass_blocks) > 1
    assert products.count(("mm", P[3], "A")) == len(pass_blocks)
    assert products.count(("mm", P[4], "A")) == len(pass_blocks)
    assert {ATOMS[p][0] for p in P[2:4]} <= set(space._cache)
    assert not ev._memo and not ev._readers


def test_a_row_local_node_read_twice_is_formed_once_per_block():
    """In ("had", X, X) with X row-local, a block forms its rows of X once
    and reads them twice."""
    g, X = petersen_graph(), ("mm", "B", "B")
    products, blocks = [], []

    class Spy(Evaluator):
        def _row_blocks(self, local):
            out = super()._row_blocks(local)
            blocks.extend(out)
            return out

    def spy(A, B, label, stats=None):
        products.append(getattr(label, "node", label))
        return checked_matmul(A, B, label, stats)

    with mock.patch.object(edge_matrix, "BLOCK_CELLS", 7), \
            mock.patch.object(edge_matrix, "checked_matmul", spy):
        got = Spy(EdgeSpace(g)).eval(
            ("part", ("byrows", ("totals", ("total", ("had", X, X)))), 0))
    B2 = brute_B(g) @ brute_B(g)
    assert got == int((B2 * B2).sum())
    assert len(blocks) > 1 and products.count(X) == len(blocks)


def test_a_row_blocked_tree_slices_dense_operands():
    """A dense operand's row weighs its width: the total of c o c (c = 1 - d)
    by blocks of rows is the sum of the squares of 1 - d."""
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    ev = Evaluator(EdgeSpace(g))
    assert ev.eval(("total", ("had", "c", "c"))) == 10
    with mock.patch.object(edge_matrix, "BLOCK_CELLS", 1):
        assert ev.eval(("part", ("byrows", ("totals", (
            "total", ("had", "c", "c")))), 0)) == 10


def test_row_blocks_of_a_vector_are_refused():
    """"byrows" stacks a matrix or sums "totals": a vector X, such as the
    row sums of tri, is a ValueError that names the node."""
    node = ("byrows", ("rowsum", "tri"))
    with pytest.raises(ValueError, match=re.escape(repr(node))):
        Evaluator(EdgeSpace(petersen_graph())).eval(node)


def test_a_product_of_a_row_local_factor_weighs_its_right_width():
    """A product L A with L row-local weighs A's width per row: on the
    Petersen graph (n = 10, degree 3) a row of ("mm", ("had", A, A), A)
    weighs the 2 x 3 entries of the sliced A rows plus 10, so blocks of
    16 cells hold one row each (without the product's weight, two)."""
    x = ("total", ("mm", ("had", "A", "A"), "A"))
    ev = Evaluator(EdgeSpace(petersen_graph()))
    with mock.patch.object(edge_matrix, "BLOCK_CELLS", 16):
        blocks = ev._row_blocks(edge_matrix._row_plan(("totals", x)))
        assert ev.eval(("part", ("byrows", ("totals", x)), 0)) == ev.eval(
            x) == 90
    assert blocks == [(v, v + 1) for v in range(10)]


def test_trace_table_holds_no_p4_whole():
    """On a uniform graph of 3000 vertices and 9000 edges the trace table,
    atoms included, peaks (tracemalloc) below the bytes that P_4 would take
    whole, nnz(P_4) (8 + 4): its int64 values and int32 column indices.
    About 2 s."""
    n, rng, edges = 3000, random.Random(5), set()
    while len(edges) < 3 * n:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    g = Graph(n, sorted(edges))
    space = EdgeSpace(g)
    tracemalloc.start()
    try:
        space._trace_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    P4 = Evaluator(EdgeSpace(g)).eval(trace_blocks()[4])
    assert P4.indices.dtype == np.int32
    assert peak < P4.nnz * (8 + 4), (peak, P4.nnz)


def test_refusing_blocks_hold_no_rows():
    """On K_200 the total of H_9 = P_5 o P_4 is refused in each of the 50
    blocks of the trace pass (BLOCK_CELLS patched to 4096). The refusals
    kept until the pass ends hold no traceback, so the blocks together
    peak (tracemalloc, from the cut of the blocks on) below the bytes of
    P_4 whole; holding each refusing block's frames with its rows of P_4
    and P_5 takes about 2.6 times that."""
    space = EdgeSpace(complete_graph(200))
    P4 = Evaluator(space).eval(trace_blocks()[4])

    class Spy(Evaluator):
        def _row_blocks(self, local):
            out = super()._row_blocks(local)
            blocks.extend(out)
            tracemalloc.reset_peak()
            return out

    blocks = []
    tracemalloc.start()
    try:
        with mock.patch.object(edge_matrix, "BLOCK_CELLS", 4096):
            totals = Spy(space).eval(P4_PASS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) == 50
    assert [isinstance(t, IntegrityError) for t in totals] == [
        False, False, False, True]
    assert "entry total bound" in str(totals[3])
    assert peak < P4.nnz * (8 + 4), (peak, P4.nnz)


def test_each_walk_block_is_formed_once_per_census():
    """The trace table and the masked powers read the same P_2 and P_3, the
    atoms: a census forms the product A A once."""
    space = EdgeSpace(er_graph(12, 0.4, 62))
    labels = []

    def spy(A, B, label, stats=None):
        labels.append(getattr(label, "node", label))
        return checked_matmul(A, B, label, stats)

    with mock.patch.object(edge_matrix, "checked_matmul", spy):
        full_census(space)
    assert labels.count(("mm", "A", "A")) == 1
    assert {ATOMS[p][0] for p in ("A", "P2", "P3")} <= set(space._cache)


def test_run_yields_a_refusal_and_goes_on():
    ev = Evaluator(EdgeSpace(complete_graph(3)))
    bad = ("div", ("rowsum", "B"), 7)
    first, ok, again = ev.run([bad, ("rowsum", "B"), bad])
    assert isinstance(first, IntegrityError) and str(first) == str(again)
    assert str(first).startswith(repr(bad))
    assert list(ok) == [1] * 6
    assert not ev._memo
