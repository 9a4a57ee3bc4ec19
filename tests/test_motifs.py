"""Catalog evaluation: rooted motif counts from edge-step matrices."""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import (complete_graph, cycle_graph, differential_hosts,
                      er_graph, wheel_graph)
from nbcensus import catalog, connection, edge_matrix
from nbcensus.catalog import _B1, _SQL, _SQR, _TRI1, _WEDGE1
from nbcensus.connection import RootedGraph, ScaleGuardError, kappa_direct
from nbcensus.cycle_census import CORRECTIONS, DIAGONALS, full_census
from nbcensus.edge_matrix import ATOMS, MEETS, EdgeSpace, Evaluator
from nbcensus.graphs import Graph
from nbcensus.motifs import (K6, compiled, eval_k6_edge, eval_order6_edge,
                             evaluate_catalog)
from nbcensus.oracle import edge_rooted_vector, vertex_rooted_vector


def order_values(space, order):
    """Every order-``order`` catalog id, edge- and vertex-rooted, evaluated."""
    edge, vertex = catalog.entries_for_order(order)
    return evaluate_catalog(space, {**edge, **vertex})


def assert_against_oracle(values, g):
    for mid, got in values.items():
        pattern, root = catalog.pattern_for(mid)
        if len(root) == 2:
            want = edge_rooted_vector(pattern, (root[0], root[1]), g)
        else:
            want = vertex_rooted_vector(pattern, root[0], g)
        assert list(got) == list(want), mid


def test_order3_on_triangle():
    res = order_values(EdgeSpace(complete_graph(3)), 3)
    assert list(res["C3"]) == [1] * 6
    assert list(res["P3"]) == [1] * 6
    assert list(res["P3r"]) == [1] * 6
    assert list(res["P3v"]) == [2, 2, 2]
    assert list(res["P3rv"]) == [1, 1, 1]
    assert list(res["C3v"]) == [1, 1, 1]


def test_order3_on_k4():
    res = order_values(EdgeSpace(complete_graph(4)), 3)
    for tag in ("P3", "P3r", "C3"):
        assert set(res[tag]) == {2}
    assert res["P3v"].sum() == 4 * 6
    assert res["P3rv"].sum() == 4 * 3
    assert res["C3v"].sum() == 4 * 3


def test_catalog_band_sizes():
    for order, (ne, nv) in {3: (3, 3), 4: (15, 11), 5: (90, 55)}.items():
        edge, vertex = catalog.entries_for_order(order)
        assert (len(edge), len(vertex)) == (ne, nv)
    assert len(catalog.all_ids()) == 3 + 3 + 15 + 11 + 90 + 55


def test_entries_for_unknown_order():
    with pytest.raises(ValueError):
        catalog.entries_for_order(6)


def test_every_id_has_a_coherent_frozen_pattern():
    for order in (3, 4, 5):
        edge, vertex = catalog.entries_for_order(order)
        for mid in edge:
            g, root = catalog.pattern_for(mid)
            assert g.n == order
            assert len(root) == 2 and g.has_edge(*root), mid
        for mid in vertex:
            g, root = catalog.pattern_for(mid)
            assert g.n == order
            assert len(root) == 1 and 0 <= root[0] < g.n, mid


@pytest.mark.parametrize("g", [
    complete_graph(4),
    cycle_graph(6),
    er_graph(7, 0.5, 91),
    er_graph(8, 0.4, 92),
    Graph(0, []),
    Graph(3, []),
    Graph(7, [(0, 1), (1, 2), (1, 3), (4, 5)]),
])
def test_order3_and_4_match_oracle(g):
    space = EdgeSpace(g)
    assert_against_oracle(order_values(space, 3), g)
    assert_against_oracle(order_values(space, 4), g)


def test_order5_matches_oracle_on_wheel():
    g = wheel_graph(5)
    assert_against_oracle(order_values(EdgeSpace(g), 5), g)


def test_evaluate_catalog_collects_bad_divisions():
    entries = {
        "base": {"kind": "expr", "expr": ("rowsum", "B")},
        "broken": {"kind": "gamma_of", "of": "base", "num": 1, "den": 7},
    }
    errors = {}
    values = evaluate_catalog(EdgeSpace(complete_graph(3)), entries, errors)
    assert list(values["base"]) == [1] * 6
    assert "broken" not in values
    assert "broken" in errors and "divisible" in errors["broken"]
    # the refused vertex link names its node, as every guard does
    assert errors["broken"].startswith(repr(compiled(entries, "broken"))[:80])


def test_a_refused_entrys_partners_are_refused_alike():
    entries = {
        "bad": {"kind": "expr", "expr": ("div", ("rowsum", "B"), 7)},
        "rev": {"kind": "rowrev_of", "of": "bad"},
        "vtx": {"kind": "gamma_of", "of": "rev", "num": 1, "den": 2},
        "ok": {"kind": "expr", "expr": ("rowsum", "B")},
    }
    errors = {}
    values = evaluate_catalog(EdgeSpace(complete_graph(3)), entries, errors)
    assert set(values) == {"ok"}
    assert errors["rev"] == errors["vtx"] == errors["bad"]


def test_pair_connection_matrix_path_pairs():
    # 4-vertex path, all four vertices rooted: every entry pins one copy
    g = cycle_graph(4)
    pattern = Graph(4, [(0, 1), (1, 2), (2, 3)])
    M = kappa_direct(RootedGraph(pattern, (0, 1), (2, 3)), g).data
    total = int(M.sum())
    # 4-cycle holds 4 paths on 4 vertices, 2 directed orientations each
    assert total == 8


def test_k6_fixtures():
    assert list(eval_k6_edge(EdgeSpace(complete_graph(6))).values) == [1] * 30
    assert list(eval_k6_edge(EdgeSpace(complete_graph(7))).values) == [5] * 42
    sparse = er_graph(9, 0.5, 93)
    assert eval_k6_edge(EdgeSpace(sparse)).total >= 0


@pytest.mark.parametrize("pattern,root", [
    (cycle_graph(6), (0, 1)),
    (Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),
     (0, 3)),
])
def test_order6_matches_oracle(pattern, root):
    g = er_graph(8, 0.55, 94)
    res = eval_order6_edge(EdgeSpace(g), RootedGraph(pattern, root, ()))
    assert list(res.values) == edge_rooted_vector(pattern, root, g)


def test_order6_input_validation():
    space = EdgeSpace(complete_graph(6))
    with pytest.raises(ValueError, match="order 6"):
        eval_order6_edge(space, RootedGraph(complete_graph(5), (0, 1), ()))
    hexagon = cycle_graph(6)
    with pytest.raises(ValueError, match="root"):
        eval_order6_edge(space, RootedGraph(hexagon, (0, 2), ()))
    with pytest.raises(ValueError, match="edge-rooted"):
        eval_order6_edge(space, RootedGraph(hexagon, (0, 1), (3,)))


def test_order6_refuses_hosts_above_the_cell_budget(monkeypatch):
    """Each order-4 block holds n^4 cells: 32^4 is over the budget, and the
    refusal comes before any embedding is enumerated."""
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("embeddings enumerated before the budget check")
    monkeypatch.setattr(connection, "embeddings", enumerate_nothing)
    with pytest.raises(ScaleGuardError, match="32\\^4 cells"):
        eval_order6_edge(EdgeSpace(cycle_graph(32)),
                         RootedGraph(cycle_graph(6), (0, 1), ()))


def test_k6_against_order6_evaluator():
    g = er_graph(8, 0.75, 95)
    space = EdgeSpace(g)
    via_steps = eval_k6_edge(space)
    via_pairs = eval_order6_edge(space, RootedGraph(complete_graph(6),
                                                   (0, 1), ()))
    assert list(via_steps.values) == list(via_pairs.values)


@settings(max_examples=60, deadline=None)
@given(differential_hosts())
@example(Graph(0, []))
@example(complete_graph(8))
def test_catalog_matches_oracle_on_degenerate_hosts(g):
    space = EdgeSpace(g)
    for order in (3, 4, 5):
        assert_against_oracle(order_values(space, order), g)
    assert list(eval_k6_edge(space).values) == edge_rooted_vector(
        complete_graph(6), (0, 1), g)


# The eight entries that read B^3 or the chordless three-step before both
# became masked products over B^2, as they read then.
_PAIRED = ("had", ("mm", "tri", ("rowrev", "tri")), ("T", "B"))
_CUBE_MASKED = ("had", ("had", "B3", "B2"), ("T", "B"))
B3_TREES = {
    "X031": ("rowsum", "chordless3"),
    "X041": ("div", ("rowsum", ("had", "chordless3", ("colrev", "B2"))), 2),
    "X045": ("colsum", ("had", "chordless3", ("colrev", "B2"))),
    "X061": ("rowsum", ("had", "B3", ("T", "B2"))),
    "X121": ("colsum", ("sub", ("had", "B3", _PAIRED), _PAIRED)),
    "X137": ("rowsum", ("sub", ("sub", ("mm", _CUBE_MASKED, "tri"),
                                _CUBE_MASKED), "crossed")),
    "X183": ("rowsum", ("sub", ("hadnot", ("mm", ("had", "B3", ("T", "B")),
                                           "tri"), "B"), _SQL)),
    "X191": ("colsum", ("binom", ("had", "B3", ("T", "B")), 2)),
}


@settings(max_examples=60, deadline=None)
@given(differential_hosts())
@example(Graph(0, []))
@example(wheel_graph(6))
@example(er_graph(9, 0.6, 96))
def test_masked_entries_match_the_b3_trees(g):
    ev = Evaluator(EdgeSpace(g))
    for mid, old in B3_TREES.items():
        got = ev.eval(catalog.EDGE_ORDER5[mid]["expr"])
        assert np.array_equal(got, ev.eval(old)), mid


@settings(max_examples=60, deadline=None)
@given(differential_hosts())
@example(Graph(0, []))
@example(wheel_graph(6))
@example(er_graph(9, 0.6, 96))
def test_x061_is_the_fifth_diagonal(g):
    """X061 and d5 are one masked product: B^3 read at the mask (B^2)^T."""
    ev = Evaluator(EdgeSpace(g))
    got = ev.eval(catalog.EDGE_ORDER5["X061"]["expr"])
    assert np.array_equal(got, ev.eval(DIAGONALS[5]))


def atoms_read(tree):
    """The atom names a tree reads, through the ATOMS definitions."""
    if isinstance(tree, str):
        yield tree
        if tree in ATOMS:
            yield from atoms_read(ATOMS[tree][1])
    elif isinstance(tree, tuple):
        for child in tree[1:]:
            yield from atoms_read(child)


def test_no_tree_reads_b4_and_the_catalog_reads_no_cube():
    assert "B4" not in ATOMS
    for name, main, _, _ in CORRECTIONS:
        assert "B4" not in set(atoms_read(main)), name
    for order in (3, 4, 5):
        for mid, entry in catalog.entries_for_order(order)[0].items():
            read = set(atoms_read(entry.get("expr")))
            assert not read & {"B3", "B4", "chordless3"}, mid


# the gamma link: rowrev(H)^T sums an edge vector over each vertex's
# outgoing edges
GAMMA_LINK = ("T", ("rowrev", "H"))


def _without_gamma_links(tree):
    if tree == GAMMA_LINK:
        return "gamma"
    if isinstance(tree, tuple):
        return tuple(_without_gamma_links(x) for x in tree)
    return tree


def count_trees() -> list:
    """Every census main, diagonal and compiled catalog expression."""
    trees = [main for _, main, _, _ in CORRECTIONS] + list(DIAGONALS.values())
    for order in (3, 4, 5):
        entries = {**catalog.entries_for_order(order)[0],
                   **catalog.entries_for_order(order)[1]}
        trees += [compiled(entries, mid) for mid in entries]
    return trees


def nodes(expr):
    """``expr`` and every tuple node below it."""
    if isinstance(expr, tuple):
        yield expr
        for child in expr[1:]:
            yield from nodes(child)


def test_no_count_reads_b3_or_h():
    """No census main, diagonal or compiled catalog expression reads B^3
    (through the ATOMS too) or the head incidence H, but for the catalog's
    gamma links: powers of B above B^2 are read as masked powers, and no
    node multiplies by H behind its reads."""
    for tree in map(_without_gamma_links, count_trees()):
        assert not {"B3", "H"} & set(atoms_read(tree)), tree


def test_counts_sum_before_products_and_mask_instead_of_copying():
    """No count takes the row or column sums of a product, sum or
    difference (the sum goes through it), reads the wedge step, masks a
    power by MEETS (its four disjoint parts are summed apart) or reads a
    whole reversal of B^2 at a mask."""
    copies = {(op, "B2") for op in ("rowrev", "colrev")}
    for tree in count_trees():
        assert "wedge" not in set(atoms_read(tree)), tree
        for node in nodes(tree):
            if node[0] in ("rowsum", "colsum") and isinstance(node[1], tuple):
                assert node[1][0] not in ("mm", "add", "sub"), node
            if node[0] == "bpow":
                assert node[1] != MEETS, node
            if node[0] in ("had", "hadnot", "bpow"):
                assert not copies & set(node[1:3]), node


def hub_graph(hubs: int = 3, n: int = 60, reach: int = 25) -> Graph:
    """A few high-degree hubs over a sparse random background."""
    background = er_graph(n, 0.06, 97)
    edges = list(background.edges)
    for h in range(hubs):
        edges += [(h, v) for v in range(hubs + h, n, 2)][:reach]
    return Graph(n, edges)


# The entries that summed a product, sum or difference, read the wedge
# step, masked B^3 by MEETS or read a whole reversal of B^2 or B^2 itself at
# a mask, as they read before each sum went through and each mask replaced
# a copy; the shared subtrees are compared too, as every entry reading them
# changed. X041 and X045 read the chordless three-step masked by colrev(B^2).
_COPY_SQL = ("had", "square", ("rowrev", "B2"))
_COPY_SQR = ("had", "square", ("colrev", "B2"))
_COPY_C3TWIN = ("hadnot", ("bpow", ("colrev", "B2"), 3), MEETS)
COPY_TREES = {
    "X21": ("rowsum", "wedge"),
    "X021": ("sub", ("had", ("rowsum", "wedge"), ("sshift", _B1, 1)),
             ("rowsum", "twin")),
    "X031": ("sub", ("mm", "B2", _B1), ("rowsum", ("bpow", MEETS, 3))),
    "X033": ("sub", ("sub", ("had", ("rowsum", "wedge"), ("rowrev", _B1)),
                     ("rowsum", "square")), ("rowsum", "texit")),
    "X041": ("div", ("rowsum", _COPY_C3TWIN), 2),
    "X045": ("colsum", _COPY_C3TWIN),
    "X055": ("div", ("rowsum", ("sub", ("mm", "texit", ("rowrev", "B")),
                                ("scale", "texit", 2, 1))), 2),
    "X091": ("div", ("rowsum", ("sub", ("mm", "crossed", "tri"),
                                ("scale", "crossed", 2, 1))), 2),
    "X095": ("div", ("sub", ("colsum", ("mm", "crossed", "tri")),
                     ("scale", ("rowsum", "crossed"), 2, 1)), 2),
    "X113": ("div", ("colsum", ("sub", ("mm", "crossed", "B"),
                                ("scale", "crossed", 2, 1))), 6),
    "X115": ("sub", ("rowsum", ("mm", "crossed", "B")),
             ("scale", ("colsum", "crossed"), 2, 1)),
    "X121": ("colsum", ("sub", ("bpow", _PAIRED, 3), _PAIRED)),
    "X123": ("div", ("colsum", ("had", ("mm", "square", "tri"), "B2")), 2),
    "X135": ("rowsum", ("sub", ("sub", ("mm", _COPY_SQL, "tri"), _COPY_SQL),
                        "crossed")),
    "X137": ("rowsum", ("sub", ("sub", ("mm", ("bpow", "tri", 3), "tri"),
                                ("bpow", "tri", 3)), "crossed")),
    "X161": ("div", ("colsum", ("sub", ("sub", ("mm", _COPY_SQR,
                                                ("rowrev", "B")),
                                        "crossed"), _COPY_SQR)), 2),
    "X165": ("rowsum", ("sub", ("hadnot", ("mm", _COPY_SQR, ("rowrev", "B")),
                                ("colrev", "B")), "crossed")),
    "X183": ("rowsum", ("sub", ("hadnot", ("mm", ("bpow", ("T", "B"), 3),
                                           "tri"), "B"), _COPY_SQL)),
    "X186": ("sub", ("had", _TRI1, ("rowsum", "square")),
             ("rowsum", ("had", "square",
                         ("add", ("colrev", "B2"), ("rowrev", "B2"))))),
    "X205": ("sub", ("had", _TRI1, ("rowsum", "wedge")),
             ("rowsum", ("add", "texit", _COPY_SQR))),
}


@settings(max_examples=60, deadline=None)
@given(differential_hosts())
@example(Graph(0, []))
@example(wheel_graph(6))
@example(er_graph(9, 0.6, 96))
@example(hub_graph())
def test_rewritten_entries_match_their_old_trees(g):
    ev = Evaluator(EdgeSpace(g))
    entries = {**catalog.EDGE_ORDER4, **catalog.EDGE_ORDER5}
    for mid, old in COPY_TREES.items():
        got = ev.eval(entries[mid]["expr"])
        assert np.array_equal(got, ev.eval(old)), mid
    for new, old in ((_SQL, _COPY_SQL), (_SQR, _COPY_SQR)):
        assert (ev.eval(new) != ev.eval(old)).nnz == 0, old
    assert np.array_equal(ev.eval(_WEDGE1), ev.eval(("rowsum", "wedge")))


def test_catalog_builds_no_cube_on_a_hub_graph():
    space = EdgeSpace(hub_graph())
    for order in (3, 4, 5):
        order_values(space, order)
    eval_k6_edge(space)
    assert ("pow", 2) not in space._cache
    assert ("pow", 3) not in space._cache
    assert "chordless_three_step" not in space._cache


def test_masked_powers_build_only_the_walk_blocks_they_read():
    """B^k at a mask reads the atoms of Q_(k-3)..Q_(k-1) alone: the order 3
    and 4 catalogs take masked powers with k <= 2, which read A, so P_2,
    P_3 and A C are first built by order 5; a lone masked square builds A
    and nothing else."""
    walks = {ATOMS[name][0] for name in ("P2", "P3", "AC")}
    space = EdgeSpace(hub_graph())
    for order in (3, 4):
        order_values(space, order)
    assert not walks & set(space._cache)
    order_values(space, 5)
    assert walks <= set(space._cache)
    space = EdgeSpace(hub_graph())
    space.bpow(space.B, 2, "B^2 at B")
    assert set(space._cache) == {"B", ATOMS["A"][0]}


def test_a_masked_powers_vertex_blocks_weigh_what_they_hold():
    """Each vertex block that bpow hands to a gather weighs at most
    BLOCK_CELLS: n cells of the gather buffer per vertex and 8 int64 words
    per mask entry of its edges' rows (pos, e, f, at, acc, q and two index
    arrays), unless it holds one vertex alone. Seen from a gather, a block
    starts at lo and reaches at least the last vertex whose rows it reads,
    and it holds the entries of ``at``."""
    g, cells, seen = hub_graph(), 1200, []
    gather = EdgeSpace._gather

    def spy(self, j, lo, rows, at, buf, label):
        seen.append((lo, int(rows.max()) - lo + 1, at.size))
        return gather(self, j, lo, rows, at, buf, label)

    with mock.patch.object(edge_matrix, "BLOCK_CELLS", cells), \
            mock.patch.object(EdgeSpace, "_gather", spy):
        space = EdgeSpace(g)
        for mask in ("B", ("T", "B"), "square", "I"):
            for k in (2, 5):
                Evaluator(space).eval(("bpow", mask, k))
    assert len(seen) > 20
    for lo, span, entries in seen:
        assert span == 1 or span * g.n + 8 * entries <= cells, (
            lo, span, entries)


def test_only_square_and_the_census_pass_form_rows_of_b_b():
    """tri, B^2 at B^T, is a masked power: building it forms no product
    B B. In a full census and the order 3..5 catalog on a hub graph, the
    products B B and B^T B^T are formed only by the blocks of rows of
    square and of the census's one pass over F20, F32 and F33, each once
    per block."""
    squares = (("mm", "B", "B"), ("mm", ("T", "B"), ("T", "B")))
    passes = {ATOMS["square"][1],
              {name: main for name, main, _, _ in CORRECTIONS}["F20"][1]}
    products, blocks, within = [], [], []  # within: the byrows nodes open
    apply, row_blocks = Evaluator._apply, Evaluator._row_blocks
    matmul = edge_matrix.checked_matmul

    def spy_apply(self, expr, block=None):
        if block is not None or expr[0] != "byrows":
            return apply(self, expr, block)
        within.append(expr)
        try:
            return apply(self, expr, block)
        finally:
            within.pop()

    def spy_row_blocks(self, local):
        out = row_blocks(self, local)
        blocks.extend([within[-1]] * len(out))
        return out

    def spy_matmul(A, B, label, stats=None):
        node = getattr(label, "node", label)
        if node in squares:
            products.append((node, within[-1] if within else None))
        return matmul(A, B, label, stats)

    with mock.patch.object(edge_matrix, "checked_matmul", spy_matmul):
        EdgeSpace(hub_graph()).atom("tri")
        assert products == []
        with mock.patch.object(Evaluator, "_apply", spy_apply), \
                mock.patch.object(Evaluator, "_row_blocks", spy_row_blocks):
            space = EdgeSpace(hub_graph())
            full_census(space)
            for order in (3, 4, 5):
                order_values(space, order)
    assert passes <= set(blocks)
    for node in squares:
        assert Counter(w for x, w in products if x == node) == Counter(
            b for b in blocks if b in passes), node


def test_catalog_and_k6_read_no_b2():
    """No order 3..5 entry, not k6 and no census main reads B^2, through
    the ATOMS too: tri is a masked power, square is built by blocks of
    rows, and twin and texit from tri; F20, F32 and F33 read their masks,
    (B^2)^T and B^2, by blocks of rows, and F19 reads B^2 only at the
    entries of its mask, as a masked power."""
    for order in (3, 4, 5):
        entries = {**catalog.entries_for_order(order)[0],
                   **catalog.entries_for_order(order)[1]}
        for mid in entries:
            assert "B2" not in set(atoms_read(compiled(entries, mid))), mid
    assert "B2" not in set(atoms_read(K6))
    assert {name for name, main, _, _ in CORRECTIONS
            if "B2" in set(atoms_read(main))} == set()


# The step matrices as they were built from the whole of B^2 and a whole
# transpose or reversal of it, before tri became a masked power, square
# was built by blocks of rows and twin and texit from tri.
WHOLE_STEPS = {
    "tri": ("had", "B2", ("T", "B")),
    "square": ("had", "B2", ("T", "B2")),
    "twin": ("had", "B2", ("colrev", "B2")),
    "texit": ("had", "B2", ("rowrev", "B2")),
}


@settings(max_examples=40, deadline=None)
@given(differential_hosts())
@example(Graph(0, []))
@example(wheel_graph(6))
@example(er_graph(9, 0.6, 96))
@example(hub_graph())
def test_step_matrices_match_their_whole_definitions(g):
    """With blocks of a few cells, so many blocks of rows, the step
    matrices equal their definitions from the whole of B^2."""
    with mock.patch.object(edge_matrix, "BLOCK_CELLS", 7):
        space = EdgeSpace(g)
        for name, whole in WHOLE_STEPS.items():
            got = space.atom(name)
            assert got.dtype == np.int64, name
            assert (got != Evaluator(space).eval(whole)).nnz == 0, name


# The five entries that sum texit B, as they read it whole before their sums
# became the parts of one row-blocked pass.
_WHOLE_TEXIT_B = ("mm", "texit", "B")
_WHOLE_TEXIT_B_FREE = ("hadnot", ("hadnot", ("hadnot", ("hadnot", (
    _WHOLE_TEXIT_B), "B"), ("rowrev", "B")), ("colrev", "B")), ("T", "B"))
WHOLE_TEXIT_B_SUMS = {
    "X081": ("div", ("rowsum", ("had", "crossed", _WHOLE_TEXIT_B)), 2),
    "X082": ("div", ("colsum", ("had", "crossed", _WHOLE_TEXIT_B)), 2),
    "X124": ("div", ("colsum", ("had", "square", _WHOLE_TEXIT_B)), 2),
    "X201": ("div", ("colsum", _WHOLE_TEXIT_B_FREE), 2),
    "X207": ("rowsum", _WHOLE_TEXIT_B_FREE),
}


@settings(max_examples=40, deadline=None)
@given(differential_hosts())
@example(Graph(0, []))
@example(wheel_graph(6))
@example(er_graph(9, 0.6, 96))
@example(hub_graph())
def test_texit_b_sums_match_their_whole_trees(g):
    """With blocks of a few cells, so many blocks of rows, the five sums
    over texit B that one "byrows" pass takes equal their whole trees."""
    with mock.patch.object(edge_matrix, "BLOCK_CELLS", 7):
        ev = Evaluator(EdgeSpace(g))
        for mid, whole in WHOLE_TEXIT_B_SUMS.items():
            got = ev.eval(catalog.EDGE_ORDER5[mid]["expr"])
            want = ev.eval(whole)
            assert got.dtype == want.dtype == np.int64, mid
            assert np.array_equal(got, want), mid


def test_texit_b_is_formed_only_by_the_blocks_of_its_sums():
    """In the order-5 catalog on a hub graph, texit B is formed only by the
    blocks of rows of the one pass over its five sums, once per block."""
    product = ("mm", "texit", "B")
    passes, blocks = [], []  # passes: the byrows nodes open
    apply, row_blocks = Evaluator._apply, Evaluator._row_blocks
    matmul = edge_matrix.checked_matmul

    def spy_apply(self, expr, block=None):
        if block is not None or expr[0] != "byrows":
            return apply(self, expr, block)
        passes.append(expr)
        try:
            return apply(self, expr, block)
        finally:
            passes.pop()

    def spy_row_blocks(self, local):
        out = row_blocks(self, local)
        blocks.extend([passes[-1]] * len(out))
        return out

    formed = []

    def spy_matmul(A, B, label, stats=None):
        if getattr(label, "node", label) == product:
            formed.append(passes[-1] if passes else None)
        return matmul(A, B, label, stats)

    with mock.patch.object(edge_matrix, "BLOCK_CELLS", 2000), \
            mock.patch.object(edge_matrix, "checked_matmul", spy_matmul), \
            mock.patch.object(Evaluator, "_apply", spy_apply), \
            mock.patch.object(Evaluator, "_row_blocks", spy_row_blocks):
        order_values(EdgeSpace(hub_graph()), 5)
    (sums,) = {node for node in formed}
    assert sums is not None and sums[1][0] == "totals"
    assert len(formed) == blocks.count(sums) > 1
