"""Edge-list parsing and the directed-edge numbering."""

import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nbcensus.graphs import (DirectedEdgeIndex, Graph, GraphError,
                             load_graph, path2_count)


def test_parse_labels_in_order_of_appearance():
    g = load_graph(io.StringIO("a b\nb c\na c  # closing edge\n\n"))
    assert (g.n, g.m) == (3, 3)
    assert g.labels == ("a", "b", "c")


def test_parse_collapses_duplicate_edges():
    g = load_graph(["x y\n", "y x\n", "x y\n"])
    assert g.m == 1


def test_self_loop_rejected_with_line_number():
    with pytest.raises(GraphError, match="line 2"):
        load_graph(["a b\n", "c c\n"])


def test_malformed_line_rejected():
    with pytest.raises(GraphError, match="two vertex tokens"):
        load_graph(["a b c\n"])


def test_graph_rejects_out_of_range_edge():
    with pytest.raises(GraphError):
        Graph(2, [(0, 2)])


def test_reversal_is_xor_one():
    idx = DirectedEdgeIndex(Graph(3, [(0, 1), (1, 2)]))
    for e in range(idx.size):
        assert idx.rev[e] == e ^ 1
        assert idx.tail[e] == idx.head[e ^ 1]
        assert idx.head[e] == idx.tail[e ^ 1]


def test_id_of_inverts_endpoints():
    idx = DirectedEdgeIndex(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert idx.size == 8
    for e in range(idx.size):
        assert idx.id_of[(idx.tail[e], idx.head[e])] == e


def test_edge_labels_use_original_tokens():
    g = load_graph(["left right\n"])
    idx = DirectedEdgeIndex(g)
    assert idx.labels[0] == "left->right"
    assert idx.labels[1] == "right->left"


@pytest.mark.parametrize("g", [
    Graph(0, []),
    Graph(6, [(4, 1), (1, 3)]),  # vertices 0, 2 and 5 are isolated
    Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
], ids=["empty", "isolated", "K4"])
def test_index_arrays(g):
    idx = DirectedEdgeIndex(g)
    for arr in (idx.tail, idx.head, idx.rev):
        assert arr.dtype == np.int64 and arr.shape == (2 * g.m,)
    assert idx.size == 2 * g.m
    assert np.array_equal(idx.rev, np.arange(2 * g.m) ^ 1)
    pairs = [p for u, v in g.edges for p in ((u, v), (v, u))]
    assert list(zip(idx.tail.tolist(), idx.head.tolist())) == pairs
    assert idx.id_of == {p: e for e, p in enumerate(pairs)}
    assert idx.labels == tuple(f"{g.labels[t]}->{g.labels[h]}"
                               for t, h in pairs)


def test_arrow_token_rejected_with_line_number():
    with pytest.raises(GraphError,
                       match=r"line 2: vertex token 'x->b' contains '->'"):
        load_graph(["a b\n", "a x->b\n"])


def test_non_utf8_file_names_the_byte_offset(tmp_path):
    path = tmp_path / "bad.txt"
    # the bad byte sits past the text reader's first 8 KiB chunk
    path.write_bytes(b"a b\n" * 3000 + b"c \xff\n")
    with pytest.raises(GraphError, match="byte 0xff at offset 12002 "):
        load_graph(str(path))


def test_path2_count_is_the_nonbacktracking_pair_count():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    idx = DirectedEdgeIndex(g)
    brute = sum(1
                for e in range(idx.size)
                for f in range(idx.size)
                if idx.head[e] == idx.tail[f] and f != (e ^ 1))
    assert path2_count(g) == brute


_name = st.text(alphabet="abcdefgh", min_size=1, max_size=2)


@given(st.lists(st.tuples(_name, _name).filter(lambda t: t[0] != t[1]),
                min_size=1, max_size=20))
def test_parser_keeps_every_listed_edge(pairs):
    text = "".join(f"{a} {b}\n" for a, b in pairs)
    g = load_graph(io.StringIO(text))
    pos = {lab: v for v, lab in enumerate(g.labels)}
    for a, b in pairs:
        assert g.has_edge(pos[a], pos[b])
    assert g.m <= len(pairs)
