"""Cycle totals C3..C9 from traces, with the correction-shape machinery.

Every correction count is a plain subgraph count, so the oracle can
certify each one independently before they are combined into cycles.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings

from conftest import (complete_graph, cycle_graph, differential_hosts,
                      er_graph, petersen_graph, wheel_graph)
from nbcensus.catalog import _SQL, _SQR
from nbcensus.cycle_census import (_QLOOP, C_NAMES, CORRECTIONS, DIAGONALS,
                                   F_NAMES, _form, _inner, class_shape,
                                   class_walk_multiplicity,
                                   eval_walk_corrections, full_census,
                                   printed_f15_value, walk_class_oracle)
from nbcensus.edge_matrix import ATOMS, EdgeSpace, Evaluator
from test_motifs import _COPY_SQL, _COPY_SQR, hub_graph, nodes
from nbcensus.graphs import Graph
from nbcensus.oracle import count_copies, simple_cycle_census

ALL_CLASSES = F_NAMES + ("C5", "C6", "C7", "C8", "C9")


def census_dict(g: Graph) -> dict[str, int]:
    brute = simple_cycle_census(g)
    return {f"C{k}": brute[k] for k in range(3, 10)}


def test_fixture_k4():
    rep = full_census(EdgeSpace(complete_graph(4)))
    assert rep.cycle_counts == {"C3": 4, "C4": 3, "C5": 0, "C6": 0,
                                "C7": 0, "C8": 0, "C9": 0}


def test_fixture_nine_ring():
    rep = full_census(EdgeSpace(cycle_graph(9)))
    assert rep.cycle_counts == {"C3": 0, "C4": 0, "C5": 0, "C6": 0,
                                "C7": 0, "C8": 0, "C9": 1}
    assert all(v == 0 for v in rep.f_counts.values())


def test_fixture_petersen():
    rep = full_census(EdgeSpace(petersen_graph()))
    assert [rep.cycle_counts[c] for c in C_NAMES] == [0, 0, 12, 10, 0, 15, 20]


def test_bipartite_has_even_cycles_only():
    k33 = Graph(6, [(a, b + 3) for a in range(3) for b in range(3)])
    rep = full_census(EdgeSpace(k33))
    assert rep.cycle_counts == {"C3": 0, "C4": 9, "C5": 0, "C6": 6,
                                "C7": 0, "C8": 0, "C9": 0}


@pytest.mark.parametrize("g", [
    er_graph(8, 0.5, 57),
    er_graph(9, 0.4, 58),
    er_graph(10, 0.35, 59),
    wheel_graph(7),
    Graph(0, []),
    Graph(3, []),
    Graph(7, [(0, 1), (1, 2), (1, 3), (4, 5)]),
])
def test_census_matches_brute_force(g):
    rep = full_census(EdgeSpace(g))
    assert rep.cycle_counts == census_dict(g)


@settings(max_examples=60, deadline=None)
@given(differential_hosts())
@example(Graph(0, []))
def test_census_matches_brute_force_on_degenerate_hosts(g):
    assert full_census(EdgeSpace(g)).cycle_counts == census_dict(g)


class DensePowerSpace(EdgeSpace):
    """An EdgeSpace that also answers "B4", "B5" and "B6", from dense
    powers."""

    def atom(self, name):
        if name in ("B4", "B5", "B6"):
            return sp.csr_matrix(np.linalg.matrix_power(self.B.toarray(),
                                                        int(name[1])))
        return super().atom(name)


# F23's and F29's main terms as they read B^4 before the masked product
B4_MAINS = {
    "F23": ("total", ("had", _SQR, "B4")),
    "F29": ("total", ("had", ("had", ("had", "B", "B4"), ("rowrev", "B3")),
                      ("colrev", "B3"))),
}
# the 2m-long gathers as entries of whole powers: the diagonals of B^5 and
# B^6, and B^4[e, rev e], which F21 and F22 read
POWER_GATHERS = (
    (DIAGONALS[5], ("rowsum", ("had", "I", "B5"))),
    (DIAGONALS[6], ("rowsum", ("had", "I", "B6"))),
    (_QLOOP, ("rowsum", ("had", ("colrev", "I"), "B4"))),
)


@settings(max_examples=60, deadline=None)
@given(differential_hosts())
@example(Graph(0, []))
@example(er_graph(9, 0.5, 61))
@example(wheel_graph(6))
def test_masked_mains_match_the_b4_mains(g):
    ev = Evaluator(DensePowerSpace(g))
    table = {name: main for name, main, _, _ in CORRECTIONS}
    for name, old in B4_MAINS.items():
        assert ev.eval(table[name]) == ev.eval(old), name
    for new, old in POWER_GATHERS:
        assert np.array_equal(ev.eval(new), ev.eval(old)), new


# the main terms, and the d5 and d6 definitions, as they read before every
# transpose and reversal moved off B^3
_OLD_PNT = ("had", ("had", ("had", "B2", ("T", "B3")), ("rowrev", "B2")),
            ("colrev", "B2"))
_OLD_SQTT = ("had", ("colrev", "square"), "B3")
# the main terms as they read B^3 at a mask before the masked products,
# now masked powers ("bpow", M, 3), and the binomials taken after the mask
_B3_PNT = ("had", ("had", ("had", "B3", ("T", "B2")), ("rowrev", "B2")),
           ("colrev", "B2"))
_B3_QLOOP = ("rowsum", ("had", "B3", ("colrev", "B")))
# B o B^4, which the mains read before the masked powers as the masked
# product of B and B^3 B
_B_B4 = ("had", "B", ("mm", "B3", "B"))
OLD_MAINS = (
    ("F12", ("total", ("had", "square", ("binom", ("colrev", "B3"), 2)))),
    ("F18", ("total", _OLD_PNT)),
    ("F19", ("total", ("had", _OLD_PNT, ("T", "B2")))),
    ("F20", ("total", ("had", "B2", ("binom", ("T", "B3"), 2)))),
    ("F24", ("total", ("had", _OLD_SQTT, ("colrev", "B3")))),
    ("F29", ("total", ("had", ("had", _B_B4, ("rowrev", "B3")),
                       ("colrev", "B3")))),
    ("F9", ("total", ("had", _SQR, "B3"))),
    ("F10", ("total", _OLD_SQTT)),
    ("F12", ("total", ("had", ("colrev", "square"), ("binom", "B3", 2)))),
    ("F13", ("total", ("had", "square", ("binom", "B3", 2)))),
    ("F18", ("total", _B3_PNT)),
    ("F19", ("total", ("had", _B3_PNT, "B2"))),
    ("F20", ("total", ("had", ("T", "B2"), ("binom", "B3", 2)))),
    ("F21", _inner(_B3_QLOOP, ("rowsum", _SQR))),
    ("F22", _inner(_B3_QLOOP, ("rowsum", _SQL))),
    ("F24", ("total", ("had", ("colrev", _OLD_SQTT), "B3"))),
    ("F25", _inner(DIAGONALS[3], ("rowsum", ("had", _SQL, "B3")))),
    ("F29", ("total", ("had", ("colrev", ("rowrev", ("had", (
        "rowrev", _B_B4), "B3"))), "B3"))),
    ("F23", ("total", ("had", _SQR, ("mm", "B3", "B")))),
    ("F32", _form(DIAGONALS[3], ("had", "B2", "B3"), DIAGONALS[3])),
    ("F33", ("total", ("had", ("T", "B2"), ("binom", "B3", 3)))),
)
# the main terms as they read before F16 and F28 went round the wedge step
# and the masks of _SQL, _SQR and _PNT stopped copying reversals of B^2
_COPY_PNT = ("had", ("had", ("bpow", ("T", "B2"), 3), ("rowrev", "B2")),
             ("colrev", "B2"))
OLD_MAINS += (
    ("F9", ("total", ("bpow", _COPY_SQR, 3))),
    ("F16", _form(DIAGONALS[3], "wedge", DIAGONALS[3])),
    ("F18", ("total", _COPY_PNT)),
    ("F19", ("total", ("had", _COPY_PNT, "B2"))),
    ("F21", _inner(_QLOOP, ("rowsum", _COPY_SQR))),
    ("F22", _inner(_QLOOP, ("rowsum", _COPY_SQL))),
    ("F23", ("total", ("bpow", _COPY_SQR, 4))),
    ("F25", _inner(DIAGONALS[3], ("rowsum", ("bpow", _COPY_SQL, 3)))),
    ("F28", _form(DIAGONALS[3], "wedge", DIAGONALS[4])),
)
OLD_DIAGONALS = {
    5: ("rowsum", ("had", "B2", ("T", "B3"))),
    6: ("rowsum", ("had", "B3", ("T", "B3"))),
}


@settings(max_examples=60, deadline=None)
@given(differential_hosts())
@example(Graph(0, []))
@example(er_graph(9, 0.5, 61))
@example(er_graph(12, 0.4, 62))
@example(wheel_graph(6))
@example(hub_graph())
def test_rewritten_mains_match_their_old_trees(g):
    ev = Evaluator(EdgeSpace(g))
    table = {name: main for name, main, _, _ in CORRECTIONS}
    for name, old in OLD_MAINS:
        assert ev.eval(table[name]) == ev.eval(old), name
    for k, old in OLD_DIAGONALS.items():
        assert np.array_equal(ev.eval(DIAGONALS[k]), ev.eval(old)), k


@settings(max_examples=60, deadline=None)
@given(differential_hosts())
@example(Graph(0, []))
@example(complete_graph(5))
@example(wheel_graph(6))
def test_binomial_masks_are_zero_one(g):
    """square, colrev(square) and (B^2)^T hold only 0 and 1, so a binomial
    of B^3 read at one of them equals the binomial of the masked product."""
    ev = Evaluator(EdgeSpace(g))
    for mask in ("square", ("colrev", "square"), ("T", "B2")):
        assert set(ev.eval(mask).data) <= {1}, mask


def test_no_term_transposes_or_reverses_b3():
    """The one atom that reads B^3, chordless3, reads it as it is and no
    atom copies it whole (no count reads B^3: see
    test_motifs.py::test_no_count_reads_b3_or_h)."""
    whole_copies = {(op, "B3") for op in ("T", "rowrev", "colrev")}
    for _, definition in ATOMS.values():
        assert not whole_copies & set(nodes(definition)), definition


def test_census_builds_no_cube_on_a_hub_graph():
    """The census builds neither B^2 nor B^3 nor any product larger than
    B^2 or an n x n block: on a hub graph, P_4 can exceed B^2. F20, F32 and
    F33 read their masks by blocks of rows, so no ("pow", 2) is cached."""
    space = EdgeSpace(hub_graph())
    full_census(space)
    assert ("pow", 2) not in space._cache
    assert ("pow", 3) not in space._cache
    n, b2 = space.graph.n, space.atom("B2").nnz
    assert 0 < space.stats["peak_product_nnz"] <= max(b2, n * n)


def test_f20_f32_f33_are_the_parts_of_one_row_blocked_pass():
    """F20, F32 and F33 are the totals of one "byrows" pass over their
    B^2-sized masks, and no other main reads a "byrows" node."""
    mains = {name: main for name, main, _, _ in CORRECTIONS}
    rows = mains["F20"][1]
    assert rows[0] == "byrows" and rows[1][0] == "totals"
    assert [mains[f] for f in ("F20", "F32", "F33")] == [
        ("part", rows, i) for i in range(3)]
    assert {node for main in mains.values() for node in nodes(main)
            if node[0] == "byrows"} == {rows}


def test_census_stacks_no_row_blocks():
    """With tri and square, the two stacked "byrows" atoms, built, the
    corrections of a hub graph stack no blocks of rows: F20, F32 and F33
    keep only each block's totals."""
    space = EdgeSpace(hub_graph())
    space.atom("tri")
    space.atom("square")
    with mock.patch.object(sp, "vstack", wraps=sp.vstack) as vstack:
        eval_walk_corrections(space)
    assert vstack.call_count == 0


def test_corrections_are_subgraph_counts():
    g = er_graph(9, 0.5, 61)
    f = eval_walk_corrections(EdgeSpace(g))
    assert set(f) == set(F_NAMES)
    for name in F_NAMES:
        assert f[name] == count_copies(class_shape(name), g), name


def test_class_multiplicities_match_walk_enumeration():
    for name in ALL_CLASSES:
        shape = class_shape(name)
        for k in range(3, 10):
            got = walk_class_oracle(shape, k).get(name, 0)
            assert got == class_walk_multiplicity(name, k), (name, k)
    for k in range(3, 10):
        cycle = {3: "F1", 4: "F8"}.get(k, f"C{k}")
        # the plain k-cycle's walks are the 2k that eval_cycles divides by;
        # it subtracts the F classes alone, so no other plain cycle of
        # length 5..9 may feed tr(B^k)
        assert class_walk_multiplicity(cycle, k) == 2 * k
        assert not [c for c in C_NAMES[2:]
                    if c != cycle and class_walk_multiplicity(c, k)], k


def test_walk_class_oracle_on_triangle():
    tri = complete_graph(3)
    assert walk_class_oracle(tri, 3) == {"F1": 6}
    assert walk_class_oracle(tri, 4) == {}
    assert walk_class_oracle(tri, 6) == {"F1": 6}
    assert walk_class_oracle(tri, 9) == {"F1": 6}


def test_walk_class_oracle_rejects_untabulated_lengths():
    with pytest.raises(ValueError):
        walk_class_oracle(complete_graph(3), 2)
    with pytest.raises(ValueError):
        walk_class_oracle(complete_graph(3), 10)


def test_trace_decomposes_into_class_walks():
    g = er_graph(8, 0.5, 62)
    space = EdgeSpace(g)
    f = eval_walk_corrections(space)
    for k in (6, 7, 8, 9):
        by_class = walk_class_oracle(g, k)
        assert sum(by_class.values()) == space.trace(k), k
        for name in F_NAMES:
            assert by_class.get(name, 0) == (
                class_walk_multiplicity(name, k) * f[name]), (k, name)


@pytest.mark.parametrize("rim,printed,true", [
    (5, Fraction(-35, 4), 0),
    (6, Fraction(-15, 2), 3),
])
def test_f15_printed_form_is_broken(rim, printed, true):
    """The transcribed F15 row cannot be a count; the repaired one is."""
    space = EdgeSpace(wheel_graph(rim))
    f = eval_walk_corrections(space)
    assert printed_f15_value(space, f) == printed
    assert f["F15"] == true
    assert f["F15"] == count_copies(class_shape("F15"), space.graph)


def test_rings_have_single_long_cycle():
    for k in (5, 6, 7, 8):
        rep = full_census(EdgeSpace(cycle_graph(k)))
        want = {c: 0 for c in C_NAMES}
        want[f"C{k}"] = 1
        assert rep.cycle_counts == want, k
