"""Cycle totals C3..C9 recovered from non-backtracking walk traces.

The trace of the k-th power of the non-backtracking operator counts all
closed k-walks without immediate reversals. Each such walk traces out a
small subgraph, and for k <= 9 only forty shapes can occur: the seven
plain cycles plus thirty-three parasitic shapes (walks that double back
along longer detours). The F1..F35 family counts copies of the shapes
that pollute the traces; the triangle and square classes double as C3
and C4. Subtracting walks-per-copy times copies from each trace and
dividing by 2k leaves the cycle totals.

The corrections are data: the CORRECTIONS table holds, per entry, a main
term in the expression language of edge_matrix.Evaluator, the integer
multiples of earlier entries to subtract, and an exact divisor. The main
terms go through one ``edge_matrix.Evaluator.run`` on the EdgeSpace host,
so every product, sum and binomial goes through the shared int64 guards.
The diagonals d3..d6 of B^3..B^6 (``DIAGONALS``) are subterms of those
mains, shared and dropped after their last reader like any other node.
Entries are evaluated strictly in index order because later entries
subtract earlier ones. Every division must be exact and every count
non-negative; a violation raises IntegrityError whose message starts with
the entry name, the cheapest tripwire for transcription slips and kernel
bugs alike. Frozen shape data, with each shape's walks per trace (which
``eval_cycles`` subtracts), lives in data/walk_classes.json so the walk
enumeration oracle and the closed formulas can be compared class by class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from . import oracle
from .catalog import _QLOOP, _SQL, _SQR
from .edge_matrix import EdgeSpace, Evaluator, IntegrityError, exact_div
from .graphs import Graph

F_NAMES = tuple(f"F{i}" for i in range(1, 36))
C_NAMES = tuple(f"C{k}" for k in range(3, 10))


@dataclass(frozen=True)
class CensusReport:
    """Correction counts F1..F35 and cycle totals C3..C9."""

    f_counts: dict[str, int]
    cycle_counts: dict[str, int]


# ---------------------------------------------------------------------------
# correction counts
# ---------------------------------------------------------------------------

def _inner(u, v):
    """u . v of two edge vectors."""
    return ("total", ("had", u, v))


def _form(v, M, w):
    """v^T M w: the bilinear form of M between two edge vectors."""
    return _inner(v, ("mm", M, w))


def _wedge_form(v, w):
    """v^T wedge w, with wedge w = B (B w) - tri w: wedge = B^2 - tri."""
    return _inner(v, ("sub", ("mm", "B", ("mm", "B", w)), ("mm", "tri", w)))


# The diagonals d3..d6 of B^3..B^6, terms of the census like any other.
# d3 and d4 are row sums of the step matrices; d5 and d6 are masked powers
# at the identity, 2m-long gathers from vertex space, so no power B^k,
# k >= 2, is ever built.
DIAGONALS = {
    3: ("rowsum", "tri"),
    4: ("rowsum", "square"),
    5: ("rowsum", ("bpow", "I", 5)),
    6: ("rowsum", ("bpow", "I", 6)),
}
D3, D4, D5, D6 = (DIAGONALS[k] for k in range(3, 7))

# B^3 and B^4 at a mask M are the masked powers ("bpow", M, 3) and
# ("bpow", M, 4), so no main term reads B^3 or B^4 as a matrix. A binomial
# is taken after its mask, which is exact because the masks square,
# colrev(square) and (B^2)^T are 0/1, as B^2 of a simple graph is.
_SQTT = ("bpow", ("colrev", "square"), 3)
# the masks (B^2)^T = (B^T)^2 of F20 and F33 and B^2 of F32, read by blocks
# of rows; F32 keeps of each block its rows of (B^2 o B^3) D3.
_TB2C = ("byrows", ("bpow", ("mm", ("T", "B"), ("T", "B")), 3))
_B2C_D3 = ("byrows", ("mm", ("bpow", ("mm", "B", "B"), 3), D3))
# the transpose of B^2 o (B^3)^T o rowrev(B^2) o colrev(B^2), since
# (B^k)^T = J B^k J for the reversal J and rowrev(B^2), colrev(B^2) are
# symmetric: a total is unchanged by transposing, or reversing the rows or
# columns of, all of its factors. Its mask (B^2)^T o rowrev(B^2) o
# colrev(B^2) is rowrev(_SQR): rowrev(B^2) o colrev(B^2) = rowrev(square)
# and (B^2)^T o J M = J (B^2 J o M), so it is square-sized.
_PNT = ("bpow", ("rowrev", _SQR), 3)

# (name, main term, (coefficient, earlier entry) pairs, divisor): the entry
# is (main - sum of coefficient * entry) / divisor.
CORRECTIONS: tuple[tuple[str, tuple, tuple[tuple[int, str], ...], int], ...] = (
    ("F1", ("total", D3), (), 6),
    ("F2", ("total", ("binom", D3, 2)), (), 2),
    ("F3", _form(D3, "B", D3), ((12, "F2"), (6, "F1")), 8),
    ("F4", _inner(D3, D4), ((8, "F2"),), 2),
    ("F5", ("total", ("binom", D3, 3)), (), 2),
    ("F6", _form(D3, "B", D4), ((6, "F4"), (24, "F5"), (16, "F2")), 4),
    # divisor repaired from the printed 6: the crossed-square total counts
    # each K4 once per directed edge and orientation pair, 24 in all
    ("F7", ("total", "crossed"), (), 24),
    ("F8", ("total", "square"), (), 8),
    ("F9", ("total", ("bpow", _SQR, 3)), (), 2),
    ("F10", ("total", _SQTT), (), 12),
    ("F11", ("total", ("binom", D4, 2)),
     ((2, "F9"), (12, "F10"), (12, "F7")), 2),
    ("F12", ("total", ("binom", _SQTT, 2)), (), 24),
    ("F13", ("total", ("binom", ("bpow", "square", 3), 2)), (), 2),
    ("F14", _inner(D3, D5), ((4, "F4"), (2, "F9")), 2),
    # the main term differs from its misprinted source: the printed table
    # repeats F3's main here, which the walk enumeration rejects; the
    # degree-four analogue is the term that balances (see CORRECTIONS.md)
    ("F15", _form(D4, "B", D4),
     ((8, "F8"), (48, "F10"), (48, "F12"), (12, "F11"), (16, "F13"),
      (20, "F9"), (72, "F7")), 8),
    ("F16", _wedge_form(D3, D3),
     ((12, "F2"), (24, "F7"), (16, "F3"), (6, "F9")), 8),
    ("F17", _form(D3, "B", D5),
     ((6, "F14"), (8, "F4"), (10, "F9"), (16, "F13")), 4),
    ("F18", ("total", _PNT), (), 4),
    ("F19", ("total", ("bpow", _PNT, 2)), (), 4),
    ("F20", ("total", ("binom", _TB2C, 2)), (), 2),
    ("F21", _inner(_QLOOP, ("rowsum", _SQR)),
     ((8, "F2"), (4, "F9"), (24, "F5")), 4),
    ("F22", _inner(_QLOOP, ("rowsum", _SQL)),
     ((48, "F7"), (4, "F9"), (8, "F19")), 4),
    ("F23", ("total", ("bpow", _SQR, 4)),
     ((24, "F7"), (2, "F9"), (4, "F19")), 1),
    # the trailing three-step here carries a column reversal the printed
    # form drops; without it the entry matches no shape. The reversal sits
    # on the other, sparse factor: the total is unchanged by reversing
    # both factors' columns
    ("F24", ("total", ("bpow", ("colrev", _SQTT), 3)), ((4, "F18"),), 2),
    ("F25", _inner(D3, ("rowsum", ("bpow", _SQL, 3))),
     ((2, "F9"), (8, "F19")), 6),
    ("F26", _inner(D3, D6),
     ((6, "F1"), (20, "F2"), (24, "F3"), (12, "F5"), (48, "F7"),
      (12, "F9"), (4, "F14"), (8, "F19"), (8, "F21"), (4, "F22"),
      (2, "F23")), 2),
    ("F27", _inner(D4, D5),
     ((6, "F4"), (8, "F20"), (8, "F18"), (4, "F19"), (2, "F23"),
      (4, "F24")), 2),
    ("F28", _wedge_form(D3, D4),
     ((12, "F2"), (8, "F4"), (36, "F5"), (8, "F6"), (24, "F7"),
      (6, "F9"), (12, "F18"), (4, "F19"), (4, "F21"), (3, "F23"),
      (4, "F24")), 4),
    # the total of B o B^4 o rowrev(B^3) o colrev(B^3), with both
    # reversals moved onto the B-sized factors
    ("F29", ("total", ("bpow", ("colrev", ("rowrev", ("bpow", (
        "rowrev", ("bpow", "B", 4)), 3))), 3)),
     ((8, "F2"), (16, "F3"), (24, "F5"), (24, "F7"), (14, "F9"),
      (28, "F21")), 48),
    ("F30", _inner(("binom", D3, 2), D5),
     ((4, "F18"), (8, "F19"), (2, "F23"), (6, "F25")), 2),
    ("F31", _inner(("binom", D4, 2), D3),
     ((12, "F5"), (24, "F7"), (2, "F9"), (8, "F18"), (10, "F19"),
      (2, "F23"), (2, "F24"), (6, "F25")), 2),
    ("F32", _inner(D3, _B2C_D3),
     ((4, "F2"), (12, "F5"), (72, "F7"), (14, "F9"), (24, "F19"),
      (8, "F21"), (8, "F22"), (24, "F25")), 8),
    ("F33", ("total", ("binom", _TB2C, 3)), (), 2),
    ("F34", _form(D3, "B", D6),
     ((6, "F1"), (36, "F2"), (48, "F3"), (36, "F5"), (144, "F7"),
      (44, "F9"), (8, "F14"), (48, "F19"), (48, "F21"), (16, "F22"),
      (10, "F23"), (6, "F26"), (48, "F29"), (16, "F30"), (8, "F31"),
      (16, "F32"), (60, "F25")), 4),
    ("F35", _form(D4, "B", D5),
     ((10, "F4"), (16, "F20"), (24, "F18"), (28, "F19"), (10, "F23"),
      (20, "F24"), (6, "F27"), (8, "F30"), (16, "F31"), (24, "F33"),
      (36, "F25")), 4),
)


def eval_walk_corrections(space: EdgeSpace) -> dict[str, int]:
    """Evaluate the thirty-five correction counts, keyed "F1".."F35".

    The main terms go through one ``Evaluator.run`` in index order, so they
    share subexpressions and each node is dropped after its last reader.
    """
    f: dict[str, int] = {}
    mains = Evaluator(space).run(main for _, main, _, _ in CORRECTIONS)
    for (name, _, coefs, divisor), val in zip(CORRECTIONS, mains):
        if isinstance(val, IntegrityError):
            raise IntegrityError(f"{name}: {val}") from val
        val -= sum(c * f[dep] for c, dep in coefs)
        out = exact_div(val, divisor, name)
        if out < 0:
            raise IntegrityError(f"{name}: negative count {out}")
        f[name] = out
    return f


def printed_f15_value(space: EdgeSpace, corrections: dict[str, int]) -> Fraction:
    """The F15 entry as its source prints it, for the correction audit.

    The printed main term repeats F3's (pairs of triangle-carrying edges
    joined by a step) while the subtraction list is all square-based, so
    the result is generally fractional or negative. Returned as an exact
    fraction so callers can exhibit the failure.
    """
    f = corrections
    main = Evaluator(space).eval(_form(D3, "B", D3))
    val = (main - 8 * f["F8"] - 48 * f["F10"] - 48 * f["F12"]
           - 12 * f["F11"] - 16 * f["F13"] - 20 * f["F9"] - 72 * f["F7"])
    return Fraction(val, 8)


# ---------------------------------------------------------------------------
# cycle totals
# ---------------------------------------------------------------------------

def eval_cycles(traces: dict[int, int],
                corrections: dict[str, int]) -> dict[str, int]:
    """Cycle totals keyed "C3".."C9": each trace tr(B^k), k = 3..9, less
    ``class_walk_multiplicity`` times the count of every correction class
    other than the k-cycle (F1 for k = 3, F8 for k = 4), over the 2k walks
    of one k-cycle."""
    out: dict[str, int] = {}
    for k in range(3, 10):
        cycle = {3: "F1", 4: "F8"}.get(k)
        val = traces[k] - sum(class_walk_multiplicity(name, k) * count
                              for name, count in corrections.items()
                              if name != cycle)
        ck = exact_div(val, 2 * k, f"C{k}")
        if ck < 0:
            raise IntegrityError(f"C{k}: negative count {ck}")
        out[f"C{k}"] = ck
    return out


def full_census(space: EdgeSpace) -> CensusReport:
    """Corrections and cycle totals for one graph, sharing the power cache.

    The traces come first, so their pairings of the n x n blocks are
    freed before the correction evaluator's memo is resident; P_4 and P_5
    are only ever formed by blocks of rows (``TRACE_TERMS``).
    The mains build no power of B: the masks B^2 and (B^2)^T are read by
    blocks of rows ("byrows"), and B^3..B^6 only at masks, as masked
    powers gathered from the blocks P_0..P_3, of which the space keeps the
    atoms P_2 and P_3 from the traces (``EdgeSpace.bpow``).
    """
    traces = {k: space.trace(k) for k in range(3, 10)}
    f = eval_walk_corrections(space)
    return CensusReport(f_counts=f, cycle_counts=eval_cycles(traces, f))


# ---------------------------------------------------------------------------
# walk-shape classes and the enumeration oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _classes_raw() -> dict:
    text = resources.files("nbcensus.data").joinpath(
        "walk_classes.json").read_text()
    return json.loads(text)


@lru_cache(maxsize=1)
def _class_index() -> dict:
    idx = {}
    for name, info in _classes_raw().items():
        key = oracle.canonical_form(
            info["order"], [tuple(e) for e in info["edges"]])
        idx[key] = name
    return idx


def class_shape(name: str) -> Graph:
    """Fixed representative of a frozen walk-shape class."""
    info = _classes_raw()[name]
    return Graph(info["order"], [tuple(e) for e in info["edges"]])


def class_walk_multiplicity(name: str, k: int) -> int:
    """Closed nb k-walks on one copy of the class, 0 if none exist."""
    return int(_classes_raw()[name]["walks"].get(str(k), 0))


def walk_class_oracle(graph: Graph, k: int, *,
                      max_walks: int = 2_000_000) -> dict[str, int]:
    """Closed nb k-walk totals grouped by the shape each walk traces.

    Keys are frozen class names: "F1".."F35" for the correction shapes
    (the triangle and square are F1 and F8) and "C5".."C9" for the
    longer plain cycles. Enumeration is exponential in k, so a budget
    guard refuses oversized inputs rather than stalling.
    """
    if not 3 <= k <= 9:
        raise ValueError("walk classes are tabulated for k in 3..9")
    grouped = oracle.closed_nb_walks_by_edge_set(graph, k,
                                                 max_walks=max_walks)
    index = _class_index()
    out: dict[str, int] = {}
    for eset, count in grouped.items():
        verts = sorted({v for e in eset for v in e})
        relab = {v: i for i, v in enumerate(verts)}
        key = oracle.canonical_form(
            len(verts), [(relab[a], relab[b]) for a, b in eset])
        name = index.get(key)
        if name is None:
            raise IntegrityError(
                f"k={k} walk traced a shape missing from the frozen table")
        out[name] = out.get(name, 0) + count
    return out
