"""Declarative motif catalog: one entry per rooted pattern id.

Entry kinds:
  {"kind": "expr", "expr": <tree>}         counted by an expression tree
  {"kind": "rowrev_of", "of": id}          reversal partner of a sibling
  {"kind": "gamma_of", "of": id,
   "num": p, "den": q}                     vertex count = (p/q) * gamma(edge count)

Ids follow the appendix labels; vertex-rooted ids carry a trailing "v" so
both rootings of the same family can live in one namespace. Two entries
are deliberately not as printed: the X45 and X052 lines are defined as
reversals of themselves in the source, which is circular; they are pinned
to the only sibling that completes the root-orbit set and both fixes are
oracle-verified (see CORRECTIONS.md).

The association id -> concrete pattern (shape + root) is not derivable
from the formulas alone; it was established once by matching every
formula against the embedding oracle over a corpus of small graphs and is
frozen in data/motif_patterns.json.

Sums come before products and masks replace copies: a row or column sum is
pushed through the products and differences it sums (rowsum(X Y) =
X rowsum(Y), colsum(X Y) = Y^T colsum(X)), a B^2-sized matrix read only
at a sparse mask is a masked power at that mask, and a matrix read only
through its sums is read by rows: the five sums over texit B are the parts
of one "byrows" pass, which forms each block's rows of texit B once.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from .graphs import Graph

# shared subtrees -----------------------------------------------------------

# square o rowrev(B^2) and square o colrev(B^2), as masked powers at the
# reversals of square (J M o X = J (M o J X)): neither reversal of B^2 is built
_SQL = ("rowrev", ("bpow", ("rowrev", "square"), 2))
_SQR = ("colrev", ("bpow", ("colrev", "square"), 2))
_B1 = ("rowsum", "B")
_TRI1 = ("rowsum", "tri")
# the row sums of wedge = B^2 - tri, without the wedge step
_WEDGE1 = ("sub", ("mm", "B", _B1), _TRI1)
# closed 4-walks from e landing on its own reversal, B^4[e, rev e]: the
# "square over an edge" indicator, a 2m-long gather
_QLOOP = ("rowsum", ("bpow", ("colrev", "I"), 4))
_PAIRED = ("had", ("mm", "tri", ("rowrev", "tri")), ("T", "B"))
# B^3 is read only through masks, so the entries read it as masked powers
_B3T = ("bpow", ("T", "B"), 3)                       # B^3 masked by B^T
_X11 = ("rowsum", "square")
# texit B is read only through sums (X081, X082, X124, X201, X207): they are
# the parts of one row-blocked pass, so it is never held whole
_TEXIT_B = ("mm", "texit", "B")
_TEXIT_B_FREE = ("hadnot", ("hadnot", ("hadnot", ("hadnot", _TEXIT_B, "B"),
                                       ("rowrev", "B")), ("colrev", "B")),
                 ("T", "B"))
_TEXIT_B_SUMS = ("byrows", ("totals",
                            ("rowsum", ("had", "crossed", _TEXIT_B)),
                            ("colsum", ("had", "crossed", _TEXIT_B)),
                            ("colsum", ("had", "square", _TEXIT_B)),
                            ("colsum", _TEXIT_B_FREE),
                            ("rowsum", _TEXIT_B_FREE)))


def _expr(tree):
    return {"kind": "expr", "expr": tree}


def _rev(of):
    return {"kind": "rowrev_of", "of": of}


def _gamma(of, num=1, den=1):
    return {"kind": "gamma_of", "of": of, "num": num, "den": den}


EDGE_ORDER3 = {
    "P3": _expr(_B1),
    "P3r": _rev("P3"),
    "C3": _expr(_TRI1),
}

VERTEX_ORDER3 = {
    "P3v": _gamma("P3"),
    "P3rv": _gamma("P3r", 1, 2),
    "C3v": _gamma("C3", 1, 2),
}

EDGE_ORDER4 = {
    "X11": _expr(_X11),
    "X21": _expr(_WEDGE1),
    "X22": _rev("X21"),
    "X23": _expr(("sub", ("had", _B1, ("colsum", "B")), _TRI1)),
    "X31": _expr(("binom", _B1, 2)),
    "X32": _rev("X31"),
    "X41": _expr(("div", ("rowsum", "twin"), 2)),
    "X42": _rev("X41"),
    "X43": _expr(("colsum", "twin")),
    "X44": _expr(("had", _TRI1, ("sshift", _B1, 1))),
    "X45": _rev("X44"),
    "X51": _expr(("binom", _TRI1, 2)),
    "X52": _expr(("rowsum", _SQR)),
    "X53": _rev("X52"),
    "X61": _expr(("div", ("rowsum", "crossed"), 2)),
}

VERTEX_ORDER4 = {
    "X11v": _gamma("X11", 1, 2),
    "X21v": _gamma("X21"),
    "X22v": _gamma("X22"),
    # The printed star links pair each vertex form with its same-numbered
    # edge form, but a third of the leaf-rooted aggregate is not an
    # integer: the links only work crossed (see CORRECTIONS.md).
    "X31v": _gamma("X32", 1, 3),
    "X32v": _gamma("X31"),
    "X41v": _gamma("X41"),
    "X42v": _gamma("X42"),
    "X43v": _gamma("X43"),
    "X51v": _gamma("X51"),
    "X52v": _gamma("X52", 1, 2),
    "X61v": _gamma("X61", 1, 3),
}

EDGE_ORDER5 = {
    # 01: stars
    "X011": _expr(("binom", ("rowrev", _B1), 3)),
    "X012": _rev("X011"),
    # 02
    "X021": _expr(("sub", ("had", _WEDGE1, ("sshift", _B1, 1)),
                   ("rowsum", "twin"))),
    "X022": _rev("X021"),
    "X023": _expr(("sub", ("had", ("binom", _B1, 2), ("rowrev", _B1)),
                   ("had", _TRI1, ("sshift", _B1, 1)))),
    "X024": _rev("X023"),
    "X025": _expr(("sub", ("mm", "B", ("binom", _B1, 2)), ("rowsum", "texit"))),
    "X026": _rev("X025"),
    # 03
    # B^3 o MEETS summed part by part: the row sums of B^3 o B^T, B^3 o I
    # and B^3 o colrev(B) are B^4[e, e], B^3[e, e] and B^4[e, rev e]
    "X031": _expr(("sub", ("mm", "B", ("mm", "B", _B1)),
                   ("add", ("add", ("add", ("rowsum", "square"), _TRI1), _QLOOP),
                    ("rowsum", ("bpow", ("rowrev", "B"), 3))))),
    "X032": _rev("X031"),
    "X033": _expr(("sub", ("sub", ("had", _WEDGE1, ("rowrev", _B1)),
                           ("rowsum", "square")), ("rowsum", "texit"))),
    "X034": _rev("X033"),
    # 04: both from counts of 4-cycles and triangles through an edge (as
    # in Alon, Yuster and Zwick, Algorithmica 17, 1997), from no matrix
    # larger than square.
    # X041[e = a->b] counts the 4-cycles through b that avoid a. X11[f]
    # (the diagonal of B^4) counts the 4-cycles through the edge of f, so
    # summing it over the edges leaving b, (B X11 + rowrev X11)[e], counts
    # each 4-cycle through b twice, C4(b). Less those through the edge ab,
    # X11[e], and those through a but not ab, b-x-a-y-b for two common
    # neighbours x, y of a and b, C(rowsum(tri)[e], 2).
    "X041": _expr(("sub", ("sub", ("div", ("add", ("mm", "B", _X11),
                                             ("rowrev", _X11)), 2), _X11),
                   ("binom", _TRI1, 2))),
    "X042": _rev("X041"),
    "X043": _expr(("sub", ("had", ("rowsum", "square"),
                           ("sshift", ("rowrev", _B1), 1)), ("rowsum", _SQL))),
    "X044": _rev("X043"),
    # X045[e = a->b] counts the 4-cycles a-b-c-d with a vertex u hanging
    # off c, u not on the cycle. square[e, f] marks f = c->d, the far side
    # of such a cycle, and deg(c) - 2 the neighbours of c besides b and d;
    # less u = a, the 4-cycles with the chord ac: tri[e, g] marks g = c->a
    # closing the triangle abc, and rowsum(tri)[g] - 1 the d besides b.
    "X045": _expr(("sub", ("mm", "square", ("sshift", ("rowrev", _B1), 1)),
                   ("mm", "tri", ("sshift", _TRI1, 1)))),
    "X046": _rev("X045"),
    # 05
    # The degree factor here reads off the far endpoint of the reversed
    # root edge; the unreversed form is fractional on some graphs.
    "X051": _expr(("div", ("had", ("colsum", "texit"),
                           ("sshift", ("rowrev", _B1), 2)), 2)),
    "X052": _rev("X051"),
    "X053": _expr(("had", _TRI1, ("binom", ("sshift", _B1, 1), 2))),
    "X054": _rev("X053"),
    "X055": _expr(("div", ("sub", ("mm", "texit", ("rowrev", _B1)),
                           ("scale", ("rowsum", "texit"), 2, 1)), 2)),
    # 06: the diagonal of B^5
    "X061": _expr(("rowsum", ("bpow", "I", 5))),
    # 07
    "X071": _expr(("div", ("rowsum", ("had", "crossed", "join")), 6)),
    # 08
    "X081": _expr(("div", ("part", _TEXIT_B_SUMS, 0), 2)),
    "X082": _expr(("div", ("part", _TEXIT_B_SUMS, 1), 2)),
    "X083": _rev("X082"),
    # 09
    "X091": _expr(("div", ("sub", ("mm", "crossed", _TRI1),
                           ("scale", ("rowsum", "crossed"), 2, 1)), 2)),
    "X092": _expr(("rowsum", ("had", ("mm", "crossed", "square"), "B"))),
    "X093": _rev("X092"),
    "X094": _expr(("div", ("had", ("rowsum", "crossed"),
                           ("sshift", _TRI1, 2)), 2)),
    "X095": _expr(("div", ("sub", ("mm", ("T", "tri"), ("colsum", "crossed")),
                           ("scale", ("rowsum", "crossed"), 2, 1)), 2)),
    "X096": _rev("X095"),
    # 10
    "X101": _expr(("rowsum", ("had", "square", "join"))),
    "X102": _expr(("rowsum", ("binom", _PAIRED, 2))),
    "X103": _rev("X102"),
    # 11
    "X111": _expr(("div", ("had", ("rowsum", "crossed"),
                           ("sshift", ("rowrev", _B1), 2)), 2)),
    "X112": _rev("X111"),
    "X113": _expr(("div", ("sub", ("mm", ("T", "B"), ("colsum", "crossed")),
                           ("scale", ("colsum", "crossed"), 2, 1)), 6)),
    "X114": _rev("X113"),
    "X115": _expr(("sub", ("mm", "crossed", _B1),
                   ("scale", ("colsum", "crossed"), 2, 1))),
    # 12
    "X121": _expr(("sub", ("colsum", ("bpow", _PAIRED, 3)), ("colsum", _PAIRED))),
    "X122": _rev("X121"),
    "X123": _expr(("div", ("colsum", ("bpow", ("mm", "square", "tri"), 2)), 2)),
    "X124": _expr(("div", ("part", _TEXIT_B_SUMS, 2), 2)),
    "X125": _rev("X124"),
    # 13
    "X131": _expr(("rowsum", ("had", ("mm", "square", "square"), ("T", "B")))),
    "X132": _rev("X131"),
    "X133": _expr(("sub", ("had", ("rowsum", _SQL), ("sshift", _TRI1, 1)),
                   ("rowsum", "crossed"))),
    "X134": _rev("X133"),
    "X135": _expr(("sub", ("sub", ("mm", _SQL, _TRI1), ("rowsum", _SQL)),
                   ("rowsum", "crossed"))),
    "X136": _rev("X135"),
    "X137": _expr(("sub",
                   ("sub", ("mm", ("bpow", "tri", 3), _TRI1),
                    ("rowsum", ("bpow", "tri", 3))),
                   ("rowsum", "crossed"))),
    # 14
    "X141": _expr(("binom", _TRI1, 3)),
    "X142": _expr(("mm", "tri", ("binom", ("sshift", _TRI1, 1), 2))),
    "X143": _rev("X142"),
    # 15
    "X151": _expr(("div", ("colsum", ("hadnot", ("hadnot", ("mm", "texit", "tri"),
                                                 "B"), ("rowrev", "B"))), 2)),
    "X152": _rev("X151"),
    "X153": _expr(("div", ("rowsum", ("hadnot", ("hadnot", ("mm", "texit", "tri"),
                                                 "B"), ("rowrev", "B"))), 2)),
    # 16
    # rowrev(B) is symmetric (B^T = J B J), so it carries colsum(_SQR)
    "X161": _expr(("div", ("sub", ("sub", ("mm", ("rowrev", "B"), ("colsum", _SQR)),
                                   ("colsum", "crossed")), ("colsum", _SQR)), 2)),
    "X162": _rev("X161"),
    "X163": _expr(("sub", ("had", ("rowsum", _SQL), ("sshift", _B1, 1)),
                   ("rowsum", "crossed"))),
    "X164": _rev("X163"),
    "X165": _expr(("sub", ("rowsum", ("hadnot", ("mm", _SQR, ("rowrev", "B")),
                                         ("colrev", "B"))), ("rowsum", "crossed"))),
    "X166": _rev("X165"),
    "X167": _expr(("sub", ("had", ("sshift", _TRI1, 1), ("rowsum", "texit")),
                   ("rowsum", "crossed"))),
    # 17
    "X171": _expr(("sub", ("mm", "B", ("binom", _TRI1, 2)), ("rowsum", _SQR))),
    "X172": _rev("X171"),
    "X173": _expr(("had", ("rowsum", _SQR), ("sshift", _B1, 2))),
    "X174": _rev("X173"),
    "X175": _expr(("rowsum", ("hadnot", ("hadnot", ("mm", _SQR, "B"),
                                         ("colrev", "B")), ("T", "B")))),
    "X176": _rev("X175"),
    "X177": _expr(("had", ("binom", _TRI1, 2), ("sshift", _B1, 2))),
    "X178": _rev("X177"),
    # 18
    "X181": _expr(("rowsum", ("hadnot", ("hadnot", ("mm", "tri", "square"),
                                         ("colrev", "B")), "B"))),
    "X182": _rev("X181"),
    "X183": _expr(("sub", ("rowsum", ("hadnot", ("mm", _B3T, "tri"), "B")),
                   ("rowsum", _SQL))),
    "X184": _rev("X183"),
    "X185": _expr(("colsum", ("hadnot", ("hadnot", ("mm", "tri", "square"),
                                         ("colrev", "B")), "B"))),
    "X186": _expr(("sub", ("had", _TRI1, ("rowsum", "square")),
                   ("add", ("rowsum", _SQR), ("rowsum", _SQL)))),
    # 19
    "X191": _expr(("colsum", ("binom", _B3T, 2))),
    "X192": _rev("X191"),
    # 20
    "X201": _expr(("div", ("part", _TEXIT_B_SUMS, 3), 2)),
    "X202": _rev("X201"),
    "X203": _expr(("div", ("sub", ("had", ("colsum", "texit"), _B1),
                           ("scale", ("rowsum", _SQL), 2, 1)), 2)),
    "X204": _rev("X203"),
    # Both collapse corrections subtract; the printed difference form
    # undercorrects the chorded-square collapse.
    "X205": _expr(("sub", ("had", _TRI1, _WEDGE1),
                   ("add", ("rowsum", "texit"), ("rowsum", _SQR)))),
    "X206": _rev("X205"),
    "X207": _expr(("part", _TEXIT_B_SUMS, 4)),
}

VERTEX_ORDER5 = {
    "X011v": _gamma("X011", 1, 4),
    "X012v": _gamma("X012"),
    "X021v": _gamma("X022", 1, 2),
    "X022v": _gamma("X021"),
    "X023v": _gamma("X023"),
    "X024v": _gamma("X025"),
    "X031v": _gamma("X031"),
    "X032v": _gamma("X032"),
    "X033v": _gamma("X034", 1, 2),
    "X041v": _gamma("X041"),
    "X042v": _gamma("X043", 1, 2),
    "X043v": _gamma("X044"),
    "X044v": _gamma("X045", 1, 2),
    "X051v": _gamma("X052"),
    "X052v": _gamma("X051", 1, 2),
    "X053v": _gamma("X053"),
    "X061v": _gamma("X061", 1, 2),
    "X071v": _gamma("X071", 1, 4),
    "X081v": _gamma("X081", 1, 2),
    "X082v": _gamma("X083", 1, 3),
    "X091v": _gamma("X091"),
    "X092v": _gamma("X096"),
    "X093v": _gamma("X095", 1, 2),
    "X101v": _gamma("X101", 1, 2),
    "X102v": _gamma("X102", 1, 4),
    "X111v": _gamma("X111", 1, 3),
    "X112v": _gamma("X112"),
    "X113v": _gamma("X114"),
    "X121v": _gamma("X121", 1, 2),
    "X122v": _gamma("X122", 1, 2),
    "X123v": _gamma("X125", 1, 2),
    "X131v": _gamma("X131", 1, 2),
    "X132v": _gamma("X132"),
    "X133v": _gamma("X134"),
    "X141v": _gamma("X141"),
    "X142v": _gamma("X143", 1, 2),
    "X151v": _gamma("X151"),
    "X152v": _gamma("X152", 1, 4),
    "X161v": _gamma("X162"),
    "X162v": _gamma("X161"),
    "X163v": _gamma("X163"),
    "X164v": _gamma("X165", 1, 2),
    "X171v": _gamma("X171"),
    "X172v": _gamma("X172"),
    "X173v": _gamma("X175"),
    "X174v": _gamma("X176", 1, 2),
    "X181v": _gamma("X182", 1, 2),
    "X182v": _gamma("X181"),
    "X183v": _gamma("X184"),
    "X191v": _gamma("X191", 1, 3),
    "X192v": _gamma("X192", 1, 2),
    "X201v": _gamma("X202"),
    "X202v": _gamma("X201"),
    "X203v": _gamma("X203"),
    "X204v": _gamma("X205"),
}


def entries_for_order(order: int) -> tuple[dict, dict]:
    if order == 3:
        return EDGE_ORDER3, VERTEX_ORDER3
    if order == 4:
        return EDGE_ORDER4, VERTEX_ORDER4
    if order == 5:
        return EDGE_ORDER5, VERTEX_ORDER5
    raise ValueError("catalog carries orders 3, 4 and 5")


def all_ids() -> list[str]:
    out = []
    for order in (3, 4, 5):
        e, v = entries_for_order(order)
        out.extend(e)
        out.extend(v)
    return out


@lru_cache(maxsize=1)
def _patterns_raw() -> dict:
    path = resources.files("nbcensus.data").joinpath("motif_patterns.json")
    return json.loads(path.read_text())


def pattern_for(mid: str) -> tuple[Graph, tuple[int, ...]]:
    """The frozen (shape, root) behind a catalog id.

    Edge-rooted ids return a directed pair root; vertex-rooted ids a
    1-tuple. Raises KeyError for ids without a frozen pattern.
    """
    info = _patterns_raw()[mid]
    g = Graph(info["order"], [tuple(e) for e in info["edges"]])
    return g, tuple(info["root"])
