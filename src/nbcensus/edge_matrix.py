"""Directed-edge matrices over a graph, the exact-arithmetic layer, and
the one expression language every count is written in.

All matrices are scipy CSR with int64 entries and are indexed by directed
edge ids (edge k yields ids 2k and 2k+1; reversal flips the low bit). The
endpoint and reversal arrays they are built from are the graph's
``DirectedEdgeIndex`` arrays, which ``EdgeSpace.index`` holds.

This is the package's one exact-arithmetic layer: every product, sum,
binomial, rescaling and division of a counting formula goes through a
``checked_*`` wrapper or ``exact_div``, on sparse, dense or vector
operands. Each bounds its result from its operands before computing and
raises IntegrityError instead of wrapping around. Bounds are compared to
INT64_GUARD = 2**62, half the int64 limit, so a bound estimated in
float64 still proves the int64 result exact.

Expression language of ``Evaluator`` (nested tuples, first element is the
op name), used by the catalog, the F1..F35 census, the trace table and the
constructive engine alike, over the two hosts ``Evaluator`` names; each
of the first three is one ``Evaluator.run`` over a sequence:
  atoms (strings): "B" (the non-backtracking matrix), "I" (the identity
      over directed edges), "H" (the head incidence, directed edges by
      vertices: H[e, v] = 1 iff e ends at v; the catalog's gamma links read
      it), the vertex atoms of the walk blocks, n x n: "C" (I - D, D the
      degrees), "c" (its diagonal 1 - d, a vector) and "V" (the identity
      over vertices), and every name of the ATOMS table, the matrices
      several counts share: the powers "B2".."B3", the walk blocks "A"
      (the adjacency), "P2" and "P3", the row-dot factor "AC" (A C) and the
      step matrices "tri", "wedge", "square", "crossed", "twin", "texit",
      "chordless3", "join". Each ATOMS entry is itself a definition in
      this language, which ``EdgeSpace.atom`` evaluates once and caches; it
      is the one accessor of a named matrix.
      The step matrices "tri" and "square" are B^2 at a mask, built by
      blocks of rows ("byrows"), and "twin" and "texit" products of "tri"
      with B: no count builds B^2, which "B3" and "wedge" alone read.
  ("T", X)            matrix transpose
  ("rowrev", X)       index reversal on rows (vectors: the whole index)
  ("colrev", X)       index reversal on columns
  ("mm", X, Y)        matrix product (or matrix-vector when Y is a vector)
  ("had", X, Y)       entrywise product of like-shaped operands
  ("bpow", M, k)      ("had", M, B^k), k = 1..6, computed only at the
                      stored entries of M (a masked power: no power of B
                      beyond the mask is built), from vertex space. With H
                      and T the head and tail incidences, J the reversal
                      and Q_j = P_j + P_(j-2) + ... over the walk blocks
                      P_j of WALKS (Q_j = 0 for j < 0),
                      B^k = H Q_(k-1) T' - T Q_(k-2) T' - H Q_(k-2) H'
                          + T Q_(k-3) H' + (I for even k, -J for odd k),
                      so the value at e = (a->b), f = (c->d) is M[e, f] times
                      Q_(k-1)[b,c] - Q_(k-2)[a,c] - Q_(k-2)[b,d]
                      + Q_(k-3)[a,d] + [f = e] (even k) or - [f = rev e]
                      (odd k). B^k reads only the atoms of Q_(k-3)..Q_(k-1),
                      built on first read: A, and P2, P3, AC from k = 3, 4, 5.
                      ``EdgeSpace.bpow`` reads the rows of Q_0..Q_3 it needs
                      dense, Q_4 and Q_5 as guarded row dot products (DOTS),
                      and sums them under a bound on the values gathered.
                      By the rule of ``_blocks``, a vertex weighs its dense
                      row (n cells) and mask entries, a dot its rows' entries.
                      ("bpow", "I", k) is the diagonal of B^k and
                      ("bpow", ("colrev", "I"), k) the entries
                      B^k[e, rev e]: 2m-long gathers.
  ("byrows", X)       X one block of rows at a time, the blocks' values
                      stacked (X a matrix) or, with X a "totals", each
                      total summed over them. A node is row-local when it is
                      entrywise, "binom", "sshift", "scale", "div",
                      "rowsum", "bpow" at its mask's rows, "mm" as its left
                      factor's rows times its right factor, or a total that
                      only X, a "totals", reads, and every read of it inside
                      X is a row read by a row-local node. A block computes
                      the rows of each once, keeping them until its last
                      read in the block (P_4 of the trace pass, read by H_7,
                      H_8, H_9 and P_5), and slices every other operand from
                      its whole value: an atom, a transpose or reversal, or
                      a node read whole, as a right factor is. By the rule
                      of ``_blocks``, a row weighs the stored entries
                      (dense: the width) of the sliced operands and, for a
                      product, at most its right factor's width
  ("totals", X, ...)  in "byrows" only: the tuple of the totals X, ...; a
                      refused one is its IntegrityError and leaves the others
  ("part", X, i)      item i of the tuple X, raised if it is a refusal
  ("hadnot", X, M)    zero out entries of X wherever M is nonzero
  ("add", X, Y), ("sub", X, Y)
  ("sshift", X, c)    subtract the integer c from every vector entry
  ("scale", X, num, den)
                      multiply by num, then divide exactly by den
  ("binom", X, k)     entrywise binomial coefficient, k in {2, 3}
  ("rowsum", X), ("colsum", X)
  ("total", X)        sum of all entries, as a Python int
  ("div", X, c)       exact division; nonzero remainder raises IntegrityError
  tuple-space nodes, on dense matrices over host vertex tuples laid out by
  connection.tuple_index: ("adj",) the host's adjacency matrix, ("sel", p,
  q, eq, ne) 0/1 root constraints (connection.selection, one read-only
  matrix per host order), ("vec", X) row-major column stacking

Every node that computes new values goes through one of the guards, so a
result that would wrap int64 raises IntegrityError (labelled with the
node) instead; the transpose, reversal, stacking and hadnot nodes only
move or drop entries.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from .graphs import DirectedEdgeIndex, Graph

INT64_GUARD = 2 ** 62
# the most one block weighs (``_blocks``), in dense int64 cells plus stored
# entries (4 MB of cells): a vertex block of bpow, a block of its row dot
# products and a block of rows of byrows
BLOCK_CELLS = 2 ** 19


class IntegrityError(RuntimeError):
    """An exact-arithmetic guarantee would break (overflow or bad division)."""


def _refuse_beyond(bound, label: str, what: str) -> None:
    if bound >= INT64_GUARD:
        raise IntegrityError(
            f"{label}: {what} bound {bound:.6g} exceeds the int64 guard")


def _max_abs(M) -> int:
    data = M.data if sp.issparse(M) else np.asarray(M)
    return max(int(data.max()), -int(data.min())) if data.size else 0


def _row_sums(indptr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The sums of ``vals``, one per stored entry of a CSR matrix with
    ``indptr``, over each row."""
    out = np.zeros(indptr.size - 1, dtype=vals.dtype)
    full = np.flatnonzero(np.diff(indptr))
    if full.size:  # reduceat would give an empty row the next row's entry
        out[full] = np.add.reduceat(vals[:indptr[-1]], indptr[full])
    return out


def _abs_sums(M, axis) -> float:
    """Largest sum of |entries| along ``axis`` (None: over everything)."""
    if not sp.issparse(M):
        sums = np.abs(np.asarray(M)).sum(axis=axis, dtype=np.float64)
        return float(np.max(sums, initial=0.0))
    # from the stored entries directly: abs(M) would first sort the indices
    M = M.tocsr()
    weights = np.abs(M.data[:M.nnz]).astype(np.float64)
    if axis is None:
        return float(weights.sum())
    sums = (np.bincount(M.indices[:M.nnz], weights=weights) if axis == 0
            else _row_sums(M.indptr, weights))
    return float(sums.max(initial=0.0))


def _check_sums(M, axis, label: str) -> None:
    """Refuse a sum along ``axis`` (None: over everything) that could wrap.

    The cheap bound max|entry| * (entries summed) settles nearly every
    call; only when it reaches the guard are the sums themselves taken.
    """
    count = ((M.nnz if sp.issparse(M) else np.size(M)) if axis is None
             else M.shape[axis])
    if _max_abs(M) * count >= INT64_GUARD:
        _refuse_beyond(_abs_sums(M, axis), label, "entry total")


def checked_matmul(A, B, label: str, stats: dict | None = None):
    """Product A @ B of sparse or dense matrices, or of a matrix and a
    vector, with an a-priori magnitude bound.

    |(AB)_ij| <= min(max|A| * max column sum of |B|,
                     max|B| * max row sum of |A|);
    if that bound reaches the int64 guard the product is refused rather
    than evaluated wrongly. The sums are only taken when the cheaper
    max|A| * max|B| * (inner dimension) reaches the guard.
    """
    a_max, b_max = _max_abs(A), _max_abs(B)
    if a_max * b_max * A.shape[-1] >= INT64_GUARD:
        _refuse_beyond(min(a_max * _abs_sums(B, 0), b_max * _abs_sums(A, 1)),
                       label, "product")
    out = A @ B
    if stats is not None and sp.issparse(out):
        stats["peak_product_nnz"] = max(stats.get("peak_product_nnz", 0), out.nnz)
    return out


def checked_hadamard(A, B, label: str):
    """Entrywise product with the same overflow discipline."""
    _refuse_beyond(_max_abs(A) * _max_abs(B), label, "entrywise product")
    return A.multiply(B).tocsr() if sp.issparse(A) else A * B


def checked_add(A, B, label: str, sign: int):
    """A + sign * B for sign in {1, -1}; B may be a scalar shift."""
    _refuse_beyond(_max_abs(A) + _max_abs(B), label, "sum")
    out = A + B if sign > 0 else A - B
    return out.tocsr() if sp.issparse(out) else out


def checked_scale(M, c: int, label: str):
    """Multiply every entry by the integer c."""
    _refuse_beyond(abs(c) * max(_max_abs(M), 1), label, "rescaled entry")
    return c * M


def checked_total(M, label: str, axis: int | None = None):
    """Sum of all entries as an int, or the row (axis=1) or column
    (axis=0) sums as a vector, refused if the int64 accumulator could wrap.
    """
    _check_sums(M, axis, label)
    if axis is None:
        data = M.data if sp.issparse(M) else np.asarray(M)
        return int(data.sum())
    return np.asarray(M.sum(axis=axis)).ravel()


def _falling(x: int, r: int) -> int:
    return x * (x - 1) * (x - 2 if r == 3 else 1)


def checked_binom(M, r: int, label: str):
    """Entrywise binomial coefficient x choose r, r in {2, 3}, taken as the
    falling factorial x(x-1)...(x-r+1) / r!; on sparse operands zeros stay
    zero.
    """
    if r not in (2, 3):
        raise ValueError("binomials are available for r in {2, 3}")
    data = M.data if sp.issparse(M) else np.asarray(M)
    if data.size:
        # |falling factorial| grows away from 0..r-1, so the extremes bound it
        _refuse_beyond(max(abs(_falling(int(data.max()), r)),
                           abs(_falling(int(data.min()), r))),
                       label, "binomial numerator")
    out = data * (data - 1)
    out = out // 2 if r == 2 else out * (data - 2) // 6
    if not sp.issparse(M):
        return out
    M = M.copy()
    M.data = out
    M.eliminate_zeros()
    return M.tocsr()


def exact_div(x, d: int, label: str):
    """Integer division that must leave no remainder; dense arrays or
    scalars."""
    if d <= 0:
        raise ValueError("divisor must be positive")
    if isinstance(x, np.ndarray):
        if np.any(x % d):
            raise IntegrityError(f"{label}: value not divisible by {d}")
        return x // d
    x = int(x)
    if x % d:
        raise IntegrityError(f"{label}: value {x} not divisible by {d}")
    return x // d


def _blocks(weights):
    """The one block rule: the ranges (lo, hi) covering range(len(weights))
    in order, each the longest that weighs at most BLOCK_CELLS, or one item
    that alone weighs more. An item weighs the dense int64 cells plus the
    stored entries it brings into its block."""
    cum = np.concatenate(([0], np.cumsum(weights)))
    lo = 0
    while lo < len(weights):
        fits = int(np.searchsorted(cum, cum[lo] + BLOCK_CELLS, "right"))
        hi = max(lo + 1, fits - 1)
        yield lo, hi
        lo = hi


def _row_entries(indptr: np.ndarray, rows: np.ndarray):
    """The positions of the stored entries of ``rows`` in a CSR matrix with
    ``indptr``, and the row of each."""
    starts = indptr[rows].astype(np.int64)
    lens = indptr[rows + 1] - starts
    ends = np.cumsum(lens)
    pos = np.arange(ends[-1] if ends.size else 0, dtype=np.int64)
    return pos + np.repeat(starts - ends + lens, lens), np.repeat(rows, lens)


def nonbacktracking_matrix(tail: np.ndarray, head: np.ndarray,
                           n: int) -> sp.csr_matrix:
    """B[e, f] = 1 iff f starts where e ends and f is not e reversed, from
    the int64 endpoint arrays of the directed edges over n vertices."""
    size = tail.size
    # row e lists the edges leaving head[e], ids ascending, less rev e
    by_tail = np.argsort(tail, kind="stable")
    out_deg = np.bincount(tail, minlength=n)
    width = out_deg[head]
    cols = by_tail[np.arange(width.sum()) + np.repeat(
        np.cumsum(out_deg)[head] - np.cumsum(width), width)]
    cols = cols[cols != np.repeat(np.arange(size) ^ 1, width)]
    indptr = np.concatenate(([0], np.cumsum(width - 1)))
    return sp.csr_matrix((np.ones(cols.size, dtype=np.int64), cols, indptr),
                         shape=(size, size))


# [e, f] set where f meets an endpoint of e other than as a next step: f
# steps into e (B^T), f ends where e ends (colrev B), f starts where e
# starts (rowrev B), or f is e (I). The four parts are disjoint, so it is
# 0/1.
MEETS = ("add", ("add", ("add", ("T", "B"), ("colrev", "B")), ("rowrev", "B")),
         "I")

# The named atoms of the expression language beyond "B", the identity "I"
# over directed edges, the head incidence "H" and the vertex atoms "C",
# "c" and "V": the matrices several counts share, name -> (EdgeSpace
# cache key, definition over those and earlier atoms). EdgeSpace.atom
# builds each one on first use and keeps it.
ATOMS = {
    # the walk blocks P_1 = A, P_2 and P_3 of WALKS, read by TRACE_TERMS and
    # bpow. A counts the directed edges x -> y, rowrev(H)^T H; it is symmetric,
    # and taken as a transpose its rows come out sorted, for faster gathers
    "A": (("walk", 1), ("T", ("mm", ("T", ("rowrev", "H")), "H"))),
    "P2": (("walk", 2), ("add", ("mm", "A", "A"), "C")),
    "P3": (("walk", 3), ("add", ("mm", "P2", "A"), ("mm", "A", "C"))),
    # A C, the right factor of two row dot products of DOTS
    "AC": ("adjacency_c", ("mm", "A", "C")),
    # read by B3 and wedge alone: the counts read the rows of B^2 by blocks
    "B2": (("pow", 2), ("mm", "B", "B")),
    # read by chordless3 alone: the counts read B^3 as masked powers
    "B3": (("pow", 3), ("mm", "B2", "B")),
    # tri and square are B^2 at the stored entries of B^T and (B^2)^T, built
    # one block of rows at a time ("byrows"): rows lo:hi of B^2 are
    # B[lo:hi] B and those of (B^2)^T = (B^T)^2 are B^T[lo:hi] B^T; twin and
    # texit follow from tri. So no step matrix builds a B^2-sized matrix.
    # two-steps closed into a triangle by the reverse single step
    "tri": ("triangle_step",
            ("byrows", ("had", ("mm", "B", "B"), ("T", "B")))),
    # two-steps whose endpoints do not bound a triangle
    "wedge": ("wedge_step", ("sub", "B2", "tri")),
    # two-steps matched by a reverse two-step: opposite sides of a square
    "square": ("square_step", ("byrows", ("had", ("mm", "B", "B"),
                                          ("mm", ("T", "B"), ("T", "B"))))),
    # square steps whose reversed exit also closes a square (K4 marker)
    "crossed": ("crossed_square_step",
                ("had", "square", ("colrev", "square"))),
    # [e, f] set when both endpoints of f neighbor the head of e while
    # avoiding its tail: f spans a triangle hanging off the head of e. It is
    # B^2 o colrev(B^2); for e = a->b, (B tri^T)[e, f] marks f = c->d on a
    # triangle bcd with c != a, and tri the ones with d = a
    "twin": ("twin_wedge_step", ("sub", ("mm", "B", ("T", "tri")), "tri")),
    # [e, f] set when the tail of f neighbors both endpoints of e (a
    # triangle over e) and the head of f lies outside e. It is
    # B^2 o rowrev(B^2); for e = a->b, colrev(tri)[e, a->c] marks the
    # triangles abc, so colrev(tri) B marks each f = c->d with d != a, and
    # rowrev(tri)[e, c->b] = tri[b->a, c->b] the ones with d = b
    "texit": ("triangle_exit_step", ("sub", ("mm", ("colrev", "tri"), "B"),
                                     ("rowrev", "tri"))),
    # three-steps visiting five distinct vertices: B^3 with every entry
    # dropped where the far edge meets the starting one (the reverse step
    # or either reversal-conjugate of B) and on the diagonal (the closed
    # walks around a triangle, which the index masks cannot see)
    "chordless3": ("chordless_three_step", ("hadnot", "B3", MEETS)),
    # bowties: a triangle over e joined at one apex to a second triangle
    # whose far edge is f
    "join": ("triangle_join_step", ("mm", "texit", ("rowrev", "tri"))),
}


# The traces come from vertex space. By the Ihara-Bass identity
# det(I - uB) = (1 - u^2)^(m-n) det(I - uB~) with the 2n x 2n operator
# B~ = [[A, C], [I, 0]], C = I - D, tr(B^k) equals tr(B~^k) for odd k and
# tr(B~^k) + 2(m - n) for even k. B~ itself is never built: its powers are
# B~^k = [[P_k, P_(k-1) C], [P_(k-1), P_(k-2) C]] with the n x n blocks
# P_(-1) = 0, P_0 = I, P_1 = A and P_k = P_(k-1) A + P_(k-2) C, the
# non-backtracking walk recurrence (Alon, Benjamini, Lubetzky and Sodin,
# 2007): P_k = A_k + P_(k-2), with A_k counting the non-backtracking
# k-walks between two vertices. So each P_k is symmetric, and
# P_(i+j) = P_i P_j + P_(i-1) C P_(j-1) (the top left block of
# B~^i B~^j). With the pairings H_h = P_ceil(h/2) o P_floor(h/2)
# (entrywise; H_(-1) = 0) and the vector c = 1 - d,
# tr(B~^k) = 1'H_k 1 + 2 c'H_(k-2) 1 + c'H_(k-4) c.
#
# WALKS: the blocks P_0..P_5 over the vertex atoms, P_0..P_3 the atoms
# that the masked powers read too.
# DOTS: the factors X, Y of the row dot products <X[x], Y[y]> that the
# masked powers read P_4 and P_5 as: P_4 = P_2 P_2 + A C A and P_5 =
# P_3 P_2 + P_2 C A, and each P_j is symmetric, so (X Y')[x, y] is P_j's.
# TRACE_TERMS: (k, term) pairs over the same atoms whose terms sum to
# tr(B~^k), k = 3..9. Listed by h, the readers of each pairing H_h (and of
# H_h c) are consecutive, so it is dropped after them. The totals that read
# P_4, 1'H_7 1, c'H_7 1, 1'H_8 1 and 1'H_9 1, are the parts of one "byrows"
# pass: each block forms its rows of P_4 = P_3 A + P_2 C once, and of
# P_5 = P_4 A + P_3 C, and sums every pairing over them, so no walk block
# above the atoms P_2 and P_3 is ever held whole.
_P4 = ("add", ("mm", "P3", "A"), ("mm", "P2", "C"))
WALKS = ("V", "A", "P2", "P3", _P4,
         ("add", ("mm", _P4, "A"), ("mm", "P3", "C")))
DOTS = {4: (("P2", "P2"), ("A", "AC")), 5: (("P3", "P2"), ("P2", "AC"))}


def _trace_terms() -> tuple:
    terms = []  # (h, k, total, factor): tr(B~^k) takes factor times total
    for h in range(10):
        H = ("had", WALKS[h - h // 2], WALKS[h // 2])
        Hc = ("mm", H, "c")
        for k, total, factor in ((h, ("total", H), 1),
                                 (h + 2, ("total", Hc), 2),
                                 (h + 4, ("total", ("had", "c", Hc)), 1)):
            if 3 <= k <= 9:
                terms.append((h, k, total, factor))
    # the totals that read P_4 (h >= 7) are the parts of one row-blocked pass
    reads_p4 = [t for h, _, t, _ in terms if h >= 7]
    rows = ("byrows", ("totals", *reads_p4))
    out = []
    for h, k, t, factor in terms:
        if h >= 7:
            t = ("part", rows, reads_p4.index(t))
        out.append((k, t if factor == 1 else ("scale", t, factor, 1)))
    return tuple(out)


TRACE_TERMS = _trace_terms()


class EdgeSpace:
    """Shared home of B, the ATOMS built from it (the walk blocks that the
    masked powers read among them), the vertex atoms V, C and c and the
    traces.

    B and the ATOMS are built on first read and cached, V, C and c (read
    only) with the space, and I and H on every read; keep one EdgeSpace per
    graph.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.index = DirectedEdgeIndex(graph)
        # the index's reversal permutation, applied by rowrev and colrev
        self.rev = self.index.rev
        self.stats: dict = {"peak_product_nnz": 0}
        self._cache: dict = {}
        self.V = sp.identity(graph.n, dtype=np.int64, format="csr")
        self.c = 1 - np.bincount(self.index.tail,
                                 minlength=graph.n).astype(np.int64)
        self.c.flags.writeable = False
        self.C = sp.diags(self.c, format="csr", dtype=np.int64)

    @property
    def size(self) -> int:
        return self.index.size

    # -- reversal conjugations ------------------------------------------

    def rowrev(self, M):
        """Row reversal: entry (e, f) becomes (rev e, f); a vector's entry e
        becomes rev e."""
        return M[self.rev, :] if sp.issparse(M) else np.asarray(M)[self.rev]

    def colrev(self, M):
        """Column reversal: entry (e, f) becomes (e, rev f)."""
        return M[:, self.rev]

    # -- masked powers of B, from vertex space -----------------------------

    def bpow(self, M, k: int, label, lo: int = 0) -> sp.csr_matrix:
        """M times B^k entrywise, k = 1..6, read only at the stored entries
        of M, as four gathers from Q blocks (module docstring, "bpow"); M
        may be the block of a mask's rows from row ``lo`` on.

        M's own rows are grouped by head vertex for the two [b, .] terms and by
        tail vertex for the two [a, .] terms, and each block of vertices
        (``_blocks``, a vertex weighing its n cells of ``buf`` and the stored
        entries of its edges' rows of M) reads the dense rows of each Q_j it
        needs at its vertices with mask entries (``_gather``), so neither Q_j
        nor the whole of M's row and endpoint arrays is ever held. Each sum is
        checked against a running bound: 1 (the I or J term), or in the second
        pass the first pass's largest, which bounds what it left, plus each
        max|Q_j| gathered.
        """
        if not 1 <= k <= 6:
            raise ValueError("bpow takes k in 1..6")
        M = M.tocsr()
        n, head, tail = self.graph.n, self.index.head, self.index.tail
        rows = slice(lo, lo + M.shape[0])
        buf = np.zeros(min(n, max(1, BLOCK_CELLS // max(n, 1))) * n,
                       dtype=np.int64)
        vals = np.zeros(M.nnz, dtype=np.int64)
        carried, add, sub = 1, np.add, np.subtract
        for by_tail, (ends, terms) in enumerate((
                (head[rows], ((k - 1, tail, add), (k - 2, head, sub))),
                (tail[rows], ((k - 2, tail, sub), (k - 3, head, add))))):
            # by vertex, and in row order within one (for locality)
            order = np.argsort(ends * ends.size + np.arange(ends.size))
            ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(ends, minlength=n), out=ptr[1:])
            # a vertex weighs its dense row of buf and its edges' mask rows
            weights = n + np.bincount(ends, weights=np.diff(M.indptr),
                                      minlength=n)
            largest = carried
            for vlo, vhi in _blocks(weights):
                pos, e = _row_entries(M.indptr, order[ptr[vlo]:ptr[vhi]])
                # at: where each entry's row starts in dense rows vlo:vhi
                f, at = M.indices[pos], (ends[e] - vlo) * n
                read = vlo + np.flatnonzero(weights[vlo:vhi] > n)
                acc = np.zeros(pos.size, dtype=np.int64)
                if not by_tail:  # the I or J term, once per entry
                    if k % 2:
                        acc -= f == self.rev[e + lo]
                    else:
                        acc += f == e + lo
                bound = carried
                for j, end, op in terms:
                    if j >= 0 and pos.size:
                        q = self._gather(j, vlo, read, at + end[f], buf, label)
                        bound += _max_abs(q)
                        _refuse_beyond(bound, label, "sum")
                        op(acc, q, out=acc)
                largest = max(largest, bound)
                vals[pos] += acc
            carried = largest
        out = sp.csr_matrix((checked_hadamard(M.data, vals, label),
                             M.indices.copy(), M.indptr.copy()), shape=M.shape)
        out.eliminate_zeros()
        return out

    def _gather(self, j: int, lo: int, rows, at, buf,
                label) -> np.ndarray:
        """Q_j[x, y] for x in ``rows``, at the cells at = (x - lo) n + y of
        dense rows from lo on: those rows of the blocks P_i, i <= 3, of Q_j
        (WALKS) are added into ``buf`` (zero, and zeroed after); the P_4 of
        Q_4 = P_4 + Q_2 and the P_5 of Q_5 = P_5 + Q_3 are guarded row dot
        products (DOTS), ``_blocks`` weighing a dot by its rows' entries."""
        n = self.graph.n
        written = []
        # at most two blocks, P_i and P_(i-2): guarded values, so each is
        # below 2^62 in magnitude and their sum below 2^63, within int64.
        # Each is the identity, a sum or a (transposed) product, free of
        # duplicate entries, so the scatter adds each entry once.
        for i in range(j % 2, min(j, 3) + 1, 2):
            P = self.atom(WALKS[i])
            pos, x = _row_entries(P.indptr, rows)
            flat = (x - lo) * n + P.indices[pos]
            buf[flat] += P.data[pos]
            written.append(flat)
        out = buf[at]
        for flat in written:
            buf[flat] = 0
        if j >= 4:
            dots = [(self.atom(x), self.atom(y)) for x, y in DOTS[j]]
            xs, ys = np.divmod(at + lo * n, n)
            for blo, bhi in _blocks(sum(X.indptr[xs + 1] - X.indptr[xs]
                                        + Y.indptr[ys + 1] - Y.indptr[ys]
                                        for X, Y in dots)):
                for X, Y in dots:
                    dot = checked_total(checked_hadamard(
                        X[xs[blo:bhi]], Y[ys[blo:bhi]], label), label, axis=1)
                    out[blo:bhi] = checked_add(out[blo:bhi], dot, label, 1)
        return out

    # -- atoms -----------------------------------------------------------

    def _get(self, key, build):
        val = self._cache.get(key)
        if val is None:
            val = build()
            self._cache[key] = val
        return val

    @property
    def B(self) -> sp.csr_matrix:
        return self._get("B", lambda: nonbacktracking_matrix(
            self.index.tail, self.index.head, self.graph.n))

    def atom(self, name: str):
        """B; the vertex atoms V, C and c, held as every gather of an even
        Q_j reads V and every block of the trace pass C and c; the uncached
        identity I and head incidence H; or an ATOMS entry evaluated from its
        definition (each by its own Evaluator, so the intermediates die with
        the build) and cached."""
        if name == "B":
            return self.B
        if name in ("V", "C", "c"):
            return getattr(self, name)
        if name == "I":
            return sp.identity(self.size, dtype=np.int64, format="csr")
        if name == "H":
            return sp.csr_matrix(
                (np.ones(self.size, dtype=np.int64), self.index.head,
                 np.arange(self.size + 1)), shape=(self.size, self.graph.n))
        key, definition = ATOMS[name]
        return self._get(key, lambda: Evaluator(self).eval(definition))

    # -- traces of high powers -------------------------------------------

    def trace(self, k: int) -> int:
        """tr(B^k) for 3 <= k <= 9, read from a table built once in vertex
        space: tr(B~^k), plus 2(m - n) for even k (see TRACE_TERMS)."""
        if not 3 <= k <= 9:
            raise ValueError("traces available for k in 3..9")
        value = self._get("traces", self._trace_table)[k]
        if isinstance(value, IntegrityError):
            raise value.with_traceback(None)
        return value

    def _trace_table(self) -> dict:
        """tr(B^k), k = 3..9, or the IntegrityError that refused it, which
        starts "trace:B^k:" and names the refused node: TRACE_TERMS run over
        this space, each term added to its k with the int64 guard."""
        start = time.perf_counter()
        n, m = self.graph.n, self.graph.m
        table = {k: (1 + (-1) ** k) * (m - n) for k in range(3, 10)}
        values = Evaluator(self).run(t for _, t in TRACE_TERMS)
        for (k, term), val in zip(TRACE_TERMS, values):
            if not isinstance(table[k], IntegrityError):  # first one stands
                try:
                    if isinstance(val, IntegrityError):
                        raise val
                    table[k] = checked_add(table[k], val, _Label(term), 1)
                except IntegrityError as exc:
                    table[k] = IntegrityError(f"trace:B^{k}: {exc}")
        self.stats["traces_ms"] = int((time.perf_counter() - start) * 1000)
        return table

    # -- aggregation -----------------------------------------------------

    def gamma(self, edge_vec) -> np.ndarray:
        """Sum a directed-edge vector over each vertex's outgoing edges.

        The catalog computes this link in the expression language, as
        ("mm", ("T", ("rowrev", "H")), X); this separate loop is the
        independent reference that acceptance criterion 6 checks it by."""
        v = np.asarray(edge_vec).ravel()
        if v.shape[0] != self.size:
            raise ValueError("gamma expects a directed-edge-indexed vector")
        _check_sums(v, None, "gamma")
        out = np.zeros(self.graph.n, dtype=v.dtype)
        np.add.at(out, self.index.tail, v)
        return out


# ---------------------------------------------------------------------------
# the expression interpreter
# ---------------------------------------------------------------------------

class _Label:
    """A node's guard label, ``repr(node)[:80]`` plus a note, formatted only
    if a guard refuses: up front it would cost more than small dense nodes."""
    __slots__ = ("node", "note")

    def __init__(self, node, note: str = ""):
        self.node, self.note = node, note

    def __str__(self) -> str:
        return repr(self.node)[:80] + self.note


# the row-local ops ("byrows"), each with the operands it reads by rows: a
# product its left factor, a masked power its mask, "totals" every total
_ROW_ARGS = {**dict.fromkeys(("had", "hadnot", "add", "sub"), slice(1, 3)),
             **dict.fromkeys(("mm", "bpow", "sshift", "scale", "binom", "div",
                              "rowsum", "total"), slice(1, 2)),
             "totals": slice(1, None)}


def _row_plan(x) -> dict:
    """For ("byrows", X), by the module docstring's rule: the nodes of X a
    block computes by rows, from X down, each with its number of reads in
    X."""
    reads, todo = {}, [x]  # node -> its reads in X: (reader, by rows?)
    while todo:
        node = todo.pop()
        rows = range(len(node))[_ROW_ARGS.get(node[0], slice(0))]
        for i, y in enumerate(node[1:], 1):
            if isinstance(y, tuple):
                if y not in reads:
                    reads[y] = []
                    todo.append(y)
                reads[y].append((node, i in rows))
    local, todo = {}, [x]
    while todo:  # a node is pushed once, by the last of its readers to join
        node = todo.pop()
        local[node] = len(reads.get(node, ()))
        todo.extend(y for y in dict.fromkeys(node[_ROW_ARGS[node[0]]])
                    if y in reads and y[0] in _ROW_ARGS
                    and all(row and r in local for r, row in reads[y])
                    # a block's total is summed over blocks by "totals" alone
                    and (y[0] != "total" or x[0] == "totals"
                         and all(r == x for r, _ in reads[y])))
    return local


def _refused_or(f, *args):
    """f(*args), or the IntegrityError that refused it, without the
    traceback that would keep the refusing frames' rows alive."""
    try:
        return f(*args)
    except IntegrityError as exc:
        return exc.with_traceback(None)


def _sum(parts, label) -> int:
    """The guarded sum of a total's blocks; a refused block refuses it."""
    total = 0
    for part in parts:
        if isinstance(part, IntegrityError):
            raise part
        total = checked_add(total, part, label, 1)
    return int(total)


def _reads(node) -> list:
    """The memoized nodes that computing ``node`` reads: its tuple operands,
    or for a "byrows" node those its blocks read whole (``_row_plan``). A
    "sel" leaf reads nothing; its tuples are root pairs."""
    if node[0] == "sel":
        return []
    if node[0] == "byrows":
        local = _row_plan(node[1])
        return [y for x in local for y in x[1:]
                if isinstance(y, tuple) and y not in local]
    return [x for x in node[1:] if isinstance(x, tuple)]


class Evaluator:
    """Evaluates expression trees against one of two hosts, memoizing
    subtrees: an EdgeSpace (the string atoms of the catalog, the census
    and TRACE_TERMS, over directed edges and over vertices) or the
    tuple-space host of ``connection.eval_formula`` (``adj`` and
    ``sel(p, q, eq, ne)``). Each host has ``stats``, None or the dict where
    products record their peak nnz. ``run`` drops each node after its last
    reader in a sequence; ``eval`` is a run of one expression.
    """

    def __init__(self, space):
        self.space = space
        self._memo: dict = {}
        self._readers: dict = {}

    def eval(self, expr):
        """The value of ``expr``, from a run of it alone; a refusal is
        raised."""
        (val,) = self.run([expr])
        if isinstance(val, IntegrityError):
            raise val
        return val

    def run(self, exprs):
        """Evaluate ``exprs`` in order, yielding each value, or the
        IntegrityError that refused it, and going on. A node's readers (the
        nodes that read it, see ``_reads``, and its places in ``exprs``) are
        counted once; it is dropped once the last has been computed, so a
        refused reader keeps its operands until the memo is cleared at the
        end. A node read after its drop is recomputed, so lifetimes never
        change a value."""
        exprs = list(exprs)
        todo = [e for e in exprs if isinstance(e, tuple)]
        while todo:  # a node is pushed once per reader, its reads once
            node = todo.pop()
            left = self._readers.get(node, 0)
            self._readers[node] = left + 1
            if not left:
                todo.extend(_reads(node))
        try:
            for expr in exprs:
                try:
                    val = self._eval(expr)
                    self._read(expr)
                except IntegrityError as exc:
                    val = exc
                yield val
        finally:
            self._memo.clear()
            self._readers.clear()

    def _eval(self, expr):
        if isinstance(expr, str):
            return self.space.atom(expr)
        val = self._memo.get(expr)
        if val is None:
            val = self._memo[expr] = self._apply(expr)
            for node in _reads(expr):
                self._read(node)
        return val

    def _read(self, node) -> None:
        """Count off one computed reader of ``node``; drop the node after
        its last."""
        left = self._readers.get(node)
        if left == 1:
            del self._readers[node], self._memo[node]
        elif left:
            self._readers[node] = left - 1

    def _row_blocks(self, local: dict) -> list:
        """The blocks of rows (``_blocks``) of a "byrows" tree, weighing per
        row what its nodes hold: a sliced operand its stored entries, or
        its width if dense, and a product L R, in place of its left factor,
        at most R's width, and rownnz(L R) <= |L| rownnz(R) when L is sliced
        and both are sparse; other nodes hold no more than their operands,
        as entrywise ops, masked powers and row sums do."""
        weights = rows = 0
        for node in local:
            right = self._eval(node[2]) if node[0] == "mm" else None
            for y in node[_ROW_ARGS[node[0]]]:
                Y = None if y in local else self._eval(y)
                if Y is not None:
                    rows = Y.shape[0]
                if right is not None:
                    width = right.shape[1] if right.ndim == 2 else 1
                    if sp.issparse(Y) and sp.issparse(right):
                        width = np.minimum(_row_sums(
                            Y.indptr, np.diff(right.indptr)[Y.indices]), width)
                    weights = weights + width
                elif Y is not None:
                    weights = weights + (np.diff(Y.indptr) if sp.issparse(Y)
                                         else int(np.prod(Y.shape[1:])))
        return list(_blocks(np.broadcast_to(weights, rows))) or [(0, 0)]

    def _apply(self, expr, block=None):
        """The value of ``expr``, or with ``block`` = (lo, hi, local, held)
        its rows lo:hi, for a node of a "byrows" tree in ``local``; ``held``
        keeps the block's rows of each local node until its last read."""
        op = expr[0]
        s = self.space
        label = _Label(expr)

        def arg(y):  # an operand, or in a block its rows: computed or sliced
            if block is None:
                return self._eval(y)
            lo, hi, local, held = block
            if y not in local:
                return self._eval(y)[lo:hi]
            val, left = held.pop(y, None) or (self._apply(y, block), local[y])
            if left > 1:
                held[y] = val, left - 1
            return val
        if op == "adj":
            return s.adj
        if op == "sel":
            return s.sel(*expr[1:])
        if op == "T":
            x = self._eval(expr[1]).T
            return x if isinstance(x, np.ndarray) else x.tocsr()
        if op == "vec":
            return self._eval(expr[1]).reshape(-1, 1)
        if op == "rowrev":
            x = s.rowrev(self._eval(expr[1]))
            return x if isinstance(x, np.ndarray) else x.tocsr()
        if op == "colrev":
            return s.colrev(self._eval(expr[1])).tocsr()
        if op == "mm":
            return checked_matmul(arg(expr[1]), self._eval(expr[2]), label,
                                  s.stats)
        if op == "had":
            return checked_hadamard(arg(expr[1]), arg(expr[2]), label)
        if op == "bpow":
            return s.bpow(arg(expr[1]), expr[2], label,
                          block[0] if block else 0)
        if op == "byrows":
            x, local = expr[1], _row_plan(expr[1])
            # a total's block is dropped once its total is taken
            parts = [self._apply(x, (lo, hi, local, {}))
                     for lo, hi in self._row_blocks(local)]
            if x[0] == "totals":
                return tuple(_refused_or(_sum, column, _Label(y))
                             for y, column in zip(x[1:], zip(*parts)))
            if not sp.issparse(parts[0]):
                raise ValueError(f"{label}: byrows needs a matrix or totals")
            return sp.vstack(parts, format="csr")
        if op == "totals":  # one refused total leaves the others
            if block is None:
                raise ValueError('"totals" is evaluated by "byrows" only')
            return tuple(_refused_or(arg, y) for y in expr[1:])
        if op == "part":
            val = self._eval(expr[1])[expr[2]]
            if isinstance(val, IntegrityError):
                raise val
            return val
        if op == "hadnot":
            a, m = arg(expr[1]), arg(expr[2])
            drop = a.multiply(m != 0)
            out = (a - drop).tocsr()
            out.eliminate_zeros()
            return out
        if op in ("add", "sub"):
            return checked_add(arg(expr[1]), arg(expr[2]), label,
                               1 if op == "add" else -1)
        if op == "sshift":
            return checked_add(arg(expr[1]), int(expr[2]), label, -1)
        if op == "scale":
            _, x, num, den = expr
            out = checked_scale(arg(x), num, label)
            if den == 1:
                return out
            return exact_div(out, den, _Label(
                expr, f": rescale by 1/{den} is not exact"))
        if op == "binom":
            return checked_binom(arg(expr[1]), int(expr[2]), label)
        if op == "rowsum":
            return checked_total(arg(expr[1]), label, axis=1)
        if op == "colsum":
            return checked_total(self._eval(expr[1]), label, axis=0)
        if op == "total":
            return checked_total(arg(expr[1]), label)
        if op == "div":
            return exact_div(arg(expr[1]), int(expr[2]), label)
        raise ValueError(f"unknown op {op!r}")
