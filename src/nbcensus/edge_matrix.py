"""Directed-edge matrices over a graph: the non-backtracking operator,
its powers, and the derived step matrices the counting formulas consume.

All matrices are scipy CSR with int64 entries and are indexed by directed
edge ids (edge k yields ids 2k and 2k+1; reversal flips the low bit).

This is also the package's one exact-arithmetic layer: every product,
sum, binomial, rescaling and division of a counting formula goes through
a ``checked_*`` wrapper or ``exact_div``, on sparse, dense or vector
operands. Each bounds its result from its operands before computing and
raises IntegrityError instead of wrapping around. Bounds are compared to
INT64_GUARD = 2**62, half the int64 limit, so a bound estimated in
float64 still proves the int64 result exact.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from .graphs import DirectedEdgeIndex, Graph

INT64_GUARD = 2 ** 62


class IntegrityError(RuntimeError):
    """An exact-arithmetic guarantee would break (overflow or bad division)."""


def _refuse_beyond(bound, label: str, what: str) -> None:
    if bound >= INT64_GUARD:
        raise IntegrityError(
            f"{label}: {what} bound {bound:.6g} exceeds the int64 guard")


def _max_abs(M) -> int:
    data = M.data if sp.issparse(M) else np.asarray(M)
    return max(int(data.max()), -int(data.min())) if data.size else 0


def _abs_sums(M, axis) -> float:
    """Largest sum of |entries| along ``axis`` (None: over everything)."""
    if not sp.issparse(M):
        sums = np.abs(np.asarray(M)).sum(axis=axis, dtype=np.float64)
        return float(np.max(sums, initial=0.0))
    # from the stored entries directly: abs(M) would first sort the indices
    M = M.tocoo(copy=False)
    weights = np.abs(M.data).astype(np.float64)
    if axis is None:
        return float(weights.sum())
    sums = np.bincount(M.col if axis == 0 else M.row, weights=weights)
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


def checked_kron(A, B, label: str) -> np.ndarray:
    """Kronecker product of dense arrays; its entries are entrywise products."""
    _refuse_beyond(_max_abs(A) * _max_abs(B), label, "entrywise product")
    return np.kron(A, B)


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
    """Integer division that must leave no remainder; arrays or scalars."""
    if d <= 0:
        raise ValueError("divisor must be positive")
    if sp.issparse(x):
        x = np.asarray(x.todense())
    if isinstance(x, np.ndarray):
        if np.any(x % d):
            raise IntegrityError(f"{label}: value not divisible by {d}")
        return x // d
    x = int(x)
    if x % d:
        raise IntegrityError(f"{label}: value {x} not divisible by {d}")
    return x // d


def nonbacktracking_matrix(index: DirectedEdgeIndex) -> sp.csr_matrix:
    """B[e, f] = 1 iff f starts where e ends and f is not e reversed."""
    tail = np.asarray(index.tail, dtype=np.int64)
    head = np.asarray(index.head, dtype=np.int64)
    # row e lists the edges leaving head[e], ids ascending, less rev e
    by_tail = np.argsort(tail, kind="stable")
    out_deg = np.bincount(tail, minlength=index.graph.n)
    width = out_deg[head]
    cols = by_tail[np.arange(width.sum()) + np.repeat(
        np.cumsum(out_deg)[head] - np.cumsum(width), width)]
    cols = cols[cols != np.repeat(np.arange(index.size) ^ 1, width)]
    indptr = np.concatenate(([0], np.cumsum(width - 1)))
    return sp.csr_matrix((np.ones(cols.size, dtype=np.int64), cols, indptr),
                         shape=(index.size, index.size))


class EdgeSpace:
    """Shared home of B, its small powers, and the derived step matrices.

    Everything is computed lazily and cached; the caller usually keeps one
    EdgeSpace per graph and lets the formulas pull what they need.
    """

    def __init__(self, graph: Graph, index: DirectedEdgeIndex | None = None):
        self.graph = graph
        self.index = index if index is not None else DirectedEdgeIndex(graph)
        self.rev = np.arange(self.index.size, dtype=np.int64) ^ 1
        self.stats: dict = {"peak_product_nnz": 0}
        self._cache: dict = {}

    @property
    def size(self) -> int:
        return self.index.size

    # -- reversal conjugations ------------------------------------------

    def rowrev(self, M):
        """Row reversal: entry (e, f) becomes (rev e, f)."""
        return M[self.rev, :] if sp.issparse(M) else np.asarray(M)[self.rev]

    def colrev(self, M):
        """Column reversal: entry (e, f) becomes (e, rev f)."""
        return M[:, self.rev]

    def revvec(self, v):
        return np.asarray(v)[self.rev]

    # -- powers ----------------------------------------------------------

    def _get(self, key, build):
        val = self._cache.get(key)
        if val is None:
            val = build()
            self._cache[key] = val
        return val

    @property
    def B(self) -> sp.csr_matrix:
        return self._get("B", lambda: nonbacktracking_matrix(self.index))

    def power(self, k: int) -> sp.csr_matrix:
        """B^k for 1 <= k <= 4; higher powers are never materialized."""
        if not 1 <= k <= 4:
            raise ValueError("only powers 1..4 are materialized")
        if k == 1:
            return self.B
        return self._get(
            ("pow", k),
            lambda: checked_matmul(self.power(k - 1), self.B, f"B^{k}",
                                   self.stats))

    # -- derived step matrices ------------------------------------------

    @property
    def triangle_step(self) -> sp.csr_matrix:
        """Two-steps closed into a triangle by the reverse single step."""
        return self._get("triangle_step", lambda: checked_hadamard(
            self.power(2), self.B.T.tocsr(), "triangle_step"))

    @property
    def wedge_step(self) -> sp.csr_matrix:
        """Two-steps whose endpoints do not bound a triangle."""
        return self._get("wedge_step",
                         lambda: (self.power(2) - self.triangle_step).tocsr())

    @property
    def square_step(self) -> sp.csr_matrix:
        """Two-steps matched by a reverse two-step: opposite sides of a square."""
        return self._get("square_step", lambda: checked_hadamard(
            self.power(2), self.power(2).T.tocsr(), "square_step"))

    @property
    def crossed_square_step(self) -> sp.csr_matrix:
        """Square steps whose reversed exit also closes a square (K4 marker)."""
        return self._get("crossed_square_step", lambda: checked_hadamard(
            self.square_step, self.colrev(self.square_step).tocsr(),
            "crossed_square_step"))

    @property
    def twin_wedge_step(self) -> sp.csr_matrix:
        """Two-step pairs reaching both orientations of the same far edge.

        Entry [e, f] is set when both endpoints of f neighbor the head of
        e while avoiding its tail, so f spans a triangle hanging off the
        head of e.
        """
        return self._get("twin_wedge_step", lambda: checked_hadamard(
            self.power(2), self.colrev(self.power(2)).tocsr(),
            "twin_wedge_step"))

    @property
    def triangle_exit_step(self) -> sp.csr_matrix:
        """Edges stepping out of a triangle erected on the current edge.

        Entry [e, f] is set when the tail of f neighbors both endpoints
        of e (closing a triangle over e) and the head of f lies outside
        e. The row-reversed sibling of the twin wedge step.
        """
        return self._get("triangle_exit_step", lambda: checked_hadamard(
            self.power(2), self.rowrev(self.power(2)).tocsr(),
            "triangle_exit_step"))

    @property
    def chordless_three_step(self) -> sp.csr_matrix:
        """Three-steps visiting five distinct vertices.

        Entries of B^3 are dropped wherever the reverse single step or
        either reversal-conjugate of B is nonzero, which removes the
        walks whose far endpoint collides with the starting edge. The
        diagonal is cleared as well: those are the closed walks around a
        triangle, which the index-collision masks cannot see.
        """
        def build():
            M = self.power(3).copy()
            for mask in (self.B.T.tocsr(), self.colrev(self.B).tocsr(),
                         self.rowrev(self.B).tocsr()):
                drop = M.multiply(mask != 0)
                M = (M - drop).tocsr()
            M.setdiag(0)
            M.eliminate_zeros()
            return M.tocsr()
        return self._get("chordless_three_step", build)

    @property
    def triangle_join_step(self) -> sp.csr_matrix:
        """Triangle exit step composed with the row-reversed triangle step.

        Entry [e, f] counts bowties: a triangle over e joined at one
        apex to a second triangle whose far edge is f.
        """
        return self._get("triangle_join_step", lambda: checked_matmul(
            self.triangle_exit_step, self.rowrev(self.triangle_step).tocsr(),
            "triangle_join_step", self.stats))

    # -- diagonals and traces of high powers ----------------------------
    #
    # Powers above B^4 are never held in memory. Diagonals come from
    # Hadamard pairings of small powers. The traces come from vertex space:
    # by the Ihara-Bass identity det(I - uB) = (1 - u^2)^(m-n) det(I - uB~)
    # with the 2n x 2n operator B~ = [[A, I - D], [I, 0]], tr(B^k) equals
    # tr(B~^k) for odd k and tr(B~^k) + 2(m - n) for even k.

    def diag(self, k: int) -> np.ndarray:
        label = f"diag:B^{k}"
        if k == 4:
            return self._get("diag4", lambda: checked_total(
                self.square_step, label, axis=1))
        # diag(B^(i+j)) pairs B^i with the transpose of B^j
        pairs = {3: (2, 1), 5: (2, 3), 6: (3, 3)}
        if k not in pairs:
            raise ValueError("diagonals available for k in 3..6")
        i, j = pairs[k]
        return self._get(f"diag{k}", lambda: checked_total(checked_hadamard(
            self.power(i), self.power(j).T, label), label, axis=1))

    def trace(self, k: int) -> int:
        """tr(B^k) for 3 <= k <= 9, read from a table built once in vertex
        space: tr(B~^k), plus 2(m - n) for even k (see above)."""
        if not 3 <= k <= 9:
            raise ValueError("traces available for k in 3..9")
        value = self._get("traces", self._trace_table)[k]
        if isinstance(value, IntegrityError):
            raise value.with_traceback(None)
        return value

    def _trace_table(self) -> dict:
        """tr(B^k), k = 3..9, or the IntegrityError that refused it. Each
        tr(B~^k) totals B~^i times (B~^j)^T entrywise, i + j = k; the powers
        of B~ are dropped on return."""
        start = time.perf_counter()
        n, m = self.graph.n, self.graph.m
        tail = np.asarray(self.index.tail, dtype=np.int64)
        head = np.asarray(self.index.head, dtype=np.int64)
        A = sp.csr_matrix((np.ones(self.size, dtype=np.int64), (tail, head)),
                          shape=(n, n), dtype=np.int64)
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
                        powers[-1], step, f"trace:B~^{len(powers)}",
                        self.stats))
                pair = checked_hadamard(powers[i], powers[j].T,
                                        f"trace:B~^{k} pairing")
                table[k] = (checked_total(pair, f"trace:B^{k}")
                            + (1 + (-1) ** k) * (m - n))
            except IntegrityError as exc:
                table[k] = exc
        self.stats["traces_ms"] = int((time.perf_counter() - start) * 1000)
        return table

    # -- aggregation -----------------------------------------------------

    def gamma(self, edge_vec) -> np.ndarray:
        """Sum a directed-edge vector over each vertex's outgoing edges."""
        v = np.asarray(edge_vec).ravel()
        if v.shape[0] != self.size:
            raise ValueError("gamma expects a directed-edge-indexed vector")
        _check_sums(v, None, "gamma")
        out = np.zeros(self.graph.n, dtype=v.dtype)
        np.add.at(out, np.asarray(self.index.tail, dtype=np.int64), v)
        return out
