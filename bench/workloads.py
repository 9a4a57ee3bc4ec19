"""Seeded inputs and the CLI invocations of each benchmark workload.

Every workload is a function of ``--seed`` alone. The large workloads draw
each graph from a fixed pool of ``POOL`` seeded graphs of its kind
(``seed % POOL``), so each pool member can carry stored reference totals; the small certify
corpus is checked at run time by the program's own brute-force oracle and
is drawn straight from the seed.

Sizes are held per graph kind (n, m, hub degrees, and nnz(B) or nnz(B^2)
within a fraction of a percent), so two seeds differ only in which edges
are drawn: timing differences between seeds stay small, and a changed size
shows in the printed fingerprint instead of passing as a speed change.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

POOL = 16

# Order-4 rooted patterns for the constructive engine (``generic:``). The
# connection engine's cell budget refuses hosts above n=7 for these by
# design, so they only ride along on the n=7 hosts of the certify corpus.
PATTERNS = {
    "paw.txt": "r: a\ns: b c\na b\na c\nb c\nc d\n",
    "square.txt": "r: a\ns: c\na b\nb c\nc d\nd a\n",
}


@dataclass
class Invocation:
    """One CLI child: its arguments, where its report goes, how to check it."""
    name: str
    args: list[str]
    report: Path
    check: str                  # "cycles" | "json_totals" | "csv_totals" | "oracle"
    ref: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    inputs: list[dict]          # one fingerprint per generated edge list


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _decode_pairs(n: int, picks) -> list[tuple[int, int]]:
    """Map pair slots 0..n(n-1)/2-1 to (u, v), u < v, row by row."""
    starts = []
    acc = 0
    for u in range(n - 1):
        starts.append(acc)
        acc += n - 1 - u
    out = []
    for idx in picks:
        u = bisect.bisect_right(starts, idx) - 1
        out.append((u, u + 1 + idx - starts[u]))
    return out


def uniform_graph(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Exactly m distinct edges drawn uniformly (the criterion-7 family)."""
    return _decode_pairs(n, rng.sample(range(n * (n - 1) // 2), m))


def _degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def typical_uniform_graph(n: int, m: int, rng: random.Random,
                          tol: float = 0.0025) -> list[tuple[int, int]]:
    """A uniform graph redrawn until nnz(B) is within ``tol`` of its mean.

    nnz(B) = sum of d(d-1). Over plain draws it varies by about 0.5%, and
    the nnz of B^4 (and the census time) follow it at a multiple. Holding
    it near its G(n, m) mean (each degree is hypergeometric) keeps seeds
    comparable.
    """
    pairs = n * (n - 1) // 2
    mean = m * (n - 1) / pairs
    var = mean * (1 - (n - 1) / pairs) * (pairs - m) / (pairs - 1)
    target = n * (var + mean * mean - mean)
    while True:
        edges = uniform_graph(n, m, rng)
        nnz_b = sum(d * (d - 1) for d in _degrees(n, edges))
        if abs(nnz_b / target - 1) <= tol:
            return edges


def hub_graph(n: int, rng: random.Random, hubs: int = 4, p: float = 0.15,
              background_deg: int = 4) -> list[tuple[int, int]]:
    """A few hubs over a uniform background of the given average degree.

    Each hub is joined to exactly round(p*(n-1)) of the other vertices and
    to nothing else: no hub-hub edges and no background edges at a hub, so
    every hub has the same degree on every seed.
    """
    order = rng.sample(range(n), n)
    centers, rest = order[:hubs], order[hubs:]
    edges = {(min(rest[u], rest[v]), max(rest[u], rest[v]))
             for u, v in uniform_graph(len(rest), background_deg * n // 2, rng)}
    reach = round(p * (n - 1))
    for h in centers:
        for v in rng.sample(rest, reach):
            edges.add((h, v) if h < v else (v, h))
    return sorted(edges)


def typical_hub_graph(n: int, rng: random.Random, target: int = 3_350_000,
                      tol: float = 0.004) -> list[tuple[int, int]]:
    """A hub graph (n=2000) redrawn until nnz(B^2) is within ``tol`` of
    ``target``, the median over plain draws.

    nnz(B^2) = sum over edges uv of 2(d_u-1)(d_v-1). The hub degrees fix
    nnz(B), but nnz(B^2) still varies by 1.3% with the degrees of the
    hubs' neighbours, and nnz(B^3), the largest product, follows it.
    """
    while True:
        edges = hub_graph(n, rng)
        deg = _degrees(n, edges)
        nnz_b2 = sum(2 * (deg[u] - 1) * (deg[v] - 1) for u, v in edges)
        if abs(nnz_b2 / target - 1) <= tol:
            return edges


def write_edges(path: Path, edges) -> dict:
    """Write an edge list and return its fingerprint."""
    text = "".join(f"{u} {v}\n" for u, v in edges)
    path.write_text(text, encoding="ascii")
    deg: dict[int, int] = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return {
        "file": path.name,
        "n": len(deg),
        "m": len(edges),
        "max_degree": max(deg.values(), default=0),
        "sha256": hashlib.sha256(text.encode("ascii")).hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# The large invocations, by graph kind: the counters asked for, the extra
# CLI arguments and the check applied to the report.
LARGE = {
    "census_sparse": ("cycles", [], "cycles"),
    "motifs_json": ("order3,order4,order5", [], "json_totals"),
    "hub_csv": ("order3,order4,order5,k6", ["--format", "csv"], "csv_totals"),
}


def _pool_seed(kind: str, seed: int) -> int:
    return {"census_sparse": 3_000_000, "motifs_json": 4_000_000,
            "hub_csv": 5_000_000}[kind] + seed % POOL


def large_graph(kind: str, seed: int) -> list[tuple[int, int]]:
    """The pool graph of this kind for this seed."""
    rng = random.Random(_pool_seed(kind, seed))
    if kind == "hub_csv":
        return typical_hub_graph(2000, rng)
    return typical_uniform_graph(2000, 3 * 2000, rng)


def large_invocation(kind: str, seed: int, work: Path,
                     references: dict) -> tuple[Invocation, dict]:
    """Write the pool graph of ``kind`` under ``work``; its run and fingerprint."""
    graph = work / f"{kind}.txt"
    fp = write_edges(graph, large_graph(kind, seed))
    ref = references[kind][str(seed % POOL)]
    if ref["sha256"] != fp["sha256"]:
        raise SystemExit("error: the generated graph is not the one the "
                         "stored references were made for")
    fp["pool_index"] = seed % POOL
    counts, fmt, check = LARGE[kind]
    report = work / f"{kind}.out"
    inv = Invocation(kind, ["--input", str(graph), "--counts", counts, *fmt,
                            "--output", str(report)], report, check, ref)
    return inv, fp


def certify_corpus(seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Small Erdős–Rényi G(n, m) hosts with fixed (n, m) slots.

    Draws with an isolated vertex are redrawn, so every host has exactly n
    vertices; a host one vertex short costs the oracle half as much, which
    would read as a speed change between seeds. Hosts stop at n=9 so a
    pass stays short enough for several per run. The n=7 hosts also run
    the generic patterns; larger hosts would be refused by the connection
    engine's cell budget.
    """
    rng = random.Random(7_000_000 + seed)
    corpus = []
    for n, m in [(7, 10), (7, 11), (8, 12), (8, 13), (9, 14), (9, 15)]:
        edges = uniform_graph(n, m, rng)
        while len({v for e in edges for v in e}) < n:
            edges = uniform_graph(n, m, rng)
        corpus.append((n, edges))
    return corpus


def certify_invocations(seed: int, work: Path) -> tuple[list[Invocation],
                                                      list[dict]]:
    """The certify corpus under ``work``, each host run with --oracle-check."""
    for fname, text in PATTERNS.items():
        (work / fname).write_text(text, encoding="ascii")
    invs, fps = [], []
    for i, (n, edges) in enumerate(certify_corpus(seed)):
        fp = write_edges(work / f"host{i}.txt", edges)
        fps.append(fp)
        counts = "order3,order4,order5,cycles,k6"
        if n <= 7:
            counts += "".join(f",generic:{work / p}" for p in PATTERNS)
        report = work / f"report{i}.json"
        invs.append(Invocation(f"host{i}", [
            "--input", str(work / f"host{i}.txt"), "--counts", counts,
            "--oracle-check", "--output", str(report)], report, "oracle"))
    return invs, fps


# Why each workload exists is recorded in BENCHMARK.json and README.md.
NAMES = ("census", "motifs")


def build(name: str, seed: int, work: Path, references: dict) -> Workload:
    """Generate the inputs of one workload under ``work`` and list its runs."""
    work.mkdir(parents=True, exist_ok=True)
    if name == "census":
        inv, fp = large_invocation("census_sparse", seed, work, references)
        invs, fps = certify_invocations(seed, work)
        return Workload(name, [inv, *invs], [fp, *fps])
    if name == "motifs":
        runs = [large_invocation(kind, seed, work, references)
                for kind in ("motifs_json", "hub_csv")]
        return Workload(name, [inv for inv, _ in runs], [fp for _, fp in runs])
    raise KeyError(name)
