"""Shared graph builders and deterministic corpora for the test suite."""

import itertools
import random

import pytest
from hypothesis import strategies as st

from nbcensus.graphs import Graph


def er_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi draw; deterministic across runs and platforms."""
    rng = random.Random(seed)
    edges = [e for e in itertools.combinations(range(n), 2)
             if rng.random() < p]
    return Graph(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def wheel_graph(rim: int) -> Graph:
    spokes = [(i, rim) for i in range(rim)]
    return Graph(rim + 1, [(i, (i + 1) % rim) for i in range(rim)] + spokes)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


@st.composite
def forests(draw):
    n = draw(st.integers(1, 9))
    return Graph(n, [(v, draw(st.integers(0, v - 1))) for v in range(1, n)
                     if draw(st.booleans())])


@st.composite
def clique_unions(draw):
    """Disjoint small cliques; size-1 cliques are isolated vertices."""
    edges, n = [], 0
    for size in draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)):
        edges += itertools.combinations(range(n, n + size), 2)
        n += size
    return Graph(n, edges)


@st.composite
def pendant_heavy(draw):
    core = draw(st.integers(1, 4))
    leaves = draw(st.lists(st.integers(0, core - 1), max_size=8))
    return Graph(core + len(leaves),
                 list(itertools.combinations(range(core), 2))
                 + [(v, core + i) for i, v in enumerate(leaves)])


@st.composite
def sparse_graphs(draw):
    """Few edges over up to 9 vertices: isolated vertices, several
    components."""
    n = draw(st.integers(2, 9))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, draw(st.lists(st.sampled_from(pairs), max_size=n,
                                  unique=True)))


def degenerate_graphs() -> st.SearchStrategy:
    """Edgeless graphs (``Graph(0, [])`` included), forests, disjoint
    cliques, pendant-heavy graphs and sparse graphs."""
    return st.one_of(st.integers(0, 5).map(lambda n: Graph(n, [])),
                     forests(), clique_unions(), pendant_heavy(),
                     sparse_graphs())


def differential_hosts() -> st.SearchStrategy:
    """Hosts for whole-vector differential tests: the degenerate graphs
    above plus every K_n with n <= 8; many have fewer vertices than a
    pattern of order 5 or 6."""
    return st.one_of(degenerate_graphs(),
                     st.integers(1, 8).map(complete_graph))


@pytest.fixture(scope="session")
def k4() -> Graph:
    return complete_graph(4)


@pytest.fixture(scope="session")
def petersen() -> Graph:
    return petersen_graph()


@pytest.fixture(scope="session")
def mixed_corpus() -> list[Graph]:
    """Fixed assortment: named graphs plus a seeded random spread."""
    graphs = [
        complete_graph(4),
        complete_graph(5),
        cycle_graph(9),
        wheel_graph(6),
        petersen_graph(),
    ]
    for seed, (n, p) in enumerate(
            [(6, 0.5), (7, 0.4), (8, 0.35), (9, 0.3), (10, 0.5)],
            start=411):
        graphs.append(er_graph(n, p, seed))
    return graphs
