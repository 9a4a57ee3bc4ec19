"""The report writers against the encoders they replace.

``cli._to_json`` and ``cli._to_csv`` write straight from the count
vectors. Their output must stay byte-identical to what the report gave
when every per-location block was a ``{label: count}`` dict: the JSON
of ``json.dumps(report, indent=2, sort_keys=True)`` and the CSV of the
per-cell writer kept below as the reference. ``cli._generic_section``
reads only the nonzero cells of the engine's matrix; the loop over every
cell that it replaces is kept below as its reference.
"""

import csv
import io
import json
import tempfile
from contextlib import redirect_stderr
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nbcensus import cli
from nbcensus.cli import PerLocation, RunConfig
from nbcensus.edge_matrix import EdgeSpace
from nbcensus.graphs import Graph, GraphError

TRIANGLE_PATTERN = "r: x\ns: y z\nx y\nx z\ny z\n"
# the cell budget refuses this paw on hosts of eight or more vertices
PAW_PATTERN = "r: a\ns: b c\na b\na c\nb c\nc d\n"
# the benchmark's second generic: pattern
SQUARE_PATTERN = "r: a\ns: c\na b\nb c\nc d\nd a\n"
# a path rooted on one side only: its column tuple is the empty tuple
PATH_PATTERN = "r: a c\ns:\na b\nb c\n"


def as_dicts(obj):
    """A copy of a report with each PerLocation as its ``{label: count}``."""
    if isinstance(obj, PerLocation):
        return dict(zip(obj.labels, obj.values.tolist()))
    if isinstance(obj, dict):
        return {key: as_dicts(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [as_dicts(item) for item in obj]
    return obj


def csv_reference(report: dict, config: RunConfig, index) -> str:
    """The per-cell CSV writer, on a report whose blocks are dicts."""
    g = index.graph
    edge_rows = list(index.labels)
    vertex_rows = list(g.labels)
    columns = []
    counters = report["counters"]
    refused = report.get("errors", {})
    for counter in config.counters:
        if counter in refused:
            continue
        if counter in ("order3", "order4", "order5"):
            section = counters[counter]
            order = counter[-1]
            for mid, block in section["edge"].items():
                columns.append((f"o{order}:{mid}", block["per_location"],
                                None, block["total"]))
            for mid, block in section["vertex"].items():
                columns.append((f"o{order}:{mid}", None,
                                block["per_location"], block["total"]))
        elif counter == "k6":
            block = counters["k6"]
            columns.append(("k6", block["per_location"], None,
                            block["total"]))
        elif counter == "cycles":
            for name, value in counters["cycles"].items():
                columns.append((name, None, None, value))
        else:
            block = counters[counter]
            columns.append((counter, None, None, block["total"]))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["location"] + [c[0] for c in columns])
    for label in edge_rows:
        writer.writerow([label] + [("" if by_edge is None
                                    else by_edge.get(label, 0))
                                   for _, by_edge, _, _ in columns])
    for label in vertex_rows:
        writer.writerow([label] + [("" if by_vertex is None
                                    else by_vertex.get(label, 0))
                                   for _, _, by_vertex, _ in columns])
    writer.writerow(["__total__"] + [c[3] for c in columns])
    return buf.getvalue()


def run_capturing(config: RunConfig, writer: str):
    """``cli.run(config)``, plus the arguments it handed the writer."""
    seen = []
    real = getattr(cli, writer)

    def spy(*args):
        seen.append(args)
        return real(*args)
    with mock.patch.object(cli, writer, spy):
        status, text = cli.run(config)
    assert len(seen) == 1
    return status, text, seen[0]


# Tokens the edge-list reader keeps whole: no whitespace, no comment mark.
_char = st.characters(blacklist_categories=("Cs",)).filter(
    lambda c: not c.isspace() and c != "#")
_label = st.one_of(
    st.sampled_from(['"', '\\', ',', 'a,b', '"q"', '\x01', '\x1b', '\x7f',
                     'é', 'Ω', '漢', '😀', '\U00010000', '10', '9', '-1',
                     '01', '1e3', 'a->', '->b', '%', '%d', '5%%']),
    st.text(_char, min_size=1, max_size=4))


@st.composite
def hosts(draw):
    """(vertex labels, edges as label index pairs, counters, oracle check)."""
    labels = draw(st.lists(_label, min_size=0, max_size=9, unique=True))
    pairs = [(i, j) for i in range(len(labels))
             for j in range(i + 1, len(labels))]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=14)
                 if pairs else st.just([]))
    counters = draw(st.lists(
        st.sampled_from(["order3", "order4", "k6", "cycles", "triangle",
                         "paw"]),
        min_size=1, max_size=4, unique=True))
    if "paw" in counters and len({v for e in edges for v in e}) < 8:
        # the budget refuses it from eight vertices; below, the engine
        # would run it at seconds per example
        counters.remove("paw")
    return labels, edges, counters or ["order3"], draw(st.booleans())


EXAMPLES = [
    # empty edge list
    ([], [], ["order3", "k6", "cycles"], True),
    # labels that need escapes or quoting; numeric-looking labels whose
    # string order is not their first-appearance order
    (['é', '"q"', 'a,b', '\\x', '😀', '10', '9', '-1', '\x01z'],
     [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 7),
      (7, 0), (8, 6), (8, 1)],
     ["order3", "order4", "k6", "cycles", "triangle"], True),
    # tokens containing '->', which would make two directed edges print the
    # same label a->x->b: refused at parse time
    (['a->x', 'b', 'a', 'x->b'], [(0, 1), (2, 3), (1, 3), (1, 2)],
     ["order3", "k6"], True),
    # a refused counter (an errors section) beside a generic: section
    ([str(v) for v in range(8)],
     [(v, (v + 1) % 8) for v in range(8)] + [(0, 2), (2, 4)],
     ["order3", "triangle", "paw"], False),
]


@pytest.fixture(scope="module")
def patterns():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "triangle.txt").write_text(TRIANGLE_PATTERN)
        (root / "paw.txt").write_text(PAW_PATTERN)
        (root / "square.txt").write_text(SQUARE_PATTERN)
        (root / "path.txt").write_text(PATH_PATTERN)
        yield root


def host_config(root: Path, host, fmt: str) -> RunConfig:
    labels, edges, counters, oracle_check = host
    path = root / "host.txt"
    path.write_text("".join(f"{labels[u]} {labels[v]}\n" for u, v in edges),
                    encoding="utf-8")
    counters = [f"generic:{root / (c + '.txt')}"
                if c in ("triangle", "paw") else c for c in counters]
    return RunConfig(str(path), tuple(counters), fmt=fmt,
                     oracle_check=oracle_check)


def with_examples(test):
    for host in EXAMPLES:
        test = example(host=host)(test)
    return test


def arrow_refusal(host) -> str | None:
    """The error line the edge-list reader gives a host with a vertex token
    containing '->' (the first such line names its first such token), or
    None when no token has one."""
    labels, edges = host[0], host[1]
    for lineno, (u, v) in enumerate(edges, start=1):
        for token in (labels[u], labels[v]):
            if "->" in token:
                return (f"error: line {lineno}: vertex token {token!r} "
                        "contains '->'\n")
    return None


def writer_or_refusal(config: RunConfig, host, writer: str):
    """``run_capturing(config, writer)``, or None after checking that a host
    whose tokens contain '->' exits 1 with one error line and no report."""
    want = arrow_refusal(host)
    if want is None:
        return run_capturing(config, writer)
    stderr = io.StringIO()
    with mock.patch.object(cli, writer) as spy, redirect_stderr(stderr):
        assert cli.run(config) == (1, "")
    assert stderr.getvalue() == want
    assert not spy.called
    return None


@settings(max_examples=100, deadline=None)
@given(host=hosts())
@with_examples
def test_json_writer_matches_json_dumps(patterns, host):
    got = writer_or_refusal(host_config(patterns, host, "json"), host,
                            "_to_json")
    if got is None:
        return
    status, text, (report, _) = got
    assert text == json.dumps(as_dicts(report), indent=2,
                              sort_keys=True) + "\n"
    if "paw" in host[2]:
        assert status == 2 and report["errors"]


@settings(max_examples=100, deadline=None)
@given(host=hosts())
@with_examples
def test_csv_writer_matches_per_cell_writer(patterns, host):
    got = writer_or_refusal(host_config(patterns, host, "csv"), host,
                            "_to_csv")
    if got is None:
        return
    _, text, (report, config, index, _) = got
    assert text == csv_reference(as_dicts(report), config, index)


def entries_per_cell(km, labels) -> dict:
    """The generic section's entries from a loop over every cell."""
    n = km.n

    def name(idx: int, arity: int) -> str:
        return ",".join(labels[idx // n ** (arity - 1 - a) % n]
                        for a in range(arity))
    entries = {}
    rows, cols = km.data.shape
    for ri in range(rows):
        for ci in range(cols):
            v = int(km.data[ri, ci])
            if v:
                entries[f"{name(ri, km.row_arity)}->"
                        f"{name(ci, km.col_arity)}"] = v
    return entries


@st.composite
def small_hosts(draw):
    """Graphs on at most 7 vertices, labelled with tokens the reader keeps."""
    labels = draw(st.lists(_label.filter(lambda t: "->" not in t),
                           max_size=7, unique=True))
    pairs = [(i, j) for i in range(len(labels))
             for j in range(i + 1, len(labels))]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=21)
                 if pairs else st.just([]))
    return Graph(len(labels), edges, labels)


@settings(max_examples=60, deadline=None)
@given(g=small_hosts(),
       name=st.sampled_from(["triangle", "paw", "square", "path"]))
@example(g=Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)],
                 ["x", "a", "b,c", "a,b", "c"]), name="triangle")
def test_generic_entries_match_the_per_cell_loop(patterns, g, name):
    counter = f"generic:{patterns / (name + '.txt')}"
    computed = {}
    try:
        section = cli._generic_section(EdgeSpace(g), counter, computed)
    except GraphError:
        section = None
    _, km = computed[counter]
    # the layout: cells in itertools.product order of the vertex tuples
    assert [km.entry(i, j) for i in product(range(g.n), repeat=km.row_arity)
            for j in product(range(g.n), repeat=km.col_arity)
            ] == km.data.ravel().tolist()
    want = entries_per_cell(km, g.labels)
    if len(want) < np.count_nonzero(km.data):
        # two vertex tuples print one key: the section is refused
        assert section is None
    else:
        assert section is not None
        assert list(section["entries"].items()) == list(want.items())
