"""End-to-end runs of the command-line front end."""

import importlib.util
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from click.testing import CliRunner

from nbcensus import cli
from nbcensus.cli import RunConfig, load_pattern, main, run
from nbcensus.edge_matrix import IntegrityError
from nbcensus.graphs import GraphError

ROOT = Path(__file__).resolve().parent.parent
K4_TEXT = "a b\na c\na d\nb c\nb d\nc d\n"
TRIANGLE_TEXT = "x y\ny z\nz x\n"
PATTERN_TEXT = "r: x\ns: y z\nx y\nx z\ny z\n"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT)
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text(TRIANGLE_TEXT)
    return str(path)


def test_cycles_on_k4(runner, k4_file):
    result = runner.invoke(main, ["--input", k4_file, "--counts", "cycles"])
    assert result.exit_code == 0, result.stdout
    report = json.loads(result.stdout)
    assert report["meta"] == {"n": 4, "m": 6, "l": 12}
    assert report["counters"]["cycles"] == {
        "C3": 4, "C4": 3, "C5": 0, "C6": 0, "C7": 0, "C8": 0, "C9": 0}
    assert "errors" not in report


def test_cycles_on_empty_edge_list(runner, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    result = runner.invoke(main, ["--input", str(path), "--counts", "cycles"])
    assert result.exit_code == 0, result.stdout
    report = json.loads(result.stdout)
    assert report["meta"] == {"n": 0, "m": 0, "l": 0}
    assert report["counters"]["cycles"] == {f"C{k}": 0 for k in range(3, 10)}


def test_order3_oracle_check_verifies(runner, triangle_file):
    result = runner.invoke(main, [
        "--input", triangle_file, "--counts", "order3", "--oracle-check"])
    assert result.exit_code == 0, result.stdout
    report = json.loads(result.stdout)
    check = report["oracle_check"]["order3"]
    assert check == {"verified": True, "checked": 6}
    section = report["counters"]["order3"]
    assert section["edge"]["C3"]["total"] == 6
    assert section["vertex"]["P3v"]["per_location"] == {
        "x": 2, "y": 2, "z": 2}


def test_oracle_check_skips_when_over_budget(runner, k4_file):
    result = runner.invoke(main, [
        "--input", k4_file, "--counts", "cycles", "--oracle-check",
        "--max-oracle-n", "3"])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["oracle_check"]["cycles"]["status"].startswith("skipped")


def test_missing_input_fails_cleanly(runner, tmp_path):
    result = runner.invoke(main, [
        "--input", str(tmp_path / "nope.txt"), "--counts", "cycles"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert "error:" in result.stderr


def test_unwritable_output_fails_cleanly(runner, k4_file, tmp_path):
    out = tmp_path / "missing-dir" / "report.json"
    result = runner.invoke(main, ["--input", k4_file, "--counts", "order3",
                                  "--output", str(out)])
    assert result.exit_code == 1
    assert "error: cannot write report: " in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_unknown_counter_is_usage_error(runner, k4_file):
    result = runner.invoke(main, ["--input", k4_file, "--counts", "order7"])
    assert result.exit_code != 0
    assert "unknown counter" in result.stderr


def test_timings_stay_off_the_report(runner, k4_file):
    result = runner.invoke(main, ["--input", k4_file, "--counts", "cycles"])
    assert "[timing]" not in result.stdout
    assert "[timing] parse:" in result.stderr
    assert "[stats] peak product nnz:" in result.stderr


def test_trace_table_timing_goes_to_stderr(runner, k4_file):
    result = runner.invoke(main, ["--input", k4_file, "--counts", "cycles"])
    assert "[timing] traces:" in result.stderr
    assert "[timing]" not in result.stdout


def _out_of_memory(*args, **kwargs):
    raise MemoryError()


@pytest.mark.parametrize("patched, args, stage", [
    ("_to_json", [], "report"),
    ("simple_cycle_census", ["--oracle-check"], "check:cycles"),
])
def test_out_of_memory_after_the_counters_is_one_error_line(
        runner, triangle_file, tmp_path, monkeypatch, patched, args, stage):
    """A MemoryError in the oracle check or in writing the report ends the
    run as one in a counter stage does: exit 1, one ``error:`` line naming
    the stage, and no report."""
    monkeypatch.setattr(cli, patched, _out_of_memory)
    report = tmp_path / "report.json"
    result = runner.invoke(main, ["--input", triangle_file, "--counts",
                                  "cycles", *args, "--output", str(report)])
    assert result.exit_code == 1, result.stderr
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.stderr.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: {stage}: out of memory"]
    assert "Traceback" not in result.stderr
    assert not result.stdout and not report.exists()


def test_oracle_check_reuses_the_computed_counts(runner, k4_file,
                                                 monkeypatch):
    calls = []

    def counted(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper
    for name in ("full_census", "evaluate_catalog"):
        monkeypatch.setattr(cli, name, counted(name))
    result = runner.invoke(main, [
        "--input", k4_file, "--counts", "order3,cycles", "--oracle-check"])
    assert result.exit_code == 0, result.stdout
    assert sorted(calls) == ["evaluate_catalog", "full_census"]
    checks = json.loads(result.stdout)["oracle_check"]
    assert checks["cycles"] == {"verified": True, "checked": 7}
    assert checks["order3"] == {"verified": True, "checked": 6}


def test_oracle_check_marks_refused_counters_unverified(runner, k4_file,
                                                        monkeypatch):
    def refused_census(space):
        raise IntegrityError("C7: refused")
    real = cli.evaluate_catalog

    def one_entry_refused(space, entries, collect_errors=None):
        values = real(space, entries, collect_errors=collect_errors)
        mid = next(iter(entries))
        del values[mid]
        collect_errors[mid] = f"{mid}: refused"
        return values
    monkeypatch.setattr(cli, "full_census", refused_census)
    monkeypatch.setattr(cli, "evaluate_catalog", one_entry_refused)
    result = runner.invoke(main, [
        "--input", k4_file, "--counts", "order3,cycles", "--oracle-check"])
    assert result.exit_code == 2
    report = json.loads(result.stdout)
    assert report["oracle_check"] == {"cycles": {"verified": False},
                                      "order3": {"verified": False}}
    assert report["errors"]["check:cycles"] == "C7: refused"
    assert report["errors"]["check:order3"].endswith(": refused")


def test_repeated_runs_are_byte_identical(runner, k4_file, tmp_path):
    args = ["--input", k4_file, "--counts", "order3,cycles,k6"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.stdout == second.stdout
    out_path = tmp_path / "report.json"
    third = runner.invoke(main, args + ["--output", str(out_path)])
    assert third.exit_code == 0
    assert out_path.read_text() == first.stdout


def test_csv_layout(runner, triangle_file):
    result = runner.invoke(main, [
        "--input", triangle_file, "--counts", "order3,cycles",
        "--format", "csv"])
    assert result.exit_code == 0, result.stdout
    lines = result.stdout.splitlines()
    header = lines[0].split(",")
    assert header[0] == "location"
    assert "o3:C3" in header and "C9" in header
    # 6 directed edges, 3 vertices, header and total
    assert len(lines) == 6 + 3 + 2
    assert lines[-1].startswith("__total__")
    total = dict(zip(header, lines[-1].split(",")))
    assert total["o3:C3"] == "6"
    assert total["C3"] == "1"
    by_row = {line.split(",", 1)[0]: line.split(",") for line in lines[1:]}
    c3_col = header.index("o3:C3")
    assert by_row["x->y"][c3_col] == "1"
    assert by_row["x"][c3_col] == ""  # vertex rows leave edge columns blank
    cyc_col = header.index("C3")
    assert by_row["x->y"][cyc_col] == ""  # cycle totals only


def test_csv_gives_refused_counters_no_column(runner, tmp_path):
    host = tmp_path / "c9.txt"
    host.write_text("".join(f"{i} {(i + 1) % 9}\n" for i in range(9)))
    pattern = tmp_path / "paw.txt"
    pattern.write_text("r: a\ns: b c\na b\na c\nb c\nc d\n")
    counter = f"generic:{pattern}"
    # the cell budget refuses the paw's 9^7-cell nodes on nine vertices
    result = runner.invoke(main, ["--input", str(host), "--counts",
                                  f"cycles,{counter}", "--format", "csv"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    lines = result.stdout.splitlines()
    assert lines[0].split(",") == ["location"] + [f"C{k}" for k in range(3, 10)]
    assert lines[-1] == "__total__,0,0,0,0,0,0,1"
    assert f"error: {counter}: " in result.stderr


def test_generic_counter_roundtrip(runner, k4_file, tmp_path):
    pattern_path = tmp_path / "pattern.txt"
    pattern_path.write_text(PATTERN_TEXT)
    result = runner.invoke(main, [
        "--input", k4_file, "--counts", f"generic:{pattern_path}",
        "--oracle-check"])
    assert result.exit_code == 0, result.stdout
    report = json.loads(result.stdout)
    section = report["counters"][f"generic:{pattern_path}"]
    assert section["pattern_order"] == 3
    assert section["row_arity"] == 1 and section["col_arity"] == 2
    assert section["total"] == 24
    assert section["entries"]["a->b,c"] == 1
    assert report["oracle_check"][f"generic:{pattern_path}"] == {
        "verified": True, "checked": 1}


def test_oracle_check_evaluates_each_generic_counter_once(runner, tmp_path,
                                                         monkeypatch):
    host = tmp_path / "c9.txt"
    host.write_text("".join(f"{i} {(i + 1) % 9}\n" for i in range(9)))
    triangle = tmp_path / "triangle.txt"
    triangle.write_text(PATTERN_TEXT)
    paw = tmp_path / "paw.txt"
    paw.write_text("r: a\ns: b c\na b\na c\nb c\nc d\n")
    accepted, refused = f"generic:{triangle}", f"generic:{paw}"
    calls = []
    real = cli.eval_formula

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)
    monkeypatch.setattr(cli, "eval_formula", counted)
    result = runner.invoke(main, [
        "--input", str(host), "--counts", f"{accepted},{refused}",
        "--oracle-check"])
    assert result.exit_code == 2
    assert len(calls) == 2
    report = json.loads(result.stdout)
    assert report["oracle_check"][accepted] == {"verified": True,
                                                "checked": 1}
    # the cell budget refuses the paw on nine vertices; the check says why
    assert report["oracle_check"][refused] == {
        "status": f"skipped: {report['errors'][refused]}"}
    assert set(report["errors"]) == {refused}


# both a->x -> b and a -> x->b would print the label a->x->b
ARROW_TEXT = "a->x b\na x->b\nb x->b\nb a\n"


@pytest.mark.parametrize("args", [
    ["--counts", "order3"],
    ["--counts", "order3", "--format", "csv"],
    ["--counts", "cycles"],
])
def test_arrow_in_a_token_fails_cleanly(runner, tmp_path, args):
    host = tmp_path / "arrow.txt"
    host.write_text(ARROW_TEXT)
    out = tmp_path / "report"
    result = runner.invoke(main, ["--input", str(host), "--output", str(out),
                                  *args])
    assert result.exit_code == 1
    assert result.stderr == (
        "error: line 1: vertex token 'a->x' contains '->'\n")
    assert result.stdout == "" and not out.exists()


def test_non_utf8_files_fail_cleanly(runner, tmp_path, k4_file):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a b\nb \xffc\n")
    result = runner.invoke(main, ["--input", str(bad), "--counts", "cycles"])
    assert result.exit_code == 1 and result.stdout == ""
    assert result.stderr == (
        f"error: {bad}: byte 0xff at offset 6 is not UTF-8\n")
    pattern = tmp_path / "pattern.txt"
    pattern.write_bytes(PATTERN_TEXT.encode() + b"\xfe\n")
    counter = f"generic:{pattern}"
    result = runner.invoke(main, ["--input", k4_file, "--counts", counter])
    assert result.exit_code == 1 and result.stdout == ""
    assert result.stderr == (
        f"error: {counter}: {pattern}: byte 0xfe at offset "
        f"{len(PATTERN_TEXT)} is not UTF-8\n")


def test_byte_order_mark_is_not_part_of_a_token(runner, tmp_path):
    bom = b"\xef\xbb\xbf"
    host = tmp_path / "tri.txt"
    host.write_bytes(bom + TRIANGLE_TEXT.encode())
    pattern = tmp_path / "pattern.txt"
    pattern.write_bytes(bom + PATTERN_TEXT.encode())
    counter = f"generic:{pattern}"
    result = runner.invoke(main, ["--input", str(host), "--counts",
                                  f"cycles,{counter}"])
    assert result.exit_code == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["meta"] == {"n": 3, "m": 3, "l": 6}
    assert report["counters"]["cycles"]["C3"] == 1
    assert report["counters"][counter]["total"] == 6
    # a byte that does not decode is still named by its offset in the file
    host.write_bytes(bom + b"a b\nb \xffc\n")
    result = runner.invoke(main, ["--input", str(host), "--counts", "cycles"])
    assert result.exit_code == 1 and result.stdout == ""
    assert result.stderr == (
        f"error: {host}: byte 0xff at offset 9 is not UTF-8\n")


def test_vertex_named_like_the_csv_totals_row_is_refused(runner, tmp_path):
    host = tmp_path / "total.txt"
    host.write_text("__total__ b\nb c\nc __total__\n")
    out = tmp_path / "report.csv"
    result = runner.invoke(main, ["--input", str(host), "--counts", "order3",
                                  "--format", "csv", "--output", str(out)])
    assert result.exit_code == 1
    assert result.stderr == (
        "error: vertex '__total__' reads as the CSV totals row\n")
    assert result.stdout == "" and not out.exists()
    # JSON keys vertices by label, so the name is harmless there
    result = runner.invoke(main, ["--input", str(host), "--counts", "order3"])
    assert result.exit_code == 0, result.stderr
    vertex = json.loads(result.stdout)["counters"]["order3"]["vertex"]
    assert all("__total__" in block["per_location"]
               for block in vertex.values())


def test_generic_keys_that_collide_are_refused(runner, tmp_path):
    # (x; a, "b,c") and (x; "a,b", c) are two triangles that print one key
    host = tmp_path / "commas.txt"
    host.write_text("x a\nx b,c\nx a,b\nx c\na b,c\na,b c\n")
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(PATTERN_TEXT)
    counter = f"generic:{pattern}"
    result = runner.invoke(main, ["--input", str(host), "--counts", counter])
    assert result.exit_code == 1 and result.stdout == ""
    assert result.stderr == (
        f"error: {counter}: 12 nonzero entries print only 11 distinct keys: "
        "host labels containing ',' join into the same key\n")


def test_pattern_file_needs_root_headers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("x y\ny z\n")
    with pytest.raises(GraphError, match="r: and s:"):
        load_pattern(str(path))
    path.write_text("r: x\ns: q\nx y\n")
    with pytest.raises(GraphError, match="does not appear"):
        load_pattern(str(path))


def test_run_config_validation(k4_file):
    with pytest.raises(ValueError, match="at least one"):
        RunConfig(k4_file, ())
    with pytest.raises(ValueError, match="unknown counter"):
        RunConfig(k4_file, ("order9",))
    with pytest.raises(ValueError, match="repeat"):
        RunConfig(k4_file, ("cycles", "cycles"))
    with pytest.raises(ValueError, match="json or csv"):
        RunConfig(k4_file, ("cycles",), fmt="xml")


def test_run_returns_report_without_click(k4_file):
    status, text = run(RunConfig(k4_file, ("k6",)))
    assert status == 0
    report = json.loads(text)
    assert report["counters"]["k6"]["total"] == 0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bench_tracer_finds_the_cli_entry_points(k4_file, tmp_path, fmt):
    # bench/tracer.py wraps cli functions by name; a rename loses its spans
    trace = tmp_path / "spans.jsonl"
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(PATTERN_TEXT)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(trace), "--",
         "--input", k4_file, "--counts", f"order3,k6,cycles,generic:{pattern}",
         "--oracle-check", "--format", fmt,
         "--output", str(tmp_path / "report")],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    names = {row["name"] for row in rows if row["kind"] == "span"}
    assert {"cli.serialize", "cli.stage", "motifs.catalog",
            "oracle.check", "oracle.edge_rooted", "oracle.vertex_rooted",
            "connection.build_formula", "connection.eval_formula",
            "connection.kappa_direct", "cycle_census.corrections",
            "graphs.index", "graphs.load_graph", "edge_matrix.B"} <= names


def _bench_workloads():
    """bench/workloads.py, the benchmark's seeded graph generators."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve it by name
    spec.loader.exec_module(module)
    return module


def _hub_census(tmp_path, cap: int, p: float = 0.30):
    """``--counts cycles`` on four hubs of degree round(1999 p), 600 by
    default, over the benchmark's hub background, in a child whose address
    space is capped at ``cap`` bytes; the finished child and the graph's
    edges."""
    edges = _bench_workloads().hub_graph(2000, random.Random(7), p=p)
    graph = tmp_path / "hubs.txt"
    graph.write_text("".join(f"{u} {v}\n" for u, v in edges))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-m", "nbcensus.cli", "--input", str(graph),
         "--counts", "cycles", "--output", str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, timeout=600,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    return result, edges


def test_degree_600_hub_census_fits_under_a_700_mb_cap(tmp_path):
    """Four hubs of degree 600 over the benchmark's hub background (n=1991,
    nnz(B^2) = 14.2M; B^3, which the census no longer builds, has 69.5M):
    the cycle census completes with the child's address space capped at
    700 MB. It peaks at about 0.21 GB RSS now that F20, F32 and F33 keep
    only the totals of their blocks of rows (0.37 GB while F20 and F33
    stacked B^3 at (B^2)^T); while they read B^2 whole it peaked at 0.8 GB
    RSS and failed under a 900 MB cap, and whole copies of B^3 ran out of
    memory under 4.5 GB."""
    result, edges = _hub_census(tmp_path, int(7e8))
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert "errors" not in report
    n = max(max(e) for e in edges) + 1
    u, v = np.array(edges).T
    A = sp.csr_matrix((np.ones(2 * len(edges), dtype=np.int64),
                       (np.r_[u, v], np.r_[v, u])), shape=(n, n))
    triangles = int((A @ A).multiply(A).sum()) // 6
    assert report["counters"]["cycles"]["C3"] == triangles


def test_census_out_of_memory_is_one_error_line(tmp_path):
    """Under a 1 GB cap the census of four degree-1399 hubs runs out of
    memory (it peaks at about 1.8 GB RSS uncapped, while the degree-1000
    census, at about 0.6 GB, now fits): the run ends with exit 1, one
    ``error: cycles:`` line and no report, not a traceback."""
    result, _ = _hub_census(tmp_path, int(1e9), p=0.70)
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    errors = [line for line in result.stderr.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: cycles: "), errors
    assert not (tmp_path / "report.json").exists()
