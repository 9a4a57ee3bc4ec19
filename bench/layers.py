"""Fold tracer spans into per-layer metrics.

Times are self times (a span's duration minus its child spans), summed over
the invocations of one pass, so each layer is charged only its own work.
The layers are the package modules; the span names are set in tracer.py.
"""

from __future__ import annotations

from collections import defaultdict

STEPS = {"triangle_step", "wedge_step", "square_step", "crossed_square_step",
         "twin_wedge_step", "triangle_exit_step", "chordless_three_step",
         "triangle_join_step"}

# Every per-layer metric the traced run produces, in report order.
METRICS = [
    "graphs.load_graph_s", "graphs.index_s",
    "edge_matrix.B_s", "edge_matrix.B_nnz",
    "edge_matrix.power_s", "edge_matrix.power_nnz",
    "edge_matrix.steps_s", "edge_matrix.steps_nnz",
    "edge_matrix.diag_s",
    "edge_matrix.trace7_s", "edge_matrix.trace8_s", "edge_matrix.trace9_s",
    "edge_matrix.peak_product_nnz", "edge_matrix.guard_refusals",
    "cycle_census.corrections_s", "cycle_census.cycles_self_s",
    "motifs.order3_s", "motifs.order4_s", "motifs.order5_s", "motifs.k6_s",
    "motifs.recheck_s", "motifs.entries", "motifs.entries_failed",
    "connection.build_formula_s", "connection.eval_formula_s",
    "connection.kappa_direct_s", "connection.scale_refusals",
    "oracle.edge_rooted_s", "oracle.vertex_rooted_s", "oracle.cycle_census_s",
    "oracle.checks", "oracle.mismatches", "oracle.guard_refusals",
    "cli.run_s", "cli.stage_s", "cli.report_s", "cli.serialize_s",
    "cli.report_bytes",
]

SUMMED_COUNTS = ("edge_matrix.guard_refusals", "motifs.entries",
                 "motifs.entries_failed", "connection.scale_refusals",
                 "oracle.checks", "oracle.mismatches",
                 "oracle.guard_refusals", "cli.report_bytes")


# Spans charged by name alone: (time metric, nnz metric).
_SIMPLE = {
    "graphs.load_graph": ("graphs.load_graph_s", None),
    "graphs.index": ("graphs.index_s", None),
    "edge_matrix.B": ("edge_matrix.B_s", "edge_matrix.B_nnz"),
    "cycle_census.corrections": ("cycle_census.corrections_s", None),
    "cycle_census.cycles": ("cycle_census.cycles_self_s", None),
    "connection.build_formula": ("connection.build_formula_s", None),
    "connection.eval_formula": ("connection.eval_formula_s", None),
    "connection.kappa_direct": ("connection.kappa_direct_s", None),
    "oracle.edge_rooted": ("oracle.edge_rooted_s", None),
    "oracle.vertex_rooted": ("oracle.vertex_rooted_s", None),
    "oracle.cycle_census": ("oracle.cycle_census_s", None),
    "cli.serialize": ("cli.serialize_s", None),
}


def unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def _metric_of(span: dict, by_id: dict) -> tuple[str | None, str | None]:
    """(time metric, nnz metric) a span's self time and nnz are charged to."""
    name = span["name"]
    if name == "edge_matrix.build":
        key = span["key"]
        if key == "B":
            return "edge_matrix.B_s", None
        if key.startswith("pow"):
            return "edge_matrix.power_s", "edge_matrix.power_nnz"
        if key.startswith("diag"):
            return "edge_matrix.diag_s", None
        if key in STEPS:
            return "edge_matrix.steps_s", "edge_matrix.steps_nnz"
        return f"edge_matrix.{key}_s", None
    if name == "edge_matrix.trace":
        k = span["k"]
        return (f"edge_matrix.trace{k}_s" if k >= 7
                else "edge_matrix.diag_s"), None
    if name in ("motifs.catalog", "motifs.k6"):
        stage = _stage_of(span, by_id)
        if stage is not None and not stage.startswith("check:"):
            return ("motifs.k6_s" if name == "motifs.k6"
                    else f"motifs.{stage}_s"), None
        return "motifs.recheck_s", None
    return _SIMPLE.get(name, (None, None))


def _stage_of(span: dict, by_id: dict) -> str | None:
    while span is not None:
        if span["name"] == "cli.stage":
            return span["stage"]
        span = by_id.get(span["parent"])
    return None


def aggregate(spans: list[dict], counts) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans and counter rows."""
    out: dict[str, float] = defaultdict(float)
    for metric in METRICS:
        out[metric] = 0
    by_inv: dict[str, dict] = defaultdict(dict)
    for s in spans:
        by_inv[s["invocation"]][s["id"]] = s
    for s in spans:
        by_id = by_inv[s["invocation"]]
        t_metric, nnz_metric = _metric_of(s, by_id)
        if t_metric:
            out[t_metric] += s["self"]
        if nnz_metric:
            out[nnz_metric] += s.get("nnz", 0)
        if s["name"] == "cli.run":
            out["cli.run_s"] += s["dur"]
        elif s["name"] == "cli.stage":
            out["cli.stage_s"] += s["dur"]
    out["cli.report_s"] = out["cli.run_s"] - out["cli.stage_s"]
    for row in counts:
        for key in SUMMED_COUNTS:
            out[key] += row.get(key, 0)
        out["edge_matrix.peak_product_nnz"] = max(
            out["edge_matrix.peak_product_nnz"],
            row.get("edge_matrix.peak_product_nnz", 0))
    return dict(out)
