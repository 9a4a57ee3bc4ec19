"""nbcensus benchmark: seeded workloads through the nbcensus CLI.

Usage (from the repository root):

    python3 bench/run.py --workload census --seed 1 --seconds 60 --trace 0

Load shape: a closed loop with one client. This process launches one CLI
child at a time (``python3 -m nbcensus.cli`` on the checkout's ``src``)
and waits for it to exit; the report goes to a file through ``--output``.

``--trace 0`` times whole passes over the workload's invocations and
reports the end-to-end metrics. ``--trace 1`` makes one untraced pass and
one pass under bench/tracer.py, writes the per-layer rows as JSON lines
under .bench_build/trace/, and reports the per-layer metrics. Either way
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

# The per-layer metrics on the metric stream are the ones BENCHMARK.json
# lists: times of layers every workload exercises, and counts. The other
# per-layer rows go to the trace file (README.md says why).
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONPYCACHEPREFIX": str(BUILD / "pycache"),
        "PYTHONHASHSEED": "0",
        # one client, no helper threads: a 2-core box measures the program
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Runner:
    """Spawns children one at a time and keeps the run inside its deadline."""

    def __init__(self, env: dict):
        self.env = env
        self.t0 = time.monotonic()

    def spawn(self, argv: list[str], stderr_path: Path) -> dict:
        """Run one child to exit; wall, CPU and peak RSS come from wait4."""
        left = DEADLINE_S - (time.monotonic() - self.t0)
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(left, 1.0), proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"status": proc.returncode, "wall": wall,
                "cpu": ru.ru_utime + ru.ru_stime,
                "rss_mb": ru.ru_maxrss / 1024.0}

    def out_of_time(self, need: float) -> bool:
        return time.monotonic() - self.t0 + need > DEADLINE_S


class Pass:
    """Runs the workload's invocations and checks every report."""

    def __init__(self, runner: Runner, wl: workloads.Workload, work: Path):
        self.runner, self.wl, self.work = runner, wl, work
        self.verified: dict[str, str] = {}   # invocation -> report digest
        self.attempted = 0
        self.failures: list[str] = []

    def run_one(self, inv: workloads.Invocation, tracer: bool = False) -> dict:
        """One child for ``inv`` (under tracer.py if ``tracer``), checked."""
        inv.report.unlink(missing_ok=True)
        prefix = [sys.executable]
        if tracer:
            prefix += [str(BENCH / "tracer.py"),
                       str(self.work / f"spans-{inv.name}.jsonl"), "--"]
        else:
            prefix += ["-m", "nbcensus.cli"]
        res = self.runner.spawn(prefix + inv.args,
                                self.work / f"stderr-{inv.name}.txt")
        self.attempted += 1
        reason = self._verdict(inv, res["status"])
        res["report_mb"] = 0.0
        if reason:
            self.failures.append(f"{inv.name}: {reason}")
        else:
            res["report_mb"] = inv.report.stat().st_size / 1e6
        return res

    def run(self, modes: tuple[bool, ...] = (False,)) -> list[dict]:
        """One pass per mode (False: plain CLI, True: under tracer.py).

        The modes alternate invocation by invocation, so a traced and an
        untraced pass see the same moments of machine speed.
        """
        totals = [{"wall": 0.0, "cpu": 0.0, "rss": 0.0, "report_mb": 0.0}
                  for _ in modes]
        for inv in self.wl.invocations:
            for tracer, tot in zip(modes, totals):
                res = self.run_one(inv, tracer)
                tot["wall"] += res["wall"]
                tot["cpu"] += res["cpu"]
                tot["rss"] = max(tot["rss"], res["rss_mb"])
                tot["report_mb"] += res["report_mb"]
        return totals

    def _verdict(self, inv: workloads.Invocation, status: int) -> str | None:
        if status != 0:
            return f"exit status {status}"
        if not inv.report.is_file():
            return "no report written"
        digest = _sha256(inv.report)
        if self.verified.get(inv.name) == digest:
            return None
        reason = check.check_report(inv.check, inv.report, inv.ref)
        if reason is None:
            self.verified[inv.name] = digest
        return reason


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fingerprint(wl: workloads.Workload, work: Path) -> None:
    """Print n, m, nnz(B), max degree and edge-list hash of every input."""
    from nbcensus.graphs import load_graph, path2_count
    for fp in wl.inputs:
        g = load_graph(work / fp["file"])
        fp["nnz_B"] = path2_count(g)
        if (g.n, g.m) != (fp["n"], fp["m"]):
            raise SystemExit(f"fingerprint mismatch on {fp['file']}")
        print("input " + json.dumps(fp, sort_keys=True))


def measure(runner: Runner, wl, work: Path, seconds: int) -> tuple[dict, Pass]:
    """The invocations in turn while the next fits in ``seconds``.

    Each invocation is timed as often as the run allows (their counts
    differ by at most one) and the pass figures are sums over invocations
    of their means, so the run measures until close to ``seconds`` even
    when a whole pass would not fit again. One child's time swings by
    about 15% with the machine within a run, and over 3-6 children the
    mean is the steadier estimate (README.md). A set-up sample precedes
    each round, so their median is not one moment's machine speed.
    """
    def setup_sample() -> float:
        res = runner.spawn([sys.executable, "-c", "import nbcensus.cli"],
                           work / "stderr-setup.txt")
        if res["status"] != 0:
            raise SystemExit("importing nbcensus.cli failed")
        return res["wall"]

    p = Pass(runner, wl, work)
    setup = []
    runs: dict[str, list[dict]] = {inv.name: [] for inv in wl.invocations}
    start = time.monotonic()

    def fits(inv: workloads.Invocation) -> bool:
        done = runs[inv.name]
        if not done:
            return True
        took = done[-1]["wall"]
        return (time.monotonic() - start + took <= seconds
                and not runner.out_of_time(2 * took))

    more = True
    while more:
        setup.append(setup_sample())
        for inv in wl.invocations:
            more = fits(inv)
            if not more:
                break
            runs[inv.name].append(p.run_one(inv))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())

    def total(key: str) -> float:
        return sum(statistics.fmean(r[key] for r in done)
                   for done in runs.values())

    for name, done in runs.items():
        print(f"{name} x{len(done)}: " + " ".join(
            f"{r['wall']:.3f}s" for r in done))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (total("wall"), "s"),
        "cpu_s": (total("cpu"), "s"),
        # the run's highest child peak: huge-page luck moves a single
        # child's peak RSS by about 10 MB from one run to the next
        "peak_rss_mb": (max(r["rss_mb"] for done in runs.values()
                            for r in done), "MB"),
        "report_mb": (total("report_mb"), "MB"),
        "ok_ratio": ((p.attempted - len(p.failures)) / p.attempted, "ratio"),
    }
    return metrics, p


def traced(runner: Runner, wl, work: Path, seed: int) -> tuple[dict, Pass]:
    p = Pass(runner, wl, work)
    untraced, with_spans = p.run((False, True))
    spans, counts = [], []
    for inv in wl.invocations:
        path = work / f"spans-{inv.name}.jsonl"
        if not path.is_file():
            p.failures.append(f"{inv.name}: tracer wrote no spans")
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            row["invocation"] = inv.name
            if row["kind"] == "counts":
                counts.append(row)
            else:
                spans.append(row)
    values = layers.aggregate(spans, counts)
    values["trace.overhead_s"] = with_spans["wall"] - untraced["wall"]
    out = BUILD / "trace" / f"{wl.name}-seed{seed}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        for row in spans:
            fh.write(json.dumps({"workload": wl.name, "seed": seed,
                                 **row}) + "\n")
        for name, value in sorted(values.items()):
            fh.write(json.dumps({
                "kind": "layer", "workload": wl.name, "seed": seed,
                "layer": name.split(".")[0], "metric": name,
                "value": value, "unit": layers.unit(name),
                "exercised": value != 0}) + "\n")
    print(f"untraced wall {untraced['wall']:.3f}s, traced wall "
          f"{with_spans['wall']:.3f}s, rows in {out.relative_to(ROOT)}")
    for name, value in sorted(values.items()):
        print(f"layer {name} = {value:.6g} {layers.unit(name)}")
    return {k: (values.get(k, 0), u) for k, u in PER_LAYER.items()}, p


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nbcensus" / "cli.py").is_file():
        print(f"error: no nbcensus sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    runner = Runner(env)
    BUILD.mkdir(parents=True, exist_ok=True)
    build = runner.spawn([sys.executable, "-m", "compileall", "-q", str(SRC)],
                         BUILD / "compileall.txt")
    if build["status"] != 0:
        print("error: compiling the sources failed", file=sys.stderr)
        return 2

    references = json.loads((BENCH / "references.json").read_text())
    work = BUILD / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, work, references)
        fingerprint(wl, work)
        if args.trace:
            metrics, p = traced(runner, wl, work, args.seed)
        else:
            metrics, p = measure(runner, wl, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in p.failures:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not p.failures,
        "attempted": p.attempted,
        "failed": len(p.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
