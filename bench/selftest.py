"""Show that the report check accepts true reports and rejects corrupted ones.

Usage (from the repository root): python3 bench/selftest.py [--seed N]

Runs one CLI invocation of each kind of check once, then feeds the check
the real report, the same values in another layout (which must pass), and
corrupted copies (which must fail): one changed cycle count, one changed
motif total, one changed CSV total, one oracle verdict turned false, and a
truncated file. Exits non-zero if any verdict is wrong.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import check
import run
import workloads


def _edit_json(src, dst, fn) -> None:
    report = json.loads(src.read_text(encoding="utf-8"))
    fn(report)
    dst.write_text(json.dumps(report), encoding="utf-8")


def _bump_first_total(report: dict) -> None:
    block = report["counters"]["order5"]["edge"]
    mid = sorted(block)[0]
    block[mid]["total"] += 1


def _bump_csv_total(src, dst) -> None:
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[-1].rstrip("\n").split(",")
    cells[-1] = str(int(cells[-1]) + 1)
    lines[-1] = ",".join(cells) + "\n"
    dst.write_text("".join(lines), encoding="utf-8")


def _unverify(report: dict) -> None:
    report["oracle_check"]["order4"]["verified"] = False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    references = json.loads((run.BENCH / "references.json").read_text())
    runner = run.Runner(run.child_env())
    work = run.BUILD / "selftest"
    corruptions = {
        "cycles": lambda s, d: _edit_json(
            s, d, lambda r: r["counters"]["cycles"].update(
                C9=r["counters"]["cycles"]["C9"] + 1)),
        "json_totals": lambda s, d: _edit_json(s, d, _bump_first_total),
        "csv_totals": _bump_csv_total,
        "oracle": lambda s, d: _edit_json(s, d, _unverify),
    }
    wrong = 0
    try:
        invocations = {}
        for name in workloads.NAMES:
            wl = workloads.build(name, args.seed, work / name, references)
            for inv in wl.invocations:
                invocations.setdefault(inv.check, inv)
        for name, corrupt in corruptions.items():
            inv = invocations[name]
            res = runner.spawn([sys.executable, "-m", "nbcensus.cli",
                                *inv.args], inv.report.with_name("stderr.txt"))
            cases = [("as written", inv.report, True)]
            if inv.check != "csv_totals":
                relaid = inv.report.with_name("relaid")
                _edit_json(inv.report, relaid, lambda r: None)
                cases.append(("compact layout", relaid, True))
            bad = inv.report.with_name("corrupted")
            corrupt(inv.report, bad)
            cases.append(("corrupted value", bad, False))
            cut = inv.report.with_name("truncated")
            cut.write_bytes(inv.report.read_bytes()[:-40])
            cases.append(("truncated", cut, False))
            for label, path, want_ok in cases:
                reason = (f"exit status {res['status']}" if res["status"]
                          else check.check_report(inv.check, path, inv.ref))
                ok = reason is None
                verdict = "ok" if ok == want_ok else "WRONG"
                wrong += ok != want_ok
                print(f"{verdict:5} {name:14} {label:16} -> "
                      f"{'accepted' if ok else 'rejected: ' + reason}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
