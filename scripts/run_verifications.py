#!/usr/bin/env python3
"""Drive the full verification battery through the CLI and collect reports.

Empties reports/ (created next to this script's repository root) of earlier
reports, writes one JSON report per suite into it and prints a one-line
outcome per suite: PASS (exit 0), FAIL (exit 1 with its report written) or
ERROR (any other exit, or an exit 1 that wrote no report, such as a crash on
import).  Exits 0 if every suite passes, 1 if some suite fails and 2 if some
suite errors.  Runtime is a few minutes.  Every suite runs from the
repository root with ``src`` first on its PYTHONPATH and relative chain
paths, so it needs no install and the reports do not depend on where the
checkout lives.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORTS = ROOT / "reports"
STATUS_CODES = {"PASS": 0, "FAIL": 1, "ERROR": 2}

BATTERY = [
    # shift-family commutativity
    ["verify", "theorem1", "--algebra", "gl:2", "--max-power", "4"],
    ["verify", "theorem1", "--algebra", "gl:3", "--max-power", "4"],
    ["verify", "theorem1", "--algebra", "gl:3", "--A", "diag:1,1,0", "--max-power", "4"],
    ["verify", "theorem1", "--algebra", "gl:3", "--A", "symbolic", "--max-power", "3"],
    ["verify", "theorem1", "--algebra", "gl:4", "--A", "symbolic", "--max-power", "3"],
    ["verify", "theorem1", "--algebra", "gl:4", "--A", "symbolic", "--max-power", "4"],
    ["verify", "theorem1", "--algebra", "gl:5", "--A", "symbolic", "--max-power", "4"],
    ["verify", "theorem1", "--algebra", "gl:6", "--A", "symbolic", "--max-power", "4"],
    ["verify", "theorem1", "--algebra", "gl:4",
     "--A", "matrix:5,-1,1,4;-5,3,-2,-5;-3,-4,1,3;-2,2,4,-4", "--max-power", "4"],
    ["verify", "theorem2", "--algebra", "so:3", "--max-power", "3"],
    ["verify", "theorem2", "--algebra", "so:4", "--max-power", "3"],
    ["verify", "theorem2", "--algebra", "so:5", "--max-power", "3"],
    ["verify", "theorem2", "--algebra", "sp:1", "--max-power", "3"],
    ["verify", "theorem2", "--algebra", "sp:2", "--max-power", "3"],
    ["verify", "theorem2", "--algebra", "so:4", "--A", "symbolic", "--max-power", "3"],
    ["verify", "theorem2", "--algebra", "sp:2", "--A", "symbolic", "--max-power", "3"],
    ["verify", "theorem2", "--algebra", "so:6", "--A", "symbolic"],
    # centralizer / tensoriality / centrality
    ["verify", "centralizer", "--algebra", "gl:3", "--max-power", "3"],
    ["verify", "centralizer", "--algebra", "gl:3", "--A", "diag:1,1,0", "--max-power", "3"],
    ["verify", "centralizer", "--algebra", "so:4", "--max-power", "3"],
    ["verify", "tensorial", "--algebra", "gl:2", "--max-power", "3"],
    ["verify", "tensorial", "--algebra", "so:3", "--max-power", "3"],
    ["verify", "casimir-central", "--algebra", "gl:3", "--max-power", "4"],
    ["verify", "casimir-central", "--algebra", "so:4", "--max-power", "4"],
    # identity suites
    ["verify", "prop1", "--algebra", "gl:2", "--max-power", "3"],
    ["verify", "prop1", "--algebra", "gl:3", "--max-power", "3"],
    ["verify", "prop2", "--algebra", "gl:3", "--max-power", "3"],
    ["verify", "prop2", "--algebra", "gl:3", "--A", "symbolic"],
    ["verify", "prop2", "--algebra", "gl:4", "--A", "symbolic", "--max-power", "4"],
    ["verify", "prop3", "--algebra", "so:3", "--max-power", "3"],
    ["verify", "prop3", "--algebra", "sp:1", "--max-power", "3"],
    ["verify", "prop4", "--algebra", "so:3", "--max-power", "3"],
    ["verify", "prop4", "--algebra", "so:4", "--max-power", "3"],
    ["verify", "prop4", "--algebra", "sp:1", "--max-power", "3"],
    ["verify", "prop5", "--algebra", "so:3", "--max-power", "3"],
    ["verify", "prop5", "--algebra", "so:4", "--max-power", "3"],
    ["verify", "prop5", "--algebra", "so:4", "--A", "symbolic"],
    ["verify", "prop5", "--algebra", "so:5", "--A", "symbolic"],
    ["verify", "prop5", "--algebra", "sp:2", "--A", "symbolic"],
    ["verify", "prop5", "--algebra", "sp:1", "--max-power", "3"],
    # chains
    ["chain", "--file", "scripts/chains/gl3.json"],
    ["chain", "--file", "scripts/chains/gl4.json"],
    ["chain", "--file", "scripts/chains/so4.json"],
    ["chain", "--file", "scripts/chains/so5.json"],
    ["chain", "--file", "scripts/chains/sp2.json"],
    ["chain", "--file", "scripts/chains/gl5.json"],
    ["chain", "--file", "scripts/chains/so6.json"],
    ["chain", "--file", "scripts/chains/sp3.json"],
    ["chain", "--file", "scripts/chains/so7.json"],
    # classical side
    ["classical", "lemma2", "--algebra", "gl:4", "--A", "diag:1,2,0,0", "--points", "5"],
    ["classical", "lemma2", "--algebra", "so:5", "--points", "5"],
    ["classical", "lemma2", "--algebra", "so:8"],
    ["classical", "lemma2", "--algebra", "sp:2"],
    ["classical", "duality", "--algebra", "gl:2", "--M", "2", "--k", "1", "--seeds", "5"],
    ["classical", "duality", "--algebra", "gl:3", "--M", "3", "--k", "1", "--seeds", "5"],
    ["classical", "tangent", "--algebra", "gl:3", "--A", "diag:1,1,0"],
    ["classical", "tangent", "--algebra", "gl:3", "--A", "diag:1,2,0"],
    ["classical", "tangent", "--algebra", "gl:5", "--A", "diag:1,2,0,0,0"],
    ["expand", "--algebra", "gl:2", "--M", "2", "--A", "diag:1,2"],
    ["expand", "--algebra", "sp:1", "--M", "3", "--A", "matrix:1/2,3;-2,5"],
    ["expand", "--algebra", "so:4", "--M", "4", "--A", "diag:-1,0,0,1"],
    ["rank", "--algebra", "gl:2", "--A", "diag:1,2"],
    ["rank", "--algebra", "gl:3", "--A", "diag:1,2,3"],
    ["rank", "--algebra", "gl:4", "--A", "diag:1,2,3,4"],
    ["rank", "--algebra", "gl:6", "--A", "diag:1,2,3,4,5,6"],
    ["rank", "--algebra", "so:5", "--A", "diag:-2,-1,0,1,2"],
    ["rank", "--algebra", "so:8", "--A", "diag:-4,-3,-2,-1,1,2,3,4"],
    ["rank", "--algebra", "sp:2", "--A", "diag:-2,-1,1,2"],
]


def main() -> int:
    REPORTS.mkdir(exist_ok=True)
    for stale in REPORTS.glob("*.json"):  # this script owns reports/
        stale.unlink()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    worst = 0
    for idx, args in enumerate(BATTERY):
        name = f"{idx:02d}_" + "_".join(
            a.replace(":", "").replace("/", "-") for a in args if not a.startswith("--")
        )[:60]
        out = REPORTS / f"{name}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "envshift", *args, "--out", str(out)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        if proc.returncode == 0:
            status = "PASS"
        elif proc.returncode == 1 and out.exists():
            status = "FAIL"
        else:
            status = "ERROR"
        print(f"{status}  envshift {' '.join(args)}")
        worst = max(worst, STATUS_CODES[status])
    print(f"reports written to {REPORTS}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
