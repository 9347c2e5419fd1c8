#!/usr/bin/env python3
"""Compare two revisions on one perfbench workload, in alternated pairs of runs.

    python scripts/perfpair.py --parent REV [--change REV] --workload W --pairs N --seconds S

Both revisions are extracted with ``git archive`` into fresh temporary
directories, so neither side runs in a long-used working checkout.  Pair i
runs ``perfbench/run.py --trace 0`` once in each directory, both at seed
i + 1; the side that runs first alternates from pair to pair, so a drift of
the host falls on both sides alike.

The script prints one JSON object: the two revisions, each run's seed, order
and ``failed`` count, and for each end-to-end metric of BENCHMARK.json each
side's samples, median and quartiles, and the number of pairs the change won
(a tie counts for neither side).  It changes nothing under perfbench/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def extract(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest``; return the commit it names."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON summary line of one untraced perfbench run in ``root``."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        raise RuntimeError(f"perfbench in {root} exited {out.returncode}: {out.stderr}")
    return json.loads(lines[-1])


def quartiles(samples: list) -> list:
    """The first and third quartiles, by ``statistics.quantiles``' inclusive method."""
    if len(samples) < 2:
        return [samples[0], samples[0]]
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per metric, each side's samples, median and quartiles and the change's wins.

    ``pairs`` holds one ``{"parent": values, "change": values}`` per pair, the
    values a mapping from metric name to number; ``end_to_end`` is
    BENCHMARK.json's list of metrics, each with its ``name`` and ``better``.
    """
    out = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        samples = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        out[name] = {side: {"samples": s, "median": statistics.median(s),
                            "quartiles": quartiles(s)} for side, s in samples.items()}
        out[name]["change_wins"] = sum(sign * (c - p) < 0 for p, c in zip(*samples.values()))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision of the parent side")
    ap.add_argument("--change", default="HEAD", help="revision of the change side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory() as parent, tempfile.TemporaryDirectory() as change:
        roots = {"parent": Path(parent), "change": Path(change)}
        commits = {side: extract(getattr(args, side), roots[side]) for side in SIDES}
        pairs, runs = [], []
        for i in range(args.pairs):
            seed, order = i + 1, SIDES if i % 2 == 0 else SIDES[::-1]
            results = {side: perfbench(roots[side], args.workload, seed, args.seconds)
                       for side in order}
            pairs.append({side: {k: m["value"] for k, m in results[side]["metrics"].items()}
                          for side in SIDES})
            runs.append({"seed": seed, "first": order[0],
                         **{f"{side}_failed": results[side]["failed"] for side in SIDES}})
    print(json.dumps({"workload": args.workload, **commits, "runs": runs,
                      "metrics": summarize(pairs, end_to_end)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
