"""Cold-process benchmark of the envshift CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's invocations (see
workloads.py) are generated from the seed and run one at a time, each in a
fresh interpreter, because every CLI run pays for the lazily filled,
process-global rewrite caches.  Load is a closed loop with one client: the
next invocation starts when the previous one has exited.

--trace 0 prints the end-to-end metrics:

* wall_s       wall time to every verdict, summed over the invocations of a
               pass (interpreter start included);
* cpu_s        user + system CPU of the children of a pass (os.wait4);
* peak_rss_mb  the largest child ru_maxrss of the run;
* setup_s      a fresh interpreter that imports ``envshift.cli`` and parses
               every invocation's inputs with no check run (probe.py),
               median over SETUP_ROUNDS rounds.

Passes repeat until the next one would end after --seconds (at least one).
wall_s and cpu_s are the mean over the passes of a run, i.e. their total
divided by their count: on a shared host the speed of a core swings by about
1.5x in phases of seconds, and the whole-run mean varied less between runs
than the median pass did.

--trace 1 runs one untraced and one traced pass (tracer.py) and prints the
per-layer metrics: span times and call counts summed over the invocations,
exact term and generator counts, the exit-time cache sizes, the check wall
time parsed from the CLI's ``[OUTCOME] id (x ms)`` lines, the wall no check
accounts for, and the tracing overhead.

Every invocation is checked: it fails on exit code 2, a traceback, a
timeout, an exit code it does not expect, a missing --out report, or report
bytes that differ from an earlier run of the same call at the same seed.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Per-invocation details go to
perfbench/work/detail.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
PY = sys.executable

SETUP_ROUNDS = 9
CALL_TIMEOUT_S = 60.0
# every child is killed by this many seconds after the start of the run, so a
# hung call cannot keep the benchmark from ending
RUN_DEADLINE_S = 150.0
START = time.perf_counter()
CHECK_LINE = re.compile(r"^\[(?:PASS|FAIL|ERROR)\] .*? \((\d+(?:\.\d+)?) ms\)", re.M)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# name in the trace file -> per-layer metric suffixes taken from it
SPAN_METRICS = {
    "pbw.multiply": ("calls", "self_s"),
    "pbw.commutator": ("calls", "s"),
    "params.ParamPolynomial.mul": ("calls", "self_s"),
    "params.ParamPolynomial.add": ("calls",),
    "algebra.bracket_structure": ("calls", "s"),
    "elements.matrix_power_element": ("calls", "self_s"),
    "elements.casimir": ("s",),
    "elements.shift_generator": ("s",),
    "elements.check_proposition": ("s",),
    "elements.check_centralizer": ("s",),
    "elements.tensorial_residual": ("s",),
    "elements.shift_bracket_recursion_residual": ("s",),
    "chains.chain_generators": ("s",),
    "chains.commutativity_failures": ("s",),
    "classical.power_trace": ("s",),
    "classical.shift_pair_trace": ("s",),
    "classical.shift_expand": ("s",),
    "classical.charpoly_shift_invariants": ("s",),
    "classical.gradient": ("calls", "s"),
    "classical.evaluate": ("s",),
    "classical.top_symbol": ("s",),
    "linalg.rank": ("calls", "s"),
    "linalg.rref": ("s",),
    "linalg.charpoly": ("s",),
    "independence.jacobian_rank": ("s",),
    "independence.shift_family_classical": ("s",),
    "independence.tangent_intersection_dim": ("s",),
    "independence.brailov_duality_check": ("s",),
}
COUNT_METRICS = (
    "pbw.product_terms", "pbw.mul_cache_entries", "pbw.bracket_entries",
    "elements.mpe_cache_entries", "elements.flip_cache_entries",
    "chains.generators", "chains.pairs_checked", "classical.poly_terms",
)


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    timed_out: bool
    stdout: str
    stderr: str


@dataclass
class Call:
    inv: workloads.Invocation
    child: Child
    problems: list
    sha256: str | None
    check_wall: float

    @property
    def verdict(self) -> str:
        """The CLI's summary line, and its first FAIL line if a check failed."""
        lines = self.child.stdout.strip().splitlines()
        first_fail = next((ln for ln in lines if ln.startswith("[FAIL]")), None)
        summary = lines[-1] if lines else ""
        return f"{summary}; first {first_fail}" if first_fail else summary


@dataclass
class Pass:
    calls: list

    @property
    def wall(self):
        return sum(c.child.wall for c in self.calls)

    @property
    def cpu(self):
        return sum(c.child.cpu for c in self.calls)

    @property
    def rss_mb(self):
        return max(c.child.rss_mb for c in self.calls)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # children read and write bytecode caches, as an installed package would,
    # whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(cmd, label: str) -> Child:
    """Run cmd in WORK to completion; wall, rusage and output of that one child."""
    out_path, err_path = WORK / "logs" / f"{label}.out", WORK / "logs" / f"{label}.err"
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=WORK, env=child_env(), stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timeout = min(CALL_TIMEOUT_S, max(0.0, RUN_DEADLINE_S - (t0 - START)))
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        timed_out=killed.is_set(),
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def measure_setup(invs) -> float:
    """Median over SETUP_ROUNDS fresh interpreters that import the CLI and parse all inputs."""
    listing = WORK / "invocations.json"
    listing.write_text(json.dumps([list(inv.args) for inv in invs]), encoding="utf-8")
    cmd = [PY, str(HERE / "probe.py"), listing.name]
    spawn(cmd, "probe")  # fills __pycache__ on a fresh checkout
    walls = []
    for _ in range(SETUP_ROUNDS):
        child = spawn(cmd, "probe")
        if child.code != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr}")
        walls.append(child.wall)
    return statistics.median(walls)


def run_call(inv, seed: int, traced: bool, digests: dict) -> Call:
    report = WORK / "reports" / f"{inv.label}.json"
    report.unlink(missing_ok=True)
    argv = [*inv.args, "--seed", str(seed), "--out", f"reports/{inv.label}.json"]
    if traced:
        cmd = [PY, str(HERE / "tracer.py"), f"traces/{inv.label}.json", *argv]
    else:
        cmd = [PY, "-m", "envshift", *argv]
    child = spawn(cmd, inv.label)
    problems = []
    if child.timed_out:
        problems.append("timeout")
    if "Traceback" in child.stderr:
        problems.append("traceback")
    if child.code not in inv.expect:
        problems.append(f"exit {child.code}, expected {sorted(inv.expect)}")
    sha = None
    if report.is_file():
        sha = hashlib.sha256(report.read_bytes()).hexdigest()
        if digests.setdefault(inv.label, sha) != sha:
            problems.append("report bytes differ between runs of the same call")
    elif not child.timed_out:
        problems.append("no report written")
    check_wall = sum(float(ms) for ms in CHECK_LINE.findall(child.stdout)) / 1000.0
    return Call(inv, child, problems, sha, check_wall)


def run_pass(invs, seed, traced, digests) -> Pass:
    return Pass([run_call(inv, seed, traced, digests) for inv in invs])


def read_trace(label: str) -> dict:
    path = WORK / "traces" / f"{label}.json"
    if not path.is_file():
        return {"spans": {}, "counts": {}}
    return json.loads(path.read_text(encoding="utf-8"))


PER_LAYER_UNITS = {
    "cli.check_wall_s": "s",
    "cli.unattributed_s": "s",
    **{f"{name}.{f}": "count" if f == "calls" else "s"
       for name, fields in SPAN_METRICS.items() for f in fields},
    **{name: "count" for name in COUNT_METRICS},
    "trace.overhead_s": "s",
    "trace.unaccounted_share": "ratio",
}


def layer_metrics(untraced: Pass, traced: Pass, setup_s: float) -> dict:
    values = dict.fromkeys(PER_LAYER_UNITS, 0)
    root_s = 0.0
    for call in traced.calls:
        data = read_trace(call.inv.label)
        for name, fields in SPAN_METRICS.items():
            span = data["spans"].get(name)
            if span:
                for f in fields:
                    values[f"{name}.{f}"] += span[f]
        for name in COUNT_METRICS:
            values[name] += data["counts"].get(name, 0)
        root_s += data["spans"].get("cli.main", {}).get("s", 0.0)
    # setup_s stands in for each invocation's own start-up, which interpreter
    # start and imports dominate
    for call in untraced.calls:
        values["cli.check_wall_s"] += call.check_wall
        values["cli.unattributed_s"] += call.child.wall - setup_s - call.check_wall
    values["trace.overhead_s"] = traced.wall - untraced.wall
    # share of traced wall outside the root span: interpreter start, imports, exit
    values["trace.unaccounted_share"] = (traced.wall - root_s) / traced.wall
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


def prepare_workdir():
    shutil.rmtree(WORK, ignore_errors=True)
    for sub in ("chains", "reports", "traces", "logs"):
        (WORK / sub).mkdir(parents=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "envshift" / "cli.py").is_file():
        print(f"error: no envshift sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2

    prepare_workdir()
    invs = workloads.build(args.workload, args.seed, WORK / "chains")
    setup_s = measure_setup(invs)

    digests: dict = {}
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(invs, args.seed, False, digests))
        if args.trace or time.perf_counter() - t0 + passes[-1].wall > args.seconds:
            break
    if args.trace:
        traced = run_pass(invs, args.seed, True, digests)
        passes_checked = passes + [traced]
        metrics = layer_metrics(passes[0], traced, setup_s)
    else:
        passes_checked = passes
        metrics = {
            "wall_s": sum(p.wall for p in passes) / len(passes),
            "cpu_s": sum(p.cpu for p in passes) / len(passes),
            "peak_rss_mb": max(p.rss_mb for p in passes),
            "setup_s": setup_s,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    calls = [c for p in passes_checked for c in p.calls]
    failed = [c for c in calls if c.problems]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "calls": [
            {"label": c.inv.label, "args": list(c.inv.args), "exit": c.child.code,
             "verdict": c.verdict, "wall_s": c.child.wall, "cpu_s": c.child.cpu,
             "rss_mb": c.child.rss_mb, "check_wall_s": c.check_wall,
             "sha256": c.sha256, "problems": c.problems}
            for c in calls
        ],
        "metrics": metrics,
    }
    (WORK / "detail.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} untraced pass(es) "
          f"of {len(invs)} invocations" + (", 1 traced pass" if args.trace else ""))
    for inv in invs:
        last = next(c for c in reversed(calls) if c.inv.label == inv.label)
        print(f"  {inv.label}: exit {last.child.code}, {last.verdict}")
    for c in failed:
        print(f"  FAILED {c.inv.label}: {'; '.join(c.problems)}")
    print(f"failed_share {len(failed) / len(calls):.4f} ratio ({len(failed)} of {len(calls)})")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
