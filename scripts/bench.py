#!/usr/bin/env python3
"""Measure one checkout and record the numbers in a BENCH_<n>.json file.

    python scripts/bench.py --out BENCH_12.json --label change
    python scripts/bench.py --root ../parent --out BENCH_12.json --label parent

The record, stored under --label (other labels in --out are kept):

* tier-1: wall time and the pytest summary of the checkout's own tests;
* battery: each entry of the checkout's ``scripts/run_verifications.py``
  run as one CLI subprocess, with its exit code, wall time, peak RSS and
  report sha256, and the summed wall time (every subprocess is started by
  a bare launcher process, so its peak RSS is its own);
* cold: each CLI call of COLD as one subprocess, with its median wall
  time and peak RSS, and the floor every CLI process stands on: the median
  wall of STARTUP_RUNS fresh processes of each STARTUP command, in
  alternating order.  ``python -c pass`` is the bare interpreter, ``import
  envshift.cli`` adds the imports, and the smallest full CLI call adds a
  check, its report and the process exit;
* micro: in-process timings in a child that imports the checkout's
  ``envshift``: ``multiply`` and ``commutator`` with warm rewrite caches,
  ``mul_word_gen`` of every sorted degree-3 word of gl:4 by every generator
  and ``matrix_power_element``, both from empty caches, ``parse`` of the
  printed ``commutator`` of (X^4)[1,2] and (X^4)[2,1] on gl:3 with its term
  count, one cold ``verify prop4 --algebra so:4`` with its ``multiply``
  call count, the ``power_bracket_residual`` calls of the prop1 and prop4
  COLD calls, one cold ``verify theorem1`` of a dense gl:3 shift, one cold
  ``verify prop5 --algebra so:4 --A symbolic`` and the casimir-central
  COLD call, each with its ``commutator`` call count, and the
  ``chains.noncommuting_pairs`` certificate of the gl:5, so:6 and sp:3
  default chains with the number of commutators it takes; and
  the classical layer: ``rank`` of gl:6 and so:8 at a regular A, ``classical
  tangent`` and ``classical lemma2`` of so:8, each through ``cli.main``, and
  ``linalg.rank`` of a seeded integer matrix of the so:8 family's shape (36 x 28);
  ``cli.build_parser().parse_args`` of one ``classical lemma2`` call, the
  parser cost that every CLI process pays once; and the default gl:6 chain
  certificate in a process of its own, with its wall time, commutator count
  and peak RSS;
* the ``src/`` line count, the Python version, ``nproc`` and HEAD.

The checkout's ``src`` is compiled to bytecode first, so no timed child
compiles it, whatever PYTHONDONTWRITEBYTECODE says.  After writing --out the
script prints ``readme_table`` of the record: the README's measured table,
which holds the ``change`` record of the highest-numbered BENCH_<n>.json.

Timings are medians of REPEATS runs where repeated.  The benchmark gate is
``perfbench/run.py``; this file is the per-change record beside it.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import random
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
REPEATS = 5
STARTUP_RUNS = 15
CHAIN_FILES = ("gl5.json", "so6.json", "sp3.json")
POWER_BRACKETS = {
    "verify_prop1_gl4": ["verify", "prop1", "--algebra", "gl:4"],
    "verify_prop4_so5": ["verify", "prop4", "--algebra", "so:5"],
}
# a casimir-central call at a rank and power that perfbench does not run
CASIMIR_CENTRAL_GL5 = ["verify", "casimir-central", "--algebra", "gl:5", "--max-power", "5"]
COLD = {**POWER_BRACKETS, "verify_casimir_central_gl5_m5": CASIMIR_CENTRAL_GL5}
# the theorem1 call of perfbench's identities-numeric workload at seed 7
THEOREM1_GL3_DENSE = ["verify", "theorem1", "--algebra", "gl:3",
                      "--A", "matrix:1,3,2;-3,-3,-2;-1,-2,-1", "--max-power", "4"]
PROP5_SO4_SYMBOLIC = ["verify", "prop5", "--algebra", "so:4", "--A", "symbolic"]
CLASSICAL = {
    "rank_so8_regular_s": ["rank", "--algebra", "so:8", "--A", "diag:-4,-3,-2,-1,1,2,3,4"],
    "rank_gl6_regular_s": ["rank", "--algebra", "gl:6", "--A", "diag:1,2,3,4,5,6"],
    "classical_tangent_so8_s": ["classical", "tangent", "--algebra", "so:8",
                                "--A", "diag:-1,0,0,0,0,0,0,1"],
    "classical_lemma2_so8_s": ["classical", "lemma2", "--algebra", "so:8"],
}
# the floor of a CLI process, from the bare interpreter to a whole call
STARTUP = {
    "python_-c_pass": ["-c", "pass"],
    "python_-c_import_envshift.cli": ["-c", "import envshift.cli"],
    "python_-m_envshift_verify_theorem2_sp2": ["-m", "envshift", "verify", "theorem2",
                                               "--algebra", "sp:2"],
}
# perfbench's lemma2-gl6 call at seed 7, with the --seed and --out it appends
PARSE_ARGV = ["classical", "lemma2", "--algebra", "gl:6", "--A", "diag:-2,2,0,0,0,0",
              "--points", "3", "--seed", "7", "--out", "reports/lemma2-gl6.json"]


def compile_sources(root: Path) -> None:
    """Write the bytecode of the checkout's ``src`` once, before any timed run.

    The timed children inherit the caller's environment; under
    PYTHONDONTWRITEBYTECODE=1 a checkout without ``__pycache__`` would
    otherwise recompile ``envshift`` in every one of them.  ``compileall``
    writes the files whatever that variable says, and the children read them.
    """
    if not compileall.compile_dir(str(root / "src"), quiet=1):
        raise RuntimeError(f"{root / 'src'} does not compile")


def _env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


# A forked child's peak RSS counts the RSS of the process it was forked from,
# so each timed command is started by this bare interpreter, smaller than any
# command it runs.  It writes the command's exit code, wall seconds and peak
# RSS in KiB to the file descriptor named by its first argument.
LAUNCHER = """
import os, sys, time
fd, cmd = int(sys.argv[1]), sys.argv[2:]
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.close(fd)
    try:
        os.execvp(cmd[0], cmd)
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
os.write(fd, b"%d %r %d" % (os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss))
"""


def _timed(cmd, root: Path, **kw):
    """(exit code, wall seconds, peak RSS in MB) of one subprocess, from LAUNCHER."""
    read, write = os.pipe()
    with os.fdopen(read) as fh:
        try:
            subprocess.run([sys.executable, "-I", "-S", "-c", LAUNCHER, str(write), *cmd],
                           cwd=root, env=_env(root), pass_fds=(write,), check=True, **kw)
        finally:
            os.close(write)
        code, wall, rss = fh.read().split()
    return int(code), float(wall), int(rss) / 1024


def tier1(root: Path) -> dict:
    with tempfile.TemporaryFile("w+") as log:
        code, wall, _ = _timed(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "-p", "no:cacheprovider"], root, stdout=log, stderr=subprocess.STDOUT)
        log.seek(0)
        lines = [ln.strip() for ln in log if ln.strip()]
    return {"exit": code, "wall_s": round(wall, 2), "summary": lines[-1] if lines else ""}


def battery(root: Path) -> dict:
    spec = importlib.util.spec_from_file_location("battery", root / "scripts/run_verifications.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    suites = []
    with tempfile.TemporaryDirectory() as tmp:
        for args in module.BATTERY:
            out = Path(tmp) / "report.json"
            out.unlink(missing_ok=True)
            code, wall, rss = _timed([sys.executable, "-m", "envshift", *args, "--out", str(out)],
                                     root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
            suites.append({"args": " ".join(args), "exit": code, "wall_s": round(wall, 3),
                           "peak_rss_mb": round(rss, 1), "sha256": digest})
    return {"wall_s": round(sum(s["wall_s"] for s in suites), 2), "suites": suites}


def cold_cli(root: Path) -> dict:
    """Median wall time and peak RSS of each COLD call, one subprocess per run."""
    out = {}
    for key, argv in COLD.items():
        runs = [_timed([sys.executable, "-m", "envshift", *argv], root,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                for _ in range(REPEATS)]
        if any(code for code, _, _ in runs):
            raise RuntimeError(f"{' '.join(argv)} did not pass")
        out[key] = {"wall_s": round(statistics.median(w for _, w, _ in runs), 3),
                    "peak_rss_mb": round(statistics.median(r for _, _, r in runs), 1)}
    return out


def startup(root: Path) -> dict:
    """Median wall time and peak RSS of each STARTUP command, STARTUP_RUNS
    fresh processes each, the commands alternating; each must exit 0."""
    runs: dict = {key: [] for key in STARTUP}
    for _ in range(STARTUP_RUNS):
        for key, argv in STARTUP.items():
            code, wall, rss = _timed([sys.executable, *argv], root,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            if code:
                raise RuntimeError(f"python {' '.join(argv)} exited {code}")
            runs[key].append((wall, rss))
    return {key: {"wall_s": round(statistics.median(w for w, _ in r), 4),
                  "peak_rss_mb": round(statistics.median(m for _, m in r), 1)}
            for key, r in runs.items()}


# The default chain certificate of the algebra named by its first argument,
# timed in a process of its own so that its peak RSS is its own; it prints
# its wall seconds, commutator count and failing pairs as JSON.  Step (c)
# takes its commutators in ``elements``, the all-pairs fallback in ``chains``.
CERTIFICATE = """
import json, sys, time
from envshift import chains, elements
from envshift.algebra import parse_algebra
family = chains.chain_generators(chains.default_chain(parse_algebra(sys.argv[1])))
count = [0]
for module in (chains, elements):
    def spy(p, q, real=module.commutator):
        count[0] += 1
        return real(p, q)
    module.commutator = spy
t0 = time.perf_counter()
fails = chains.noncommuting_pairs(family)
print(json.dumps({"cold_s": round(time.perf_counter() - t0, 2), "commutators": count[0],
                  "failures": len(fails)}))
"""


def certificate(root: Path, algebra: str) -> dict:
    """``chains.noncommuting_pairs`` of the default chain, with the peak RSS of its process."""
    with tempfile.TemporaryFile("w+") as fh:
        code, _, rss = _timed([sys.executable, "-c", CERTIFICATE, algebra], root, stdout=fh)
        fh.seek(0)
        out = json.loads(fh.read())
    if code:
        raise RuntimeError(f"the {algebra} chain certificate exited {code}")
    return {**out, "peak_rss_mb": round(rss, 1)}


def micro(root: Path) -> dict:
    """Run ``_micro`` in a child that imports the checkout's envshift, then
    the gl:6 chain certificate in a child of its own."""
    out = subprocess.run([sys.executable, __file__, "--micro", "--root", str(root)],
                         cwd=root, env=_env(root), capture_output=True, text=True, check=True)
    return {**json.loads(out.stdout), "noncommuting_pairs_gl6": certificate(root, "gl:6")}


def _micro(root: Path) -> dict:
    from envshift import chains, cli, elements, linalg, pbw
    from envshift.algebra import parse_algebra

    cold = elements.clear_caches

    def median_s(fn, prepare=None):
        times = []
        for _ in range(REPEATS):
            if prepare:
                prepare()
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return round(statistics.median(times), 4)

    def counting(name, *modules):
        """Count the calls of ``name`` made through any of ``modules``, in one count."""
        reals, count = [getattr(m, name) for m in modules], [0]
        for module, real in zip(modules, reals):
            def spy(*args, real=real):
                count[0] += 1
                return real(*args)
            setattr(module, name, spy)
        return count, lambda: [setattr(m, name, r) for m, r in zip(modules, reals)]

    gl4 = parse_algebra("gl:4")
    mpe = elements.matrix_power_element
    p, q = mpe(gl4, 4, 1, 2), mpe(gl4, 4, 2, 1)
    pbw.commutator(p, q)  # fill the rewrite caches
    words = [bytes(w) for w in itertools.combinations_with_replacement(range(gl4.dim), 3)]

    def mul_word_gen():
        tab = pbw._tables(gl4)
        for w in words:
            for g in range(gl4.dim):
                tab.mul_word_gen(w, g)

    out = {
        "multiply_gl4_X4[1,2]_X4[2,1]_warm_s": median_s(lambda: pbw.multiply(p, q)),
        "commutator_gl4_X4[1,2]_X4[2,1]_warm_s": median_s(lambda: pbw.commutator(p, q)),
        "mul_word_gen_gl4_degree3_all_cold_s": median_s(mul_word_gen, cold),
        "matrix_power_element_gl4_M4_all_cold_s": median_s(
            lambda: [mpe(gl4, 4, i, j) for i in gl4.index_set for j in gl4.index_set], cold),
    }

    gl3 = parse_algebra("gl:3")
    residual = pbw.commutator(mpe(gl3, 4, 1, 2), mpe(gl3, 4, 2, 1))
    text = pbw.format_poly(residual)
    out["parse_gl3_commutator_X4[1,2]_X4[2,1]"] = {
        "s": median_s(lambda: pbw.parse(gl3, text)), "terms": len(residual.terms)}

    def passes(*argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if cli.main(list(argv)) != 0:
                raise RuntimeError(f"{' '.join(argv)} did not pass")

    def prop4():
        passes("verify", "prop4", "--algebra", "so:4")
    out["verify_prop4_so4_cold_s"] = median_s(prop4, cold)
    cold()
    count, restore_pbw = counting("multiply", pbw)
    real_el = elements.multiply
    elements.multiply = pbw.multiply
    prop4()
    elements.multiply = real_el
    restore_pbw()
    out["verify_prop4_so4_multiply_calls"] = count[0]
    for key, argv in POWER_BRACKETS.items():
        cold()
        count, restore = counting("power_bracket_residual", elements)
        passes(*argv)
        restore()
        out[f"{key}_power_bracket_residual_calls"] = count[0]
    for key, argv in (("verify_theorem1_gl3_dense", THEOREM1_GL3_DENSE),
                      ("verify_prop5_so4_symbolic", PROP5_SO4_SYMBOLIC),
                      ("verify_casimir_central_gl5_m5", CASIMIR_CENTRAL_GL5)):
        cold()
        count, restore = counting("commutator", elements, cli)
        passes(*argv)
        restore()
        out[key] = {"cold_s": median_s(lambda argv=argv: passes(*argv), cold),
                    "commutators": count[0]}

    for name in CHAIN_FILES:
        cold()
        family = chains.chain_generators(chains.load_chain_file(root / "scripts/chains" / name))
        count, restore = counting("commutator", chains, elements)
        t0 = time.perf_counter()
        fails = chains.noncommuting_pairs(family)
        wall = time.perf_counter() - t0
        restore()
        out[f"noncommuting_pairs_{name[:-5]}"] = {
            "cold_s": round(wall, 3), "commutators": count[0], "failures": len(fails)}

    for key, argv in CLASSICAL.items():
        out[key] = median_s(lambda argv=argv: passes(*argv))
    rng = random.Random("bench-rank")
    rows = [[rng.randint(-10, 10) for _ in range(28)] for _ in range(36)]
    out["linalg_rank_36x28_s"] = median_s(lambda: linalg.rank(rows))
    out["parse_args_classical_lemma2_s"] = median_s(
        lambda: cli.build_parser().parse_args(PARSE_ARGV))
    return out


def src_lines(root: Path) -> int:
    return sum(len(f.read_text().splitlines()) for f in (root / "src").rglob("*.py"))


def head(root: Path) -> str:
    """HEAD, with ``-dirty`` when the checkout differs from it.

    A ``git archive`` copy has no repository; ``export-subst`` (see
    ``.gitattributes``) wrote the archived commit into ``scripts/REVISION``.
    """
    out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                         cwd=root, capture_output=True, text=True)
    if out.stdout.strip():
        return out.stdout.strip()
    revision = root / "scripts" / "REVISION"
    text = revision.read_text().strip() if revision.is_file() else ""
    return text if text and not text.startswith("$Format") else "unknown"


def readme_table(record: dict) -> str:
    """The README's measured table, in Markdown, from one record of a BENCH_<n>.json.

    A header line with the ``src/`` line count, the tier-1 summary and wall,
    the Python version and ``nproc``; then one row per battery entry, one per
    STARTUP command the record holds and the default gl:6 chain certificate.
    """
    tier1, cold = record["tier1"], record["cold"]
    summary = re.sub(r"\s+in .*", "", tier1["summary"])
    cert = record["micro"]["noncommuting_pairs_gl6"]
    rows = [(f"`{s['args']}`", s["exit"], s["wall_s"], s["peak_rss_mb"])
            for s in record["battery"]["suites"]]
    rows += [(f"`{shlex.join(['python', *argv])}`", "", cold[key]["wall_s"],
              cold[key]["peak_rss_mb"]) for key, argv in STARTUP.items() if key in cold]
    rows.append((f"default gl:6 chain certificate, {cert['commutators']} commutators, "
                 f"{cert['failures']} failing pairs", "", cert["cold_s"], cert["peak_rss_mb"]))
    return "\n".join([
        f"`src/envshift` {record['src_lines']:,} lines; tier-1 {summary}, {tier1['wall_s']} s; "
        f"battery {record['battery']['wall_s']} s summed; Python {record['python']}, "
        f"nproc {record['nproc']}.",
        "",
        "| command | exit | wall | peak RSS |",
        "|---|---|---|---|",
        *(f"| {cmd} | {code} | {wall} s | {rss} MB |" for cmd, code, wall, rss in rows),
    ])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=HERE, help="checkout to measure")
    ap.add_argument("--out", type=Path, help="BENCH_<n>.json to write or update")
    ap.add_argument("--label", default="change", help="key of this record in --out")
    ap.add_argument("--micro", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if args.micro:
        print(json.dumps(_micro(root)))
        return 0
    if args.out is None:
        ap.error("--out is required")
    compile_sources(root)
    record = {
        "head": head(root),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "src_lines": src_lines(root),
        "tier1": tier1(root),
        "battery": battery(root),
        "cold": {**cold_cli(root), **startup(root)},
        "micro": micro(root),
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.label] = record
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(readme_table(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
