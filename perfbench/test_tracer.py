"""Self-test of the benchmark's tracer and metric names.

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402


def test_self_times_sum_to_root_span():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: next(ticks))
    leaf = t.wrap("leaf", lambda: None)

    def rec(n):
        return rec_span(n - 1) if n else leaf()

    rec_span = t.wrap("rec", rec)

    def root():
        leaf()
        rec_span(2)
        leaf()

    t.wrap("root", root)()
    spans = t.report()["spans"]
    assert sum(s["self_s"] for s in spans.values()) == spans["root"]["s"] == 13
    # three activations of rec, but inclusive time counts the outermost only
    assert spans["rec"] == {"calls": 3, "s": 7, "self_s": 6}
    assert spans["leaf"] == {"calls": 3, "s": 3, "self_s": 3}


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


REBIND_CHECK = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
swaps = tracer.install(tracer.Tracer())
import envshift
from envshift import chains, cli, elements, pbw
from envshift.params import ParamPolynomial
originals = {id(f) for f in swaps}
stale = sorted(
    f"{name}.{attr}"
    for name, mod in sys.modules.items() if name.split(".")[0] == "envshift"
    for attr, value in vars(mod).items() if id(value) in originals
)
imported_by_name = [
    elements.commutator is pbw.commutator, elements.multiply is pbw.multiply,
    chains.commutator is pbw.commutator, cli.commutator is pbw.commutator,
    envshift.multiply is pbw.multiply,
]
print(json.dumps({
    "stale": stale,
    "wrapped": len(swaps),
    "imported_by_name": imported_by_name,
    "pbw_wrapped": hasattr(pbw.multiply, "__wrapped__"),
    "param_mul": ParamPolynomial.__mul__ is ParamPolynomial.__rmul__
                 and hasattr(ParamPolynomial.__mul__, "__wrapped__"),
}))
"""


def test_every_wrapped_function_is_rebound_where_imported():
    out = subprocess.run(
        [sys.executable, "-c", REBIND_CHECK, str(HERE)],
        env=_env(), capture_output=True, text=True, check=True,
    )
    res = json.loads(out.stdout)
    assert res["stale"] == []
    assert res["wrapped"] > 50
    assert all(res["imported_by_name"])
    assert res["pbw_wrapped"] and res["param_mul"]


def test_traced_cli_run_matches_untraced_report(tmp_path):
    args = ["verify", "theorem2", "--algebra", "so:3", "--max-power", "2"]
    plain = subprocess.run(
        [sys.executable, "-m", "envshift", *args, "--out", str(tmp_path / "plain.json")],
        env=_env(), capture_output=True, check=True,
    )
    traced = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(tmp_path / "trace.json"),
         *args, "--out", str(tmp_path / "traced.json")],
        env=_env(), capture_output=True, check=True,
    )
    assert plain.returncode == traced.returncode == 0
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()
    data = json.loads((tmp_path / "trace.json").read_text())
    spans = data["spans"]
    root = spans["cli.main"]["s"]
    assert root > 0 and spans["pbw.commutator"]["calls"] > 0
    assert abs(sum(s["self_s"] for s in spans.values()) - root) < 1e-6 * max(root, 1.0)
    assert data["counts"]["pbw.mul_cache_entries"] > 0


def test_per_layer_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == run.PER_LAYER_UNITS
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS)
