"""scripts/bench.py compiles the checkout before it times it, reads each call's own RSS
and renders the README's measured table."""

import importlib.util
import json
import re
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench.py"


def _bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compile_sources_writes_bytecode_when_the_environment_forbids_it(monkeypatch, tmp_path):
    # the timed children inherit this environment and would recompile envshift each time
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    module = _bench()
    module.compile_sources(tmp_path)
    package = tmp_path / "src" / "envshift"
    cached = {p.name.split(".")[0] for p in (package / "__pycache__").glob("*.pyc")}
    assert cached == {p.stem for p in package.glob("*.py")}


def test_timed_call_reads_its_own_peak_rss(tmp_path):
    held = b"\1" * (100 << 20)  # a child forked from this process would count it
    code, wall, rss = _bench()._timed([sys.executable, "-c", "pass"], tmp_path)
    assert code == 0 and 0 < wall and rss < 50
    assert _bench()._timed([sys.executable, "-c", "raise SystemExit(3)"], tmp_path)[0] == 3
    del held


def test_startup_floor_runs_each_command_and_a_whole_cli_call(monkeypatch):
    module = _bench()
    assert list(module.STARTUP) == ["python_-c_pass", "python_-c_import_envshift.cli",
                                    "python_-m_envshift_verify_theorem2_sp2"]
    monkeypatch.setattr(module, "STARTUP_RUNS", 1)
    floor = module.startup(ROOT)
    assert list(floor) == list(module.STARTUP)
    assert all(row["wall_s"] > 0 and row["peak_rss_mb"] > 0 for row in floor.values())
    # a command that fails is not a floor
    monkeypatch.setitem(module.STARTUP, "python_-c_pass", ["-c", "raise SystemExit(1)"])
    with pytest.raises(RuntimeError, match="exited 1"):
        module.startup(ROOT)


def test_readme_states_the_latest_bench_record():
    # the README's only wall and memory figures are the block rendered from the
    # change record of the highest-numbered BENCH_<n>.json
    latest = max(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    record = json.loads(latest.read_text())["change"]
    readme = (ROOT / "README.md").read_text()
    before, block, after = re.fullmatch(
        r"(.*)<!-- bench:begin -->\n(.*)\n<!-- bench:end -->(.*)", readme, re.S).groups()
    assert block == _bench().readme_table(record), latest.name
    figure = re.compile(r"\d[\d,]*(\.\d+)?\s?(ms|s|MB|GB)\b")
    stray = [ln for ln in (before + after).splitlines() if figure.search(ln)]
    assert not stray, stray


@pytest.mark.parametrize("revision, want", [
    ("c37e2965d19b21871f4a836240ff7ea784e818ba\n", "c37e2965d19b21871f4a836240ff7ea784e818ba"),
    ("$Format:%H$\n", "unknown"),
])
def test_head_of_an_archive_reads_its_substituted_revision(tmp_path, revision, want):
    # a root with no repository: the git archive copies that bench.py measures
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "REVISION").write_text(revision)
    assert _bench().head(tmp_path) == want
