"""scripts/bench.py writes the measured checkout's bytecode before it times anything."""

import importlib.util
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench.py"


def test_compile_sources_writes_bytecode_when_the_environment_forbids_it(monkeypatch, tmp_path):
    # the timed children inherit this environment and would recompile envshift each time
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.compile_sources(tmp_path)
    package = tmp_path / "src" / "envshift"
    cached = {p.name.split(".")[0] for p in (package / "__pycache__").glob("*.pyc")}
    assert cached == {p.stem for p in package.glob("*.py")}
