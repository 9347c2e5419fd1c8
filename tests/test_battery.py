"""The battery script on one-entry batteries: PASS, FAIL and ERROR outcomes."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_verifications.py"


def _battery(monkeypatch, tmp_path, entry):
    spec = importlib.util.spec_from_file_location("run_verifications", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPORTS", tmp_path / "reports")
    monkeypatch.setattr(module, "BATTERY", [entry])
    return module


def test_battery_runs_without_install_and_tells_a_crash_from_a_fail(
        monkeypatch, tmp_path, capsys):
    # the children find the package through the script alone
    monkeypatch.delenv("PYTHONPATH", raising=False)
    cases = [
        (["rank", "--algebra", "gl:2", "--A", "diag:1,2"], "PASS", 0),
        (["rank", "--algebra", "gl:4", "--A", "diag:1,2,0,0"], "FAIL", 1),
        (["rank", "--algebra", "gl:2", "--trials", "0"], "ERROR", 2),
    ]
    for entry, status, code in cases:
        module = _battery(monkeypatch, tmp_path, entry)
        assert module.main() == code, entry
        line = capsys.readouterr().out.splitlines()[0]
        assert line == f"{status}  envshift {' '.join(entry)}"

    # a crash exits 1 too, but writes no report
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    (checkout / "envshift.py").write_text("raise ImportError('no envshift here')\n")
    entry = ["rank", "--algebra", "gl:2"]
    module = _battery(monkeypatch, tmp_path, entry)
    monkeypatch.setattr(module, "ROOT", checkout)
    assert module.main() == 2
    assert capsys.readouterr().out.splitlines()[0] == "ERROR  envshift rank --algebra gl:2"


def test_battery_leaves_one_report_per_entry(monkeypatch, tmp_path, capsys):
    entry = ["rank", "--algebra", "gl:2", "--A", "diag:1,2"]
    module = _battery(monkeypatch, tmp_path, entry)
    reports = tmp_path / "reports"
    reports.mkdir()
    (reports / "99_old.json").write_text("{}")
    (reports / "notes.txt").write_text("not a report")
    assert module.main() == 0
    assert capsys.readouterr().out.splitlines()[0] == f"PASS  envshift {' '.join(entry)}"
    assert sorted(p.name for p in reports.iterdir()) == ["00_rank_gl2_diag1,2.json", "notes.txt"]
