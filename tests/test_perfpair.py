"""scripts/perfpair.py alternates the two sides of each pair and summarizes their samples;
no test here starts a perfbench run."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = [{"name": "wall_s", "better": "lower"}, {"name": "score", "better": "higher"}]


def _perfpair():
    spec = importlib.util.spec_from_file_location("perfpair", ROOT / "scripts" / "perfpair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent, change):
    return [{"parent": p, "change": c} for p, c in zip(parent, change)]


def test_summary_of_fixed_samples():
    parent = [{"wall_s": w, "score": 1} for w in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [{"wall_s": w, "score": s} for w, s in zip((0.5, 2.0, 3.5, 3.0, 4.0), (2, 1, 0, 2, 2))]
    out = _perfpair().summarize(_pairs(parent, change), END_TO_END)
    wall = out["wall_s"]
    assert wall["parent"] == {"samples": [1.0, 2.0, 3.0, 4.0, 5.0], "median": 3.0,
                              "quartiles": [2.0, 4.0]}
    assert wall["change"] == {"samples": [0.5, 2.0, 3.5, 3.0, 4.0], "median": 3.0,
                              "quartiles": [2.0, 3.5]}
    # lower is better: pairs 1, 4 and 5 are the change's, pair 2 is a tie
    assert wall["change_wins"] == 3
    # higher is better: pairs 1, 4 and 5 again, pair 2 a tie and pair 3 the parent's
    assert out["score"]["change_wins"] == 3
    assert list(out) == ["wall_s", "score"]


def test_summary_of_one_pair():
    out = _perfpair().summarize(_pairs([{"wall_s": 2.0, "score": 1}],
                                       [{"wall_s": 2.0, "score": 1}]), END_TO_END)
    assert out["wall_s"]["parent"] == {"samples": [2.0], "median": 2.0, "quartiles": [2.0, 2.0]}
    assert out["wall_s"]["change_wins"] == out["score"]["change_wins"] == 0


def test_pairs_alternate_which_side_runs_first(monkeypatch, capsys, tmp_path):
    module = _perfpair()
    calls = []

    def extract(rev, dest):
        return f"commit-of-{rev}"

    def perfbench(root, workload, seed, seconds):
        calls.append((root, seed))
        side = "parent" if len(calls) in (1, 4, 5) else "change"
        metrics = {m["name"]: {"value": len(calls)} for m in END_TO_END}
        return {"failed": int(side == "change"), "metrics": metrics}

    monkeypatch.setattr(module, "extract", extract)
    monkeypatch.setattr(module, "perfbench", perfbench)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    monkeypatch.setattr(module, "ROOT", tmp_path)
    assert module.main(["--parent", "p", "--workload", "chains", "--pairs", "3",
                        "--seconds", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["parent"], out["change"]) == ("commit-of-p", "commit-of-HEAD")
    # both sides of a pair share its seed; the first side alternates
    assert [seed for _, seed in calls] == [1, 1, 2, 2, 3, 3]
    assert [r["first"] for r in out["runs"]] == ["parent", "change", "parent"]
    roots = [root for root, _ in calls]
    assert roots[0] == roots[3] == roots[4] != roots[1] == roots[2] == roots[5]
    assert [(r["parent_failed"], r["change_failed"]) for r in out["runs"]] == [(0, 1)] * 3
    assert out["metrics"]["wall_s"]["parent"]["samples"] == [1, 4, 5]
    assert out["metrics"]["wall_s"]["change"]["samples"] == [2, 3, 6]
