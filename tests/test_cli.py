import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "envshift", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=str(REPO),
    )


def test_exit_code_zero_on_pass(tmp_path):
    out = tmp_path / "rep.json"
    r = run_cli(
        "verify", "theorem1", "--algebra", "gl:2", "--max-power", "2",
        "--A", "diag:1,2", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    rep = json.loads(out.read_text())
    assert rep["summary"] == {"pass": 3, "fail": 0, "error": 0}
    assert rep["parameters"]["seed"] == 42  # default seed echoed


def test_contract_invocation_gl3():
    r = run_cli(
        "verify", "theorem1", "--algebra", "gl:3", "--A", "diag:1,2,0",
        "--max-power", "3",
    )
    assert r.returncode == 0, r.stderr
    assert "0 fail" in r.stdout


def test_symbolic_whole_subspace_runs():
    r = run_cli("verify", "theorem1", "--algebra", "gl:2", "--A", "symbolic",
                "--max-power", "2")
    assert r.returncode == 0 and "symbolic-full" in r.stdout
    r = run_cli("verify", "theorem2", "--algebra", "sp:1", "--A", "symbolic",
                "--max-power", "2")
    assert r.returncode == 0 and "symbolic-sign-minus" in r.stdout


def test_symbolic_recursion_suites(tmp_path):
    out = tmp_path / "rep.json"
    r = run_cli("verify", "prop2", "--algebra", "gl:2", "--A", "symbolic",
                "--max-power", "2", "--out", str(out))
    assert r.returncode == 0, r.stderr
    rep = json.loads(out.read_text())
    assert rep["parameters"]["A"] == "symbolic" and rep["summary"]["pass"] == 4
    r = run_cli("verify", "prop5", "--algebra", "sp:1", "--A", "symbolic",
                "--max-power", "2", "--out", str(out))
    assert r.returncode == 0, r.stderr
    ids = [c["id"] for c in json.loads(out.read_text())["checks"]]
    assert ids == [f"recursions M={M} N={N} A=symbolic-sign-{s}"
                   for s in ("minus", "plus") for M in (1, 2) for N in (1, 2)]


def test_contract_invocation_prop3_prints_coefficients():
    r = run_cli("verify", "prop3", "--algebra", "so:3", "--max-power", "3")
    assert r.returncode == 0
    assert "C_p for X^4" in r.stdout
    # the leading coefficient printed last is (-1)^(M+1)
    line = [l for l in r.stdout.splitlines() if l.startswith("C_p for X^4")][0]
    assert line.rstrip("]").endswith("1") and ", 1" in line


def _assert_fail_witnesses(rep):
    """Every FAIL residual re-parses to a nonzero polynomial."""
    from envshift.algebra import parse_algebra
    from envshift.pbw import parse

    fails = [c for c in rep["checks"] if c["outcome"] == "FAIL"]
    assert fails
    spec = parse_algebra(rep["algebra"])
    for c in fails:
        assert c["residual"]
        assert not parse(spec, c["residual"]).is_zero
    return fails


def test_exit_code_one_on_fail_with_witness(tmp_path):
    out = tmp_path / "rep.json"
    r = run_cli(
        "verify", "theorem2", "--algebra", "so:4",
        "--A", "matrix:1,0,0,1;0,0,0,0;0,0,0,0;0,0,0,0",
        "--max-power", "3", "--out", str(out),
    )
    assert r.returncode == 1
    _assert_fail_witnesses(json.loads(out.read_text()))
    # numbers beside parameters: a parameter-free coefficient prints as a number
    r = run_cli(
        "verify", "theorem2", "--algebra", "so:4",
        "--A", "matrix:1,0,0,a;0,b,0,0;0,0,0,0;2,0,0,0",
        "--max-power", "2", "--out", str(out),
    )
    assert r.returncode == 1
    fails = _assert_fail_witnesses(json.loads(out.read_text()))
    assert [c["residual"] for c in fails] == ["-8*X[-1,2].X[1,2] + (4*a)*X[2,-1].X[2,1]"]
    # a rank-2 A: rank 9 against target 10, the residual is the shortfall 1
    r = run_cli("rank", "--algebra", "gl:4", "--A", "diag:1,2,0,0", "--out", str(out))
    assert r.returncode == 1
    rep = json.loads(out.read_text())
    fails = _assert_fail_witnesses(rep)
    assert [c["residual"] for c in fails] == ["1"]
    assert rep["parameters"]["certificate"]["ranks"] == [9, 9, 9]


def _doubled_lhs(real):
    # M=4, k=1: the k=1 gradient doubled, so neither index reading holds
    from envshift import linalg

    return lambda X, A, pairs: [linalg.mat_scale(G, 2 if k == 1 else 1)
                                for G, (_, k) in zip(real(X, A, pairs), pairs)]


def _plain_as_shifted(real):
    # M=4, k=1: the M-k (j=3) gradient replaced by the M-k-1 (j=2) one, so both hold
    return lambda X, A, pairs: real(X, A, [(M, 2 if k == 3 else k) for M, k in pairs])


@pytest.mark.parametrize("patch, outcome, code", [
    (_doubled_lhs, "FAIL", 1),
    (_plain_as_shifted, "ERROR", 2),
])
def test_duality_outcomes_when_forced(tmp_path, monkeypatch, patch, outcome, code):
    from envshift import cli, independence
    from envshift.algebra import parse_algebra
    from envshift.pbw import parse
    from oracles import degree

    monkeypatch.setattr(independence, "shift_expand_gradients",
                        patch(independence.shift_expand_gradients))
    out = tmp_path / "rep.json"
    argv = ["classical", "duality", "--algebra", "gl:3", "--M", "4", "--k", "1",
            "--seeds", "2", "--out", str(out)]
    assert cli.main(argv) == code
    rep = json.loads(out.read_text())
    assert [c["outcome"] for c in rep["checks"]] == [outcome] * 2
    if outcome == "FAIL":
        # the residual is the gradient difference, a linear form in the X[i,j]
        for c in _assert_fail_witnesses(rep):
            assert degree(parse(parse_algebra("gl:3"), c["residual"])) == 1
    else:
        assert all("cannot tell" in c["detail"] for c in rep["checks"])


def test_exit_code_two_on_bad_input():
    assert run_cli("verify", "theorem1", "--algebra", "so:4").returncode == 2
    assert run_cli("verify", "theorem1", "--algebra", "nonsense").returncode == 2
    assert run_cli("verify", "theorem1", "--bogus-flag", "1").returncode == 2
    assert run_cli("chain", "--file", "/nonexistent/chain.json").returncode == 2


def test_chain_command_invalid_step_size(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"algebra": "gl:4", "steps": [{"k": 3}]}))
    assert run_cli("chain", "--file", str(f)).returncode == 2


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "prop3", "--algebra", "so:3", "--max-power", "2"]
    r1 = run_cli(*args, "--out", str(a))
    r2 = run_cli(*args, "--out", str(b))
    assert r1.returncode == r2.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_chain_records_paths_below_the_working_directory_relative(tmp_path, monkeypatch):
    from envshift import cli

    chain = tmp_path / "chains" / "gl3.json"
    chain.parent.mkdir()
    chain.write_text((REPO / "scripts" / "chains" / "gl3.json").read_text())
    (tmp_path / "sub").mkdir()

    def recorded(cwd, given):
        monkeypatch.chdir(cwd)
        assert cli.main(["chain", "--file", given, "--out", str(tmp_path / "rep.json")]) == 0
        return (tmp_path / "rep.json").read_bytes()

    relative = recorded(tmp_path, "chains/gl3.json")
    assert json.loads(relative)["parameters"]["file"] == "chains/gl3.json"
    # an absolute path below the working directory: the same report bytes
    assert recorded(tmp_path, str(chain)) == relative
    # outside the working directory, and relative paths, are recorded as given
    assert json.loads(recorded(tmp_path / "sub", str(chain)))["parameters"]["file"] == str(chain)
    rep = json.loads(recorded(tmp_path / "sub", "../chains/gl3.json"))
    assert rep["parameters"]["file"] == "../chains/gl3.json"


def test_chain_command_report(tmp_path):
    out = tmp_path / "rep.json"
    r = run_cli(
        "chain", "--file", str(REPO / "scripts" / "chains" / "gl3.json"),
        "--trials", "3", "--seed", "7", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    rep = json.loads(out.read_text())
    ids = [c["id"] for c in rep["checks"]]
    assert ids == ["pairwise-commutativity", "transcendency-rank"]
    assert rep["parameters"]["certificate"]["rank"] == 6
    assert rep["parameters"]["certificate"]["seed"] == 7


EXPAND_GOLDEN = [
    ("gl:2", "2", "diag:1,2", ["2*X[1,1] + 4*X[2,2]", "5"]),
    ("sp:1", "3", "matrix:1/2,3;-2,5", [
        "33/2*X[-1,1].X[1,-1] + 33/2*X[1,1]^2",
        "-33*X[-1,1] + 99/2*X[1,-1] + 297/4*X[1,1]",
        "209/8",
    ]),
    ("so:4", "4", "diag:-1,0,0,1", [
        "-8*X[-1,2].X[1,1].X[2,-1] + 16*X[-1,2].X[2,-1].X[2,2] + 8*X[1,1].X[1,2].X[2,1]"
        " + 16*X[1,2].X[2,1].X[2,2] + 8*X[2,2]^3",
        "8*X[-1,2].X[2,-1] + 8*X[1,2].X[2,1] + 12*X[2,2]^2",
        "8*X[2,2]",
        "2",
    ]),
]


def test_expand_command_prints_components(tmp_path):
    out = tmp_path / "rep.json"
    for algebra, M, A, components in EXPAND_GOLDEN:
        r = run_cli("expand", "--algebra", algebra, "--M", M, "--A", A, "--out", str(out))
        assert r.returncode == 0
        for k, text in enumerate(components, start=1):
            assert f"S_A^({k},{M}) = {text}\n" in r.stdout
        assert json.loads(out.read_text())["parameters"]["components"] == {
            f"k={k}": text for k, text in enumerate(components, start=1)
        }


def test_classical_commands():
    assert run_cli(
        "classical", "duality", "--algebra", "gl:2", "--M", "2", "--k", "1",
        "--seeds", "3",
    ).returncode == 0
    assert run_cli(
        "classical", "tangent", "--algebra", "gl:3", "--A", "diag:1,2,0"
    ).returncode == 0
    assert run_cli(
        "classical", "lemma2", "--algebra", "gl:4", "--A", "diag:1,2,0,0",
        "--points", "2",
    ).returncode == 0


def test_progress_streams_to_stderr_not_report(tmp_path):
    out = tmp_path / "rep.json"
    r = run_cli(
        "verify", "casimir-central", "--algebra", "gl:2", "--max-power", "2",
        "--out", str(out),
    )
    assert "check " in r.stderr
    assert "check " not in out.read_text()


def test_lemma2_passes_on_sp(tmp_path):
    # rank-2 points are evaluated as matrices, not through the coordinate
    # realization, which halves sp's self-paired entries
    for algebra in ("sp:2", "sp:3"):
        out = tmp_path / f"{algebra.replace(':', '')}.json"
        r = run_cli("classical", "lemma2", "--algebra", algebra, "--points", "3",
                    "--out", str(out))
        assert r.returncode == 0, r.stdout
        summary = json.loads(out.read_text())["summary"]
        assert summary["fail"] == summary["error"] == 0 and summary["pass"] > 0


def test_bad_arguments_exit_two_without_traceback():
    for args in (
        ("rank", "--algebra", "gl:2", "--trials", "0"),
        ("classical", "duality", "--algebra", "gl:2"),
        ("classical", "duality", "--algebra", "gl:2", "--M", "2"),
        ("classical", "duality", "--algebra", "so:4", "--M", "3", "--k", "1"),
        ("classical", "duality", "--algebra", "sp:2", "--M", "3", "--k", "1"),
        ("expand", "--algebra", "gl:2", "--A", "diag:1,2", "--M", "0"),
        ("classical", "lemma2", "--algebra", "gl:4", "--points", "0"),
        # rank always ranks the whole family; it takes no --max-power
        ("rank", "--algebra", "gl:3", "--A", "diag:1,2,3", "--max-power", "3"),
        # a parameter is one identifier, never an expression
        ("verify", "theorem2", "--algebra", "so:4", "--max-power", "2",
         "--A", "matrix:b+1,0,0,b+1;0,0,0,0;0,0,0,0;0,0,0,0"),
        ("verify", "theorem1", "--algebra", "gl:2", "--A", "sym-diag:a*b,0"),
        # -name negates a parameter once; a second sign is not a name
        ("verify", "theorem1", "--algebra", "gl:2", "--A", "sym-diag:--a,0"),
        # PBW words hold ids below 256; gl:17 has 289 generators
        ("verify", "casimir-central", "--algebra", "gl:17", "--max-power", "1"),
    ):
        r = run_cli(*args)
        assert r.returncode == 2, args
        assert "error:" in r.stderr and "Traceback" not in r.stderr, args


def test_classical_commands_run_on_an_algebra_too_large_for_pbw_words(tmp_path):
    out = tmp_path / "rep.json"
    r = run_cli("expand", "--algebra", "gl:17", "--A", "diag:1,2" + ",0" * 15, "--M", "2",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert json.loads(out.read_text())["summary"] == {"pass": 1, "fail": 0, "error": 0}


@pytest.mark.parametrize("argv, passes", [
    # sign -1 parametric so:4 shifts, written with negated parameters
    (("verify", "prop5", "--algebra", "so:4",
      "--A", "matrix:a,0,0,0;0,1,0,0;0,0,-1,0;0,0,0,-a"), 9),
    (("verify", "theorem2", "--algebra", "so:4",
      "--A", "matrix:a,0,0,0;0,b,0,0;0,0,-b,0;0,0,0,-a", "--max-power", "3"), 6),
], ids=["prop5", "theorem2"])
def test_negated_parameters_give_signed_shifts(argv, passes, tmp_path):
    out = tmp_path / "rep.json"
    r = run_cli(*argv, "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert json.loads(out.read_text())["summary"] == {"pass": passes, "fail": 0, "error": 0}


# each classical check with every option it reads, on gl:4
CLASSICAL_CHECKS = {
    "lemma2": ("--A", "diag:1,2,0,0", "--points", "2"),
    "duality": ("--M", "2", "--k", "1", "--seeds", "2"),
    "tangent": ("--A", "diag:1,2,0,0", "--trials", "2"),
}


@pytest.mark.parametrize("check", CLASSICAL_CHECKS)
def test_classical_check_takes_every_option_it_reads(check, tmp_path):
    out = tmp_path / "rep.json"
    r = run_cli("classical", check, "--algebra", "gl:4", *CLASSICAL_CHECKS[check],
                "--seed", "3", "--out", str(out))
    assert r.returncode == 0, r.stderr
    rep = json.loads(out.read_text())
    assert rep["suite"] == f"classical-{check}" and rep["parameters"]["seed"] == 3


@pytest.mark.parametrize("check, option", [
    *(("lemma2", o) for o in ("--M", "--k", "--seeds", "--trials")),
    *(("duality", o) for o in ("--A", "--points", "--trials")),
    *(("tangent", o) for o in ("--M", "--k", "--points", "--seeds")),
])
def test_classical_check_refuses_options_it_does_not_read(check, option, tmp_path):
    out = tmp_path / "rep.json"
    value = "diag:1,2,0,0" if option == "--A" else "2"
    r = run_cli("classical", check, "--algebra", "gl:4", *CLASSICAL_CHECKS[check],
                option, value, "--out", str(out))
    assert r.returncode == 2
    assert "error:" in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


def test_default_shift_on_gl1_is_bad_input(tmp_path):
    # diag(1, 2, 0, ...) does not fit gl:1, so the default shift is refused, not crashed on
    out = str(tmp_path / "rep.json")
    for args in (
        ("rank", "--algebra", "gl:1"),
        ("verify", "centralizer", "--algebra", "gl:1"),
        ("classical", "lemma2", "--algebra", "gl:1"),
    ):
        r = run_cli(*args, "--out", out)
        assert r.returncode == 2, args
        errors = [line for line in r.stderr.splitlines() if "error:" in line]
        assert errors == ["error: gl:1 has no canonical rank-2 shift; --A is needed"], args
        assert "Traceback" not in r.stderr
    for args in (("rank", "--algebra", "gl:1"), ("verify", "centralizer", "--algebra", "gl:1")):
        assert run_cli(*args, "--A", "diag:1", "--out", out).returncode == 0, args


def test_suite_without_checks_does_not_pass(tmp_path):
    for args in (
        ("classical", "lemma2", "--algebra", "gl:3"),
        ("verify", "prop1", "--algebra", "gl:2", "--max-power", "0"),
    ):
        r = run_cli(*args, "--out", str(tmp_path / "rep.json"))
        assert r.returncode == 2, args
        assert "error:" in r.stderr and "no checks" in r.stderr, args
        assert "Traceback" not in r.stderr


def test_wrong_family_prop_suites_exit_two(tmp_path):
    # each identity is stated for one family; without this guard prop1 on
    # so:3 would run prop4's identity through the shared expansion
    out = tmp_path / "rep.json"
    for suite, algebra in (("prop1", "so:3"), ("prop2", "so:3"), ("prop3", "gl:2"),
                           ("prop4", "gl:2"), ("prop5", "gl:2")):
        r = run_cli("verify", suite, "--algebra", algebra, "--max-power", "1",
                    "--out", str(out))
        assert r.returncode == 2, (suite, algebra)
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (suite, lines)
        assert "Traceback" not in r.stderr and not out.exists(), (suite, algebra)


@pytest.mark.parametrize("argv", [
    # a suite that reads no shift refuses --A, whatever it names
    ("verify", "tensorial", "--algebra", "gl:2", "--A", "garbage", "--max-power", "1"),
    ("verify", "tensorial", "--algebra", "gl:2", "--A", "diag:1,2", "--max-power", "1"),
    ("verify", "prop1", "--algebra", "gl:2", "--A", "diag:1,2", "--max-power", "1"),
    ("verify", "prop3", "--algebra", "so:3", "--A", "diag:-1,0,1", "--max-power", "1"),
    ("verify", "prop4", "--algebra", "so:3", "--A", "diag:-1,0,1", "--max-power", "1"),
    ("verify", "casimir-central", "--algebra", "gl:2", "--A", "diag:1,2", "--max-power", "1"),
    # the checks that need a numeric shift refuse the symbolic one
    ("verify", "centralizer", "--algebra", "gl:3", "--A", "symbolic", "--max-power", "1"),
    ("rank", "--algebra", "gl:3", "--A", "symbolic"),
    ("classical", "lemma2", "--algebra", "gl:4", "--A", "symbolic"),
    # S_X^{M-k-1,M} needs k < M
    ("classical", "duality", "--algebra", "gl:3", "--M", "3", "--k", "3"),
    ("classical", "duality", "--algebra", "gl:3", "--M", "2", "--k", "5"),
], ids=" ".join)
def test_bad_input_is_one_error_line_and_no_report(argv, tmp_path):
    out = tmp_path / "rep.json"
    r = run_cli(*argv, "--out", str(out))
    assert r.returncode == 2
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert not out.exists()


@pytest.mark.parametrize("argv, label", [
    (("verify", "prop2", "--algebra", "gl:3"), "matrix:1,2,3;4,5,6;7,8,9"),
    (("verify", "prop5", "--algebra", "so:4"), "canonical-both-signs"),
    (("verify", "theorem1", "--algebra", "gl:3"), "sym-diag:a1,a2,0"),
    (("verify", "centralizer", "--algebra", "so:4"), "canonical-sign-minus"),
    (("verify", "prop5", "--algebra", "so:4", "--A", "diag:-1,0,0,1"), "diag:-1,0,0,1"),
    (("verify", "tensorial", "--algebra", "gl:2"), None),
])
def test_report_names_the_shift_that_ran(argv, label, tmp_path):
    # --A when given, else the default shift's label; null where no shift is read
    out = tmp_path / "rep.json"
    r = run_cli(*argv, "--max-power", "1", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert json.loads(out.read_text())["parameters"]["A"] == label


def test_frozen_invocations_still_parse(tmp_path, monkeypatch):
    # every battery entry and every benchmark call is accepted by the parser,
    # and each verify call by its suite's shift rule; the benchmark's own
    # set-up probe reads each benchmark call without error
    from envshift import cli
    from envshift.algebra import parse_algebra

    monkeypatch.syspath_prepend(str(REPO / "scripts"))
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    battery = importlib.import_module("run_verifications").BATTERY
    workloads, probe = importlib.import_module("workloads"), importlib.import_module("probe")
    calls = [list(argv) for argv in battery]
    monkeypatch.chdir(tmp_path)  # chain files are named relative to the working directory
    for name in workloads.WORKLOADS:
        for seed in range(3):
            for inv in workloads.build(name, seed, tmp_path / "chains"):
                argv = [*inv.args, "--seed", str(seed)]
                probe.parse_inputs(argv)
                calls.append(argv)
    for argv in calls:
        args = cli.build_parser().parse_args(argv)
        if args.command == "verify":
            cli._shifts(parse_algebra(args.algebra), args.A, cli.VERIFY_SUITES[args.suite][1])


def test_error_while_expanding_is_an_error_record(tmp_path, monkeypatch):
    from envshift import cli
    from envshift.algebra import AlgebraError

    def broken(spec, M, rows):
        raise AlgebraError("expansion failed")

    monkeypatch.setattr(cli, "shift_expand", broken)
    out = tmp_path / "rep.json"
    argv = ["expand", "--algebra", "gl:2", "--M", "2", "--A", "diag:1,2", "--out", str(out)]
    assert cli.main(argv) == 2
    checks = json.loads(out.read_text())["checks"]
    assert [(c["outcome"], c["detail"]) for c in checks] == [("ERROR", "expansion failed")]


def test_internal_errors_exit_two_without_traceback(tmp_path, monkeypatch, capsys):
    from envshift import cli

    def broken(*args):
        raise ZeroDivisionError("broken builder")

    out = tmp_path / "rep.json"
    argv = ["verify", "theorem1", "--algebra", "gl:2", "--max-power", "2", "--out", str(out)]
    # raised inside a check: an ERROR record, and the suite goes on (the
    # M = N checks are decided by antisymmetry and never call the builder)
    monkeypatch.setattr(cli.el, "shift_commutator_residual", broken)
    assert cli.main(argv) == 2
    checks = json.loads(out.read_text())["checks"]
    assert [c["outcome"] for c in checks] == ["PASS", "ERROR", "PASS"]
    assert checks[1]["detail"] == "internal error: ZeroDivisionError: broken builder"
    # raised while building a suite, outside any check: one error line
    monkeypatch.setattr(cli.el, "stabilizer_basis", broken)
    capsys.readouterr()
    assert cli.main(["verify", "centralizer", "--algebra", "gl:2"]) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == ["error: internal error: ZeroDivisionError: broken builder"]


NEGATIVE_CONTROL_CHAIN = {"algebra": "gl:4", "steps": [
    {"k": 2, "shift": "diag:0,0,1,2"}, {"k": 2, "shift": "diag:1,2"}]}


def test_chain_whose_shift_moves_the_next_level_fails(tmp_path, monkeypatch):
    # diag(0,0,1,2) does not fix the gl(2) block, so the generator-level
    # certificate fails and every pair is multiplied
    from envshift import cli
    from envshift.algebra import parse_algebra
    from envshift.pbw import parse

    (tmp_path / "neg.json").write_text(json.dumps(NEGATIVE_CONTROL_CHAIN))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["chain", "--file", "neg.json", "--out", "rep.json"]) == 1
    rep = json.loads((tmp_path / "rep.json").read_text())
    check = rep["checks"][0]
    assert (check["id"], check["outcome"]) == ("pairwise-commutativity", "FAIL")
    assert check["detail"] == "[tr(A.X^2)@gl(4),tr(X^2)@gl(2)] != 0 (2 failing pairs)"
    assert check["residual"] == (
        "2*X[1,3].X[3,4].X[4,1] + -2*X[1,4].X[3,1].X[4,3] + 2*X[2,3].X[3,4].X[4,2]"
        " + -2*X[2,4].X[3,2].X[4,3] + -2*X[1,4].X[4,1] + -2*X[2,4].X[4,2]"
    )
    assert not parse(parse_algebra("gl:4"), check["residual"]).is_zero
    assert rep["summary"] == {"pass": 0, "fail": 2, "error": 0}


@pytest.mark.parametrize("argv", [
    ["verify", "theorem1", "--algebra", "gl:3", "--A", "matrix:3,1,-1;4,1,-1;-4,4,-3"],
    ["verify", "theorem2", "--algebra", "sp:2", "--A", "symbolic", "--max-power", "2"],
    ["verify", "theorem2", "--algebra", "so:4", "--A", "matrix:1,0,0,1;0,0,0,0;0,0,0,0;0,0,0,0"],
])
def test_equal_power_checks_multiply_nothing(argv, monkeypatch):
    import re

    from envshift import cli, pbw

    calls = []
    real = pbw.multiply

    def spy(p, q):
        calls.append(None)
        return real(p, q)

    for mod in (pbw, cli.el):
        monkeypatch.setattr(mod, "multiply", spy)
    per_check = {}
    run_check = cli._run_check

    def counted(report, check_id, fn):
        before = len(calls)
        run_check(report, check_id, fn)
        per_check[check_id] = len(calls) - before

    monkeypatch.setattr(cli, "_run_check", counted)
    assert cli.main(argv) in (0, 1)
    for check_id, n in per_check.items():
        M, N = re.match(r"\[\(AX\^(\d+)\),\(AX\^(\d+)\)\]", check_id).groups()
        assert (n == 0) == (M == N), (check_id, n)


SP2 = ("verify", "theorem2", "--algebra", "sp:2")


def _block_buffered_cli(*args, stdout):
    # without PYTHONUNBUFFERED a stdout that is not a terminal holds the
    # summary in its buffer until it is flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "envshift", *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=300, cwd=str(REPO), env=env)


def test_a_stdout_that_cannot_be_written_exits_two_without_a_report(tmp_path):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    out = tmp_path / "rep.json"
    with open("/dev/full", "w") as full:
        r = _block_buffered_cli(*SP2, "--out", str(out), stdout=full)
    assert r.returncode == 2, r.stderr
    errors = [ln for ln in r.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "Exception ignored" not in r.stderr, r.stderr
    assert not out.exists()


def test_help_leaves_through_the_same_exit():
    # argparse's SystemExit takes the flush and the exit of every other call
    r = _block_buffered_cli("--help", stdout=subprocess.PIPE)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage: envshift")
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "w") as full:
        r = _block_buffered_cli("--help", stdout=full)
    assert r.returncode == 2 and r.stderr == "", r.stderr


def test_the_summary_reaches_a_block_buffered_stdout():
    r = _block_buffered_cli(*SP2, stdout=subprocess.PIPE)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "suite theorem2 on sp:2: 12 pass, 0 fail, 0 error"


class _Full:
    def flush(self):
        raise OSError(28, "No space left on device")


def test_a_stream_that_cannot_be_flushed_at_exit_makes_the_code_two(monkeypatch):
    from envshift import cli

    exits = []

    def leave(code):
        exits.append(code)
        raise SystemExit(code)

    monkeypatch.setattr(cli, "main", lambda: 0)
    monkeypatch.setattr(cli.os, "_exit", leave)
    with pytest.raises(SystemExit):
        cli.run()
    monkeypatch.setattr(cli.sys, "stdout", _Full())
    with pytest.raises(SystemExit):
        cli.run()
    assert exits == [0, 2]


def test_the_installed_script_runs_what_python_m_envshift_runs():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]["scripts"]
    tree = ast.parse((REPO / "src" / "envshift" / "__main__.py").read_text())
    imported = {alias.asname or alias.name: f"envshift.{node.module}:{alias.name}"
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    called = [imported[node.func.id] for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert called == [scripts["envshift"]] == ["envshift.cli:run"]
