"""Command-line verification harness.

Every suite runs a list of named checks, each either PASS, FAIL (with a
re-parseable residual witness) or ERROR.  Reports are deterministic for a
fixed invocation: the JSON payload excludes wall-clock timings, which are
shown on stdout only.  Exit code 0 = all checks pass, 1 = some check failed,
2 = bad input or internal error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from pathlib import Path

from . import elements as el
from . import independence as ind
from .algebra import (
    AlgebraError,
    dimension_and_index,
    index_orbits,
    orbit_representatives,
    parse_algebra,
)
from .chains import chain_generators, load_chain_file, noncommuting_pairs
from .classical import (
    PointOnDual,
    derive_rng,
    format_classical,
    random_rank2_point,
    shift_expand,
    shifted_charpoly_values,
)
from .pbw import NCPolynomial, _tables, commutator, format_poly, linear_combination
from .shifts import canonical_shift, shift_from_designator, symbolic_shift


class CheckRecord:
    def __init__(self, check_id: str, outcome: str, residual: str | None, detail: str | None,
                 wall_ms: float):
        self.check_id = check_id
        self.outcome = outcome  # PASS | FAIL | ERROR
        self.residual = residual
        self.detail = detail
        self.wall_ms = wall_ms


class SuiteReport:
    def __init__(self, suite: str, algebra: str, parameters: dict):
        self.suite = suite
        self.algebra = algebra
        self.parameters = parameters
        self.checks: list = []

    @property
    def counts(self):
        out = {"pass": 0, "fail": 0, "error": 0}
        for c in self.checks:
            out[c.outcome.lower()] += 1
        return out

    @property
    def exit_code(self):
        counts = self.counts
        if counts["error"]:
            return 2
        return 1 if counts["fail"] else 0

    def payload(self) -> dict:
        return {
            "suite": self.suite,
            "algebra": self.algebra,
            "parameters": self.parameters,
            "checks": [
                {
                    "id": c.check_id,
                    "outcome": c.outcome,
                    "residual": c.residual,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "summary": self.counts,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2) + "\n"


def _run_check(report: SuiteReport, check_id: str, fn):
    """Run one check; fn returns (ok, residual_text, detail)."""
    t0 = time.perf_counter()
    try:
        ok, residual, detail = fn()
        outcome = "PASS" if ok else "FAIL"
    except AlgebraError as exc:
        outcome, residual, detail = "ERROR", None, str(exc)
    except Exception as exc:  # internal error; a traceback would embed checkout paths
        outcome, residual = "ERROR", None
        detail = f"internal error: {type(exc).__name__}: {exc}"
    wall = (time.perf_counter() - t0) * 1000.0
    report.checks.append(CheckRecord(check_id, outcome, residual, detail, wall))
    print(f"check {check_id}: {outcome}", file=sys.stderr)


def _first_nonzero(residuals):
    """A check over lazily computed (detail, residual) pairs; FAIL at the first nonzero."""
    def run():
        for detail, r in residuals():
            if not r.is_zero:
                return False, format_poly(r), detail
        return True, None, None
    return run


def _residual_check(poly_fn):
    return _first_nonzero(lambda: ((None, poly_fn()),))


# ---------------------------------------------------------------------------
# verify suites


def _antisymmetry():
    """[x, x] = 0 in any associative algebra; polarized, the (m, m') and (m', m)
    terms cancel and each [P, P] vanishes, so no product is needed."""
    return True, None, None


def _suite_shift_commutativity(report, spec, shifts, max_power):
    for name, A in shifts:
        built: dict = {}  # A's parts and their elements, shared by its checks
        for M in range(1, max_power + 1):
            for N in range(M, max_power + 1):
                _run_check(
                    report,
                    f"[(AX^{M}),(AX^{N})]=0 A={name}",
                    _antisymmetry if M == N else _residual_check(
                        lambda A=A, M=M, N=N, built=built: el.shift_commutator_residual(
                            spec, A, M, N, built
                        )
                    ),
                )


def _designated(spec, text):
    """A designator as (label, [(name, A)]): the one shift it names, under its own text."""
    return text, [(text, shift_from_designator(spec, text))]


def _diagonal_symbolic_shift(spec):
    names = [f"a{k+1}" for k in range(min(2, spec.matrix_size))]
    names += ["0"] * (spec.matrix_size - len(names))
    return _designated(spec, "sym-diag:" + ",".join(names))


def _dense_numeric_shift(spec):
    m = spec.matrix_size
    return _designated(spec, "matrix:" + ";".join(
        ",".join(str(r * m + c + 1) for c in range(m)) for r in range(m)))


def _canonical_sign_minus(spec):
    return "canonical-sign-minus", [("canonical-sign-minus", canonical_shift(spec, -1))]


_SIGNS = (("minus", -1), ("plus", 1))


def _canonical_both_signs(spec):
    return "canonical-both-signs", [
        (f"canonical-sign-{name}", canonical_shift(spec, s)) for name, s in _SIGNS]


def _shifts(spec, A, default):
    """The shifts a command runs, as (label, [(name, A)]); the report records the label.

    ``default`` is the command's default shift (a function of spec), or None
    for a suite that reads no shift, which refuses ``--A``.  ``--A symbolic``
    is every gl matrix at once, or each signed so/sp subspace; the commands
    whose checks need a numeric shift pass the canonical sign -1 default
    (``expand`` and ``classical tangent`` too, which require ``--A``) and
    read it as a bad designator.  Any other ``--A`` is that shift.
    """
    if default is None:
        if A is not None:
            raise AlgebraError("this suite reads no shift matrix; --A is refused")
        return None, []
    if A is None:
        return default(spec)
    if A == "symbolic" and default is not _canonical_sign_minus:
        if spec.is_gl:
            return A, [("symbolic-full", symbolic_shift(spec))]
        return A, [(f"symbolic-sign-{name}", symbolic_shift(spec, s)) for name, s in _SIGNS]
    return _designated(spec, A)


def _suite_centralizer(report, spec, shifts, max_power):
    [(_, A)] = shifts
    basis = el.stabilizer_basis(spec, A)
    report.parameters["stabilizer_dim"] = len(basis)
    for b, B in enumerate(basis):
        for N in range(1, max_power + 1):
            _run_check(
                report,
                f"[(BX),(AX^{N})]=([A,B]X^{N}) B#{b}",
                _residual_check(lambda B=B, N=N: el.check_centralizer(spec, A, B, N)),
            )


def _per_entry_checks(report, spec, orbits, entries, label, residual):
    """One check per entry, in order.  ``residual`` is equivariant, so it is
    evaluated once per orbit (``orbits``, from ``index_orbits``), at the orbit's
    first tuple, and the other entries of a vanishing orbit PASS with it; in
    any other orbit each entry is evaluated, so a FAIL carries its own residual."""
    vanishes: dict = {}  # first tuple of an orbit -> whether its residual is zero

    def evaluate(t):
        first = orbits[t]
        if first not in vanishes:
            r = residual(first)
            vanishes[first] = r.is_zero
            if t == first:
                return r
        return NCPolynomial.zero(spec) if vanishes[first] else residual(t)

    for t in entries:
        _run_check(report, label(t), _residual_check(lambda t=t: evaluate(t)))


def _suite_tensorial(report, spec, shifts, max_power):
    """The tensorial identity at every index tuple, each its own check."""
    orbits = index_orbits(spec, 4)
    for M in range(1, max_power + 1):
        _per_entry_checks(report, spec, orbits, itertools.product(spec.index_set, repeat=4),
                          lambda t, M=M: "tensorial M={} ({},{},{},{})".format(M, *t),
                          lambda t, M=M: el.tensorial_residual(spec, M, *t))


def _suite_casimir_central(report, spec, shifts, max_power):
    """[(X^M), X[i,j]] = 0 at each canonical generator.  The symmetries fix the
    Casimirs and send X[i,j] to X[s(i),s(j)], +- a canonical generator."""
    orbits = index_orbits(spec, 2)
    for M in range(1, max_power + 1):
        cas = el.casimir(spec, M)
        _per_entry_checks(
            report, spec, orbits, spec.canonical_generators,
            lambda pair, M=M: f"[(X^{M}),X[{pair[0]},{pair[1]}]]=0",
            lambda pair, cas=cas: commutator(cas, NCPolynomial.generator(spec, *pair)),
        )


def _suite_power_brackets(report, spec, shifts, max_power):
    """prop1 (gl) / prop4 (so/sp): the bracket-of-powers expansion at every index tuple.

    The residual at s(t) is the image of the one at t under an automorphism
    of U(g), so only one tuple per orbit is evaluated (``orbit_representatives``);
    the first failing tuple is such a representative, so the report is the same.
    """
    tuples = orbit_representatives(spec, 4)
    products: dict = {}  # (X^a)[i,j](X^b)[k,l] by (a, i, j, b, k, l), shared by every check
    for M in range(1, max_power + 1):
        for N in range(1, max_power + 1):
            _run_check(
                report,
                f"expansion M={M} N={N} all index tuples",
                _first_nonzero(lambda M=M, N=N: (
                    (f"(M={M},N={N},ijkl={t})",
                     el.power_bracket_residual(spec, M, N, *t, products))
                    for t in tuples
                )),
            )


def _suite_recursion_gl(report, spec, shifts, max_power):
    """prop2: the gl contracted recursion."""
    [(_, A)] = shifts
    built = {"costs": el.recursion_costs(max_power)}
    for M in range(1, max_power + 1):
        for N in range(1, max_power + 1):
            _run_check(
                report,
                f"contracted recursion M={M} N={N}",
                _residual_check(
                    lambda M=M, N=N: el.shift_bracket_recursion_residual(spec, M, N, A, built)
                ),
            )


def _suite_flip(report, spec, shifts, max_power):
    """prop3: the so/sp flip expansion of X^{M+1}, printing its central coefficients.

    The flip residual is equivariant as the prop1/prop4 one is, so it is
    evaluated at one index pair per orbit.
    """
    pairs = orbit_representatives(spec, 2)
    for M in range(0, max_power + 1):
        def run(M=M):
            coeffs = el.power_flip_coefficients(spec, M + 1)
            lead = coeffs[-1] - NCPolynomial.scalar(spec, (-1) ** (M + 1))
            outcome = _first_nonzero(lambda: itertools.chain(
                ((f"(M+1={M + 1},ij={t})", el.flip_residual(spec, M + 1, *t)) for t in pairs),
                [("leading coefficient", lead)],
            ))()
            coeff_texts = [format_poly(c) for c in coeffs]
            report.parameters.setdefault("central_coeffs", {})[f"M+1={M + 1}"] = coeff_texts
            print(f"C_p for X^{M + 1}: [{', '.join(coeff_texts)}]")
            return outcome
        _run_check(report, f"flip expansion of X^{M + 1}", run)


def _suite_recursions_so_sp(report, spec, shifts, max_power):
    """prop5: both so/sp contraction recursions, once per symmetry sign of each shift."""
    for name, A in shifts:
        signs = sorted(A.symmetry_signs())
        if not signs:
            raise AlgebraError("identity 5 needs a shift matrix with a symmetry sign")
        built = {"costs": el.contraction_costs(max_power)}
        for s in signs:
            for M in range(1, max_power + 1):
                for N in range(1, max_power + 1):
                    def residuals(M=M, N=N, s=s):
                        r1, r2 = el.contracted_recursion_residuals(spec, A, M, N, s, built)
                        return ((f"straight(M={M},N={N})", r1), (f"crossed(M={M},N={N})", r2))
                    _run_check(report, f"recursions M={M} N={N} A={name}",
                               _first_nonzero(residuals))


# suite -> (the family its identity is stated for or None, default shift or
# None when it reads no shift, runner); the keys are the parser's choices
VERIFY_SUITES = {
    "theorem1": ("gl", _diagonal_symbolic_shift, _suite_shift_commutativity),
    "theorem2": ("so/sp", _canonical_both_signs, _suite_shift_commutativity),
    "centralizer": (None, _canonical_sign_minus, _suite_centralizer),
    "tensorial": (None, None, _suite_tensorial),
    "prop1": ("gl", None, _suite_power_brackets),
    "prop2": ("gl", _dense_numeric_shift, _suite_recursion_gl),
    "prop3": ("so/sp", None, _suite_flip),
    "prop4": ("so/sp", None, _suite_power_brackets),
    "prop5": ("so/sp", _canonical_both_signs, _suite_recursions_so_sp),
    "casimir-central": (None, None, _suite_casimir_central),
}


def _run_verify(report, spec, args):
    family, default, runner = VERIFY_SUITES[args.suite]
    if family is not None and (family == "gl") != spec.is_gl:
        raise AlgebraError(f"{args.suite} is stated for {family}, not {spec.designator}")
    _tables(spec)  # an algebra too large for PBW words is bad input, before any shift is built
    label, shifts = _shifts(spec, args.A, default)
    report.parameters.update({"A": label, "max_power": args.max_power})
    runner(report, spec, shifts, args.max_power)


# ---------------------------------------------------------------------------
# chain / expand / rank / classical commands


def _report_path(path: str) -> str:
    """A path as a report records it: relative to the working directory when
    it lies below it, so the report is the same on any checkout; else as given."""
    if Path(path).is_absolute():
        try:
            return Path(path).resolve().relative_to(Path.cwd().resolve()).as_posix()
        except ValueError:
            pass
    return path


def _run_chain(report, chain, args):
    dim, index = dimension_and_index(chain.algebra)
    report.parameters.update({
        "file": _report_path(args.file),
        "trials": args.trials,
        "steps": [s.k for s in chain.steps],
        "target": (dim + index) // 2,
    })
    family = chain_generators(chain)
    report.parameters["generators"] = family.labels

    def commutative():
        fails = noncommuting_pairs(family)
        if not fails:
            return True, None, None
        a, b, r = fails[0]
        return False, format_poly(r), f"[{a},{b}] != 0 ({len(fails)} failing pairs)"

    _run_check(report, "pairwise-commutativity", commutative)

    def rank_check():
        cert = ind.transcendency_check(family, trials=args.trials, seed=args.seed)
        report.parameters["certificate"] = cert.serialize()
        return _rank_outcome(cert)

    _run_check(report, "transcendency-rank", rank_check)


def _run_expand(report, spec, args):
    name, [(_, A)] = _shifts(spec, args.A, _canonical_sign_minus)
    report.parameters.update({"A": name, "M": args.M})
    A_rows = A.numeric_rows()

    def run():
        texts = [format_classical(spec, c) for c in shift_expand(spec, args.M, A_rows)]
        report.parameters["components"] = {f"k={k + 1}": t for k, t in enumerate(texts)}
        for k, t in enumerate(texts):
            print(f"S_A^({k + 1},{args.M}) = {t}")
        return True, None, None

    _run_check(report, "expansion-computed", run)


def _rank_outcome(cert):
    """A rank certificate as a check result; a FAIL's residual is target - rank."""
    ok = cert.verdict == "PASS"
    return ok, None if ok else str(cert.target - cert.rank), (
        f"rank {cert.rank} vs target {cert.target}"
    )


def _run_rank(report, spec, args):
    name, [(_, A)] = _shifts(spec, args.A, _canonical_sign_minus)
    report.parameters.update({"A": name, "trials": args.trials})
    A_rows = A.numeric_rows()

    def run():
        fs, labels = ind.shift_family(spec, A_rows)
        cert = ind.jacobian_rank(fs, spec, trials=args.trials, seed=args.seed, labels=labels)
        report.parameters["certificate"] = cert.serialize()
        return _rank_outcome(cert)

    _run_check(report, "jacobian-rank", run)


def _run_lemma2(report, spec, args):
    name, [(_, A)] = _shifts(spec, args.A, _canonical_sign_minus)
    pairs = [(M, k) for M in range(1, spec.matrix_size + 1) for k in range(1, M) if M - k >= 3]
    report.parameters.update(
        {"A": name, "points": args.points, "pairs": [f"M={M},k={k}" for M, k in pairs]})
    A_rows = A.numeric_rows()
    values = {}  # point number -> {(M, k): value}, one charpoly run per point

    def values_at(p):
        if p not in values:
            point = random_rank2_point(spec, seed=f"{args.seed}.{p}")
            values[p] = shifted_charpoly_values(point.coordinate_realization(), A_rows, pairs)
        return values[p]

    for M, k in pairs:
        for p in range(args.points):
            def run(M=M, k=k, p=p):
                v = values_at(p)[(M, k)]
                return v == 0, None if v == 0 else str(v), f"point seed ({args.seed},{p})"
            _run_check(report, f"vanish M={M} k={k} point#{p}", run)


def _run_duality(report, spec, args):
    if args.k >= args.M:
        raise AlgebraError("duality check needs --k < --M")
    if not spec.is_gl and args.M % 2:
        # tr((X + tA)^M) vanishes identically for odd M on so/sp, so both
        # index readings hold trivially and the check decides nothing
        raise AlgebraError("duality check on so/sp needs an even --M")
    report.parameters.update({"M": args.M, "k": args.k, "seeds": args.seeds})
    for s in range(args.seeds):
        def run(s=s):
            pX = PointOnDual.random(spec, derive_rng(args.seed, s, "x"))
            pA = PointOnDual.random(spec, derive_rng(args.seed, s, "a"))
            out = ind.brailov_duality_check(spec, args.k, args.M, pX, pA)
            det = f"validated index conventions: {out.validated}"
            if out.holds_plain_index and out.holds_shifted_index:
                raise AlgebraError(f"{det}; the point cannot tell the readings apart")
            if out.holds_shifted_index:
                return True, None, det
            # the gradient difference as the linear form sum_g d_g X[g]
            gens = (NCPolynomial.generator(spec, *pair) for pair in spec.canonical_generators)
            diff = linear_combination(spec, zip(gens, out.residual))
            return False, format_poly(diff), det
        _run_check(report, f"duality M={args.M} k={args.k} seed#{s}", run)


def _run_tangent(report, spec, args):
    name, [(_, A)] = _shifts(spec, args.A, _canonical_sign_minus)
    report.parameters.update({"A": name, "trials": args.trials})

    def run():
        lhs, rhs = ind.tangent_intersection_dim(spec, A, trials=args.trials, seed=args.seed)
        return lhs == rhs, None if lhs == rhs else str(rhs - lhs), f"lhs {lhs} vs rhs {rhs}"

    _run_check(report, "tangent-intersection", run)


# ---------------------------------------------------------------------------
# plumbing


def _finish(report: SuiteReport, out) -> int:
    if not report.checks:
        raise AlgebraError(f"suite {report.suite} on {report.algebra} has no checks to run")
    counts = report.counts
    for c in report.checks:
        line = f"[{c.outcome}] {c.check_id} ({c.wall_ms:.1f} ms)"
        if c.detail:
            line += f" -- {c.detail}"
        if c.residual:
            line += f" residual: {c.residual}"
        print(line)
    print(
        f"suite {report.suite} on {report.algebra}: "
        f"{counts['pass']} pass, {counts['fail']} fail, {counts['error']} error"
    )
    sys.stdout.flush()  # a stdout that cannot be written fails the run before its report
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    return report.exit_code


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """One leaf parser per command (and per classical check); each declares
    only the options its runner, or ``main``, reads."""
    top = argparse.ArgumentParser(
        prog="envshift",
        description="exact verification of commutative families in enveloping algebras",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def leaf(parent, name, run, summary, suite=None, algebra=True):
        p = parent.add_parser(name, help=summary)
        if algebra:
            p.add_argument("--algebra", required=True, help="gl:N | so:N | sp:N")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", help="write the JSON report here")
        p.set_defaults(run=run, suite=suite or name)
        return p

    v = leaf(sub, "verify", _run_verify, "run an identity suite")
    v.add_argument("suite", choices=VERIFY_SUITES)  # the report's suite is the one named
    v.add_argument("--A", help="diag:...|sym-diag:...|matrix:r;r;...|symbolic")
    v.add_argument("--max-power", type=int, default=3, dest="max_power")

    c = leaf(sub, "chain", _run_chain, "verify a chain family from a chain file", algebra=False)
    c.add_argument("--file", required=True)
    c.add_argument("--trials", type=_positive_int, default=3)

    e = leaf(sub, "expand", _run_expand, "print argument-shift expansion components")
    e.add_argument("--A", required=True)
    e.add_argument("--M", type=_positive_int, required=True)

    r = leaf(sub, "rank", _run_rank, "Jacobian rank certificate of the shift family")
    r.add_argument("--A")
    r.add_argument("--trials", type=_positive_int, default=3)

    checks = sub.add_parser("classical", help="classical-side checks").add_subparsers(
        dest="check", required=True)
    k = leaf(checks, "lemma2", _run_lemma2, "order >= 3 minor invariants vanish on rank-2 orbits",
             suite="classical-lemma2")
    k.add_argument("--A")
    k.add_argument("--points", type=_positive_int, default=5)
    k = leaf(checks, "duality", _run_duality, "gradient duality of point and shift variables",
             suite="classical-duality")
    k.add_argument("--M", type=_positive_int, required=True)
    k.add_argument("--k", type=_positive_int, required=True)
    k.add_argument("--seeds", type=_positive_int, default=5)
    k = leaf(checks, "tangent", _run_tangent, "dim proj_[A,g] D(F_A) = dim[A,g]/2",
             suite="classical-tangent")
    k.add_argument("--A", required=True)
    k.add_argument("--trials", type=_positive_int, default=8)

    return top


def main(argv=None) -> int:
    """Parse the command line, then build, run and finish the command's report."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "chain":
            source = load_chain_file(args.file)
            spec = source.algebra
        else:
            source = spec = parse_algebra(args.algebra)
        report = SuiteReport(args.suite, spec.designator, {"seed": args.seed})
        args.run(report, source, args)
        return _finish(report, args.out)
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error: exit 2 with one line, no traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The ``envshift`` command: ``main``, then the end of the process.

    The report is closed when ``main`` returns, so the interpreter's teardown
    would only free modules and caches; the streams are flushed and the
    process leaves with ``os._exit``, also after argparse's ``SystemExit``
    (``--help``, bad arguments), whose code it takes.  A stream that cannot
    be flushed makes the exit code 2.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            code = 2
    os._exit(code)
