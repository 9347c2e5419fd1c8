"""Acceptance suite: every contract criterion at its stated bounds.

All checks are exact (rational arithmetic, zero tolerance).  Each test prints
one PASS line on success; pytest reports the failures.
"""

import itertools
import random
from fractions import Fraction

import pytest

from envshift import elements as el
from envshift import linalg
from envshift.algebra import GL, SO_EVEN, SO_ODD, SP, make_algebra, parse_algebra
from envshift.chains import chain_generators, commutativity_failures, make_chain
from envshift.classical import PointOnDual, derive_rng, random_rank2_point
from envshift.independence import (
    brailov_duality_check,
    tangent_intersection_dim,
    transcendency_check,
)
from envshift.params import ParamPolynomial
from envshift.pbw import (
    NCPolynomial,
    commutator,
    format_poly,
    multiply,
    parse,
)
from envshift.shifts import (
    canonical_shift,
    shift_from_designator,
    shift_from_rows,
)
from oracles import (bubble_normal_form, charpoly_shift_invariants, degree, evaluate,
                     graded_symbol, lie_poisson_bracket, top_symbol, violating_shift)

GL2 = make_algebra(GL, 2)
GL3 = make_algebra(GL, 3)


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_shift_family_commutativity_gl():
    # [(AX^M),(AX^N)] = 0 in U(gl(2)) and U(gl(3)) for all M,N <= 4 and the
    # three contract shift matrices (the symbolic diagonal covers a
    # Zariski-dense family in one run)
    for spec in (GL2, GL3):
        pad = ",0" * (spec.matrix_size - 2)
        for desig in (f"diag:1,2{pad}", f"diag:1,1{pad}", f"sym-diag:a1,a2{pad}"):
            A = shift_from_designator(spec, desig)
            elems = {M: el.shift_generator(spec, A, M) for M in range(1, 5)}
            for M in range(1, 5):
                for N in range(M, 5):
                    r = commutator(elems[M], elems[N])
                    assert r.is_zero, (spec.designator, desig, M, N, format_poly(r))
    _report("1 (gl shift families commute, M,N <= 4)")


SO_SP_SPECS = [
    make_algebra(SO_ODD, 1),
    make_algebra(SO_EVEN, 2),
    make_algebra(SO_ODD, 2),
    make_algebra(SP, 1),
    make_algebra(SP, 2),
]


def test_criterion_2_shift_family_commutativity_so_sp():
    # both symmetry signs for each algebra, M,N <= 3, exact
    for spec in SO_SP_SPECS:
        for sign in (-1, 1):
            A = canonical_shift(spec, sign)
            elems = {M: el.shift_generator(spec, A, M) for M in range(1, 4)}
            for M in range(1, 4):
                for N in range(M, 4):
                    r = commutator(elems[M], elems[N])
                    assert r.is_zero, (spec.designator, sign, M, N)
    # negative control: a sign-violating shift with a nonzero commutator, one
    # per family (sp(1) has no effective violating matrix: every 2x2 matrix is
    # an algebra member plus a multiple of the identity)
    for spec in (make_algebra(SO_ODD, 1), make_algebra(SO_EVEN, 2), make_algebra(SP, 2)):
        bad = violating_shift(spec)
        assert not bad.symmetry_signs()
        nonzero = False
        for M in range(1, 4):
            for N in range(M, 4):
                if not commutator(
                    el.shift_generator(spec, bad, M), el.shift_generator(spec, bad, N)
                ).is_zero:
                    nonzero = True
        assert nonzero, spec.designator
    _report("2 (so/sp shift families commute, both signs; negative controls fail)")


def test_criterion_3_centralizer_identity():
    # [(BX),(AX^N)] = ([A,B]X^N) for every stabilizer-basis B, N <= 3
    for spec, A in (
        (GL3, shift_from_designator(GL3, "diag:1,2,0")),
        (make_algebra(SO_EVEN, 2), canonical_shift(make_algebra(SO_EVEN, 2), -1)),
    ):
        basis = el.stabilizer_basis(spec, A)
        assert basis
        for B in basis:
            for N in range(1, 4):
                assert el.check_centralizer(spec, A, B, N).is_zero, (spec.designator, N)
    _report("3 (stabilizer centralizes the shift family, N <= 3)")


def test_criterion_4_propositions_gl():
    # bracket-of-powers expansion: exhaustive index tuples, M,N <= 3
    for spec in (GL2, GL3):
        for M in range(1, 4):
            for N in range(1, 4):
                for t in itertools.product(spec.index_set, repeat=4):
                    r = el.power_bracket_residual(spec, M, N, *t)
                    assert r.is_zero, (spec.designator, M, N, t, format_poly(r))
    # contracted recursion for dense numeric and diagonal shift matrices
    for spec in (GL2, GL3):
        m = spec.matrix_size
        dense = shift_from_rows(
            spec, [[Fraction(r * m + c + 1) for c in range(m)] for r in range(m)]
        )
        diag = shift_from_designator(spec, "diag:" + ",".join(str(k + 1) for k in range(m)))
        for A in (dense, diag):
            for M in range(1, 4):
                for N in range(1, 4):
                    r = el.shift_bracket_recursion_residual(spec, M, N, A)
                    assert r.is_zero, (spec.designator, M, N)
    _report("4a (gl expansions, exhaustive tuples, M,N <= 3)")


def test_criterion_4_propositions_so_sp():
    specs = (make_algebra(SO_ODD, 1), make_algebra(SO_EVEN, 2), make_algebra(SP, 1))
    # flip expansion with extracted central coefficients, leading (-1)^(M+1)
    for spec in specs:
        for M in range(0, 4):  # expansions of X^1 .. X^4
            for t in itertools.product(spec.index_set, repeat=2):
                r = el.flip_residual(spec, M + 1, *t)
                assert r.is_zero, (spec.designator, M, t, format_poly(r))
            coeffs = el.power_flip_coefficients(spec, M + 1)
            assert coeffs[-1] == NCPolynomial.scalar(spec, (-1) ** (M + 1))
    # bracket-of-powers expansion, exhaustive index tuples, M,N <= 3
    for spec in specs:
        for M in range(1, 4):
            for N in range(1, 4):
                for t in itertools.product(spec.index_set, repeat=4):
                    r = el.power_bracket_residual(spec, M, N, *t)
                    assert r.is_zero, (spec.designator, M, N, t, format_poly(r))
    # contracted recursions for both signs, canonical and random signed shifts
    rng = random.Random(424)
    for spec in specs:
        for sign in (-1, 1):
            shifts = [canonical_shift(spec, sign), _random_signed(spec, rng, sign)]
            for A in shifts:
                for M in range(1, 4):
                    for N in range(1, 4):
                        for r in el.contracted_recursion_residuals(spec, A, M, N, sign):
                            assert r.is_zero, (spec.designator, sign, M, N, format_poly(r))
    _report("4b (so/sp expansions and recursions, M,N <= 3; leading coeff (-1)^(M+1))")


def _random_signed(spec, rng, sign):
    m = spec.matrix_size
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in spec.index_set:
        for j in spec.index_set:
            c = Fraction(rng.randint(-2, 2))
            rows[spec.position(i)][spec.position(j)] += c
            rows[spec.position(-j)][spec.position(-i)] += sign * spec.eps(i) * spec.eps(j) * c
    return shift_from_rows(spec, rows)


CHAIN_CASES = [
    ("gl:3", [(2, "auto")], 6),
    ("gl:4", [(2, "auto"), (2, "auto")], 10),
    ("so:4", [(2, "auto")], 4),
    ("so:5", [(2, "auto"), (1, None)], 6),
    ("sp:2", [(1, "auto")], 6),
]


@pytest.mark.parametrize("name,steps,target", CHAIN_CASES)
def test_criterion_5_chain_families(name, steps, target):
    spec = parse_algebra(name)
    chain = make_chain(spec, steps)
    family = chain_generators(chain)
    fails = commutativity_failures(family)
    assert fails == [], [(a, b, format_poly(r)) for a, b, r in fails]
    cert = transcendency_check(family, trials=3, seed=42)
    assert cert.target == target
    assert cert.verdict == "PASS", cert.serialize()
    assert cert.rank == target and cert.trials >= 3
    assert cert.stable, cert.ranks
    _report(f"5 ({name} chain commutes; rank {cert.rank} = target {target})")


def test_criterion_6_minor_invariants_vanish_on_rank2():
    for name, desig in (("gl:4", "diag:1,2,0,0"), ("so:5", None)):
        spec = parse_algebra(name)
        A = (
            shift_from_designator(spec, desig)
            if desig
            else canonical_shift(spec, -1)
        )
        m = spec.matrix_size
        pairs = [(M, k) for M in range(1, m + 1) for k in range(1, M) if M - k >= 3]
        assert pairs
        for M, k in pairs:
            poly = charpoly_shift_invariants(spec, M, k, A.numeric_rows())
            for s in range(5):
                pt = random_rank2_point(spec, seed=f"{name}.{M}.{k}.{s}")
                assert linalg.rank(pt.coordinate_realization()) == 2
                assert evaluate(poly, pt) == 0, (name, M, k, s)
    _report("6 (order >= 3 minor invariants vanish at 5 rank-2 points each)")


def test_criterion_7_tangent_and_duality():
    for desig, want in (("diag:1,1,0", 2), ("diag:1,2,0", 3)):
        lhs, rhs = tangent_intersection_dim(
            GL3, shift_from_designator(GL3, desig), trials=8, seed=42
        )
        assert rhs == want and lhs == rhs, (desig, lhs, rhs)
    for spec in (GL2, GL3):
        pairs = [(2, 1)] if spec is GL2 else [(3, 1), (3, 2)]
        for M, k in pairs:
            for s in range(5):
                pX = PointOnDual.random(spec, derive_rng("acc7", spec.designator, M, k, s, "x"))
                pA = PointOnDual.random(spec, derive_rng("acc7", spec.designator, M, k, s, "a"))
                out = brailov_duality_check(spec, k, M, pX, pA)
                assert out.validated == ["M-k-1"], (spec.designator, M, k, s, out)
    _report("7 (tangent lhs = rhs for both shifts; duality index M-k-1 across 5 seeds)")


def test_criterion_8_engine_integrity():
    so3 = make_algebra(SO_ODD, 1)

    # PBW confluence: independent leftmost/rightmost bubble rewriters agree
    # with the production path on 100 random words of degree <= 4
    for spec in (GL2, so3):
        rng = random.Random(f"confluence.{spec.designator}")
        gens = spec.canonical_generators
        for _ in range(100):
            word = tuple(rng.randrange(len(gens)) for _ in range(rng.randint(2, 4)))
            left = bubble_normal_form(spec, {word: Fraction(1)}, "leftmost")
            right = bubble_normal_form(spec, {word: Fraction(1)}, "rightmost")
            assert left == right == NCPolynomial(spec, {word: Fraction(1)}).terms

    # associativity and Leibniz on 100 random triples per algebra
    for spec in (GL2, so3):
        rng = random.Random(f"assoc.{spec.designator}")
        for _ in range(100):
            p, q, r = (_random_nc(spec, rng, 2, 3) for _ in range(3))
            assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))
            assert commutator(p, multiply(q, r)) == (
                multiply(commutator(p, q), r) + multiply(q, commutator(p, r))
            )

    # quantum top degree vs Lie-Poisson bracket on 50 random pairs
    rng = random.Random("symbol")
    for _ in range(50):
        p, q = _random_nc(GL2, rng, 3, 3), _random_nc(GL2, rng, 3, 3)
        if p.is_zero or q.is_zero:
            continue
        grade = degree(p) + degree(q) - 1
        want = lie_poisson_bracket(GL2, top_symbol(p), top_symbol(q))
        got = graded_symbol(commutator(p, q), grade)
        assert got == want

    # parse/format round trips, rational and parametric coefficients
    rng = random.Random("roundtrip")
    for spec in (GL2, so3):
        for _ in range(50):
            p = _random_nc(spec, rng, 3, 4)
            assert parse(spec, format_poly(p)) == p
    a1 = ParamPolynomial.variable("a1")
    p = NCPolynomial(GL2, {(0, 1): a1 * Fraction(3, 2), (): a1 * a1 - 2})
    assert parse(GL2, format_poly(p)) == p

    _report("8 (confluence, associativity, Leibniz, graded symbol, round trips)")


def _random_nc(spec, rng, max_deg, max_terms):
    gens = spec.canonical_generators
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_deg)
        word = tuple(sorted(rng.randrange(len(gens)) for _ in range(deg)))
        terms[word] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return NCPolynomial(spec, terms)
