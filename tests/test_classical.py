import itertools
import random
from fractions import Fraction

import pytest

from envshift import elements as el
from envshift import linalg
from envshift.algebra import GL, SO_EVEN, SO_ODD, AlgebraError, make_algebra, parse_algebra
from envshift.classical import (
    PointOnDual,
    coordinate,
    coordinate_matrix,
    random_rank2_point,
    shift_expand,
    shifted_charpoly_values,
)
from envshift.params import ParamPolynomial
from envshift.pbw import NCPolynomial, commutator
from envshift.shifts import canonical_shift, shift_from_designator
from oracles import (antisymmetric_rank2_matrix, charpoly_shift_invariants, degree, evaluate,
                     gradient, graded_symbol, lie_poisson_bracket, power_trace, shift_pair_trace,
                     top_symbol, total_degree)

GL2 = make_algebra(GL, 2)
GL3 = make_algebra(GL, 3)
GL4 = make_algebra(GL, 4)
SO4 = make_algebra(SO_EVEN, 2)
SO5 = make_algebra(SO_ODD, 2)


def coord(spec, i, j):
    return coordinate(spec, i, j)


def test_poisson_bracket_mirrors_structure_constants():
    assert lie_poisson_bracket(GL2, coord(GL2, 1, 1), coord(GL2, 1, 2)) == coord(GL2, 1, 2)
    f = coord(GL2, 1, 2) * coord(GL2, 2, 1) + coord(GL2, 1, 1) * 3
    assert lie_poisson_bracket(GL2, f, f).is_zero


def test_poisson_bracket_leibniz():
    rng = random.Random(12)
    for _ in range(25):
        f, g, h = (_random_classical(GL2, rng) for _ in range(3))
        lhs = lie_poisson_bracket(GL2, f, g * h)
        rhs = lie_poisson_bracket(GL2, f, g) * h + g * lie_poisson_bracket(GL2, f, h)
        assert lhs == rhs


def _random_classical(spec, rng, max_deg=2, max_terms=3):
    out = ParamPolynomial.const(0)
    gens = spec.canonical_generators
    for _ in range(rng.randint(1, max_terms)):
        term = ParamPolynomial.const(Fraction(rng.randint(-3, 3)))
        for _ in range(rng.randint(0, max_deg)):
            term = term * coord(spec, *gens[rng.randrange(len(gens))])
        out = out + term
    return out


def test_classical_casimir_invariance():
    c2 = power_trace(GL3, 2)
    for pair in GL3.canonical_generators:
        assert lie_poisson_bracket(GL3, c2, coord(GL3, *pair)).is_zero


def test_quantum_to_classical_homomorphism():
    # top-degree part of the commutator equals the Poisson bracket of symbols
    rng = random.Random(31)
    for _ in range(50):
        p = _random_nc(GL2, rng)
        q = _random_nc(GL2, rng)
        if p.is_zero or q.is_zero:
            continue
        grade = degree(p) + degree(q) - 1
        lhs = graded_symbol(commutator(p, q), grade) if grade >= 0 else None
        rhs = lie_poisson_bracket(GL2, top_symbol(p), top_symbol(q))
        if lhs is None:
            assert rhs.is_zero
        else:
            assert lhs == rhs


def _random_nc(spec, rng, max_deg=3, max_terms=3):
    gens = spec.canonical_generators
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_deg)
        word = tuple(sorted(rng.randrange(len(gens)) for _ in range(deg)))
        terms[word] = Fraction(rng.randint(-4, 4))
    return NCPolynomial(spec, terms)


def test_shift_expand_gl2_example():
    A = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    S = shift_expand(GL2, 2, A)
    assert S[0] == coord(GL2, 1, 1) * 2 + coord(GL2, 2, 2) * 4
    assert S[1] == ParamPolynomial.const(5)


def test_shift_expand_top_component_is_trace_of_shift_power():
    A = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(3)]]
    for M in (1, 2, 3):
        S = shift_expand(GL2, M, A)
        # k = M component is the constant tr(A^M)
        P = linalg.identity(2)
        for _ in range(M):
            P = linalg.mat_mul(P, A)
        assert S[-1] == ParamPolynomial.const(linalg.trace(P))


def test_shift_expand_reconstructs_shifted_trace():
    # sum_k S_A^{k,M} t^k + tr X^M == tr((X + tA)^M) at random (X, t), exactly
    rng = random.Random(8)
    A = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
    for M in (1, 2, 3):
        S = shift_expand(GL3, M, A)
        base = power_trace(GL3, M)
        for _ in range(10):
            pt = PointOnDual.random(GL3, rng)
            lam = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            X0 = pt.coordinate_realization()
            shifted = [
                [X0[r][c] + lam * A[r][c] for c in range(3)] for r in range(3)
            ]
            P = linalg.identity(3)
            for _ in range(M):
                P = linalg.mat_mul(P, shifted)
            want = linalg.trace(P)
            got = evaluate(base, pt) + sum(
                evaluate(S[k], pt) * lam ** (k + 1) for k in range(M)
            )
            assert got == want


def test_shift_family_poisson_commutes():
    A = [[Fraction(0)] * 3 for _ in range(3)]
    A[0][0], A[1][1] = Fraction(1), Fraction(2)
    fam = []
    for M in (1, 2, 3):
        fam.extend(shift_expand(GL3, M, A))
    for f, g in itertools.combinations(fam, 2):
        assert lie_poisson_bracket(GL3, f, g).is_zero


def test_graded_consistency_with_quantum_side():
    # classical images of the quantum shifted generators Poisson-commute
    for spec, desig in ((GL3, "diag:1,2,0"), (SO4, None)):
        A = shift_from_designator(spec, desig) if desig else canonical_shift(spec, -1)
        rows = A.numeric_rows()
        fam = [shift_pair_trace(spec, rows, M) for M in (1, 2, 3)]
        for f, g in itertools.combinations(fam, 2):
            assert lie_poisson_bracket(spec, f, g).is_zero
        for M in (1, 2, 3):
            q = el.shift_generator(spec, A, M)
            # the degree-M symbol is the classical trace; for so/sp the even
            # powers vanish classically while the quantum element survives as
            # a lower-degree correction
            assert graded_symbol(q, M) == shift_pair_trace(spec, rows, M)


def test_charpoly_invariant_degrees():
    A2 = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    assert total_degree(charpoly_shift_invariants(GL2, 2, 1, A2)) == 1
    A3 = [[Fraction(0)] * 3 for _ in range(3)]
    A3[0][0], A3[1][1] = Fraction(1), Fraction(2)
    assert total_degree(charpoly_shift_invariants(GL3, 3, 1, A3)) == 2
    with pytest.raises(ValueError):
        charpoly_shift_invariants(GL3, 3, 3, A3)


def test_rank2_points():
    # the point's one matrix has rank 2, and at its coordinates every Lemma-2
    # invariant (M - k >= 3) of the canonical sign -1 shift vanishes
    for name in ("gl:3", "gl:4", "so:4", "so:5", "sp:1", "sp:2", "sp:3"):
        spec = parse_algebra(name)
        A = canonical_shift(spec, -1).numeric_rows()
        m = spec.matrix_size
        invariants = [charpoly_shift_invariants(spec, M, k, A)
                      for M in range(1, m + 1) for k in range(1, M) if M - k >= 3]
        for s in range(3):
            pt = random_rank2_point(spec, seed=f"{name}.{s}")
            assert linalg.rank(pt.coordinate_realization()) == 2, (name, s)
            assert all(evaluate(p, pt) == 0 for p in invariants), (name, s)
    # all 3x3 minors of a rank-2 matrix vanish (gl(3): the full determinant)
    pt = random_rank2_point(GL3, seed=1)
    X0 = pt.coordinate_realization()
    cs = linalg.charpoly(X0)
    assert cs[3] == 0
    # and exhaustively for a 4x4 rank-2 point
    X0 = random_rank2_point(GL4, seed=2).coordinate_realization()
    for rows in itertools.combinations(range(4), 3):
        for cols in itertools.combinations(range(4), 3):
            sub = [[X0[r][c] for c in cols] for r in rows]
            assert linalg.charpoly(sub)[3] == 0, (rows, cols)


def test_rank2_vanishing_gl4():
    A = [[Fraction(0)] * 4 for _ in range(4)]
    A[0][0], A[1][1] = Fraction(1), Fraction(2)
    p = charpoly_shift_invariants(GL4, 4, 1, A)
    for s in range(5):
        assert evaluate(p, random_rank2_point(GL4, seed=100 + s)) == 0
    # not identically zero: a generic full-rank point gives a nonzero value
    assert evaluate(p, PointOnDual.random(GL4, random.Random(5))) != 0


def test_rank2_vanishing_so5_and_antisymmetric_crosscheck():
    A = canonical_shift(SO5, -1).numeric_rows()
    for M, k in ((4, 1), (5, 1), (5, 2)):
        p = charpoly_shift_invariants(SO5, M, k, A)
        for s in range(5):
            assert evaluate(p, random_rank2_point(SO5, seed=f"{M}.{k}.{s}")) == 0
    # plain antisymmetric realization, numerically
    for s in range(3):
        X0 = antisymmetric_rank2_matrix(5, seed=s)
        A0 = antisymmetric_rank2_matrix(5, seed=1000 + s)
        values = shifted_charpoly_values(X0, A0, [(4, 1), (5, 1), (5, 2)])
        for M, k in ((4, 1), (5, 1), (5, 2)):
            assert values[(M, k)] == 0


def test_gradient_examples():
    pt = PointOnDual.random(GL2, random.Random(1))
    g = gradient(coord(GL2, 1, 2), pt)
    assert g == (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    assert gradient(ParamPolynomial.const(9), pt) == (0, 0, 0, 0)
    A = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    S = shift_expand(GL2, 2, A)
    assert gradient(S[0], pt) == (Fraction(2), Fraction(0), Fraction(0), Fraction(4))


def test_top_symbol_rejects_parametric_coefficients():
    from envshift.params import ParamPolynomial

    p = NCPolynomial(GL2, {(0,): ParamPolynomial.variable("a1")})
    with pytest.raises(AlgebraError):
        top_symbol(p)


def test_coordinate_matrix_respects_pair_relation():
    X = coordinate_matrix(SO4)
    for i in SO4.index_set:
        for j in SO4.index_set:
            lhs = X[SO4.position(i)][SO4.position(j)]
            rhs = X[SO4.position(-j)][SO4.position(-i)]
            assert lhs == rhs * (-SO4.eps(i) * SO4.eps(j))
