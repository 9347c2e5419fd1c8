"""Closed forms at a point against the symbolic expansion they replace.

Every comparison is exact equality: the closed-form coordinate gradients
and charpoly values must equal ``gradient``/``evaluate`` of the expanded
polynomials at the same point.
"""

import random
from fractions import Fraction

import pytest

from envshift import linalg
from envshift.algebra import matrix_in_algebra, parse_algebra
from envshift.classical import (
    PointOnDual,
    algebra_projection,
    coordinate_gradient,
    coordinate_matrix,
    derive_rng,
    shift_expand,
    shift_expand_gradients,
    shift_powers,
    shifted_charpoly_values,
)
from envshift.chains import chain_generators, default_chain
from envshift.independence import jacobian_rank, shift_family
from envshift.shifts import canonical_shift, shift_from_designator
from oracles import (charpoly_shift_invariants, evaluate, gradient, power_trace,
                     shift_expand_gradient, shift_pair_gradient, shift_pair_trace, substitute)

ALGEBRAS = ("gl:2", "gl:3", "gl:4", "so:3", "so:4", "so:5", "sp:1", "sp:2")


def _random_rows(m, rng):
    return [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)]


def _points(spec, rng, count=2):
    return [PointOnDual.random(spec, rng) for _ in range(count)]


@pytest.mark.parametrize("name", ALGEBRAS)
def test_trace_gradients_match_symbolic(name):
    spec = parse_algebra(name)
    rng = random.Random(name)
    m = spec.matrix_size
    A = _random_rows(m, rng)
    top = 3 if m >= 4 else 4
    for point in _points(spec, rng):
        X = point.coordinate_realization()
        for M in range(1, top + 1):
            assert coordinate_gradient(spec, shift_expand_gradients(X, A, [(M, 0)])[0]) == gradient(
                power_trace(spec, M), point
            ), (name, M)
            # tr(A X^M) has the gradient [t^1](X + tA)^M
            assert coordinate_gradient(spec, shift_powers(X, A, M, 1)[M][1]) == gradient(
                shift_pair_trace(spec, A, M), point
            ), (name, M)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_shift_expand_gradients_match_symbolic(name):
    spec = parse_algebra(name)
    rng = random.Random("expand" + name)
    m = spec.matrix_size
    A = _random_rows(m, rng)
    for point in _points(spec, rng):
        X = point.coordinate_realization()
        pairs = [(M, k) for M in range(1, 4) for k in range(M)]
        comps = {M: [power_trace(spec, M)] + shift_expand(spec, M, A) for M in range(1, 4)}
        for (M, k), G in zip(pairs, shift_expand_gradients(X, A, pairs)):
            assert coordinate_gradient(spec, G) == gradient(comps[M][k], point), (name, M, k)
    with pytest.raises(ValueError):
        shift_expand_gradients(X, A, [(2, 2)])  # the constant tr(A^2) is no member


def test_point_realization_is_the_coordinate_matrix_at_the_point():
    # the one matrix of a point is where the coordinate functions live
    for name in ALGEBRAS:
        spec = parse_algebra(name)
        point = PointOnDual.random(spec, random.Random(name))
        X = coordinate_matrix(spec)
        vals = dict(enumerate(point.values))
        assert point.coordinate_realization() == [
            [substitute(x, vals) for x in row] for row in X
        ]


@pytest.mark.parametrize("name", ("gl:3", "gl:4", "so:3", "so:4", "so:5", "sp:1", "sp:2"))
def test_charpoly_values_match_symbolic(name):
    spec = parse_algebra(name)
    m = spec.matrix_size
    rng = random.Random("charpoly" + name)
    A = _random_rows(m, rng)
    if m >= 5:  # the lemma2 pairs only; the full symbolic table is slow here
        pairs = [(M, k) for M in range(1, m + 1) for k in range(1, M) if M - k >= 3]
    else:
        pairs = [(M, k) for M in range(2, m + 1) for k in range(1, M)]
    polys = {(M, k): charpoly_shift_invariants(spec, M, k, A) for M, k in pairs}
    for point in _points(spec, rng):
        got = shifted_charpoly_values(point.coordinate_realization(), A, pairs)
        assert got == {mk: evaluate(p, point) for mk, p in polys.items()}, name


def test_charpoly_values_validate_pairs():
    X = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    with pytest.raises(ValueError):
        shifted_charpoly_values(X, X, [(2, 2)])
    with pytest.raises(ValueError):
        shifted_charpoly_values(X, X, [(3, 1)])


@pytest.mark.parametrize("name", ("gl:1", "gl:2", "gl:3", "so:3", "so:4", "so:5", "sp:1", "sp:2"))
def test_zero_member_rule_matches_symbolic(name):
    spec = parse_algebra(name)
    m = spec.matrix_size
    rng = random.Random("zero" + name)
    units = []
    for r in range(m):
        for c in range(m):
            E = [[Fraction(0)] * m for _ in range(m)]
            E[r][c] = Fraction(1)
            units.append(E)
    candidates = units + [_random_rows(m, rng) for _ in range(2)]
    if not spec.is_gl:
        # a nonzero matrix with no component in g
        candidates.append(canonical_shift(spec, 1).numeric_rows())
    shifts = range(1, 2 * spec.n + 1) if spec.is_gl else range(1, 2 * spec.n + 2, 2)
    shifts = [N for N in shifts if N <= 3 or m <= 3]
    for A in candidates:
        rule = not any(x for row in algebra_projection(spec, A) for x in row)
        for N in shifts:
            assert rule == shift_pair_trace(spec, A, N).is_zero, (name, A, N)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_algebra_projection_is_the_trace_form_gradient(name):
    spec = parse_algebra(name)
    rng = random.Random("proj" + name)
    G = _random_rows(spec.matrix_size, rng)
    Y = algebra_projection(spec, G)
    assert matrix_in_algebra(spec, Y)
    # same pairing with every coordinate direction P_g
    assert coordinate_gradient(spec, Y) == coordinate_gradient(spec, G)


@pytest.mark.parametrize("name, desig", [
    ("gl:2", "diag:1,2"), ("gl:3", "diag:1,2,0"), ("gl:3", "diag:1,2,3"),
    ("so:4", None), ("so:5", None), ("sp:2", None),
])
def test_shift_family_rows_match_symbolic_family(name, desig):
    spec = parse_algebra(name)
    A = (shift_from_designator(spec, desig) if desig else canonical_shift(spec, -1)).numeric_rows()
    fs, labels = shift_family(spec, A)
    symbolic = []
    for M in range(1, spec.matrix_size + 1):
        symbolic += [power_trace(spec, M)] + shift_expand(spec, M, A)[: M - 1]
    assert len(symbolic) == len(labels)
    for point in _points(spec, random.Random("family" + name)):
        X = point.coordinate_realization()
        assert [coordinate_gradient(spec, G) for G in fs(X)] == [
            gradient(f, point) for f in symbolic
        ]
    closed = jacobian_rank(fs, spec, trials=3, seed=11, labels=labels)
    points = [PointOnDual.random(spec, derive_rng(11, t)) for t in range(3)]
    assert closed.ranks == tuple(
        linalg.rank([gradient(f, point) for f in symbolic]) for point in points
    )


ONE_PASS_ALGEBRAS = ("gl:2", "gl:3", "gl:4", "gl:5", "gl:6", "so:4", "so:5", "so:6", "so:7",
                     "so:8", "sp:1", "sp:2", "sp:3")


@pytest.mark.parametrize("name", ONE_PASS_ALGEBRAS)
def test_shift_family_matches_per_member_oracle(name):
    # one shift_powers table per point against one power loop per member
    spec = parse_algebra(name)
    m = spec.matrix_size
    rng = random.Random("one-pass" + name)
    A = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
    gradients, labels = shift_family(spec, A)
    pairs = [(M, k) for M in range(1, m + 1) for k in range(M)]
    assert len(labels) == len(pairs)
    for point in _points(spec, rng):
        X = point.coordinate_realization()
        assert gradients(X) == [shift_expand_gradient(X, A, M, k) for M, k in pairs], name


@pytest.mark.parametrize("name", ONE_PASS_ALGEBRAS)
def test_chain_member_gradients_match_per_member_oracle(name):
    # tr(B X_I^N) on the level block I, embedded in the full matrix
    spec = parse_algebra(name)
    m = spec.matrix_size
    for point in _points(spec, random.Random("member" + name)):
        X = point.coordinate_realization()
        for g in chain_generators(default_chain(spec)).generators:
            pos = [spec.position(i) for i in g.indices]
            block = shift_pair_gradient([[X[r][c] for c in pos] for r in pos], g.B, g.N)
            want = [[0] * m for _ in range(m)]
            for a, r in enumerate(pos):
                for b, c in enumerate(pos):
                    want[r][c] = block[a][b]
            assert g.matrix_gradient(X) == want, (name, g.label)
