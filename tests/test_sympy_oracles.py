"""Cross-checks against sympy, which shares no arithmetic with envshift.

sympy is a test-only dependency (the ``test`` extra); without it these skip.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from envshift import linalg  # noqa: E402
from envshift.algebra import parse_algebra  # noqa: E402
from envshift.chains import chain_generators, default_chain  # noqa: E402
from envshift.classical import (  # noqa: E402
    PointOnDual,
    coordinate_gradient,
    coordinate_matrix,
    shift_expand,
    shift_expand_gradients,
    shift_powers,
    shifted_charpoly_values,
)
from envshift.params import ParamPolynomial  # noqa: E402

s, t = sympy.symbols("s t")


def _number(c):
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def _expr(p, xs):
    """A number or a polynomial over generator ids as a sympy expression."""
    if not isinstance(p, ParamPolynomial):
        return _number(p)
    return sympy.Add(*(
        _number(c) * sympy.Mul(*(xs[g] ** e for g, e in mono)) for mono, c in p.terms.items()
    ))


def _matrix(rows, xs=None):
    return sympy.Matrix([[_expr(x, xs) for x in row] for row in rows])


def _point_and_shift(spec, rng):
    X = PointOnDual.random(spec, rng).coordinate_realization()
    A = PointOnDual.random(spec, rng, lo=-3, hi=3).coordinate_realization()
    return X, A


@pytest.mark.parametrize("name", ("gl:3", "gl:4", "so:5", "sp:2"))
def test_shifted_charpoly_values_match_sympy(name):
    spec = parse_algebra(name)
    m = spec.matrix_size
    rng = random.Random("sympy-charpoly" + name)
    pairs = [(M, k) for M in range(2, m + 1) for k in range(1, M)]
    for _ in range(2):
        X, A = _point_and_shift(spec, rng)
        det = (s * sympy.eye(m) - _matrix(X) - t * _matrix(A)).det(method="berkowitz")
        poly = sympy.Poly(sympy.expand(det), s, t)
        got = shifted_charpoly_values(X, A, pairs)
        for M, k in pairs:
            assert _number(got[(M, k)]) == poly.coeff_monomial(s ** (m - M) * t ** k), (M, k)


@pytest.mark.parametrize("name", ("gl:3", "gl:4", "so:5", "sp:2"))
def test_shift_expand_matches_sympy(name):
    spec = parse_algebra(name)
    m = spec.matrix_size
    xs = sympy.symbols(f"x0:{spec.dim}")
    _, A = _point_and_shift(spec, random.Random("sympy-expand" + name))

    def poly(e):
        return sympy.Poly(e, *xs, t, domain="QQ")

    shifted = (_matrix(coordinate_matrix(spec), xs) + t * _matrix(A)).applyfunc(sympy.expand)
    shifted = [[poly(shifted[r, c]) for c in range(m)] for r in range(m)]
    power = [[poly(int(r == c)) for c in range(m)] for r in range(m)]
    for M in range(1, m + 1):
        power = [[sum((power[r][q] * shifted[q][c] for q in range(m)), poly(0))
                  for c in range(m)] for r in range(m)]
        trace = sum((power[r][r] for r in range(m)), poly(0)).as_dict()
        for k, component in enumerate(shift_expand(spec, M, A), 1):
            want = {e[:-1]: c for e, c in trace.items() if e[-1] == k}
            got = sympy.Poly(_expr(component, xs), *xs, domain="QQ").as_dict()
            assert got == want, (M, k)


def _poly_matmul(a, b, zero):
    return [[sum((a[r][q] * b[q][c] for q in range(len(b))), zero)
             for c in range(len(b[0]))] for r in range(len(a))]


def _trace_against(B, P, zero):
    """tr(B P) for a numeric B and a matrix P of Polys."""
    return sum((_number(B[r][q]) * P[q][r] for r in range(len(B)) for q in range(len(B))
                if B[r][q]), zero)


@pytest.mark.parametrize("name", ("gl:3", "gl:4", "so:5", "sp:2"))
def test_closed_form_gradients_match_sympy(name):
    spec = parse_algebra(name)
    m = spec.matrix_size
    xs = sympy.symbols(f"x0:{spec.dim}")
    rng = random.Random("sympy-gradient" + name)
    point = PointOnDual.random(spec, rng)
    X = point.coordinate_realization()
    A = PointOnDual.random(spec, rng, lo=-3, hi=3).coordinate_realization()
    at = {x: _number(v) for x, v in zip(xs, point.values)}

    def differentiated(f):
        return tuple(f.diff(x).eval(at) for x in xs)

    def closed(G):
        return tuple(_number(c) for c in coordinate_gradient(spec, G))

    def poly(e, *gens):
        return sympy.Poly(e, *xs, *gens, domain="QQ")

    zero = poly(0)
    coords = _matrix(coordinate_matrix(spec), xs)
    shifted = (coords + t * _matrix(A)).applyfunc(sympy.expand)
    shifted = [[poly(shifted[r, c], t) for c in range(m)] for r in range(m)]
    power = [[poly(int(r == c), t) for c in range(m)] for r in range(m)]
    table = shift_powers(X, A, m - 1, 1)
    pairs = [(M, k) for M in range(1, m + 1) for k in range(M)]
    gradients = dict(zip(pairs, shift_expand_gradients(X, A, pairs)))
    for M in range(1, m + 1):
        if M > 1:
            # tr(A X^(M-1)) from the t^0 part of (X + tA)^(M-1)
            pair = _trace_against(A, [[e.eval(t, 0) for e in row] for row in power], zero)
            assert closed(table[M - 1][1]) == differentiated(pair), M - 1
        power = _poly_matmul(power, shifted, poly(0, t))
        trace = sum((power[r][r] for r in range(m)), poly(0, t)).as_dict()
        for k in range(M):
            part = {tuple(e): c for (*e, d), c in trace.items() if d == k}
            f = sympy.Poly.from_dict(part, *xs, domain="QQ")
            assert closed(gradients[(M, k)]) == differentiated(f), (M, k)

    # every default-chain member: tr(B X_blk^N) on its level block
    for g in chain_generators(default_chain(spec)).generators:
        pos = [spec.position(i) for i in g.indices]
        block = [[poly(coords[r, c]) for c in pos] for r in pos]
        P = block
        for _ in range(g.N - 1):
            P = _poly_matmul(P, block, zero)
        f = _trace_against(g.B, P, zero)
        assert closed(g.matrix_gradient(X)) == differentiated(f), g.label


def _random_conjugated_jordan(rng, n):
    """P J P^-1: J has Jordan blocks with rational eigenvalues and rotation
    blocks (eigenvalues a +- bi, coupled into a 2-block when repeated), P is unimodular."""
    J = [[0] * n for _ in range(n)]
    r = 0
    while r < n:
        if n - r >= 2 and rng.random() < 0.3:
            a, b = rng.randint(-1, 1), rng.randint(1, 2)
            reps = rng.randint(1, (n - r) // 2)
            for q in range(r, r + 2 * reps, 2):
                J[q][q], J[q][q + 1], J[q + 1][q], J[q + 1][q + 1] = a, b, -b, a
                if q > r:
                    J[q - 2][q], J[q - 1][q + 1] = 1, 1
            r += 2 * reps
            continue
        lam, size = rng.choice((0, 1, 2, Fraction(-1, 2))), rng.randint(1, n - r)
        for q in range(r, r + size):
            J[q][q] = lam
            if q + 1 < r + size:
                J[q][q + 1] = 1
        r += size
    P = [[int(a == b) for b in range(n)] for a in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        f = rng.randint(-2, 2)
        P[i] = [a + f * b for a, b in zip(P[i], P[j])]
    Pm = _matrix(P)
    B = (Pm * _matrix(J) * Pm.inv()).tolist()
    return [[Fraction(int(x.p), int(x.q)) for x in row] for row in B]


def test_is_semisimple_matches_sympy():
    rng = random.Random("sympy-semisimple")
    mats = [_random_conjugated_jordan(rng, n) for n in (2, 3, 4, 5) for _ in range(8)]
    # small-entry 2x2 matrices: repeated, complex and irrational eigenvalues
    mats += [[[rng.choice((-1, 0, 0, 1)) for _ in range(2)] for _ in range(2)] for _ in range(12)]
    verdicts = [linalg.is_semisimple(B) for B in mats]
    assert verdicts == [_matrix(B).is_diagonalizable() for B in mats]
    assert any(verdicts) and not all(verdicts)
