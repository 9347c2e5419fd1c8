"""Cross-checks against sympy, which shares no arithmetic with envshift.

sympy is a test-only dependency (the ``test`` extra); without it these skip.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from envshift import linalg  # noqa: E402
from envshift.algebra import parse_algebra  # noqa: E402
from envshift.classical import (  # noqa: E402
    PointOnDual,
    coordinate_matrix,
    shift_expand,
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
    A = PointOnDual.random(spec, rng, lo=-3, hi=3).matrix()
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
