"""Exact rational linear algebra: rank, null spaces, characteristic polynomials.

Ranks are computed with fraction-free (Bareiss) elimination on integer-cleared
rows; null spaces and reduced echelon forms use plain rational elimination with
deterministic pivoting so bases come out canonical.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for r in range(n):
        ar = a[r]
        for t in range(k):
            c = ar[t]
            if c:
                bt = b[t]
                orow = out[r]
                for s in range(m):
                    orow[s] += c * bt[s]
    return out

def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

def mat_scale(a, c):
    return [[c * x for x in row] for row in a]

def identity(n):
    return [[int(r == s) for s in range(n)] for r in range(n)]

def mat_commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))

def trace(a):
    return sum(a[r][r] for r in range(len(a)))


def _clear_denominators(row):
    """An int or Fraction row scaled to integers by its common denominator."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def rank(rows) -> int:
    """Exact matrix rank via fraction-free Bareiss elimination."""
    m = [_clear_denominators(r) for r in rows if any(r)]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for rr in range(r, nrows):
            if m[rr][c] != 0:
                piv = rr
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for rr in range(r + 1, nrows):
            for cc in range(c + 1, ncols):
                m[rr][cc] = (m[r][c] * m[rr][cc] - m[rr][c] * m[r][cc]) // prev
            m[rr][c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def rref(rows):
    """(reduced row echelon form, pivot columns) over exact rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for rr in range(r, nrows):
            if m[rr][c] != 0:
                piv = rr
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for rr in range(nrows):
            if rr != r and m[rr][c] != 0:
                f = m[rr][c]
                m[rr] = [x - f * y for x, y in zip(m[rr], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(rows, ncols=None):
    """Canonical basis of {v : rows @ v = 0}; one vector per free column."""
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty system")
        return [[Fraction(int(k == t)) for k in range(ncols)] for t in range(ncols)]
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def charpoly(matrix):
    """Coefficients [c_0..c_n] of det(tI - B) = sum c_k t^(n-k), c_0 = 1.

    Faddeev-LeVerrier recursion; works over any commutative coefficient ring
    whose elements support +, -, * and exact division by a positive integer.
    """
    n = len(matrix)
    cs = [1]
    aux = None  # running matrix A*(M_{k-1} + c_{k-1} I)
    for k in range(1, n + 1):
        if aux is None:
            aux = [row[:] for row in matrix]
        else:
            for r in range(n):
                aux[r][r] = aux[r][r] + cs[-1]
            aux = mat_mul(matrix, aux)
        c = -trace(aux)
        # integer input keeps integer coefficients: k divides tr(aux) exactly
        cs.append(c // k if type(c) is int else c / k)
    return cs


def is_semisimple(matrix) -> bool:
    """Diagonalizable over C: deg of the minimal polynomial = number of distinct eigenvalues.

    deg mu_B is the rank of the flattened powers B^0 .. B^(n-1).  With p the
    characteristic polynomial, the number of distinct eigenvalues is
    n - deg gcd(p, p') = rank Sylvester(p, p') - n + 1.
    """
    n = len(matrix)
    powers = [identity(n)]
    for _ in range(n - 1):
        powers.append(mat_mul(powers[-1], matrix))
    p = charpoly(matrix)  # high -> low
    dp = [(n - d) * c for d, c in enumerate(p[:n])]
    sylvester = [[0] * s + p + [0] * (n - 2 - s) for s in range(n - 1)]
    sylvester += [[0] * s + dp + [0] * (n - 1 - s) for s in range(n)]
    return rank([[x for row in B for x in row] for B in powers]) == rank(sylvester) - n + 1
