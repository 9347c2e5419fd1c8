"""Exact rational linear algebra: rank, null spaces, characteristic polynomials.

Ranks are computed with fraction-free (Bareiss) elimination on integer-cleared
rows; null spaces and reduced echelon forms use plain rational elimination with
deterministic pivoting so bases come out canonical.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
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
    return [[Fraction(int(r == s)) for s in range(n)] for r in range(n)]

def is_zero_matrix(a):
    return all(x == 0 for row in a for x in row)

def mat_commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))

def trace(a):
    return sum((a[r][r] for r in range(len(a))), Fraction(0))


def _clear_denominators(row):
    den = 1
    for x in row:
        f = Fraction(x)
        den = den * f.denominator // gcd(den, f.denominator)
    return [int(Fraction(x) * den) for x in row]


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


def intersection_dim(u_rows, w_rows) -> int:
    """dim(span U  intersect  span W) = rk U + rk W - rk (U stacked on W)."""
    ru, rw = rank(u_rows), rank(w_rows)
    return ru + rw - rank(list(u_rows) + list(w_rows))


def charpoly(matrix):
    """Coefficients [c_0..c_n] of det(tI - B) = sum c_k t^(n-k), c_0 = 1.

    Faddeev-LeVerrier recursion; works over any commutative coefficient ring
    whose elements support +, -, * and exact division by a positive integer.
    """
    n = len(matrix)
    cs = [Fraction(1)]
    aux = None  # running matrix A*(M_{k-1} + c_{k-1} I)
    for k in range(1, n + 1):
        if aux is None:
            aux = [row[:] for row in matrix]
        else:
            for r in range(n):
                aux[r][r] = aux[r][r] + cs[-1]
            aux = mat_mul(matrix, aux)
        c = -trace(aux) / k
        cs.append(c)
    return cs


def poly_gcd(a, b):
    """Monic gcd of two univariate rational polynomials (coefficient lists, low->high)."""
    a = _trim(a)
    b = _trim(b)
    while b:
        a, b = b, _trim(_poly_mod(a, b))
    if not a:
        return []
    lead = a[-1]
    return [x / lead for x in a]


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mod(a, b):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        shift = len(a) - 1 - db
        f = a[-1] / lb
        for k in range(len(b)):
            a[shift + k] -= f * b[k]
        a = _trim(a)
        if not a:
            break
    return a


def poly_derivative(p):
    return [k * p[k] for k in range(1, len(p))]


def squarefree_part(p):
    """p / gcd(p, p') for a univariate rational polynomial."""
    g = poly_gcd(p, poly_derivative(p))
    if len(g) <= 1:
        return _trim(p)
    return _poly_div_exact(_trim(p), g)


def _poly_div_exact(a, b):
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    a = list(a)
    while len(a) >= len(b) and any(a):
        shift = len(a) - len(b)
        f = a[-1] / b[-1]
        out[shift] = f
        for k in range(len(b)):
            a[shift + k] -= f * b[k]
        a = _trim(a)
    return out


def is_semisimple(matrix) -> bool:
    """Diagonalizable over C: the squarefree part of the char poly kills the matrix."""
    n = len(matrix)
    cs = charpoly(matrix)
    # det(tI - B) = sum cs[k] t^(n-k); as a low->high coefficient list:
    p = [cs[n - d] for d in range(n + 1)]
    sf = squarefree_part(p)
    acc = [[Fraction(int(r == s)) * sf[0] for s in range(n)] for r in range(n)]
    power = identity(n)
    for d in range(1, len(sf)):
        power = mat_mul(power, matrix)
        acc = mat_add(acc, mat_scale(power, sf[d]))
    return is_zero_matrix(acc)
