import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envshift import linalg
from envshift.classical import shifted_charpoly_values


def _brute_det(m):
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sgn = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sgn = -sgn
        v = Fraction(1)
        for r in range(n):
            v *= m[r][perm[r]]
        total += sgn * v
    return total


def test_rank_known_cases():
    assert linalg.rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert linalg.rank([[Fraction(0), Fraction(0)]]) == 0
    assert linalg.rank([]) == 0
    assert linalg.rank([[Fraction(1, 3), Fraction(0)], [Fraction(5), Fraction(7, 2)]]) == 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=1, max_size=4))
def test_rank_matches_rref_pivot_count(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    _, pivots = linalg.rref(rows)
    assert linalg.rank(rows) == len(pivots)


def test_nullspace_orthogonality_and_dimension():
    rows = [[Fraction(x) for x in r] for r in [[1, 2, 3], [2, 4, 6], [0, 1, 1]]]
    ns = linalg.nullspace(rows)
    assert len(ns) == 3 - linalg.rank(rows)
    for v in ns:
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0


def test_charpoly_matches_brute_determinant():
    rng = random.Random(9)
    for n in (2, 3, 4):
        for _ in range(5):
            m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            cs = linalg.charpoly(m)
            assert cs[0] == 1
            assert cs[1] == -linalg.trace(m)
            # det(tI - m) evaluated at t=0 is cs[n] = (-1)^n det(m)
            assert cs[n] == (-1) ** n * _brute_det(m)


def _all_ints(values):
    return all(type(x) is int for x in values)


def test_integer_input_gives_integer_output():
    a = [[1, 2], [3, 4]]
    prod = linalg.mat_mul(a, linalg.identity(2))
    assert prod == a and _all_ints(x for row in prod for x in row)
    assert _all_ints(x for row in linalg.identity(3) for x in row)
    assert type(linalg.trace(a)) is int and type(linalg.trace([])) is int
    rng = random.Random(12)
    for n in (1, 2, 3, 4, 5):
        for _ in range(5):
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            cs = linalg.charpoly(m)
            assert _all_ints(cs)
            assert cs == linalg.charpoly([[Fraction(x) for x in row] for row in m])
            assert cs[n] == (-1) ** n * _brute_det(m)
    # rational input stays rational, exactly
    assert linalg.charpoly([[Fraction(1, 2), 1], [0, Fraction(1, 3)]]) == [
        1, Fraction(-5, 6), Fraction(1, 6)
    ]
    assert linalg._clear_denominators([3, Fraction(1, 2), Fraction(-2, 3), 0]) == [18, 3, -4, 0]


def test_semisimple_detection():
    I2 = linalg.identity(2)
    assert linalg.is_semisimple(I2)
    nilp = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    assert not linalg.is_semisimple(nilp)
    rot = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    assert linalg.is_semisimple(rot)  # diagonalizable over C
    jordan = [[Fraction(1), Fraction(1), Fraction(0)],
              [Fraction(0), Fraction(1), Fraction(0)],
              [Fraction(0), Fraction(0), Fraction(2)]]
    assert not linalg.is_semisimple(jordan)


def _conjugate(J, P):
    """P J P^-1 for an integer P with unit determinant; P^-1 by the adjugate."""
    n = len(J)
    det = _brute_det(P)
    assert det in (1, -1)

    def minor(r, c):
        return _brute_det([row[:c] + row[c + 1:] for k, row in enumerate(P) if k != r])

    inv = [[det * (-1) ** (r + c) * minor(c, r) for c in range(n)] for r in range(n)]
    return linalg.mat_mul(linalg.mat_mul(P, J), inv)


def _jordan(*blocks):
    """Block-diagonal matrix; a block is (eigenvalue, size) or a square row list."""
    rows = []
    for blk in blocks:
        if isinstance(blk, tuple):
            lam, size = blk
            blk = [[lam if r == c else int(c == r + 1) for c in range(size)] for r in range(size)]
        rows.append(blk)
    n = sum(len(b) for b in rows)
    out, o = [[0] * n for _ in range(n)], 0
    for blk in rows:
        for r, row in enumerate(blk):
            out[o + r][o : o + len(row)] = row
        o += len(blk)
    return out


ROT = [[0, 1], [-1, 0]]  # eigenvalues +i, -i

# (Jordan form, diagonalizable over C); each is also checked conjugated
SEMISIMPLE_TABLE = [
    (_jordan((7, 1)), True),
    (_jordan((Fraction(1, 2), 1)), True),
    (_jordan((3, 1), (3, 1), (3, 1)), True),  # scalar
    (_jordan((0, 2)), False),  # nilpotent
    (_jordan((0, 3)), False),
    (_jordan((0, 1), (0, 1)), True),  # zero matrix
    (_jordan((2, 1), (2, 1), (-1, 1)), True),  # repeated eigenvalue
    (_jordan((1, 1), (1, 1), (0, 1), (0, 1)), True),
    (_jordan(ROT), True),
    (_jordan(ROT, ROT), True),
    # the rotation in a 2-block: eigenvalues +-i, each of multiplicity 2
    (_jordan([[0, 1, 1, 0], [-1, 0, 0, 1], [0, 0, 0, 1], [0, 0, -1, 0]]), False),
    (_jordan(ROT, (5, 1)), True),
    (_jordan((1, 2), (2, 1)), False),
    (_jordan((2, 1), (2, 2), (Fraction(-1, 3), 1), (4, 1)), False),  # 5x5, one 2-block
    (_jordan((2, 1), (2, 1), (Fraction(-1, 3), 1), (4, 1), (4, 1)), True),
    (_jordan((1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1)), True),
    (_jordan((0, 3), (0, 3)), False),
]


@pytest.mark.parametrize("J, expected", SEMISIMPLE_TABLE)
def test_semisimplicity_of_conjugated_jordan_forms(J, expected):
    n = len(J)
    assert linalg.is_semisimple(J) is expected
    rng = random.Random(n)
    for _ in range(3):
        P = [[int(r == c) for c in range(n)] for r in range(n)]
        for _ in range(2 * n):  # row operations keep det P = 1
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if i != j:
                f = rng.randint(-2, 2)
                P[i] = [a + f * b for a, b in zip(P[i], P[j])]
        assert linalg.is_semisimple(_conjugate(J, P)) is expected


def test_shifted_charpoly_values_match_brute_force_minors():
    # [t^k] c_M(X + t A) = (-1)^M sum over principal M-subsets S and k-subsets
    # T of S of det(X_S with the columns in T taken from A_S)
    rng = random.Random(17)
    for m in (2, 3, 4):
        for _ in range(4):
            X, A = ([[Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3))) for _ in range(m)]
                     for _ in range(m)] for _ in range(2))
            pairs = [(M, k) for M in range(2, m + 1) for k in range(1, M)]
            got = shifted_charpoly_values(X, A, pairs)
            for M, k in pairs:
                total = Fraction(0)
                for S in itertools.combinations(range(m), M):
                    for T in itertools.combinations(S, k):
                        total += _brute_det([[(A if c in T else X)[r][c] for c in S] for r in S])
                assert got[(M, k)] == (-1) ** M * total, (m, M, k)
