"""The graded shadow: commutative polynomials on the dual space g*.

A classical image is a ``ParamPolynomial`` whose variables are the canonical
generator ids of the quantum side, one coordinate function each.  This module
provides argument-shift expansions of trace invariants, characteristic-
polynomial shift invariants, closed-form gradients at a rational point and
rank-2 point sampling, on ``algebra``, ``params`` and ``linalg`` alone.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from .algebra import AlgebraError, AlgebraSpec, involution
from .params import ParamPolynomial, _accumulate


def coordinate(spec: AlgebraSpec, i: int, j: int) -> ParamPolynomial:
    """The coordinate function of X[i,j]; zero for the so-type zero generator."""
    sign, pair = spec.canonicalize_pair(i, j)
    if pair is None:
        return ParamPolynomial()
    return ParamPolynomial({((spec.generator_ids[pair], 1),): sign})


def format_classical(spec: AlgebraSpec, f: ParamPolynomial) -> str:
    """f in the report text format: highest degree first, factors X[i,j]^e."""
    if not f.terms:
        return "0"
    gens = spec.canonical_generators
    parts = []
    for mono in sorted(f.terms, key=lambda m: (-sum(e for _, e in m), m)):
        c = f.terms[mono]
        facs = []
        for g, e in mono:
            name = "X[%d,%d]" % gens[g]
            facs.append(name if e == 1 else f"{name}^{e}")
        if not facs:
            parts.append(str(c))
        elif c == 1:
            parts.append(".".join(facs))
        else:
            parts.append(f"{c}*" + ".".join(facs))
    return " + ".join(parts)


def derive_rng(*parts) -> random.Random:
    """A deterministic RNG keyed by the string forms of the given parts."""
    return random.Random("|".join(str(p) for p in parts))


# ---------------------------------------------------------------------------
# trace invariants and argument-shift expansions


def coordinate_matrix(spec: AlgebraSpec, indices=None):
    idx = tuple(indices) if indices is not None else spec.index_set
    return [[coordinate(spec, i, j) for j in idx] for i in idx]


def _poly_trace(P) -> ParamPolynomial:
    """The trace of a matrix whose entries are numbers or polynomials."""
    acc: dict = {}
    for r in range(len(P)):
        e = P[r][r]
        _accumulate(acc, e.terms if isinstance(e, ParamPolynomial) else {(): e})
    return ParamPolynomial(acc)


def shift_expand(spec: AlgebraSpec, M: int, rows, indices=None):
    """Coefficients [S_A^{1,M}, ..., S_A^{M,M}] of tr((X + t A)^M) in powers of t.

    The k = 0 coefficient is tr(X^M) itself and is not returned; the k = M
    entry is the constant tr(A^M).
    """
    if M < 1:
        raise ValueError("power must be >= 1")
    graded = shift_powers(coordinate_matrix(spec, indices), rows, M, M)[M]
    return [_poly_trace(graded[k]) for k in range(1, M + 1)]


def shift_powers(X, A, M: int, kmax: int):
    """The table P[j][k] = [t^k](X + t A)^j for 0 <= j <= M and 0 <= k <= min(j, kmax).

    Entries are numbers or polynomials.  Every closed form at a point reads
    one such table: graded traces, shift-expansion and chain-member gradients.
    """
    P = [[linalg.identity(len(X))]]
    for _ in range(M):
        prev = P[-1]
        nxt = [linalg.mat_mul(prev[0], X)]
        for k in range(1, min(len(prev), kmax) + 1):
            term = linalg.mat_mul(prev[k - 1], A)
            if k < len(prev):
                term = linalg.mat_add(linalg.mat_mul(prev[k], X), term)
            nxt.append(term)
        P.append(nxt)
    return P


# ---------------------------------------------------------------------------
# characteristic-polynomial shift invariants (sums of minors)


def shifted_charpoly_values(X_rows, A_rows, pairs) -> dict:
    """{(M, k): [t^k] c_M(X + t A)}, c_M the coefficient of s^(m-M) in det(sI - X - t A).

    Entries may be numbers or polynomials; each value is a linear combination
    of order-(M-k) minors of X against order-k minors of A.  All values come
    from Newton's identities j c_j = -sum_{i=1..j} p_i c_{j-i} on the graded
    traces p_i = tr((X + t A)^i), truncated at the largest k requested.
    """
    m = len(X_rows)
    for M, k in pairs:
        if not (1 <= k < M <= m):
            raise ValueError("need 1 <= k < M <= matrix size")
    kmax = max((k for _, k in pairs), default=0)
    P = shift_powers(X_rows, A_rows, max((M for M, _ in pairs), default=0), kmax)
    traces = [None]  # traces[i][a] = [t^a] p_i
    cs = [[1] + [0] * kmax]  # cs[j][a] = [t^a] c_j
    for j, graded in enumerate(P[1:], 1):
        traces.append([linalg.trace(g) for g in graded])
        c = [0] * (kmax + 1)
        for i in range(1, j + 1):
            for a, pa in enumerate(traces[i]):
                if pa:
                    for b, cb in enumerate(cs[j - i][: kmax + 1 - a]):
                        if cb:
                            c[a + b] -= pa * cb
        cs.append([x * Fraction(1, j) for x in c])
    return {(M, k): cs[M][k] for M, k in pairs}


# ---------------------------------------------------------------------------
# points on the dual space and gradients


class PointOnDual:
    """A rational point of g*, stored as values of the canonical coordinates."""

    def __init__(self, spec: AlgebraSpec, values: tuple):
        self.spec = spec
        self.values = values  # aligned with canonical_generators

    @classmethod
    def random(cls, spec, rng: random.Random, lo=-10, hi=10):
        return cls(spec, tuple(rng.randint(lo, hi) for _ in range(spec.dim)))

    def coordinate_realization(self):
        """X = sum_g x_g P_g (``AlgebraSpec.realize``): the one matrix of this point,
        where the coordinate functions are evaluated."""
        return self.spec.realize(self.values)


# ---------------------------------------------------------------------------
# closed forms at a numeric point
#
# A trace function f has the matrix gradient G at X when df = tr(G dX); its
# coordinate partials are then tr(G P_g).  No polynomial is expanded; the tests
# check these against the symbolic gradients of the expanded traces at a point
# whose coordinate_realization is X.


def coordinate_gradient(spec: AlgebraSpec, G) -> tuple:
    """The coordinate partials (tr(G P_g))_g of a function with matrix gradient G."""
    out = [0] * spec.dim
    for r, c, sign, g in spec.coordinate_pattern:
        out[g] += sign * G[c][r]
    return tuple(out)


def shift_expand_gradients(X, A, pairs) -> list:
    """Matrix gradients M [t^k](X + t A)^(M-1) of [t^k] tr((X + t A)^M), one per (M, k).

    Each pair needs 0 <= k < M; k = 0 is tr(X^M).  All gradients come from one
    shift_powers table at the numeric X: the gradient counterpart of
    shifted_charpoly_values.
    """
    for M, k in pairs:
        if not 0 <= k < M:
            raise ValueError("need 0 <= k < M")
    P = shift_powers(X, A, max((M for M, _ in pairs), default=1) - 1,
                     max((k for _, k in pairs), default=0))
    return [linalg.mat_scale(P[M - 1][k], M) for M, k in pairs]


def algebra_projection(spec: AlgebraSpec, rows):
    """Trace-form orthogonal projection of a matrix onto g: (B + tau(B))/2 for so/sp,
    tau the ``algebra.involution``."""
    if spec.is_gl:
        return rows
    return linalg.mat_scale(linalg.mat_add(rows, involution(spec, rows)), Fraction(1, 2))


# ---------------------------------------------------------------------------
# rank-2 points


RANK2_RETRIES = 64


def random_rank2_point(spec: AlgebraSpec, seed) -> PointOnDual:
    """A random point of g* with matrix rank exactly 2.

    gl: a sum of two random dyads u v^T + w z^T.  so/sp: a single dyad plus
    its involution partner (a two-dyad combination that lands in the algebra);
    projecting a generic two-dyad sum would exceed rank 2.
    """
    rng = derive_rng("rank2", seed)
    m = spec.matrix_size
    for _ in range(RANK2_RETRIES):
        if spec.is_gl:
            u, v, w, z = ([rng.randint(-10, 10) for _ in range(m)] for _ in range(4))
            rows = [[u[r] * v[c] + w[r] * z[c] for c in range(m)] for r in range(m)]
        else:
            u, v = ([rng.randint(-10, 10) for _ in range(m)] for _ in range(2))
            dyad = [[u[r] * v[c] for c in range(m)] for r in range(m)]
            rows = linalg.mat_add(dyad, involution(spec, dyad))
        if linalg.rank(rows) == 2:
            return PointOnDual(spec, spec.coordinates_of(rows))
    raise AlgebraError("rank-2 sampling exhausted its retry budget")

