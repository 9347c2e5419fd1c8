"""Distinguished elements of U(g) and the identity checks built from them.

Matrix-power elements are the ordered product sums

    (X^M)[i,j] = sum over i1..i_{M-1} of X[i,i1] X[i1,i2] ... X[i_{M-1},j],

their traces (X^M) are the Casimir elements, and contracting against a
constant shift matrix gives (A X^M) = sum A[j,i] (X^M)[i,j].  The index
summation may be restricted to a subset so chain levels can form the same
elements inside an embedded subalgebra block.

The *_residual functions return left-minus-right of an identity in PBW form;
a zero polynomial certifies the identity at that instance.
"""

from __future__ import annotations

import itertools

from . import linalg
from .algebra import (
    AlgebraError,
    AlgebraSpec,
    bracket_terms,
    coordinate_pair_orbits,
    matrix_in_algebra,
)
from .params import _scalar
from .pbw import _TABLES, NCPolynomial, commutator, linear_combination, multiply
from .shifts import ShiftMatrix

_MPE_CACHE: dict = {}
_FLIP_CACHE: dict = {}


def clear_caches() -> None:
    """Empty the process-wide caches: the pbw rewrite tables, the matrix-power
    elements and the flip coefficients.  Later calls rebuild what they need."""
    _TABLES.clear()
    _MPE_CACHE.clear()
    _FLIP_CACHE.clear()


def _indices(spec: AlgebraSpec, indices):
    if indices is None:
        return spec.index_set
    out = tuple(indices)
    for i in out:
        spec.position(i)
    return out


def matrix_power_element(spec: AlgebraSpec, M: int, i: int, j: int, indices=None) -> NCPolynomial:
    """(X^M)[i,j] over the given summation index subset, in normal form."""
    if M < 0:
        raise ValueError("matrix power must be nonnegative")
    idx = _indices(spec, indices)
    if i not in idx or j not in idx:
        raise AlgebraError(f"indices ({i},{j}) outside the block {idx}")
    key = (spec, idx, M, i, j)
    out = _MPE_CACHE.get(key)
    if out is not None:
        return out
    if M == 0:
        out = NCPolynomial.scalar(spec, 1 if i == j else 0)
    elif M == 1:
        out = NCPolynomial.generator(spec, i, j)
    else:
        left = (matrix_power_element(spec, M - 1, i, u, idx) for u in idx)
        right = (NCPolynomial.generator(spec, u, j) for u in idx)
        out = linear_combination(spec, (
            (multiply(x, g), 1) for x, g in zip(left, right) if x.terms and g.terms))
    _MPE_CACHE[key] = out
    return out


def casimir(spec: AlgebraSpec, M: int, indices=None) -> NCPolynomial:
    """Trace power (X^M) = sum_i (X^M)[i,i]; central in U(g)."""
    if M < 1:
        raise ValueError("casimir degree must be >= 1")
    idx = _indices(spec, indices)
    key = (spec, idx, M, None, None)
    out = _MPE_CACHE.get(key)
    if out is None:
        out = _MPE_CACHE[key] = linear_combination(
            spec, ((matrix_power_element(spec, M, i, i, idx), 1) for i in idx))
    return out


def contract_rows(spec: AlgebraSpec, rows, M: int, indices=None) -> NCPolynomial:
    """(A X^M) = sum A[j,i] (X^M)[i,j] for a raw coefficient matrix over the subset."""
    idx = _indices(spec, indices)
    return linear_combination(spec, (
        (matrix_power_element(spec, M, i, j, idx), rows[jp][ip])
        for jp, j in enumerate(idx) for ip, i in enumerate(idx) if rows[jp][ip]))


def shift_generator(spec: AlgebraSpec, A: ShiftMatrix, M: int) -> NCPolynomial:
    """(A X^M) over A's index subset."""
    if A.spec != spec:
        raise AlgebraError("shift matrix belongs to a different algebra")
    return contract_rows(spec, A.rows, M, A.indices)


class _ShiftPart:
    """One numeric basis matrix B of a shift, with each (B X^K), B*X^a, trace
    chain and bracket built once; ``key`` tells it from the shift's others."""

    __slots__ = ("spec", "rows", "indices", "key", "_elements", "_scaled", "_chains",
                 "_brackets")

    def __init__(self, spec: AlgebraSpec, rows, indices, key=()):
        self.spec, self.rows, self.indices, self.key = spec, rows, indices, key
        self._elements: dict = {}
        self._scaled: dict = {}
        self._chains: dict = {}
        self._brackets: dict = {}

    def element(self, K: int) -> NCPolynomial:
        """(B X^K) over the index subset."""
        out = self._elements.get(K)
        if out is None:
            out = self._elements[K] = contract_rows(self.spec, self.rows, K, self.indices)
        return out

    def bracket(self, K: int, Q: _ShiftPart, L: int) -> NCPolynomial:
        """[(B X^K), (B' X^L)] for Q's matrix B', kept by (Q's key, K, L).

        [x, x] = 0, and [Q_L, P_K] already built gives this one as its negation.
        """
        if self is Q and K == L:
            return NCPolynomial.zero(self.spec)
        key = (Q.key, K, L)
        out = self._brackets.get(key)
        if out is None:
            swapped = Q._brackets.get((self.key, L, K))
            if swapped is not None:
                return -swapped
            out = self._brackets[key] = commutator(self.element(K), Q.element(L))
        return out

    def scaled_power(self, a: int) -> list:
        """B * X^a as a U-valued matrix over the index subset."""
        out = self._scaled.get(a)
        if out is None:
            spec, rows, idx = self.spec, self.rows, self.indices
            pm = [[matrix_power_element(spec, a, i, j, idx) for j in idx] for i in idx]
            out = self._scaled[a] = [
                [linear_combination(spec, ((pm[t][c], coef) for t, coef in enumerate(row) if coef))
                 for c in range(len(idx))]
                for row in rows]
        return out


def polarize(spec: AlgebraSpec, A: ShiftMatrix, form, built=None) -> NCPolynomial:
    """F(A, A) for a form F bilinear in the shift, from numeric forms only.

    With A = sum_c a_c*C_c over one basis of numeric matrices (``_basis``),
    F(A, A) = sum_{c <= c'} a_c*a_c'*S_cc' with S_cc = F(C_c, C_c) and
    S_cc' = F(C_c, C_c') + F(C_c', C_c), where ``form(P, Q)`` evaluates F on
    two basis matrices (``_ShiftPart``).  The forms are built from the
    (C X^K) and central elements, so an index symmetry s with s.C_c =
    e_c*C_pi(c) gives an automorphism phi_s of U(g) that maps S_cc' to a
    nonzero multiple of S_pi(c)pi(c').  Every S therefore vanishes once those
    at the first pair of each orbit (``coordinate_pair_orbits``) do, and
    then F(A, A) = 0.  Otherwise the whole sum is assembled, each S taken
    once, with parametric coefficients only where the a_c carry them.
    ``built`` keeps A's basis, with its elements, across calls with the same A;
    a suite whose forms hold more than one commutator states their count
    there first, as ``built["costs"]`` (``pair_costs``).
    """
    if A.spec != spec:
        raise AlgebraError("shift matrix belongs to a different algebra")
    if built is None:
        built = {}
    if "basis" not in built:
        built["basis"] = _basis(spec, A, built.get("costs", (1, 2)))
    parts, pairs = built["basis"]
    values: dict = {}

    def S(c, d):
        out = values.get((c, d))
        if out is None:
            P, Q = parts[c][0], parts[d][0]
            out = values[c, d] = form(P, P) if c == d else form(P, Q) + form(Q, P)
        return out

    if all(S(c, d).is_zero for c, d in pairs):
        return NCPolynomial.zero(spec)
    return linear_combination(spec, (
        (S(c, d), parts[c][1] * parts[d][1])
        for c, d in itertools.combinations_with_replacement(range(len(parts)), 2)))


def pair_costs(brackets, chains=()) -> tuple:
    """(at P = Q, at P != Q): the commutators and trace chains that a suite's
    forms take at one pair of basis matrices, over all its checks.

    ``brackets`` are the power pairs (K, L) of the brackets [(P X^K), (Q X^L)]
    the forms take and ``chains`` the (a, b) of the trace chains W(a, b).
    ``_ShiftPart`` keeps each, so a pair takes each once: at P = Q a bracket
    once per unordered K != L ([x, x] = 0 and [y, x] = -[x, y]), at P != Q,
    where S = F(P, Q) + F(Q, P), once per ordered pair, and a chain once per
    (a, b) and part of the pair.
    """
    brackets, chains = set(brackets), set(chains)
    same = len({frozenset(kl) for kl in brackets if kl[0] != kl[1]}) + len(chains)
    return same, len(brackets | {(L, K) for K, L in brackets}) + 2 * len(chains)


def _basis(spec: AlgebraSpec, A: ShiftMatrix, costs):
    """([(C_c as a _ShiftPart, a_c)], representative pairs) for ``polarize``.

    The basis is A's parameter-monomial parts (``ShiftMatrix.parts``) or its
    coordinates (``ShiftMatrix.coordinates``), whichever takes fewer
    commutators at the orbit representatives; ties keep the parts.  A pair
    takes ``costs`` = (at c = c', at c != c') commutators (``pair_costs``;
    a theorem form holds one, so (1, 2)).  A commutator at matrices of k and
    k' coordinates counts k*k'/4 commutators at single coordinates, and at
    least one: one merged product covers many pairs for less than their
    separate commutators.
    """
    coords = A.coordinates()
    owner = {ij: c for c, (entries, _) in enumerate(coords) for ij, _ in entries}

    def commutators(option):
        basis, pairs = option
        k = [len({owner[ij] for ij, _ in entries}) for entries, _ in basis]
        return sum(costs[c != d] * max(1, k[c] * k[d] / 4) for c, d in pairs)

    basis, pairs = min(((basis, coordinate_pair_orbits(spec, [e for e, _ in basis]))
                        for basis in (A.parts(), coords)), key=commutators)
    pos = {i: p for p, i in enumerate(A.indices)}
    parts = []
    for c, (entries, a) in enumerate(basis):
        rows = [[0] * A.size for _ in A.indices]
        for (i, j), v in entries:
            rows[pos[i]][pos[j]] = v
        parts.append((_ShiftPart(spec, rows, A.indices, c), a))
    return parts, pairs


def shift_commutator_residual(spec: AlgebraSpec, A: ShiftMatrix, M: int, N: int,
                              built=None) -> NCPolynomial:
    """[(A X^M), (A X^N)], polarized (``polarize``): the form F(P, Q) = [(P X^M), (Q X^N)]."""
    return polarize(spec, A, lambda P, Q: commutator(P.element(M), Q.element(N)), built)


# ---------------------------------------------------------------------------
# stabilizer subalgebra


def stabilizer_basis(spec: AlgebraSpec, A: ShiftMatrix) -> list:
    """Deterministic basis of {B in g : [A, B] = 0} as matrices over the index set.

    Computed as the exact null space of the commutator map restricted to the
    span of the canonical generators, so so/sp constraints hold by construction.
    """
    rows_A = A.numeric_rows()
    m = spec.matrix_size
    if len(rows_A) != m:
        raise AlgebraError("stabilizer computation needs a full-size matrix")
    columns = [linalg.mat_commutator(rows_A, spec.realize(unit))
               for unit in linalg.identity(spec.dim)]
    system = [[col[r][c] for col in columns] for r in range(m) for c in range(m)]
    return [_rule_rows(spec.realize(vec)) for vec in linalg.nullspace(system, ncols=spec.dim)]


def _rule_rows(rows):
    """A numeric matrix under the coefficient rule: ints where integral."""
    return [[_scalar(x) for x in row] for row in rows]


def check_centralizer(spec: AlgebraSpec, A: ShiftMatrix, B, N: int) -> NCPolynomial:
    """Residual of [(BX), (A X^N)] = c*([A,B] X^N) with c = 1 (gl), 2 (so/sp).

    For so/sp the identity requires B inside the matrix algebra, and the
    pairing doubles each canonical generator, hence the factor 2.
    """
    rows_A = A.numeric_rows()
    rows_B = _rule_rows(B)
    if not spec.is_gl and not matrix_in_algebra(spec, rows_B):
        raise AlgebraError("centralizer check requires B in the matrix algebra")
    lhs = commutator(contract_rows(spec, rows_B, 1), contract_rows(spec, rows_A, N))
    bracket = _rule_rows(linalg.mat_commutator(rows_A, rows_B))
    factor = 1 if spec.is_gl else 2
    return lhs - contract_rows(spec, bracket, N) * factor


# ---------------------------------------------------------------------------
# tensoriality of the matrix-power elements


def tensorial_residual(spec: AlgebraSpec, M: int, i: int, j: int, k: int, l: int) -> NCPolynomial:
    """Residual of [X[i,j], (X^M)[k,l]] = d_kj (X^M)[i,l] - d_il (X^M)[k,j] (+ so/sp terms).

    The right side is the bracket [X[i,j], X[k,l]] of ``bracket_terms`` with
    (X^M)[r,s] in place of X[r,s].
    """
    terms = bracket_terms(spec, i, j, k, l)
    lhs = commutator(NCPolynomial.generator(spec, i, j), matrix_power_element(spec, M, k, l))
    return lhs - linear_combination(
        spec, ((matrix_power_element(spec, M, r, s), c) for r, s, c in terms))


# ---------------------------------------------------------------------------
# the so/sp flip expansion: (X^M)[i,j] = sum_p C_p eps_i eps_j (X^p)[-j,-i]
# with central coefficients C_p; the leading one is (-1)^M.


def power_flip_coefficients(spec: AlgebraSpec, M: int) -> list:
    """Central coefficients C_0..C_M of the flip expansion of (X^M)[i,j].

    Derived recursion (sigma = eps(j)eps(-j), m = matrix size):

      C^(0) = [1]
      C^(m+1)[p+1] -= C^(m)[p]
      C^(m+1)[p]   += (size - sigma) * C^(m)[p]
      C^(m+1)[0]   -= C^(m)[p] * (X^p)            ((X^0) is the scalar ``size``)
      C^(m+1)[q]   += sigma * C^(m)[p] * C^(p)[q]  (q <= p)
    """
    if spec.is_gl:
        raise AlgebraError("the flip expansion applies to so/sp only")
    if M < 0:
        raise ValueError("power must be nonnegative")
    key = (spec, M)
    out = _FLIP_CACHE.get(key)
    if out is not None:
        return out
    if M == 0:
        out = [NCPolynomial.one(spec)]
    else:
        prev = power_flip_coefficients(spec, M - 1)
        sigma = spec.pair_sign
        size = spec.matrix_size

        def pairs(q):
            """C^(M)[q] as (element, coefficient) pairs, by the lines of the recursion."""
            if q:
                yield prev[q - 1], -1
            if q < M:
                yield prev[q], size - sigma
            for p, cp in enumerate(prev[q:], start=q):
                if cp.is_zero:
                    continue
                if not q:
                    trace_p = casimir(spec, p) if p else NCPolynomial.scalar(spec, size)
                    yield multiply(cp, trace_p), -1
                cq = power_flip_coefficients(spec, p)[q]
                if not cq.is_zero:
                    yield multiply(cp, cq), sigma

        out = [linear_combination(spec, pairs(q)) for q in range(M + 1)]
    _FLIP_CACHE[key] = out
    return out


def flip_residual(spec: AlgebraSpec, M: int, i: int, j: int) -> NCPolynomial:
    """Residual of the flip expansion of (X^M)[i,j] at one index pair."""
    e = spec.eps(i) * spec.eps(j)
    rhs = linear_combination(spec, (
        (multiply(cp, matrix_power_element(spec, p, -j, -i)), e)
        for p, cp in enumerate(power_flip_coefficients(spec, M)) if not cp.is_zero))
    return matrix_power_element(spec, M, i, j) - rhs


# ---------------------------------------------------------------------------
# bracket-of-powers expansions


def power_bracket_residual(spec: AlgebraSpec, M: int, N: int, i: int, j: int, k: int, l: int,
                           products=None) -> NCPolynomial:
    """Residual of the closed form of [(X^M)[i,j], (X^N)[k,l]].

    gl:     sum_S (X^{M+N-S})[i,l](X^{S-1})[k,j] - (X^{S-1})[i,l](X^{M+N-S})[k,j]
    so/sp:  the same sum plus the flip-coefficient sum weighted by
            sigma = eps(u)eps(-u); the pairing sign enters because the flip of
            the inner power contracts eps(u)eps(-u) over the summation index.

    Every product (X^a)[i,j](X^b)[k,l] is read from ``products``, keyed
    (a, i, j, b, k, l) and computed once; the left side is the bracket by
    its definition, so the (M, N, ijkl) and (N, M, klij) residuals share
    their products.  Pass one dict per algebra to share them across calls.
    """
    if M < 1 or N < 0:
        raise ValueError("need M >= 1 and N >= 0")
    if products is None:
        products = {}

    def prod(*key):
        out = products.get(key)
        if out is None:
            a, r, s, b, t, u = key
            out = products[key] = multiply(
                matrix_power_element(spec, a, r, s), matrix_power_element(spec, b, t, u))
        return out

    def rhs():
        for S in range(1, M + 1):
            yield prod(M + N - S, i, l, S - 1, k, j), 1
            yield prod(S - 1, i, l, M + N - S, k, j), -1
        if spec.is_gl:
            return
        e1 = spec.eps(-l) * spec.eps(k)
        e2 = spec.eps(-k) * spec.eps(l)
        for p, cp in enumerate(power_flip_coefficients(spec, N)):
            if cp.is_zero:
                continue
            part = linear_combination(spec, (pair for S in range(1, M + 1) for pair in (
                (prod(M + p - S, i, -k, S - 1, -l, j), e1),
                (prod(S - 1, i, -k, M + p - S, -l, j), -e2))))
            yield multiply(cp, part), spec.pair_sign

    return prod(M, i, j, N, k, l) - prod(N, k, l, M, i, j) - linear_combination(spec, rhs())


def shift_bracket_recursion_residual(spec: AlgebraSpec, M: int, N: int, A: ShiftMatrix,
                                     built=None) -> NCPolynomial:
    """gl recursion: [(AX^M),(AX^N)] = sum_{S=1..M} sum_{P=1..S-1} [(AX^{P-1}),(AX^{M+N-P-1})].

    Both sides are quadratic in A, so the residual is polarized (``polarize``).
    The term does not depend on S, so it is taken once with weight M - P.
    """
    if not spec.is_gl:
        raise AlgebraError("the contracted recursion in this form is the gl case")
    terms = _recursion_terms(M, N)

    def form(P, Q):
        return linear_combination(spec, ((P.bracket(K, Q, L), w) for K, L, w in terms))

    return polarize(spec, A, form, built)


def _recursion_terms(M: int, N: int) -> list:
    """(K, L, weight) of each bracket [(P X^K), (Q X^L)] of the prop2 form at (M, N)."""
    return [(M, N, 1)] + [(p - 1, M + N - p - 1, p - M) for p in range(1, M)]


def recursion_costs(max_power: int) -> tuple:
    """``pair_costs`` of the prop2 suite's forms up to ``max_power``."""
    return pair_costs((K, L) for M in range(1, max_power + 1) for N in range(1, max_power + 1)
                      for K, L, _ in _recursion_terms(M, N))


# ---------------------------------------------------------------------------
# so/sp contracted recursions (straight and crossed shift contractions)


def trace_chain(P: _ShiftPart, Q: _ShiftPart, a: int, b: int) -> NCPolynomial:
    """W(a,b) = sum P[j,i]Q[l,k] (X^a)[i,l](X^b)[k,j] = tr(P X^a Q X^b) in U-order.

    P and Q are basis matrices of one shift; P keeps W by (Q's key, a, b), so
    it is built once for as long as the basis lives (``polarize``'s ``built``).
    """
    key = (Q.key, a, b)
    out = P._chains.get(key)
    if out is not None:
        return out
    t2 = Q.scaled_power(b)
    out = P._chains[key] = linear_combination(P.spec, (
        (multiply(x, t2[s][r]), 1) for r, row in enumerate(P.scaled_power(a))
        for s, x in enumerate(row) if x.terms and t2[s][r].terms))
    return out


def crossed_contraction(P: _ShiftPart, Q: _ShiftPart, M: int, N: int) -> NCPolynomial:
    """sum P[j,k]Q[l,i] [(X^M)[i,j],(X^N)[k,l]] = W(M,N) - W(N,M)."""
    return trace_chain(P, Q, M, N) - trace_chain(P, Q, N, M)


def contracted_recursion_residuals(spec: AlgebraSpec, A: ShiftMatrix, M: int, N: int, sign: int,
                                   built=None):
    """Residuals of the two so/sp contraction recursions for a shift matrix
    with symmetry sign ``sign``; both must vanish identically.

      L1(M,N) + sum_S L2(S-1, N+M-S)
              + sign * sum_P C_P^(N) sum_S L2(S-1, P+M-S)                  (straight)
      L2(M,N) + sum_S L1(S-1, M+N-S)
              + sigma*sign * sum_{P,S,Q} C_P^(N) C_Q^(S-1) L2(Q, M+P-S)     (crossed)

    L1 is the straight contraction [(AX^a),(AX^b)] and L2 the crossed one;
    both are quadratic in A, so each residual is polarized (``polarize``).

    At a signed shift L2 vanishes, so both recursions read as Theorem 2:
    L2(0,b) = ((PQ - QP).X^b) cancels under polarization, and L2(b,0) =
    -L2(0,b).  The crossed recursion writes L2(M,N) through L1 terms and
    L2(q,.) with q < M; Theorem 2 makes every L1 zero, so L2 == 0 by
    induction on the first argument.  (On gl, contracting prop1 gives
    L2(M,N) = sum_S L1(M+N-S, S-1) directly.)  The residuals still evaluate
    every term: the suite tests the recursions as stated and skips none.
    """
    if spec.is_gl:
        raise AlgebraError("the contraction recursions in this form are so/sp")
    if sign not in A.symmetry_signs():
        raise AlgebraError(f"shift matrix does not satisfy symmetry sign {sign:+d}")
    cN = power_flip_coefficients(spec, N)

    def straight(P, Q):
        def pairs():
            yield P.bracket(M, Q, N), 1
            for S in range(1, M + 1):
                yield crossed_contraction(P, Q, S - 1, N + M - S), 1
            for p, cp in enumerate(cN):
                if not cp.is_zero:
                    part = linear_combination(spec, (
                        (crossed_contraction(P, Q, S - 1, p + M - S), 1) for S in range(1, M + 1)))
                    yield multiply(cp, part), sign
        return linear_combination(spec, pairs())

    def crossed(P, Q):
        def pairs():
            yield crossed_contraction(P, Q, M, N), 1
            for S in range(1, M + 1):
                yield P.bracket(S - 1, Q, M + N - S), 1
            for p, cp in enumerate(cN):
                for S in range(1, M + 1):
                    for q, cq in enumerate(power_flip_coefficients(spec, S - 1)):
                        if cp.terms and cq.terms:
                            term = crossed_contraction(P, Q, q, M + p - S)
                            if term.terms:
                                yield multiply(multiply(cp, cq), term), spec.pair_sign * sign
        return linear_combination(spec, pairs())

    if built is None:
        built = {}
    return polarize(spec, A, straight, built), polarize(spec, A, crossed, built)


def contraction_costs(max_power: int) -> tuple:
    """``pair_costs`` of the prop5 suite's two forms up to ``max_power``, with
    every term whose flip coefficients may be nonzero: the brackets (M, N)
    and (S-1, M+N-S), and the chains of crossed contractions (q, M+p-S),
    q < S <= M, p <= N, and (M, N), each with its transpose."""
    brackets, chains = set(), set()
    for M in range(1, max_power + 1):
        for N in range(1, max_power + 1):
            brackets.add((M, N))
            chains.add((M, N))
            for S in range(1, M + 1):
                brackets.add((S - 1, M + N - S))
                chains.update((q, M + p - S) for p in range(N + 1) for q in range(S))
    return pair_costs(brackets, chains | {(b, a) for a, b in chains})
