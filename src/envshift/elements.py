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

from dataclasses import dataclass, field

from . import linalg
from .algebra import AlgebraError, AlgebraSpec, coordinates_to_matrix, matrix_in_algebra
from .params import ParamPolynomial, _mono_mul, _scalar
from .pbw import NCPolynomial, _accumulate, commutator, multiply
from .shifts import ShiftMatrix

_MPE_CACHE: dict = {}
_FLIP_CACHE: dict = {}


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
        acc: dict = {}
        for u in idx:
            left = matrix_power_element(spec, M - 1, i, u, idx)
            if left.is_zero:
                continue
            g = NCPolynomial.generator(spec, u, j)
            if g.is_zero:
                continue
            _accumulate(acc, multiply(left, g).terms)
        out = NCPolynomial(spec, acc, normalized=True)
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
        acc: dict = {}
        for i in idx:
            _accumulate(acc, matrix_power_element(spec, M, i, i, idx).terms)
        out = _MPE_CACHE[key] = NCPolynomial(spec, acc, normalized=True)
    return out


def contract_rows(spec: AlgebraSpec, rows, M: int, indices=None) -> NCPolynomial:
    """(A X^M) = sum A[j,i] (X^M)[i,j] for a raw coefficient matrix over the subset."""
    idx = _indices(spec, indices)
    acc: dict = {}
    for jp, j in enumerate(idx):
        for ip, i in enumerate(idx):
            c = rows[jp][ip]
            if c:
                _accumulate(acc, matrix_power_element(spec, M, i, j, idx).terms, c)
    return NCPolynomial(spec, acc, normalized=True)


def shift_generator(spec: AlgebraSpec, A: ShiftMatrix, M: int, declared_sign=None) -> NCPolynomial:
    """(A X^M) over A's index subset.

    When a symmetry sign is declared for so/sp, the matrix must satisfy it;
    commutativity of the shifted family is only claimed under that condition.
    """
    if A.spec != spec:
        raise AlgebraError("shift matrix belongs to a different algebra")
    if declared_sign is not None and declared_sign not in A.symmetry_signs():
        raise AlgebraError(f"shift matrix violates symmetry sign {declared_sign:+d}")
    return contract_rows(spec, A.rows, M, A.indices)


def shift_commutator_residual(spec: AlgebraSpec, A: ShiftMatrix, M: int, N: int,
                              built=None) -> NCPolynomial:
    """[(A X^M), (A X^N)] from numeric commutators, by polarization in A's parameters.

    With A = sum_m m*B_m over parameter monomials (``ShiftMatrix.parts``), the
    commutator is sum_mu mu*R_mu with R_mu = sum_{m*m' = mu} [(B_m X^M), (B_m' X^N)].
    Each R_mu is numeric, and the result vanishes exactly when every R_mu
    does; it is assembled with parametric coefficients only where it does not.
    A numeric A is the single part 1: one commutator, as computed directly.
    ``built`` caches the (B_m X^K) across calls with the same A.
    """
    if A.spec != spec:
        raise AlgebraError("shift matrix belongs to a different algebra")
    if built is None:
        built = {}
    parts = A.parts()

    def element(m, K):
        out = built.get((m, K))
        if out is None:
            out = built[m, K] = contract_rows(spec, parts[m], K, A.indices)
        return out

    groups: dict = {}
    for m in parts:
        for m2 in parts:
            _accumulate(groups.setdefault(_mono_mul(m, m2), {}),
                        commutator(element(m, M), element(m2, N)).terms)
    coeffs: dict = {}   # word -> {mu: nonzero coefficient of the word in R_mu}
    for mu, terms in groups.items():
        for w, c in terms.items():
            if c:
                coeffs.setdefault(w, {})[mu] = c
    return NCPolynomial(spec, {
        w: cs[()] if len(cs) == 1 and () in cs else ParamPolynomial(cs)
        for w, cs in coeffs.items()
    }, normalized=True)


def linear_element(spec: AlgebraSpec, rows) -> NCPolynomial:
    """(B X) for a raw matrix over the full index set."""
    return contract_rows(spec, rows, 1)


# ---------------------------------------------------------------------------
# stabilizer subalgebra


def stabilizer_basis(spec: AlgebraSpec, A) -> list:
    """Deterministic basis of {B in g : [A, B] = 0} as matrices over the index set.

    Computed as the exact null space of the commutator map restricted to the
    span of the canonical generators, so so/sp constraints hold by construction.
    """
    rows_A = A.numeric_rows() if isinstance(A, ShiftMatrix) else _rule_rows(A)
    m = spec.matrix_size
    if len(rows_A) != m:
        raise AlgebraError("stabilizer computation needs a full-size matrix")
    gens = spec.canonical_generators
    columns = []
    for pair in gens:
        mat = [list(r) for r in spec.defining_matrix(pair)]
        columns.append(linalg.mat_commutator(rows_A, mat))
    system = [
        [columns[g][r][c] for g in range(len(gens))]
        for r in range(m)
        for c in range(m)
    ]
    return [
        _rule_rows(coordinates_to_matrix(spec, {gens[g]: cg for g, cg in enumerate(vec) if cg}))
        for vec in linalg.nullspace(system, ncols=len(gens))
    ]


def _rule_rows(rows):
    """A numeric matrix under the coefficient rule: ints where integral."""
    return [[_scalar(x) for x in row] for row in rows]


def check_centralizer(spec: AlgebraSpec, A, B, N: int) -> NCPolynomial:
    """Residual of [(BX), (A X^N)] = c*([A,B] X^N) with c = 1 (gl), 2 (so/sp).

    For so/sp the identity requires B inside the matrix algebra, and the
    pairing doubles each canonical generator, hence the factor 2.
    """
    rows_A = A.numeric_rows() if isinstance(A, ShiftMatrix) else _rule_rows(A)
    rows_B = _rule_rows(B)
    if not spec.is_gl and not matrix_in_algebra(spec, rows_B):
        raise AlgebraError("centralizer check requires B in the matrix algebra")
    lhs = commutator(linear_element(spec, rows_B), contract_rows(spec, rows_A, N))
    bracket = _rule_rows(linalg.mat_commutator(rows_A, rows_B))
    factor = 1 if spec.is_gl else 2
    return lhs - contract_rows(spec, bracket, N) * factor


# ---------------------------------------------------------------------------
# tensoriality of the matrix-power elements


def tensorial_residual(spec: AlgebraSpec, M: int, i: int, j: int, k: int, l: int) -> NCPolynomial:
    """Residual of [X[i,j], (X^M)[k,l]] = d_kj (X^M)[i,l] - d_il (X^M)[k,j] (+ so/sp terms)."""
    for idx in (i, j, k, l):
        spec.position(idx)
    lhs = commutator(NCPolynomial.generator(spec, i, j), matrix_power_element(spec, M, k, l))
    rhs = NCPolynomial.zero(spec)
    if k == j:
        rhs = rhs + matrix_power_element(spec, M, i, l)
    if i == l:
        rhs = rhs - matrix_power_element(spec, M, k, j)
    if not spec.is_gl:
        e = spec.eps(i) * spec.eps(j)
        if j == -l:
            rhs = rhs + matrix_power_element(spec, M, k, -i) * e
        if k == -i:
            rhs = rhs - matrix_power_element(spec, M, -j, l) * e
    return lhs - rhs


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
        cur: list = [{} for _ in range(M + 1)]
        for p, cp in enumerate(prev):
            if cp.is_zero:
                continue
            _accumulate(cur[p + 1], cp.terms, -1)
            _accumulate(cur[p], cp.terms, size - sigma)
            trace_p = casimir(spec, p) if p >= 1 else NCPolynomial.scalar(spec, size)
            _accumulate(cur[0], multiply(cp, trace_p).terms, -1)
            inner = power_flip_coefficients(spec, p)
            for q, cq in enumerate(inner):
                if not cq.is_zero:
                    _accumulate(cur[q], multiply(cp, cq).terms, sigma)
        out = [NCPolynomial(spec, terms, normalized=True) for terms in cur]
    _FLIP_CACHE[key] = out
    return out


def flip_residual(spec: AlgebraSpec, M: int, i: int, j: int) -> NCPolynomial:
    """Residual of the flip expansion of (X^M)[i,j] at one index pair."""
    coeffs = power_flip_coefficients(spec, M)
    e = spec.eps(i) * spec.eps(j)
    rhs: dict = {}
    for p, cp in enumerate(coeffs):
        if cp.is_zero:
            continue
        _accumulate(rhs, multiply(cp, matrix_power_element(spec, p, -j, -i)).terms, e)
    return matrix_power_element(spec, M, i, j) - NCPolynomial(spec, rhs, normalized=True)


# ---------------------------------------------------------------------------
# bracket-of-powers expansions


def power_bracket_residual(spec: AlgebraSpec, M: int, N: int, i: int, j: int, k: int, l: int) -> NCPolynomial:
    """Residual of the closed form of [(X^M)[i,j], (X^N)[k,l]].

    gl:     sum_S (X^{M+N-S})[i,l](X^{S-1})[k,j] - (X^{S-1})[i,l](X^{M+N-S})[k,j]
    so/sp:  the same sum plus the flip-coefficient sum weighted by
            sigma = eps(u)eps(-u); the pairing sign enters because the flip of
            the inner power contracts eps(u)eps(-u) over the summation index.
    """
    if M < 1 or N < 0:
        raise ValueError("need M >= 1 and N >= 0")
    lhs = commutator(
        matrix_power_element(spec, M, i, j), matrix_power_element(spec, N, k, l)
    )
    rhs: dict = {}
    for S in range(1, M + 1):
        _accumulate(rhs, multiply(
            matrix_power_element(spec, M + N - S, i, l),
            matrix_power_element(spec, S - 1, k, j),
        ).terms)
        _accumulate(rhs, multiply(
            matrix_power_element(spec, S - 1, i, l),
            matrix_power_element(spec, M + N - S, k, j),
        ).terms, -1)
    if not spec.is_gl:
        sigma = spec.pair_sign
        coeffs = power_flip_coefficients(spec, N)
        e1 = spec.eps(-l) * spec.eps(k)
        e2 = spec.eps(-k) * spec.eps(l)
        for p, cp in enumerate(coeffs):
            if cp.is_zero:
                continue
            part: dict = {}
            for S in range(1, M + 1):
                _accumulate(part, multiply(
                    matrix_power_element(spec, M + p - S, i, -k),
                    matrix_power_element(spec, S - 1, -l, j),
                ).terms, e1)
                _accumulate(part, multiply(
                    matrix_power_element(spec, S - 1, i, -k),
                    matrix_power_element(spec, M + p - S, -l, j),
                ).terms, -e2)
            part = NCPolynomial(spec, part, normalized=True)
            _accumulate(rhs, multiply(cp, part).terms, sigma)
    return lhs - NCPolynomial(spec, rhs, normalized=True)


def shift_bracket_recursion_residual(spec: AlgebraSpec, M: int, N: int, A: ShiftMatrix) -> NCPolynomial:
    """gl recursion: [(AX^M),(AX^N)] = sum_{S=1..M} sum_{P=1..S-1} [(AX^{P-1}),(AX^{M+N-P-1})]."""
    if not spec.is_gl:
        raise AlgebraError("the contracted recursion in this form is the gl case")
    lhs = commutator(shift_generator(spec, A, M), shift_generator(spec, A, N))
    rhs: dict = {}
    for S in range(1, M + 1):
        for P in range(1, S):
            _accumulate(rhs, commutator(
                shift_generator(spec, A, P - 1),
                shift_generator(spec, A, M + N - P - 1),
            ).terms)
    return lhs - NCPolynomial(spec, rhs, normalized=True)


# ---------------------------------------------------------------------------
# so/sp contracted recursions (straight and crossed shift contractions)


def _power_matrix(spec, a, idx):
    return [[matrix_power_element(spec, a, i, j, idx) for j in idx] for i in idx]


def _scaled_power_matrix(spec, A: ShiftMatrix, a):
    """A * X^a as a U-valued matrix over A's index subset."""
    idx = A.indices
    m = len(idx)
    pm = _power_matrix(spec, a, idx)
    out = []
    for r in range(m):
        row = []
        for c in range(m):
            acc: dict = {}
            for t in range(m):
                coef = A.rows[r][t]
                if coef:
                    _accumulate(acc, pm[t][c].terms, coef)
            row.append(NCPolynomial(spec, acc, normalized=True))
        out.append(row)
    return out


def trace_chain(spec: AlgebraSpec, A: ShiftMatrix, a: int, b: int) -> NCPolynomial:
    """W(a,b) = sum A[j,i]A[l,k] (X^a)[i,l](X^b)[k,j] = tr(A X^a A X^b) in U-order."""
    t1 = _scaled_power_matrix(spec, A, a)
    t2 = _scaled_power_matrix(spec, A, b)
    m = len(A.indices)
    acc: dict = {}
    for r in range(m):
        for s in range(m):
            if t1[r][s].is_zero or t2[s][r].is_zero:
                continue
            _accumulate(acc, multiply(t1[r][s], t2[s][r]).terms)
    return NCPolynomial(spec, acc, normalized=True)


def crossed_contraction(spec: AlgebraSpec, A: ShiftMatrix, M: int, N: int) -> NCPolynomial:
    """sum A[j,k]A[l,i] [(X^M)[i,j],(X^N)[k,l]] = W(M,N) - W(N,M)."""
    return trace_chain(spec, A, M, N) - trace_chain(spec, A, N, M)


def straight_contraction(spec: AlgebraSpec, A: ShiftMatrix, M: int, N: int) -> NCPolynomial:
    """sum A[j,i]A[l,k] [(X^M)[i,j],(X^N)[k,l]] = [(AX^M),(AX^N)]."""
    return commutator(shift_generator(spec, A, M), shift_generator(spec, A, N))


def contracted_recursion_residuals(spec: AlgebraSpec, A: ShiftMatrix, M: int, N: int, sign: int):
    """Residuals of the two so/sp contraction recursions for a shift matrix
    with symmetry sign ``sign``; both must vanish identically.

      L1(M,N) + sum_S L2(S-1, N+M-S)
              + sign * sum_P C_P^(N) sum_S L2(S-1, P+M-S)                  (straight)
      L2(M,N) + sum_S L1(S-1, M+N-S)
              + sigma*sign * sum_{P,S,Q} C_P^(N) C_Q^(S-1) L2(Q, M+P-S)     (crossed)
    """
    if spec.is_gl:
        raise AlgebraError("the contraction recursions in this form are so/sp")
    if sign not in A.symmetry_signs():
        raise AlgebraError(f"shift matrix does not satisfy symmetry sign {sign:+d}")
    sigma = spec.pair_sign
    cN = power_flip_coefficients(spec, N)

    res1 = dict(straight_contraction(spec, A, M, N).terms)
    for S in range(1, M + 1):
        _accumulate(res1, crossed_contraction(spec, A, S - 1, N + M - S).terms)
    for P, cp in enumerate(cN):
        if cp.is_zero:
            continue
        part: dict = {}
        for S in range(1, M + 1):
            _accumulate(part, crossed_contraction(spec, A, S - 1, P + M - S).terms)
        part = NCPolynomial(spec, part, normalized=True)
        _accumulate(res1, multiply(cp, part).terms, sign)

    res2 = dict(crossed_contraction(spec, A, M, N).terms)
    for S in range(1, M + 1):
        _accumulate(res2, straight_contraction(spec, A, S - 1, M + N - S).terms)
    for P, cp in enumerate(cN):
        if cp.is_zero:
            continue
        for S in range(1, M + 1):
            cS = power_flip_coefficients(spec, S - 1)
            for Q, cq in enumerate(cS):
                if cq.is_zero:
                    continue
                term = crossed_contraction(spec, A, Q, M + P - S)
                if term.is_zero:
                    continue
                _accumulate(res2, multiply(multiply(cp, cq), term).terms, sigma * sign)
    res1 = NCPolynomial(spec, res1, normalized=True)
    res2 = NCPolynomial(spec, res2, normalized=True)
    return res1, res2


# ---------------------------------------------------------------------------
# numbered proposition dispatcher (the identity suite ids used by the CLI)


@dataclass
class PropositionCheck:
    residuals: list            # list of (description, NCPolynomial)
    central_coeffs: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.is_zero for _, r in self.residuals)

    def first_failure(self):
        for desc, r in self.residuals:
            if not r.is_zero:
                return desc, r
        return None


def check_proposition(spec: AlgebraSpec, pid: int, M: int, N: int = 0,
                      index_tuple=None, A: ShiftMatrix = None, sign: int = None) -> PropositionCheck:
    """Run one numbered identity check at a concrete instance.

    1: gl bracket-of-powers expansion at an index 4-tuple
    2: gl contracted recursion for a shift matrix
    3: so/sp flip expansion of (X^{M+1}); also returns the central coefficients
    4: so/sp bracket-of-powers expansion at an index 4-tuple
    5: so/sp contracted recursions (both identities) for a signed shift matrix
    """
    if pid in (1, 2) and not spec.is_gl:
        raise AlgebraError(f"identity {pid} is stated for gl")
    if pid in (3, 4, 5) and spec.is_gl:
        raise AlgebraError(f"identity {pid} is stated for so/sp")

    if pid in (1, 4):
        tuples = [index_tuple] if index_tuple else [
            (i, j, k, l)
            for i in spec.index_set for j in spec.index_set
            for k in spec.index_set for l in spec.index_set
        ]
        res = [
            (f"(M={M},N={N},ijkl={t})", power_bracket_residual(spec, M, N, *t))
            for t in tuples
        ]
        return PropositionCheck(res)

    if pid == 2:
        if A is None:
            raise AlgebraError("identity 2 needs a shift matrix")
        return PropositionCheck(
            [(f"(M={M},N={N})", shift_bracket_recursion_residual(spec, M, N, A))]
        )

    if pid == 3:
        coeffs = power_flip_coefficients(spec, M + 1)
        pairs = [index_tuple] if index_tuple else [
            (i, j) for i in spec.index_set for j in spec.index_set
        ]
        res = [
            (f"(M+1={M + 1},ij={t})", flip_residual(spec, M + 1, *t)) for t in pairs
        ]
        return PropositionCheck(res, central_coeffs=list(coeffs))

    if pid == 5:
        if A is None:
            raise AlgebraError("identity 5 needs a shift matrix")
        if sign is None:
            signs = A.symmetry_signs()
            if len(signs) != 1:
                raise AlgebraError("identity 5 needs an unambiguous symmetry sign")
            sign = signs.pop()
        r1, r2 = contracted_recursion_residuals(spec, A, M, N, sign)
        return PropositionCheck(
            [(f"straight(M={M},N={N})", r1), (f"crossed(M={M},N={N})", r2)]
        )

    raise AlgebraError(f"unknown proposition id {pid}")
