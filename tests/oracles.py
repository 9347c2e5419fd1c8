"""Oracles kept for the tests only: superseded families, the symbolic classical
side, the bubble-sort rewriter, the exhaustive polarizer and the entrywise
so/sp pair relation, to check the package against."""

import itertools
from fractions import Fraction
from functools import cache, partial, reduce

from envshift import elements as el
from envshift import linalg
from envshift.algebra import GL, SP, AlgebraError, bracket_structure, involution
from envshift.classical import (
    _poly_trace, algebra_projection, coordinate_matrix, derive_rng, shifted_charpoly_values)
from envshift.params import ParamPolynomial
from envshift.pbw import (
    NCPolynomial, _accumulate, _coerce_coeff, commutator, linear_combination, multiply)
from envshift.shifts import make_shift


def shift_power(X, A, M, kmax):
    """The t^0 .. t^kmax parts of (X + t A)^M, from a power loop of its own."""
    graded = [linalg.identity(len(X))]
    for _ in range(M):
        nxt = [linalg.mat_mul(graded[0], X)]
        for k in range(1, min(len(graded), kmax) + 1):
            term = linalg.mat_mul(graded[k - 1], A)
            if k < len(graded):
                term = linalg.mat_add(linalg.mat_mul(graded[k], X), term)
            nxt.append(term)
        graded = nxt
    return graded


def shift_expand_gradient(X, A, M, k):
    """Matrix gradient M [t^k](X + t A)^(M-1) of the one member [t^k] tr((X + t A)^M).

    k = 0 is tr(X^M); k = M, the constant tr(A^M), has gradient zero.
    """
    if not (M >= 1 and 0 <= k <= M):
        raise ValueError("need M >= 1 and 0 <= k <= M")
    graded = shift_power(X, A, M - 1, k)
    if k == len(graded):
        return linalg.mat_scale(X, 0)
    return linalg.mat_scale(graded[k], M)


def shift_pair_gradient(X, A, N):
    """Matrix gradient sum_k X^k A X^(N-1-k) of tr(A X^N), summed term by term."""
    if N < 1:
        raise ValueError("power must be >= 1")
    powers = [linalg.identity(len(X))]
    for _ in range(N - 1):
        powers.append(linalg.mat_mul(powers[-1], X))
    G = linalg.mat_scale(X, 0)
    for k in range(N):
        G = linalg.mat_add(G, linalg.mat_mul(linalg.mat_mul(powers[k], A), powers[N - 1 - k]))
    return G


def family(*members):
    """One gradient function X -> [G, ...] from per-member gradient functions."""
    return lambda X: [f(X) for f in members]


def casimir_degrees(spec):
    return range(1, spec.n + 1) if spec.is_gl else range(2, 2 * spec.n + 1, 2)


def hand_picked_shift_family(spec, A_rows):
    """The family ``rank`` ranked before the full argument-shift family, as (gradients, labels).

    ``gradients`` evaluates the per-member oracles above, one power loop each.

    tr(X^M) over the Casimir degrees, then tr(A.X^N) for N up to 2n (odd N
    only for so/sp, up to 2n + 1).  The shifted traces are all dropped when A
    has no trace-form component in g, since each of them then vanishes on g.
    """
    shifts = range(1, 2 * spec.n + 1) if spec.is_gl else range(1, 2 * spec.n + 2, 2)
    if not any(x for row in algebra_projection(spec, A_rows) for x in row):
        shifts = ()
    fs = [partial(shift_expand_gradient, A=A_rows, M=M, k=0) for M in casimir_degrees(spec)]
    labels = [f"tr(X^{M})" for M in casimir_degrees(spec)]
    fs += [partial(shift_pair_gradient, A=A_rows, N=N) for N in shifts]
    labels += [f"tr(A.X^{N})" for N in shifts]
    return family(*fs), labels


def power_bracket_residual_direct(spec, M, N, i, j, k, l):
    """``elements.power_bracket_residual`` as it was before its product table:
    the left side by ``commutator`` and a fresh ``multiply`` for every term."""
    mpe = el.matrix_power_element
    lhs = commutator(mpe(spec, M, i, j), mpe(spec, N, k, l))
    rhs: dict = {}
    for S in range(1, M + 1):
        _accumulate(rhs, multiply(mpe(spec, M + N - S, i, l), mpe(spec, S - 1, k, j)).terms)
        _accumulate(rhs, multiply(mpe(spec, S - 1, i, l), mpe(spec, M + N - S, k, j)).terms, -1)
    if not spec.is_gl:
        e1 = spec.eps(-l) * spec.eps(k)
        e2 = spec.eps(-k) * spec.eps(l)
        for p, cp in enumerate(el.power_flip_coefficients(spec, N)):
            if cp.is_zero:
                continue
            part: dict = {}
            for S in range(1, M + 1):
                _accumulate(part, multiply(
                    mpe(spec, M + p - S, i, -k), mpe(spec, S - 1, -l, j)).terms, e1)
                _accumulate(part, multiply(
                    mpe(spec, S - 1, i, -k), mpe(spec, M + p - S, -l, j)).terms, -e2)
            part = NCPolynomial(spec, part, normalized=True)
            _accumulate(rhs, multiply(cp, part).terms, spec.pair_sign)
    return lhs - NCPolynomial(spec, rhs, normalized=True)


def every_index_tuple(spec, length):
    """Every index tuple, in the order the prop1/prop3/prop4 suites enumerated
    them before they evaluated orbit representatives only.  In place of
    ``cli.orbit_representatives`` it runs those suites exhaustively."""
    return list(itertools.product(spec.index_set, repeat=length))


def index_symmetry_group(spec):
    """Every index map of the family's symmetry group, as dicts, listed directly:
    the permutations of 1..n (gl); with every choice of signs (so); with one
    sign for all labels (sp).  A map s sends the label a to s(a) and -a to -s(a)."""
    labels = range(1, spec.n + 1)
    if spec.family == GL:
        signs = [(1,) * spec.n]
    elif spec.family == SP:
        signs = [(1,) * spec.n, (-1,) * spec.n]
    else:
        signs = list(itertools.product((1, -1), repeat=spec.n))
    group = []
    for perm in itertools.permutations(labels):
        for sg in signs:
            s = {0: 0} if 0 in spec.index_set else {}
            for a, b, e in zip(labels, perm, sg):
                s[a] = e * b
                if not spec.is_gl:
                    s[-a] = -e * b
            group.append(s)
    return group


def map_indices(spec, s, p):
    """The image of p under X[i,j] -> X[s(i),s(j)], put in normal form by the
    bubble-sort rewriter (no product cache is read)."""
    gens, ids = spec.canonical_generators, spec.generator_ids
    raw: dict = {}
    for word, c in p.terms.items():
        out = []
        for g in word:
            i, j = gens[g]
            sign, pair = spec.canonicalize_pair(s[i], s[j])
            c = c * sign
            out.append(ids[pair])
        raw[tuple(out)] = raw.get(tuple(out), 0) + c
    return NCPolynomial(spec, bubble_normal_form(spec, raw))


def from_word(spec, pairs, coeff=1):
    """The product of raw-index generators X[i1,j1]...X[ik,jk] times coeff."""
    c = _coerce_coeff(coeff)
    word = []
    for i, j in pairs:
        sign, pair = spec.canonicalize_pair(i, j)
        if pair is None:
            return NCPolynomial(spec)
        c = c * sign
        word.append(spec.generator_ids[pair])
    return NCPolynomial(spec, {tuple(word): c})


def degree(p):
    """The maximal word length of a PBW polynomial; -1 for zero."""
    return max((len(w) for w in p.terms), default=-1)


def total_degree(f):
    """The total degree of a commutative polynomial; -1 for zero."""
    return max((sum(e for _, e in m) for m in f.terms), default=-1)


def partial_derivative(f, var):
    """The derivative of a commutative polynomial in one variable."""
    terms = {}
    for mono, c in f.terms.items():
        for t, (name, e) in enumerate(mono):
            if name == var:
                # distinct monomials keep distinct rests, so nothing merges
                rest = mono[:t] + (((name, e - 1),) if e > 1 else ()) + mono[t + 1:]
                terms[rest] = c * e
                break
    return ParamPolynomial._of(terms)


def substitute(f, values):
    """A commutative polynomial at rational variable values (all variables bound)."""
    total = Fraction(0)
    for mono, c in f.terms.items():
        v = c
        for name, exp in mono:
            v *= Fraction(values[name]) ** exp
        total += v
    return total


def graded_symbol(p, degree):
    """The degree-d graded part of a PBW polynomial as a commutative polynomial."""
    acc: dict = {}
    for word, c in p.terms.items():
        if len(word) != degree:
            continue
        if isinstance(c, ParamPolynomial):
            raise AlgebraError("classical images need numeric coefficients")
        # a sorted word is a multiset of generators, so no two words share a monomial
        acc[tuple((g, len(list(run))) for g, run in itertools.groupby(word))] = c
    return ParamPolynomial(acc)


def top_symbol(p):
    """Highest-degree part of a PBW polynomial as a commutative polynomial."""
    if p.is_zero:
        return ParamPolynomial()
    return graded_symbol(p, degree(p))


def lie_poisson_bracket(spec, f, g):
    """{f, g} = sum df/dx_a dg/dx_b {x_a, x_b} on g*; bilinear, antisymmetric, Leibniz."""
    gens, ids = spec.canonical_generators, spec.generator_ids
    dg = {gb: partial_derivative(g, gb) for gb in sorted({gid for m in g.terms for gid, _ in m})}
    acc: dict = {}
    for ga in sorted({gid for m in f.terms for gid, _ in m}):
        dfa = partial_derivative(f, ga)
        for gb, dgb in dg.items():
            br = bracket_structure(spec, gens[ga], gens[gb])
            if br:
                linear = ParamPolynomial._of({((ids[pair], 1),): c for pair, c in br.items()})
                _accumulate(acc, (dfa * dgb * linear).terms)
    return ParamPolynomial(acc)


def power_trace(spec, M, indices=None):
    """S^M(X) = tr(X^M) with cyclic index contraction, as a polynomial."""
    if M < 1:
        raise ValueError("power must be >= 1")
    X = coordinate_matrix(spec, indices)
    P = X
    for _ in range(M - 1):
        P = linalg.mat_mul(P, X)
    return _poly_trace(P)


def shift_pair_trace(spec, rows, M, indices=None):
    """tr(A X^M): the classical image of the shifted generator (A X^M)."""
    X = coordinate_matrix(spec, indices)
    P = rows
    for _ in range(M):
        P = linalg.mat_mul(P, X)
    return _poly_trace(P)


def charpoly_shift_invariants(spec, M, k, rows):
    """P_A^{k,M} over the coordinate functions of the algebra."""
    out = shifted_charpoly_values(coordinate_matrix(spec), rows, [(M, k)])[(M, k)]
    if isinstance(out, ParamPolynomial):
        return out
    return ParamPolynomial.const(out)


def evaluate(f, point):
    return substitute(f, dict(enumerate(point.values)))


def gradient(f, point):
    """Exact partial derivatives over the canonical coordinates at the point."""
    vals = dict(enumerate(point.values))
    return tuple(substitute(partial_derivative(f, g), vals) for g in range(point.spec.dim))


def antisymmetric_rank2_matrix(size, seed):
    """u v^T - v u^T in the plain antisymmetric realization (cross-check helper)."""
    rng = derive_rng("antisym", seed)
    while True:
        u = [Fraction(rng.randint(-10, 10)) for _ in range(size)]
        v = [Fraction(rng.randint(-10, 10)) for _ in range(size)]
        rows = [[u[r] * v[c] - v[r] * u[c] for c in range(size)] for r in range(size)]
        if linalg.rank(rows) == 2:
            return rows


def bubble_normal_form(spec, terms, strategy="leftmost"):
    """Rewrite raw terms by repeatedly swapping one out-of-order adjacent pair.

    strategy picks the leftmost or rightmost descent first.  Deliberately simple,
    cache-free and reading ``bracket_structure`` directly, so it can serve as
    an oracle for the production path.  It rewrites tuples of ids, takes any
    sequence of ids as a word and keys its result as ``pbw`` does, by bytes.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    gens, ids = spec.canonical_generators, spec.generator_ids
    out: dict = {}
    work = [(tuple(w), _coerce_coeff(c)) for w, c in terms.items()]
    while work:
        word, c = work.pop()
        if not c:
            continue
        descents = [k for k in range(len(word) - 1) if word[k] > word[k + 1]]
        if not descents:
            out[word] = out.get(word, 0) + c
            continue
        k = descents[0] if strategy == "leftmost" else descents[-1]
        a, b = word[k], word[k + 1]
        work.append((word[:k] + (b, a) + word[k + 2 :], c))
        for pair, cb in bracket_structure(spec, gens[a], gens[b]).items():
            work.append((word[:k] + (ids[pair],) + word[k + 2 :], c * cb))
    return {bytes(w): c for w, c in out.items() if c}


def violating_shift(spec):
    """A shift matrix violating both symmetry signs, with a non-commuting
    shifted family at low powers (negative control).

    No such matrix exists for sp(1): every 2x2 matrix is an algebra member
    plus a multiple of the identity, and the identity only contributes
    central elements.
    """
    if spec.is_gl:
        raise AlgebraError("gl shifts carry no symmetry condition")
    if spec.family == SP and spec.n == 1:
        raise AlgebraError("sp(1) admits no sign-violating shift with effect")
    m = spec.matrix_size
    rows = [[0] * m for _ in range(m)]
    if spec.family == SP:
        rows[spec.position(-spec.n)][spec.position(-(spec.n - 1))] = 1
    elif 0 in spec.index_set:
        rows[spec.position(-spec.n)][spec.position(0)] = 1
    else:
        rows[spec.position(-spec.n)][spec.position(spec.n)] = 1
        rows[spec.position(-spec.n)][spec.position(-spec.n)] = 1
    mat = make_shift(spec, rows, spec.index_set)
    if mat.symmetry_signs():
        raise AlgebraError("violating-shift construction failed")
    return mat


def defining_matrix(spec, pair):
    """The generator X[pair] in the defining representation, rows and columns by
    position: E_ij on gl, E_ij + tau(E_ij) on so/sp (``algebra.involution``).  It
    is the pattern P_g of ``AlgebraSpec.realize``, doubled on sp's X[i,-i]."""
    i, j = pair
    m = spec.matrix_size
    rows = [[0] * m for _ in range(m)]
    rows[spec.position(i)][spec.position(j)] = 1
    if spec.family == GL:
        return rows
    return [[x + t for x, t in zip(row, trow)] for row, trow in zip(rows, involution(spec, rows))]


@cache
def tensor_generator(spec, g, d):
    """The canonical generator g on V^(x)d, V = C^m: its ``defining_matrix`` x acting
    as x(x)1(x)...(x)1 + ... + 1(x)...(x)1(x)x.  Reads no structure constant."""
    x = defining_matrix(spec, spec.canonical_generators[g])
    m = spec.matrix_size
    flat = partial(reduce, lambda a, b: a * m + b)  # (t1, ..., td) -> row of e_t1(x)...(x)e_td
    out = [[0] * m ** d for _ in range(m ** d)]
    for rest in itertools.product(range(m), repeat=d - 1):
        for slot in range(d):
            for r, c in itertools.product(range(m), repeat=2):
                if x[r][c]:
                    out[flat(rest[:slot] + (r,) + rest[slot:])][
                        flat(rest[:slot] + (c,) + rest[slot:])] += x[r][c]
    return out


def rho(p, d, values=None):
    """p as an operator on V^(x)d: each word the product of its generators'
    ``tensor_generator`` matrices, weighted by its coefficient, a parameter
    polynomial taken at ``values``.  The words need not be in PBW order, and
    may be any sequences of ids: normal forms key them by bytes, raw terms by
    tuples."""
    n = p.spec.matrix_size ** d
    out = [[0] * n for _ in range(n)]
    prefixes = {(): linalg.identity(n)}
    for word, c in p.terms.items():
        word = tuple(word)
        if isinstance(c, ParamPolynomial):
            c = substitute(c, values)
        for k in range(1, len(word) + 1):
            if word[:k] not in prefixes:
                prefixes[word[:k]] = linalg.mat_mul(
                    prefixes[word[:k - 1]], tensor_generator(p.spec, word[k - 1], d))
        out = linalg.mat_add(out, linalg.mat_scale(prefixes[word], c))
    return out


def basis_part(A, entries, key):
    """The ``elements._ShiftPart`` of one basis matrix of A, given as its entries."""
    pos = {i: p for p, i in enumerate(A.indices)}
    rows = [[0] * A.size for _ in A.indices]
    for (i, j), v in entries:
        rows[pos[i]][pos[j]] = v
    return el._ShiftPart(A.spec, rows, A.indices, key)


def exhaustive_polarize(spec, A, form, built=None):
    """F(A, A) for a form F bilinear in the shift, over every ordered pair of
    A's parameter-monomial parts, with no symmetry: with A = sum_m m*B_m,
    F(A, A) = sum_mu mu*R_mu, R_mu = sum_{m*m' = mu} F(B_m, B_m').

    A drop-in for ``elements.polarize``; ``built`` keeps the parts, with
    their elements and brackets, across calls with the same A.
    """
    if built is None:
        built = {}
    if "oracle" not in built:
        built["oracle"] = [(basis_part(A, entries, c), m)
                           for c, (entries, m) in enumerate(A.parts())]
    groups: dict = {}   # mu -> R_mu
    for P, m in built["oracle"]:
        for Q, m2 in built["oracle"]:
            mu, value = m * m2, form(P, Q)
            groups[mu] = groups[mu] + value if mu in groups else value
    return linear_combination(spec, ((r, mu) for mu, r in groups.items()))


def symmetry_holds(spec, rows, s, indices=None):
    """Whether A_ij = s*eps_i*eps_j*A_{-j,-i} entry by entry over ``indices``;
    False when the block is not closed under negation."""
    indices = spec.index_set if indices is None else tuple(indices)
    pos = {v: p for p, v in enumerate(indices)}
    for i in indices:
        for j in indices:
            if -i not in pos or -j not in pos:
                return False
            lhs = rows[pos[i]][pos[j]]
            rhs = rows[pos[-j]][pos[-i]]
            if lhs != s * spec.eps(i) * spec.eps(j) * rhs:
                return False
    return True


def involution_partner(spec, rows, indices=None):
    """tau(B)_ij = -eps_i eps_j B_{-j,-i} entry by entry over a block closed
    under negation; B + tau(B) lies in the algebra."""
    indices = spec.index_set if indices is None else tuple(indices)
    pos = {v: p for p, v in enumerate(indices)}
    m = len(indices)
    out = [[Fraction(0)] * m for _ in range(m)]
    for i in indices:
        for j in indices:
            out[pos[i]][pos[j]] = -spec.eps(i) * spec.eps(j) * rows[pos[-j]][pos[-i]]
    return out


def signed_symbolic_rows(spec, sign):
    """The rows of the fully symbolic so/sp shift of a sign: one parameter
    a0, a1, ... per pair {(i, j), (-j, -i)} met first in row-major order, and
    per self-paired entry the sign keeps."""
    m = spec.matrix_size
    rows = [[0] * m for _ in range(m)]
    count = 0
    seen = set()
    for i in spec.index_set:
        for j in spec.index_set:
            if (i, j) in seen:
                continue
            seen.add((i, j))
            if (i, j) == (-j, -i):
                # self-paired entry: forced to zero unless the sign fixes it
                if sign * spec.eps(i) * spec.eps(j) == 1:
                    rows[spec.position(i)][spec.position(j)] = ParamPolynomial.variable(f"a{count}")
                    count += 1
                continue
            seen.add((-j, -i))
            p = ParamPolynomial.variable(f"a{count}")
            count += 1
            rows[spec.position(i)][spec.position(j)] = p
            rows[spec.position(-j)][spec.position(-i)] = p * (sign * spec.eps(i) * spec.eps(j))
    return tuple(tuple(r) for r in rows)


def shift_coordinates(A):
    """``ShiftMatrix.coordinates`` entry by entry: the unit matrix of each nonzero
    entry when A has no symmetry sign; for a sign s, the signed pair
    E_ij + s*eps(i)*eps(j)*E_{-j,-i} at each nonzero entry that is the smaller
    of its pair, and E_{i,-i} alone when self-paired."""
    spec = A.spec
    entries = {(i, j): x for i, row in zip(A.indices, A.rows)
               for j, x in zip(A.indices, row) if x}
    signs = [s for s in (1, -1) if not spec.is_gl and symmetry_holds(spec, A.rows, s, A.indices)]
    if not signs:
        return [((((i, j), 1),), x) for (i, j), x in entries.items()]
    s = min(signs)
    out = []
    for (i, j), x in entries.items():
        if (i, j) == (-j, -i):
            out.append(((((i, j), 1),), x))
        elif (i, j) < (-j, -i):
            pair = (((i, j), 1), ((-j, -i), s * spec.eps(i) * spec.eps(j)))
            out.append((tuple(sorted(pair)), x))
    return out
