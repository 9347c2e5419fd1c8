"""Oracles kept for the tests only: superseded families to check the package against."""

import itertools
from functools import partial

from envshift import elements as el
from envshift import linalg
from envshift.algebra import GL, SP
from envshift.classical import algebra_projection
from envshift.pbw import NCPolynomial, _accumulate, bubble_normal_form, commutator, multiply


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
