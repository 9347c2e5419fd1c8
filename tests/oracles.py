"""Oracles kept for the tests only: superseded families to check the package against."""

from functools import partial

from envshift import elements as el
from envshift.classical import algebra_projection, shift_expand_gradient, shift_pair_gradient
from envshift.pbw import NCPolynomial, _accumulate, commutator, multiply


def casimir_degrees(spec):
    return range(1, spec.n + 1) if spec.is_gl else range(2, 2 * spec.n + 1, 2)


def hand_picked_shift_family(spec, A_rows):
    """The family ``rank`` ranked before the full argument-shift family, as (gradients, labels).

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
    return fs, labels


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
