"""Oracles kept for the tests only: superseded families to check the package against."""

from functools import partial

from envshift.classical import algebra_projection, shift_expand_gradient, shift_pair_gradient


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
