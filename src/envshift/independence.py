"""Transcendency-degree certificates via exact Jacobian ranks at random points.

Every generator is ranked through the closed-form matrix gradient of a
classical function (for a chain member, of its top symbol tr(B X^N)), so a
certified rank is a Schwartz-Zippel style lower bound on the number of
algebraically independent generators; the upper bound (dim g + ind g)/2 comes
from the theory, so PASS means the bound is attained.
"""

from __future__ import annotations

from functools import partial

from . import linalg
from .algebra import AlgebraError, AlgebraSpec, dimension_and_index
from .classical import (
    PointOnDual,
    algebra_projection,
    coordinate_gradient,
    derive_rng,
    shift_expand_gradients,
)
from .elements import stabilizer_basis
from .shifts import ShiftMatrix


class RankCertificate:
    def __init__(self, family: str, labels: tuple, target: int, seed: int, trials: int,
                 ranks: tuple):
        self.family = family
        self.labels = labels
        self.target = target
        self.seed = seed
        self.trials = trials
        self.ranks = ranks  # per-point rank, in seed order

    @property
    def rank(self) -> int:
        return max(self.ranks)

    @property
    def stable(self) -> bool:
        return len(set(self.ranks)) == 1

    @property
    def verdict(self) -> str:
        return "PASS" if self.rank == self.target else "FAIL"

    def serialize(self) -> dict:
        return {
            "family": self.family,
            "labels": list(self.labels),
            "target": self.target,
            "seed": self.seed,
            "trials": self.trials,
            "ranks": list(self.ranks),
            "rank": self.rank,
            "stable": self.stable,
            "verdict": self.verdict,
            "bound_kind": "rank is a probabilistic lower bound; target is the proven upper bound",
        }


def jacobian_rank(gradients, spec: AlgebraSpec, trials=3, seed=42,
                  labels=None, family="") -> RankCertificate:
    """Stack exact gradients at ``trials`` random rational points and rank them.

    The family is one function taking the coordinate realization X of a point
    to the closed-form matrix gradients [G, ...] of its members, df = tr(G dX),
    as shift_family provides.  The target is the bound (dim g + ind g)/2.
    """
    if not callable(gradients):
        raise AlgebraError("generators must be a function from a point to matrix gradients")
    if trials < 1:
        raise AlgebraError("need at least one trial")
    dim, ind = dimension_and_index(spec)
    ranks = []
    for t in range(trials):
        X = PointOnDual.random(spec, derive_rng(seed, t)).coordinate_realization()
        Gs = gradients(X)
        if not Gs:
            raise AlgebraError("empty generator list")
        if labels is None:
            labels = [f"g{k}" for k in range(len(Gs))]
        if len(labels) != len(Gs):
            raise AlgebraError(f"{len(labels)} labels for {len(Gs)} generators")
        ranks.append(linalg.rank([coordinate_gradient(spec, G) for G in Gs]))
    return RankCertificate(
        family=family or spec.designator,
        labels=tuple(labels),
        target=(dim + ind) // 2,
        seed=seed,
        trials=trials,
        ranks=tuple(ranks),
    )


def transcendency_check(family, trials=3, seed=42) -> RankCertificate:
    """Rank the top symbols of a chain family against (dim g + ind g)/2."""
    return jacobian_rank(
        lambda X: [g.matrix_gradient(X) for g in family.generators], family.algebra,
        trials=trials, seed=seed, labels=family.labels, family=family.name,
    )


def shift_family(spec: AlgebraSpec, A_rows):
    """The argument-shift family of A as (gradients, labels).

    Its members are the components [t^k] tr((X + tA)^M) for 0 <= k < M <= m,
    m the matrix size (Mishchenko-Fomenko); ``gradients`` takes X to all of
    their closed-form matrix gradients from one power table.  The k = 0
    members are the trace powers tr(X^M); members that vanish on g (odd M on
    so/sp, for A in g) add only zero rows.  For a regular A the family
    reaches (dim g + ind g)/2; for a singular one, Bolsinov's criterion decides.
    """
    pairs = [(M, k) for M in range(1, spec.matrix_size + 1) for k in range(M)]
    gradients = partial(shift_expand_gradients, A=A_rows, pairs=pairs)
    return gradients, [f"[t^{k}]tr((X+tA)^{M})" for M, k in pairs]


# ---------------------------------------------------------------------------
# gradient duality between the roles of the point and the shift


class DualityOutcome:
    def __init__(self, k: int, M: int, holds_shifted_index: bool, holds_plain_index: bool,
                 residual: tuple):
        self.k = k
        self.M = M
        self.holds_shifted_index = holds_shifted_index  # gradient match with index M-k-1
        self.holds_plain_index = holds_plain_index      # gradient match with index M-k
        self.residual = residual  # lhs - shifted-index gradient, per coordinate

    @property
    def validated(self):
        out = []
        if self.holds_shifted_index:
            out.append("M-k-1")
        if self.holds_plain_index:
            out.append("M-k")
        return out


def brailov_duality_check(spec: AlgebraSpec, k: int, M: int,
                          point_X: PointOnDual, point_A: PointOnDual) -> DualityOutcome:
    """Compare d_X S_A^{k,M} at X with d_A S_X^{j,M} at A for both index readings.

    S_A^{j,M} = [t^j] tr((X + t A)^M), with S_A^{0,M} = tr(X^M).  Each point
    enters through its coordinate realization, both where a gradient is taken
    and where it is the constant shift.
    """
    if not (1 <= k < M):
        raise AlgebraError("need 1 <= k < M")
    X = point_X.coordinate_realization()
    A = point_A.coordinate_realization()
    lhs = coordinate_gradient(spec, shift_expand_gradients(X, A, [(M, k)])[0])
    shifted, plain = (coordinate_gradient(spec, G)
                      for G in shift_expand_gradients(A, X, [(M, M - k - 1), (M, M - k)]))
    return DualityOutcome(
        k=k, M=M,
        holds_shifted_index=(lhs == shifted),
        holds_plain_index=(lhs == plain),
        residual=tuple(a - b for a, b in zip(lhs, shifted)),
    )


# ---------------------------------------------------------------------------
# tangent-space intersection with the shift orbit direction [A, g]


def tangent_intersection_dim(spec: AlgebraSpec, A: ShiftMatrix, trials=8, seed=42):
    """(lhs, rhs) for the shift family's gradient span against [A, g].

    rhs = dim[A, g]/2 = (dim g - dim g_A)/2.  lhs is the dimension of the
    family's matrix-gradient span projected onto [A, g] along g_A (for a
    semisimple A, g = g_A + [A, g] is direct, so this equals the dimension of
    (span + g_A) intersected with [A, g]).  The projection is the quantity
    stable under trading generators that vanish on the rank-2 orbit: such
    generators contribute only stabilizer-direction (conormal) gradients.
    Gradients are taken at a random regular point, regular meaning the
    family's trace powers tr(X^M) (its k = 0 members) attain the full rank
    ind g.
    """
    rows_A = A.numeric_rows()
    if A.rank() != 2:
        raise AlgebraError("the shift matrix must have matrix rank exactly 2")
    if not A.is_semisimple():
        raise AlgebraError("the shift matrix must be semisimple")
    dim, ind = dimension_and_index(spec)
    stab = stabilizer_basis(spec, A)
    dim_gA = len(stab)
    bracket_dim = dim - dim_gA
    if bracket_dim % 2:
        raise AlgebraError("dim [A, g] is odd; inconsistent stabilizer")
    rhs = bracket_dim // 2

    m = spec.matrix_size
    traces = [(M, 0) for M in range(1, m + 1)]
    X = None
    for t in range(trials):
        cand = PointOnDual.random(spec, derive_rng(seed, t)).coordinate_realization()
        grads = shift_expand_gradients(cand, rows_A, traces)
        if linalg.rank([coordinate_gradient(spec, G) for G in grads]) == ind:
            X = cand
            break
    if X is None:
        raise AlgebraError("no regular point found within the trial budget")

    gradients, _ = shift_family(spec, rows_A)
    # the family's trace-form gradients in g at X, flattened
    grad_rows = [[x for row in algebra_projection(spec, G) for x in row] for G in gradients(X)]
    stab_rows = [
        [mat[r][c] for r in range(m) for c in range(m)] for mat in stab
    ]
    # dim proj_[A,g](D) = dim(D + g_A) - dim g_A
    lhs = linalg.rank(grad_rows + stab_rows) - dim_gA
    return lhs, rhs
