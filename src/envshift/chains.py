"""Descending subalgebra chains and the commutative families they generate.

A chain starts at the full algebra and steps down by k in {1, 2}. Levels are
realized as index blocks: gl levels take the last i indices, so/sp levels the
symmetric inner block.  Every level contributes its Casimir elements (trace
powers; even ones for so/sp), every size-2 step (and every sp level of rank
>= 2) contributes shifted generators for its attached rank-2 semisimple shift
matrix, and the terminal abelian level contributes its linear generator.
Pairwise commutativity of the emitted family is checked, never assumed: by
multiplying every pair, or by the level-by-level certificate of
``noncommuting_pairs``.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import combinations

from .algebra import GL, SP, AlgebraError, AlgebraSpec, parse_algebra
from .classical import shift_powers
from .elements import contract_rows, shift_commutator_residual
from .linalg import identity, mat_commutator
from .pbw import NCPolynomial, _tables, commutator
from .shifts import (
    ShiftMatrix,
    _parse_entry,
    canonical_shift,
    shift_from_designator,
    shift_from_rows,
)


class ChainStep:
    def __init__(self, k: int, shift: ShiftMatrix | None):
        self.k = k
        self.shift = shift

    def __eq__(self, other):
        if not isinstance(other, ChainStep):
            return NotImplemented
        return self.k == other.k and self.shift == other.shift


class ChainSpec:
    """A validated chain; equal specs are the same chain (a chain file and its
    default chain compare equal)."""

    def __init__(self, algebra: AlgebraSpec, steps: tuple):
        self.algebra = algebra
        self.steps = steps

    def __eq__(self, other):
        if not isinstance(other, ChainSpec):
            return NotImplemented
        return self.algebra == other.algebra and self.steps == other.steps


class FamilyGenerator:
    """The chain member (B X^N) = sum B[j,i] (X^N)[i,j] over a level block.

    B, aligned with ``indices``, is the block identity for a Casimir, the
    step's shift for a shifted generator and the unit E_ii for a terminal
    abelian X[i,i].  The U(g) element is built on first use; the top symbol
    tr(B X^N) is ranked through its closed-form gradient alone.
    """

    def __init__(self, spec: AlgebraSpec, label: str, B: tuple, N: int, indices: tuple):
        self.spec = spec
        self.label = label
        self.B = B
        self.N = N
        self.indices = indices

    @cached_property
    def poly(self) -> NCPolynomial:
        return contract_rows(self.spec, self.B, self.N, self.indices)

    def matrix_gradient(self, X):
        """Matrix gradient of tr(B X^N) at the full coordinate matrix X."""
        pos = [self.spec.position(i) for i in self.indices]
        # sum_k X^k B X^(N-1-k), the t^1 part of (X + tB)^N on the block
        G = shift_powers([[X[r][c] for c in pos] for r in pos], self.B, self.N, 1)[self.N][1]
        out = [[0] * len(X) for _ in X]
        for a, r in enumerate(pos):
            for b, c in enumerate(pos):
                out[r][c] = G[a][b]
        return out


class CommutativeFamily:
    def __init__(self, name: str, chain: ChainSpec, generators: tuple):
        self.name = name
        self.chain = chain
        self.algebra = chain.algebra
        self.generators = generators

    @property
    def labels(self):
        return [g.label for g in self.generators]


# ---------------------------------------------------------------------------
# level bookkeeping


def _level_sizes(spec: AlgebraSpec, ks):
    """Matrix sizes of the chain levels, starting at the full algebra."""
    sizes = [spec.matrix_size]
    for k in ks:
        sizes.append(sizes[-1] - (2 if spec.family == SP else k))
    return sizes


def _levels(chain: ChainSpec):
    """Each nonempty level of the chain, from the top: (size, index block, shift or None)."""
    spec = chain.algebra
    sizes = _level_sizes(spec, [s.k for s in chain.steps])
    for size, shift in zip(sizes, [s.shift for s in chain.steps] + [None]):
        if size:
            yield size, level_indices(spec, size), shift


def level_indices(spec: AlgebraSpec, size: int):
    """The index block realizing the chain level of the given matrix size."""
    if size < 0 or size > spec.matrix_size:
        raise AlgebraError(f"level size {size} out of range")
    if spec.family == GL:
        return spec.index_set[spec.matrix_size - size :]
    if size % 2 == 1 and 0 not in spec.index_set:
        raise AlgebraError("odd so level needs the odd-family index 0")
    half = size // 2
    return tuple(
        i for i in spec.index_set if -half <= i <= half and (i != 0 or size % 2 == 1)
    )


def _level_name(spec: AlgebraSpec, size: int) -> str:
    if spec.family == GL:
        return f"gl({size})"
    if spec.family == SP:
        return f"sp({size // 2})"
    return f"so({size})"


def make_chain(spec: AlgebraSpec, steps) -> ChainSpec:
    """Validate and assemble a chain; steps are (k, shift-or-None-or-'auto')."""
    for k, _ in steps:
        if spec.family == SP:
            if k != 1:
                raise AlgebraError("sp chains step down one rank at a time")
        elif k not in (1, 2):
            raise AlgebraError(f"invalid step size {k}")
    parsed = []
    sizes = _level_sizes(spec, [k for k, _ in steps])
    for (k, shift), size, new in zip(steps, sizes, sizes[1:]):
        if new < 0:
            raise AlgebraError("chain steps below the trivial algebra")
        level_idx = level_indices(spec, size)
        next_idx = level_indices(spec, new)  # raises for unrealizable levels
        if not set(next_idx) <= set(level_idx):
            raise AlgebraError(
                f"level block of size {new} does not embed in its parent block"
            )
        wants_shift = (spec.family == SP and size >= 4) or (
            spec.family != SP and k == 2
        )
        if shift == "auto":
            shift = canonical_shift(spec, -1, level_idx) if wants_shift else None
        if wants_shift and shift is None:
            raise AlgebraError(
                f"step from {_level_name(spec, size)} needs a shift matrix"
            )
        if not wants_shift and shift is not None:
            raise AlgebraError("only size-2 steps (or sp levels of rank >= 2) carry shifts")
        if shift is not None:
            _validate_chain_shift(spec, shift, level_idx)
        parsed.append(ChainStep(k, shift))
    terminal_ok = (spec.family == GL and sizes[-1] in (0, 1)) or (
        spec.family != GL and sizes[-1] == 2
    )
    if not terminal_ok:
        raise AlgebraError(
            f"chain must terminate at the abelian level, ended at size {sizes[-1]}"
        )
    return ChainSpec(spec, tuple(parsed))


def _validate_chain_shift(spec, shift: ShiftMatrix, level_idx):
    if tuple(shift.indices) != tuple(level_idx):
        raise AlgebraError("shift matrix block does not match its chain level")
    if not shift.is_numeric:
        raise AlgebraError("chain shift matrices must be numeric")
    if shift.rank() != 2:
        raise AlgebraError("chain shift matrices must have matrix rank exactly 2")
    if not shift.is_semisimple():
        raise AlgebraError("chain shift matrices must be semisimple")
    if not spec.is_gl and -1 not in shift.symmetry_signs():
        raise AlgebraError("so/sp chain shifts must lie in the algebra (sign -1)")


# ---------------------------------------------------------------------------
# generator emission


def _abelian(spec, i):
    """The terminal linear generator X[i,i], as (E_ii X^1) on the block (i,)."""
    return FamilyGenerator(spec, f"X[{i},{i}]", ((1,),), 1, (i,))


def _level_casimirs(spec, size, idx):
    name = _level_name(spec, size)
    if spec.family == GL:
        if size == 1:
            return [_abelian(spec, idx[0])]
        degrees = range(1, size + 1)
    elif spec.family != SP and size == 2:
        # terminal so(2): the single linear generator
        return [_abelian(spec, max(idx))]
    else:
        # so/sp levels: even trace powers, one per unit of the level's rank
        degrees = range(2, 2 * (size // 2) + 1, 2)
    ident = tuple(map(tuple, identity(size)))
    return [FamilyGenerator(spec, f"tr(X^{M})@{name}", ident, M, idx) for M in degrees]


def _shift_powers(spec, size):
    if spec.family == GL:
        return range(1, size)
    # so/sp shifted generators: odd powers only (even ones vanish classically)
    return range(1, size, 2)


def chain_generators(chain: ChainSpec) -> CommutativeFamily:
    spec = chain.algebra
    gens = []
    for size, idx, shift in _levels(chain):
        gens.extend(_level_casimirs(spec, size, idx))
        if shift is not None:
            name = _level_name(spec, size)
            gens.extend(FamilyGenerator(spec, f"tr(A.X^{N})@{name}", shift.rows, N, shift.indices)
                        for N in _shift_powers(spec, size))
    if spec.family == SP:
        # the torus below sp(1): the terminal abelian generator X[1,1]
        gens.append(_abelian(spec, 1))
    name = spec.designator + " chain " + "-".join(str(s.k) for s in chain.steps)
    return CommutativeFamily(name, chain, tuple(gens))


def commutativity_failures(family: CommutativeFamily):
    """All non-commuting pairs with their residuals (empty list = commutative)."""
    out = []
    gens = family.generators
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            r = commutator(gens[a].poly, gens[b].poly)
            if not r.is_zero:
                out.append((gens[a].label, gens[b].label, r))
    return out


def noncommuting_pairs(family: CommutativeFamily):
    """``commutativity_failures(family)``, certified level by level when it is empty.

    A member (B X^N) on the level block I lies in U(h_I), h_I spanned by the
    block's linear generators, and ``make_chain`` nests the blocks.  The
    tensorial identity gives [(C X), (B X^N)] = c*([B,C] X^N) for every B
    (c = 1 on gl, 2 on so/sp; ``elements.check_centralizer``), and the (C X)
    span h_J as C runs over the patterns P_g (``AlgebraSpec.realize``) of block
    J's generators.
    So the member commutes with U(h_J) when [B, C] = 0 for each such C, read
    on I's positions.  The family commutes when
      (a) each Casimir and terminal abelian member is central in U(h_I), which
          holds by construction: a Casimir's B is the identity on its block,
          and a terminal abelian member's block has one index;
      (b) each level's shift A passes the check for the next level's block;
      (c) the members of one shift commute pairwise, by theorem1's
          ``elements.shift_commutator_residual`` on A.
    If (b) or (c) fails, the all-pairs result is returned.
    """
    spec, levels = family.algebra, list(_levels(family.chain))
    units = identity(spec.dim)

    def fixes(A, block):
        pos = [spec.position(i) for i in A.indices]
        for pair in {spec.canonicalize_pair(i, j)[1] for i in block for j in block} - {None}:
            C = spec.realize(units[spec.generator_ids[pair]])
            if any(map(any, mat_commutator(A.rows, [[C[r][c] for c in pos] for r in pos]))):
                return False
        return True

    def commute(size, A):
        built = {}
        return all(shift_commutator_residual(spec, A, M, N, built).is_zero
                   for M, N in combinations(_shift_powers(spec, size), 2))

    below = [idx for _, idx, _ in levels[1:]] + [()]  # the next level's block
    shifted = [(size, A, J) for (size, _, A), J in zip(levels, below) if A is not None]
    certified = (all(fixes(A, J) for _, A, J in shifted)
                 and all(commute(size, A) for size, A, _ in shifted))
    return [] if certified else commutativity_failures(family)


# ---------------------------------------------------------------------------
# chain files: {"algebra": "gl:4", "steps": [{"k": 2, "shift": "diag:1,2,0,0"}, ...]}


def chain_from_dict(data: dict) -> ChainSpec:
    try:
        text = data["algebra"]
        raw_steps = data["steps"]
    except (KeyError, TypeError):
        raise AlgebraError("chain file needs 'algebra' and 'steps'") from None
    if not isinstance(text, str) or not isinstance(raw_steps, list):
        raise AlgebraError("chain file needs an 'algebra' string and a 'steps' list")
    spec = parse_algebra(text)
    _tables(spec)  # an algebra too large for PBW words is bad input, before any step is validated
    steps = []
    for entry in raw_steps:
        if not isinstance(entry, dict) or "k" not in entry:
            raise AlgebraError("each chain step needs a step size 'k'")
        k = entry["k"]
        if type(k) is not int:
            raise AlgebraError("step size must be an integer")
        shift = entry.get("shift")
        if shift is not None and shift != "auto":
            idx = level_indices(spec, _level_sizes(spec, [k for k, _ in steps])[-1])
            if isinstance(shift, str):
                shift = shift_from_designator(spec, shift, indices=idx)
            elif isinstance(shift, list) and all(
                isinstance(row, list) and all(type(x) in (int, str) for x in row)
                for row in shift
            ):
                rows = [[_parse_entry(str(x)) for x in row] for row in shift]
                shift = shift_from_rows(spec, rows, indices=idx)
            else:
                raise AlgebraError(
                    "shift must be a designator string or row lists of integers and strings"
                )
        steps.append((k, shift))
    return make_chain(spec, steps)


def load_chain_file(path) -> ChainSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise AlgebraError(f"chain file is not valid UTF-8 JSON: {exc}") from None
    return chain_from_dict(data)


def default_chain(spec: AlgebraSpec) -> ChainSpec:
    """A canonical maximal chain with auto shifts (gl/so: all-2 steps; sp: all-1)."""
    steps = []
    size = spec.matrix_size
    if spec.family == SP:
        while size > 2:
            steps.append((1, "auto"))
            size -= 2
    elif spec.family == GL:
        while size > 1:
            steps.append((2, "auto"))
            size -= 2
    else:
        while size > 2:
            k = 2 if size - 2 >= 2 else 1
            steps.append((k, "auto"))
            size -= k
    return make_chain(spec, steps)
