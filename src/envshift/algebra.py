"""Classical matrix Lie algebras over exact rationals, in signed-index form.

gl(n) is spanned by X[i,j] with i,j running over 1..n.  The orthogonal and
symplectic algebras are realized inside gl as spans of X[i,j] with signed
indices: so(2n+1) uses -n..n, so(2n) and sp(n) use -n..-1,1..n, together
with the pair relation

    X[i,j] = -eps(i)*eps(j) * X[-j,-i],

where eps is identically 1 for so and eps(j) = sgn(j) for sp.  Only one
member of each {(i,j), (-j,-i)} pair is stored as a canonical generator;
for so the self-paired X[i,-i] vanish identically.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .params import _accumulate

GL = "gl"
SO_ODD = "so_odd"
SO_EVEN = "so_even"
SP = "sp"

FAMILIES = (GL, SO_ODD, SO_EVEN, SP)


class AlgebraError(ValueError):
    """Unknown family, bad rank parameter, or an index outside the index set."""


class AlgebraSpec:
    """One classical matrix Lie algebra: a family tag plus rank parameter n.

    A value: equal specs are one algebra, and a spec keys the rewrite tables.
    """

    def __init__(self, family: str, n: int):
        self.family = family
        self.n = n

    def __eq__(self, other):
        if not isinstance(other, AlgebraSpec):
            return NotImplemented
        return self.family == other.family and self.n == other.n

    def __hash__(self):
        return hash((self.family, self.n))

    def __repr__(self):
        return f"AlgebraSpec({self.family!r}, {self.n})"

    @cached_property
    def index_set(self) -> tuple[int, ...]:
        if self.family == GL:
            return tuple(range(1, self.n + 1))
        if self.family == SO_ODD:
            return tuple(range(-self.n, self.n + 1))
        return tuple(i for i in range(-self.n, self.n + 1) if i != 0)

    @cached_property
    def matrix_size(self) -> int:
        return len(self.index_set)

    @cached_property
    def _pos(self) -> dict:
        return {idx: p for p, idx in enumerate(self.index_set)}

    @property
    def is_gl(self) -> bool:
        return self.family == GL

    @property
    def pair_sign(self) -> int:
        """eps(j)*eps(-j), constant over the paired indices: +1 so, -1 sp."""
        return -1 if self.family == SP else 1

    @property
    def designator(self) -> str:
        if self.family == GL:
            return f"gl:{self.n}"
        if self.family == SP:
            return f"sp:{self.n}"
        return f"so:{self.matrix_size}"

    def eps(self, j: int) -> int:
        if self.family == SP:
            return -1 if j < 0 else 1
        return 1

    def position(self, i: int) -> int:
        try:
            return self._pos[i]
        except KeyError:
            raise AlgebraError(f"index {i} not in index set of {self.designator}") from None

    def canonicalize_pair(self, i: int, j: int):
        """Return (sign, canonical pair) with pair None for the zero generator."""
        self.position(i)
        self.position(j)
        if self.family == GL:
            return 1, (i, j)
        if i + j > 0:
            return 1, (i, j)
        if i + j < 0:
            return -self.eps(i) * self.eps(j), (-j, -i)
        # self-paired: X[i,-i] = -eps(i)eps(-i) X[i,-i]
        if self.family == SP:
            return 1, (i, j)
        return 1, None

    @cached_property
    def canonical_generators(self) -> tuple[tuple[int, int], ...]:
        """Canonical nonzero generators in the fixed total (PBW) order."""
        gens = []
        for i in self.index_set:
            for j in self.index_set:
                sign, pair = self.canonicalize_pair(i, j)
                if pair == (i, j) and sign == 1:
                    gens.append(pair)
        return tuple(gens)

    @cached_property
    def generator_ids(self) -> dict:
        return {pair: k for k, pair in enumerate(self.canonical_generators)}

    @cached_property
    def coordinate_pattern(self) -> tuple[tuple[int, int, int, int], ...]:
        """(row, col, sign, generator id) per nonzero entry of X = sum_g x_g P_g.

        P_g is the 0/+-1 pattern of the coordinate x_g in the matrix of
        coordinate functions: the one statement of a generator as a matrix
        (``realize``, ``coordinates_of``, ``classical.coordinate_gradient``).
        """
        out = []
        for i in self.index_set:
            for j in self.index_set:
                sign, pair = self.canonicalize_pair(i, j)
                if pair is not None:
                    out.append((self.position(i), self.position(j), sign,
                                self.generator_ids[pair]))
        return tuple(out)

    @property
    def dim(self) -> int:
        """len(canonical_generators), from the family and n alone."""
        n = self.n
        if self.family == GL:
            return n * n
        return n * (2 * n - 1) if self.family == SO_EVEN else n * (2 * n + 1)

    def realize(self, values) -> list:
        """X = sum_g x_g P_g over the index set, ``values`` aligned with
        ``canonical_generators``: every matrix the package builds from coordinates."""
        m = self.matrix_size
        rows = [[0] * m for _ in range(m)]
        for r, c, sign, g in self.coordinate_pattern:
            rows[r][c] = sign * values[g]
        return rows

    def coordinates_of(self, rows) -> tuple:
        """The inverse of ``realize`` on g: x_g = sign*X[r][c] at any entry of P_g."""
        values = [0] * self.dim
        for r, c, sign, g in self.coordinate_pattern:
            values[g] = sign * rows[r][c]
        return tuple(values)


def index_symmetries(spec: AlgebraSpec) -> list:
    """Generators of the family's index symmetry group, as maps of the index set.

    An index map s is a symmetry when X[i,j] -> X[s(i),s(j)] is an
    automorphism of g, and so of U(g).  gl takes every permutation of 1..n.
    so and sp permute the labels |i| with s(-i) = -s(i) (and s(0) = 0); so
    may flip the sign of any label, sp only of all labels at once.  Each map
    is conjugation by its permutation matrix, and eps(s(i))*eps(s(j)) =
    eps(i)*eps(j), so it keeps the pair relation.  The generators are the
    adjacent transpositions of the labels, plus the sign flip of label 1
    (so) or the global negation (sp).
    """
    idx = spec.index_set
    gens = []
    for a in range(1, spec.n):
        s = dict(zip(idx, idx))
        s[a], s[a + 1] = a + 1, a
        if not spec.is_gl:
            s[-a], s[-a - 1] = -a - 1, -a
        gens.append(s)
    if spec.family == SP:
        gens.append({i: -i for i in idx})
    elif not spec.is_gl:
        gens.append({**dict(zip(idx, idx)), 1: -1, -1: 1})
    return gens


def _orbits(items, maps) -> dict:
    """{item: the first item of its orbit}, the orbits closed under ``maps``.

    ``items`` is walked in order and each map sends an item to an item, so
    every orbit is complete before the next first item is met.
    """
    first: dict = {}
    for t in items:
        if t in first:
            continue
        first[t] = t
        todo = [t]
        while todo:
            u = todo.pop()
            for f in maps:
                v = f(u)
                if v not in first:
                    first[v] = t
                    todo.append(v)
    return first


def index_orbits(spec: AlgebraSpec, length: int) -> dict:
    """{index tuple: the first tuple of its orbit}, in the order of
    ``itertools.product(spec.index_set, repeat=length)``.

    The symmetries fix the Casimirs, so a residual built from entries
    (X^a)[r,s] at the tuple's indices and their negatives, Casimirs and
    eps products maps to the residual at s(t): it vanishes at every tuple
    of an orbit once it vanishes at the first, and the first tuple where it
    does not is the first of its orbit.
    """
    maps = [lambda u, s=s: tuple(s[i] for i in u) for s in index_symmetries(spec)]
    return _orbits(itertools.product(spec.index_set, repeat=length), maps)


def orbit_representatives(spec: AlgebraSpec, length: int) -> list:
    """The first index tuple of each orbit of the index symmetries, in the
    order of ``itertools.product(spec.index_set, repeat=length)``."""
    return [t for t, first in index_orbits(spec, length).items() if t == first]


def coordinate_pair_orbits(spec: AlgebraSpec, coordinates) -> list:
    """The first unordered pair (c, c'), c <= c', of each orbit of coordinate pairs.

    ``coordinates`` lists matrices C_c over index labels, each a sorted tuple
    of ((i, j), value).  A symmetry s acts by (s.C)[s(i),s(j)] = C[i,j], and it
    is used only when it maps every matrix to +- one of them, s.C_c =
    e_c*C_pi(c); the orbits are closed under those generators.  Matrices with
    disjoint supports make pi a permutation.  Otherwise (C_c = -C_c', say) a
    pair is still reached only from pairs whose forms vanish with its own.
    """
    where = {}
    for c, entries in enumerate(coordinates):
        where[entries] = c
        where[tuple((ij, -v) for ij, v in entries)] = c
    perms = []
    for s in index_symmetries(spec):
        images = [tuple(sorted(((s[i], s[j]), v) for (i, j), v in e)) for e in coordinates]
        if all(e in where for e in images):
            perms.append([where[e] for e in images])
    maps = [lambda p, pi=pi: tuple(sorted((pi[p[0]], pi[p[1]]))) for pi in perms]
    pairs = itertools.combinations_with_replacement(range(len(coordinates)), 2)
    return [p for p, first in _orbits(pairs, maps).items() if p == first]


def make_algebra(family: str, n: int) -> AlgebraSpec:
    if family not in FAMILIES:
        raise AlgebraError(f"unknown family {family!r}")
    if not isinstance(n, int) or n < 1:
        raise AlgebraError(f"rank parameter must be a positive integer, got {n!r}")
    return AlgebraSpec(family, n)


def parse_algebra(text: str) -> AlgebraSpec:
    """Parse a designator like ``gl:3``, ``so:5`` (matrix size) or ``sp:2``."""
    try:
        fam, _, num = text.partition(":")
        m = int(num)
    except ValueError:
        raise AlgebraError(f"bad algebra designator {text!r}") from None
    if fam == "gl":
        return make_algebra(GL, m)
    if fam == "sp":
        return make_algebra(SP, m)
    if fam == "so":
        if m < 3:
            raise AlgebraError(f"so:{m} not supported (matrix size must be >= 3)")
        if m % 2:
            return make_algebra(SO_ODD, m // 2)
        return make_algebra(SO_EVEN, m // 2)
    raise AlgebraError(f"bad algebra designator {text!r}")


def bracket_terms(spec: AlgebraSpec, i: int, j: int, k: int, l: int) -> list:
    """[X[i,j], X[k,l]] = sum c*X[r,s] as (r, s, c), over raw index pairs.

    gl:     [X_ij, X_kl] = d_kj X_il - d_il X_kj
    so/sp:  adds eps_i eps_j (d_{j,-l} X_{k,-i} - d_{k,-i} X_{-j,l}).
    """
    for idx in (i, j, k, l):
        spec.position(idx)
    e = spec.eps(i) * spec.eps(j)
    so_sp = not spec.is_gl
    return [(r, s, c) for r, s, c, applies in (
        (i, l, 1, k == j), (k, j, -1, i == l),
        (k, -i, e, so_sp and j == -l), (-j, l, -e, so_sp and k == -i)) if applies]


def bracket_structure(spec: AlgebraSpec, a, b) -> dict:
    """[X[a], X[b]] as a map {canonical pair: integer coefficient}."""
    acc: dict = {}
    for r, s, c in bracket_terms(spec, *a, *b):
        sign, pair = spec.canonicalize_pair(r, s)
        if pair is not None:
            _accumulate(acc, {pair: sign}, c)
    return {pair: c for pair, c in acc.items() if c}


def dimension_and_index(spec: AlgebraSpec) -> tuple[int, int]:
    """(dim g, ind g); the index equals the rank for these families."""
    return spec.dim, spec.n


# ---------------------------------------------------------------------------
# numeric matrices over the index set


def matrix_in_algebra(spec: AlgebraSpec, rows) -> bool:
    """Whether a numeric matrix lies in the family's matrix algebra."""
    return spec.is_gl or -1 in symmetry_signs(spec, rows)


def involution(spec: AlgebraSpec, rows, indices=None):
    """tau(B)[i,j] = -eps(i)*eps(j)*B[-j,-i]; so/sp holds the matrices with tau(A) = A.

    ``rows`` is aligned with ``indices`` (the full index set by default), and
    so is the result.  None when the block is not closed under negation,
    which every gl block is not.
    """
    idx = spec.index_set if indices is None else tuple(indices)
    pos = {v: p for p, v in enumerate(idx)}
    if any(-i not in pos for i in idx):
        return None
    return [[-spec.eps(i) * spec.eps(j) * rows[pos[-j]][pos[-i]] for j in idx] for i in idx]


def symmetry_signs(spec: AlgebraSpec, rows, indices=None) -> set:
    """The set of signs s with A = -s*tau(A), i.e. A_ij = s*eps_i*eps_j*A_{-j,-i}.

    Empty on gl, and over a block not closed under negation (``involution``).
    """
    tau = involution(spec, rows, indices)
    if tau is None:
        return set()
    return {s for s in (1, -1) if all(x == -s * t for row, trow in zip(rows, tau)
                                      for x, t in zip(row, trow))}


def sign_basis(spec: AlgebraSpec, s: int, indices=None) -> list:
    """A basis of the matrices with A = -s*tau(A) over ``indices``, in row-major order.

    Each element is a sorted tuple of ((i, j), value) over index labels:
    E_ij - s*tau(E_ij) = E_ij + s*eps(i)*eps(j)*E_{-j,-i} per pair {(i, j),
    (-j, -i)}, keyed by its smaller member, and E_ij alone for a self-paired
    entry that the sign keeps.  Empty over a block not closed under negation.
    """
    idx = spec.index_set if indices is None else tuple(indices)
    basis = []
    for i, j in itertools.product(idx, repeat=2):
        if (-j, -i) < (i, j):
            continue  # the pair is keyed by its smaller member
        unit = [[int(k == i and l == j) for l in idx] for k in idx]
        tau = involution(spec, unit, idx)
        if tau is None:
            return []
        entries = tuple(sorted(((k, l), x - s * t) for k, row, trow in zip(idx, unit, tau)
                               for l, x, t in zip(idx, row, trow) if x - s * t))
        if entries:  # a self-paired E_ij gives 2*E_ij or nothing
            basis.append(entries if (i, j) != (-j, -i) else (((i, j), 1),))
    return basis
