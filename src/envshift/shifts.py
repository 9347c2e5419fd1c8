"""Shift matrices: the constant matrices contracted against matrix-power elements.

A ShiftMatrix lives over an index subset of an algebra (the full index set by
default; a chain level's block otherwise).  Entries follow the coefficient
rule of ``params``: an int when integral, a Fraction otherwise, a parameter
polynomial only when the entry carries parameters.  For so/sp the symmetry
condition

    A[i,j] = s * eps(i)*eps(j) * A[-j,-i],   s in {+1, -1}

is detected on construction; the in-algebra case is s = -1.  Each sign class
is spanned by ``algebra.sign_basis``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import linalg
from .algebra import AlgebraError, AlgebraSpec, sign_basis, symmetry_signs
from .params import ParamPolynomial, _scalar


class ShiftMatrix:
    def __init__(self, spec: AlgebraSpec, indices: tuple, rows: tuple):
        m = len(indices)
        if len(rows) != m or any(len(r) != m for r in rows):
            raise AlgebraError("shift matrix shape does not match its index set")
        for idx in indices:
            spec.position(idx)
        self.spec = spec
        self.indices = indices  # algebra indices the matrix is defined over, in order
        self.rows = rows        # rows[r][c] aligned with ``indices``

    def __eq__(self, other):
        if not isinstance(other, ShiftMatrix):
            return NotImplemented
        return (self.spec, self.indices, self.rows) == (other.spec, other.indices, other.rows)

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def is_numeric(self) -> bool:
        return all(not isinstance(x, ParamPolynomial) for row in self.rows for x in row)

    def numeric_rows(self):
        """The entries as fresh lists, under the coefficient rule."""
        if not self.is_numeric:
            raise AlgebraError("operation requires a numeric shift matrix")
        return [list(row) for row in self.rows]

    def parts(self) -> list:
        """A = sum_m m*B_m over its parameter monomials m, as [(B_m, m)].

        B_m is a sorted tuple of ((i, j), value) over index labels, as in
        ``coordinates``, with values under the coefficient rule; m is 1 for
        the numbers of A and a ``ParamPolynomial`` monomial otherwise.  A
        monomial is listed only with a nonzero B_m, and a numeric matrix is
        the single part (A, 1).
        """
        out: dict = {}
        for i, row in zip(self.indices, self.rows):
            for j, x in zip(self.indices, row):
                terms = x.terms.items() if isinstance(x, ParamPolynomial) else (((), x),)
                for mono, coef in terms:
                    if coef:
                        out.setdefault(mono, []).append(((i, j), coef))
        return [(tuple(sorted(entries)), ParamPolynomial({mono: 1}) if mono else 1)
                for mono, entries in out.items()]

    def coordinates(self) -> list:
        """A = sum_c a_c*C_c over the family's shift basis, as [(C_c, a_c)], a_c nonzero.

        C_c is a sorted tuple of ((i, j), value) over index labels: the unit
        matrix E_ij of each nonzero entry, on gl and for an so/sp matrix with
        neither symmetry sign; for a sign s of an so/sp matrix, the element
        of ``algebra.sign_basis(spec, s)`` keyed by (i, j).  a_c = A[i,j], a
        number or a parameter polynomial.
        """
        entries = {(i, j): x for i, row in zip(self.indices, self.rows)
                   for j, x in zip(self.indices, row) if x}
        signs = self.symmetry_signs()
        if not signs:
            return [((((i, j), 1),), x) for (i, j), x in entries.items()]
        s = min(signs)  # both signs hold only for the zero matrix
        return [(C, entries[C[0][0]]) for C in sign_basis(self.spec, s, self.indices)
                if C[0][0] in entries]

    def symmetry_signs(self) -> set:
        """Signs s satisfied entrywise (so/sp; empty set for gl or neither sign)."""
        return symmetry_signs(self.spec, self.rows, self.indices)

    def rank(self) -> int:
        return linalg.rank(self.numeric_rows())

    def is_semisimple(self) -> bool:
        return linalg.is_semisimple(self.numeric_rows())


_PARAMETER = re.compile(r"(-?)([A-Za-z_][A-Za-z0-9_]*)")  # a name, or -name for its negation


def _parse_entry(text: str):
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return _scalar(Fraction(int(num), int(den)))
        return int(text)
    except (ValueError, ZeroDivisionError):
        pass
    signed = _PARAMETER.fullmatch(text)
    if signed:
        p = ParamPolynomial.variable(signed[2])
        return -p if signed[1] else p
    raise AlgebraError(f"bad shift matrix entry {text!r}")


def shift_from_designator(spec: AlgebraSpec, text: str, indices=None):
    """Build a ShiftMatrix from ``diag:...``, ``sym-diag:...`` or ``matrix:r;r;...``."""
    indices = tuple(indices) if indices is not None else spec.index_set
    m = len(indices)
    kind, _, body = text.partition(":")
    if kind in ("diag", "sym-diag"):
        entries = [_parse_entry(x) for x in body.split(",")]
        if len(entries) != m:
            raise AlgebraError(
                f"diagonal designator has {len(entries)} entries, index set has {m}"
            )
        if kind == "diag" and any(isinstance(e, ParamPolynomial) for e in entries):
            raise AlgebraError("diag: entries must be numeric; use sym-diag: for parameters")
        rows = tuple(
            tuple(entries[r] if r == c else 0 for c in range(m)) for r in range(m)
        )
    elif kind == "matrix":
        rows = tuple(
            tuple(_parse_entry(x) for x in row.split(",")) for row in body.split(";")
        )
    else:
        raise AlgebraError(f"bad shift matrix designator {text!r}")
    return make_shift(spec, rows, indices=indices)


def shift_from_rows(spec: AlgebraSpec, rows, indices=None):
    indices = tuple(indices) if indices is not None else spec.index_set
    parsed = tuple(
        tuple(x if isinstance(x, ParamPolynomial) else _scalar(x) for x in row)
        for row in rows
    )
    return make_shift(spec, parsed, indices=indices)


def canonical_shift(spec: AlgebraSpec, sign: int, indices=None) -> ShiftMatrix:
    """A rank-2 semisimple diagonal shift with the requested symmetry sign.

    Over an index block (the full index set by default), sign -1 lies in the
    algebra (E[t,t] - E[-t,-t], t the block's largest index); sign +1 is its
    involution-odd partner (E[t,t] + E[-t,-t]).  gl gets diag(1, 2, 0, ...).
    """
    indices = tuple(indices) if indices is not None else spec.index_set
    m = len(indices)
    rows = [[0] * m for _ in range(m)]
    if spec.is_gl:
        if m < 2:
            raise AlgebraError(f"{spec.designator} has no canonical rank-2 shift; --A is needed")
        rows[0][0] = 1
        rows[1][1] = 2
        return make_shift(spec, rows, indices)
    top = indices.index(max(indices))
    bot = indices.index(-max(indices))
    rows[top][top] = 1
    rows[bot][bot] = sign
    return make_shift(spec, rows, indices, declared_sign=sign)


def symbolic_shift(spec: AlgebraSpec, sign=None) -> ShiftMatrix:
    """A fully symbolic shift matrix: one parameter per free entry.

    sign None leaves every entry free (for gl, or as an unconstrained so/sp
    matrix); sign +-1 takes one parameter a0, a1, ... per element of
    ``algebra.sign_basis(spec, sign)``, so a vanishing result for this matrix
    proves the identity for every numeric matrix of that sign at once.
    """
    m = spec.matrix_size
    rows = [[0] * m for _ in range(m)]
    if sign is None:
        for r in range(m):
            for c in range(m):
                rows[r][c] = ParamPolynomial.variable(f"a{r}_{c}")
        return make_shift(spec, rows, spec.index_set)
    if spec.is_gl:
        raise AlgebraError("symmetry signs only apply to so/sp")
    for c, entries in enumerate(sign_basis(spec, sign)):
        p = ParamPolynomial.variable(f"a{c}")
        for (i, j), v in entries:
            rows[spec.position(i)][spec.position(j)] = p * v
    return make_shift(spec, rows, spec.index_set, declared_sign=sign)


def make_shift(spec, rows, indices, declared_sign=None):
    mat = ShiftMatrix(spec, tuple(indices), tuple(tuple(r) for r in rows))
    if declared_sign is not None:
        if spec.is_gl:
            raise AlgebraError("symmetry sign declarations only apply to so/sp")
        if declared_sign not in mat.symmetry_signs():
            raise AlgebraError(
                f"shift matrix violates the declared symmetry sign {declared_sign:+d}"
            )
    return mat
