"""Sparse commutative polynomials with exact rational coefficients.

Used as an alternative coefficient domain so shift matrices can carry symbolic
entries (a1, a2, ...): a single vanishing check then covers a Zariski-dense
family of numeric shift matrices at once.  Only ring operations are needed,
never division by a parameter.  The same ring, with canonical generator ids as
variables, holds the classical images on g* (see ``classical``); one
polynomial never mixes the two kinds of variable.

Coefficient rule, shared with the PBW layer: a number is an ``int`` when it
is integral and a ``Fraction`` only when its denominator is not 1.
Arithmetic may still leave an integral ``Fraction``; it compares, hashes and
prints like the ``int``, so values are normalized at the entry points only.
All three coefficient domains (int, Fraction, ParamPolynomial) are false
exactly when zero.
"""

from __future__ import annotations

from fractions import Fraction


def _accumulate(acc: dict, terms: dict, scale=1) -> dict:
    """acc += scale * terms, in place; zero entries stay until the caller drops them."""
    get = acc.get
    if scale == 1:
        for w, c in terms.items():
            v = get(w)
            acc[w] = c if v is None else v + c
    else:
        for w, c in terms.items():
            v = get(w)
            acc[w] = c * scale if v is None else v + c * scale
    return acc


def _scalar(c):
    """c as an exact number under the coefficient rule."""
    if isinstance(c, int):
        return int(c)
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class ParamPolynomial:
    """Sparse polynomial: monomial tuple ((var, exp), ...) sorted by var -> int or Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for mono, c in (terms or {}).items():
            c = _scalar(c)
            if c:
                self.terms[mono] = c

    @classmethod
    def const(cls, c) -> "ParamPolynomial":
        return cls({(): c})

    @classmethod
    def variable(cls, name: str) -> "ParamPolynomial":
        return cls({((name, 1),): 1})

    @classmethod
    def _of(cls, terms: dict) -> "ParamPolynomial":
        """Wrap terms that already follow the rule and hold no zeros."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @staticmethod
    def _coerce(other):
        if isinstance(other, ParamPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPolynomial.const(other)
        return None

    def __add__(self, other):
        if isinstance(other, ParamPolynomial):
            other = other.terms
        elif isinstance(other, (int, Fraction)):
            other = {(): other}
        else:
            return NotImplemented
        terms = _accumulate(dict(self.terms), other)
        return ParamPolynomial._of({m: c for m, c in terms.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return ParamPolynomial._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if not isinstance(other, ParamPolynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            # scalar: scale the terms, no constant polynomial is built
            if other == 1:
                return self
            if not other:
                return ParamPolynomial()
            return ParamPolynomial._of({m: c * other for m, c in self.terms.items()})
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return ParamPolynomial._of({m: c for m, c in terms.items() if c})

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            factors = [f"{name}^{exp}" if exp > 1 else name for name, exp in mono]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"ParamPolynomial({self})"


def _mono_mul(m1, m2):
    """The product of two monomials, each sorted by variable, in one merge."""
    if not m1 or not m2:
        return m1 or m2
    out, i, j, n1, n2 = [], 0, 0, len(m1), len(m2)
    while i < n1 and j < n2:
        (v1, e1), (v2, e2) = m1[i], m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i, j = i + 1, j + 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


def coeff_to_str(c) -> str:
    """Render a coefficient; parametric ones are parenthesized."""
    if isinstance(c, ParamPolynomial):
        return f"({c})"
    return str(c)
