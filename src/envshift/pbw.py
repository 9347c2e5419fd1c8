"""Exact noncommutative polynomial arithmetic in PBW normal form.

Elements of the enveloping algebra are stored as sparse maps

    word (bytes of canonical generator ids, non-decreasing) -> coefficient

with exact coefficients under the rule of ``params``: an ``int`` when
integral, a ``Fraction`` otherwise, a ``ParamPolynomial`` only when the
coefficient carries parameters.  The structure constants are integers, so
numeric work stays in machine-sized ints unless a rational shift entry
forces fractions.  The total generator order is lexicographic on (position
of i, position of j) over the ordered index set, and every public operation
returns fully normalized polynomials: an out-of-order adjacent pair X Y is
rewritten as Y X + [X, Y] until all words are sorted.  Each swap either keeps
the degree and removes an inversion or strictly drops the degree, so
rewriting terminates; confluence is checked by test against independent
rewrite strategies.

A word is ``bytes``, one byte per generator id, so an algebra may have at
most 256 canonical generators (gl:16, so:23 and sp:11 are the largest of
each family).  ``bytes`` cache their hash, which a dict lookup reads, and
they compare as the tuples of their ids do, so the order of terms is the
tuples' order.

Polynomials are immutable values and all operations are pure.  The per-algebra
rewrite caches are the only shared state: entries are deterministic functions
of their keys and writes are idempotent, so concurrent readers at worst
recompute a value.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import AlgebraError, AlgebraSpec, bracket_structure
from .params import ParamPolynomial, _accumulate, _scalar, coeff_to_str


_B = [bytes((g,)) for g in range(256)]  # the one-generator words


class _Tables:
    """Per-algebra rewriting state: id-level bracket table and product cache."""

    __slots__ = ("spec", "gens", "ids", "_bracket", "_mul")

    def __init__(self, spec: AlgebraSpec):
        if spec.dim > len(_B):
            raise AlgebraError(f"{spec.designator} has {spec.dim} generators; PBW words "
                               f"hold at most {len(_B)}")
        self.spec = spec
        self.gens = spec.canonical_generators
        self.ids = spec.generator_ids
        self._bracket: dict = {}
        self._mul: dict = {}

    def bracket(self, a: int, b: int):
        key = (a, b)
        out = self._bracket.get(key)
        if out is None:
            raw = bracket_structure(self.spec, self.gens[a], self.gens[b])
            out = tuple((self.ids[pair], c) for pair, c in sorted(raw.items()))
            self._bracket[key] = out
        return out

    def mul_word_gen(self, word: bytes, g: int) -> dict:
        """Normal form of (sorted word) * X_g as {sorted word: int}."""
        if not word or word[-1] <= g:
            return {word + _B[g]: 1}
        key = (word, g)
        cached = self._mul.get(key)
        if cached is not None:
            return cached
        head, last = word[:-1], word[-1]
        # word*g = (head*g)*last + head*[last, g]
        out = _fold(self, self.mul_word_gen(head, g), last)
        for b, cb in self.bracket(last, g):
            _accumulate(out, self.mul_word_gen(head, b), cb)
        out = self._mul[key] = {w: c for w, c in out.items() if c}
        return out


_TABLES: dict = {}


def _tables(spec: AlgebraSpec) -> _Tables:
    tab = _TABLES.get(spec)
    if tab is None:
        tab = _TABLES[spec] = _Tables(spec)
    return tab


def _fold(tab: _Tables, terms: dict, g: int) -> dict:
    """Normal form of terms * X_g, for terms over sorted words.

    Equal result words from different input words merge and zeros stay; the
    input is only read, so cached dicts may be passed.
    """
    out: dict = {}
    get = out.get
    for w, c in terms.items():
        if not w or w[-1] <= g:
            w2 = w + _B[g]
            v = get(w2)
            out[w2] = c if v is None else v + c
            continue
        for w2, c2 in tab.mul_word_gen(w, g).items():
            v = get(w2)
            out[w2] = c * c2 if v is None else v + c * c2
    return out


def _coerce_coeff(c):
    if isinstance(c, ParamPolynomial):
        return c
    if isinstance(c, (int, Fraction)):
        return _scalar(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


class NCPolynomial:
    """An element of U(g) in canonical PBW form.  Value-immutable by contract.

    Terms that are not declared normalized may key a word by any sequence of
    generator ids; the normal form keys it by ``bytes``.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: AlgebraSpec, terms=None, normalized=False):
        self.spec = spec
        if not terms:
            self.terms = {}
            return
        if normalized:
            self.terms = {w: c for w, c in terms.items() if c}
            return
        tab = _tables(spec)  # an algebra whose ids do not fit in a byte fails here, not in bytes()
        words: dict = {}
        for w, c in terms.items():
            w = bytes(w)
            words[w] = words.get(w, 0) + _coerce_coeff(c)
        self.terms = {w: c for w, c in _walk(tab, {b"": 1}, words).items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, spec):
        return cls(spec)

    @classmethod
    def scalar(cls, spec, c):
        return cls(spec, {b"": _coerce_coeff(c)}, normalized=True)

    @classmethod
    def one(cls, spec):
        return cls.scalar(spec, 1)

    @classmethod
    def generator(cls, spec, i, j):
        """X[i,j], canonicalized; the so-type zero generator yields 0."""
        sign, pair = spec.canonicalize_pair(i, j)
        if pair is None:
            return cls(spec)
        _tables(spec)  # rejects an algebra whose ids do not fit in a byte
        return cls(spec, {_B[spec.generator_ids[pair]]: sign}, normalized=True)

    # -- basic queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic -----------------------------------------------------------

    def _check_same(self, other):
        if self.spec != other.spec:
            raise AlgebraError("mixed-algebra input")

    def __add__(self, other):
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        self._check_same(other)
        acc = _accumulate(dict(self.terms), other.terms)
        return NCPolynomial(self.spec, acc, normalized=True)

    def __neg__(self):
        return NCPolynomial(self.spec, {w: -c for w, c in self.terms.items()}, normalized=True)

    def __sub__(self, other):
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        self._check_same(other)
        acc = _accumulate(dict(self.terms), other.terms, -1)
        return NCPolynomial(self.spec, acc, normalized=True)

    def __mul__(self, other):
        if isinstance(other, NCPolynomial):
            return multiply(self, other)
        c = _coerce_coeff(other)
        return NCPolynomial(
            self.spec, {w: v * c for w, v in self.terms.items()}, normalized=True
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<NCPolynomial {self.spec.designator}: {format_poly(self)}>"


def multiply(p: NCPolynomial, q: NCPolynomial) -> NCPolynomial:
    """Product in U(g): concatenate words, then rewrite to PBW normal form.

    A zero factor gives zero and a bare scalar factor {b"": c} scales the
    other one, with the coefficient products in the same order as the walk.
    """
    p._check_same(q)
    if not p.terms or not q.terms:
        return NCPolynomial(p.spec)
    if len(q.terms) == 1 and b"" in q.terms:
        c = q.terms[b""]
        return NCPolynomial(p.spec, {w: v * c for w, v in p.terms.items()}, normalized=True)
    if len(p.terms) == 1 and b"" in p.terms:
        c = p.terms[b""]
        return NCPolynomial(p.spec, {w: c * v for w, v in q.terms.items()}, normalized=True)
    return NCPolynomial(p.spec, _walk(_tables(p.spec), p.terms, q.terms), normalized=True)


def _walk(tab: _Tables, start: dict, terms: dict) -> dict:
    """The terms of start * sum c*w over the (word w, c) of terms; zeros stay.

    start holds sorted words; the words w may be unsorted.  They are visited
    in sorted order over a stack of the products start * prefix, so a prefix
    shared by several words is folded onto all of start once, and equal
    intermediate words merge.
    """
    acc: dict = {}
    path = b""
    stack = [start]  # stack[k] = start * path[:k], as terms
    for word in sorted(terms):
        k, n = 0, min(len(word), len(path))
        while k < n and word[k] == path[k]:
            k += 1
        del stack[k + 1:]
        for g in word[k:]:
            stack.append(_fold(tab, stack[-1], g))
        path = word
        _accumulate(acc, stack[-1], terms[word])
    return acc


def commutator(p: NCPolynomial, q: NCPolynomial) -> NCPolynomial:
    """[p, q] = pq - qp, normalized."""
    return multiply(p, q) - multiply(q, p)


def linear_combination(spec: AlgebraSpec, pairs) -> NCPolynomial:
    """The sum of c*p over (p, c) pairs, in normal form.

    Every sum of PBW polynomials is built here.  The pairs are read one at a
    time, so a generator of fresh products keeps at most one of them alive.
    A zero coefficient is skipped, and each coefficient multiplies the terms
    from the right, so int coefficients on int terms stay ints.
    """
    acc: dict = {}
    for p, c in pairs:
        if p.spec != spec:
            raise AlgebraError("mixed-algebra input")
        if c:
            _accumulate(acc, p.terms, c)
    return NCPolynomial(spec, acc, normalized=True)


# ---------------------------------------------------------------------------
# text format
#
# polynomial := term (" + " term)*
# term       := [coeff "*"] word | coeff
# word       := gen ("." gen)*
# gen        := "X[" int "," int "]"
# coeff      := rational "p/q" / integer, or a parenthesized parameter
#               polynomial such as "(3/2*a1^2 + -1*a2)"


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def format_poly(p: NCPolynomial) -> str:
    if not p.terms:
        return "0"
    gens = p.spec.canonical_generators
    parts = []
    for word in sorted(p.terms, key=lambda w: (-len(w), w)):
        c = p.terms[word]
        text = ".".join("X[%d,%d]" % gens[g] for g in word)
        if not word:
            parts.append(coeff_to_str(c))
        elif c == 1:
            parts.append(text)
        else:
            parts.append(f"{coeff_to_str(c)}*{text}")
    return " + ".join(parts)


# An integer (a sign only directly before digits), a name, or one symbol;
# whitespace separates tokens and is otherwise ignored.  ``re`` compiles it
# at the first parse, so a CLI process, which never parses, does not.
_TOKEN = r"(-?\d+)|(\w+)|(\S)"
_INT, _NAME, _SYMBOL = 1, 2, 3  # the group that matched


def parse(spec: AlgebraSpec, text: str) -> NCPolynomial:
    """Parse the text format back into a normalized polynomial.

    A ``ParseError`` points at the offending token or at the end of the text;
    a bad generator points at where it began.
    """
    # (kind, text, start, end) of each token, the next one last, over an end marker
    toks = [(None, None, len(text), len(text))]
    toks += reversed([(m.lastindex, m.group(), m.start(), m.end())
                      for m in re.finditer(_TOKEN, text)])

    def accept(sym) -> int | None:
        """Consume the symbol sym if it is next; the offset after it, else None."""
        return toks.pop()[3] if toks[-1][1] == sym else None

    def expect(sym) -> int:
        end = accept(sym)
        if end is None:
            raise ParseError(f"expected {sym!r}", toks[-1][2])
        return end

    def integer():
        """Consume an integer; (its value, the offset after it)."""
        if toks[-1][0] != _INT:
            raise ParseError("expected integer", toks[-1][2])
        _, tok, _, end = toks.pop()
        return int(tok), end

    def rational():
        num, _ = integer()
        if not accept("/"):
            return num
        den, end = integer()
        if den == 0:
            raise ParseError("zero denominator", end)
        return _scalar(Fraction(num, den))

    def factor():
        kind, tok, start, _ = toks[-1]
        if kind == _INT or tok == "-":
            return rational()
        if kind != _NAME:
            raise ParseError("expected parameter factor", start)
        toks.pop()
        exp = 1
        if accept("^"):
            exp, end = integer()
            if exp < 1:
                raise ParseError("exponent must be positive", end)
        return ParamPolynomial({((tok, exp),): 1})

    def param_poly():
        total = ParamPolynomial()
        while True:
            part = factor()
            while accept("*"):
                part = part * factor()
            total = total + part
            if not accept("+"):
                return total

    def word(pos):
        """(sign, ids) of gen ("." gen)* whose first gen begins at pos; (1, ()) for None."""
        sign, ids = 1, []
        while pos is not None:
            kind, tok, start, _ = toks[-1]
            if kind in (None, _SYMBOL) or tok[0] == "-":  # no word character begins it
                raise ParseError("expected name", start)
            if tok != "X":
                raise ParseError("expected generator 'X[i,j]'", pos)
            toks.pop()
            expect("[")
            i, _ = integer()
            expect(",")
            j, _ = integer()
            expect("]")
            try:
                s, pair = spec.canonicalize_pair(i, j)
            except AlgebraError as exc:
                raise ParseError(str(exc), pos) from None
            if pair is None:
                sign = 0
            else:
                sign *= s
                ids.append(spec.generator_ids[pair])
            pos = accept(".")
        return sign, tuple(ids)

    def term():
        kind, tok, start, _ = toks[-1]
        if kind is None:
            raise ParseError("unexpected end of input", start)
        if kind == _INT or tok == "-":
            coeff = rational()
        elif accept("("):
            coeff = param_poly()
            expect(")")
        else:
            return word(start)
        sign, ids = word(accept("*"))
        return coeff * sign, ids

    if len(toks) == 1:
        raise ParseError("empty input", 0)
    terms: dict = {}
    while True:
        coeff, ids = term()
        terms[ids] = terms.get(ids, 0) + coeff
        if len(toks) == 1:
            return NCPolynomial(spec, terms)
        expect("+")
