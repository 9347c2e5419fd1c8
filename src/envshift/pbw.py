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

    Equal result words from different input words merge; zero entries are
    dropped.  The input is only read, so cached dicts may be passed.
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
    return {w: c for w, c in out.items() if c}


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
        tab = _tables(spec)
        acc: dict = {}
        for word, c in terms.items():
            c = _coerce_coeff(c)
            if not c:
                continue
            folded = {b"": c}
            for g in word:
                folded = _fold(tab, folded, g)
            _accumulate(acc, folded)
        self.terms = {w: c for w, c in acc.items() if c}

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

    @classmethod
    def from_word(cls, spec, pairs, coeff=1):
        """Product of raw-index generators X[i1,j1]...X[ik,jk] times coeff."""
        c = _coerce_coeff(coeff)
        word = []
        for i, j in pairs:
            sign, pair = spec.canonicalize_pair(i, j)
            if pair is None:
                return cls(spec)
            c = c * sign
            word.append(spec.generator_ids[pair])
        return cls(spec, {tuple(word): c})

    # -- basic queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Maximal word length; -1 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=-1)

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

    def __hash__(self):
        return hash((self.spec, frozenset((w, str(c)) for w, c in self.terms.items())))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<NCPolynomial {self.spec.designator}: {format_poly(self)}>"


def multiply(p: NCPolynomial, q: NCPolynomial) -> NCPolynomial:
    """Product in U(g): concatenate words, then rewrite to PBW normal form.

    q's words are visited in sorted order over a stack of the products
    p * prefix, so a prefix shared by several words of q is folded onto all
    of p once, and equal intermediate words merge.  A zero factor gives zero
    and a bare scalar factor {b"": c} scales the other one, with the
    coefficient products in the same order as the general path.
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
    tab = _tables(p.spec)
    acc: dict = {}
    path = b""
    stack = [p.terms]  # stack[k] = p * path[:k], as terms
    for word in sorted(q.terms):
        k, n = 0, min(len(word), len(path))
        while k < n and word[k] == path[k]:
            k += 1
        del stack[k + 1:]
        for g in word[k:]:
            stack.append(_fold(tab, stack[-1], g))
        path = word
        _accumulate(acc, stack[-1], q.terms[word])
    return NCPolynomial(p.spec, acc, normalized=True)


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


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def expect(self, ch):
        self._skip()
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def take_int(self):
        self._skip()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise ParseError("expected integer", start)
        return int(self.text[start:self.pos])

    def take_name(self):
        self._skip()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected name", start)
        return self.text[start:self.pos]

    def done(self):
        self._skip()
        return self.pos >= len(self.text)


def parse(spec: AlgebraSpec, text: str) -> NCPolynomial:
    """Parse the text format back into a normalized polynomial."""
    lex = _Lexer(text)
    if lex.done():
        raise ParseError("empty input", 0)
    terms: dict = {}
    while True:
        coeff, word = _parse_term(spec, lex)
        word = tuple(word)
        terms[word] = terms.get(word, 0) + coeff
        if lex.done():
            break
        lex.expect("+")
    return NCPolynomial(spec, terms)


def _parse_rational(lex: _Lexer):
    num = lex.take_int()
    if lex.peek() == "/":
        lex.expect("/")
        den = lex.take_int()
        if den == 0:
            raise ParseError("zero denominator", lex.pos)
        return _scalar(Fraction(num, den))
    return num


def _parse_param_poly(lex: _Lexer):
    total = ParamPolynomial()
    while True:
        part = ParamPolynomial.const(1)
        while True:
            ch = lex.peek()
            if ch is not None and (ch.isdigit() or ch == "-"):
                part = part * _parse_rational(lex)
            elif ch is not None and (ch.isalpha() or ch == "_"):
                name = lex.take_name()
                exp = 1
                if lex.peek() == "^":
                    lex.expect("^")
                    exp = lex.take_int()
                    if exp < 1:
                        raise ParseError("exponent must be positive", lex.pos)
                mono = ParamPolynomial({((name, 1),): 1})
                for _ in range(exp):
                    part = part * mono
            else:
                raise ParseError("expected parameter factor", lex.pos)
            if lex.peek() == "*":
                lex.expect("*")
            else:
                break
        total = total + part
        if lex.peek() == "+":
            lex.expect("+")
        else:
            break
    return total


def _parse_gen(spec: AlgebraSpec, lex: _Lexer):
    pos = lex.pos
    name = lex.take_name()
    if name != "X":
        raise ParseError("expected generator 'X[i,j]'", pos)
    lex.expect("[")
    i = lex.take_int()
    lex.expect(",")
    j = lex.take_int()
    lex.expect("]")
    try:
        sign, pair = spec.canonicalize_pair(i, j)
    except AlgebraError as exc:
        raise ParseError(str(exc), pos) from None
    return sign, pair


def _parse_word(spec: AlgebraSpec, lex: _Lexer):
    sign = 1
    word = []
    while True:
        s, pair = _parse_gen(spec, lex)
        if pair is None:
            sign = 0
        else:
            sign *= s
            word.append(spec.generator_ids[pair])
        if lex.peek() == ".":
            lex.expect(".")
        else:
            break
    return sign, word


def _parse_term(spec: AlgebraSpec, lex: _Lexer):
    ch = lex.peek()
    if ch is None:
        raise ParseError("unexpected end of input", lex.pos)
    if ch.isdigit() or ch == "-":
        coeff = _parse_rational(lex)
        if lex.peek() == "*":
            lex.expect("*")
            sign, word = _parse_word(spec, lex)
            return coeff * sign, word
        return coeff, []
    if ch == "(":
        lex.expect("(")
        coeff = _parse_param_poly(lex)
        lex.expect(")")
        if lex.peek() == "*":
            lex.expect("*")
            sign, word = _parse_word(spec, lex)
            return coeff * sign, word
        return coeff, []
    sign, word = _parse_word(spec, lex)
    return sign, word
