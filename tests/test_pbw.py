import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envshift.algebra import GL, SO_EVEN, SO_ODD, SP, AlgebraError, make_algebra, parse_algebra
from envshift.params import ParamPolynomial
from envshift.pbw import (
    NCPolynomial,
    ParseError,
    _fold,
    _tables,
    commutator,
    format_poly,
    multiply,
    parse,
)
from oracles import bubble_normal_form, from_word

GL2 = make_algebra(GL, 2)
SO3 = make_algebra(SO_ODD, 1)


def test_normal_form_one_swap():
    p = from_word(GL2, [(2, 1), (1, 2)])
    assert format_poly(p) == "X[1,2].X[2,1] + -1*X[1,1] + X[2,2]"


def test_normal_form_ordered_input_unchanged():
    p = from_word(GL2, [(1, 2), (2, 1)])
    assert format_poly(p) == "X[1,2].X[2,1]"


def test_multiply_unit_and_ordered():
    p = from_word(GL2, [(1, 2), (2, 1)]) + NCPolynomial.scalar(GL2, 5)
    assert multiply(NCPolynomial.one(GL2), p) == p
    q = multiply(NCPolynomial.generator(GL2, 1, 1), NCPolynomial.generator(GL2, 1, 2))
    assert format_poly(q) == "X[1,1].X[1,2]"


def test_multiply_square_of_sum():
    # (X12 + X21)^2 expanded by hand: X21 X12 = X12 X21 - X11 + X22
    s = NCPolynomial.generator(GL2, 1, 2) + NCPolynomial.generator(GL2, 2, 1)
    got = multiply(s, s)
    want = (
        from_word(GL2, [(1, 2), (1, 2)])
        + from_word(GL2, [(1, 2), (2, 1)]) * 2
        + from_word(GL2, [(2, 1), (2, 1)])
        + NCPolynomial.generator(GL2, 1, 1) * -1
        + NCPolynomial.generator(GL2, 2, 2)
    )
    assert got == want


def test_commutator_basics():
    p = from_word(GL2, [(1, 2), (2, 2)]) + NCPolynomial.generator(GL2, 2, 1) * 3
    assert commutator(p, p).is_zero
    assert commutator(
        NCPolynomial.generator(GL2, 1, 1), NCPolynomial.generator(GL2, 1, 2)
    ) == NCPolynomial.generator(GL2, 1, 2)


def test_trace_element_is_central_on_low_degree_words():
    trace = NCPolynomial.generator(GL2, 1, 1) + NCPolynomial.generator(GL2, 2, 2)
    gens = list(GL2.canonical_generators)
    words = [[a] for a in gens]
    words += [[a, b] for a in gens for b in gens]
    words += [[a, b, c] for a in gens for b in gens for c in gens]
    for w in words:
        r = commutator(trace, from_word(GL2, w))
        assert r.is_zero, w


def _random_poly(spec, rng, max_deg=2, max_terms=3):
    gens = spec.canonical_generators
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_deg)
        word = tuple(sorted(rng.randrange(len(gens)) for _ in range(deg)))
        terms[word] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return NCPolynomial(spec, terms, normalized=False)


@pytest.mark.parametrize("spec", [GL2, SO3], ids=["gl2", "so3"])
def test_associativity_sampled(spec):
    rng = random.Random(2024)
    for _ in range(100):
        p, q, r = (_random_poly(spec, rng) for _ in range(3))
        assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))


@pytest.mark.parametrize("spec", [GL2, SO3], ids=["gl2", "so3"])
def test_leibniz_sampled(spec):
    rng = random.Random(77)
    for _ in range(100):
        p, q, r = (_random_poly(spec, rng) for _ in range(3))
        lhs = commutator(p, multiply(q, r))
        rhs = multiply(commutator(p, q), r) + multiply(q, commutator(p, r))
        assert lhs == rhs


def test_degree_one_commutators_match_structure_constants():
    from envshift.algebra import SO_EVEN, bracket_structure, make_algebra

    specs = [make_algebra(GL, n) for n in (1, 2, 3)]
    specs += [make_algebra(SO_ODD, n) for n in (1, 2, 3)]
    specs += [make_algebra(SO_EVEN, n) for n in (1, 2, 3)]
    specs += [make_algebra(SP, n) for n in (1, 2, 3)]
    for spec in specs:
        for a in spec.canonical_generators:
            for b in spec.canonical_generators:
                got = commutator(
                    NCPolynomial.generator(spec, *a), NCPolynomial.generator(spec, *b)
                )
                want = NCPolynomial(
                    spec,
                    {
                        bytes((spec.generator_ids[pair],)): Fraction(c)
                        for pair, c in bracket_structure(spec, a, b).items()
                    },
                    normalized=True,
                )
                assert got == want, (spec.designator, a, b)


@pytest.mark.parametrize("spec", [GL2, SO3], ids=["gl2", "so3"])
def test_confluence_of_rewrite_strategies(spec):
    rng = random.Random(5150)
    gens = spec.canonical_generators
    for _ in range(100):
        deg = rng.randint(2, 4)
        word = tuple(rng.randrange(len(gens)) for _ in range(deg))
        left = bubble_normal_form(spec, {word: Fraction(1)}, "leftmost")
        right = bubble_normal_form(spec, {word: Fraction(1)}, "rightmost")
        prod = NCPolynomial(spec, {word: Fraction(1)}).terms
        assert left == right == prod, word


def test_confluence_worked_example_so3():
    p = from_word(SO3, [(1, 0), (0, 1), (1, 1)])
    raw = {}
    ids = [SO3.generator_ids[(1, 0)], SO3.generator_ids[(0, 1)], SO3.generator_ids[(1, 1)]]
    raw[tuple(ids)] = Fraction(1)
    left = bubble_normal_form(SO3, raw, "leftmost")
    right = bubble_normal_form(SO3, raw, "rightmost")
    assert left == right == p.terms


def test_a_fold_that_cancels_partway_leaves_no_zero():
    # in (1 + X11 + X22).(X12.X21) the walk's first fold takes 1.X12 = X12 and
    # X22.X12 = X12.X22 - X12, so the word X12 cancels; its zero stays on the
    # walk's stack, is folded on by X21 and is dropped only from the product
    p = NCPolynomial.one(GL2) + NCPolynomial.generator(GL2, 1, 1) + NCPolynomial.generator(
        GL2, 2, 2)
    q = from_word(GL2, [(1, 2), (2, 1)], 2)
    x12 = GL2.generator_ids[(1, 2)]
    assert _fold(_tables(GL2), p.terms, x12)[bytes([x12])] == 0
    got = multiply(p, q)
    raw = {w + v: c * d for w, c in p.terms.items() for v, d in q.terms.items()}
    assert got.terms == bubble_normal_form(GL2, raw)
    assert all(got.terms.values())
    assert _tables(GL2)._mul and all(all(t.values()) for t in _tables(GL2)._mul.values())


def test_zero_generator_kills_words():
    assert NCPolynomial.generator(SO3, 1, -1).is_zero
    assert from_word(SO3, [(1, 1), (1, -1)]).is_zero


def test_word_ids_fit_in_a_byte():
    # gl:16 has 256 generators, ids 0 to 255: the most a bytes word holds
    gl16 = make_algebra(GL, 16)
    top, below = NCPolynomial.generator(gl16, 16, 16), NCPolynomial.generator(gl16, 16, 15)
    assert top.terms == {bytes((255,)): 1} and below.terms == {bytes((254,)): 1}
    assert format_poly(multiply(top, below)) == "X[16,15].X[16,16] + X[16,15]"
    # gl:17, so:24 and sp:12 have 289, 276 and 300
    for spec in (make_algebra(GL, 17), make_algebra(SO_EVEN, 12), make_algebra(SP, 12)):
        assert spec.dim > 256
        with pytest.raises(AlgebraError, match="at most 256"):
            NCPolynomial.generator(spec, 1, 1)
        with pytest.raises(AlgebraError, match="at most 256"):
            parse(spec, "X[1,1]")


def test_an_oversized_algebra_is_refused_before_its_generators_are_built():
    # building the canonical generators of gl:1000 would take about a million pairs
    spec = parse_algebra("gl:1000")
    with pytest.raises(AlgebraError, match="at most 256"):
        _tables(spec)
    assert "canonical_generators" not in vars(spec)


def test_mixed_algebra_rejected():
    p = NCPolynomial.generator(GL2, 1, 1)
    q = NCPolynomial.generator(make_algebra(GL, 3), 1, 1)
    with pytest.raises(AlgebraError):
        multiply(p, q)
    with pytest.raises(AlgebraError):
        _ = p + q


# ---------------------------------------------------------------------------
# text format


def test_parse_examples():
    assert parse(GL2, "0").is_zero
    p = parse(GL2, "3/2*X[1,2].X[2,1] + -1*X[1,1]")
    assert p.terms == {
        bytes((GL2.generator_ids[(1, 2)], GL2.generator_ids[(2, 1)])): Fraction(3, 2),
        bytes((GL2.generator_ids[(1, 1)],)): Fraction(-1),
    }
    q = parse(GL2, "X[2,1].X[1,2]")
    assert format_poly(q) == "X[1,2].X[2,1] + -1*X[1,1] + X[2,2]"


def test_parse_whitespace_insensitive():
    a = parse(GL2, " 3/2 * X[ 1 , 2 ] . X[2,1]+-1*X[1,1] ")
    b = parse(GL2, "3/2*X[1,2].X[2,1] + -1*X[1,1]")
    assert a == b


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse(GL2, "3/2*X[1,2")
    assert err.value.pos >= 0
    with pytest.raises(ParseError):
        parse(GL2, "X[5,1]")  # unknown index
    with pytest.raises(ParseError):
        parse(GL2, "")
    with pytest.raises(ParseError):
        parse(GL2, "1/0")
    for text, message, pos in [
        ("X[1,2]..X[2,1]", "expected name", 7),
        ("3/", "expected integer", 2),
        ("1*", "expected name", 2),
        ("X[1,2] X[2,1]", "expected '+'", 7),
        ("(a^0)*X[1,1]", "exponent must be positive", 4),
        ("X[1,2] + ", "unexpected end of input", 9),
        ("Y[1,2]", "expected generator 'X[i,j]'", 0),
        ("(a + )", "expected parameter factor", 5),
        ("- 1", "expected integer", 0),
        ("1/0", "zero denominator", 3),
    ]:
        with pytest.raises(ParseError) as err:
            parse(GL2, text)
        assert (str(err.value), err.value.pos) == (f"{message} (at position {pos})", pos), text
    # a digit that int() does not read is no integer
    with pytest.raises(ParseError, match=r"expected integer \(at position 4\)"):
        parse(GL2, "X[1,²]")


def test_parse_parametric_coefficients():
    a1 = ParamPolynomial.variable("a1")
    p = NCPolynomial(GL2, {(0,): a1 * 2, (): a1 * a1 + 3})
    text = format_poly(p)
    assert parse(GL2, text) == p


@st.composite
def nc_polys(draw, spec):
    gens = spec.canonical_generators
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        deg = draw(st.integers(0, 3))
        word = tuple(draw(st.integers(0, len(gens) - 1)) for _ in range(deg))
        num = draw(st.integers(-6, 6))
        den = draw(st.integers(1, 4))
        terms[word] = Fraction(num, den)
    return NCPolynomial(spec, terms)


@settings(max_examples=60, deadline=None)
@given(nc_polys(GL2))
def test_roundtrip_gl2(p):
    assert parse(GL2, format_poly(p)) == p


@settings(max_examples=60, deadline=None)
@given(nc_polys(SO3))
def test_roundtrip_so3(p):
    assert parse(SO3, format_poly(p)) == p


SP2 = make_algebra(SP, 2)


@settings(max_examples=60, deadline=None)
@given(nc_polys(SP2))
def test_roundtrip_sp2(p):
    # negative signed indices must survive the text format
    assert parse(SP2, format_poly(p)) == p
