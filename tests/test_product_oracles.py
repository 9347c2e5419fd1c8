"""Oracles for the PBW product and the coefficient rule.

* The defining representation: rho(pq) = rho(p) rho(q) in End(V), with
  ``oracles.rho`` built from ``oracles.defining_matrix`` alone, so it
  shares no code with the rewrite tables.
* The cache-free bubble rewriter: multiply(p, q) equals the normal form of
  the concatenated words under both rewrite strategies, including q's whose
  words share prefixes and q's with the empty word.
* The coefficient rule: integral numbers come out as ints, shift rows and
  stabilizer matrices reach the PBW layer as ints, exact linear algebra on
  int input yields no float, and the text format round-trips byte for byte.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envshift import cli
from envshift import elements as el
from envshift import linalg, pbw
from envshift.algebra import AlgebraError, parse_algebra
from envshift.classical import shifted_charpoly_values
from envshift.params import ParamPolynomial
from envshift.pbw import NCPolynomial, format_poly, multiply, parse
from envshift.shifts import shift_from_designator
from oracles import bubble_normal_form, rho

PARAMS = ("a", "b")


# ---------------------------------------------------------------------------
# strategies


KINDS = ("int", "fraction", "param")


@st.composite
def coefficients(draw, kinds=KINDS):
    kind = draw(st.sampled_from(kinds))
    num = draw(st.integers(-5, 5).filter(bool))
    if kind == "int":
        return num
    if kind == "fraction":
        return Fraction(num, draw(st.integers(2, 4)))
    poly = ParamPolynomial.const(num)
    for _ in range(draw(st.integers(1, 2))):
        scale = draw(st.sampled_from((1, -2, Fraction(1, 3))))
        poly = poly + ParamPolynomial.variable(draw(st.sampled_from(PARAMS))) * scale
    return poly


@st.composite
def raw_terms(draw, spec, max_deg=3, max_terms=4, kinds=KINDS):
    """Raw terms over words in any order, merged on equal words."""
    ngen = spec.dim
    terms: dict = {}
    for _ in range(draw(st.integers(1, max_terms))):
        deg = draw(st.integers(0, max_deg))
        word = tuple(draw(st.integers(0, ngen - 1)) for _ in range(deg))
        terms[word] = terms.get(word, 0) + draw(coefficients(kinds))
    return terms


@st.composite
def prefix_rich_terms(draw, spec):
    """Sorted words sharing prefixes: (), w[:1], w[:2], w and a sibling of w."""
    ngen = spec.dim
    word = tuple(sorted(draw(st.integers(0, ngen - 1)) for _ in range(3)))
    sibling = word[:2] + (draw(st.integers(word[1], ngen - 1)),)
    words = [(), word[:1], word[:2], word, sibling]
    keep = draw(st.lists(st.sampled_from(words), min_size=1, max_size=5, unique=True))
    return {w: draw(coefficients()) for w in keep}


# ---------------------------------------------------------------------------
# the defining representation


REP_SPECS = [parse_algebra(d) for d in ("gl:2", "gl:3", "so:3", "so:4", "sp:1", "sp:2")]


@pytest.mark.parametrize("spec", REP_SPECS, ids=lambda s: s.designator)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_defining_representation_is_multiplicative(spec, data):
    raw_p = data.draw(raw_terms(spec))
    raw_q = data.draw(raw_terms(spec))
    values = {
        name: data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        for name in PARAMS
    }
    p, q = NCPolynomial(spec, raw_p), NCPolynomial(spec, raw_q)
    # normalizing keeps the represented operator; the raw words stay unsorted
    assert rho(p, 1, values) == rho(NCPolynomial(spec, raw_p, normalized=True), 1, values)
    assert rho(q, 1, values) == rho(NCPolynomial(spec, raw_q, normalized=True), 1, values)
    assert rho(multiply(p, q), 1, values) == linalg.mat_mul(rho(p, 1, values), rho(q, 1, values))


# ---------------------------------------------------------------------------
# the bubble rewriter on concatenated words


def _concatenated(p, q):
    raw: dict = {}
    for w1, c1 in p.terms.items():
        for w2, c2 in q.terms.items():
            raw[w1 + w2] = raw.get(w1 + w2, 0) + c1 * c2
    return raw


FOLD_SPECS = [parse_algebra(d) for d in ("gl:3", "so:4", "sp:2")]


@pytest.mark.parametrize("spec", FOLD_SPECS, ids=lambda s: s.designator)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_prefix_shared_product_matches_bubble_rewriting(spec, data):
    p = NCPolynomial(spec, data.draw(raw_terms(spec, max_deg=2, max_terms=3)))
    q = NCPolynomial(spec, data.draw(prefix_rich_terms(spec)))
    got = multiply(p, q).terms
    raw = _concatenated(p, q)
    for strategy in ("leftmost", "rightmost"):
        assert bubble_normal_form(spec, raw, strategy) == got, strategy


def test_product_with_the_empty_word_alone():
    spec = parse_algebra("gl:3")
    p = NCPolynomial(spec, {(5, 1): 2, (0,): Fraction(1, 2)})
    three = NCPolynomial.scalar(spec, 3)
    assert multiply(p, three) == p * 3 == multiply(three, p)
    assert multiply(p, NCPolynomial.zero(spec)).is_zero
    assert multiply(NCPolynomial.zero(spec), p).is_zero


SCALARS = [3, Fraction(-2, 3), ParamPolynomial.variable("a") * 2 + 1]


@pytest.mark.parametrize("c", SCALARS, ids=("int", "fraction", "param"))
@pytest.mark.parametrize("designator", ["gl:3", "so:4"])
def test_scalar_and_zero_factors_take_the_short_path_to_the_same_product(designator, c):
    # a bare scalar {(): c} on either side scales the other factor; the
    # general path is reached through distributivity, (c + g)q - gq
    spec = parse_algebra(designator)
    cached = el.matrix_power_element(spec, 2, 1, 2)
    g = NCPolynomial.generator(spec, 2, 1)
    s = NCPolynomial.scalar(spec, c)
    for q in (cached, cached * c + NCPolynomial.scalar(spec, Fraction(1, 2))):
        snapshot = dict(q.terms)
        for got, general, raw in (
            (multiply(s, q), multiply(s + g, q) - multiply(g, q), _concatenated(s, q)),
            (multiply(q, s), multiply(q, s + g) - multiply(q, g), _concatenated(q, s)),
        ):
            assert got == general
            assert got.terms == bubble_normal_form(spec, raw)
            assert got.terms is not q.terms and got.terms is not s.terms
            got.terms.clear()
            assert q.terms == snapshot
        zero = NCPolynomial.zero(spec)
        assert multiply(zero, q).is_zero and multiply(q, zero).is_zero
    assert el.matrix_power_element(spec, 2, 1, 2) is cached and cached.terms
    if isinstance(c, int):
        assert all(type(v) is int for v in multiply(s, cached).terms.values())


# ---------------------------------------------------------------------------
# linear combinations


@pytest.mark.parametrize("designator", ["gl:3", "so:4"])
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_linear_combination_is_the_folded_sum(designator, kind, data):
    spec = parse_algebra(designator)
    polys = [NCPolynomial(spec, data.draw(raw_terms(spec, max_deg=2, max_terms=3, kinds=(kind,))))
             for _ in range(data.draw(st.integers(1, 4)))]
    pairs = [(p, data.draw(coefficients((kind,)))) for p in polys]
    pairs += [(polys[0], -pairs[0][1]), (polys[-1], 0)]  # a cancelling pair and a zero coefficient
    want = NCPolynomial.zero(spec)
    for p, c in pairs:
        want = want + p * c
    got = pbw.linear_combination(spec, pairs)
    assert got == want
    assert all(got.terms.values())
    if kind == "int":
        assert all(type(c) is int for c in got.terms.values())
    # pairs are read once, in order: a one-shot generator of fresh products gives the same sum
    products = ((multiply(p, NCPolynomial.one(spec)), c) for p, c in pairs)
    assert pbw.linear_combination(spec, products) == want
    assert next(products, None) is None


def test_linear_combination_rejects_another_algebra():
    gl3, so4 = parse_algebra("gl:3"), parse_algebra("so:4")
    with pytest.raises(AlgebraError, match="mixed-algebra"):
        pbw.linear_combination(gl3, [(NCPolynomial.generator(so4, 2, 1), 1)])
    assert pbw.linear_combination(gl3, []) == NCPolynomial.zero(gl3)


# ---------------------------------------------------------------------------
# the coefficient rule


def _integral_fractions(values):
    return [c for c in values if isinstance(c, Fraction) and c.denominator == 1]


@pytest.mark.parametrize("designator", ["gl:3", "so:5", "sp:2"])
def test_entry_points_give_ints_for_integral_numbers(designator):
    spec = parse_algebra(designator)
    for pair in spec.canonical_generators:
        for i, j in (pair, (-pair[1], -pair[0])):
            if i in spec.index_set and j in spec.index_set:
                gen = NCPolynomial.generator(spec, i, j)
                assert not _integral_fractions(gen.terms.values())
    text = " + ".join(
        f"{c}*X[{i},{j}]" for c, (i, j) in zip(("4/2", "-3", "5/3"), spec.canonical_generators)
    )
    parsed = parse(spec, text + " + 6/3")
    assert not _integral_fractions(parsed.terms.values())
    assert parsed.terms[b""] == 2 and type(parsed.terms[b""]) is int
    m = spec.matrix_size
    diag = "diag:" + ",".join(["4/2", "1/2"] + ["0"] * (m - 2))
    A = shift_from_designator(spec, diag)
    assert not _integral_fractions(x for row in A.rows for x in row)
    assert type(A.rows[0][0]) is int and A.rows[1][1] == Fraction(1, 2)


def test_param_polynomial_coefficients_follow_the_rule():
    for c in (3, Fraction(6, 2), Fraction(-4, 1)):
        assert not _integral_fractions(ParamPolynomial.const(c).terms.values())
    p = ParamPolynomial({(("a", 1),): Fraction(4, 2), (): Fraction(1, 2)})
    assert type(p.terms[(("a", 1),)]) is int
    a = ParamPolynomial.variable("a")
    assert not _integral_fractions(a.terms.values())
    # the scalar fast path: scaling builds no constant polynomial
    assert a * 1 is a and (a * 0).is_zero and (a * 3).terms == {(("a", 1),): 3}


@pytest.mark.parametrize(
    "designator, diag, outside",
    [
        ("gl:4", "diag:1,2,0,0", [[0, 1, 0, 0], [3, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
        ("so:4", "diag:-1,0,0,1", None),
    ],
)
def test_centralizer_operands_follow_the_rule(designator, diag, outside, monkeypatch):
    spec = parse_algebra(designator)
    A = shift_from_designator(spec, diag)
    assert all(type(x) is int for row in A.numeric_rows() for x in row)
    basis = el.stabilizer_basis(spec, A)
    assert basis and all(type(x) is int for B in basis for row in B for x in row)
    seen = []
    real = pbw.multiply

    def spy(p, q):
        seen.extend(p.terms.values())
        seen.extend(q.terms.values())
        return real(p, q)

    # the commutators inside check_centralizer multiply through pbw.multiply
    monkeypatch.setattr(pbw, "multiply", spy)
    for B in basis + ([outside] if outside else []):
        assert el.check_centralizer(spec, A, B, 2).is_zero
    assert seen and all(type(c) is int for c in seen)


@pytest.mark.parametrize("suite, algebra, shift", [
    ("prop2", "gl:3", "symbolic"),
    ("prop2", "gl:3", "sym-diag:a,b,c"),
    ("prop5", "so:4", "symbolic"),
    ("prop5", "so:4", "sym-diag:a,b,b,a"),
    ("theorem2", "so:4", "symbolic"),
])
def test_symbolic_suites_multiply_numbers_only(suite, algebra, shift, tmp_path, monkeypatch):
    # a symbolic shift is polarized: every product the suite takes has
    # numeric coefficients, and parameters appear only in a FAIL witness
    operands = []
    real_multiply, real_commutator = pbw.multiply, el.commutator

    def parametric(p):
        return any(isinstance(c, ParamPolynomial) for c in p.terms.values())

    def spy_multiply(p, q):
        operands.append(parametric(p) or parametric(q))
        return real_multiply(p, q)

    def spy_commutator(p, q):
        operands.append(parametric(p) or parametric(q))
        return real_commutator(p, q)

    monkeypatch.setattr(pbw, "multiply", spy_multiply)
    monkeypatch.setattr(el, "multiply", spy_multiply)
    monkeypatch.setattr(el, "commutator", spy_commutator)
    out = tmp_path / "rep.json"
    argv = ["verify", suite, "--algebra", algebra, "--A", shift, "--max-power", "2"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert operands and not any(operands)


def test_linalg_stays_exact_on_int_input():
    X = [[2, 1, 0], [1, 3, 0], [0, 0, 0]]
    A = [[1, 0, 0], [0, 2, 0], [0, 0, 0]]
    exact = (int, Fraction)
    assert all(isinstance(c, exact) for c in linalg.charpoly(X))
    assert linalg.charpoly(X) == [1, -5, 5, 0]
    assert linalg.is_semisimple(X) and linalg.is_semisimple(A)
    assert not linalg.is_semisimple([[0, 1], [0, 0]])
    values = shifted_charpoly_values(X, A, [(2, 1), (3, 1), (3, 2)])
    assert all(isinstance(v, exact) for v in values.values())


@pytest.mark.parametrize(
    "text",
    [
        "3*X[1,2].X[2,1] + -1*X[1,1] + 7",
        "3/2*X[1,2].X[2,1] + -1/3*X[2,2] + 5/7",
        "(3/2*a1^2 + -1*a2)*X[1,2] + (2*a1)*X[2,2] + (1 + a2)",
        # a shift parameter may start with an underscore
        "(_a^2 + -1*_a*b_1)*X[1,2] + (2*_a)",
    ],
    ids=["integral", "rational", "parametric", "underscore-parameters"],
)
def test_text_format_round_trips_byte_for_byte(text):
    spec = parse_algebra("gl:2")
    once = format_poly(parse(spec, text))
    assert format_poly(parse(spec, once)) == once
