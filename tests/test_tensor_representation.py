"""U(g) against its action on tensor powers of the defining representation.

``oracles.rho`` sends each canonical generator to its ``defining_matrix``
acting on V^(x)d and each PBW word to the product of those operators.  It
reads no structure constant and no rewrite table, so a wrong bracket or a
corrupted product cache shows as rho failing to respect a bracket or a product.
The theorem and the prop1/prop4 expansion are checked the same way: the
shifted family's operators commute, and both sides of the expansion agree
with every product taken as a matrix product.
"""

import itertools
import random
from functools import cache, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import rho, violating_shift
from test_product_oracles import raw_terms

from envshift import elements as el
from envshift import linalg, pbw
from envshift.algebra import orbit_representatives, parse_algebra
from envshift.pbw import NCPolynomial, commutator, multiply
from envshift.shifts import canonical_shift, shift_from_rows

CASES = [("gl:3", 2), ("gl:3", 3), ("so:4", 2), ("sp:2", 2)]
NUMERIC = ("int", "fraction")


def _generators(spec):
    return [NCPolynomial.generator(spec, *pair) for pair in spec.canonical_generators]


def _bracket_failures(spec, d):
    """The generator pairs (a, b) with rho([X_a, X_b]) != [rho X_a, rho X_b]."""
    gens = _generators(spec)
    ops = [rho(x, d) for x in gens]
    return [(a, b) for a, b in itertools.product(range(len(gens)), repeat=2)
            if rho(commutator(gens[a], gens[b]), d) != linalg.mat_commutator(ops[a], ops[b])]


def _assert_multiplicative(p, q, d):
    rp, rq = rho(p, d), rho(q, d)
    assert rho(multiply(p, q), d) == linalg.mat_mul(rp, rq), (p, q)
    assert rho(commutator(p, q), d) == linalg.mat_commutator(rp, rq), (p, q)


def _power_elements(spec):
    first, second, last = spec.index_set[0], spec.index_set[1], spec.index_set[-1]
    return [el.matrix_power_element(spec, M, i, j) for M, i, j in
            ((1, first, second), (2, first, last), (2, last, second), (3, second, first))]


@pytest.mark.parametrize("name,d", CASES)
def test_rho_respects_every_generator_bracket(name, d):
    assert _bracket_failures(parse_algebra(name), d) == []


@pytest.mark.parametrize("name,d", CASES)
def test_rho_is_multiplicative_on_matrix_power_elements(name, d):
    elements = _power_elements(parse_algebra(name))
    for p, q in itertools.product(elements, repeat=2):
        _assert_multiplicative(p, q, d)


@pytest.mark.parametrize("name,d", CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_rho_is_multiplicative_on_drawn_elements(name, d, data):
    spec = parse_algebra(name)
    p, q = (NCPolynomial(spec, data.draw(raw_terms(spec, kinds=NUMERIC))) for _ in range(2))
    _assert_multiplicative(p, q, d)


@pytest.mark.parametrize("name,d", CASES)
def test_rho_of_the_builders_is_the_sum_of_generator_products(name, d):
    spec = parse_algebra(name)
    idx = spec.index_set
    X = {(i, j): rho(NCPolynomial.generator(spec, i, j), d) for i in idx for j in idx}
    rng = random.Random(name)
    A = shift_from_rows(spec, [[rng.randint(-3, 3) for _ in idx] for _ in idx])
    power = X  # (X^M)[i,j] as operators, from the generators' operators alone
    for M in range(1, 4):
        if M > 1:
            power = {(i, j): reduce(linalg.mat_add, (linalg.mat_mul(power[i, u], X[u, j])
                                                     for u in idx))
                     for i in idx for j in idx}
        for (i, j), op in power.items():
            assert rho(el.matrix_power_element(spec, M, i, j), d) == op, (M, i, j)
        assert rho(el.casimir(spec, M), d) == reduce(linalg.mat_add, (power[i, i] for i in idx))
        contracted = (linalg.mat_scale(power[i, j], A.rows[pj][pi])
                      for pi, i in enumerate(idx) for pj, j in enumerate(idx))
        assert rho(el.shift_generator(spec, A, M), d) == reduce(linalg.mat_add, contracted)


def _theorem_shifts(spec):
    """The dense shift matrix:1,2,3;... on gl, the canonical shift of each sign on so/sp."""
    if spec.is_gl:
        m = spec.matrix_size
        return [shift_from_rows(spec, [[r * m + c + 1 for c in range(m)] for r in range(m)])]
    return [canonical_shift(spec, -1), canonical_shift(spec, 1)]


def _shifted_family_commutators(spec, A, d):
    """[rho (A.X^M), rho (A.X^N)] for M < N <= 3, by (M, N)."""
    ops = {M: rho(el.shift_generator(spec, A, M), d) for M in range(1, 4)}
    return {(M, N): linalg.mat_commutator(ops[M], ops[N])
            for M, N in itertools.combinations(ops, 2)}


@pytest.mark.parametrize("name,d", [("gl:3", 2), ("so:4", 2), ("sp:2", 2)])
def test_rho_of_the_shifted_family_commutes(name, d):
    spec = parse_algebra(name)
    zero = linalg.mat_scale(linalg.identity(spec.matrix_size ** d), 0)
    for A in _theorem_shifts(spec):
        for MN, bracket in _shifted_family_commutators(spec, A, d).items():
            assert bracket == zero, (A.rows, MN)


@pytest.mark.parametrize("name,d", [("so:4", 2), ("sp:2", 3)])
def test_rho_tells_a_shift_without_a_symmetry_sign(name, d):
    # at sp:2 the first nonzero bracket, [(A.X^2), (A.X^3)], is zero on V(x)V
    spec = parse_algebra(name)
    zero = linalg.mat_scale(linalg.identity(spec.matrix_size ** d), 0)
    brackets = _shifted_family_commutators(spec, violating_shift(spec), d)
    assert any(b != zero for b in brackets.values())


@pytest.mark.parametrize("name", ["gl:3", "so:4"])
def test_rho_of_both_sides_of_the_power_bracket_expansion_agree(name):
    """prop1 (gl) / prop4 (so/sp) at every orbit representative for M, N <= 2, on V(x)V:
    each product the matrix product of the operators of its factors."""
    spec, d = parse_algebra(name), 2
    X = cache(lambda a, i, j: rho(el.matrix_power_element(spec, a, i, j), d))

    def product(coef, a, i, j, b, k, l):
        return linalg.mat_scale(linalg.mat_mul(X(a, i, j), X(b, k, l)), coef)

    flip = {N: [rho(c, d) for c in el.power_flip_coefficients(spec, N)]
            for N in (1, 2) if not spec.is_gl}
    for M, N in itertools.product((1, 2), repeat=2):
        for i, j, k, l in orbit_representatives(spec, 4):
            rhs = []
            for S in range(1, M + 1):
                rhs += [product(1, M + N - S, i, l, S - 1, k, j),
                        product(-1, S - 1, i, l, M + N - S, k, j)]
            e1, e2 = spec.eps(-l) * spec.eps(k), spec.eps(-k) * spec.eps(l)
            for p, cp in enumerate(flip.get(N, ())):
                part = []
                for S in range(1, M + 1):
                    part += [product(e1, M + p - S, i, -k, S - 1, -l, j),
                             product(-e2, S - 1, i, -k, M + p - S, -l, j)]
                rhs.append(linalg.mat_scale(linalg.mat_mul(cp, reduce(linalg.mat_add, part)),
                                            spec.pair_sign))
            lhs = linalg.mat_commutator(X(M, i, j), X(N, k, l))
            assert lhs == reduce(linalg.mat_add, rhs), (M, N, i, j, k, l)


@pytest.fixture
def cold_caches():
    el.clear_caches()
    yield
    el.clear_caches()


@pytest.mark.parametrize("name,d", CASES)
def test_a_flipped_structure_constant_is_caught(name, d, monkeypatch, cold_caches):
    spec = parse_algebra(name)
    real = pbw.bracket_structure
    x, y = next((x, y) for x, y in itertools.combinations(spec.canonical_generators, 2)
                if real(spec, x, y))
    target = next(iter(real(spec, x, y)))

    def flipped(spec, a, b):
        out = dict(real(spec, a, b))
        if {a, b} == {x, y}:
            out[target] = -out[target]
        return out

    monkeypatch.setattr(pbw, "bracket_structure", flipped)
    assert _bracket_failures(spec, d) != []


@pytest.mark.parametrize("name,d", CASES)
def test_a_corrupted_product_cache_entry_is_caught(name, d, cold_caches):
    spec = parse_algebra(name)
    p = el.matrix_power_element(spec, 2, spec.index_set[-1], spec.index_set[0])
    x = _generators(spec)[0]
    _assert_multiplicative(p, x, d)  # fills the cache with the entries word * X_0
    table = pbw._TABLES[spec]._mul
    key = min(k for k in table if k[1] == 0 and k[0] in p.terms)
    # the bracket part of word * X_0 with its sign flipped
    table[key] = {w: -c if len(w) <= len(key[0]) else c for w, c in table[key].items()}
    assert rho(multiply(p, x), d) != linalg.mat_mul(rho(p, d), rho(x, d))
