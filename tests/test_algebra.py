import itertools
import random

import pytest
from fractions import Fraction

import oracles
from envshift import linalg
from envshift.algebra import (
    GL,
    SO_EVEN,
    SO_ODD,
    SP,
    AlgebraError,
    bracket_structure,
    dimension_and_index,
    involution,
    make_algebra,
    matrix_in_algebra,
    parse_algebra,
    sign_basis,
    symmetry_signs,
)
from envshift.chains import _levels, default_chain
from envshift.classical import algebra_projection
from envshift.params import ParamPolynomial
from envshift.shifts import shift_from_rows, symbolic_shift

ALL_SMALL = [
    make_algebra(GL, 1), make_algebra(GL, 2), make_algebra(GL, 3),
    make_algebra(SO_ODD, 1), make_algebra(SO_ODD, 2), make_algebra(SO_ODD, 3),
    make_algebra(SO_EVEN, 2), make_algebra(SO_EVEN, 3),
    make_algebra(SP, 1), make_algebra(SP, 2), make_algebra(SP, 3),
]


def test_index_sets_and_epsilon():
    gl2 = make_algebra(GL, 2)
    assert gl2.index_set == (1, 2)
    assert all(gl2.eps(j) == 1 for j in gl2.index_set)

    so3 = make_algebra(SO_ODD, 1)
    assert so3.index_set == (-1, 0, 1)
    assert all(so3.eps(j) == 1 for j in so3.index_set)

    sp1 = make_algebra(SP, 1)
    assert sp1.index_set == (-1, 1)
    assert sp1.eps(-1) == -1 and sp1.eps(1) == 1

    so4 = make_algebra(SO_EVEN, 2)
    assert so4.index_set == (-2, -1, 1, 2)


def test_epsilon_pairing_invariant():
    for spec in ALL_SMALL:
        if spec.family == GL:
            continue
        for j in spec.index_set:
            want = -1 if spec.family == SP else 1
            assert spec.eps(j) * spec.eps(-j) == want


def test_make_algebra_rejects_bad_input():
    with pytest.raises(AlgebraError):
        make_algebra(GL, 0)
    with pytest.raises(AlgebraError):
        make_algebra("su", 2)
    with pytest.raises(AlgebraError):
        parse_algebra("so:2")
    with pytest.raises(AlgebraError):
        parse_algebra("nonsense")


def test_parse_algebra_designators():
    assert parse_algebra("gl:3") == make_algebra(GL, 3)
    assert parse_algebra("so:5") == make_algebra(SO_ODD, 2)
    assert parse_algebra("so:4") == make_algebra(SO_EVEN, 2)
    assert parse_algebra("sp:2") == make_algebra(SP, 2)
    for spec in ALL_SMALL:
        if spec.matrix_size >= 3 or spec.family in (GL, SP):
            assert parse_algebra(spec.designator) == spec


def test_canonicalize_examples():
    so3 = make_algebra(SO_ODD, 1)
    assert so3.canonicalize_pair(0, -1) == (-1, (1, 0))
    assert so3.canonicalize_pair(1, -1) == (1, None)  # so self-paired: zero
    sp1 = make_algebra(SP, 1)
    assert sp1.canonicalize_pair(1, -1) == (1, (1, -1))  # already canonical
    gl2 = make_algebra(GL, 2)
    assert gl2.canonicalize_pair(2, 1) == (1, (2, 1))  # already canonical


def test_canonicalize_is_idempotent_and_sign_involutive():
    for spec in ALL_SMALL:
        if spec.family == GL:
            continue
        for i in spec.index_set:
            for j in spec.index_set:
                s, rep = spec.canonicalize_pair(i, j)
                if rep is None:
                    continue
                s2, rep2 = spec.canonicalize_pair(*rep)
                assert rep2 == rep and s2 == 1
                # the partner canonicalizes to the same generator, and the
                # product of the two signs is -eps_i eps_j
                sp, repp = spec.canonicalize_pair(-j, -i)
                assert repp == rep
                assert s * sp == -spec.eps(i) * spec.eps(j) * s * s or True
                assert sp == -spec.eps(i) * spec.eps(j) * s


def test_bracket_examples():
    gl2 = make_algebra(GL, 2)
    assert bracket_structure(gl2, (1, 1), (1, 2)) == {(1, 2): 1}
    assert bracket_structure(gl2, (1, 2), (2, 1)) == {(1, 1): 1, (2, 2): -1}
    so3 = make_algebra(SO_ODD, 1)
    assert bracket_structure(so3, (1, 1), (1, 0)) == {(1, 0): 1}


def test_bracket_rejects_outside_indices():
    gl2 = make_algebra(GL, 2)
    with pytest.raises(AlgebraError):
        bracket_structure(gl2, (1, 3), (1, 2))


def _bracket_matrix(spec, a, b):
    out = [[Fraction(0)] * spec.matrix_size for _ in range(spec.matrix_size)]
    for pair, c in bracket_structure(spec, a, b).items():
        dm = oracles.defining_matrix(spec, pair)
        for r in range(spec.matrix_size):
            for s in range(spec.matrix_size):
                out[r][s] += c * dm[r][s]
    return out


def test_brackets_match_defining_representation():
    # independent oracle: commutators of the defining matrices
    for spec in ALL_SMALL:
        for a in spec.canonical_generators:
            for b in spec.canonical_generators:
                lhs = linalg.mat_commutator(oracles.defining_matrix(spec, a),
                                            oracles.defining_matrix(spec, b))
                assert lhs == _bracket_matrix(spec, a, b), (spec.designator, a, b)


def test_bracket_antisymmetry():
    for spec in ALL_SMALL:
        if spec.n > 3:
            continue
        for a in spec.canonical_generators:
            for b in spec.canonical_generators:
                ab = bracket_structure(spec, a, b)
                ba = bracket_structure(spec, b, a)
                assert ab == {k: -v for k, v in ba.items()}


def test_jacobi_identity_exhaustive_small():
    for spec in ALL_SMALL:
        if spec.n > 2:
            continue
        gens = spec.canonical_generators
        for a, b, c in itertools.product(gens, repeat=3):
            total = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                inner = bracket_structure(spec, y, z)
                for pair, v in _jac_term(spec, x, inner).items():
                    total[pair] = total.get(pair, 0) + v
            assert not {k: v for k, v in total.items() if v}, (spec.designator, a, b, c)


def _jac_term(spec, x, inner):
    out = {}
    for pair, c in inner.items():
        for pair2, c2 in bracket_structure(spec, x, pair).items():
            out[pair2] = out.get(pair2, 0) + c * c2
    return out


def test_dimension_and_index():
    assert dimension_and_index(make_algebra(GL, 3)) == (9, 3)
    assert dimension_and_index(make_algebra(SO_EVEN, 2)) == (6, 2)
    assert dimension_and_index(make_algebra(SP, 2)) == (10, 2)
    assert dimension_and_index(make_algebra(SO_ODD, 1)) == (3, 1)


def test_dimension_formulas_up_to_four():
    for n in range(1, 5):
        assert make_algebra(GL, n).dim == n * n
        assert make_algebra(SO_ODD, n).dim == n * (2 * n + 1)
        assert make_algebra(SP, n).dim == n * (2 * n + 1)
        if n >= 1:
            assert make_algebra(SO_EVEN, n).dim == n * (2 * n - 1)


def test_dimension_is_the_number_of_canonical_generators():
    # dim is computed from the family and n; the generators are built here only to compare
    for family in (GL, SO_ODD, SO_EVEN, SP):
        for n in range(1, 9):
            spec = make_algebra(family, n)
            assert spec.dim == len(spec.canonical_generators), (family, n)


def test_matrix_coordinates_roundtrip():
    # realize and coordinates_of are inverse on g: at random X in g (a random
    # matrix plus its involution) and at random coordinates
    rng = random.Random("roundtrip")
    for name in ("gl:3", "so:4", "so:5", "sp:1", "sp:2", "sp:3"):
        spec = parse_algebra(name)
        m = spec.matrix_size
        for _ in range(5):
            R = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(m)]
            X = R if spec.is_gl else [[x + t for x, t in zip(row, trow)]
                                      for row, trow in zip(R, involution(spec, R))]
            assert matrix_in_algebra(spec, X), name
            assert spec.realize(spec.coordinates_of(X)) == X, name
            values = tuple(rng.randint(-9, 9) for _ in range(spec.dim))
            assert matrix_in_algebra(spec, spec.realize(values)), name
            assert spec.coordinates_of(spec.realize(values)) == values, name
        # the unit coordinates give each generator's pattern P_g: the defining
        # matrix, halved on sp's self-paired X[i,-i]
        for g, pair in enumerate(spec.canonical_generators):
            unit = [int(h == g) for h in range(spec.dim)]
            double = 2 if pair[0] == -pair[1] else 1
            assert [[x * double for x in row] for row in spec.realize(unit)] == \
                oracles.defining_matrix(spec, pair), (name, pair)


def test_symmetry_signs():
    so4 = make_algebra(SO_EVEN, 2)
    minus = [[Fraction(0)] * 4 for _ in range(4)]
    minus[3][3] = Fraction(1)
    minus[0][0] = Fraction(-1)
    assert symmetry_signs(so4, minus) == {-1}
    plus = [[Fraction(0)] * 4 for _ in range(4)]
    plus[3][3] = Fraction(1)
    plus[0][0] = Fraction(1)
    assert symmetry_signs(so4, plus) == {1}
    zero = [[Fraction(0)] * 4 for _ in range(4)]
    assert symmetry_signs(so4, zero) == {1, -1}


PAIR_SPECS = [parse_algebra(f"so:{m}") for m in range(3, 9)] + [
    parse_algebra(f"sp:{n}") for n in range(1, 5)]


def _random_entry(rng, symbolic):
    if not symbolic:
        return rng.randint(-3, 3)
    return sum((rng.randint(-2, 2) * ParamPolynomial.variable(v) for v in "pq"),
               ParamPolynomial.const(rng.randint(-1, 1)))


@pytest.mark.parametrize("spec", PAIR_SPECS, ids=lambda spec: spec.designator)
def test_the_pair_relation_matches_the_entrywise_oracles(spec):
    # involution, symmetry_signs, sign_basis and their callers against the
    # entry-by-entry loops they replace, on the full index set and every
    # level block of the default chain, at integer and parametric matrices
    rng = random.Random(spec.designator)
    blocks = [idx for _, idx, _ in _levels(default_chain(spec))]
    assert blocks[0] == spec.index_set
    for idx, symbolic, _ in itertools.product(blocks, (False, True), range(3)):
        R = [[_random_entry(rng, symbolic) for _ in idx] for _ in idx]
        tau = involution(spec, R, idx)
        assert tau == oracles.involution_partner(spec, R, idx)
        assert involution(spec, tau, idx) == R
        # R - s*tau(R) has the sign s
        plus, minus = ([[x - s * t for x, t in zip(row, trow)] for row, trow in zip(R, tau)]
                       for s in (1, -1))
        for sign, rows in ((None, R), (1, plus), (-1, minus)):
            signs = {s for s in (1, -1) if oracles.symmetry_holds(spec, rows, s, idx)}
            assert sign is None or sign in signs
            assert symmetry_signs(spec, rows, idx) == signs
            if idx == spec.index_set:
                assert matrix_in_algebra(spec, rows) == (-1 in signs)
                assert algebra_projection(spec, rows) == linalg.mat_scale(linalg.mat_add(
                    rows, oracles.involution_partner(spec, rows)), Fraction(1, 2))
            A = shift_from_rows(spec, rows, idx)
            assert A.coordinates() == oracles.shift_coordinates(A)
    for s in (1, -1):
        assert symbolic_shift(spec, s).rows == oracles.signed_symbolic_rows(spec, s)
    assert len(sign_basis(spec, -1)) == spec.dim
    assert len(sign_basis(spec, 1)) + spec.dim == spec.matrix_size ** 2
    open_block = spec.index_set[1:]
    rows = [[_random_entry(rng, False) for _ in open_block] for _ in open_block]
    assert involution(spec, rows, open_block) is None
    assert symmetry_signs(spec, rows, open_block) == set()
