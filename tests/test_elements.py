import json
import random
from fractions import Fraction

import pytest
from oracles import (defining_matrix, degree, every_index_tuple, from_word,
                     power_bracket_residual_direct, top_symbol, total_degree, violating_shift)

from envshift import cli, pbw
from envshift import elements as el
from envshift.algebra import GL, SO_EVEN, SO_ODD, SP, AlgebraError, make_algebra, matrix_in_algebra
from envshift.chains import level_indices
from envshift.params import ParamPolynomial
from envshift.pbw import NCPolynomial, commutator, format_poly, parse
from envshift.shifts import (
    canonical_shift,
    make_shift,
    shift_from_designator,
    shift_from_rows,
    symbolic_shift,
)

GL2 = make_algebra(GL, 2)
GL3 = make_algebra(GL, 3)
SO3 = make_algebra(SO_ODD, 1)
SO4 = make_algebra(SO_EVEN, 2)
SP1 = make_algebra(SP, 1)
SP2 = make_algebra(SP, 2)


def test_matrix_power_base_cases():
    assert el.matrix_power_element(GL2, 0, 1, 2).is_zero
    assert el.matrix_power_element(GL2, 0, 1, 1) == NCPolynomial.one(GL2)
    assert el.matrix_power_element(GL2, 1, 1, 2) == NCPolynomial.generator(GL2, 1, 2)
    with pytest.raises(ValueError):
        el.matrix_power_element(GL2, -1, 1, 1)


def test_matrix_power_gl2_square():
    got = el.matrix_power_element(GL2, 2, 1, 1)
    want = from_word(GL2, [(1, 1), (1, 1)]) + from_word(GL2, [(1, 2), (2, 1)])
    assert got == want


def test_matrix_power_so3_square_definition():
    # independent construction straight from the defining sum of raw words
    got = el.matrix_power_element(SO3, 2, 1, 1)
    want = NCPolynomial.zero(SO3)
    for u in SO3.index_set:
        want = want + from_word(SO3, [(1, u), (u, 1)])
    assert got == want


def test_casimir_examples():
    assert el.casimir(GL2, 1) == NCPolynomial.generator(GL2, 1, 1) + NCPolynomial.generator(GL2, 2, 2)
    # frozen normal form; note the sign of the linear tail follows from
    # [X21, X12] = X22 - X11 (the defining-representation oracle agrees)
    assert (
        format_poly(el.casimir(GL2, 2))
        == "X[1,1].X[1,1] + 2*X[1,2].X[2,1] + X[2,2].X[2,2] + -1*X[1,1] + X[2,2]"
    )
    assert el.casimir(SO3, 1).is_zero
    with pytest.raises(ValueError):
        el.casimir(GL2, 0)


@pytest.mark.parametrize(
    "spec",
    [
        make_algebra(GL, 1), GL2, GL3,
        SO3, make_algebra(SO_ODD, 2), make_algebra(SO_ODD, 3),
        SO4, make_algebra(SO_EVEN, 3),
        SP1, SP2, make_algebra(SP, 3),
    ],
    ids=lambda s: getattr(s, "designator", s),
)
def test_casimirs_are_central(spec):
    for M in range(1, 5):
        cas = el.casimir(spec, M)
        for pair in spec.canonical_generators:
            r = commutator(cas, NCPolynomial.generator(spec, *pair))
            assert r.is_zero, (spec.designator, M, pair)


def test_odd_trace_powers_vanish_classically_for_so_sp():
    for spec in (SO3, SO4, SP1, SP2):
        # the linear trace cancels exactly; higher odd traces survive only as
        # central lower-degree elements whose classical image is zero
        assert el.casimir(spec, 1).is_zero, spec.designator
        c3 = el.casimir(spec, 3)
        assert degree(c3) < 3, spec.designator
        if not c3.is_zero:
            assert total_degree(top_symbol(c3)) < 3
        for pair in spec.canonical_generators:
            assert commutator(c3, NCPolynomial.generator(spec, *pair)).is_zero


def test_shift_generator_examples():
    A = shift_from_designator(GL3, "diag:1,2,0")
    got = el.shift_generator(GL3, A, 1)
    want = NCPolynomial.generator(GL3, 1, 1) + NCPolynomial.generator(GL3, 2, 2) * 2
    assert got == want
    got2 = el.shift_generator(GL3, A, 2)
    want2 = el.matrix_power_element(GL3, 2, 1, 1) + el.matrix_power_element(GL3, 2, 2, 2) * 2
    assert got2 == want2
    # single off-diagonal entry picks out one generator: (AX) = sum A[j,i] X[i,j]
    B = shift_from_rows(GL2, [[0, 0], [1, 0]])
    assert el.shift_generator(GL2, B, 1) == NCPolynomial.generator(GL2, 1, 2)


def test_shift_generator_validates():
    A = shift_from_designator(GL3, "diag:1,2,0")
    with pytest.raises(AlgebraError):
        el.shift_generator(GL2, A, 1)
    bad = violating_shift(SO4)
    with pytest.raises(AlgebraError):
        make_shift(SO4, bad.rows, bad.indices, declared_sign=-1)


def test_stabilizer_basis_examples():
    b1 = el.stabilizer_basis(GL3, shift_from_designator(GL3, "diag:1,1,0"))
    assert len(b1) == 5
    units = set()
    for mat in b1:
        ones = [(r, c) for r in range(3) for c in range(3) if mat[r][c] != 0]
        assert len(ones) == 1 and mat[ones[0][0]][ones[0][1]] == 1
        units.add(ones[0])
    assert units == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}

    b2 = el.stabilizer_basis(GL3, shift_from_designator(GL3, "diag:1,2,0"))
    assert len(b2) == 3

    A = shift_from_designator(SO4, "diag:0,-1,1,0")  # aligned with X[1,1]
    b3 = el.stabilizer_basis(SO4, A)
    assert len(b3) == 2


def test_centralizer_identity_gl():
    A = shift_from_designator(GL3, "diag:1,2,0")
    for B in el.stabilizer_basis(GL3, A):
        for N in range(1, 4):
            assert el.check_centralizer(GL3, A, B, N).is_zero
    # B = A commutes with itself
    assert el.check_centralizer(GL3, A, A.numeric_rows(), 2).is_zero
    # non-commuting B: residual still zero against ([A,B] X^N)
    B = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    A2 = shift_from_designator(GL2, "diag:1,2")
    assert el.check_centralizer(GL2, A2, B, 2).is_zero


def _centralizer_shifts(spec):
    """The canonical shift, the identity on a chain block and an integer matrix outside g."""
    m = spec.matrix_size
    block = {spec.position(i) for i in level_indices(spec, m - 2)}
    return {
        "shift": canonical_shift(spec, -1).numeric_rows(),
        "block-identity": [[int(r == c and r in block) for c in range(m)] for r in range(m)],
        "dense": [[(3 * r + c * c) % 5 - 2 for c in range(m)] for r in range(m)],
    }


@pytest.mark.parametrize("A", ["shift", "block-identity", "dense"])
@pytest.mark.parametrize("spec", [GL3, SO4, make_algebra(SO_ODD, 2), SP2],
                         ids=lambda s: s.designator)
def test_centralizer_identity_holds_for_every_A(spec, A):
    # [(B X), (A X^N)] = c*([A,B] X^N) needs B in g, not A: the chain certificate reads
    # it with A a level's shift, and the argument for its step (a) with A a block identity
    rows = _centralizer_shifts(spec)[A]
    assert spec.is_gl or matrix_in_algebra(spec, rows) == (A == "shift")
    for pair in spec.canonical_generators:
        B = defining_matrix(spec, pair)
        for N in (1, 2, 3):
            assert el.check_centralizer(spec, shift_from_rows(spec, rows), B, N).is_zero, (pair, N)


def test_centralizer_identity_so_sp_has_factor_two():
    # without the factor 2 the identity fails for a non-commuting member
    from envshift import linalg

    A = canonical_shift(SO4, -1)
    B = defining_matrix(SO4, (1, 2))
    lhs = commutator(el.contract_rows(SO4, B, 1), el.shift_generator(SO4, A, 2))
    bk = linalg.mat_commutator(A.numeric_rows(), B)
    once = el.contract_rows(SO4, bk, 2)
    assert not (lhs - once).is_zero
    assert (lhs - once * 2).is_zero


def test_centralizer_requires_algebra_member_for_so_sp():
    A = canonical_shift(SO4, -1)
    notin = [[Fraction(0)] * 4 for _ in range(4)]
    notin[0][1] = Fraction(1)
    with pytest.raises(AlgebraError):
        el.check_centralizer(SO4, A, notin, 1)


@pytest.mark.parametrize(
    "spec",
    [
        GL2, GL3,
        SO3, make_algebra(SO_ODD, 2), make_algebra(SO_ODD, 3),
        SO4, make_algebra(SO_EVEN, 3),
        SP1, SP2, make_algebra(SP, 3),
    ],
    ids=lambda s: s.designator,
)
def test_tensoriality_exhaustive(spec):
    for M in range(1, 4):
        for i in spec.index_set:
            for j in spec.index_set:
                for k in spec.index_set:
                    for l in spec.index_set:
                        assert el.tensorial_residual(spec, M, i, j, k, l).is_zero


def test_flip_coefficients_examples():
    cs = el.power_flip_coefficients(SO3, 2)
    assert [format_poly(c) for c in cs] == ["0", "-1", "1"]
    cs = el.power_flip_coefficients(SP1, 2)
    assert [format_poly(c) for c in cs] == ["0", "-4", "1"]
    with pytest.raises(AlgebraError):
        el.power_flip_coefficients(GL2, 2)


@pytest.mark.parametrize("spec", [SO3, SO4, SP1], ids=lambda s: s.designator)
def test_flip_expansion_and_leading_coefficient(spec):
    for M in range(0, 4):
        for i, j in every_index_tuple(spec, 2):
            assert el.flip_residual(spec, M + 1, i, j).is_zero, (M, i, j)
        coeffs = el.power_flip_coefficients(spec, M + 1)
        assert coeffs[-1] == NCPolynomial.scalar(spec, (-1) ** (M + 1))


def test_power_bracket_expansion_gl_exhaustive_small():
    for M in (1, 2):
        for N in (1, 2):
            for t in every_index_tuple(GL2, 4):
                assert el.power_bracket_residual(GL2, M, N, *t).is_zero, (M, N, t)
    assert el.power_bracket_residual(GL3, 2, 2, 1, 2, 3, 1).is_zero


def test_power_bracket_expansion_so_sp_small():
    for spec in (SO3, SP1):
        for M in (1, 2):
            for N in (0, 1, 2):
                for t in every_index_tuple(spec, 4):
                    r = el.power_bracket_residual(spec, M, N, *t)
                    assert r.is_zero, (spec.designator, M, N, t)


def _bracket_tuples(spec):
    """Every index tuple up to 3x3 matrices, a seeded sample of 12 above."""
    tuples = every_index_tuple(spec, 4)
    if spec.matrix_size > 3:
        tuples = random.Random(spec.designator).sample(tuples, 12)
    return [(M, N, *t) for M in (1, 2) for N in (0, 1, 2) for t in tuples]


@pytest.mark.parametrize("spec", [GL2, SO3, SP1, GL3, SO4, SP2], ids=lambda s: s.designator)
def test_power_bracket_table_matches_direct_products(spec):
    # one table for all the residuals, as the suite holds it; each side starts cold
    cases = _bracket_tuples(spec)
    el.clear_caches()
    products: dict = {}
    table = [el.power_bracket_residual(spec, *c, products) for c in cases]
    el.clear_caches()
    direct = [power_bracket_residual_direct(spec, *c) for c in cases]
    assert table == direct
    assert products and not any(r.terms for r in table)


@pytest.mark.parametrize("argv", [["prop1", "--algebra", "gl:2"], ["prop4", "--algebra", "so:3"]])
def test_power_bracket_suite_multiplies_each_table_key_once(argv, tmp_path, monkeypatch):
    # a product of two matrix-power elements is a table entry: one suite run
    # takes each such product once, though many residuals read it
    el.clear_caches()
    pairs = []
    real = pbw.multiply

    def spy(p, q):
        pairs.append((p, q))
        return real(p, q)

    monkeypatch.setattr(pbw, "multiply", spy)
    monkeypatch.setattr(el, "multiply", spy)
    assert cli.main(["verify", *argv, "--out", str(tmp_path / "r.json")]) == 0
    powers = {id(x) for x in el._MPE_CACHE.values()}
    keys = [(id(p), id(q)) for p, q in pairs if id(p) in powers and id(q) in powers]
    assert keys and len(keys) == len(set(keys))


def _perturbing(key):
    """``power_bracket_residual`` that raises the table entry ``key`` by X[1,1]
    right after the first residual that reads it."""
    real = el.power_bracket_residual

    def perturbing(spec, M, N, i, j, k, l, products):
        out = real(spec, M, N, i, j, k, l, products)
        if key in products and not perturbing.done:
            products[key] = products[key] + NCPolynomial.generator(spec, 1, 1)
            perturbing.done = True
        return out

    perturbing.done = False
    return perturbing


def test_power_bracket_suite_fails_on_a_perturbed_table_entry(tmp_path, monkeypatch):
    # X[1,2].X[2,1] read one generator too high: the (M,N) = (1,1) residual at
    # ijkl = (2,1,1,2) reads it as the subtrahend of its bracket, so the suite
    # must FAIL there with the re-parseable witness -X[1,1].  The fault breaks
    # the index symmetry, and (2,1,1,2) is no orbit representative, so the
    # suite runs on every tuple here, as its exhaustive oracle
    monkeypatch.setattr(cli, "orbit_representatives", every_index_tuple)
    monkeypatch.setattr(el, "power_bracket_residual", _perturbing((1, 1, 2, 1, 2, 1)))
    out = tmp_path / "r.json"
    assert cli.main(["verify", "prop1", "--algebra", "gl:2", "--out", str(out)]) == 1
    first = json.loads(out.read_text())["checks"][0]
    assert first["outcome"] == "FAIL"
    assert first["detail"] == "(M=1,N=1,ijkl=(2, 1, 1, 2))"
    assert parse(GL2, first["residual"]) == -NCPolynomial.generator(GL2, 1, 1)


def test_power_bracket_suite_fails_on_an_entry_a_representative_reads_later(tmp_path, monkeypatch):
    # X[1,2].X[1,1] is first read at ijkl = (1,1,1,2); the representative
    # (1,2,1,1) reads it again as the minuend of its bracket, so the suite as
    # it runs must FAIL there with the re-parseable witness X[1,1]
    monkeypatch.setattr(el, "power_bracket_residual", _perturbing((1, 1, 2, 1, 1, 1)))
    out = tmp_path / "r.json"
    assert cli.main(["verify", "prop1", "--algebra", "gl:2", "--out", str(out)]) == 1
    first = json.loads(out.read_text())["checks"][0]
    assert first["outcome"] == "FAIL"
    assert first["detail"] == "(M=1,N=1,ijkl=(1, 2, 1, 1))"
    assert parse(GL2, first["residual"]) == NCPolynomial.generator(GL2, 1, 1)


def test_contracted_recursion_gl():
    A = shift_from_rows(GL2, [[1, 2], [3, 5]])
    for M in (1, 2):
        for N in (1, 2, 3):
            assert el.shift_bracket_recursion_residual(GL2, M, N, A).is_zero, (M, N)
    # also with a fully symbolic matrix: one run covers all numeric A at once
    a, b, c, d = (ParamPolynomial.variable(x) for x in "abcd")
    S = shift_from_rows(GL2, [[a, b], [c, d]])
    assert el.shift_bracket_recursion_residual(GL2, 2, 2, S).is_zero


def test_contracted_recursions_so_sp():
    for spec in (SO3, SP1):
        for sign in (-1, 1):
            A = canonical_shift(spec, sign)
            for M in (1, 2):
                for N in (1, 2):
                    r1, r2 = el.contracted_recursion_residuals(spec, A, M, N, sign)
                    assert r1.is_zero and r2.is_zero, (spec.designator, sign, M, N)


def test_crossed_contraction_with_a_zero_argument_cancels_under_polarization():
    # L2(0,b) = ((PQ - QP).X^b) and L2(b,0) = -L2(0,b): the (P,Q) and (Q,P)
    # terms cancel for every shift, signed or not; L2(1,2) has no such reason
    for spec in (SO4, make_algebra(SO_ODD, 2)):
        A = symbolic_shift(spec)
        built = {}

        def L2(a, b):
            return el.polarize(spec, A, lambda P, Q: el.crossed_contraction(P, Q, a, b), built)

        for b in range(4):
            assert L2(0, b).is_zero and L2(b, 0).is_zero, (spec.designator, b)
        assert not L2(1, 2).is_zero, spec.designator


@pytest.mark.parametrize("A", ["symbolic", None])
def test_prop2_takes_each_shift_part_commutator_once(A, tmp_path, monkeypatch):
    # [P_K, Q_L] is built once per unordered pair of distinct parts (P, K) and
    # (Q, L); [P_K, P_K] is never multiplied
    requested, operands = set(), []
    real_bracket, real_commutator = el._ShiftPart.bracket, el.commutator

    def bracket(self, K, Q, L):
        if (self.key, K) != (Q.key, L):
            requested.add(frozenset({(self.key, K), (Q.key, L)}))
        return real_bracket(self, K, Q, L)

    def commutator_spy(p, q):
        operands.append((p, q))
        return real_commutator(p, q)

    monkeypatch.setattr(el._ShiftPart, "bracket", bracket)
    monkeypatch.setattr(el, "commutator", commutator_spy)
    argv = ["verify", "prop2", "--algebra", "gl:3", "--out", str(tmp_path / "r.json")]
    assert cli.main(argv + (["--A", A] if A else [])) == 0
    assert len(operands) == len(requested)
    assert not any(p is q for p, q in operands)
    pairs = [frozenset({id(p), id(q)}) for p, q in operands]
    assert len(set(pairs)) == len(pairs)


def test_prop5_builds_each_trace_chain_once(monkeypatch):
    # the basis in ``built`` keeps W(a,b) by (key, key, a, b) across
    # both signs and every (M, N), as the prop5 suite shares them
    requested, built_chains = [], []
    real_chain, real_scaled = el.trace_chain, el._ShiftPart.scaled_power

    def chain(P, Q, a, b):
        requested.append((P.key, Q.key, a, b))
        return real_chain(P, Q, a, b)

    def scaled(self, a):
        built_chains.append(a)
        return real_scaled(self, a)

    monkeypatch.setattr(el, "trace_chain", chain)
    monkeypatch.setattr(el._ShiftPart, "scaled_power", scaled)
    A, built = symbolic_shift(SO3, -1), {}
    for M in (1, 2):
        for N in (1, 2):
            r1, r2 = el.contracted_recursion_residuals(SO3, A, M, N, -1, built)
            assert r1.is_zero and r2.is_zero, (M, N)
    assert len(built_chains) == 2 * len(set(requested)) < 2 * len(requested)


def test_proposition_family_preconditions():
    with pytest.raises(AlgebraError):
        el.shift_bracket_recursion_residual(SO3, 1, 1, canonical_shift(SO3, -1))
    with pytest.raises(AlgebraError):
        el.contracted_recursion_residuals(GL2, shift_from_designator(GL2, "diag:1,2"), 1, 1, -1)
    with pytest.raises(AlgebraError):
        # the recursions need a shift of the declared symmetry sign
        el.contracted_recursion_residuals(SO3, violating_shift(SO3), 1, 1, -1)


def test_shift_commutativity_small_instances():
    A = shift_from_designator(GL2, "sym-diag:a1,a2")
    for M in range(1, 4):
        for N in range(M, 4):
            assert commutator(
                el.shift_generator(GL2, A, M), el.shift_generator(GL2, A, N)
            ).is_zero


@pytest.mark.parametrize("spec", [SO3, SO4, SP2], ids=lambda s: s.designator)
def test_negative_control_violating_shift(spec):
    bad = violating_shift(spec)
    assert not bad.symmetry_signs()
    found = False
    for M in range(1, 4):
        for N in range(M, 4):
            r = commutator(el.shift_generator(spec, bad, M), el.shift_generator(spec, bad, N))
            if not r.is_zero:
                found = True
                break
        if found:
            break
    assert found, spec.designator


def test_sp1_admits_no_violating_control():
    # any 2x2 matrix is an sp(1) member plus a multiple of the identity, and
    # the identity contributes only central elements; the helper refuses
    with pytest.raises(AlgebraError):
        violating_shift(SP1)
    rng = random.Random(3)
    for _ in range(5):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        A = shift_from_rows(SP1, rows)
        for M in range(1, 4):
            for N in range(M, 4):
                assert commutator(
                    el.shift_generator(SP1, A, M), el.shift_generator(SP1, A, N)
                ).is_zero
