"""Whole-subspace verification with fully symbolic shift matrices.

One parameter per free entry makes a single vanishing commutator an identity
over every numeric shift matrix in that subspace, not just sampled instances.
"""

import itertools

import pytest

from envshift import cli, pbw
from envshift import elements as el
from envshift.algebra import coordinate_pair_orbits, parse_algebra
from envshift.params import ParamPolynomial
from envshift.pbw import NCPolynomial, commutator, format_poly
from envshift.shifts import (
    _parse_entry,
    canonical_shift,
    shift_from_designator,
    shift_from_rows,
    symbolic_shift,
)
from oracles import basis_part, exhaustive_polarize


@pytest.mark.parametrize("name", ["gl:2", "gl:3"])
def test_shift_families_commute_for_every_matrix_gl(name):
    spec = parse_algebra(name)
    A = symbolic_shift(spec)
    elems = {M: el.shift_generator(spec, A, M) for M in range(1, 4)}
    for M in range(1, 4):
        for N in range(M, 4):
            assert commutator(elems[M], elems[N]).is_zero, (name, M, N)


@pytest.mark.parametrize("name", ["so:3", "so:4", "so:5", "sp:1", "sp:2"])
@pytest.mark.parametrize("sign", [-1, 1])
def test_shift_families_commute_for_every_signed_matrix(name, sign):
    spec = parse_algebra(name)
    A = symbolic_shift(spec, sign)
    assert sign in A.symmetry_signs()
    elems = {M: el.shift_generator(spec, A, M) for M in range(1, 4)}
    for M in range(1, 4):
        for N in range(M, 4):
            assert commutator(elems[M], elems[N]).is_zero, (name, sign, M, N)


@pytest.mark.parametrize("name, A", [
    ("gl:3", lambda spec: shift_from_designator(spec, "matrix:3,1,-1;4,1,-1;-4,4,-3")),
    ("gl:3", symbolic_shift),
    ("sp:2", lambda spec: symbolic_shift(spec, -1)),
    ("sp:2", lambda spec: symbolic_shift(spec, 1)),
], ids=["gl:3-dense", "gl:3-symbolic", "sp:2-symbolic-minus", "sp:2-symbolic-plus"])
def test_equal_power_residuals_vanish(name, A):
    # the suites decide M = N by antisymmetry; the polarized residual agrees
    spec = parse_algebra(name)
    A = A(spec)
    built: dict = {}
    for M in range(1, 4):
        assert el.shift_commutator_residual(spec, A, M, M, built).is_zero, (name, M)


@pytest.mark.parametrize("name", ["so:3", "so:4", "sp:2"])
def test_generic_unconstrained_matrix_fails_symbolically(name):
    # without the symmetry condition the family is provably non-commutative:
    # the symbolic residual is a nonzero polynomial in the free entries
    spec = parse_algebra(name)
    A = symbolic_shift(spec)
    assert not A.symmetry_signs()
    found = False
    for M in range(1, 3):
        for N in range(M, 4):
            if not commutator(
                el.shift_generator(spec, A, M), el.shift_generator(spec, A, N)
            ).is_zero:
                found = True
    assert found, name


def test_contracted_recursion_for_every_matrix_gl3():
    spec = parse_algebra("gl:3")
    A = symbolic_shift(spec)
    for M, N in ((2, 2), (2, 3), (3, 3)):
        assert el.shift_bracket_recursion_residual(spec, M, N, A).is_zero, (M, N)


def test_recursion_identities_so5():
    spec = parse_algebra("so:5")
    for sign in (-1, 1):
        A = canonical_shift(spec, sign)
        for M in (1, 2):
            for N in (1, 2):
                for r in el.contracted_recursion_residuals(spec, A, M, N, sign):
                    assert r.is_zero, (sign, M, N, format_poly(r))


# ---------------------------------------------------------------------------
# the polarized residual against the direct parametric commutator


def _assert_polarized_matches_direct(spec, A, max_power=3):
    """Equal polynomials for M <= N <= max_power; returns whether any is nonzero."""
    built: dict = {}
    nonzero = False
    for M in range(1, max_power + 1):
        for N in range(M, max_power + 1):
            direct = commutator(el.shift_generator(spec, A, M), el.shift_generator(spec, A, N))
            polarized = el.shift_commutator_residual(spec, A, M, N, built)
            assert polarized == direct, (spec.designator, M, N)
            nonzero = nonzero or not direct.is_zero
    return nonzero


@pytest.mark.parametrize("name", ["gl:2", "gl:3"])
def test_polarized_residual_matches_direct_gl(name):
    spec = parse_algebra(name)
    assert not _assert_polarized_matches_direct(spec, symbolic_shift(spec))


@pytest.mark.parametrize("name", ["so:3", "so:4", "so:5", "sp:1", "sp:2"])
@pytest.mark.parametrize("sign", [-1, 1])
def test_polarized_residual_matches_direct_signed(name, sign):
    spec = parse_algebra(name)
    assert not _assert_polarized_matches_direct(spec, symbolic_shift(spec, sign))


@pytest.mark.parametrize("name", ["so:3", "so:4", "sp:2"])
def test_polarized_residual_matches_direct_on_generic_fails(name):
    spec = parse_algebra(name)
    assert _assert_polarized_matches_direct(spec, symbolic_shift(spec), max_power=2)


def test_polarized_residual_matches_direct_on_mixed_shift():
    # numbers beside parameters: the part of the monomial 1 pairs with each
    spec = parse_algebra("so:4")
    A = shift_from_designator(spec, "matrix:1,0,0,a;0,b,0,0;0,0,0,0;2,0,0,0")
    a, b = ParamPolynomial.variable("a"), ParamPolynomial.variable("b")
    assert [m for _, m in A.parts()] == [1, a, b]
    assert A.parts()[0] == ((((-2, -2), 1), ((2, -2), 2)), 1)
    assert _assert_polarized_matches_direct(spec, A)


def test_polarized_residual_groups_by_product_monomial():
    a, b = ParamPolynomial.variable("a"), ParamPolynomial.variable("b")
    gl3 = parse_algebra("gl:3")
    A = shift_from_rows(gl3, [[a * a, 1, 0], [a * b, a, 0], [0, 2 * b, 3]])
    assert len(A.parts()) == 5
    assert not _assert_polarized_matches_direct(gl3, A)
    # a^2 arises as a^2*1, 1*a^2 and a*a; on so:4 both kinds of pair
    # contribute to the coefficient of a^2, and neither cancels the other
    so4 = parse_algebra("so:4")
    B = shift_from_rows(so4, [[a + 2 * a * a, 0, 0, a + a * a], [0, a * b, 0, 0],
                              [0, 0, 0, 0], [1, 0, 0, b + 1]])
    assert _assert_polarized_matches_direct(so4, B)
    P = {(m, K): basis_part(B, entries, c).element(K)
         for c, (entries, m) in enumerate(B.parts()) for K in (1, 2)}
    one, lin, quad = 1, a, a * a
    square_pairs = commutator(P[quad, 1], P[one, 2]) + commutator(P[one, 1], P[quad, 2])
    linear_pair = commutator(P[lin, 1], P[lin, 2])
    assert not square_pairs.is_zero and not linear_pair.is_zero
    assert not (square_pairs + linear_pair).is_zero


def test_a_negated_parameter_is_the_negated_variable():
    a = ParamPolynomial.variable("a")
    assert _parse_entry("-a") == -a and _parse_entry(" a ") == a
    spec = parse_algebra("so:4")
    A = shift_from_designator(spec, "matrix:a,0,0,0;0,1,0,0;0,0,-1,0;0,0,0,-a")
    assert A.symmetry_signs() == {-1}


def test_numeric_shift_is_one_part():
    spec = parse_algebra("gl:3")
    A = shift_from_designator(spec, "matrix:1,2,0;0,1/2,0;3,0,-1")
    [(entries, m)] = A.parts()
    assert m == 1 and basis_part(A, entries, 0).rows == A.numeric_rows()
    assert not _assert_polarized_matches_direct(spec, A)


# ---------------------------------------------------------------------------
# the polarized recursions against the same forms evaluated once at (A, A)


def _direct(spec, A, form, built=None):
    """The form at (A, A) itself, with parametric coefficients: the unpolarized value."""
    whole = el._ShiftPart(spec, A.rows, A.indices)
    return form(whole, whole)


def _assert_matches_direct(monkeypatch, residual):
    """residual() with the polarizer equals residual() with ``_direct``; returns the value."""
    polarized = residual()
    with monkeypatch.context() as m:
        m.setattr(el, "polarize", _direct)
        direct = residual()
    assert polarized == direct
    return polarized


def _a2_ab_shift(spec):
    a, b = ParamPolynomial.variable("a"), ParamPolynomial.variable("b")
    return shift_from_rows(spec, [[a * a, 1, 0], [a * b, a, 0], [0, 2 * b, 3]])


@pytest.mark.parametrize("name", ["gl:2", "gl:3", "gl:3 a^2 a*b"])
def test_polarized_gl_recursion_matches_direct(name, monkeypatch):
    spec = parse_algebra(name.split()[0])
    A = _a2_ab_shift(spec) if " " in name else symbolic_shift(spec)
    for M in range(1, 4):
        for N in range(1, 4):
            r = _assert_matches_direct(
                monkeypatch, lambda: el.shift_bracket_recursion_residual(spec, M, N, A))
            assert r.is_zero, (name, M, N)


def _signed_mixed_shift(spec, sign):
    """Numbers beside parameters, placed in pairs so that the shift keeps ``sign``."""
    a, b = ParamPolynomial.variable("a"), ParamPolynomial.variable("b")
    rows = [[0] * spec.matrix_size for _ in spec.index_set]
    n = spec.n
    for (i, j), x in (((n, n), 1), ((n, -n), a), ((1, n), b * 2 + 1)):
        if (i, j) == (-j, -i) and sign * spec.eps(i) * spec.eps(j) != 1:
            continue  # a self-paired entry that this sign forces to zero
        rows[spec.position(i)][spec.position(j)] = x
        rows[spec.position(-j)][spec.position(-i)] = x * (sign * spec.eps(i) * spec.eps(j))
    A = shift_from_rows(spec, rows)
    assert A.symmetry_signs() == {sign}
    return A


@pytest.mark.parametrize("name", ["so:3", "so:4", "sp:1", "sp:2", "so:4 mixed"])
@pytest.mark.parametrize("sign", [-1, 1])
def test_polarized_so_sp_recursions_match_direct(name, sign, monkeypatch):
    spec = parse_algebra(name.split()[0])
    A = _signed_mixed_shift(spec, sign) if " " in name else symbolic_shift(spec, sign)
    max_power = 3 if spec.matrix_size < 4 else 2
    for M in range(1, max_power + 1):
        for N in range(1, max_power + 1):
            r1, r2 = _assert_matches_direct(
                monkeypatch, lambda: el.contracted_recursion_residuals(spec, A, M, N, sign))
            assert r1.is_zero and r2.is_zero, (name, sign, M, N)


def test_polarized_contractions_match_direct(monkeypatch):
    # the recursions vanish, so compare their nonzero bilinear parts too, on
    # a shift without a symmetry sign that mixes numbers and parameters
    spec = parse_algebra("so:4")
    A = shift_from_designator(spec, "matrix:1,0,0,a;0,b,0,0;0,0,0,0;2,0,0,0")
    for form in (lambda P, Q: el.trace_chain(P, Q, 1, 1),
                 lambda P, Q: el.crossed_contraction(P, Q, 1, 2)):
        r = _assert_matches_direct(monkeypatch, lambda: el.polarize(spec, A, form))
        assert any(isinstance(c, ParamPolynomial) for c in r.terms.values())


# ---------------------------------------------------------------------------
# the polarizer at orbit representatives against the exhaustive one, its
# oracle (``oracles.exhaustive_polarize``)


def _oracle(spec, A, M, N):
    """[(A X^M), (A X^N)] by the exhaustive polarizer."""
    return exhaustive_polarize(spec, A, lambda P, Q: commutator(P.element(M), Q.element(N)))


def _signed(sign):
    return lambda spec: symbolic_shift(spec, sign)


def _designated(text):
    return lambda spec: shift_from_designator(spec, text)


def _canonical(sign):
    return lambda spec: canonical_shift(spec, sign)


# (algebra, shift, max power, the basis ``polarize`` takes); where A's parts
# and coordinates are one list, ties keep the parts
CERTIFICATE_CASES = {
    "gl:2-symbolic": ("gl:2", symbolic_shift, 3, "parts"),
    "gl:3-symbolic": ("gl:3", symbolic_shift, 3, "parts"),
    "gl:4-symbolic": ("gl:4", symbolic_shift, 2, "parts"),
    "gl:4-sym-diag": ("gl:4", _designated("sym-diag:a1,a2,0,0"), 3, "parts"),
    "gl:3-dense": ("gl:3", _designated("matrix:1,3,2;-3,-3,-2;-1,-2,-1"), 3, "coordinates"),
    "gl:3-canonical": ("gl:3", _designated("diag:1,2,0"), 3, "parts"),
    "gl:3-diag-1-1-0": ("gl:3", _designated("diag:1,1,0"), 3, "parts"),
    "gl:3-zero": ("gl:3", _designated("diag:0,0,0"), 3, "parts"),
    "so:4-symbolic-minus": ("so:4", _signed(-1), 3, "parts"),
    "so:4-symbolic-plus": ("so:4", _signed(1), 3, "parts"),
    "so:4-unsigned": ("so:4", symbolic_shift, 2, "parts"),
    "so:4-violating": ("so:4", _designated("matrix:1,0,0,1;0,0,0,0;0,0,0,0;0,0,0,0"), 3, "parts"),
    "so:4-canonical-minus": ("so:4", _canonical(-1), 3, "parts"),
    "so:4-zero": ("so:4", _designated("diag:0,0,0,0"), 3, "parts"),
    "so:5-symbolic-minus": ("so:5", _signed(-1), 2, "parts"),
    "so:5-symbolic-plus": ("so:5", _signed(1), 2, "parts"),
    "so:5-canonical-plus": ("so:5", _canonical(1), 3, "parts"),
    "sp:2-symbolic-minus": ("sp:2", _signed(-1), 3, "parts"),
    "sp:2-symbolic-plus": ("sp:2", _signed(1), 3, "parts"),
    "sp:2-unsigned": ("sp:2", symbolic_shift, 2, "parts"),
    "sp:2-canonical-minus": ("sp:2", _canonical(-1), 3, "parts"),
}


def _theorem_residuals(spec, A, max_power, built):
    return [el.shift_commutator_residual(spec, A, M, N, built)
            for M in range(1, max_power + 1) for N in range(M + 1, max_power + 1)]


def _prop2_residuals(spec, A, max_power, built):
    return [el.shift_bracket_recursion_residual(spec, M, N, A, built)
            for M in range(1, max_power + 1) for N in range(1, max_power + 1)]


def _prop5_residuals(spec, A, max_power, built):
    [sign] = A.symmetry_signs()
    return [r for M in range(1, max_power + 1) for N in range(1, max_power + 1)
            for r in el.contracted_recursion_residuals(spec, A, M, N, sign, built)]


# the prop2 form, and the prop5 straight and crossed forms, as the cases above
RECURSION_CASES = {
    "prop2-gl:3-symbolic": ("gl:3", symbolic_shift, 2, "parts"),
    "prop2-gl:3-dense": ("gl:3", _designated("matrix:1,3,2;-3,-3,-2;-1,-2,-1"), 3, "coordinates"),
    "prop2-gl:3-canonical": ("gl:3", _designated("diag:1,2,0"), 3, "parts"),
    "prop5-so:4-symbolic-minus": ("so:4", _signed(-1), 2, "parts"),
    "prop5-so:4-symbolic-plus": ("so:4", _signed(1), 2, "parts"),
    "prop5-so:4-canonical-minus": ("so:4", _canonical(-1), 3, "parts"),
    "prop5-so:4-canonical-plus": ("so:4", _canonical(1), 3, "parts"),
    "prop5-sp:2-symbolic-minus": ("sp:2", _signed(-1), 2, "parts"),
    "prop5-sp:2-symbolic-plus": ("sp:2", _signed(1), 2, "parts"),
    "prop5-sp:2-canonical-minus": ("sp:2", _canonical(-1), 3, "parts"),
    "prop5-sp:2-canonical-plus": ("sp:2", _canonical(1), 3, "parts"),
}


def _case(case):
    """(spec, A, max power, basis, residuals function) of a case above."""
    if case in CERTIFICATE_CASES:
        name, shift, max_power, basis = CERTIFICATE_CASES[case]
        residuals = _theorem_residuals
    else:
        name, shift, max_power, basis = RECURSION_CASES[case]
        residuals = _prop2_residuals if case.startswith("prop2") else _prop5_residuals
    spec = parse_algebra(name)
    return spec, shift(spec), max_power, basis, residuals


def _entries(P):
    """A ``_ShiftPart``'s matrix as the sorted ((i, j), value) tuple of its nonzero entries."""
    return tuple(sorted(((i, j), v) for i, row in zip(P.indices, P.rows)
                        for j, v in zip(P.indices, row) if v))


@pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES) + sorted(RECURSION_CASES))
def test_certificate_matches_the_exhaustive_polarizer(case, monkeypatch):
    spec, A, max_power, basis, residuals = _case(case)
    real = el.polarize
    forms = []  # (P, Q) of each form evaluation, one list per polarize call

    def counting(spec, A, form, built=None):
        forms.append([])
        return real(spec, A, lambda P, Q: forms[-1].append((P.key, Q.key)) or form(P, Q), built)

    built: dict = {}
    with monkeypatch.context() as m:
        m.setattr(el, "polarize", counting)
        polarized = residuals(spec, A, max_power, built)
    with monkeypatch.context() as m:
        m.setattr(el, "polarize", exhaustive_polarize)
        oracle = residuals(spec, A, max_power, {})
    assert [format_poly(r) for r in polarized] == [format_poly(r) for r in oracle], case
    parts, pairs = built["basis"]
    chosen = [(_entries(P), a) for P, a in parts]
    assert chosen == (A.parts() if basis == "parts" else A.coordinates())
    fails = case.endswith(("unsigned", "violating"))
    assert all(r.is_zero for r in polarized) != fails
    # a passing check evaluates each form at the representative pairs once,
    # a failing one each form at every pair once
    every = sorted(itertools.product(range(len(parts)), repeat=2))
    at_representatives = sorted({(c, d) for c, d in pairs} | {(d, c) for c, d in pairs})
    assert len(forms) == len(polarized)
    for r, evaluated in zip(polarized, forms):
        assert sorted(evaluated) == (at_representatives if r.is_zero else every), case


def _suite_counts(monkeypatch, tmp_path, argv, polarize):
    """(commutator calls, report bytes, exit code) of one suite run, cold."""
    el.clear_caches()
    calls = []
    real = el.commutator
    with monkeypatch.context() as m:
        m.setattr(el, "commutator", lambda p, q: calls.append(1) or real(p, q))
        m.setattr(el, "polarize", polarize)
        path = tmp_path / f"{polarize.__name__}.json"
        code = cli.main(["verify", *argv, "--out", str(path)])
    return len(calls), path.read_bytes(), code


@pytest.mark.parametrize("argv, before, after", [
    (["theorem1", "--algebra", "gl:3", "--A", "symbolic", "--max-power", "3"], 243, 54),
    (["theorem1", "--algebra", "gl:3", "--A", "matrix:1,3,2;-3,-3,-2;-1,-2,-1",
      "--max-power", "4"], 6, 108),
    (["prop2", "--algebra", "gl:4", "--A", "symbolic", "--max-power", "4"], 3808, 296),
    (["prop5", "--algebra", "so:4", "--A", "symbolic"], 1404, 339),
    # a prop2 form holds many commutators, so the merged single part of a
    # dense A costs less than its coordinates (150 commutators) here
    (["prop2", "--algebra", "gl:3", "--A", "matrix:4,2,2;-2,2,4;3,3,2"], 7, 7),
])
def test_certificate_form_counts(argv, before, after, monkeypatch, tmp_path):
    # the exhaustive oracle counts the commutators of the polarizer before
    # the orbit reduction; both write the same report
    calls, report, code = _suite_counts(monkeypatch, tmp_path, argv, el.polarize)
    calls_exhaustive, report_exhaustive, code_exhaustive = _suite_counts(
        monkeypatch, tmp_path, argv, exhaustive_polarize)
    assert (calls_exhaustive, calls) == (before, after)
    assert code == code_exhaustive == 0 and report == report_exhaustive


@pytest.fixture
def cold_caches():
    el.clear_caches()
    yield
    el.clear_caches()


def _raised_by_transpose(real):
    """``_ShiftPart.element`` with (B.X^2) raised by (B^T.X): transposing commutes
    with the index maps, so the fault maps with the symmetries."""
    def faulty(self, K):
        out = real(self, K)
        if K == 2:
            out = out + el.contract_rows(self.spec, [list(r) for r in zip(*self.rows)], 1,
                                         self.indices)
        return out
    return faulty


def _representative_vanishing(built, form):
    """Whether each form S_cc' at the representative pairs of ``built`` vanishes."""
    parts, pairs = built["basis"]
    P = [part for part, _ in parts]
    return [(form(P[c], P[c]) if c == d else form(P[c], P[d]) + form(P[d], P[c])).is_zero
            for c, d in pairs]


@pytest.mark.parametrize("case", ["gl:3-symbolic", "gl:3-dense", "so:4-symbolic-minus",
                                  "sp:2-symbolic-minus"])
def test_an_equivariant_fault_is_caught(case, monkeypatch, cold_caches):
    spec, A, _, _, _ = _case(case)
    monkeypatch.setattr(el._ShiftPart, "element", _raised_by_transpose(el._ShiftPart.element))
    built: dict = {}
    residual = el.shift_commutator_residual(spec, A, 2, 3, built)
    oracle = _oracle(spec, A, 2, 3)
    assert not oracle.is_zero and residual == oracle
    # the fault shows at some representative pairs only, and the first of them vanishes
    vanishing = _representative_vanishing(
        built, lambda P, Q: commutator(P.element(2), Q.element(3)))
    assert vanishing[0] and not all(vanishing)


def _raised_chain(real):
    """``trace_chain`` with W(0,1) raised by ((P.Q).X^2): the index maps act on
    P and Q by conjugation, which commutes with their product, so the fault
    maps with the symmetries."""
    def faulty(P, Q, a, b):
        out = real(P, Q, a, b)
        if (a, b) == (0, 1):
            rows = [[sum(p * q for p, q in zip(prow, qcol)) for qcol in zip(*Q.rows)]
                    for prow in P.rows]
            out = out + el.contract_rows(P.spec, rows, 2, P.indices)
        return out
    return faulty


@pytest.mark.parametrize("case", ["prop5-so:4-symbolic-minus", "prop5-sp:2-symbolic-plus"])
def test_an_equivariant_fault_in_a_prop5_form_is_caught(case, monkeypatch, cold_caches):
    spec, A, _, _, _ = _case(case)
    [sign] = A.symmetry_signs()
    monkeypatch.setattr(el, "trace_chain", _raised_chain(el.trace_chain))
    residuals = el.contracted_recursion_residuals(spec, A, 1, 1, sign)
    with monkeypatch.context() as m:
        m.setattr(el, "polarize", exhaustive_polarize)
        oracles = el.contracted_recursion_residuals(spec, A, 1, 1, sign)
    assert [format_poly(r) for r in residuals] == [format_poly(r) for r in oracles]
    assert not all(r.is_zero for r in oracles)


@pytest.mark.parametrize("case", ["gl:3-dense", "sp:2-symbolic-minus"])
def test_a_corrupted_product_entry_falls_back_or_is_caught_by_the_oracle(
        case, monkeypatch, cold_caches):
    # the bracket part of one cached word * X_g negated as it is built, the
    # fault of the defining-representation tests: no index symmetry maps it,
    # so the representatives may miss it (they do on sp:2, and show it on
    # gl:3), and the exhaustive oracle must not
    spec, A, _, _, _ = _case(case)
    assert _oracle(spec, A, 2, 3).is_zero
    key = min(k for k, v in pbw._TABLES[spec]._mul.items()
              if len(k[0]) == 2 and any(len(w) <= 2 for w in v))
    el.clear_caches()
    real = pbw._Tables.mul_word_gen

    def corrupted(self, word, g):
        out = real(self, word, g)
        if (word, g) == key:
            out = {w: -c if len(w) <= len(word) else c for w, c in out.items()}
        return out

    monkeypatch.setattr(pbw._Tables, "mul_word_gen", corrupted)
    oracle = _oracle(spec, A, 2, 3)
    el.clear_caches()
    residual = el.shift_commutator_residual(spec, A, 2, 3)
    assert not oracle.is_zero
    assert residual.is_zero or residual == oracle


# ---------------------------------------------------------------------------
# the unit-matrix basis of an so/sp shift with neither symmetry sign


@pytest.mark.parametrize("name, text", [
    ("so:4", "matrix:1,0,0,1;0,0,0,0;0,0,0,0;0,0,0,0"),
    ("sp:2", "matrix:1,a,0,0;0,b,0,2;0,0,0,0;3,0,0,a"),
])
def test_an_unsigned_shift_polarizes_over_unit_matrices(name, text, cold_caches):
    # (B.X^K) is linear in any matrix B and each index map sends E_ij to
    # E_s(i)s(j), so the unit matrices are a basis for the orbit reduction
    spec = parse_algebra(name)
    A = shift_from_designator(spec, text)
    assert not A.symmetry_signs()
    coords = A.coordinates()
    assert coords == [((((i, j), 1),), x) for i, row in zip(A.indices, A.rows)
                      for j, x in zip(A.indices, row) if x]
    pairs = coordinate_pair_orbits(spec, [entries for entries, _ in coords])
    forced = {"basis": ([(basis_part(A, entries, c), a) for c, (entries, a) in enumerate(coords)],
                        pairs)}
    chosen: dict = {}
    failed = False
    for M in range(1, 4):
        for N in range(M + 1, 4):
            oracle = format_poly(_oracle(spec, A, M, N))
            assert format_poly(el.shift_commutator_residual(spec, A, M, N, forced)) == oracle
            assert format_poly(el.shift_commutator_residual(spec, A, M, N, chosen)) == oracle
            failed = failed or oracle != "0"
    assert failed
