import random
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from envshift import elements as el
from envshift import linalg, pbw
from envshift.algebra import (
    GL,
    SO_EVEN,
    SO_ODD,
    SP,
    AlgebraError,
    dimension_and_index,
    make_algebra,
    parse_algebra,
)
from envshift.chains import chain_generators, default_chain, load_chain_file, make_chain
from envshift.classical import PointOnDual, coordinate_gradient, derive_rng
from envshift.independence import (
    brailov_duality_check,
    jacobian_rank,
    shift_family,
    tangent_intersection_dim,
    transcendency_check,
)
from envshift.params import ParamPolynomial
from envshift.shifts import canonical_shift, shift_from_designator
from oracles import (family, gradient, hand_picked_shift_family, power_trace, shift_expand_gradient,
                     shift_pair_gradient, shift_pair_trace, top_symbol)

GL2 = make_algebra(GL, 2)
GL3 = make_algebra(GL, 3)
SO4 = make_algebra(SO_EVEN, 2)


def _zero_gradient(X):
    return linalg.mat_scale(X, 0)


def _square_of_trace_gradient(X):
    """Matrix gradient 2 tr(X) I of tr(X)^2."""
    return linalg.mat_scale(linalg.identity(len(X)), 2 * linalg.trace(X))


def _assert_rows_match(spec, fs, polys, seed, trials=3):
    """The closed-form rows equal the symbolic gradients at jacobian_rank's points."""
    for t in range(trials):
        point = PointOnDual.random(spec, derive_rng(seed, t))
        X = point.coordinate_realization()
        assert [coordinate_gradient(spec, G) for G in fs(X)] == [
            gradient(p, point) for p in polys
        ]


def test_rank_certificate_examples():
    A = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    gens = family(partial(shift_expand_gradient, A=A, M=1, k=0),
                  partial(shift_expand_gradient, A=A, M=2, k=0),
                  partial(shift_pair_gradient, A=A, N=1))
    _assert_rows_match(
        GL2, gens, [power_trace(GL2, 1), power_trace(GL2, 2), shift_pair_trace(GL2, A, 1)], 42
    )
    cert = jacobian_rank(gens, GL2, trials=3, seed=42)
    assert cert.rank == 3 and cert.target == 3 and cert.verdict == "PASS"
    assert cert.stable and len(cert.ranks) == 3

    _assert_rows_match(GL2, family(_zero_gradient), [ParamPolynomial.const(5)], 1, trials=2)
    single = jacobian_rank(family(_zero_gradient), GL2, trials=2, seed=1)
    assert single.rank == 0 and single.verdict == "FAIL"


def test_rank_rejects_an_empty_family():
    with pytest.raises(AlgebraError, match="^empty generator list$"):
        jacobian_rank(family(), GL2)


def test_rank_rejects_a_label_count_mismatch():
    gens = family(_zero_gradient, _square_of_trace_gradient)
    assert jacobian_rank(gens, GL2, labels=["a", "b"]).labels == ("a", "b")
    for labels in (["a"], ["a", "b", "c"]):
        with pytest.raises(AlgebraError, match="labels for 2 generators"):
            jacobian_rank(gens, GL2, labels=labels)


def test_rank_rejects_symbolic_generators():
    for gen in (el.casimir(GL2, 2), power_trace(GL2, 2)):
        for gens in (gen, [gen]):
            with pytest.raises(AlgebraError):
                jacobian_rank(gens, GL2)


def test_rank_negative_control():
    t = power_trace(GL2, 1)
    A = [[1, 0], [0, 2]]
    gens = family(partial(shift_expand_gradient, A=A, M=1, k=0), _square_of_trace_gradient)
    _assert_rows_match(GL2, gens, [t, t * t], 3)
    cert = jacobian_rank(gens, GL2, trials=3, seed=3)
    assert cert.rank == 1 and cert.verdict == "FAIL"


def test_rank_monotonicity_and_duplication():
    A = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    base = [partial(shift_expand_gradient, A=A, M=1, k=0), partial(shift_pair_gradient, A=A, N=2)]
    extra = partial(shift_expand_gradient, A=A, M=2, k=0)
    _assert_rows_match(
        GL2, family(*base, extra),
        [power_trace(GL2, 1), shift_pair_trace(GL2, A, 2), power_trace(GL2, 2)], 5,
    )
    r_base = jacobian_rank(family(*base), GL2, trials=3, seed=5).rank
    r_more = jacobian_rank(family(*base, extra), GL2, trials=3, seed=5).rank
    r_dup = jacobian_rank(family(*base, base[0]), GL2, trials=3, seed=5).rank
    assert r_more >= r_base
    assert r_dup == r_base


def test_transcendency_check_chain_targets():
    for name, steps, target in [
        ("gl:3", [(2, "auto")], 6),
        ("so:4", [(2, "auto")], 4),
        ("sp:2", [(1, "auto")], 6),
    ]:
        from envshift.algebra import parse_algebra

        spec = parse_algebra(name)
        cert = transcendency_check(chain_generators(make_chain(spec, steps)), trials=3, seed=42)
        assert cert.target == target and cert.verdict == "PASS", name
        assert cert.rank <= len(cert.labels)


CHAIN_FILES = sorted((Path(__file__).resolve().parent.parent / "scripts" / "chains").glob("*.json"))
ORACLE_CHAINS = ("gl:3", "gl:4", "gl:5", "so:4", "so:5", "so:6", "so:7", "sp:2", "sp:3")


@pytest.mark.parametrize("path", CHAIN_FILES, ids=[p.name for p in CHAIN_FILES])
def test_chain_file_is_its_default_chain(path):
    # so the oracle below, run on the default chains, covers every chain file
    chain = load_chain_file(path)
    assert chain == default_chain(chain.algebra)
    assert chain.algebra.designator in ORACLE_CHAINS


@pytest.mark.parametrize("name", ORACLE_CHAINS)
def test_chain_member_gradients_match_top_symbols(name):
    chain = default_chain(parse_algebra(name))
    spec = chain.algebra
    fam = chain_generators(chain)
    symbols = [top_symbol(g.poly) for g in fam.generators]
    for s in range(3):
        point = PointOnDual.random(spec, derive_rng("chain-oracle", name, s))
        X = point.coordinate_realization()
        for g, f in zip(fam.generators, symbols):
            row = coordinate_gradient(spec, g.matrix_gradient(X))
            assert any(row), (name, g.label)
            assert row == gradient(f, point), (name, g.label)


def test_transcendency_check_builds_no_enveloping_element(monkeypatch):
    calls = []
    modules = [m for n, m in sys.modules.items() if n == "envshift" or n.startswith("envshift.")]
    for target in (pbw.multiply, el.contract_rows):
        def spy(*args, _target=target, **kwargs):
            calls.append(_target.__name__)
            return _target(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is target:
                    monkeypatch.setattr(mod, attr, spy)
    for name in ("gl:3", "so:5", "sp:2"):
        family = chain_generators(default_chain(parse_algebra(name)))
        cert = transcendency_check(family, trials=2, seed=5)
        assert cert.verdict == "PASS", name
    assert calls == []


@pytest.mark.parametrize("name, target", [
    ("gl:6", 21), ("gl:7", 28), ("so:7", 12), ("so:8", 16), ("sp:4", 20),
])
def test_default_chains_reach_their_targets_at_larger_rank(name, target):
    family = chain_generators(default_chain(parse_algebra(name)))
    cert = transcendency_check(family, trials=1, seed=42)
    assert cert.target == target and cert.ranks == (target,), name


def test_certificate_serialization_is_deterministic():
    spec = GL2
    A = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    gens = family(partial(shift_expand_gradient, A=A, M=1, k=0),
                  partial(shift_pair_gradient, A=A, N=1))
    a = jacobian_rank(gens, spec, trials=3, seed=9).serialize()
    b = jacobian_rank(gens, spec, trials=3, seed=9).serialize()
    assert a == b
    assert a["seed"] == 9 and a["trials"] == 3


def test_corollary_count_arithmetic():
    for n in range(1, 7):
        dim, ind = dimension_and_index(make_algebra(GL, n))
        assert n * (n + 1) // 2 == (dim + ind) // 2 == (n * n + n) // 2
        dim, ind = dimension_and_index(make_algebra(SP, n))
        assert n * (n + 1) == (dim + ind) // 2
    for m in range(3, 8):
        spec = make_algebra(SO_ODD, m // 2) if m % 2 else make_algebra(SO_EVEN, m // 2)
        dim, ind = dimension_and_index(spec)
        assert ((m - 1) * m // 2 + m // 2) % 2 == 0
        assert ((m - 1) * m // 2 + m // 2) // 2 == (dim + ind) // 2


def test_duality_validates_exactly_one_convention():
    for name, M, k in [("gl:2", 2, 1), ("gl:3", 3, 1), ("gl:3", 3, 2),
                       ("so:4", 4, 1), ("sp:1", 2, 1), ("sp:2", 4, 1)]:
        from envshift.algebra import parse_algebra

        spec = parse_algebra(name)
        for s in range(5):
            pX = PointOnDual.random(spec, derive_rng(name, M, k, s, "x"))
            pA = PointOnDual.random(spec, derive_rng(name, M, k, s, "a"))
            out = brailov_duality_check(spec, k, M, pX, pA)
            assert out.holds_shifted_index and not out.holds_plain_index
            assert out.validated == ["M-k-1"]


def test_duality_symmetric_points():
    # with A = X both sides are literally the same function pair
    pt = PointOnDual.random(GL2, random.Random(77))
    out = brailov_duality_check(GL2, 1, 2, pt, pt)
    assert out.holds_shifted_index


def test_duality_rejects_bad_indices():
    pt = PointOnDual.random(GL2, random.Random(1))
    with pytest.raises(AlgebraError):
        brailov_duality_check(GL2, 2, 2, pt, pt)
    with pytest.raises(AlgebraError):
        brailov_duality_check(GL2, 0, 2, pt, pt)


def test_tangent_intersection_gl3():
    lhs, rhs = tangent_intersection_dim(GL3, shift_from_designator(GL3, "diag:1,1,0"))
    assert (lhs, rhs) == (2, 2)
    lhs, rhs = tangent_intersection_dim(GL3, shift_from_designator(GL3, "diag:1,2,0"))
    assert (lhs, rhs) == (3, 3)


def test_tangent_intersection_so4():
    lhs, rhs = tangent_intersection_dim(SO4, canonical_shift(SO4, -1))
    assert lhs == rhs == 2


def test_tangent_intersection_rejects_degenerate_shift():
    with pytest.raises(AlgebraError):
        tangent_intersection_dim(GL3, shift_from_designator(GL3, "diag:0,0,0"))
    with pytest.raises(AlgebraError):
        tangent_intersection_dim(GL3, shift_from_designator(GL3, "diag:1,2,3"))
    nilp = shift_from_designator(GL3, "matrix:0,1,0;0,0,1;0,0,0")
    with pytest.raises(AlgebraError):
        tangent_intersection_dim(GL3, nilp)


def test_stabilizer_block_index_matches_full_rank():
    # the stabilizers of the canonical rank-2 shifts decompose into classical
    # blocks whose ranks sum to ind g (verified from dimensions):
    #   gl(3), diag(1,1,0): gl(2)+gl(1)      dim 5, ind 2+1 = 3 = ind gl(3)
    #   gl(3), diag(1,2,0): gl(1)^3          dim 3, ind 1+1+1 = 3
    #   so(4), E[2,2]-E[-2,-2]: gl(1)+so(2)  dim 2, ind 1+1 = 2 = ind so(4)
    #   sp(2), E[2,2]-E[-2,-2]: gl(1)+sp(1)  dim 4, ind 1+1 = 2 = ind sp(2)
    cases = [
        (GL3, shift_from_designator(GL3, "diag:1,1,0"), 5, 2 * 2 + 1),
        (GL3, shift_from_designator(GL3, "diag:1,2,0"), 3, 3),
        (SO4, canonical_shift(SO4, -1), 2, 1 + 1),
        (make_algebra(SP, 2), canonical_shift(make_algebra(SP, 2), -1), 4, 1 + 3),
    ]
    for spec, A, dim_gA, block_dim in cases:
        basis = el.stabilizer_basis(spec, A)
        assert len(basis) == dim_gA == block_dim
        _, ind = dimension_and_index(spec)
        # the block decompositions above all have total rank equal to ind g
        assert ind == spec.n


def test_shift_family_members_and_labels():
    A = shift_from_designator(GL3, "diag:1,2,3").numeric_rows()
    gradients, labels = shift_family(GL3, A)
    assert labels == [
        "[t^0]tr((X+tA)^1)",
        "[t^0]tr((X+tA)^2)", "[t^1]tr((X+tA)^2)",
        "[t^0]tr((X+tA)^3)", "[t^1]tr((X+tA)^3)", "[t^2]tr((X+tA)^3)",
    ]
    X = PointOnDual.random(GL3, random.Random(3)).coordinate_realization()
    assert gradients(X) == [shift_expand_gradient(X, A, M, k) for M, k in [
        (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2),
    ]]


@pytest.mark.parametrize("argv, tables", [
    (["rank", "--algebra", "gl:4", "--A", "diag:1,2,3,4"], 3),
    (["rank", "--algebra", "so:6", "--A", "diag:-3,-2,-1,1,2,3", "--trials", "2"], 2),
])
def test_rank_builds_one_power_table_per_point(monkeypatch, argv, tables):
    from envshift import classical, cli

    calls = []
    real = classical.shift_powers

    def spy(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(classical, "shift_powers", spy)
    assert cli.main(argv) == 0
    m = parse_algebra(argv[2]).matrix_size
    # one table up to (X + tA)^(m-1), all its t-degrees, per trial point
    assert calls == [(m - 1, m - 1)] * tables


FAMILY_ALGEBRAS = ("gl:2", "gl:3", "gl:4", "gl:5", "gl:6", "so:4", "so:5", "so:6", "so:7",
                   "so:8", "sp:1", "sp:2", "sp:3")


@pytest.mark.parametrize("name", FAMILY_ALGEBRAS)
def test_full_family_span_contains_hand_picked_family(name):
    # tr(A.X^N) is [t^1]tr((X+tA)^(N+1))/(N+1), and for N >= m Cayley-Hamilton
    # writes its gradient through lower ones and Casimir gradients
    spec = parse_algebra(name)
    rng = random.Random("span" + name)
    # a rank-2 shift and a random, hence regular, element of g
    regular = PointOnDual.random(spec, rng).coordinate_realization()
    for A in (canonical_shift(spec, -1).numeric_rows(), regular):
        new, _ = shift_family(spec, A)
        old, _ = hand_picked_shift_family(spec, A)
        for s in range(2):
            X = PointOnDual.random(spec, derive_rng("span", name, s)).coordinate_realization()
            rows_new = [coordinate_gradient(spec, G) for G in new(X)]
            rows_old = [coordinate_gradient(spec, G) for G in old(X)]
            assert linalg.rank(rows_new + rows_old) == linalg.rank(rows_new), (name, A, s)


TANGENT_SHIFTS = [
    ("gl:3", "diag:1,1,0"), ("gl:3", "diag:1,2,0"), ("gl:4", "diag:3,-2,0,0"),
    ("gl:5", "diag:1,2,0,0,0"), ("gl:6", "diag:1,2,0,0,0,0"), ("so:5", "diag:-1,0,0,0,1"),
    ("so:8", "diag:-1,0,0,0,0,0,0,1"), ("sp:2", "diag:-1,0,0,1"),
]


@pytest.mark.parametrize("name, desig", TANGENT_SHIFTS)
def test_tangent_agrees_with_hand_picked_family(monkeypatch, name, desig):
    from envshift import independence

    spec = parse_algebra(name)
    A = shift_from_designator(spec, desig)
    full = tangent_intersection_dim(spec, A)
    calls = []

    def old_family(spec, A_rows):
        calls.append(spec)
        return hand_picked_shift_family(spec, A_rows)

    monkeypatch.setattr(independence, "shift_family", old_family)
    assert tangent_intersection_dim(spec, A) == full and calls == [spec]
    assert full[0] == full[1], (name, desig)
