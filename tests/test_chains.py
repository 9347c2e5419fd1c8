import json
from pathlib import Path

import pytest

from envshift import linalg
from envshift.algebra import (
    GL,
    SO_EVEN,
    SO_ODD,
    SP,
    AlgebraError,
    coordinate_pair_orbits,
    index_symmetries,
    make_algebra,
    parse_algebra,
)
from envshift.chains import (
    chain_from_dict,
    chain_generators,
    commutativity_failures,
    default_chain,
    level_indices,
    load_chain_file,
    make_chain,
    noncommuting_pairs,
)
from envshift.elements import contract_rows, shift_commutator_residual
from envshift.pbw import commutator
from envshift.shifts import shift_from_rows
from oracles import basis_part, defining_matrix

GL3 = make_algebra(GL, 3)
GL4 = make_algebra(GL, 4)
SO4 = make_algebra(SO_EVEN, 2)
SO5 = make_algebra(SO_ODD, 2)
SP2 = make_algebra(SP, 2)


def test_level_indices():
    assert level_indices(GL4, 2) == (3, 4)
    assert level_indices(SO5, 4) == (-2, -1, 1, 2)
    assert level_indices(SO5, 3) == (-1, 0, 1)
    assert level_indices(SP2, 2) == (-1, 1)
    with pytest.raises(AlgebraError):
        level_indices(SO4, 3)  # no index 0 in the even family


def test_gl3_chain_family_contents():
    chain = make_chain(GL3, [(2, "auto")])
    fam = chain_generators(chain)
    assert fam.chain is chain and fam.algebra == GL3
    assert fam.labels == [
        "tr(X^1)@gl(3)",
        "tr(X^2)@gl(3)",
        "tr(X^3)@gl(3)",
        "tr(A.X^1)@gl(3)",
        "tr(A.X^2)@gl(3)",
        "X[3,3]",
    ]
    assert [g.indices for g in fam.generators] == [(1, 2, 3)] * 5 + [(3,)]


def test_chain_counts():
    assert len(chain_generators(make_chain(GL4, [(2, "auto"), (2, "auto")])).generators) == 10
    assert len(chain_generators(make_chain(SO4, [(2, "auto")])).generators) == 5
    assert len(chain_generators(make_chain(SO5, [(2, "auto"), (1, None)])).generators) == 6
    assert len(chain_generators(make_chain(SP2, [(1, "auto")])).generators) == 6


def test_small_chains_commute():
    for spec, steps in [
        (GL3, [(2, "auto")]),
        (SO4, [(2, "auto")]),
        (SO5, [(2, "auto"), (1, None)]),
        (SP2, [(1, "auto")]),
    ]:
        fam = chain_generators(make_chain(spec, steps))
        assert commutativity_failures(fam) == []


def test_invalid_chains():
    with pytest.raises(AlgebraError):
        make_chain(GL3, [(3, None)])
    with pytest.raises(AlgebraError):
        make_chain(GL3, [(2, None)])  # size-2 step needs a shift
    with pytest.raises(AlgebraError):
        make_chain(SO5, [(1, None), (1, None)])  # so(4) > so(3) not realizable
    with pytest.raises(AlgebraError):
        make_chain(SP2, [(2, "auto")])  # sp steps one rank at a time
    with pytest.raises(AlgebraError):
        make_chain(GL4, [(2, "auto")])  # terminates at gl(2), not abelian


def test_chain_shift_validation():
    # wrong rank
    with pytest.raises(AlgebraError):
        make_chain(GL3, [(2, _designator(GL3, "diag:1,0,0"))])
    # non-semisimple numeric shift
    from envshift.shifts import shift_from_designator

    nilp = shift_from_designator(GL3, "matrix:0,1,0;0,0,0;0,0,0")
    with pytest.raises(AlgebraError):
        make_chain(GL3, [(2, nilp)])
    # so shift must lie in the algebra (sign -1)
    plus = shift_from_designator(SO4, "diag:1,0,0,1")
    with pytest.raises(AlgebraError):
        make_chain(SO4, [(2, plus)])
    # symbolic shifts are rejected in chains
    sym = shift_from_designator(GL3, "sym-diag:a1,a2,0")
    with pytest.raises(AlgebraError):
        make_chain(GL3, [(2, sym)])


def _designator(spec, text):
    from envshift.shifts import shift_from_designator

    return shift_from_designator(spec, text)


def test_chain_from_dict_and_file(tmp_path):
    data = {"algebra": "gl:3", "steps": [{"k": 2, "shift": "diag:1,2,0"}]}
    chain = chain_from_dict(data)
    assert chain.algebra == GL3 and chain.steps[0].k == 2
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(data))
    chain2 = load_chain_file(str(path))
    assert chain2.algebra == GL3
    # row-list shifts with rational strings parse too
    data = {
        "algebra": "gl:3",
        "steps": [{"k": 2, "shift": [["1", 0, 0], [0, "4/2", 0], [0, 0, 0]]}],
    }
    chain3 = chain_from_dict(data)
    fam = chain_generators(chain3)
    assert len(fam.generators) == 6


def _gl3_rows(entry):
    return [[entry, 0, 0], [0, 2, 0], [0, 0, 0]]


# chain files that are bad input; none may surface as another exception type
MALFORMED_CHAINS = (
    {"algebra": "gl:3", "steps": [{"k": 2, "shift": _gl3_rows("1/0")}]},
    {"algebra": "gl:3", "steps": [{"k": 2, "shift": _gl3_rows("x")}]},
    {"algebra": "gl:3", "steps": [{"k": 2, "shift": _gl3_rows(1.5)}]},
    {"algebra": "gl:3", "steps": [{"k": 2, "shift": _gl3_rows(True)}]},
    {"algebra": "gl:3", "steps": [{"k": 2, "shift": [1, 2, 3]}]},
    {"algebra": "gl:3", "steps": 5},
    {"algebra": 5, "steps": []},
    {"algebra": "gl:2", "steps": [{"k": True}]},
)


def test_chain_file_errors(tmp_path):
    with pytest.raises(AlgebraError):
        chain_from_dict({"steps": []})
    with pytest.raises(AlgebraError):
        chain_from_dict({"algebra": "gl:3", "steps": [{"nope": 1}]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(AlgebraError):
        load_chain_file(str(bad))
    for data in MALFORMED_CHAINS:
        with pytest.raises(AlgebraError):
            chain_from_dict(data)


def test_malformed_chain_files_exit_two_without_internal_error(tmp_path, capsys):
    from envshift import cli

    f, out = tmp_path / "bad.json", tmp_path / "rep.json"
    # the last file is not UTF-8 at all: it starts with a UTF-16 byte order mark
    for data in (*MALFORMED_CHAINS, b"\xff\xfe{}"):
        if isinstance(data, bytes):
            f.write_bytes(data)
        else:
            f.write_text(json.dumps(data))
        assert cli.main(["chain", "--file", str(f), "--out", str(out)]) == 2, data
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (data, lines)
        assert "internal error" not in lines[0] and not out.exists(), (data, lines)


def test_oversized_chain_is_refused_before_its_steps_are_validated(tmp_path, monkeypatch,
                                                                    capsys):
    from envshift import chains, cli

    def validate(*args):
        raise AssertionError("a step was validated")

    monkeypatch.setattr(chains, "_validate_chain_shift", validate)
    f = tmp_path / "gl40.json"
    f.write_text(json.dumps({"algebra": "gl:40", "steps": [{"k": 2, "shift": "auto"}] * 20}))
    assert cli.main(["chain", "--file", str(f), "--out", str(tmp_path / "rep.json")]) == 2
    assert "generators; PBW words hold at most 256" in capsys.readouterr().err


def test_default_chains_cover_all_families():
    for name, count in (("gl:3", 6), ("gl:4", 10), ("so:4", 5), ("so:5", 6), ("sp:2", 6)):
        fam = chain_generators(default_chain(parse_algebra(name)))
        assert len(fam.generators) == count, name


def test_auto_shifts_are_canonical_block_shifts():
    # gl: diag(1, 2, 0, ...) on the level block; so/sp: E[t,t] - E[-t,-t], t = max of the block
    for name in ("gl:3", "gl:4", "gl:5", "so:4", "so:5", "so:6", "sp:2", "sp:3"):
        spec = parse_algebra(name)
        shifts = [s.shift for s in default_chain(spec).steps if s.shift is not None]
        assert shifts, name
        for A in shifts:
            idx = A.indices
            if spec.family == GL:
                diag = {idx[0]: 1, idx[1]: 2}
            else:
                diag = {max(idx): 1, -max(idx): -1}
            assert A.rows == tuple(
                tuple(diag.get(i, 0) if i == j else 0 for j in idx) for i in idx
            ), name
            assert all(type(x) is int for row in A.rows for x in row), name


def test_auto_shift_stabilizers_contain_next_level():
    # each canonical rank-2 step shift commutes with the whole deeper block,
    # so the deeper subalgebra sits inside the shift's stabilizer
    from fractions import Fraction

    from envshift import linalg
    from envshift.chains import level_indices

    for name in ("gl:3", "gl:4", "so:4", "so:5", "sp:2"):
        spec = parse_algebra(name)
        chain = default_chain(spec)
        size = spec.matrix_size
        for step in chain.steps:
            drop = 2 if spec.family == SP else step.k
            nxt = size - drop
            if step.shift is not None and nxt > 0:
                idx = level_indices(spec, size)
                sub = level_indices(spec, nxt)
                A = [[Fraction(x) for x in row] for row in step.shift.rows]
                for pair in spec.canonical_generators:
                    i, j = pair
                    if i not in sub or j not in sub:
                        continue
                    dm = defining_matrix(spec, pair)
                    B = [
                        [dm[spec.position(a)][spec.position(b)] for b in idx]
                        for a in idx
                    ]
                    assert not any(x for row in linalg.mat_commutator(A, B) for x in row), (
                        name, pair)
            size = nxt


CHAIN_DIR = Path(__file__).resolve().parent.parent / "scripts" / "chains"
# the all-pairs oracle is affordable on these; gl5, so6 and sp3 take minutes
ORACLE_CHAINS = [(name, lambda name=name: default_chain(parse_algebra(name)))
                 for name in ("gl:3", "gl:4", "so:4", "so:5", "sp:2")]
ORACLE_CHAINS += [(f"{name}.json", lambda name=name: load_chain_file(CHAIN_DIR / f"{name}.json"))
                  for name in ("gl3", "gl4", "so4", "so5", "sp2")]
# shifts that do not fix the next level: the certificate fails, all pairs decide
MOVED_CHAINS = [
    ("gl:4 moved", lambda: chain_from_dict({"algebra": "gl:4", "steps": [
        {"k": 2, "shift": "diag:0,0,1,2"}, {"k": 2, "shift": "diag:1,2"}]})),
    ("so:5 moved", lambda: chain_from_dict({"algebra": "so:5", "steps": [
        {"k": 2, "shift": "diag:0,-1,0,1,0"}, {"k": 1}]})),
]
ORACLE_CHAINS += MOVED_CHAINS


@pytest.mark.parametrize("name, build", ORACLE_CHAINS, ids=[n for n, _ in ORACLE_CHAINS])
def test_certificate_matches_all_pairs(name, build):
    fam = chain_generators(build())
    assert noncommuting_pairs(fam) == commutativity_failures(fam), name


@pytest.mark.parametrize("name", ["gl:3", "gl:4", "gl:5", "so:4", "so:5", "so:6", "sp:2", "sp:3"])
def test_default_chains_are_certified_without_all_pairs(name, monkeypatch):
    from envshift import chains

    def all_pairs(family):
        raise AssertionError("fell back to all pairs")

    monkeypatch.setattr(chains, "commutativity_failures", all_pairs)
    assert noncommuting_pairs(chain_generators(default_chain(parse_algebra(name)))) == []


def test_moved_shifts_do_not_commute():
    for name, build in MOVED_CHAINS:
        assert noncommuting_pairs(chain_generators(build())), name


@pytest.mark.parametrize("name", ["gl:3", "gl:4", "so:5", "sp:2"])
def test_certificate_builds_no_casimir(name, monkeypatch):
    # steps (a) and (b) are matrix commutators and step (c) is theorem1's
    # evaluator, which takes the shift elements from the polarizer's parts:
    # no member's element is built and no member pair is multiplied
    from envshift import chains

    monkeypatch.setattr(chains, "commutator", lambda p, q: pytest.fail("a member product"))
    fam = chain_generators(default_chain(parse_algebra(name)))
    assert noncommuting_pairs(fam) == []
    assert [g.label for g in fam.generators if "poly" in vars(g)] == []


# certificate step (a) is not checked: it holds by the construction this test states, on
# every default chain up to gl:6, so:8 and sp:4 and on every chain file
PREMISE_CHAINS = [f"gl:{n}" for n in range(1, 7)] + [f"so:{n}" for n in range(3, 9)]
PREMISE_CHAINS += [f"sp:{n}" for n in range(1, 5)] + sorted(p.name for p in CHAIN_DIR.glob("*.json"))


@pytest.mark.parametrize("name", PREMISE_CHAINS)
def test_unshifted_members_are_central_in_their_block(name):
    # a B that is the identity on its block, or a block of one index, commutes
    # with every matrix read on that block, so [B, C] = 0 holds without a check
    if name.endswith(".json"):
        chain = load_chain_file(CHAIN_DIR / name)
    else:
        chain = default_chain(parse_algebra(name))
    for g in chain_generators(chain).generators:
        if not g.label.startswith("tr(A.X^"):
            n = len(g.indices)
            ident = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
            assert n == 1 or g.B == ident, (name, g.label)


@pytest.mark.parametrize("name, pair", [("gl:4", (2, 3)), ("sp:2", (1, 3))])
def test_a_failing_shift_pair_falls_back_to_all_pairs(name, pair, monkeypatch):
    # step (b) holds on the default chains, so only step (c) can send them to all pairs
    from envshift import chains

    real = chains.shift_commutator_residual

    def residual(spec, A, M, N, built=None):
        if (M, N) == pair:
            return contract_rows(spec, A.rows, M, A.indices)
        return real(spec, A, M, N, built)

    sentinel = [("a", "b", None)]
    monkeypatch.setattr(chains, "shift_commutator_residual", residual)
    monkeypatch.setattr(chains, "commutativity_failures", lambda family: sentinel)
    assert noncommuting_pairs(chain_generators(default_chain(parse_algebra(name)))) is sentinel


@pytest.mark.parametrize("name, size, moved, entries, vanishes", [
    ("gl:5", 3, 3, {(4, 4): 1, (4, 5): 2, (5, 4): 3, (5, 5): 5}, True),
    # neither lies in the algebra, and both fail at (M, N) = (2, 3)
    ("so:7", 5, 2, {(0, 0): 1, (1, 1): 1}, False),
    ("sp:3", 4, 2, {(1, 1): 1, (1, -1): 1}, False),
])
def test_orbit_reduction_on_a_block_shift_is_exact(name, size, moved, entries, vanishes):
    # an index symmetry that fixes the shift's support is admitted even when
    # it moves an index of the block out of it; it fixes every coordinate, so
    # it merges no pair and the reduced residual is still [(A X^M), (A X^N)]
    spec = parse_algebra(name)
    block = level_indices(spec, size)
    pos = {i: p for p, i in enumerate(block)}
    rows = [[0] * size for _ in block]
    for (i, j), v in entries.items():
        rows[pos[i]][pos[j]] = v
    A = shift_from_rows(spec, rows, indices=block)
    [s] = [s for s in index_symmetries(spec) if s[moved] != moved and s[moved] not in block]
    assert all(s[k] == k for ij in entries for k in ij)
    coords = A.coordinates()
    forced = {"basis": ([(basis_part(A, e, c), a) for c, (e, a) in enumerate(coords)],
                        coordinate_pair_orbits(spec, [e for e, _ in coords]))}
    residuals = []
    for M in range(1, 4):
        for N in range(M + 1, 4):
            oracle = commutator(contract_rows(spec, A.rows, M, block),
                                contract_rows(spec, A.rows, N, block))
            assert shift_commutator_residual(spec, A, M, N, forced) == oracle, (M, N)
            residuals.append(oracle)
    assert all(r.is_zero for r in residuals) == vanishes
