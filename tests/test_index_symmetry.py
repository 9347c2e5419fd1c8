"""The index symmetries behind ``algebra.orbit_representatives``.

prop1, prop3, prop4, tensorial and casimir-central evaluate their
residuals at one index tuple per orbit, and the theorem commutators at one
pair of shift coordinates per orbit.  That rests on these facts, each
checked here against oracles that do not use the helpers:

* every index map of the family's group is an automorphism: the product
  (X^a)[r,s].(X^b)[t,u], mapped generator by generator and renormalized by
  the bubble-sort rewriter, is the product at the mapped indices, and the
  Casimirs and flip coefficients are fixed;
* the representatives are the lex-least tuples of the orbits, one per orbit;
* a fault that respects the symmetry gives the same report bytes on the
  representatives as on every tuple;
* each map that sends every coordinate of a shift to +- a coordinate sends
  a form in two coordinates to +- the form at their images, and the
  coordinate pair representatives are one per orbit of those maps.
"""

import ast
import json
import random
import re

import pytest
from oracles import degree, every_index_tuple, index_symmetry_group, map_indices

from envshift import cli
from envshift import elements as el
from envshift.algebra import (
    coordinate_pair_orbits,
    index_orbits,
    orbit_representatives,
    parse_algebra,
)
from envshift.pbw import NCPolynomial, multiply, parse
from envshift.shifts import shift_from_designator, symbolic_shift

GROUP_ORDERS = {"gl:3": 6, "so:4": 8, "so:5": 8, "sp:2": 4}


def _products(spec, count):
    """(a, b, r, s, t, u) with a, b in 1..2: every tuple up to 3x3, a seeded sample above."""
    tuples = every_index_tuple(spec, 4)
    if spec.matrix_size > 3:
        tuples = random.Random(spec.designator).sample(tuples, count)
    return [(a, b, *t) for a in (1, 2) for b in (1, 2) for t in tuples]


@pytest.mark.parametrize("designator", sorted(GROUP_ORDERS))
def test_index_maps_are_automorphisms_of_the_products(designator):
    spec = parse_algebra(designator)
    group = index_symmetry_group(spec)
    assert len(group) == GROUP_ORDERS[designator]
    mpe = el.matrix_power_element
    for a, b, r, s, t, u in _products(spec, 6):
        p = multiply(mpe(spec, a, r, s), mpe(spec, b, t, u))
        for sigma in group:
            image = multiply(mpe(spec, a, sigma[r], sigma[s]), mpe(spec, b, sigma[t], sigma[u]))
            assert map_indices(spec, sigma, p) == image, (a, b, r, s, t, u, sigma)


@pytest.mark.parametrize("designator", sorted(GROUP_ORDERS))
def test_index_maps_fix_the_casimirs_and_flip_coefficients(designator):
    spec = parse_algebra(designator)
    central = [el.casimir(spec, M) for M in (1, 2, 3)]
    if not spec.is_gl:
        central += [c for N in (1, 2, 3) for c in el.power_flip_coefficients(spec, N)]
    assert any(degree(c) > 0 for c in central)
    for sigma in index_symmetry_group(spec):
        for c in central:
            assert map_indices(spec, sigma, c) == c


@pytest.mark.parametrize("designator, count", [
    ("gl:3", 14), ("gl:4", 15), ("so:4", 36), ("so:5", 99), ("sp:2", 64)])
def test_representative_counts(designator, count):
    assert len(orbit_representatives(parse_algebra(designator), 4)) == count


RANK_AT_MOST_3 = ["gl:1", "gl:2", "gl:3", "so:3", "so:4", "so:5", "so:6", "so:7",
                  "sp:1", "sp:2", "sp:3"]


@pytest.mark.parametrize("designator", RANK_AT_MOST_3)
@pytest.mark.parametrize("length", [2, 4])
def test_representatives_are_the_orbit_minima(designator, length):
    # the group listed in full, not closed from generators: each tuple's orbit
    # holds exactly one representative, and it is the orbit's least tuple
    spec = parse_algebra(designator)
    group = index_symmetry_group(spec)
    reps = orbit_representatives(spec, length)
    assert reps == sorted(reps) and len(set(reps)) == len(reps)
    covered = set()
    for rep in reps:
        orbit = {tuple(sigma[i] for i in rep) for sigma in group}
        assert min(orbit) == rep and not orbit & covered
        covered |= orbit
    assert covered == set(every_index_tuple(spec, length))


def _faulty(real, fault):
    """``real`` plus an extra term that maps with the index symmetries, at
    M = N only, so some checks pass and the others fail on a later tuple."""
    def residual(spec, M, N, *args):
        out = real(spec, M, N, *args)
        t = args[:4]
        if M == N and len(set(t)) == min(3, spec.matrix_size):
            out = out + fault(spec, *t)
        return out
    return residual


def _reports(monkeypatch, tmp_path, argv):
    """Report bytes and exit code on the representatives, then on every tuple."""
    out = []
    for name, tuples in (("reps", orbit_representatives), ("all", every_index_tuple)):
        monkeypatch.setattr(cli, "orbit_representatives", tuples)
        path = tmp_path / f"{name}.json"
        code = cli.main(["verify", *argv, "--out", str(path)])
        out.append((code, path.read_bytes()))
    return out


@pytest.mark.parametrize("argv", [
    ["prop1", "--algebra", "gl:2"], ["prop1", "--algebra", "gl:3"],
    ["prop4", "--algebra", "so:3"], ["prop4", "--algebra", "so:4"],
    ["prop4", "--algebra", "sp:1"], ["prop4", "--algebra", "sp:2"]])
def test_power_bracket_fail_reports_match_every_tuple(argv, tmp_path, monkeypatch):
    fault = _faulty(el.power_bracket_residual, lambda spec, i, j, k, l: multiply(
        NCPolynomial.generator(spec, i, j), NCPolynomial.generator(spec, k, l)))
    monkeypatch.setattr(el, "power_bracket_residual", fault)
    (code, reps), (code_all, every) = _reports(monkeypatch, tmp_path, argv)
    assert code == code_all == 1 and reps == every
    checks = json.loads(reps)["checks"]
    assert {c["outcome"] for c in checks} == {"PASS", "FAIL"}
    spec = parse_algebra(argv[2])
    reps_order, every_order = orbit_representatives(spec, 4), every_index_tuple(spec, 4)
    for c in checks:
        if c["outcome"] == "FAIL":
            assert not parse(spec, c["residual"]).is_zero
            # on gl:2, so:3, sp:1 and sp:2 each orbit has one tuple that starts
            # with the least index, so none is skipped before the first failure;
            # on gl:3 and so:4 tuples of other orbits are
            t = ast.literal_eval(c["detail"].split("ijkl=")[1][:-1])
            skipped = every_order.index(t) - reps_order.index(t)
            assert skipped > 0 if argv[2] in ("gl:3", "so:4") else skipped == 0


@pytest.mark.parametrize("designator", ["so:3", "so:4", "sp:1"])
def test_flip_fail_reports_match_every_pair(designator, tmp_path, monkeypatch):
    real = el.flip_residual

    def fault(spec, M, i, j):
        out = real(spec, M, i, j)
        return out + NCPolynomial.generator(spec, i, j) if M == 2 and i != j else out

    monkeypatch.setattr(el, "flip_residual", fault)
    (code, reps), (code_all, every) = _reports(
        monkeypatch, tmp_path, ["prop3", "--algebra", designator, "--max-power", "2"])
    assert code == code_all == 1 and reps == every
    assert [c["outcome"] for c in json.loads(reps)["checks"]] == ["PASS", "FAIL", "PASS"]


def _every_tuple_its_own_orbit(spec, length):
    """``index_orbits`` with every tuple first of its own orbit: the exhaustive suite."""
    return {t: t for t in every_index_tuple(spec, length)}


def _suite_run(monkeypatch, tmp_path, argv, orbits, module, name):
    """(calls of ``module.name``, report bytes, exit code) of one ``verify`` run
    with ``orbits`` in place of ``index_orbits``."""
    calls = []
    real = getattr(module, name)
    with monkeypatch.context() as m:
        m.setattr(module, name, lambda *a: calls.append(a) or real(*a))
        m.setattr(cli, "index_orbits", orbits)
        path = tmp_path / "r.json"
        code = cli.main(["verify", *argv, "--out", str(path)])
    return len(calls), path.read_bytes(), code


def _tensorial_run(monkeypatch, tmp_path, argv, orbits):
    """(tensorial_residual calls, report bytes, exit code) of one suite run."""
    return _suite_run(monkeypatch, tmp_path, ["tensorial", *argv], orbits,
                      el, "tensorial_residual")


def _casimir_central_run(monkeypatch, tmp_path, argv, orbits):
    """(commutators taken, report bytes, exit code) of one suite run."""
    return _suite_run(monkeypatch, tmp_path, ["casimir-central", *argv], orbits,
                      cli, "commutator")


def test_tensorial_suite_evaluates_one_tuple_per_orbit(monkeypatch, tmp_path):
    argv = ["--algebra", "so:5"]
    reps = _tensorial_run(monkeypatch, tmp_path, argv, cli.index_orbits)
    every = _tensorial_run(monkeypatch, tmp_path, argv, _every_tuple_its_own_orbit)
    assert (every[0], reps[0]) == (1875, 297)
    assert reps[1:] == every[1:] and reps[2] == 0
    assert len(json.loads(reps[1])["checks"]) == 1875


@pytest.mark.parametrize("designator", ["gl:2", "so:3", "sp:1"])
def test_tensorial_fail_reports_match_every_tuple(designator, tmp_path, monkeypatch):
    real = el.tensorial_residual

    def fault(spec, M, i, j, k, l):
        out = real(spec, M, i, j, k, l)
        if M == 2 and len({i, j, k, l}) == min(3, spec.matrix_size):
            out = out + multiply(NCPolynomial.generator(spec, i, j),
                                 NCPolynomial.generator(spec, k, l))
        return out

    monkeypatch.setattr(el, "tensorial_residual", fault)
    argv = ["--algebra", designator, "--max-power", "2"]
    calls, reps, code = _tensorial_run(monkeypatch, tmp_path, argv, cli.index_orbits)
    _, every, code_all = _tensorial_run(monkeypatch, tmp_path, argv, _every_tuple_its_own_orbit)
    assert code == code_all == 1 and reps == every
    outcomes = [c["outcome"] for c in json.loads(reps)["checks"]]
    assert {"PASS", "FAIL"} == set(outcomes) and calls < len(outcomes)


@pytest.mark.parametrize("designator, max_power, every, reps", [
    ("gl:4", 4, 64, 8), ("gl:5", 5, 125, 10), ("so:5", 4, 40, 16), ("sp:2", 4, 40, 16),
    ("so:6", 4, 60, 8)])
def test_casimir_central_suite_evaluates_one_pair_per_orbit(
        designator, max_power, every, reps, monkeypatch, tmp_path):
    argv = ["--algebra", designator, "--max-power", str(max_power)]
    run = _casimir_central_run(monkeypatch, tmp_path, argv, cli.index_orbits)
    oracle = _casimir_central_run(monkeypatch, tmp_path, argv, _every_tuple_its_own_orbit)
    assert (oracle[0], run[0]) == (every, reps)
    assert run[1:] == oracle[1:] and run[2] == 0
    # on so/sp some orbit's first pair is +- a canonical generator, not one itself
    spec = parse_algebra(designator)
    firsts = {index_orbits(spec, 2)[pair] for pair in spec.canonical_generators}
    assert bool(firsts - set(spec.canonical_generators)) == (not spec.is_gl)


@pytest.mark.parametrize("designator", ["gl:3", "so:5", "sp:2"])
def test_casimir_central_fail_reports_match_every_pair(designator, tmp_path, monkeypatch):
    spec = parse_algebra(designator)
    cas2, real = el.casimir(spec, 2), cli.commutator

    def fault(p, q):
        # an extra term on every diagonal generator X[i,i] at M = 2, which
        # the symmetries map to +- a diagonal generator
        out = real(p, q)
        [(word, _)] = q.terms.items()
        i, j = spec.canonical_generators[word[0]]
        return out + q if p == cas2 and i == j else out

    monkeypatch.setattr(cli, "commutator", fault)
    argv = ["--algebra", designator]
    calls, run, code = _casimir_central_run(monkeypatch, tmp_path, argv, cli.index_orbits)
    _, every, code_all = _casimir_central_run(
        monkeypatch, tmp_path, argv, _every_tuple_its_own_orbit)
    assert code == code_all == 1 and run == every
    checks = json.loads(run)["checks"]
    assert {c["outcome"] for c in checks} == {"PASS", "FAIL"} and calls < len(checks)
    for c in checks:
        M, i, j = re.fullmatch(r"\[\(X\^(\d)\),X\[(-?\d),(-?\d)\]\]=0", c["id"]).groups()
        assert (c["outcome"] == "FAIL") == (M == "2" and i == j), c["id"]
        if c["outcome"] == "FAIL":
            assert parse(spec, c["residual"]) == NCPolynomial.generator(spec, int(i), int(j))


def _coordinate_shifts():
    return {
        "gl:2-symbolic": symbolic_shift(parse_algebra("gl:2")),
        "gl:3-symbolic": symbolic_shift(parse_algebra("gl:3")),
        "gl:4-symbolic": symbolic_shift(parse_algebra("gl:4")),
        "gl:3-dense": shift_from_designator(parse_algebra("gl:3"), "matrix:1,2,3;4,5,6;7,8,9"),
        "gl:4-sym-diag": shift_from_designator(parse_algebra("gl:4"), "sym-diag:a1,a2,0,0"),
        "gl:3-diag-1-1-0": shift_from_designator(parse_algebra("gl:3"), "diag:1,1,0"),
        # the swap of 1 and 2 maps E_11 and E_22 to each other but E_13 off the coordinates
        "gl:3-no-symmetry": shift_from_designator(parse_algebra("gl:3"),
                                                  "matrix:1,0,1;0,1,0;0,0,0"),
        "so:4-minus": symbolic_shift(parse_algebra("so:4"), -1),
        "so:4-plus": symbolic_shift(parse_algebra("so:4"), 1),
        "so:5-minus": symbolic_shift(parse_algebra("so:5"), -1),
        "sp:2-minus": symbolic_shift(parse_algebra("sp:2"), -1),
        "sp:2-plus": symbolic_shift(parse_algebra("sp:2"), 1),
        # neither sign: the unit matrices, which the maps permute with no sign
        "so:4-unsigned": symbolic_shift(parse_algebra("so:4")),
        "sp:2-unsigned": symbolic_shift(parse_algebra("sp:2")),
    }


def _coordinate_images(spec, coords, sigma):
    """[(pi(c), e_c)] with sigma.C_c = e_c*C_pi(c), or None if sigma leaves the coordinates."""
    where = {entries: c for c, entries in enumerate(coords)}
    out = []
    for entries in coords:
        image = tuple(sorted(((sigma[i], sigma[j]), v) for (i, j), v in entries))
        negated = tuple((ij, -v) for ij, v in image)
        if image in where:
            out.append((where[image], 1))
        elif negated in where:
            out.append((where[negated], -1))
        else:
            return None
    return out


@pytest.mark.parametrize("case, count", [
    ("gl:2-symbolic", 6), ("gl:3-symbolic", 10), ("gl:4-symbolic", 11), ("gl:3-dense", 10),
    ("gl:4-sym-diag", 2), ("gl:3-diag-1-1-0", 2), ("gl:3-no-symmetry", 6), ("so:4-minus", 6),
    ("so:4-plus", 13), ("so:5-minus", 13), ("sp:2-minus", 19), ("sp:2-plus", 9)])
def test_coordinate_pair_representatives_are_one_per_orbit(case, count):
    # the orbits of the whole group's maps that keep the coordinates, listed
    # in full: each holds exactly one representative, its least pair
    A = _coordinate_shifts()[case]
    spec = A.spec
    coords = [entries for entries, _ in A.coordinates()]
    reps = coordinate_pair_orbits(spec, coords)
    images = [im for im in (_coordinate_images(spec, coords, s)
                            for s in index_symmetry_group(spec)) if im is not None]
    covered = set()
    for c, d in reps:
        orbit = {tuple(sorted((im[c][0], im[d][0]))) for im in images}
        assert min(orbit) == (c, d) and not orbit & covered
        covered |= orbit
    assert len(covered) == len(coords) * (len(coords) + 1) // 2
    assert len(reps) == count


@pytest.mark.parametrize("case", ["gl:2-symbolic", "gl:3-diag-1-1-0", "so:4-minus", "so:4-plus",
                                  "sp:2-minus", "so:4-unsigned", "sp:2-unsigned"])
def test_index_maps_send_coordinate_forms_to_coordinate_forms(case):
    # phi_s((C.X^a)(C'.X^b)) = e_c*e_c'*(C_pi(c).X^a)(C_pi(c').X^b): the
    # product, which does not vanish, stands for any form built from them
    A = _coordinate_shifts()[case]
    spec = A.spec
    coords = [entries for entries, _ in A.coordinates()]

    def element(c, K):
        rows = [[0] * spec.matrix_size for _ in spec.index_set]
        for (i, j), v in coords[c]:
            rows[spec.position(i)][spec.position(j)] = v
        return el.contract_rows(spec, rows, K)

    forms = {(c, d): multiply(element(c, 1), element(d, 2))
             for c in range(len(coords)) for d in range(len(coords))}
    mapped = 0
    for sigma in index_symmetry_group(spec):
        im = _coordinate_images(spec, coords, sigma)
        if im is None:
            continue
        mapped += 1
        for (c, d), form in forms.items():
            (pc, ec), (pd, ed) = im[c], im[d]
            assert map_indices(spec, sigma, form) == forms[pc, pd] * (ec * ed), (case, sigma, c, d)
    assert mapped > 1
