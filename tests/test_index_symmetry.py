"""The index symmetries behind ``algebra.orbit_representatives``.

prop1, prop3 and prop4 evaluate their residuals at one index tuple per orbit.
That rests on three facts, each checked here against oracles that do not
use the helper:

* every index map of the family's group is an automorphism: the product
  (X^a)[r,s].(X^b)[t,u], mapped generator by generator and renormalized by
  the bubble-sort rewriter, is the product at the mapped indices, and the
  Casimirs and flip coefficients are fixed;
* the representatives are the lex-least tuples of the orbits, one per orbit;
* a fault that respects the symmetry gives the same report bytes on the
  representatives as on every tuple.
"""

import ast
import json
import random

import pytest
from oracles import every_index_tuple, index_symmetry_group, map_indices

from envshift import cli
from envshift import elements as el
from envshift.algebra import orbit_representatives, parse_algebra
from envshift.pbw import NCPolynomial, multiply, parse

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
    assert any(c.degree() > 0 for c in central)
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
