"""Acceptance criteria, one test per criterion.

Every criterion is exact integer equality (zero tolerance).  Each test
prints one line on success; a failed assertion reports the criterion in the
failure line instead.
"""

import json

from gensect import audits, lattices, numerology, schubert, verify
from gensect.cli import main
from gensect.engine import (
    ClassificationEngine,
    Query,
    in_domain,
    trace_from_payload,
)
from gensect.lattices import DivisorClass, SurfaceModel

ENGINE = ClassificationEngine()

EXPECTED_EXCEPTIONAL = {
    (2, 1): set(),
    (2, 2): set(),
    (3, 2): {(4, 1), (5, 2), (6, 2), (6, 4), (7, 5), (8, 6)},
    (3, 1): {(6, 4)},
    (4, 1): {(8, 5), (9, 6), (10, 7)},
}


def report(number, text):
    print(f"criterion {number:02d} PASS: {text}")


def test_criterion_01_exceptional_lists():
    for (r, n), expected in EXPECTED_EXCEPTIONAL.items():
        found = set()
        for g in range(0, 41):
            for d in range(1, 61):
                if not in_domain(r, d, g):
                    continue
                if ENGINE.classify(Query(r, n, d, g)).status == "exceptional":
                    found.add((d, g))
        assert found == expected, f"({r}, {n}) sweep mismatch"
    report(1, "classification sweep is exceptional exactly on the theorem lists")


def test_criterion_02_completeness_audit_empty():
    for (r, n) in ((3, 2), (3, 1), (4, 1)):
        assert ENGINE.completeness_audit(r, n, 60, 40) == []
    report(2, "no underivable cases over d <= 60, g <= 40 for all three pairs")


def test_criterion_03_frontier_lists():
    assert ENGINE.frontier(3, 2, 14) == [
        (5, 1), (7, 2), (6, 3), (7, 4), (8, 5), (9, 6), (9, 7),
        (10, 9), (11, 10), (12, 12), (13, 13), (14, 14),
    ]
    assert ENGINE.frontier(3, 1, 6) == [(7, 5), (8, 6)]
    assert ENGINE.frontier(4, 1, 17) == [
        (9, 5), (10, 6), (11, 7), (12, 9), (16, 15), (17, 16), (18, 17),
    ]
    report(3, "frontier lists equal the twelve-, two- and seven-pair seed lists")


def test_criterion_04_chi_identities():
    for d in range(1, 101):
        for g in range(0, 101):
            assert numerology.chi_twisted_normal_at(3, d, g, 2) == 0
            assert numerology.chi_twisted_normal_at(3, d, g, 1) == 2 * d
            assert numerology.chi_twisted_normal_at(4, d, g, 1) == 2 * d - g + 1
    report(4, "chi identities hold exactly for all d, g <= 100")


def test_criterion_05_rho_invariance():
    for r in range(3, 7):
        for d in range(r + 1, 61):
            for g in range(r + 1, 61):
                assert numerology.rho_canonical_reduction_delta_at(r, d, g) == 0
    report(5, "rho is invariant under the canonical reduction, 3 <= r <= 6, d, g <= 60")


def test_criterion_06_lattice_table():
    table = [
        (6, (5, -2, -2, -1, -1, -1, -1), (7, 4)),
        (6, (5, -2, -1, -1, -1, -1, -1), (8, 5)),
        (6, (6, -1, -1, -2, -2, -2, -2), (8, 6)),
        (6, (6, -1, -2, -2, -2, -2, -2), (7, 5)),
        (5, (5, -2, -1, -1, -1, -1), (9, 5)),
        (5, (6, -1, -2, -2, -2, -2), (9, 6)),
    ]
    for k, coeffs, (degree, genus) in table:
        S = SurfaceModel.del_pezzo(k)
        C = DivisorClass(coeffs)
        assert lattices.anticanonical_degree(S, C) == degree
        assert lattices.adjunction_genus(S, C) == genus
    report(6, "the six named classes give (7,4), (8,5), (8,6), (7,5), (9,5), (9,6)")


def test_criterion_07_line_counts():
    for k, count in ((6, 27), (5, 16)):
        S = SurfaceModel.del_pezzo(k)
        lines = lattices.enumerate_lines(S)
        assert len(lines) == count
        for line in lines:
            assert lattices.adjunction_genus(S, line) == 0
            assert lattices.anticanonical_degree(S, line) == 1
    report(7, "27 and 16 lines from exhaustive search, each of genus 0 and degree 1")


def test_criterion_08_kv_certificates():
    dp6 = SurfaceModel.del_pezzo(6)
    dp5 = SurfaceModel.del_pezzo(5)
    quadric = SurfaceModel.quadric()
    bundles = [
        (dp6, (3, -2, -2, -1, -1, -1, -1)),
        (dp6, (6, -3, -2, -2, -2, -2, -2)),
        (dp6, (3, -2, -1, -1, -1, -1, -1)),
        (dp5, (2, -1, 0, -1, -1, -1)),
        (dp5, (3, -2, -1, -1, -1, -1)),
        (quadric, (0, -1)),
    ]
    for S, coeffs in bundles:
        assert lattices.kv_vanishing_certificate(S, DivisorClass(coeffs))
    report(8, "vanishing certificates hold for all six cited bundles")


def test_criterion_09_h0_table():
    dp6 = SurfaceModel.del_pezzo(6)
    dp5 = SurfaceModel.del_pezzo(5)
    quadric = SurfaceModel.quadric()
    k3 = SurfaceModel.polarized(((6, 4), (4, -2)), (0, 0), ("H", "R"), kind_tag="k3")
    anticanonical = -dp6.canonical_class()
    values = [
        lattices.h0_rational(dp6, 2 * anticanonical),
        lattices.h0_rational(dp6, anticanonical),
        lattices.h0_rational(dp6, dp6.cls_(6, -1, -2, -2, -2, -2, -2)),
        lattices.h0_rational(quadric, quadric.cls_(1, 0)),
        lattices.h0_rational(quadric, quadric.cls_(3, 2)),
        lattices.h0_rational(dp6, dp6.cls_(6, -1, -1, -2, -2, -2, -2)),
        lattices.h0_rational(dp5, dp5.cls_(6, -1, -2, -2, -2, -2)),
        lattices.h0_rational(dp5, dp5.cls_(3, 0, -1, -1, -1, -1)),
        lattices.h0_rational(quadric, quadric.cls_(3, 3)),
        lattices.h0_rational(dp6, dp6.cls_(0, 1, 0, 0, 0, 0, 0)),
        lattices.k3_stats(k3, k3.cls_(1, 1), k3.cls_(1, 0)).h0,
        audits.rr_curve(6, 2),
        audits.rr_curve(14, 4),
    ]
    assert values == [10, 4, 12, 2, 12, 14, 15, 6, 16, 1, 8, 5, 11]
    report(9, "section counts 10, 4, 12, 2, 12, 14, 15, 6, 16, 1, 8, 5, 11 reproduce")


def test_criterion_10_schubert():
    s2 = schubert.sigma(4, 2)
    assert schubert.top_degree(schubert.multiply(schubert.multiply(s2, s2), s2)) == 1
    s1 = schubert.sigma(3, 1)
    fourth = schubert.multiply(schubert.multiply(schubert.multiply(s1, s1), s1), s1)
    assert schubert.top_degree(fourth) == 2
    for n in range(2, 7):
        for a in range(0, n):
            for b in range(0, a + 1):
                dual = schubert.sigma(n, n - 1 - b, n - 1 - a)
                assert schubert.top_degree(schubert.multiply(schubert.sigma(n, a, b), dual)) == 1
    report(10, "incidence counts 1 and 2, and the duality pairing, for all n <= 6")


def test_criterion_11_audits(capsys):
    assert main(["audit", "--all", "--json"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["result"]["audits"]
    assert sorted(tuple(v["case"]) for v in verdicts) == sorted(audits.EXCEPTIONAL)
    assert all(v["verdict"] == "not_general" for v in verdicts)
    six_two = audits.run_audit((3, 2, 6, 2)).evidence
    assert (six_two.total, six_two.ambient_dim) == (23, 24)
    seven_five = audits.run_audit((3, 2, 7, 5)).evidence
    assert (seven_five.total, seven_five.ambient_dim) == (27, 28)
    determinant = verify.check_local_determinant()
    assert determinant.ok and determinant.detail == "determinant = -4t"
    report(11, "ten audits not-general; deficits 23 < 24 and 27 < 28; determinant -4t")


def test_criterion_12_gluing_gates():
    gates = verify.check_side_conditions(ENGINE)
    assert gates.ok
    rows = dict(line.split(": ", 1) for line in gates.detail.split("; "))
    assert rows["r3n2-pglue-10-9"].startswith("restricted-chi 6 <= 6, twisted-series 6 >= 6, ")
    assert rows["r4n1-hglue-16-15"].startswith("restricted-chi 14 <= 18, twisted-series 7 >= 6, ")
    report(12, "gluing gates read 6 <= 6, 6 >= 6 and 14 <= 18, 7 >= 6 exactly")


def test_criterion_13_determinism(capsys):
    argv = ["table", "--r", "3", "--n", "2", "--g-max", "40", "--json"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second
    assert main(["classify", "--r", "3", "--n", "2", "--d", "25", "--g", "20", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    trace = trace_from_payload(payload["result"]["trace"])
    assert ENGINE.validate_trace(trace) == []
    report(13, "table output is byte-identical across runs and traces re-validate")
