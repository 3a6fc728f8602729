import json
import math

import pytest

from gensect import cli
from gensect.audits import (
    EXCEPTIONAL,
    ConditionCount,
    DimensionDeficit,
    ExternalFact,
    audit_evidence_problems,
    form_space_dim,
    general_bundle_h0,
    rr_curve,
    run_audit,
)


def test_rr_curve_values():
    assert rr_curve(14, 4) == 11
    assert rr_curve(7, 4) == 4
    assert rr_curve(9, 5) == 5  # deg = 2g - 1, just inside the range
    assert rr_curve(6, 2) == 5


def test_rr_curve_refuses_special_range():
    with pytest.raises(ValueError):
        rr_curve(8, 5)  # deg = 2g - 2
    with pytest.raises(ValueError):
        rr_curve(3, 4)
    with pytest.raises(ValueError):
        rr_curve(5, -1)


def test_general_bundle_h0():
    assert general_bundle_h0(8, 5) == 4
    assert general_bundle_h0(3, 5) == 0
    assert general_bundle_h0(7, 4) == rr_curve(7, 4)


def test_form_space_dims():
    assert form_space_dim("plane", 2) == 6
    assert form_space_dim("space", 2) == 10
    assert form_space_dim("quadric_surface", (2, 2)) == 9
    assert form_space_dim("quadric_surface", (3, 3)) == 16
    assert form_space_dim("plane", 3) == 10
    with pytest.raises(ValueError):
        form_space_dim("line", 2)


def test_space_form_dim_is_the_binomial_coefficient():
    for m in range(-3, 41):
        assert form_space_dim("space", m) == math.comb(m + 3, 3)
    for m in (-4, -5, -40):
        with pytest.raises(ValueError):
            math.comb(m + 3, 3)
        with pytest.raises(ValueError):
            form_space_dim("space", m)


def test_audit_count_cases():
    expected = {
        (3, 2, 4, 1): (8, 9, "cut_out_by"),
        (3, 2, 5, 2): (10, 9, "lies_on"),
        (3, 2, 6, 4): (12, 9, "lies_on"),
        (3, 2, 8, 6): (16, 16, "lies_on"),
        (3, 1, 6, 4): (6, 6, "lies_on"),
        (4, 1, 8, 5): (8, 10, "cut_out_by"),
        (4, 1, 10, 7): (10, 10, "lies_on"),
    }
    for case, (points, h0, comparison) in expected.items():
        report = run_audit(case)
        assert report.case == case
        ev = report.evidence
        assert isinstance(ev, ConditionCount)
        assert (ev.points, ev.h0, ev.comparison) == (points, h0, comparison)
        assert ev.slack == h0 - points


def test_audit_dimension_deficits():
    six_two = run_audit((3, 2, 6, 2)).evidence
    assert isinstance(six_two, DimensionDeficit)
    assert [v for _, v in six_two.components] == [3, 2, 2, 3, 3, 10]
    assert six_two.total == 23
    assert six_two.ambient_dim == 24

    seven_five = run_audit((3, 2, 7, 5)).evidence
    assert isinstance(seven_five, DimensionDeficit)
    assert [v for _, v in seven_five.components] == [15, 2, 10]
    assert seven_five.total == 27
    assert seven_five.ambient_dim == 28


def test_audit_external_fact():
    ev = run_audit((4, 1, 9, 6)).evidence
    assert isinstance(ev, ExternalFact)
    assert "elliptic normal curve" in ev.citation
    assert "9 general points" in ev.citation


def test_every_exceptional_case_has_one_audit(capsys):
    assert len(EXCEPTIONAL) == 10
    for case in EXCEPTIONAL:
        report = run_audit(case)
        assert report is EXCEPTIONAL[case]  # the table's own row
        assert audit_evidence_problems(report) == []
    assert cli.main(["audit", "--all", "--json"]) == 0
    audits = json.loads(capsys.readouterr().out)["result"]["audits"]
    assert [tuple(a["case"]) for a in audits] == sorted(EXCEPTIONAL)
    assert {a["verdict"] for a in audits} == {"not_general"}


@pytest.mark.parametrize(
    "evidence, problem",
    [
        (ConditionCount(9, 8, "cut_out_by", "quadric surfaces"), "cut_out_by needs n <= h0"),
        (ConditionCount(7, 8, "lies_on", "quadric surfaces"), "lies_on needs n >= h0"),
        (DimensionDeficit((("family", 16),), 16), "family dimension does not fall short"),
        (DimensionDeficit((("family", 1),), 10), "ambient is not Sym^n of a surface"),
    ],
    ids=["cut-out-by", "lies-on", "no-deficit", "ambient"],
)
def test_audit_evidence_problems_names_each_inconsistency(evidence, problem):
    report = run_audit((3, 2, 4, 1))._replace(evidence=evidence)  # 8 points
    assert audit_evidence_problems(report) == [f"(3, 2, 4, 1): {problem}"]


def test_deficit_ambient_is_symmetric_power_dimension():
    for case in EXCEPTIONAL:
        ev = run_audit(case).evidence
        if isinstance(ev, DimensionDeficit):
            r, n, d, g = case
            assert ev.ambient_dim == 2 * d * n


def test_condition_count_h0_agrees_with_lattice_counts():
    # bidegree systems on the quadric are counted two ways
    from gensect.lattices import SurfaceModel, h0_rational

    quadric = SurfaceModel.quadric()
    for bidegree in ((2, 2), (3, 3), (3, 2)):
        assert form_space_dim("quadric_surface", bidegree) == h0_rational(
            quadric, quadric.cls_(*bidegree)
        )


@pytest.mark.parametrize(
    "case", [(3, 2, 9, 9), [3, 2, 4, 1], (3, 2, [4], 1)], ids=["unknown", "list", "unhashable"]
)
def test_unknown_audit_case(case):
    # a list is no case, even with the numbers of one
    with pytest.raises(ValueError, match="unknown audit case"):
        run_audit(case)
