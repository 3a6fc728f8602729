import json

import pytest

from gensect.engine import (
    CANONICAL_STEP,
    DESCRIPTORS,
    EXCEPTIONAL_PAIRS,
    ClassificationEngine,
    IncompleteLedgerError,
    Query,
    Segment,
    admissible_floor,
    composite_invariants,
    in_domain,
    side_condition_check,
    trace_from_payload,
)
from gensect.ledger import Ledger, load_ledger

from quote_table import QUOTES

#: Restatement of the theorem lists, used as the sweep oracle.
THEOREM_LISTS = {
    (2, 1): set(),
    (2, 2): set(),
    (3, 2): {(4, 1), (5, 2), (6, 2), (6, 4), (7, 5), (8, 6)},
    (3, 1): {(6, 4)},
    (4, 1): {(8, 5), (9, 6), (10, 7)},
}

FRONTIER_LISTS = {
    (3, 2): [
        (5, 1), (7, 2), (6, 3), (7, 4), (8, 5), (9, 6), (9, 7),
        (10, 9), (11, 10), (12, 12), (13, 13), (14, 14),
    ],
    (3, 1): [(7, 5), (8, 6)],
    (4, 1): [(9, 5), (10, 6), (11, 7), (12, 9), (16, 15), (17, 16), (18, 17)],
}


@pytest.fixture(scope="module")
def engine():
    return ClassificationEngine()


# -- classification -------------------------------------------------------------


def test_classify_exceptional_examples(engine):
    v = engine.classify(Query(3, 2, 8, 6))
    assert v.status == "exceptional"
    assert "16 points" in v.descriptor.description
    assert v.descriptor.case == (3, 2, 8, 6)

    v = engine.classify(Query(3, 1, 6, 4))
    assert v.status == "exceptional"
    assert "conic" in v.descriptor.description

    v = engine.classify(Query(4, 1, 10, 7))
    assert v.status == "exceptional"
    assert "quadric" in v.descriptor.description
    assert v.descriptor.note is not None


def test_classify_general_with_trace(engine):
    v = engine.classify(Query(3, 2, 4, 0))
    assert v.status == "general"
    root, child = v.trace.steps()
    assert root.rule == "add_line"
    assert child.case == (3, 2, 3, 0)
    assert child.rule == "ledger"
    assert child.entry_id == "r3n2-interp-3-0"


def test_classify_plane_cases(engine):
    v = engine.classify(Query(2, 2, 12, 11))
    assert v.status == "general"
    assert v.trace.segments == (Segment((2, 2, 12, 11), "ledger", 1, "r2n2-plane"),)
    assert engine.classify(Query(2, 1, 9, 9)).status == "general"


def test_classify_invalid(engine):
    assert engine.classify(Query(3, 2, 3, 2)).status == "invalid"
    assert engine.classify(Query(5, 1, 10, 0)).status == "invalid"
    assert engine.classify(Query(3, 3, 10, 0)).status == "invalid"
    assert engine.classify(Query(3, 2, 0, 0)).status == "invalid"
    assert engine.classify(Query(3, 2, 5, -1)).status == "invalid"


def test_classify_deterministic(engine):
    first = engine.classify(Query(3, 2, 20, 18))
    second = engine.classify(Query(3, 2, 20, 18))
    assert first.trace.to_payload() == second.trace.to_payload()


def test_downgrade_rule(engine):
    v = engine.classify(Query(3, 1, 9, 7))
    assert v.status == "general"
    steps = v.trace.steps()
    assert steps[0].rule == "downgrade"
    assert steps[1].case == (3, 2, 9, 7)


def test_skew_lines_premise(engine):
    v = engine.classify(Query(4, 1, 11, 8))
    assert v.status == "general"
    root, leaf = v.trace.steps()
    assert root.rule == "add_canonical"
    assert leaf.case == (4, 1, 3, -2)
    assert leaf.entry_id == "r4n1-skew-lines"


def test_exceptional_cases_sit_below_the_admissible_floor():
    # this is what makes the derivable degrees at each genus one interval
    for (r, n), exceptional in EXCEPTIONAL_PAIRS.items():
        for g in range(0, 41):
            floor = admissible_floor(r, n, g)
            admissible = [
                d for d in range(1, 81) if in_domain(r, d, g) and (d, g) not in exceptional
            ]
            assert admissible == list(range(floor, 81))
        assert all(d < admissible_floor(r, n, g) for d, g in exceptional)


def test_derivations_are_short_paths(engine):
    assert len(engine.classify(Query(3, 2, 10**6, 0)).trace.segments) <= 3
    for (r, n) in ((3, 2), (3, 1), (4, 1), (2, 1), (2, 2)):
        dg = CANONICAL_STEP[r][1] if r in CANONICAL_STEP else None
        for g in range(0, 41):
            for d in range(1, 61):
                if not in_domain(r, d, g) or engine.is_exceptional(r, n, d, g):
                    continue
                segments = engine.classify(Query(r, n, d, g)).trace.segments
                assert len(segments) <= (1 if dg is None else 2 * (g // dg) + 3)


def test_descriptor_table_shape():
    assert len(DESCRIPTORS) == 10
    by_pair = {}
    for (r, n, d, g) in DESCRIPTORS:
        by_pair.setdefault((r, n), set()).add((d, g))
    assert by_pair == {k: v for k, v in THEOREM_LISTS.items() if v}


def test_every_descriptor_has_an_audit():
    from gensect.audits import AUDIT_CASES, run_audit

    assert set(AUDIT_CASES) == set(DESCRIPTORS)
    for descriptor in DESCRIPTORS.values():
        assert run_audit(descriptor.case).verdict == "not_general"


# -- sweeps ----------------------------------------------------------------------


def test_engine_matches_theorem_lists(engine):
    for (r, n), expected in THEOREM_LISTS.items():
        found = set()
        for g in range(0, 41):
            for d in range(1, 61):
                if not in_domain(r, d, g):
                    continue
                verdict = engine.classify(Query(r, n, d, g))
                assert verdict.status in ("general", "exceptional")
                if verdict.status == "exceptional":
                    found.add((d, g))
        assert found == expected


def test_completeness_audits_empty(engine):
    assert engine.completeness_audit(3, 2, 60, 40) == []
    assert engine.completeness_audit(3, 1, 60, 40) == []
    assert engine.completeness_audit(4, 1, 80, 50) == []


def test_frontier_lists(engine):
    for (r, n), expected in FRONTIER_LISTS.items():
        g_max = max(g for _, g in expected)
        assert engine.frontier(r, n, g_max) == expected
    assert engine.frontier(2, 2, 20) == []


def test_frontier_capped_by_genus(engine):
    assert engine.frontier(3, 1, 5) == [(7, 5)]


# -- trace soundness ---------------------------------------------------------------


def test_traces_validate_across_sweep(engine):
    for (r, n) in ((3, 2), (3, 1), (4, 1)):
        for g in range(0, 41):
            for d in range(1, 61):
                if not in_domain(r, d, g) or engine.is_exceptional(r, n, d, g):
                    continue
                verdict = engine.classify(Query(r, n, d, g))
                assert engine.validate_trace(verdict.trace) == []


def test_trace_json_round_trip(engine):
    trace = engine.classify(Query(4, 1, 30, 25)).trace
    payload = json.loads(json.dumps(trace.to_payload()))
    rebuilt = trace_from_payload(payload)
    assert rebuilt == trace
    assert engine.validate_trace(rebuilt) == []


def test_long_chains_stay_within_the_interpreter_stack(engine):
    # add-line chains are as long as the degree; everything that walks a
    # trace must be iterative
    verdict = engine.classify(Query(3, 2, 3000, 0))
    assert len(verdict.trace.segments) == 2
    steps = verdict.trace.steps()
    assert len(steps) == 2998
    assert steps[-1].entry_id == "r3n2-interp-3-0"
    assert engine.validate_trace(verdict.trace) == []
    payload = json.loads(json.dumps(verdict.trace.to_payload()))
    rebuilt = trace_from_payload(payload)
    assert rebuilt == verdict.trace


def step(case, rule, entry=None):
    return {"case": list(case), "rule": rule, "entry": entry}


def test_validator_rejects_tampered_traces(engine):
    good = engine.classify(Query(3, 2, 4, 0)).trace.to_payload()
    wrong_delta = trace_from_payload([step((3, 2, 5, 0), "add_line")] + good[1:])
    assert engine.validate_trace(wrong_delta) != []
    bogus_entry = trace_from_payload([step((3, 2, 3, 0), "ledger", "nope")])
    assert engine.validate_trace(bogus_entry) != []
    bad_downgrade = trace_from_payload(
        [step((3, 2, 9, 7), "downgrade")]
        + engine.classify(Query(3, 2, 9, 7)).trace.to_payload()
    )
    assert engine.validate_trace(bad_downgrade) != []
    exceptional_premise = trace_from_payload(
        [step((3, 2, 5, 1), "add_line"), step((3, 2, 4, 1), "ledger", "r3n2-interp-3-0")]
    )
    assert engine.validate_trace(exceptional_premise) != []


def test_validator_checks_the_inside_of_a_run(engine):
    # (6, 2) and (5, 2) are exceptional: the run from (8, 2) crosses (6, 2)
    # mid-run, before it reaches its last premise
    crossing = trace_from_payload(
        [step((3, 2, d, 2), "add_line") for d in (8, 7, 6)]
        + [step((3, 2, 5, 2), "ledger", "r3n1-genus2-5-2")]
    )
    assert crossing.segments[0] == Segment((3, 2, 8, 2), "add_line", 3)
    problems = engine.validate_trace(crossing)
    assert "(3, 2, 7, 2): add_line premise (3, 2, 6, 2) not admissible" in problems


# -- ledger ------------------------------------------------------------------------


def test_ledger_quotes_match_bundled_table(engine):
    entries = engine.ledger.entries
    assert {e.id for e in entries} == set(QUOTES)
    for entry in entries:
        assert entry.quote == QUOTES[entry.id]
        assert entry.citation.strip()


def test_ledger_invariants(engine):
    assert engine.ledger.invariant_problems() == []
    exempt = [e for e in engine.ledger.entries if e.rho_exempt]
    assert [e.id for e in exempt] == ["r4n1-skew-lines"]
    assert (exempt[0].r, exempt[0].n, exempt[0].d, exempt[0].g) == (4, 1, 3, -2)


def test_ledger_premises_classify_general(engine):
    for entry in engine.ledger.entries:
        if entry.premises_stated_only:
            continue
        for (r, n, d, g) in entry.premises:
            assert engine.classify(Query(r, n, d, g)).status == "general"


def test_stated_only_premise_is_flagged(engine):
    entry = engine.ledger.get("r4n1-hglue-12-9")
    assert entry.premises_stated_only
    assert entry.note is not None
    # the stated base is out of domain, which is exactly why it is flagged
    (r, n, d, g) = entry.premises[0]
    assert not in_domain(r, d, g)


# -- side conditions and gluing arithmetic ------------------------------------------


def test_side_conditions_plane_quartic(engine):
    report = side_condition_check(engine.ledger.get("r3n2-pglue-10-9"))
    by_name = {row.name: row for row in report.rows}
    assert (by_name["restricted-chi"].lhs, by_name["restricted-chi"].rhs) == (6, 6)
    assert (by_name["twisted-series"].lhs, by_name["twisted-series"].rhs) == (6, 6)
    assert (by_name["smoothing"].lhs, by_name["smoothing"].rhs) == (6, 2)
    assert report.all_hold


def test_side_conditions_hyperplane_nine_six(engine):
    report = side_condition_check(engine.ledger.get("r4n1-hglue-16-15"))
    by_name = {row.name: row for row in report.rows}
    assert (by_name["restricted-chi"].lhs, by_name["restricted-chi"].rhs) == (14, 18)
    assert (by_name["twisted-series"].lhs, by_name["twisted-series"].rhs) == (7, 6)
    assert report.all_hold


def test_side_conditions_all_glue_entries(engine):
    checked = 0
    for entry in engine.ledger.entries:
        if entry.tag in ("HyperplaneGlue", "PlaneCurveGlue"):
            assert side_condition_check(entry).all_hold
            checked += 1
    assert checked == 15


def test_side_conditions_rejects_plain_entries(engine):
    with pytest.raises(ValueError):
        side_condition_check(engine.ledger.get("r3n2-interp-3-0"))


def test_composite_invariants():
    assert composite_invariants((6, 1), (4, 3, 6)) == (10, 9)
    assert composite_invariants((7, 3), (9, 6, 7)) == (16, 15)
    assert composite_invariants((11, 4), (1, 0, 1)) == (12, 4)
    with pytest.raises(ValueError):
        composite_invariants((6, 1), (4, 3, 0))


def test_glue_arithmetic_reaches_case(engine):
    for entry in engine.ledger.entries:
        if entry.glue is None:
            continue
        for (r, n, d, g) in entry.premises:
            assert composite_invariants(
                (d, g), (entry.glue.d2, entry.glue.g2, entry.glue.points)
            ) == (entry.d, entry.g)


# -- fault injection -----------------------------------------------------------------


def drop_entry(entry_id):
    full = load_ledger()
    return Ledger(
        entries=tuple(e for e in full.entries if e.id != entry_id), source="doctored"
    )


def test_incomplete_ledger_raises():
    broken = ClassificationEngine(drop_entry("r3n2-interp-3-0"))
    with pytest.raises(IncompleteLedgerError):
        broken.classify(Query(3, 2, 7, 0))


def test_incomplete_ledger_reported_by_audit():
    broken = ClassificationEngine(drop_entry("r3n2-scroll-5-1"))
    missing = broken.completeness_audit(3, 2, 20, 10)
    assert (5, 1) in missing
    # everything reached only through (5, 1) is gone too
    assert (6, 1) in missing


def test_dropping_wildcard_breaks_plane_cases():
    broken = ClassificationEngine(drop_entry("r2n2-plane"))
    with pytest.raises(IncompleteLedgerError):
        broken.classify(Query(2, 2, 12, 11))
