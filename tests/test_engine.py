import json

import pytest
from hypothesis import given, settings, strategies as st

from gensect import audits
from gensect import engine as engine_module
from gensect.engine import (
    CANONICAL_STEP,
    EXCEPTIONAL,
    ClassificationEngine,
    DerivationTrace,
    SUPPORTED_PAIRS,
    IncompleteLedgerError,
    Query,
    Segment,
    admissible_floor,
    in_domain,
    trace_from_payload,
)
from gensect.ledger import CONSTRUCTIVE_TAGS, Ledger, load_ledger
from gensect.numerology import domain_floor

from quote_table import QUOTES
from reference_engine import ReferenceEngine, to_payload

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
    assert to_payload(first.trace) == to_payload(second.trace)


def test_classify_keeps_no_engine_between_calls(engine):
    # an engine holds only the shared bundled ledger, and the threshold
    # windows live on that ledger; the module keeps no engine of its own
    assert list(vars(engine)) == ["ledger"]
    assert not hasattr(engine_module, "default_engine")
    assert not hasattr(engine_module, "_DEFAULT_ENGINE")


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


def at_the_bottom_of_its_column(table):
    """The cases of ``table`` with an in-domain case one degree below them
    that is not in ``table``."""
    return [
        (r, n, d, g)
        for r, n, d, g in table
        if in_domain(r, d - 1, g) and (r, n, d - 1, g) not in table
    ]


def test_exceptional_cases_sit_below_the_admissible_floor():
    # this is what makes the derivable degrees at each genus one interval, and
    # what validate_trace's O(1) replay of a run rests on; a case added above
    # the floor, as (20, 5) for (3, 2), breaks it
    assert at_the_bottom_of_its_column(EXCEPTIONAL) == []
    assert at_the_bottom_of_its_column({**EXCEPTIONAL, (3, 2, 20, 5): None}) == [(3, 2, 20, 5)]
    for r, n in sorted(SUPPORTED_PAIRS):
        for g in range(0, 41):
            floor = admissible_floor(r, n, g)
            admissible = [
                d for d in range(1, 81) if in_domain(r, d, g) and (r, n, d, g) not in EXCEPTIONAL
            ]
            assert admissible == list(range(floor, 81))
    assert all(d < admissible_floor(r, n, g) for r, n, d, g in EXCEPTIONAL)


def test_derivations_are_short_paths(engine):
    assert len(engine.classify(Query(3, 2, 10**6, 0)).trace.segments) <= 3
    for (r, n) in ((3, 2), (3, 1), (4, 1), (2, 1), (2, 2)):
        dg = CANONICAL_STEP[r][1] if r in CANONICAL_STEP else None
        for g in range(0, 41):
            for d in range(1, 61):
                if not in_domain(r, d, g) or (r, n, d, g) in EXCEPTIONAL:
                    continue
                segments = engine.classify(Query(r, n, d, g)).trace.segments
                assert len(segments) <= (1 if dg is None else 2 * (g // dg) + 3)


def test_descriptor_table_shape():
    assert len(EXCEPTIONAL) == 10
    by_pair = {}
    for (r, n, d, g) in EXCEPTIONAL:
        by_pair.setdefault((r, n), set()).add((d, g))
    assert by_pair == {k: v for k, v in THEOREM_LISTS.items() if v}


def test_every_descriptor_has_an_audit(engine, capsys):
    from gensect.audits import run_audit
    from gensect.cli import main

    for case in EXCEPTIONAL:
        # one record per case: the verdict's descriptor is the audit
        descriptor = engine.classify(Query(*case)).descriptor
        assert descriptor is run_audit(case) is EXCEPTIONAL[case]
        assert descriptor.case == case
        assert main(["audit", "--case", ",".join(map(str, case)), "--json"]) == 0
        (audit,) = json.loads(capsys.readouterr().out)["result"]["audits"]
        assert audit["verdict"] == "not_general"


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


@pytest.mark.parametrize("sweep", ["table", "frontier", "completeness_audit"])
@pytest.mark.parametrize("pair", [(1, 1), (3, 3), (5, 1)])
def test_a_sweep_rejects_an_unsupported_pair_and_builds_no_window(pair, sweep):
    engine = ClassificationEngine(Ledger(load_ledger().entries))  # no window built yet
    box = (5,) if sweep == "frontier" else (10, 5)
    with pytest.raises(ValueError, match=rf"unsupported pair \({pair[0]}, {pair[1]}\)"):
        getattr(engine, sweep)(*pair, *box)
    assert engine.ledger.windows == {}


@pytest.mark.parametrize(
    "call, args, shown",
    [
        ("classify", (Query(3, 2, 30.0, 20),), "3, 2, 30.0, 20"),
        ("classify", (Query(3, 2, "30", 20),), "3, 2, '30', 20"),
        ("classify", (Query(3, 2, True, 0),), "3, 2, True, 0"),
        ("table", (3.0, 2, 10, 5), "3.0, 2, 10, 5"),
        ("frontier", (3, 2, 5.0), "3, 2, 0, 5.0"),
        ("completeness_audit", (3, 2, 10, 5.0), "3, 2, 10, 5.0"),
        ("table", (3, 2, False, 5), "3, 2, False, 5"),
    ],
)
def test_a_library_call_rejects_an_argument_that_is_not_an_integer(engine, call, args, shown):
    with pytest.raises(ValueError, match=r"must be integers, got ") as raised:
        getattr(engine, call)(*args)
    assert str(raised.value).endswith(shown) and "\n" not in str(raised.value)


def test_frontier_lists(engine):
    for (r, n), expected in FRONTIER_LISTS.items():
        g_max = max(g for _, g in expected)
        assert engine.frontier(r, n, g_max) == expected
    assert engine.frontier(2, 2, 20) == []


def test_frontier_capped_by_genus(engine):
    assert engine.frontier(3, 1, 5) == [(7, 5)]


def test_a_frontier_probe_builds_no_segment(monkeypatch):
    warm = ClassificationEngine()
    want = {pair: warm.frontier(*pair, 40) for pair in sorted(SUPPORTED_PAIRS)}
    # with the thresholds memoised, building any Segment raises TypeError
    monkeypatch.setattr(engine_module, "Segment", None)
    assert {pair: warm.frontier(*pair, 40) for pair in sorted(SUPPORTED_PAIRS)} == want


# -- trace soundness ---------------------------------------------------------------


def test_traces_validate_across_sweep(engine):
    for (r, n) in ((2, 1), (2, 2), (3, 2), (3, 1), (4, 1)):
        for g in range(0, 41):
            for d in range(1, 61):
                if not in_domain(r, d, g) or (r, n, d, g) in EXCEPTIONAL:
                    continue
                verdict = engine.classify(Query(r, n, d, g))
                assert engine.validate_trace(verdict.trace) == []


def test_trace_json_round_trip(engine):
    trace = engine.classify(Query(4, 1, 30, 25)).trace
    payload = json.loads(json.dumps(to_payload(trace)))
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
    payload = json.loads(json.dumps(to_payload(verdict.trace)))
    rebuilt = trace_from_payload(payload)
    assert rebuilt == verdict.trace


def step(case, rule, entry=None):
    return {"case": list(case), "rule": rule, "entry": entry}


def test_validator_rejects_tampered_traces(engine):
    good = to_payload(engine.classify(Query(3, 2, 4, 0)).trace)
    wrong_delta = trace_from_payload([step((3, 2, 5, 0), "add_line")] + good[1:])
    assert engine.validate_trace(wrong_delta) != []
    bogus_entry = trace_from_payload([step((3, 2, 3, 0), "ledger", "nope")])
    assert engine.validate_trace(bogus_entry) != []
    bad_downgrade = trace_from_payload(
        [step((3, 2, 9, 7), "downgrade")]
        + to_payload(engine.classify(Query(3, 2, 9, 7)).trace)
    )
    assert engine.validate_trace(bad_downgrade) != []
    exceptional_premise = trace_from_payload(
        [step((3, 2, 5, 1), "add_line"), step((3, 2, 4, 1), "ledger", "r3n2-interp-3-0")]
    )
    assert engine.validate_trace(exceptional_premise) != []
    # trace_from_payload rejects these records; a trace built directly reaches the validator
    short_case = DerivationTrace((Segment((3, 2, 9), "ledger", 1, "x"),))
    assert engine.validate_trace(short_case) == ["(3, 2, 9): case is not four integers"]
    bool_premise = DerivationTrace(
        (
            Segment((3, 2, 5, 0), "add_line"),
            Segment((3, 2, 4, False), "ledger", 1, "r3n2-interp-3-0"),
        )
    )
    assert engine.validate_trace(bool_premise) == ["(3, 2, 4, False): case is not four integers"]


@pytest.mark.parametrize("repeat", [0, -1])
def test_validator_rejects_a_segment_of_no_steps(engine, repeat):
    # trace_from_payload never builds one; a trace built directly can
    empty_run = DerivationTrace(
        (
            Segment((3, 2, 7, 4), "add_line", repeat),
            Segment((3, 2, 7, 4), "ledger", 1, "r3n2-delpezzo-7-4"),
        )
    )
    assert engine.validate_trace(empty_run) == ["(3, 2, 7, 4): a segment has at least one step"]


@pytest.mark.parametrize(
    "segments, problem",
    [
        (
            (Segment(None, "ledger", 1, "r3n2-interp-3-0"),),
            "None: case is not four integers",
        ),
        (
            (Segment((3, 2, 3, 0), "ledger", "1", "r3n2-interp-3-0"),),
            "(3, 2, 3, 0): repeat '1' is not an integer",
        ),
        (
            (Segment((3, 2, 3, 0), "ledger", 1, ["x"]),),
            "(3, 2, 3, 0): entry ['x'] is neither a string nor None",
        ),
        (
            (Segment((3, 2, 4, 0), "add_line", 1.0), Segment((3, 2, 3, 0), "ledger", 1, "r3n2-interp-3-0")),
            "(3, 2, 4, 0): repeat 1.0 is not an integer",
        ),
        (
            (Segment((3, 2, 4, 0), "add_line", True), Segment((3, 2, 3, 0), "ledger", 1, "r3n2-interp-3-0")),
            "(3, 2, 4, 0): repeat True is not an integer",
        ),
        (
            (Segment((3, 2, 4, 0), ["add_line"]), Segment((3, 2, 3, 0), "ledger", 1, "r3n2-interp-3-0")),
            "(3, 2, 4, 0): rule ['add_line'] is not a string",
        ),
    ],
    ids=["no-case", "str-repeat", "list-entry", "float-repeat", "bool-repeat", "list-rule"],
)
def test_validator_reports_a_field_of_the_wrong_type(engine, segments, problem):
    # trace_from_payload never builds these; a trace built directly can
    assert engine.validate_trace(DerivationTrace(segments)) == [problem]


@pytest.mark.parametrize(
    "segments",
    [
        (Segment((3, 2, 3, 0), "ledger", 2, "r3n2-interp-3-0"),),
        (Segment((3, 1, 3, 0), "downgrade", 2), Segment((3, 2, 3, 0), "ledger", 1, "r3n2-interp-3-0")),
    ],
    ids=["ledger", "downgrade"],
)
def test_validator_repeats_only_add_line_and_add_canonical(engine, segments):
    # trace_from_payload runs only the two run rules; a trace built directly can repeat any
    rule = segments[0].rule
    assert engine.validate_trace(DerivationTrace(segments)) == [f"{segments[0].case}: rule {rule} does not repeat"]


def test_validator_checks_the_inside_of_a_run(engine):
    # (6, 2) and (5, 2) are exceptional: the run from (8, 2) crosses (6, 2)
    # mid-run, so its premise (5, 2), below it in the column, is not admissible
    crossing = trace_from_payload(
        [step((3, 2, d, 2), "add_line") for d in (8, 7, 6)]
        + [step((3, 2, 5, 2), "ledger", "r3n1-genus2-5-2")]
    )
    assert crossing.segments[0] == Segment((3, 2, 8, 2), "add_line", 3)
    problems = engine.validate_trace(crossing)
    assert "(3, 2, 6, 2): add_line premise (3, 2, 5, 2) not admissible" in problems


def test_validator_lets_no_run_cross_an_exceptional_case_to_an_exempt_leaf():
    # (3, 2, 8, 6) is exceptional; below it the run rests on a rho_exempt
    # entry at (3, 2, 2, -2), which the ledger's invariants allow
    full = load_ledger()
    exempt = full.get("r4n1-skew-lines")._replace(id="r3n2-skew", r=3, n=2, d=2, g=-2)
    ledger = Ledger(entries=full.entries + (exempt,), source="doctored")
    assert list(ledger.invariant_problems()) == []
    crossing = DerivationTrace(
        (Segment((3, 2, 14, 14), "add_canonical", 2), Segment((3, 2, 2, -2), "ledger", 1, "r3n2-skew"))
    )
    assert ClassificationEngine(ledger).validate_trace(crossing) == [
        "(3, 2, 8, 6): add_canonical premise (3, 2, 2, -2) not admissible"
    ]


def test_validator_names_a_ledger_leaf_without_an_entry_id(engine):
    trace = DerivationTrace((Segment((3, 2, 3, 0), "ledger"),))
    assert engine.validate_trace(trace) == ["(3, 2, 3, 0): ledger leaf without an entry id"]


def leaf_trace(case, entry_id):
    return DerivationTrace((Segment(case, "ledger", 1, entry_id),))


@pytest.mark.parametrize(
    "root, entry_id, wildcard",
    [
        ((2, 1, 1, 5), "r2n1-plane", None),  # rho = -13
        ((2, 1, 3, -1), "r2n1-plane", None),  # genus -1
        ((4, 1, 3, -2), "r4n1-skew-lines", None),  # the seed as a root
        ((3, 2, 4, 1), "r3n2-anything", (3, 2)),  # exceptional
    ],
    ids=["rho-negative", "genus-negative", "seed", "exceptional"],
)
def test_validator_rejects_a_root_that_is_not_admissible(root, entry_id, wildcard):
    engine = ClassificationEngine(with_wildcard(*wildcard) if wildcard else None)
    assert engine.classify(Query(*root)).status in ("invalid", "exceptional")
    assert engine.validate_trace(leaf_trace(root, entry_id)) == [
        f"{root}: not an admissible case"
    ]


@pytest.mark.parametrize("case", [(4, 1, 40, 20), (2, 1, 5, 3)])
def test_validator_takes_no_auxiliary_leaf_from_genus_0_up(case):
    # a SkewLines wildcard for the pair, in place of the plane wildcard for (2, 1)
    r, n, _, _ = case
    entries = with_wildcard(r, n, tag="SkewLines").entries
    ledger = Ledger(tuple(e for e in entries if e.id != f"r{r}n{n}-plane"), source="doctored")
    entry_id = f"r{r}n{n}-anything"
    assert ClassificationEngine(ledger).validate_trace(leaf_trace(case, entry_id)) == [
        f"{case}: ledger entry {entry_id} does not cover this case"
    ]


def test_validator_rejects_a_rule_step_that_names_an_entry(engine):
    trace = trace_from_payload(
        [step((3, 2, 4, 0), "add_line", "r4n1-delpezzo-9-5"),
         step((3, 2, 3, 0), "ledger", "r3n2-interp-3-0")]
    )
    assert engine.validate_trace(trace) == ["(3, 2, 4, 0): rule step add_line names an entry"]


@pytest.mark.parametrize(
    "records",
    [
        # add_line and add_canonical apply to (3, 2) and (4, 1) only
        [((2, 1, 5, 0), "add_line", None), ((2, 1, 4, 0), "ledger", "r2n1-plane")],
        [((3, 1, 8, 5), "add_line", None), ((3, 1, 7, 5), "ledger", "r3n1-delpezzo-7-5")],
        # downgrade links (3, 1) to (3, 2) only
        [((3, 2, 7, 4), "downgrade", None), ((3, 2, 7, 4), "ledger", "r3n2-delpezzo-7-4")],
    ],
)
def test_validator_applies_each_rule_only_to_its_pairs(engine, records):
    trace = trace_from_payload([step(*record) for record in records])
    (case, rule, _), (below, _, entry_id) = records
    assert engine.validate_trace(trace) == [f"{case}: rule {rule} rests on no premise here"]
    assert engine.validate_trace(leaf_trace(below, entry_id)) == []


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


# -- gluing arithmetic ------------------------------------------------------------


def test_glue_arithmetic_reaches_case(engine):
    glued = [e for e in engine.ledger.entries if e.glue is not None and e.premises]
    assert glued
    problems = engine.ledger.invariant_problems()
    assert not [p for p in problems if "glue arithmetic" in p]
    # the same check trips when an attached curve's genus is off by one
    bent = glued[0]._replace(glue=glued[0].glue._replace(g2=glued[0].glue.g2 + 1))
    doctored = Ledger(entries=(bent,), source="doctored")
    assert f"{bent.id}: glue arithmetic does not reach the case from premise" in (
        doctored.invariant_problems()
    )


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


def test_table_stops_at_the_first_row_with_a_hole_and_the_audit_lists_them_all(monkeypatch):
    # without the plane wildcard every admissible case of (2, 1) is a hole
    broken = ClassificationEngine(drop_entry("r2n1-plane"))
    built, genus = [], ClassificationEngine._genus
    monkeypatch.setattr(
        ClassificationEngine, "_genus", lambda self, *a: built.append(a[2]) or genus(self, *a)
    )
    with pytest.raises(IncompleteLedgerError) as raised:
        broken.table(2, 1, 6, 3)
    assert raised.value.case == (2, 1, 2, 0)
    assert built == [0]
    assert broken.completeness_audit(2, 1, 6, 3) == [
        (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (3, 1), (4, 1), (5, 1), (6, 1),
        (4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3),
    ]


def move_seed(d):
    """The bundled ledger with the three-skew-lines seed (4, 1, 3, -2) at degree d."""
    full = load_ledger()
    return Ledger(
        entries=tuple(e._replace(d=d) if e.tag == "SkewLines" else e for e in full.entries),
        source="doctored",
    )


def test_an_auxiliary_base_seeds_its_threshold_column_wherever_it_sits():
    # the engine reads the skew-lines degree from the ledger, not from a constant
    for d in (3, 4, 5):
        moved_engine = ClassificationEngine(move_seed(d))
        root = (4, 1, d + 8, 8)  # at or above the floor 11, so add_canonical lands on the seed
        v = moved_engine.classify(Query(*root))
        assert v.status == "general"
        steps = v.trace.steps()
        assert [(s.case, s.rule) for s in steps] == [
            (root, "add_canonical"), ((4, 1, d, -2), "ledger")
        ]
        assert steps[-1].entry_id == "r4n1-skew-lines"
        assert moved_engine.validate_trace(v.trace) == []
    # moved down, the genus-8 floor 11 would rest on (4, 1, 3, -2), which is
    # not the seed, and no rule applies below genus 0: nothing derives there
    for d in (1, 2):
        moved_engine = ClassificationEngine(move_seed(d))
        with pytest.raises(IncompleteLedgerError) as raised:
            moved_engine.classify(Query(4, 1, 11, 8))
        assert raised.value.case == (4, 1, 11, 8)
        with pytest.raises(IncompleteLedgerError) as raised:
            ClassificationEngine(move_seed(d)).table(4, 1, 14, 9)
        assert raised.value.case == (4, 1, 11, 8)
        assert (11, 8) in moved_engine.completeness_audit(4, 1, 14, 9)


def with_wildcard(r, n, tag="Interpolation", full=None):
    """The bundled ledger, or ``full``, plus an entry matching every (d, g)
    of (r, n)."""
    full = full if full is not None else load_ledger()
    wildcard = full.get("r2n2-plane")._replace(id=f"r{r}n{n}-anything", r=r, n=n, tag=tag)
    return Ledger(entries=full.entries + (wildcard,), source="doctored")


def only_wildcard(r, n, tag="Interpolation"):
    """``with_wildcard`` without the exact entries of (r, n)."""
    entries = with_wildcard(r, n, tag).entries
    return Ledger(
        tuple(e for e in entries if e.is_wildcard or (e.r, e.n) != (r, n)), source="doctored"
    )


#: The pairs that read a threshold window.
THRESHOLD_PAIRS = ((3, 2), (3, 1), (4, 1))

#: The pairs and box of each ledger that grids, audits and classify are
#: compared on.
AGREEMENT_PAIRS = (*THRESHOLD_PAIRS, (2, 1), (2, 2))
AGREEMENT_D_MAX, AGREEMENT_G_MAX = 24, 20

STATUS_CODES = {"general": "G", "exceptional": "E", "invalid": "."}

AGREEMENT_LEDGERS = {
    "bundled": load_ledger,
    "moved seed": lambda: move_seed(2),
    # past the window its leaf is no frontier
    "only a constructive wildcard for (3, 2)": lambda: only_wildcard(3, 2, "DelPezzo"),
    "constructive wildcard (3, 1)": lambda: with_wildcard(3, 1, "DelPezzo"),
    "without (3, 2, 14, 14), a constructive wildcard (3, 1)": lambda: with_wildcard(
        3, 1, "DelPezzo", full=drop_entry("r3n2-pglue-14-14")
    ),
    # an auxiliary wildcard derives nothing from genus 0 up
    "auxiliary wildcard (2, 1)": lambda: with_wildcard(
        2, 1, "SkewLines", full=drop_entry("r2n1-plane")
    ),
    "auxiliary wildcard (3, 1)": lambda: with_wildcard(3, 1, "SkewLines"),
    **{f"without {e.id}": (lambda i=e.id: drop_entry(i)) for e in load_ledger().entries},
}


@pytest.mark.parametrize("ledger_name", list(AGREEMENT_LEDGERS))
def test_table_and_audit_agree_with_classify_on_every_cell(ledger_name):
    # a grid cell or audit reads a threshold or a leaf as derivable without
    # replaying it; classify derives every cell on its own, so the two must
    # agree, and where classify finds a hole the grid raises at the first one
    ledger = AGREEMENT_LEDGERS[ledger_name]()
    for r, n in AGREEMENT_PAIRS:
        engine = ClassificationEngine(ledger)
        rows, holes = [], []
        for g in range(0, AGREEMENT_G_MAX + 1):
            row = ""
            for d in range(1, AGREEMENT_D_MAX + 1):
                try:
                    row += STATUS_CODES[engine.classify(Query(r, n, d, g)).status]
                except IncompleteLedgerError as exc:
                    assert exc.case == (r, n, d, g)
                    row += "?"
                    holes.append((d, g))
            rows.append(row)
        sweeper = ClassificationEngine(ledger)
        assert sweeper.completeness_audit(r, n, AGREEMENT_D_MAX, AGREEMENT_G_MAX) == holes
        if holes:
            with pytest.raises(IncompleteLedgerError) as raised:
                sweeper.table(r, n, AGREEMENT_D_MAX, AGREEMENT_G_MAX)
            assert raised.value.case == (r, n, *holes[0])
        else:
            assert sweeper.table(r, n, AGREEMENT_D_MAX, AGREEMENT_G_MAX) == (
                rows,
                frontier_oracle(ledger, r, n, AGREEMENT_G_MAX),
            )
    # the frontier reads its cell from the pass that builds a row; the oracle
    # derives the first step of each genus's least admissible degree
    for r, n in sorted(SUPPORTED_PAIRS):
        want = frontier_oracle(ledger, r, n, AGREEMENT_G_MAX)
        assert ClassificationEngine(ledger).frontier(r, n, AGREEMENT_G_MAX) == want


def frontier_oracle(ledger, r, n, g_max):
    """The frontier genus by genus: the least admissible degree where its
    first step is a ledger leaf with a constructive tag."""
    reference, out = ReferenceEngine(ledger), []
    for g in range(0, g_max + 1):
        d = admissible_floor(r, n, g)
        step = reference.first_step(r, n, d, g)
        if step and step.rule == "ledger":
            if ledger.get(step.entry_id).tag in CONSTRUCTIVE_TAGS:
                out.append((d, g))
    return out


def test_dropping_wildcard_breaks_plane_cases():
    broken = ClassificationEngine(drop_entry("r2n2-plane"))
    with pytest.raises(IncompleteLedgerError):
        broken.classify(Query(2, 2, 12, 11))


# -- the threshold window and its closed form -----------------------------------


def move_up(entry_id, k):
    """The bundled ledger with one exact entry k add_canonical steps higher."""
    full = load_ledger()
    entry = full.get(entry_id)
    dd, dg = CANONICAL_STEP[entry.r]
    moved = entry._replace(d=entry.d + k * dd, g=entry.g + k * dg)
    return Ledger(
        entries=tuple(moved if e.id == entry_id else e for e in full.entries), source="doctored"
    )


ORACLE_LEDGERS = {
    "bundled": load_ledger,
    **{f"seed at {d}": (lambda d=d: move_seed(d)) for d in range(1, 6)},
    "(3, 2, 14, 14) moved to genus 38": lambda: move_up("r3n2-pglue-14-14", 3),
    "(4, 1, 16, 15) moved to genus 45": lambda: move_up("r4n1-hglue-16-15", 3),
    # a wildcard leaf at the floor one step above a breakpoint
    "(3, 2, 14, 14) moved to genus 94 with a (3, 2) wildcard": lambda: with_wildcard(
        3, 2, full=move_up("r3n2-pglue-14-14", 10)
    ),
    "(4, 1, 16, 15) moved to genus 115 with a (4, 1) wildcard": lambda: with_wildcard(
        4, 1, full=move_up("r4n1-hglue-16-15", 10)
    ),
    "wildcard (3, 2)": lambda: with_wildcard(3, 2),
    "wildcard (4, 1)": lambda: with_wildcard(4, 1),
    "auxiliary wildcard (4, 1)": lambda: with_wildcard(4, 1, "SkewLines"),
    "only a wildcard for (3, 2)": lambda: only_wildcard(3, 2),
    **{f"without {e.id}": (lambda i=e.id: drop_entry(i)) for e in load_ledger().entries},
}


def agree_with_reference(ledger, r, n, genera):
    """classify and the genus-by-genus reference give identical segments, or
    the same IncompleteLedgerError, at degrees floor - 1 to floor + dd + 1."""
    engine, reference = ClassificationEngine(ledger), ReferenceEngine(ledger)
    dd = CANONICAL_STEP[r][0]
    for g in genera:
        floor = admissible_floor(r, n, g)
        for d in range(floor - 1, floor + dd + 2):
            if not in_domain(r, d, g) or (r, n, d, g) in EXCEPTIONAL:
                assert d < floor
                continue
            try:
                want = reference.segments(r, n, d, g)
            except IncompleteLedgerError as exc:
                with pytest.raises(IncompleteLedgerError) as raised:
                    engine.classify(Query(r, n, d, g))
                assert raised.value.case == exc.case
            else:
                assert engine.classify(Query(r, n, d, g)).trace.segments == want, (r, n, d, g)


@pytest.mark.parametrize("ledger_name", list(ORACLE_LEDGERS))
def test_classify_agrees_with_the_genus_by_genus_reference(ledger_name):
    ledger = ORACLE_LEDGERS[ledger_name]()
    for r, n in THRESHOLD_PAIRS:
        agree_with_reference(ledger, r, n, range(0, 121))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    entry_id=st.sampled_from(["r3n2-pglue-14-14", "r4n1-hglue-16-15"]),
    k=st.integers(0, 300),
    wildcard=st.booleans(),
)
def test_classify_agrees_with_the_reference_past_a_moved_entry(entry_id, k, wildcard):
    ledger = move_up(entry_id, k)
    entry = ledger.get(entry_id)
    if wildcard:
        ledger = with_wildcard(entry.r, entry.n, full=ledger)
    dg = CANONICAL_STEP[entry.r][1]
    genera = (entry.g, entry.g + 1, entry.g + dg, entry.g + 2 * dg)
    agree_with_reference(ledger, entry.r, entry.n, genera)


@pytest.mark.parametrize("pair", THRESHOLD_PAIRS)
def test_deep_queries_answer_in_closed_form(pair):
    from test_cli import _time_cap

    r, n = pair
    lengths = {}
    with _time_cap(5):
        for g in (10**6, 10**9, 10**18):
            for extra in (0, 1):
                engine = ClassificationEngine()
                v = engine.classify(Query(r, n, admissible_floor(r, n, g) + extra, g))
                assert v.status == "general"
                assert engine.validate_trace(v.trace) == []
                lengths.setdefault(extra, set()).add(len(v.trace.segments))
    assert {extra: len(counts) for extra, counts in lengths.items()} == {0: 1, 1: 1}


def test_a_deep_query_grows_no_window():
    ledger = Ledger(load_ledger().entries, source="copy")
    engine = ClassificationEngine(ledger)
    for r, n in THRESHOLD_PAIRS:
        engine.classify(Query(r, n, admissible_floor(r, n, 40) + 1, 40))
    shallow = dict(ledger.windows)
    assert set(shallow) == {(3, 2), (4, 1)}
    for r, n in THRESHOLD_PAIRS:
        engine.classify(Query(r, n, admissible_floor(r, n, 10**9) + 1, 10**9))
    assert ledger.windows == shallow
    assert all(ledger.windows[pair] is window for pair, window in shallow.items())


def test_an_exceptional_genus_and_the_one_above_are_breakpoints(monkeypatch):
    # a hypothetical exceptional case at the bottom of the (3, 2) column at
    # genus 30 lifts the floor there, past every exact entry's genus
    bottom = (3, 2, admissible_floor(3, 2, 30), 30)
    row = EXCEPTIONAL[(3, 2, 8, 6)]._replace(case=bottom, description="mutant")
    monkeypatch.setitem(audits.EXCEPTIONAL, bottom, row)
    ledger = Ledger(load_ledger().entries, source="copy")
    agree_with_reference(ledger, 3, 2, range(30, 30 + 8 * 12, 8))
    assert {30, 38} <= {h for h, _ in ledger.windows[(3, 2)][30 % 8]}


def test_a_high_exact_entry_costs_the_window_no_steps_below_it():
    # (3, 2, 14, 14) moved 124,998 add_canonical steps up, to (750,002, 999,998)
    from test_cli import _time_cap

    ledger = move_up("r3n2-pglue-14-14", 124_998)
    engine = ClassificationEngine(ledger)
    with _time_cap(5):
        v = engine.classify(Query(3, 2, admissible_floor(3, 2, 999_998) + 1, 999_998))
    assert v.status == "general"
    assert engine.validate_trace(v.trace) == []
    dg = CANONICAL_STEP[3][1]
    genera = {g for r, n, _, g in EXCEPTIONAL if (r, n) == (3, 2)} | {
        e.g for e in ledger.entries if (e.r, e.n) == (3, 2) and not e.is_wildcard
    }
    assert sum(map(len, ledger.windows[(3, 2)])) <= dg + 2 * len(genera)


def test_engines_over_one_ledger_share_its_window():
    first, second = ClassificationEngine(), ClassificationEngine()
    first.classify(Query(3, 2, 40, 30))
    assert second.ledger.windows is first.ledger.windows
    window = first.ledger.windows[(3, 2)]
    second.classify(Query(3, 1, 40, 30))
    assert second.ledger.windows[(3, 2)] is window


def test_a_window_serves_only_its_own_ledger():
    # without the (12, 12) glue, (3, 2) derives differently from genus 12 up
    bundled, doctored = load_ledger(), drop_entry("r3n2-pglue-12-12")
    cases = [Query(3, 2, admissible_floor(3, 2, g) + 1, g) for g in (12, 20, 28, 10**9)]
    want = {id(ledger): [ReferenceEngine(ledger).segments(*q) for q in cases[:3]]
            for ledger in (bundled, doctored)}
    assert want[id(bundled)] != want[id(doctored)]
    for first, second in ((doctored, bundled), (bundled, doctored)):
        for ledger in (first, second):
            got = [ClassificationEngine(ledger).classify(q).trace.segments for q in cases]
            assert got[:3] == want[id(ledger)]
    assert doctored.windows is not bundled.windows
    assert doctored.windows[(3, 2)] is not bundled.windows[(3, 2)]


def test_engines_in_threads_share_a_window_safely():
    # four threads start building the columns of a fresh ledger at once;
    # switching threads every microsecond interleaves their builds
    import sys
    import threading
    import time

    ledger = move_up("r3n2-pglue-14-14", 3)  # a long (3, 2) window
    queries = [
        Query(r, n, admissible_floor(r, n, g) + 1, g)
        for r, n in THRESHOLD_PAIRS
        for g in range(60, 70)
    ]
    want = [ReferenceEngine(ledger).segments(*q) for q in queries]
    rounds, results = 20, []
    barrier = threading.Barrier(4, timeout=30)

    def work():
        try:
            for _ in range(rounds):
                if barrier.wait() == 0:
                    fresh[0] = Ledger(ledger.entries, source="copy")
                barrier.wait()
                engine = ClassificationEngine(fresh[0])
                results.append([engine.classify(q).trace.segments for q in queries])
        except BaseException:
            barrier.abort()  # so the other threads stop waiting for this one
            raise

    fresh = [None]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, daemon=True) for _ in range(4)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60
        for thread in threads:
            thread.join(timeout=max(0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 4 * rounds
    assert all(got == want for got in results)


def test_threads_racing_to_build_a_window_keep_the_first_stored(monkeypatch):
    # every thread builds the (3, 2) window before any stores one; each must
    # then answer from the one window the ledger keeps, not from its own
    import threading

    threads, genera = 4, range(0, 40, 3)
    barrier = threading.Barrier(threads, timeout=30)
    build = ClassificationEngine._window

    def built_together(self, r, n):
        window = build(self, r, n)
        barrier.wait()
        return window

    monkeypatch.setattr(ClassificationEngine, "_window", built_together)
    ledger = Ledger(load_ledger().entries, source="copy")
    results = []

    def work():
        try:
            engine = ClassificationEngine(ledger)
            results.append([engine._window_step(3, 2, g)[0] for g in genera])
        except BaseException:
            barrier.abort()  # so the other threads stop waiting for this one
            raise

    workers = [threading.Thread(target=work, daemon=True) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    assert not any(worker.is_alive() for worker in workers)
    assert len(results) == threads
    kept = [ClassificationEngine(ledger)._window_step(3, 2, g)[0] for g in genera]
    assert all(step is not None for step in kept)
    assert all(got is want for steps in results for got, want in zip(steps, kept))


# -- the sweep's closed form ------------------------------------------------------------


def test_a_canonical_step_lifts_the_domain_floor_by_its_degree():
    # r dg = (r + 1) dd, so domain_floor(r, g) = ceil(r (g + r + 1) / (r + 1))
    # rises by exactly dd every dg: the lemma behind the sweep's closed form
    # and the threshold window's shift
    for r, (dd, dg) in CANONICAL_STEP.items():
        assert r * dg == (r + 1) * dd
        for g in range(0, 4 * dg):
            assert domain_floor(r, g + dg) == domain_floor(r, g) + dd


def genus_walk(ledger, r, n, d_max, g_max):
    """The rows and seeds of ``_sweep`` with every genus derived by ``_genus``."""
    engine = ClassificationEngine(ledger)
    return [engine._genus(r, n, g, d_max) for g in range(g_max + 1)]


def high_r3n1_entry(tag, r3n1_wildcard):
    """The ledger without (3, 2, 14, 14), where the (3, 2) threshold of the
    column g = 6 mod 8 sits one degree above the floor from genus 14 up,
    plus a (3, 1) entry tagged ``tag`` at the floor of genus 102 in that
    column, far above the (3, 2) window, and a (3, 1) wildcard if asked."""
    ledger = drop_entry("r3n2-pglue-14-14")
    if r3n1_wildcard:
        ledger = with_wildcard(3, 1, full=ledger)
    high = ledger.get("r3n1-delpezzo-7-5")._replace(
        id="r3n1-high", d=domain_floor(3, 102), g=102, tag=tag
    )
    return Ledger(ledger.entries + (high,), source="doctored")


SWEEP_LEDGERS = {
    **ORACLE_LEDGERS,
    "(3, 2, 14, 14) moved to genus 174": lambda: move_up("r3n2-pglue-14-14", 20),
    "(4, 1, 16, 15) moved to genus 215": lambda: move_up("r4n1-hglue-16-15", 20),
    "wildcard (3, 1)": lambda: with_wildcard(3, 1),
    "constructive wildcard (3, 1)": lambda: with_wildcard(3, 1, "DelPezzo"),
    "only a constructive wildcard for (3, 2)": lambda: only_wildcard(3, 2, "DelPezzo"),
    "only a wildcard for (4, 1)": lambda: only_wildcard(4, 1),
    # past the window, every (3, 1) row of the column g = 6 mod 8 seeds the
    # frontier, so that column is derived genus by genus
    "without (3, 2, 14, 14), a constructive wildcard (3, 1)": lambda: with_wildcard(
        3, 1, "DelPezzo", full=drop_entry("r3n2-pglue-14-14")
    ),
    # the frontier seed sits past the (3, 2) window: (3, 1)'s own entries
    # count towards g0
    "a constructive (3, 1) entry at genus 102": lambda: high_r3n1_entry("DelPezzo", True),
    # its row is whole, the rows of its column above it have a hole: the
    # closed form starts only above g0
    "a (3, 1) entry at genus 102 without a wildcard": lambda: high_r3n1_entry(
        "Interpolation", False
    ),
}


@pytest.mark.parametrize("ledger_name", list(SWEEP_LEDGERS))
def test_a_sweep_equals_the_genus_by_genus_walk(ledger_name):
    ledger = SWEEP_LEDGERS[ledger_name]()
    engine = ClassificationEngine(ledger)
    for r, n in sorted(SUPPORTED_PAIRS):
        for d_max in (0, 1, 7, 60, 200):
            want = genus_walk(ledger, r, n, d_max, 300)
            assert list(engine._sweep(r, n, d_max, 300)) == want, (r, n, d_max)
            holes = [
                (d, g) for g, (row, _) in enumerate(want) for d, code in enumerate(row, 1)
                if code == "?"
            ]
            assert engine.completeness_audit(r, n, d_max, 300) == holes


#: g0 of each pair on the bundled ledger: the highest genus of an exact entry
#: or an exceptional case of the pair, or of (3, 2) for (3, 1): that of
#: (3, 2, 14, 14) and of (4, 1, 18, 17).  The threshold window's last
#: breakpoint sits dg higher.
BUNDLED_G0 = {(2, 1): -1, (2, 2): -1, (3, 2): 14, (3, 1): 14, (4, 1): 17}


@pytest.mark.parametrize("pair", sorted(SUPPORTED_PAIRS))
def test_a_table_derives_its_rows_only_up_to_the_threshold_window(pair, monkeypatch):
    calls, genus = [], ClassificationEngine._genus
    monkeypatch.setattr(
        ClassificationEngine, "_genus", lambda self, *a: calls.append(a[2]) or genus(self, *a)
    )
    r, n = pair
    dg = CANONICAL_STEP[r][1] if r in CANONICAL_STEP else 1
    rows, _ = ClassificationEngine().table(r, n, 60, 10_000)
    assert len(rows) == 10_001
    assert len(calls) <= BUNDLED_G0[pair] + dg + 1  # the genera 0..g0 + dg at most
