"""Property tests: rebuilding a trace from its JSON form run by run gives what
checking its records and folding them one by one into ``extend`` gives, on
any payload."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gensect.engine import (  # noqa: E402
    ClassificationEngine,
    DerivationTrace,
    Query,
    Segment,
    _trace_record,
    trace_from_payload,
)

from reference_engine import extend, to_payload  # noqa: E402

ENGINE = ClassificationEngine()
RULES = ("add_line", "add_canonical", "downgrade", "ledger", "attach_conic")
ENTRIES = (None, "r3n2-interp-3-0", "r4n1-skew-lines", "no-such-entry")
QUERIES = (
    (3, 2, 20, 9), (3, 2, 40, 20), (3, 1, 15, 5), (4, 1, 11, 8), (4, 1, 30, 25),
    (2, 2, 9, 3), (3, 2, 4, 0),
)


def fold(payload: list) -> DerivationTrace:
    """The reference: each record checked, one Segment each, merged by ``extend``."""
    if type(payload) is not list:
        raise ValueError("a trace payload is a list of records")
    if not payload:
        raise ValueError("empty trace payload")
    segments: list = []
    for index, record in enumerate(payload):
        case, rule, entry = _trace_record(index, record)
        extend(segments, Segment(case, rule, 1, entry))
    return DerivationTrace(tuple(segments))


def outcome(fn, *args):
    try:
        return ("returned", fn(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


ints = st.integers(min_value=-3, max_value=60)
mutation = st.one_of(
    st.tuples(st.just("shift"), st.integers(0, 400), st.integers(0, 3), st.integers(-11, 11)),
    st.tuples(st.just("duplicate"), st.integers(0, 400)),
    st.tuples(st.just("drop"), st.integers(0, 400)),
    st.tuples(st.just("entry"), st.integers(0, 400), st.sampled_from(ENTRIES)),
    st.tuples(st.just("rule"), st.integers(0, 400), st.sampled_from(RULES)),
    st.tuples(st.just("length"), st.integers(0, 400), st.integers(0, 6)),
)


def mutate(payload: list, change: tuple) -> list:
    payload = [dict(record, case=list(record["case"])) for record in payload]
    if not payload:
        return payload
    kind, at, *args = change
    at %= len(payload)
    record = payload[at]
    if kind == "shift" and len(record["case"]) >= 4:
        record["case"][args[0]] += args[1]
    elif kind == "duplicate":
        payload.insert(at, dict(record, case=list(record["case"])))
    elif kind == "drop":
        del payload[at]
    elif kind == "entry":
        record["entry"] = args[0]
    elif kind == "rule":
        record["rule"] = args[0]
    elif kind == "length":
        record["case"] = (record["case"] + [7, 7, 7])[: args[0]]
    return payload


tampered = st.builds(
    lambda case, changes: _apply(to_payload(ENGINE.classify(Query(*case)).trace), changes),
    st.sampled_from(QUERIES),
    st.lists(mutation, max_size=6),
)


def _apply(payload, changes):
    for change in changes:
        payload = mutate(payload, change)
    return payload


def _run(start, rule, entry, steps):
    r, n, d, g = start
    dd, dg = {"add_line": (1, 0), "add_canonical": (6, 8)}.get(rule, (0, 0))
    return [
        {"case": [r, n, d - i * dd, g - i * dg], "rule": rule, "entry": entry}
        for i in range(steps)
    ]


# runs of any rule, entry and length, glued end to end, then tampered with
glued_runs = st.builds(
    lambda runs, changes: _apply([record for run in runs for record in _run(*run)], changes),
    st.lists(
        st.tuples(
            st.tuples(st.sampled_from((2, 3, 4)), st.sampled_from((1, 2)), ints, ints),
            st.sampled_from(RULES),
            st.sampled_from(ENTRIES),
            st.integers(1, 5),
        ),
        max_size=5,
    ),
    st.lists(mutation, max_size=4),
)

# JSON values that are never a case, rule or entry; a case list holds only
# ints, since a float or bool equal to a run's next case continues the run
# unchecked (test_a_record_continuing_a_run_is_compared_not_rechecked)
scalars = st.one_of(
    st.none(), st.booleans(), ints, st.floats(allow_nan=False), st.text(max_size=4)
)

arbitrary = st.lists(
    st.one_of(
        st.fixed_dictionaries(
            {},
            optional={
                "case": st.one_of(st.lists(ints, min_size=0, max_size=6), scalars),
                "rule": st.one_of(st.sampled_from(RULES), scalars),
                "entry": st.one_of(st.sampled_from(ENTRIES), scalars),
            },
        ),
        scalars,
        st.lists(ints, max_size=4),
    ),
    max_size=8,
)


@settings(max_examples=400, deadline=None, database=None)
@given(st.one_of(tampered, glued_runs, arbitrary, scalars))
def test_scan_equals_the_per_record_fold(payload):
    scanned, folded = outcome(trace_from_payload, payload), outcome(fold, payload)
    assert scanned == folded
    if scanned[0] == "returned":
        assert outcome(ENGINE.validate_trace, scanned[1]) == outcome(
            ENGINE.validate_trace, folded[1]
        )


def test_malformed_records_raise_naming_their_index():
    good = {"case": [3, 2, 9, 0], "rule": "add_line", "entry": None}
    for bad in (
        [3, 2, 9, 0],
        "add_line",
        None,
        {"case": 5, "rule": "add_line"},
        {"case": [3, 2, 9], "rule": "add_line"},
        {"case": [3, 2, 9, True], "rule": "ledger"},
        {"case": [3, 2, 9, 0], "rule": 7},
        {"case": [3, 2, 9, 0], "rule": ["add_line"]},
        {"case": [3, 2, 9, 0]},
        {"case": [3, 2, 9, 0], "rule": "ledger", "entry": 3},
    ):
        for payload, index in (([bad], 0), ([good, bad], 1), ([good, good, bad], 2)):
            assert outcome(trace_from_payload, payload) == outcome(fold, payload)
            with pytest.raises(ValueError, match=f"^trace record {index}: "):
                trace_from_payload(payload)
    for payload in (5, None, "add_line", good):
        with pytest.raises(ValueError, match="a trace payload is a list of records"):
            trace_from_payload(payload)
    assert outcome(trace_from_payload, []) == outcome(fold, [])


def test_a_record_continuing_a_run_is_compared_not_rechecked():
    # the record after a run's start is read as the run's next case when it
    # equals it, so a float there passes; the reference fold rejects it
    ints_only = [{"case": [3, 2, d, 0], "rule": "add_line", "entry": None} for d in (9, 8, 7)]
    with_float = [ints_only[0], dict(ints_only[1], case=[3, 2, 8.0, 0]), ints_only[2]]
    assert trace_from_payload(with_float) == trace_from_payload(ints_only)
    assert outcome(fold, with_float)[1] is ValueError
