"""The JSON renderer writes traces from their segments, byte for byte as the
generic encoder writes their flat ``to_payload()`` form."""

import json
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from gensect import cli
from gensect.engine import SUPPORTED_PAIRS, ClassificationEngine, DerivationTrace, Query, Segment
from gensect.ledger import load_ledger
from gensect.report import envelope, to_json


def encoder(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def flat(payload: dict) -> dict:
    """The envelope with its trace, if any, in the flat library form."""
    result = payload["result"]
    if "trace" not in result:
        return payload
    return {**payload, "result": {**result, "trace": result["trace"].to_payload()}}


def classify_envelope(engine, case):
    q = Query(*case)
    return envelope("classify", cli._verdict_payload(engine, q, engine.classify(q)))


@pytest.fixture(scope="module")
def engine():
    return ClassificationEngine()


@pytest.mark.parametrize(
    "case, rules",
    [
        ((3, 2, 60, 40), ["add_line", "add_canonical", "ledger"]),  # add_line, then canonical runs
        ((4, 1, 11, 8), ["add_canonical", "ledger"]),  # the skew-lines step
        ((3, 1, 30, 20), ["downgrade", "add_line", "add_canonical", "ledger"]),
        ((2, 1, 9, 9), ["ledger"]),  # a plane pair is one ledger leaf
        ((3, 2, 10_000, 20), ["add_line", "add_canonical", "ledger"]),
        ((3, 1, 10_000, 33), ["downgrade", "add_line", "add_canonical", "ledger"]),
        ((4, 1, 10_000, 40), ["add_line", "add_canonical", "ledger"]),
    ],
)
def test_trace_renders_as_the_encoder_writes_it(engine, case, rules):
    payload = classify_envelope(engine, case)
    trace = payload["result"]["trace"]
    assert [seg.rule for seg in trace.segments][: len(rules)] == rules
    assert {seg.rule for seg in trace.segments} == set(rules)
    assert to_json(payload) == encoder(flat(payload))
    assert to_json(flat(payload)) == to_json(payload)  # the library form renders alike


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.sampled_from(sorted(SUPPORTED_PAIRS)),
    st.integers(min_value=1, max_value=3_000),
    st.integers(min_value=0, max_value=40),
)
def test_any_classify_envelope_renders_as_the_encoder_writes_it(pair, d, g):
    payload = classify_envelope(ClassificationEngine(), (*pair, d, g))
    assert to_json(payload) == encoder(flat(payload))


AWKWARD_ID = 'id %d %(x)s {} {0} }{ "q" \\ \\" é ∞ \U0001d49e'


@pytest.mark.parametrize(
    "segments",
    [
        # a multi-step canonical run drops degree and genus together
        [Segment((3, 2, 60, 40), "add_canonical", 4, AWKWARD_ID), Segment((3, 2, 36, 8), "ledger")],
        [Segment((4, 1, 60, 40), "add_canonical", 3, None)],
        # an unknown rule has delta (0, 0): its steps repeat one case
        [Segment((3, 2, 9, 4), "attach_{conic}", 3, AWKWARD_ID)],
        # one genus: a run of add_line, first, last and alone
        [Segment((3, 2, 20, 5), "add_line", 7, AWKWARD_ID), Segment((3, 2, 13, 5), "x", 2, "}")],
        [Segment((2, 2, 9, 0), "ledger", 1, "{"), Segment((2, 2, 9, 0), "add_line", 5, "%s")],
        [Segment((4, 1, 3, 0), "add_line", 1, AWKWARD_ID)],
    ],
)
def test_hand_built_runs_render_as_the_encoder_writes_them(segments):
    payload = envelope("classify", {"trace": DerivationTrace(tuple(segments)), "z": AWKWARD_ID})
    assert to_json(payload) == encoder(flat(payload))


def test_quoting_in_rules_and_entry_ids():
    awkward = 'a %d %s %% %(x)s "quoted" \\ back é ∞ \U0001d49e'
    trace = DerivationTrace(
        (
            Segment((3, 2, 9, 0), awkward, 2, awkward),
            Segment((3, 2, 7, 0), "add_line", 3, awkward),
            Segment((3, 2, 4, 0), "ledger", 1, None),
        )
    )
    payload = envelope("classify", {"trace": trace, "verdict": "general", "z": awkward})
    assert to_json(payload) == encoder(flat(payload))


def test_user_entry_ids_are_escaped_as_the_encoder_does(tmp_path, capsys):
    awkward = 'r3n2 %d %s %% "interp" \\ 3-0 é ∞'
    ledger = json.loads(resources.files("gensect").joinpath("data/ledger.json").read_text("utf-8"))
    entry = next(e for e in ledger["entries"] if e["id"] == "r3n2-interp-3-0")
    entry["id"] = awkward
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(ledger), encoding="utf-8")

    code = cli.main(["classify", "--r", "3", "--n", "2", "--d", "40", "--g", "0", "--json",
                     "--ledger", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    engine = ClassificationEngine(load_ledger(str(path)))
    payload = classify_envelope(engine, (3, 2, 40, 0))
    assert payload["result"]["trace"].segments[-1].entry_id == awkward
    assert out == encoder(flat(payload))
    assert json.loads(out)["result"]["trace"][-1]["entry"] == awkward
