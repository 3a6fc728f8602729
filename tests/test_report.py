"""The report writer against the standard library's encoder: any JSON tree
renders as ``json.dumps(sort_keys=True, indent=2, ensure_ascii=True)`` writes
it, a trace renders from its segments as the encoder writes its flat form
(``reference_engine.to_payload``), a table's grid renders as the encoder
writes its list of ``{"g", "row"}`` objects, and every ``table --json``
payload matches too."""

import contextlib
import io
import json
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from gensect import cli, report
from gensect.engine import SUPPORTED_PAIRS, ClassificationEngine, DerivationTrace, Query, Segment
from gensect.ledger import load_ledger
from gensect.report import _Grid, envelope, to_json

from reference_engine import to_payload


def encoder(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def flat(payload: dict) -> dict:
    """The envelope with its trace, if any, in the flat library form."""
    result = payload["result"]
    if "trace" not in result:
        return payload
    return {**payload, "result": {**result, "trace": to_payload(result["trace"])}}


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


# -- any JSON tree -------------------------------------------------------------------

#: Text with the characters the encoder escapes: quotes, backslashes, control
#: characters, non-ASCII, lone surrogates and non-BMP characters (written as
#: surrogate pairs).
ESCAPED = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80é∞\ud800\udfff\uffff\U0001d49e\U0010ffff'
TEXT = st.text(st.sampled_from(ESCAPED) | st.characters(), max_size=8)

JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(TEXT, children),
    max_leaves=12,
)


@settings(max_examples=80, deadline=None, database=None)
@given(JSON_TREES)
def test_any_json_tree_renders_as_the_encoder_writes_it(value):
    assert to_json(value) == encoder(value)


@pytest.mark.parametrize(
    "value",
    [1.5, {1, 2}, object(), {"a": [0, 2.0]}, {"a": {"b": frozenset()}}, [None, (1, object())]],
    ids=["float", "set", "object", "nested float", "nested frozenset", "nested object"],
)
def test_values_outside_the_json_types_raise_type_error(value):
    with pytest.raises(TypeError):
        to_json(value)


def test_edge_values_render_as_the_encoder_writes_them():
    for value in (
        {}, [], (), "", 0, -0, 10**40, -(10**40), True, False, None,
        {"": {"": []}}, [[[]], {}, ()], {"b": 1, "a": True, "A": None, "é": "\x00"},
    ):
        assert to_json(value) == encoder(value)


# -- table --json ---------------------------------------------------------------------


def table_payload(capsys, *argv):
    assert cli.main(["table", *argv, "--json"]) == 0
    out = capsys.readouterr().out
    return out, json.loads(out)


@pytest.mark.parametrize(
    "argv, frontier",
    [
        (
            ["--r", "3", "--n", "2", "--d-max", "0", "--g-max", "6"],
            [[5, 1], [7, 2], [6, 3], [7, 4], [8, 5], [9, 6]],
        ),
        (["--r", "4", "--n", "1", "--d-max", "0", "--g-max", "0"], []),
        (["--r", "3", "--n", "2", "--d-max", "12", "--g-max", "0"], []),
        (["--r", "4", "--n", "1", "--d-max", "30", "--g-max", "0"], []),
        (["--r", "2", "--n", "1", "--d-max", "20", "--g-max", "15"], []),
        (["--r", "2", "--n", "2", "--d-max", "0", "--g-max", "40"], []),
        # the frontier of (3, 1) lies where a downgrade does not reach
        (["--r", "3", "--n", "1", "--d-max", "24", "--g-max", "20"], [[7, 5], [8, 6]]),
        (["--r", "3", "--n", "1", "--d-max", "3", "--g-max", "8"], [[7, 5], [8, 6]]),
    ],
    ids=[
        "d-max 0", "d-max and g-max 0", "g-max 0", "g-max 0 (4, 1)", "plane (2, 1)",
        "plane (2, 2), d-max 0", "(3, 1)", "(3, 1), narrow",
    ],
)
def test_table_json_renders_as_the_encoder_writes_it(argv, frontier, capsys):
    out, document = table_payload(capsys, *argv)
    assert out == encoder(document)
    result = document["result"]
    assert result["frontier"] == frontier
    assert [row["g"] for row in result["grid"]] == list(range(result["g_max"] + 1))
    assert {len(row["row"]) for row in result["grid"]} == {result["d_max"]}


#: Rows with what the encoder escapes, the empty row and the three verdicts.
ROWS = st.lists(st.just("") | TEXT | st.text("GE.", max_size=12), min_size=1, max_size=8)


@settings(max_examples=80, deadline=None, database=None)
@given(ROWS)
def test_any_grid_renders_as_the_encoder_writes_its_rows(rows):
    """At the depth ``table --json`` writes it, between other keys."""
    expanded = [{"g": g, "row": row} for g, row in enumerate(rows)]
    result = {"d_max": 3, "frontier": [[5, 1]], "g_max": len(rows) - 1, "legend": {"G": "general"}}
    payload = envelope("table", {**result, "grid": _Grid(rows)})
    assert to_json(payload) == encoder(envelope("table", {**result, "grid": expanded}))


def run_table(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["table", *argv]) == 0
    return out.getvalue()


@settings(max_examples=40, deadline=None, database=None)
@given(
    st.sampled_from(sorted(SUPPORTED_PAIRS)),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=60),
)
def test_table_json_rows_are_the_text_rows(pair, d_max, g_max):
    argv = ["--r", str(pair[0]), "--n", str(pair[1]), "--d-max", str(d_max), "--g-max", str(g_max)]
    out = run_table(*argv, "--json")
    document = json.loads(out)
    assert out == encoder(document)
    lines = run_table(*argv).splitlines()[2 : g_max + 3]
    prefixes = [f"g={g:>3} " for g in range(g_max + 1)]
    assert [line[: len(p)] for line, p in zip(lines, prefixes)] == prefixes
    text_rows = [line[len(p) :] for line, p in zip(lines, prefixes)]
    assert document["result"]["grid"] == [{"g": g, "row": row} for g, row in enumerate(text_rows)]


def test_a_table_grid_is_not_walked_row_by_row(monkeypatch):
    """``_write`` is called as often for 1001 rows as for 11: the grid is
    written by its template, whatever its height.  (3, 1) has the same
    frontier in both boxes, so only the grid's height differs."""
    calls = []
    write = report._write
    monkeypatch.setattr(report, "_write", lambda *a: calls.append(1) or write(*a))
    counts = []
    for g_max in ("10", "1000"):
        calls.clear()
        run_table("--r", "3", "--n", "1", "--d-max", "20", "--g-max", g_max, "--json")
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
