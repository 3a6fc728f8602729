"""The trace checker against an independent one: ``validate_trace`` accepts a
tampered ``classify`` trace exactly when ``benchmarks/oracle.py``, which
imports nothing from gensect, accepts its steps and its root is a general case.

Each tamper changes one thing in a trace of one of the five pairs on the
bundled ledger: it moves one field of a record's case by one, swaps a
record's rule or entry, or drops or duplicates a record.  The tampers are
drawn from a fixed seed, so every run checks the same ones.
"""

import importlib.util
import random
from pathlib import Path

from gensect.engine import (
    RULE_ADD_CANONICAL,
    RULE_ADD_LINE,
    RULE_DOWNGRADE,
    RULE_LEDGER,
    ClassificationEngine,
    Query,
    admissible,
    trace_from_payload,
)

from reference_engine import to_payload

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "benchmark_oracle", ROOT / "benchmarks" / "oracle.py"
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

LEDGER = oracle.LedgerData(ROOT / "src" / "gensect" / "data" / "ledger.json")
ENGINE = ClassificationEngine()
RULES = (RULE_ADD_LINE, RULE_ADD_CANONICAL, RULE_DOWNGRADE, RULE_LEDGER)
ENTRIES = (None, *sorted(LEDGER.by_id))
PAIRS = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1))
TAMPERS = 6000


def tamper(payload: list, rng: random.Random) -> list:
    """``payload`` with one record changed, dropped or duplicated."""
    payload = [dict(record, case=list(record["case"])) for record in payload]
    at = rng.randrange(len(payload))
    record = payload[at]
    kind = rng.choice(("move", "rule", "entry", "drop", "duplicate"))
    if kind == "move":
        record["case"][rng.randrange(4)] += rng.choice((-1, 1))
    elif kind == "rule":
        record["rule"] = rng.choice([rule for rule in RULES if rule != record["rule"]])
    elif kind == "entry":
        record["entry"] = rng.choice([e for e in ENTRIES if e != record["entry"]])
    elif kind == "drop" and len(payload) > 1:
        del payload[at]
    else:
        payload.insert(at, dict(record, case=list(record["case"])))
    return payload


def oracle_accepts(payload: list) -> bool:
    root = tuple(payload[0]["case"])
    return (
        oracle.check_trace(payload, root, LEDGER) == []
        and oracle.expected_verdict(*root) == "general"
    )


def test_the_checker_agrees_with_the_oracle_on_tampered_traces():
    cases = [
        (r, n, d, g)
        for r, n in PAIRS
        for g in range(0, 41, 3)
        for d in range(1, 61)
        if admissible(r, n, d, g)
    ]
    payloads = [to_payload(ENGINE.classify(Query(*case)).trace) for case in cases]
    assert all(oracle_accepts(payload) for payload in payloads)
    rng = random.Random(1)
    disagree, rejected = [], 0
    for _ in range(TAMPERS):
        payload = tamper(rng.choice(payloads), rng)
        accepted = ENGINE.validate_trace(trace_from_payload(payload)) == []
        rejected += not accepted
        if accepted != oracle_accepts(payload):
            disagree.append(payload)
    assert disagree == []
    # most tampers break the trace, and some (a run's record dropped or
    # duplicated, a plane entry swapped for another) leave it sound
    assert TAMPERS // 2 < rejected < TAMPERS
