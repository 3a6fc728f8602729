"""The bundled ledger is the JSON data file that is the public contract, read
with the C scanner that ``json.loads`` calls; it must equal the same file
read with ``json.loads``.  The bundled ledger is built once per process; a
file is read on every load.  A ledger indexes its exact entries by case,
degree and genus."""

from importlib import resources

from gensect.engine import ClassificationEngine
from gensect.ledger import load_ledger

LEDGER_FILE = str(resources.files("gensect").joinpath("data/ledger.json"))


def test_bundled_ledger_equals_the_json_file_entry_by_entry():
    bundled, from_file = load_ledger(), load_ledger(LEDGER_FILE)
    assert bundled.source == "bundled"
    assert len(bundled.entries) == len(from_file.entries)
    for ours, theirs in zip(bundled.entries, from_file.entries):
        assert ours == theirs, ours.id


def test_the_bundled_ledger_is_one_shared_object():
    assert load_ledger() is load_ledger()
    first, second = ClassificationEngine(), ClassificationEngine()
    assert first.ledger is second.ledger is load_ledger()


def test_a_ledger_file_is_built_anew_on_every_load():
    first, second = load_ledger(LEDGER_FILE), load_ledger(LEDGER_FILE)
    assert first is not second
    assert first.entries == second.entries
    assert first is not load_ledger()


def test_exact_genera_are_the_genera_of_a_pairs_exact_entries():
    ledger = load_ledger()
    for r, n in {(e.r, e.n) for e in ledger.entries}:
        exact = {e.g for e in ledger.entries if (e.r, e.n) == (r, n) and not e.is_wildcard}
        assert ledger.exact_genera(r, n) == tuple(sorted(exact))
    assert ledger.exact_genera(2, 1) == ()  # only its wildcard
    assert ledger.exact_genera(4, 1)[0] == -2  # the skew-lines seed
    assert ledger.exact_genera(5, 1) == ()
