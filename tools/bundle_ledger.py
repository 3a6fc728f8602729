"""Write the bundled ledger's records as Python literals.

    python tools/bundle_ledger.py

reads ``src/gensect/data/ledger.json`` and writes its ``entries`` to
``src/gensect/_bundled_ledger.py`` as ``RECORDS``.  ``load_ledger()`` builds
the bundled ledger from that module, so a ready engine needs no JSON parser;
``--ledger`` files are still read as JSON.  Run it after every edit of
``ledger.json``; ``tests/test_ledger.py`` fails until the two agree.
"""

import json
import pprint
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gensect"
SOURCE = PACKAGE / "data" / "ledger.json"
TARGET = PACKAGE / "_bundled_ledger.py"

HEADER = '''"""The bundled ledger's records, as Python literals.

Generated from data/ledger.json by ``python tools/bundle_ledger.py``; do not
edit.  ``load_ledger()`` builds the bundled ledger from ``RECORDS``, so a
ready engine needs no JSON parser.
"""

RECORDS = '''


def render(records: list) -> str:
    return HEADER + pprint.pformat(records, width=100, sort_dicts=False) + "\n"


def main() -> None:
    records = json.loads(SOURCE.read_text(encoding="utf-8"))["entries"]
    TARGET.write_text(render(records), encoding="utf-8")
    print(f"wrote {len(records)} records to {TARGET}")


if __name__ == "__main__":
    main()
