"""Machine-readable report envelopes.

Identical inputs must produce byte-identical output: keys are sorted, lists
carry an explicit deterministic order, there are no timestamps, and the
schema is versioned.  The JSON schema is documented in the README.
"""

from __future__ import annotations

import json

from . import __version__
from .engine import DerivationTrace

SCHEMA_VERSION = "1.0"


def envelope(command: str, result: dict) -> dict:
    """Wrap a result payload with the command echo and version stamps."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "gensect", "version": __version__},
        "command": command,
        "result": result,
    }


def _dumps(value: object) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True)


def to_json(payload: dict) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, ASCII.

    A ``DerivationTrace`` under ``result.trace`` is written as the flat list
    of its ``to_payload()``, byte for byte as the encoder would write it, but
    from its segments: a run at one genus is one join over its degrees, and
    any other step is one f-string.
    """
    result = payload.get("result")
    trace = result.get("trace") if isinstance(result, dict) else None
    if not isinstance(trace, DerivationTrace):
        return _dumps(payload) + "\n"
    # An unescaped quote only delimits a string, and a string followed by
    # ": " is a key, so this finds the one "trace" key.
    head, _, tail = _dumps({**payload, "result": {**result, "trace": []}}).partition(
        '"trace": []'
    )
    indent = "\n" + head[head.rfind("\n") + 1 :] + "  "
    inner, item = indent + "  ", indent + "    "
    parts = [head, '"trace": [']
    for seg in trace.segments:
        (r, n, d, g), (dd, dg), repeat = seg.case, seg.delta, seg.repeat
        # a step, after a comma, is before, its degree, "," + item, its genus, after
        before = f',{indent}{{{inner}"case": [{item}{r},{item}{n},{item}'
        after = (
            f'{inner}],{inner}"entry": {json.dumps(seg.entry_id)},'
            f'{inner}"rule": {json.dumps(seg.rule)}{indent}}}'
        )
        if dg == 0 and dd != 0:
            end = f",{item}{g}{after}"
            # pieces appended one by one: concatenating them copies the run
            parts += [before, (end + before).join(map(str, range(d, d - repeat * dd, -dd))), end]
        else:
            parts += [f"{before}{d - i * dd},{item}{g - i * dg}{after}" for i in range(repeat)]
    parts[2] = parts[2][1:]  # the first step follows "[" without a comma
    parts += [indent[:-2], "]", tail, "\n"]
    return "".join(parts)
