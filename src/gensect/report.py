"""Machine-readable report envelopes.

Identical inputs must produce byte-identical output: keys are sorted, lists
carry an explicit deterministic order, there are no timestamps, and the
schema is versioned.  The JSON schema is documented in the README.
"""

from __future__ import annotations

import json

from . import __version__
from .engine import DerivationTrace, Segment

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
    from its segments: one %-format per step.
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
    parts = [head, '"trace": [']
    for seg in trace.segments:
        template = _step_template(seg, indent)
        (d, g), (dd, dg) = seg.case[2:], seg.delta
        parts += [template % (d - i * dd, g - i * dg) for i in range(seg.repeat)]
    parts[2] = parts[2][1:]  # the first step follows "[" without a comma
    parts += [indent[:-2], "]", tail, "\n"]
    return "".join(parts)


def _step_template(seg: Segment, indent: str) -> str:
    """One step of a segment as the encoder writes it at ``indent`` (which
    starts with a newline), after a comma, with %d for its degree and genus."""
    r, n = seg.case[:2]
    inner, item = indent + "  ", indent + "    "
    entry, rule = (json.dumps(v).replace("%", "%%") for v in (seg.entry_id, seg.rule))
    return (
        f',{indent}{{{inner}"case": [{item}{r},{item}{n},{item}%d,{item}%d{inner}],'
        f'{inner}"entry": {entry},{inner}"rule": {rule}{indent}}}'
    )
