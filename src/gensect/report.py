"""Machine-readable report envelopes.

Identical inputs must produce byte-identical output: keys are sorted, lists
carry an explicit deterministic order, there are no timestamps, and the
schema is versioned.  The JSON schema is documented in the README.

Reports are written by ``_write``, one recursive writer over dicts, lists,
tuples, strings, ints, booleans, None, derivation traces and table grids.
A trace is written from its runs and a table's grid by one template per
row, neither walked value by value.  It writes what
``json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True)`` writes:
strings go through ``_json.encode_basestring_ascii``, the C function the
encoder itself calls, ints through ``int.__repr__`` and the layout is the
encoder's.  Importing ``_json`` rather than ``json`` keeps ``json``, ``re``
and ``enum`` out of a command's start-up.
"""

from __future__ import annotations

from _json import encode_basestring_ascii as _quote

from . import __version__
from .engine import DerivationTrace

SCHEMA_VERSION = "1.0"


# a list, not a tuple: CPython 3.11 keeps up to 2000 freed 20-item tuples on
# a free list that no allocation takes from
class _Grid(list):
    """A table's rows, the row of genus g at index g for g = 0..g_max."""


def envelope(command: str, result: dict) -> dict:
    """Wrap a result payload with the command echo and version stamps."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "gensect", "version": __version__},
        "command": command,
        "result": result,
    }


def to_json(payload: dict) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, ASCII.

    A ``DerivationTrace`` is written as the flat root-to-leaf list of its
    ``steps()``, each an object of ``case``, ``rule`` and ``entry``, and a
    ``_Grid`` of table rows as the list of objects ``{"g": g, "row": row}``
    for g = 0, 1, ..., one f-string per row.  Any value other than a dict,
    list, tuple, string, int, boolean, None, trace or grid raises TypeError.
    """
    out: list[str] = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value: object, indent: str, out: list[str]) -> None:
    """Append the JSON of ``value`` to ``out``; ``indent`` is the newline and
    spaces that start the line ``value`` begins on."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            item = value[key]
            # strings and ints, most of a report, are written without a call
            if type(item) is str:
                out.append(f"{sep}{_quote(key)}: {_quote(item)}")
            elif type(item) is int:
                out.append(f"{sep}{_quote(key)}: {int.__repr__(item)}")
            else:
                out.append(f"{sep}{_quote(key)}: ")
                _write(item, inner, out)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, DerivationTrace):
        _write_trace(value, indent, out)
    elif type(value) is _Grid:
        _write_grid(value, indent, out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_trace(trace: DerivationTrace, indent: str, out: list[str]) -> None:
    """Append a trace as the list of its steps, from its segments: a run at
    one genus is one join over its degrees, and any other step is one
    f-string."""
    step = indent + "  "
    inner, item = step + "  ", step + "    "
    start = len(out)
    for seg in trace.segments:
        (r, n, d, g), (dd, dg), repeat = seg.case, seg.delta, seg.repeat
        entry = "null" if seg.entry_id is None else _quote(seg.entry_id)
        # a step, after a comma, is before, its degree, "," + item, its genus, after
        before = f',{step}{{{inner}"case": [{item}{r},{item}{n},{item}'
        after = f'{inner}],{inner}"entry": {entry},{inner}"rule": {_quote(seg.rule)}{step}}}'
        if dg == 0 and dd != 0:
            end = f",{item}{g}{after}"
            # pieces appended one by one: concatenating them copies the run
            out += (before, (end + before).join(map(str, range(d, d - repeat * dd, -dd))), end)
        else:
            out += [f"{before}{d - i * dd},{item}{g - i * dg}{after}" for i in range(repeat)]
    out[start] = "[" + out[start][1:]  # the first step follows "[", not a comma
    out.append(indent + "]")


def _write_grid(grid: _Grid, indent: str, out: list[str]) -> None:
    """Append a grid as the list of its ``{"g", "row"}`` objects, one f-string
    per row."""
    step = indent + "  "
    inner = step + "  "
    # a row, after a comma, is before, its genus, between, its quoted row, after
    before, between, after = f',{step}{{{inner}"g": ', f',{inner}"row": ', step + "}"
    start = len(out)
    out += [f"{before}{g}{between}{_quote(row)}{after}" for g, row in enumerate(grid)]
    out[start] = "[" + out[start][1:]  # the first row follows "[", not a comma
    out.append(indent + "]")
