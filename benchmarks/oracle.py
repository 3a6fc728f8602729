"""Independent oracle for the benchmark: what gensect must answer, restated.

Nothing here imports gensect.  The oracle holds the paper's classification
(the Brill-Noether number, the five supported pairs and the ten exceptional
(d, g)), the arithmetic of each derivation rule, and the frontier seed lists.
It reads the ledger only as data, from ``src/gensect/data/ledger.json``.
Each ``check_*`` function returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import json
from pathlib import Path

SCHEMA_VERSION = "1.0"

SUPPORTED_PAIRS = frozenset({(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)})

EXCEPTIONAL = {
    (2, 1): frozenset(),
    (2, 2): frozenset(),
    (3, 2): frozenset({(4, 1), (5, 2), (6, 2), (6, 4), (7, 5), (8, 6)}),
    (3, 1): frozenset({(6, 4)}),
    (4, 1): frozenset({(8, 5), (9, 6), (10, 7)}),
}

#: Minimal-degree cases seeded by a constructive ledger entry, by (r, n).
FRONTIER = {
    (2, 1): (),
    (2, 2): (),
    (3, 2): (
        (5, 1), (7, 2), (6, 3), (7, 4), (8, 5), (9, 6), (9, 7),
        (10, 9), (11, 10), (12, 12), (13, 13), (14, 14),
    ),
    (3, 1): ((7, 5), (8, 6)),
    (4, 1): ((9, 5), (10, 6), (11, 7), (12, 9), (16, 15), (17, 16), (18, 17)),
}

#: (degree, genus) dropped by one add_canonical step, by ambient r.
CANONICAL_DROP = {3: (6, 8), 4: (8, 10)}

#: The three-skew-lines base: the one add_canonical premise outside the domain.
SKEW_LINES_BASE = (4, 1, 3, -2)

#: Checks every verify-all run must report (later checks may be added).
VERIFY_CHECK_IDS = frozenset({
    "lattice-invariants", "chi-anchors", "chi-untwisted", "rho-invariance",
    "moduli-plane-collapse", "hypersurface-degree-bound", "low-genus-nonspecial",
    "interpolation-gates", "surface-curve-table", "line-counts", "kv-certificates",
    "h0-table", "schubert-incidence", "schubert-duality", "ledger-integrity",
    "gluing-side-conditions", "exceptional-sweep", "completeness-audit",
    "frontier-lists", "converse-audits", "local-determinant", "scroll-case-study",
    "k3-case-study", "restriction-isomorphisms",
})

GRID_CODES = {"general": "G", "exceptional": "E", "invalid": "."}


def rho(r: int, d: int, g: int) -> int:
    return (r + 1) * d - r * g - r * (r + 1)


def expected_verdict(r: int, n: int, d: int, g: int) -> str:
    if (r, n) not in SUPPORTED_PAIRS or d < 1 or g < 0 or rho(r, d, g) < 0:
        return "invalid"
    if (d, g) in EXCEPTIONAL[(r, n)]:
        return "exceptional"
    return "general"


def expected_row(r: int, n: int, g: int, d_max: int) -> str:
    return "".join(GRID_CODES[expected_verdict(r, n, d, g)] for d in range(1, d_max + 1))


def expected_frontier(r: int, n: int, g_max: int) -> list[list[int]]:
    return [[d, g] for d, g in FRONTIER[(r, n)] if g <= g_max]


class LedgerData:
    """The ledger file read as plain records, keyed by id."""

    def __init__(self, path: Path) -> None:
        records = json.loads(Path(path).read_text("utf-8"))["entries"]
        self.by_id = {rec["id"]: rec for rec in records}

    def covers(self, entry_id: str, case: tuple) -> bool:
        rec = self.by_id[entry_id]["case"]
        r, n, d, g = case
        return (
            rec["r"] == r
            and rec["n"] == n
            and rec["d"] in (None, d)
            and rec["g"] in (None, g)
        )


def _admissible(r: int, n: int, d: int, g: int) -> bool:
    return expected_verdict(r, n, d, g) == "general"


def _premise(rule: str, case: tuple):
    """The premise case a rule step must name, or None if the rule cannot apply."""
    r, n, d, g = case
    if rule == "add_line" and (r, n) in ((3, 2), (4, 1)):
        return (r, n, d - 1, g)
    if rule == "add_canonical" and (r, n) in ((3, 2), (4, 1)):
        dd, dg = CANONICAL_DROP[r]
        return (r, n, d - dd, g - dg)
    if rule == "downgrade" and (r, n) == (3, 1):
        return (3, 2, d, g)
    return None


def check_trace(steps: list, query: tuple, ledger: LedgerData) -> list[str]:
    """Replay a flat root-to-leaf step list with the oracle's own arithmetic."""
    if not steps:
        return ["empty trace"]
    cases = [tuple(step["case"]) for step in steps]
    if cases[0] != query:
        return [f"trace starts at {cases[0]}, not at the query {query}"]
    problems = []
    for i, step in enumerate(steps[:-1]):
        case, nxt, rule = cases[i], cases[i + 1], step["rule"]
        if step["entry"] is not None:
            problems.append(f"{case}: rule step {rule} names an entry")
        if _premise(rule, case) != nxt:
            problems.append(f"{case}: {rule} premise {nxt} has wrong invariants")
        elif not _admissible(*nxt):
            skew_base = (
                rule == "add_canonical" and nxt == SKEW_LINES_BASE and i + 2 == len(steps)
            )
            if not skew_base:
                problems.append(f"{case}: {rule} premise {nxt} not admissible")
    leaf, leaf_case = steps[-1], cases[-1]
    entry = leaf["entry"]
    if leaf["rule"] != "ledger":
        problems.append(f"{leaf_case}: trace ends in {leaf['rule']}, not in a ledger leaf")
    elif entry not in ledger.by_id:
        problems.append(f"{leaf_case}: unknown ledger entry {entry!r}")
    elif not ledger.covers(entry, leaf_case):
        problems.append(f"{leaf_case}: ledger entry {entry} does not cover this case")
    elif (ledger.by_id[entry]["tag"] == "SkewLines") != (leaf_case == SKEW_LINES_BASE):
        problems.append(f"{leaf_case}: the skew-lines base is only an add_canonical premise")
    return problems


def _envelope_problems(payload: dict, command: str) -> list[str]:
    problems = []
    if payload.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"schema_version {payload.get('schema_version')!r}")
    if payload.get("tool", {}).get("name") != "gensect":
        problems.append("tool name is not gensect")
    if payload.get("command") != command:
        problems.append(f"command {payload.get('command')!r}, expected {command!r}")
    return problems


def _parse(stdout: str, command: str) -> tuple[dict, list[str]]:
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return {}, [f"stdout is not JSON: {exc}"]
    problems = _envelope_problems(payload, command)
    canonical = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    if canonical != stdout:
        problems.append("stdout is not in canonical JSON form")
    return payload.get("result", {}), problems


def check_classify(query: tuple, code: int, stdout: str, ledger: LedgerData) -> list[str]:
    """A ``classify --json`` call: exit code, verdict and derivation."""
    r, n, d, g = query
    verdict = expected_verdict(r, n, d, g)
    want_code = 2 if verdict == "invalid" else 0
    problems = [] if code == want_code else [f"exit code {code}, expected {want_code}"]
    result, parse_problems = _parse(stdout, "classify")
    problems += parse_problems
    if not result:
        return problems
    if result.get("query") != {"r": r, "n": n, "d": d, "g": g}:
        problems.append(f"query echo {result.get('query')}")
    if result.get("verdict") != verdict:
        return problems + [f"verdict {result.get('verdict')!r}, expected {verdict!r}"]
    if verdict == "invalid":
        if not result.get("reason"):
            problems.append("invalid verdict without a reason")
    elif verdict == "exceptional":
        desc = result.get("descriptor") or {}
        if desc.get("case") != list(query) or not desc.get("description"):
            problems.append(f"descriptor {desc} does not describe {query}")
    else:
        steps = result.get("trace") or []
        problems += check_trace(steps, query, ledger)
        problems += _citation_problems(steps, result.get("citations"), ledger)
    return problems


def _citation_problems(steps: list, citations, ledger: LedgerData) -> list[str]:
    ids = []
    for step in steps:
        if step["entry"] is not None and step["entry"] not in ids:
            ids.append(step["entry"])
    if not isinstance(citations, list) or [c.get("entry") for c in citations] != ids:
        return [f"citations do not list the trace's entries {ids}"]
    problems = []
    for cite in citations:
        rec = ledger.by_id.get(cite["entry"], {})
        for key in ("tag", "citation", "quote"):
            if cite.get(key) != rec.get(key):
                problems.append(f"citation {cite['entry']}: {key} differs from the ledger")
    return problems


def check_table(box: tuple, code: int, stdout: str) -> list[str]:
    """A ``table --json`` call: every grid cell and the frontier list."""
    r, n, d_max, g_max = box
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    result, parse_problems = _parse(stdout, "table")
    problems += parse_problems
    if not result:
        return problems
    head = {k: result.get(k) for k in ("r", "n", "d_max", "g_max")}
    if head != {"r": r, "n": n, "d_max": d_max, "g_max": g_max}:
        problems.append(f"table header {head}")
    grid = result.get("grid") or []
    if [row.get("g") for row in grid] != list(range(g_max + 1)):
        return problems + ["grid rows are not g = 0..g_max"]
    for row in grid:
        want = expected_row(r, n, row["g"], d_max)
        if row.get("row") != want:
            bad = next(
                (i for i, (a, b) in enumerate(zip(row.get("row", ""), want)) if a != b),
                min(len(want), len(row.get("row", ""))),
            )
            problems.append(f"cell (d={bad + 1}, g={row['g']}) differs from the oracle")
            break
    if result.get("frontier") != expected_frontier(r, n, g_max):
        problems.append(f"frontier {result.get('frontier')}")
    return problems


def check_verify_all(code: int, stdout: str) -> list[str]:
    """A ``verify-all --json`` call on the bundled ledger: every check passes."""
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    result, parse_problems = _parse(stdout, "verify-all")
    problems += parse_problems
    if not result:
        return problems
    checks = result.get("checks") or []
    ids = [c.get("id") for c in checks]
    if len(set(ids)) != len(ids):
        problems.append("duplicate check ids")
    missing = VERIFY_CHECK_IDS - set(ids)
    if missing:
        problems.append(f"missing checks {sorted(missing)}")
    failed = [c.get("id") for c in checks if c.get("ok") is not True]
    if failed:
        problems.append(f"failed checks {failed}")
    if (result.get("passed"), result.get("failed")) != (len(checks), 0):
        problems.append(f"tally {result.get('passed')} passed, {result.get('failed')} failed")
    return problems


def check_malformed_ledger(code: int, stdout: str, stderr: str) -> list[str]:
    """A call with an unreadable ``--ledger`` file: exit 1 and a one-line message."""
    problems = [] if code == 1 else [f"exit code {code}, expected 1"]
    if stdout:
        problems.append("a usage error wrote to stdout")
    if len(stderr.strip().splitlines()) != 1:
        problems.append(f"stderr is not one line: {stderr!r}")
    return problems
