"""The base-case ledger: cited axioms the classification grounds out in.

Each entry records one case (r, n, d, g) whose twisted-normal-bundle
vanishing is taken as an axiom, together with a justification tag, the
cases it quotes as premises, any attached gluing data, and a citation
string carrying a verbatim quote of the statement it rests on.  The ledger
ships as a JSON data file and is part of the public contract; a single
flag on the command line swaps it out for fault-injection runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .numerology import in_domain

#: Tags whose entries are justified by a numeric gate alone.
AUTOMATIC_TAGS = frozenset({"Interpolation", "GenusTwo", "PlaneCurve"})

#: Tags whose entries rest on a bespoke geometric construction.
CONSTRUCTIVE_TAGS = frozenset(
    {"DelPezzo", "CubicScroll", "HyperplaneGlue", "PlaneCurveGlue", "SecantLineGlue"}
)

#: Auxiliary bases that only ever appear as rule premises.
AUXILIARY_TAGS = frozenset({"SkewLines"})

KNOWN_TAGS = AUTOMATIC_TAGS | CONSTRUCTIVE_TAGS | AUXILIARY_TAGS

#: Tags that carry hyperplane-gluing side conditions.
GLUE_CHECK_TAGS = frozenset({"HyperplaneGlue", "PlaneCurveGlue"})


@dataclass(frozen=True)
class GlueData:
    """Invariants of an attached curve: degree, genus, attachment points, twist."""

    d2: int
    g2: int
    points: int
    twist: int


@dataclass(frozen=True)
class LedgerEntry:
    """One base-case axiom.

    ``d`` and ``g`` of None match every degree and genus for the given
    (r, n); the two plane entries use this, since plane sections are
    handled uniformly.
    """

    id: str
    r: int
    n: int
    d: Optional[int]
    g: Optional[int]
    tag: str
    citation: str
    quote: str
    premises: tuple[tuple[int, int, int, int], ...] = ()
    glue: Optional[GlueData] = None
    rho_exempt: bool = False
    premises_stated_only: bool = False
    note: Optional[str] = None

    @property
    def is_wildcard(self) -> bool:
        return self.d is None or self.g is None

    def matches(self, r: int, n: int, d: int, g: int) -> bool:
        return (
            self.r == r
            and self.n == n
            and (self.d is None or self.d == d)
            and (self.g is None or self.g == g)
        )

    def case_key(self) -> tuple[int, int, Optional[int], Optional[int]]:
        return (self.r, self.n, self.d, self.g)


class LedgerFormatError(ValueError):
    """A ledger file or entry list that cannot be read as a ledger."""


@dataclass
class Ledger:
    """An immutable-after-load collection of entries with lookup by case."""

    entries: tuple[LedgerEntry, ...]
    source: Optional[str] = None
    _by_id: dict = field(default_factory=dict, repr=False)
    _by_case: dict = field(default_factory=dict, repr=False)
    _wildcards: dict = field(default_factory=dict, repr=False)
    _ceilings: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._by_id = {e.id: e for e in self.entries}
        if len(self._by_id) != len(self.entries):
            raise LedgerFormatError("duplicate ledger entry ids")
        # the first entry per case wins, and the first wildcard per (r, n)
        for entry in self.entries:
            if entry.d is None and entry.g is None:
                self._wildcards.setdefault((entry.r, entry.n), entry)
            elif entry.is_wildcard:
                raise LedgerFormatError(f"entry {entry.id}: d and g must both be set or both null")
            else:
                self._by_case.setdefault(entry.case_key(), entry)
                key = (entry.r, entry.n, entry.g)
                self._ceilings[key] = max(self._ceilings.get(key, 0), entry.d + 1)

    def get(self, entry_id: str) -> LedgerEntry:
        return self._by_id[entry_id]

    def has(self, entry_id: str) -> bool:
        return entry_id in self._by_id

    def lookup(self, r: int, n: int, d: int, g: int) -> Optional[LedgerEntry]:
        """Exact-case entry if present, else the wildcard entry for (r, n)."""
        return self._by_case.get((r, n, d, g)) or self._wildcards.get((r, n))

    def exact_ceiling(self, r: int, n: int, g: int) -> int:
        """One above the highest degree of an exact-case entry at genus g, else 0."""
        return self._ceilings.get((r, n, g), 0)

    def invariant_problems(self) -> list[str]:
        """Structural violations: bad tags, empty quotes, a case out of domain
        (no general curve: r < 2, d < 1, g < 0 or rho < 0) without a flag."""
        problems = []
        for entry in self.entries:
            if entry.tag not in KNOWN_TAGS:
                problems.append(f"{entry.id}: unknown tag {entry.tag!r}")
            if not entry.quote.strip():
                problems.append(f"{entry.id}: empty quote")
            if not entry.citation.strip():
                problems.append(f"{entry.id}: empty citation")
            if not (entry.is_wildcard or entry.rho_exempt or in_domain(entry.r, entry.d, entry.g)):
                problems.append(
                    f"{entry.id}: case {entry.case_key()} is out of domain without exemption"
                )
            if entry.glue is not None:
                d2, g2, pts = entry.glue.d2, entry.glue.g2, entry.glue.points
                for pr, pn, pd, pg in entry.premises:
                    if (pd + d2, pg + g2 + pts - 1) != (entry.d, entry.g):
                        problems.append(
                            f"{entry.id}: glue arithmetic does not reach the case from premise"
                        )
        return problems


def _entry_from_record(record: dict) -> LedgerEntry:
    case = record["case"]
    glue = record.get("glue")
    return LedgerEntry(
        id=record["id"],
        r=case["r"],
        n=case["n"],
        d=case["d"],
        g=case["g"],
        tag=record["tag"],
        citation=record["citation"],
        quote=record["quote"],
        premises=tuple(tuple(p) for p in record.get("premises", [])),
        glue=GlueData(**glue) if glue else None,
        rho_exempt=record.get("rho_exempt", False),
        premises_stated_only=record.get("premises_stated_only", False),
        note=record.get("note"),
    )


def load_ledger(path: Optional[str | Path] = None) -> Ledger:
    """Load the bundled ledger, or the JSON file at ``path`` if given."""
    if path is None:
        text = (
            resources.files("gensect").joinpath("data/ledger.json").read_text("utf-8")
        )
        source = "bundled"
    else:
        text = Path(path).read_bytes()
        source = str(path)
    try:
        payload = json.loads(text)
        entries = tuple(_entry_from_record(rec) for rec in payload["entries"])
        return Ledger(entries=entries, source=source)
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise LedgerFormatError(f"malformed ledger {source}: {reason}") from None
