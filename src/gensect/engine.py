"""The classification engine for hypersurface sections of general curves.

A query (r, n, d, g) asks whether a general degree-d genus-g curve in P^r
meets a general degree-n hypersurface in a general point configuration.
Only five pairs (r, n) admit an affirmative answer outside finitely many
(d, g): plane sections by lines and conics, space sections by planes and
quadrics, and hyperplane sections in P^4.  The engine classifies a query as
Invalid, Exceptional (one of the ten known counterexamples) or General, and
in the last case emits a derivation trace: a path of rule applications
ending in a cited ledger axiom.  The exceptional lists and descriptors are
derived from the table of exceptional cases in ``audits``.

Rules mirror the inductive structure of the underlying argument:

* ``add_line``    - attach a general line at one point; degree drops by one
                    at fixed genus in the premise.
* ``add_canonical`` - attach a canonical space curve (degree 6, genus 4 at 5
                    points in P^3; degree 8, genus 5 at 6 points in P^4), so
                    the premise is (d-6, g-8) or (d-8, g-10).
* ``downgrade``   - a plane section of a space curve is general whenever its
                    quadric section is: links (3, 1) to (3, 2) at the same
                    (d, g).
* ``ledger``      - a cited base case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .audits import EXCEPTIONAL
from .ledger import (
    AUXILIARY_TAGS,
    CONSTRUCTIVE_TAGS,
    GLUE_CHECK_TAGS,
    Ledger,
    LedgerEntry,
    load_ledger,
)
from .numerology import BNIndex, domain_floor, in_domain, rho

SUPPORTED_PAIRS = frozenset({(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)})

#: The exceptional (d, g) pairs per supported (r, n), read from the audits
#: table; these are axioms.
EXCEPTIONAL_PAIRS: dict[tuple[int, int], frozenset[tuple[int, int]]] = {
    pair: frozenset((d, g) for r, n, d, g in EXCEPTIONAL if (r, n) == pair)
    for pair in sorted(SUPPORTED_PAIRS)
}

#: Attached-curve invariants of the canonical-curve rule per ambient r.
CANONICAL_STEP = {3: (6, 8), 4: (8, 10)}

#: Three skew lines in P^4: an auxiliary base, out of domain, that the
#: canonical step from (11, 8) may land on.
SKEW_LINES = (4, 1, 3, -2)

RULE_ADD_LINE = "add_line"
RULE_ADD_CANONICAL = "add_canonical"
RULE_DOWNGRADE = "downgrade"
RULE_LEDGER = "ledger"


class IncompleteLedgerError(RuntimeError):
    """An in-domain, non-exceptional case admitted no derivation.

    By the completeness of the shipped ledger this never fires; it exists so
    fault-injected or truncated ledgers fail loudly instead of misreporting.
    """

    def __init__(self, case: tuple[int, int, int, int]) -> None:
        super().__init__(f"no derivation for in-domain case {case}")
        self.case = case


@dataclass(frozen=True)
class Query:
    r: int
    n: int
    d: int
    g: int

    def case(self) -> tuple[int, int, int, int]:
        return (self.r, self.n, self.d, self.g)


@dataclass(frozen=True)
class ExceptionalDescriptor:
    """Structured description of one exceptional intersection."""

    case: tuple[int, int, int, int]
    description: str
    note: Optional[str] = None


#: The descriptor of each exceptional case, read from the audits table.
DESCRIPTORS: dict[tuple[int, int, int, int], ExceptionalDescriptor] = {
    case: ExceptionalDescriptor(case, row.description, row.note)
    for case, row in EXCEPTIONAL.items()
}


def _run_delta(rule: str, r: int) -> Optional[tuple[int, int]]:
    """Degree and genus drop of one step of a rule that can repeat, else None."""
    if rule == RULE_ADD_CANONICAL:
        return CANONICAL_STEP.get(r)
    return (1, 0) if rule == RULE_ADD_LINE else None


class Segment(NamedTuple):
    """``repeat`` steps of one rule from ``case``, each resting on the next.

    Only ``add_line`` and ``add_canonical`` repeat; leaves carry an entry id.
    """

    case: tuple[int, int, int, int]
    rule: str
    repeat: int = 1
    entry_id: Optional[str] = None

    def at(self, i: int) -> tuple[int, int, int, int]:
        """The case of step i; i = repeat is the premise below a run."""
        r, n, d, g = self.case
        dd, dg = _run_delta(self.rule, r) or (0, 0)
        return (r, n, d - i * dd, g - i * dg)

    def premise(self) -> Optional[tuple[int, int, int, int]]:
        """The case the segment rests on; None for a ledger leaf."""
        if self.rule == RULE_DOWNGRADE:
            return (3, 2) + self.case[2:]
        return self.at(self.repeat) if self.rule in (RULE_ADD_LINE, RULE_ADD_CANONICAL) else None


def _extend(segments: list[Segment], seg: Segment) -> None:
    """Append a segment, merging it into the last one if it continues that run."""
    last = segments[-1] if segments else None
    if (
        last
        and last.rule == seg.rule
        and seg.rule in (RULE_ADD_LINE, RULE_ADD_CANONICAL)
        and last.entry_id == seg.entry_id
        and last.premise() == seg.case
    ):
        segments[-1] = last._replace(repeat=last.repeat + seg.repeat)
    else:
        segments.append(seg)


@dataclass(frozen=True)
class DerivationTrace:
    """A derivation: the path from the queried case down to a ledger leaf.

    Every rule has exactly one premise, so a derivation is a path, stored as
    maximal runs of one rule: O(g / 8) segments however large d is.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a derivation has at least one step")

    def steps(self) -> list[Segment]:
        """The single steps from root to leaf."""
        return [
            Segment(seg.at(i), seg.rule, 1, seg.entry_id)
            for seg in self.segments
            for i in range(seg.repeat)
        ]

    def to_payload(self) -> list[dict]:
        """Flat root-to-leaf list; keeps JSON nesting depth constant."""
        return [
            {"case": list(seg.at(i)), "rule": seg.rule, "entry": seg.entry_id}
            for seg in self.segments
            for i in range(seg.repeat)
        ]


def trace_from_payload(payload: list[dict]) -> DerivationTrace:
    """Rebuild a trace from its JSON form (for re-validation round trips)."""
    if not payload:
        raise ValueError("empty trace payload")
    segments: list[Segment] = []
    for record in payload:
        _extend(segments, Segment(tuple(record["case"]), record["rule"], 1, record.get("entry")))
    return DerivationTrace(tuple(segments))


@dataclass(frozen=True)
class Verdict:
    """Outcome of a classification query."""

    status: str  # "general" | "exceptional" | "invalid"
    reason: Optional[str] = None
    trace: Optional[DerivationTrace] = None
    descriptor: Optional[ExceptionalDescriptor] = None

    @classmethod
    def invalid(cls, reason: str) -> "Verdict":
        return cls(status="invalid", reason=reason)

    @classmethod
    def general(cls, trace: DerivationTrace) -> "Verdict":
        return cls(status="general", trace=trace)

    @classmethod
    def exceptional(cls, descriptor: ExceptionalDescriptor) -> "Verdict":
        return cls(status="exceptional", descriptor=descriptor)


@dataclass(frozen=True)
class ConditionRow:
    """One evaluated inequality, reported with both sides."""

    name: str
    lhs: int
    relation: str
    rhs: int
    holds: bool


@dataclass(frozen=True)
class SideConditionReport:
    entry_id: str
    rows: tuple[ConditionRow, ...]

    @property
    def all_hold(self) -> bool:
        return all(row.holds for row in self.rows)


def composite_invariants(
    f1: tuple[int, int], glue: tuple[int, int, int]
) -> tuple[int, int]:
    """Degree and genus of a curve glued to another at n points.

    Attaching a degree-d2 genus-g2 curve at n points gives
    (d + d2, g + g2 + n - 1).
    """
    d, g = f1
    d2, g2, n = glue
    if n < 1:
        raise ValueError(f"gluing needs at least one point, got {n}")
    return (d + d2, g + g2 + n - 1)


def side_condition_check(entry: LedgerEntry) -> SideConditionReport:
    """Evaluate the gluing side conditions attached to a ledger entry.

    For a curve of degree d2 and genus g2 in a hyperplane of P^r, attached at
    n points with twist k, the derivation needs
    (r-2) n <= r d2 - (r-4)(g2-1) - k (r-2) d2 (the restricted bundle keeps
    enough Euler characteristic), n at least g2 (k = 1) or g2 - 1 + (k-1) d2
    (k > 1) (the twisted hyperplane series has no H^1), and n >= g2 - d2 + r
    (the glued curve smooths).
    """
    if entry.tag not in GLUE_CHECK_TAGS or entry.glue is None:
        raise ValueError(f"entry {entry.id} carries no checkable gluing data")
    r, k = entry.r, entry.glue.twist
    d2, g2, n = entry.glue.d2, entry.glue.g2, entry.glue.points
    chi_bound = r * d2 - (r - 4) * (g2 - 1) - k * (r - 2) * d2
    series_bound = g2 if k == 1 else g2 - 1 + (k - 1) * d2
    smooth_bound = g2 - d2 + r
    rows = (
        ConditionRow("restricted-chi", (r - 2) * n, "<=", chi_bound, (r - 2) * n <= chi_bound),
        ConditionRow("twisted-series", n, ">=", series_bound, n >= series_bound),
        ConditionRow("smoothing", n, ">=", smooth_bound, n >= smooth_bound),
    )
    return SideConditionReport(entry_id=entry.id, rows=rows)


def admissible_floor(r: int, n: int, g: int) -> Optional[int]:
    """The least d with (r, n, d, g) in domain and not exceptional, if any.

    Every exceptional (d, g) sits at the bottom of its genus column, so the
    admissible degrees are exactly those from this floor up.
    """
    if r < 2 or g < 0:
        return None
    d = domain_floor(r, g)
    while (d, g) in EXCEPTIONAL_PAIRS.get((r, n), ()):
        d += 1
    return d


class ClassificationEngine:
    """Deterministic classifier over an immutable ledger.

    Rule order is add_line, add_canonical, downgrade, ledger.  As add_line
    comes first, the derivable degrees of (3, 2) and (4, 1) at genus g are
    [f(g), inf): a derivation is an add_line run down to f(g), then the step
    deriving f(g), computed once per genus, which recurses only in genus.
    """

    def __init__(self, ledger: Optional[Ledger] = None) -> None:
        self.ledger = ledger if ledger is not None else load_ledger()
        self._thresholds: dict[tuple[int, int], dict[int, Optional[Segment]]] = {}

    # -- domain predicates -------------------------------------------------

    @staticmethod
    def is_exceptional(r: int, n: int, d: int, g: int) -> bool:
        return (d, g) in EXCEPTIONAL_PAIRS.get((r, n), frozenset())

    # -- classification ----------------------------------------------------

    def classify(self, q: Query) -> Verdict:
        """Total and deterministic; General verdicts carry a complete trace."""
        if (q.r, q.n) not in SUPPORTED_PAIRS:
            return Verdict.invalid(
                f"unsupported pair (r, n) = ({q.r}, {q.n}); generality is possible "
                "only for (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)"
            )
        if q.d < 1:
            return Verdict.invalid(f"degree must be at least 1, got {q.d}")
        if q.g < 0:
            return Verdict.invalid(f"genus must be nonnegative, got {q.g}")
        if not in_domain(q.r, q.d, q.g):
            value = rho(BNIndex(q.r, q.d, q.g))
            return Verdict.invalid(
                f"rho({q.d}, {q.g}, {q.r}) = {value} < 0: no such general curve"
            )
        if self.is_exceptional(q.r, q.n, q.d, q.g):
            return Verdict.exceptional(DESCRIPTORS[q.case()])
        segments: list[Segment] = []
        step = self._first_step(*q.case())
        while step is not None:
            _extend(segments, step)
            case = step.premise()
            if case is None:
                return Verdict.general(DerivationTrace(tuple(segments)))
            step = self._first_step(*case)
        raise IncompleteLedgerError(q.case())

    def _first_step(self, r: int, n: int, d: int, g: int) -> Optional[Segment]:
        """The first segment of the derivation of an admissible case, if any."""
        threshold = self._threshold(r, n, g)
        if threshold is not None and d >= threshold.case[2]:
            if (r, n) == (3, 1):
                return Segment((r, n, d, g), RULE_DOWNGRADE)
            if d > threshold.case[2]:
                return Segment((r, n, d, g), RULE_ADD_LINE, d - threshold.case[2])
            return threshold
        entry = self._leaf(r, n, d, g)
        return entry and Segment((r, n, d, g), RULE_LEDGER, 1, entry.id)

    def _leaf(self, r: int, n: int, d: int, g: int) -> Optional[LedgerEntry]:
        """The ledger entry a case may rest on directly.  Auxiliary bases serve
        only as premises below genus 0, where no query or sweep reaches."""
        entry = self.ledger.lookup(r, n, d, g)
        return entry if entry is not None and (entry.tag not in AUXILIARY_TAGS or g < 0) else None

    def _threshold(self, r: int, n: int, g: int) -> Optional[Segment]:
        """The step deriving f(g); None if nothing at genus g is derivable.

        f(g) is the least of add_canonical at max(a(g), f(g - dg) + dd), the
        skew-lines step at (11, 8) in P^4 and the lowest ledger leaf from a(g)
        up; add_canonical, tried first, wins a tie.  (3, 1) downgrades onto
        the thresholds of (3, 2); the plane pairs have none.
        """
        r, n = (3, 2) if (r, n) == (3, 1) else (r, n)
        if r not in CANONICAL_STEP or g < 0:
            return None
        column = self._thresholds.setdefault((r, n), {})
        if g not in column:
            dd, dg = CANONICAL_STEP[r]
            h = g
            while h >= 0 and h not in column:  # down to the last genus computed
                h -= dg
            for h in range(h + dg, g + 1, dg):
                floor, below = admissible_floor(r, n, h), column.get(h - dg)
                canonical = None if below is None else max(floor, below.case[2] + dd)
                skew = (r, n, SKEW_LINES[2], h - dg) == SKEW_LINES and self.ledger.lookup(*SKEW_LINES)
                if skew and skew.rho_exempt:
                    canonical = SKEW_LINES[2] + dd
                step = self._lowest_leaf(r, n, h, floor)
                if canonical is not None and (step is None or canonical <= step.case[2]):
                    step = Segment((r, n, canonical, h), RULE_ADD_CANONICAL)
                column[h] = step
        return column[g]

    def _lowest_leaf(self, r: int, n: int, g: int, lo: int) -> Optional[Segment]:
        """The ledger leaf of least degree >= lo at genus g; past the exact
        entries only a wildcard matches, so the search ends one beyond them."""
        for d in range(lo, max(lo, self.ledger.exact_ceiling(r, n, g)) + 1):
            entry = self._leaf(r, n, d, g)
            if entry is not None:
                return Segment((r, n, d, g), RULE_LEDGER, 1, entry.id)
        return None

    # -- sweeps --------------------------------------------------------------

    def _row(self, r: int, n: int, g: int, d_max: int) -> str:
        """Grid codes for d = 1..d_max at genus g, '?' if admissible but
        underivable.  Only degrees below both the threshold and, with a leaf
        wildcard, the exact ledger entries are looked up one by one."""
        low, floor = domain_floor(r, g), admissible_floor(r, n, g)
        threshold = self._threshold(r, n, g)
        top = d_max + 1 if threshold is None else min(threshold.case[2], d_max + 1)
        beyond = max(floor, self.ledger.exact_ceiling(r, n, g))
        if beyond < top and self._leaf(r, n, beyond, g):
            top = beyond
        band = "".join("G" if self._leaf(r, n, d, g) else "?" for d in range(floor, top))
        row = "." * (low - 1) + "E" * (floor - low) + band + "G" * (d_max + 1 - top)
        return row[: max(d_max, 0)]

    def grid(self, r: int, n: int, d_max: int, g_max: int) -> list[str]:
        """Verdict rows for g = 0..g_max, one character per d = 1..d_max:
        G general, E exceptional, . invalid.  Raises IncompleteLedgerError
        for the first underivable case, by genus then degree."""
        rows = [self._row(r, n, g, d_max) for g in range(0, g_max + 1)]
        for g, row in enumerate(rows):
            if "?" in row:
                raise IncompleteLedgerError((r, n, row.index("?") + 1, g))
        return rows

    def completeness_audit(
        self, r: int, n: int, d_max: int, g_max: int
    ) -> list[tuple[int, int]]:
        """All in-domain non-exceptional (d, g) in the box with no derivation.

        The contract is that this list is empty; anything it returns is a
        hole in the ledger.
        """
        if (r, n) not in SUPPORTED_PAIRS:
            raise ValueError(f"unsupported pair ({r}, {n})")
        return [
            (d, g)
            for g in range(0, g_max + 1)
            for d, code in enumerate(self._row(r, n, g, d_max), start=1)
            if code == "?"
        ]

    def frontier(self, r: int, n: int, g_max: int) -> list[tuple[int, int]]:
        """Minimal-degree cases that must be seeded by a geometric construction.

        For each genus up to g_max, the least admissible degree if its
        derivation is a single constructive ledger axiom; cases reached by a
        rule or a numeric-gate base are not frontier cases.  Ordered by genus.
        """
        if (r, n) not in SUPPORTED_PAIRS:
            raise ValueError(f"unsupported pair ({r}, {n})")
        out = []
        for g in range(0, g_max + 1):
            d = admissible_floor(r, n, g)
            step = self._first_step(r, n, d, g)
            if step and step.rule == RULE_LEDGER:
                if self.ledger.get(step.entry_id).tag in CONSTRUCTIVE_TAGS:
                    out.append((d, g))
        return out

    # -- trace validation ----------------------------------------------------

    def validate_trace(self, trace: DerivationTrace) -> list[str]:
        """Replay a trace root to leaf; returns the list of soundness violations.

        O(1) per segment: along a run rho is constant while d and g fall, and
        exceptional cases sit at the bottom of their column below genus 8, so
        a run's inner premises are admissible iff its last one is."""
        problems: list[str] = []
        segments = trace.segments
        for seg, below in zip(segments, segments[1:] + (None,)):
            if seg.repeat < 1:
                problems.append(f"{seg.case}: a segment has at least one step")
                break
            last = seg._replace(case=seg.at(seg.repeat - 1), repeat=1)
            if seg.repeat > 1:
                self._check_step(last._replace(case=seg.at(seg.repeat - 2)), last, problems)
            if not self._check_step(last, below, problems):
                break
        return problems

    def _check_step(
        self, node: Segment, child: Optional[Segment], problems: list[str]
    ) -> bool:
        """Check one step against its premise; False where the replay stops."""
        r, n, d, g = node.case
        if node.rule == RULE_LEDGER:
            if child is not None:
                problems.append(f"{node.case}: ledger leaf with children")
            if node.entry_id is None:
                problems.append(f"{node.case}: ledger leaf without an entry id")
            elif not self.ledger.has(node.entry_id):
                problems.append(f"{node.case}: unknown ledger entry {node.entry_id}")
            elif not self.ledger.get(node.entry_id).matches(r, n, d, g):
                problems.append(
                    f"{node.case}: ledger entry {node.entry_id} does not cover this case"
                )
            return False
        if child is None:
            problems.append(f"{node.case}: rule {node.rule} needs exactly one premise")
            return False
        if node.rule == RULE_DOWNGRADE:
            if (r, n) != (3, 1) or child.case != (3, 2, d, g):
                problems.append(f"{node.case}: downgrade must link (3, 1) to (3, 2)")
            return True
        if node.rule not in (RULE_ADD_LINE, RULE_ADD_CANONICAL):
            problems.append(f"{node.case}: unknown rule {node.rule}")
            return False
        cr, cn, cd, cg = child.case
        dd, dg = _run_delta(node.rule, r) or (0, 0)
        if child.case != (r, n, d - dd, g - dg):
            problems.append(f"{node.case}: {node.rule} premise {child.case} has wrong invariants")
        exempt = (
            node.rule == RULE_ADD_CANONICAL
            and child.rule == RULE_LEDGER
            and self.ledger.has(child.entry_id)
            and self.ledger.get(child.entry_id).rho_exempt
        )
        admissible = in_domain(cr, cd, cg) and not self.is_exceptional(cr, cn, cd, cg)
        if not (admissible or exempt):
            problems.append(f"{node.case}: {node.rule} premise {child.case} not admissible")
        if cd >= d:
            problems.append(f"{node.case}: premise degree does not decrease")
        return True


_DEFAULT_ENGINE: Optional[ClassificationEngine] = None


def default_engine() -> ClassificationEngine:
    """A process-wide engine over the bundled ledger."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ClassificationEngine()
    return _DEFAULT_ENGINE


def classify(q: Query) -> Verdict:
    """Classify against the bundled ledger."""
    return default_engine().classify(q)
