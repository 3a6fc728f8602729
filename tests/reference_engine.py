"""The derivation as the engine once computed it, kept as a test oracle.

``ReferenceEngine`` builds each threshold column genus by genus in its own
memo and derives a case one segment at a time with ``first_step``, merging
the segments with ``extend``.  The engine proper keeps only the breakpoints
of each column on the ledger and shifts the last one at or below a genus up
to it in closed form; the two must give identical segments.

``to_payload`` is the flat JSON form of a trace as the library once built
it, from ``steps()``; the report writer must render a trace as ``json``
renders this list.
"""

from gensect.engine import (
    CANONICAL_STEP,
    RULE_ADD_CANONICAL,
    RULE_ADD_LINE,
    RULE_DOWNGRADE,
    RULE_LEDGER,
    IncompleteLedgerError,
    Segment,
    admissible_floor,
)
from gensect.ledger import AUXILIARY_TAGS

RUN_RULES = (RULE_ADD_LINE, RULE_ADD_CANONICAL)


def to_payload(trace) -> list[dict]:
    """Flat root-to-leaf list; keeps JSON nesting depth constant."""
    return [
        {"case": list(step.case), "rule": step.rule, "entry": step.entry_id}
        for step in trace.steps()
    ]


def extend(segments: list, seg: Segment) -> None:
    """Append a segment, merging it into the last one if it continues that run."""
    last = segments[-1] if segments else None
    if (
        last
        and last.rule == seg.rule
        and seg.rule in RUN_RULES
        and last.entry_id == seg.entry_id
        and last.at(last.repeat) == seg.case
    ):
        segments[-1] = last._replace(repeat=last.repeat + seg.repeat)
    else:
        segments.append(seg)


class ReferenceEngine:
    def __init__(self, ledger):
        self.ledger = ledger
        self.thresholds = {}

    def segments(self, r, n, d, g):
        """The segments of an admissible case's derivation, step by step;
        raises IncompleteLedgerError where there is none."""
        segments = []
        step = self.first_step(r, n, d, g)
        while step is not None:
            extend(segments, step)
            case = step.premise()
            if case is None:
                return tuple(segments)
            step = self.first_step(*case)
        raise IncompleteLedgerError((r, n, d, g))

    def first_step(self, r, n, d, g):
        """The first segment of the derivation of an admissible case, if any."""
        threshold = self.threshold(r, n, g) if g >= 0 else None
        if threshold is not None and d >= threshold.case[2]:
            if (r, n) == (3, 1):
                return Segment((r, n, d, g), RULE_DOWNGRADE)
            if d > threshold.case[2]:
                return Segment((r, n, d, g), RULE_ADD_LINE, d - threshold.case[2])
            return threshold
        entry = self.leaf(r, n, d, g)
        return entry and Segment((r, n, d, g), RULE_LEDGER, 1, entry.id)

    def leaf(self, r, n, d, g):
        entry = self.ledger.lookup(r, n, d, g)
        return entry if entry is not None and (entry.tag not in AUXILIARY_TAGS or g < 0) else None

    def threshold(self, r, n, g):
        r, n = (3, 2) if (r, n) == (3, 1) else (r, n)
        if r not in CANONICAL_STEP:
            return None
        if g < 0:
            for d in self.ledger.exact_degrees(r, n, g):
                entry = self.leaf(r, n, d, g)
                if entry is not None and entry.rho_exempt:
                    return Segment((r, n, d, g), RULE_LEDGER, 1, entry.id)
            return None
        dd, dg = CANONICAL_STEP[r]
        column = self.thresholds.setdefault((r, n, g % dg), [])
        while len(column) <= g // dg:
            h = g % dg + len(column) * dg
            below = column[-1] if column else self.threshold(r, n, h - dg)
            floor = admissible_floor(r, n, h)
            step = self.lowest_leaf(r, n, h, floor)
            if below is not None:
                canonical = max(floor, below.case[2] + dd)
                rests = below.case[3] >= 0 or canonical == below.case[2] + dd
                if rests and (step is None or canonical <= step.case[2]):
                    step = Segment((r, n, canonical, h), RULE_ADD_CANONICAL)
            column.append(step)
        return column[g // dg]

    def lowest_leaf(self, r, n, g, lo):
        exact = self.ledger.exact_degrees(r, n, g)
        free = lo
        while free in exact:
            free += 1
        for d in sorted({free, *(e for e in exact if e >= lo)}):
            entry = self.leaf(r, n, d, g)
            if entry is not None:
                return Segment((r, n, d, g), RULE_LEDGER, 1, entry.id)
        return None
