"""The classification engine for hypersurface sections of general curves.

A query (r, n, d, g) asks whether a general degree-d genus-g curve in P^r
meets a general degree-n hypersurface in a general point configuration.
Only five pairs (r, n) admit an affirmative answer outside finitely many
(d, g): plane sections by lines and conics, space sections by planes and
quadrics, and hyperplane sections in P^4.  The engine classifies a query as
Invalid, Exceptional (one of the ten known counterexamples) or General, and
in the last case emits a derivation trace: a path of rule applications
ending in a cited ledger axiom.  Exceptional cases and their descriptors are
read directly from the table of them in ``audits``.  Engines share the
bundled ledger, which is built once per process, and the threshold windows
kept on it: per pair, the breakpoints of each threshold column, built whole
on first use.  So an engine is cheap to make.

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

from ._record import _new, named_fields
from .audits import EXCEPTIONAL, ExceptionalCase
from .ledger import (
    _FOUR_INTS,
    _STR_OR_NULL,
    AUXILIARY_TAGS,
    CONSTRUCTIVE_TAGS,
    Ledger,
    LedgerEntry,
    load_ledger,
)
from .numerology import BNIndex, domain_floor, in_domain, rho

SUPPORTED_PAIRS = frozenset({(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)})

#: Attached-curve invariants of the canonical-curve rule per ambient r.
CANONICAL_STEP = {3: (6, 8), 4: (8, 10)}

RULE_ADD_LINE = "add_line"
RULE_ADD_CANONICAL = "add_canonical"
RULE_DOWNGRADE = "downgrade"
RULE_LEDGER = "ledger"
_RUN_RULES = (RULE_ADD_LINE, RULE_ADD_CANONICAL)  # the rules that repeat
_RUN_PAIRS = ((3, 2), (4, 1))  # the pairs they apply to


class IncompleteLedgerError(RuntimeError):
    """An in-domain, non-exceptional case admitted no derivation.

    By the completeness of the shipped ledger this never fires; it exists so
    fault-injected or truncated ledgers fail loudly instead of misreporting.
    """

    def __init__(self, case: tuple[int, int, int, int]) -> None:
        super().__init__(f"no derivation for in-domain case {case}")
        self.case = case


@named_fields
class Query(tuple):
    __slots__ = ()

    def __new__(cls, r: int, n: int, d: int, g: int) -> "Query":
        return _new(cls, (r, n, d, g))


@named_fields
class Segment(tuple):
    """``repeat`` steps of one rule from ``case``, each resting on the next.

    Only ``add_line`` and ``add_canonical`` repeat; leaves carry an entry id.
    """

    __slots__ = ()

    def __new__(
        cls,
        case: tuple[int, int, int, int],
        rule: str,
        repeat: int = 1,
        entry_id: str | None = None,
    ) -> "Segment":
        return _new(cls, (case, rule, repeat, entry_id))

    @property
    def delta(self) -> tuple[int, int]:
        """Degree and genus drop from one step of the segment to the next."""
        if self.rule == RULE_ADD_CANONICAL:
            return CANONICAL_STEP.get(self.case[0], (0, 0))
        return (1, 0) if self.rule == RULE_ADD_LINE else (0, 0)

    def at(self, i: int) -> tuple[int, int, int, int]:
        """The case of step i; i = repeat is the premise below a run."""
        r, n, d, g = self.case
        dd, dg = self.delta
        return (r, n, d - i * dd, g - i * dg)

    def premise(self) -> tuple[int, int, int, int] | None:
        """The case the segment rests on; None for a ledger leaf and for a
        rule that does not apply to the case's pair: add_line and
        add_canonical apply to (3, 2) and (4, 1), downgrade to (3, 1)."""
        r, n, d, g = self.case
        if self.rule == RULE_DOWNGRADE:
            return (3, 2, d, g) if (r, n) == (3, 1) else None
        return self.at(self.repeat) if self.rule in _RUN_RULES and (r, n) in _RUN_PAIRS else None


@named_fields
class DerivationTrace(tuple):
    """A derivation: the path from the queried case down to a ledger leaf.

    Every rule has exactly one premise, so a derivation is a path, stored as
    maximal runs of one rule (a tuple of ``Segment``): a number of segments
    bounded by the ledger, however large d and g are.
    """

    __slots__ = ()

    def __new__(cls, segments: tuple[Segment, ...]) -> "DerivationTrace":
        if not segments:
            raise ValueError("a derivation has at least one step")
        return _new(cls, (segments,))

    def steps(self) -> list[Segment]:
        """The single steps from root to leaf."""
        return [
            Segment(seg.at(i), seg.rule, 1, seg.entry_id)
            for seg in self.segments
            for i in range(seg.repeat)
        ]


def _trace_record(index: int, record: dict) -> tuple[tuple, str, str | None]:
    """The case, rule and entry of one JSON trace record.

    Raises ValueError naming the record's index unless it is an object with
    a case of four integers (not booleans), a string rule and a string or
    null entry.
    """
    case = record.get("case") if type(record) is dict else None
    if not (
        isinstance(case, (list, tuple))
        and tuple(map(type, case)) == _FOUR_INTS
        and type(record.get("rule")) is str
        and type(record.get("entry")) in _STR_OR_NULL
    ):
        raise ValueError(
            f"trace record {index}: not an object with a case of four integers, "
            "a string rule and a string or null entry"
        )
    return tuple(case), record["rule"], record.get("entry")


def trace_from_payload(payload: list[dict]) -> DerivationTrace:
    """Rebuild a trace from its JSON form (for re-validation round trips).

    Run by run: ``_trace_record`` checks the record that starts a run, and an
    inner loop steps the run's degree and genus while the next record has the
    run's case, rule and entry, so each run costs one Segment.  A record that
    continues a run equals the case computed for it, so it is not checked
    again: a number equal to that case's, such as 5.0, passes there.  Apart
    from that, the result equals checking every record and merging each one
    that continues the run before it into that run.
    """
    if type(payload) is not list:
        raise ValueError("a trace payload is a list of records")
    if not payload:
        raise ValueError("empty trace payload")
    segments: list[Segment] = []
    index, end = 0, len(payload)
    while index < end:
        case, rule, entry = _trace_record(index, payload[index])
        seg, start = Segment(case, rule, 1, entry), index
        index += 1
        if rule in _RUN_RULES:
            (r, n, d, g), (dd, dg) = case, seg.delta
            while index < end:  # a run ends where the next record does not continue it
                d, g = d - dd, g - dg
                record = payload[index]
                try:
                    if not (
                        tuple(record["case"]) == (r, n, d, g)
                        and record["rule"] == rule
                        and record.get("entry") == entry
                    ):
                        break
                except (AttributeError, KeyError, TypeError):
                    break  # malformed: it starts the next run, where _trace_record rejects it
                index += 1
        segments.append(seg._replace(repeat=index - start))
    return DerivationTrace(tuple(segments))


@named_fields
class Verdict(tuple):
    """Outcome of a classification query: ``status`` is "general",
    "exceptional" or "invalid", with a ``trace``, a ``descriptor`` (the
    case's ``audits.ExceptionalCase`` row) or a ``reason`` to match."""

    __slots__ = ()

    def __new__(
        cls,
        status: str,
        reason: str | None = None,
        trace: DerivationTrace | None = None,
        descriptor: ExceptionalCase | None = None,
    ) -> "Verdict":
        return _new(cls, (status, reason, trace, descriptor))


def admissible(r: int, n: int, d: int, g: int) -> bool:
    """Whether a case is one the engine derives: its pair is supported, it is
    in domain and it is not exceptional."""
    return (r, n) in SUPPORTED_PAIRS and in_domain(r, d, g) and (r, n, d, g) not in EXCEPTIONAL


def _leaf(entry: LedgerEntry | None, g: int) -> LedgerEntry | None:
    """``entry`` if a case at genus g may rest on it directly, else None: the
    one rule against auxiliary leaves, which serve only as premises below
    genus 0, where no query or sweep reaches.  Every leaf the engine takes,
    from ``Ledger.lookup``, and every leaf a trace cites passes here."""
    return entry if entry is not None and (entry.tag not in AUXILIARY_TAGS or g < 0) else None


def admissible_floor(r: int, n: int, g: int) -> int | None:
    """The least d with (r, n, d, g) in domain and not exceptional, if any.

    Every exceptional (d, g) sits at the bottom of its genus column, so the
    admissible degrees are exactly those from this floor up.
    """
    if r < 2 or g < 0:
        return None
    d = domain_floor(r, g)
    while (r, n, d, g) in EXCEPTIONAL:
        d += 1
    return d


def _shift(step: Segment | None, g: int) -> Segment | None:
    """A threshold step moved up its column to genus g: k (dd, dg) higher as
    add_canonical, continuing the step's run, or resting on it if it is a
    ledger leaf.  None stays None."""
    if step is None or step.case[3] == g:
        return step
    r, n, d, h = step.case
    dd, dg = CANONICAL_STEP[r]
    k = (g - h) // dg
    run = k + step.repeat if step.rule == RULE_ADD_CANONICAL else k
    return Segment((r, n, d + k * dd, g), RULE_ADD_CANONICAL, run)


class ClassificationEngine:
    """Deterministic classifier over an immutable ledger.

    Rule order is add_line, add_canonical, downgrade, ledger.  As add_line
    comes first, the derivable degrees of (3, 2) and (4, 1) at genus g are
    [f(g), inf): a derivation is an add_line run down to f(g), then the step
    deriving f(g), which recurses only in genus.  Without a ledger argument
    it reads the shared bundled ledger.  The engine holds nothing else: the
    steps deriving f(g) are kept on the ledger as one window per pair, the
    breakpoints of each residue column g mod dg, built whole on first use
    and shared by every engine over that ledger; a step between breakpoints
    is the one below shifted in closed form.  Each such step is the segment
    a derivation emits at its genus, an add_canonical run whole, so
    ``classify`` appends it and goes on from its premise.
    """

    def __init__(self, ledger: Ledger | None = None) -> None:
        self.ledger = ledger if ledger is not None else load_ledger()

    # -- classification ----------------------------------------------------

    def classify(self, q: Query) -> Verdict:
        """Total and deterministic over integer queries; General verdicts
        carry a complete trace.  Raises ValueError unless r, n, d and g are
        integers (not booleans), and IncompleteLedgerError for an admissible
        case the ledger does not derive."""
        r, n, d, g = q
        if tuple(map(type, q)) != _FOUR_INTS:
            raise ValueError(f"r, n, d and g must be integers, got {r!r}, {n!r}, {d!r}, {g!r}")
        if (r, n) not in SUPPORTED_PAIRS:
            return Verdict(
                "invalid",
                f"unsupported pair (r, n) = ({r}, {n}); generality is possible "
                f"only for {', '.join(map(str, sorted(SUPPORTED_PAIRS)))}",
            )
        if d < 1:
            return Verdict("invalid", f"degree must be at least 1, got {d}")
        if g < 0:
            return Verdict("invalid", f"genus must be nonnegative, got {g}")
        if not in_domain(r, d, g):
            value = rho(BNIndex(r, d, g))
            return Verdict("invalid", f"rho({d}, {g}, {r}) = {value} < 0: no such general curve")
        descriptor = EXCEPTIONAL.get((r, n, d, g))
        if descriptor is not None:
            return Verdict("exceptional", descriptor=descriptor)
        segments: list[Segment] = []
        threshold = self._threshold(r, n, g)
        if (r, n) == (3, 1) and threshold is not None and d >= threshold.case[2]:
            segments.append(Segment(tuple(q), RULE_DOWNGRADE))
            n = 2
        while threshold is not None and d >= threshold.case[2]:
            if d > threshold.case[2]:
                segments.append(Segment((r, n, d, g), RULE_ADD_LINE, d - threshold.case[2]))
            segments.append(threshold)
            if threshold.rule == RULE_LEDGER:
                return Verdict("general", trace=DerivationTrace(tuple(segments)))
            r, n, d, g = threshold.premise()
            threshold = self._threshold(r, n, g) if g >= 0 else None  # no rule below genus 0
        entry = _leaf(self.ledger.lookup(r, n, d, g), g)
        if entry is None:
            raise IncompleteLedgerError(tuple(q))
        segments.append(Segment((r, n, d, g), RULE_LEDGER, 1, entry.id))
        return Verdict("general", trace=DerivationTrace(tuple(segments)))

    def _threshold(self, r: int, n: int, g: int) -> Segment | None:
        """The step deriving f(g), g >= 0; None if nothing there is derivable.

        f(g) is the least of add_canonical at max(a(g), f(g - dg) + dd) and
        the lowest ledger leaf from a(g) up; add_canonical, tried first, wins
        a tie.  (3, 1) downgrades onto the thresholds of (3, 2); the plane
        pairs have none.  The step is the segment classify emits at genus g
        (an add_canonical step carries its whole run in ``repeat``): the last
        breakpoint of its column at or below g (``_window``), shifted to g.
        """
        return _shift(self._window_step(r, n, g)[0], g)

    def _window_step(self, r: int, n: int, g: int) -> tuple[Segment | None, int | None]:
        """The last breakpoint step of genus g's column at or below g >= 0,
        which ``_shift`` moves up to g, and f(g)."""
        r, n = (3, 2) if (r, n) == (3, 1) else (r, n)
        if r not in CANONICAL_STEP:
            return None, None
        dd, dg = CANONICAL_STEP[r]
        window = self.ledger.windows.get((r, n))
        if window is None:  # built whole, so threads that race share one window
            window = self.ledger.windows.setdefault((r, n), self._window(r, n))
        for h, step in reversed(window[g % dg]):
            if h <= g:  # the column's least genus is g % dg, so this ends the scan
                return step, step and step.case[2] + (g - h) // dg * dd

    def _window(self, r: int, n: int) -> tuple[tuple[tuple[int, Segment | None], ...], ...]:
        """The threshold columns of (r, n) by residue g mod dg, each as its
        breakpoints: ascending (genus, step) pairs.  A column breaks at its
        least genus, at every genus from 0 up with an exact entry or an
        exceptional case of the pair, and dg above each of those.  Between
        breakpoints a step is the one below it shifted (``_shift``): the
        admissible floor rises by exactly dd per dg, a genus without an
        exact entry offers only a wildcard leaf, at its floor, and where
        there is a wildcard every step there sits at the floor too, so
        add_canonical wins the tie.  Each breakpoint's step is derived from
        the step dg below it: the last breakpoint shifted, or below genus 0
        the column's seed, its least exact leaf flagged rho_exempt (three
        skew lines in P^4); no rule applies there, so add_canonical rests on
        the seed only where its premise is the seed itself.  So the window
        holds at most dg steps plus two per entry or exceptional genus,
        however high those genera sit."""
        dd, dg = CANONICAL_STEP[r]
        genera = set(range(dg))  # each column's least genus
        exceptional = (g for pr, pn, _, g in EXCEPTIONAL if (pr, pn) == (r, n))
        for g in (*self.ledger.exact_genera(r, n), *exceptional):
            genera.update((g, g + dg))
        lookup = self.ledger.lookup
        columns = []  # by residue, each from its seed dg below its least genus
        for g in range(-dg, 0):
            leaves = (_leaf(lookup(r, n, d, g), g) for d in self.ledger.exact_degrees(r, n, g))
            seed = next((e for e in leaves if e and e.rho_exempt), None)
            columns.append([(g, seed and Segment((r, n, seed.d, g), RULE_LEDGER, 1, seed.id))])
        for h in sorted(h for h in genera if h >= 0):  # each column bottom up
            column = columns[h % dg]
            below = _shift(column[-1][1], h - dg)
            floor = admissible_floor(r, n, h)
            step = self._lowest_leaf(r, n, h, floor)
            if below is not None:
                canonical = max(floor, below.case[2] + dd)
                # add_line lifts a threshold at genus >= 0 to every degree
                # above it; below genus 0 only the seed's own degree derives
                onto = canonical == below.case[2] + dd  # the premise is below's case
                rests = below.case[3] >= 0 or onto
                if rests and (step is None or canonical <= step.case[2]):
                    # onto below's case, it continues below's run
                    step = _shift(below, h) if onto else Segment(
                        (r, n, canonical, h), RULE_ADD_CANONICAL
                    )
            column.append((h, step))
        return tuple(tuple(column[1:]) for column in columns)  # without the seeds

    def _lowest_leaf(self, r: int, n: int, g: int, lo: int) -> Segment | None:
        """The ledger leaf of least degree >= lo at genus g.  A degree without
        an exact entry can only match a wildcard, so besides the exact entries'
        degrees only the least such degree from lo up is looked up."""
        exact = self.ledger.exact_degrees(r, n, g)
        free = lo
        while free in exact:
            free += 1
        for d in sorted({free, *(e for e in exact if e >= lo)}):
            entry = _leaf(self.ledger.lookup(r, n, d, g), g)
            if entry is not None:
                return Segment((r, n, d, g), RULE_LEDGER, 1, entry.id)
        return None

    # -- sweeps --------------------------------------------------------------

    def _genus(self, r: int, n: int, g: int, d_max: int) -> tuple[str, int | None]:
        """Grid codes for d = 1..d_max at genus g, '?' if admissible but
        underivable, and the least admissible degree if it is a frontier
        case: one whose derivation is a single constructive ledger axiom.
        Below the threshold a degree derives only from a leaf (``_leaf``);
        above the exact entries' degrees it can only be the wildcard, so if
        the first such degree has a leaf, no higher degree is looked up."""
        floor, lookup = admissible_floor(r, n, g), self.ledger.lookup
        step, threshold = self._window_step(r, n, g)
        leaf = None  # where the floor's first step is add_canonical or a downgrade
        if step is None or floor < threshold or (
            step.rule == RULE_LEDGER and step.case == (r, n, floor, g)
        ):
            leaf = _leaf(lookup(r, n, floor, g), g)
        seed = floor if leaf is not None and leaf.tag in CONSTRUCTIVE_TAGS else None
        if d_max < 1:
            return "", seed
        top = d_max + 1 if step is None else min(threshold, d_max + 1)
        band = ""
        if floor < top:
            exact = self.ledger.exact_degrees(r, n, g)
            free = max(floor, exact[-1] + 1) if exact else floor
            if free < top and _leaf(lookup(r, n, free, g), g) is not None:
                top = free  # the wildcard covers every degree from free up
            band = "".join("G" if _leaf(lookup(r, n, d, g), g) else "?" for d in range(floor, top))
        low = domain_floor(r, g)
        row = "." * min(low - 1, d_max) + "E" * (floor - low) + band + "G" * (d_max + 1 - top)
        return row[:d_max], seed

    def _sweep(self, r: int, n: int, d_max: int, g_max: int):
        """The row of each genus g = 0..g_max and its frontier degree (None
        if it has none).

        ``_genus`` derives the rows up to one period past g0, the highest
        genus of an exact entry or an exceptional case of (r, n), or of
        (3, 2) for (3, 1), which reads the (3, 2) window.  Above g0 the floor
        is domain_floor(r, g) and only the wildcard offers a leaf.  For
        (3, 2), (3, 1) and (4, 1) the period is the canonical step's
        (dd, dg): the window breaks only at the genera above, dg higher and
        at each column's least genus, so a row above g0 is at or past the
        last breakpoint of its column g mod dg, and its threshold, that
        breakpoint's step shifted, rises by dd every dg as the floor does,
        since r dg = (r + 1) dd.  The plane pairs have no threshold, and
        their period is one genus.  So a row above g0 recurs a period higher
        with its Gs moved to the new floor: once one is dots then Gs and
        seeds no frontier case, every later row of its column is the slice
        of '.' * d_max + 'G' * d_max whose Gs start at domain_floor(r, g),
        and is not derived.  A column whose rows hold a hole or a seed is
        derived genus by genus, so ``table`` raises at its first hole and
        the audit lists every one."""
        if tuple(map(type, (r, n, d_max, g_max))) != _FOUR_INTS:
            raise ValueError(
                f"r, n, d_max and g_max must be integers, got {r!r}, {n!r}, {d_max!r}, {g_max!r}"
            )
        if (r, n) not in SUPPORTED_PAIRS:
            raise ValueError(f"unsupported pair ({r}, {n})")
        dg = CANONICAL_STEP[r][1] if r in CANONICAL_STEP else 1
        pairs = {(r, n), (3, 2) if (r, n) == (3, 1) else (r, n)}
        g0 = max(
            [g for pr, pn, _, g in EXCEPTIONAL if (pr, pn) in pairs]
            + [g for pair in pairs for g in self.ledger.exact_genera(*pair)[-1:]],  # highest
            default=-1,
        )
        strip, closed = "." * d_max + "G" * d_max, set()  # closed: columns g mod dg
        for g in range(0, g_max + 1):
            if g > g0:
                dots = min(domain_floor(r, g) - 1, d_max)
                whole = strip[d_max - dots : 2 * d_max - dots]
                if g % dg in closed:
                    yield whole, None
                    continue
            row, seed = self._genus(r, n, g, d_max)
            if g > g0 and seed is None and row == whole:
                closed.add(g % dg)
            yield row, seed

    def table(
        self, r: int, n: int, d_max: int, g_max: int
    ) -> tuple[list[str], list[tuple[int, int]]]:
        """Verdict rows for g = 0..g_max, one character per d = 1..d_max (G
        general, E exceptional, . invalid), and ``frontier(r, n, g_max)``,
        read from one walk over the genera (``_sweep``): rows are derived
        only up to one period past the last exact entry or exceptional case
        the pair reads, and above it a column of whole rows is one string
        sliced at the domain floor, so the derivations a grid costs are
        bounded by the ledger, not by g_max.  Raises ValueError for an
        argument that is not an integer (or is a boolean) and for an
        unsupported pair, and IncompleteLedgerError for the first
        underivable case, by genus then degree, as soon as its row is
        built."""
        rows, frontier = [], []
        for g, (row, seed) in enumerate(self._sweep(r, n, d_max, g_max)):
            if "?" in row:
                raise IncompleteLedgerError((r, n, row.index("?") + 1, g))
            rows.append(row)
            if seed is not None:
                frontier.append((seed, g))
        return rows, frontier

    def completeness_audit(
        self, r: int, n: int, d_max: int, g_max: int
    ) -> list[tuple[int, int]]:
        """All in-domain non-exceptional (d, g) in the box with no derivation.

        The contract is that this list is empty; anything it returns is a
        hole in the ledger.  The sweep takes a column's rows in closed form
        only above the last exact entry or exceptional case the pair reads
        and only once one of them is whole, so a column with a hole is
        derived genus by genus and every hole in the box is listed.
        """
        holes = []
        for g, (row, _) in enumerate(self._sweep(r, n, d_max, g_max)):
            if "?" in row:
                holes.extend((d, g) for d, code in enumerate(row, start=1) if code == "?")
        return holes

    def frontier(self, r: int, n: int, g_max: int) -> list[tuple[int, int]]:
        """Minimal-degree cases that must be seeded by a geometric construction.

        For each genus up to g_max, the least admissible degree if its
        derivation is a single constructive ledger axiom; cases reached by a
        rule or a numeric-gate base are not frontier cases.  Ordered by genus.
        """
        return self.table(r, n, 0, g_max)[1]  # empty rows: no hole to raise

    # -- trace validation ----------------------------------------------------

    def validate_trace(self, trace: DerivationTrace) -> list[str]:
        """Replay a trace root to leaf; returns the list of soundness violations.

        One pass, O(1) per segment, in the engine's own terms: the root and
        each premise must be ``admissible`` (an add_canonical run may rest
        on a rho_exempt leaf if its last case is), each premise is the one
        ``Segment.premise`` names, no rule step names an entry, and the
        leaf's entry covers its case and passes ``_leaf``.  A run's inner
        cases are not visited: above an admissible case they stay in domain
        (rho is fixed along add_canonical and rises with the degree along
        add_line), and the ``exceptional-floor`` check of ``verify`` finds
        no exceptional case one add_line or add_canonical step above an
        admissible case, so they are admissible too.  A segment field of the
        wrong type is reported as a problem, not raised."""
        segments = trace.segments
        for seg in segments:  # type(): a JSON bool is an int to isinstance()
            if not isinstance(seg.case, tuple) or tuple(map(type, seg.case)) != _FOUR_INTS:
                return [f"{seg.case}: case is not four integers"]
            if type(seg.repeat) is not int:
                return [f"{seg.case}: repeat {seg.repeat!r} is not an integer"]
            if type(seg.rule) is not str:
                return [f"{seg.case}: rule {seg.rule!r} is not a string"]
            if type(seg.entry_id) not in _STR_OR_NULL:
                return [f"{seg.case}: entry {seg.entry_id!r} is neither a string nor None"]
            if seg.repeat < 1:
                return [f"{seg.case}: a segment has at least one step"]
            if seg.repeat > 1 and seg.rule not in _RUN_RULES:
                return [f"{seg.case}: rule {seg.rule} does not repeat"]
        root, leaf = segments[0].case, segments[-1]
        entry = self.ledger.get(leaf.entry_id) if leaf.rule == RULE_LEDGER else None
        problems = [] if admissible(*root) else [f"{root}: not an admissible case"]
        for seg, below in zip(segments, segments[1:]):
            last, premise = seg.at(seg.repeat - 1), seg.premise()
            if premise is None:
                problems.append(f"{last}: rule {seg.rule} rests on no premise here")
                continue
            if seg.entry_id is not None:
                problems.append(f"{seg.case}: rule step {seg.rule} names an entry")
            exempt = seg.rule == RULE_ADD_CANONICAL and below is leaf and entry and entry.rho_exempt
            if below.case != premise:
                problems.append(f"{last}: {seg.rule} premise {below.case} has wrong invariants")
            elif not (admissible(*premise) or exempt and admissible(*last)):
                problems.append(f"{last}: {seg.rule} premise {premise} not admissible")
        case = leaf.at(leaf.repeat - 1)
        if leaf.rule != RULE_LEDGER:
            problems.append(f"{case}: rule {leaf.rule} needs exactly one premise")
        elif leaf.entry_id is None:
            problems.append(f"{case}: ledger leaf without an entry id")
        elif entry is None:
            problems.append(f"{case}: unknown ledger entry {leaf.entry_id}")
        elif not (entry.matches(*case) and _leaf(entry, case[3])):
            problems.append(f"{case}: ledger entry {entry.id} does not cover this case")
        return problems
