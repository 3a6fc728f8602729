"""The base-case ledger: cited axioms the classification grounds out in.

Each entry records one case (r, n, d, g) whose twisted-normal-bundle
vanishing is taken as an axiom, together with a justification tag, the
cases it quotes as premises, any attached gluing data, and a citation
string carrying a verbatim quote of the statement it rests on.  The ledger
ships as a JSON data file, ``data/ledger.json``, which is part of the public
contract; a single flag on the command line swaps in another such file for
fault-injection runs.  The bundled file is read with the C scanner that
``json.loads`` itself calls, ``_json.make_scanner``, so loading it imports
no ``json`` package; another file is read with ``json.loads``, which words
its errors.  Both pass the same validation.  The bundled ledger is built
once per process, on first use, and shared.
"""

from ._record import _new, named_fields
from .numerology import INTERPOLATION_EXCEPTIONS, BNIndex, in_domain, interpolation_gates

#: Tags whose entries are justified by a numeric gate alone.
AUTOMATIC_TAGS = frozenset({"Interpolation", "GenusTwo", "PlaneCurve"})

#: Tags whose entries rest on a bespoke geometric construction.
CONSTRUCTIVE_TAGS = frozenset(
    {"DelPezzo", "CubicScroll", "HyperplaneGlue", "PlaneCurveGlue", "SecantLineGlue"}
)

#: Auxiliary bases that only ever appear as rule premises.
AUXILIARY_TAGS = frozenset({"SkewLines"})

KNOWN_TAGS = AUTOMATIC_TAGS | CONSTRUCTIVE_TAGS | AUXILIARY_TAGS

#: The numeric gate proving an exact automatic entry, from its BNIndex and n:
#: an Interpolation entry passes the interpolation gates at twist k = n, and
#: a GenusTwo entry is one of the interpolation exceptions.
_GATES = {
    "Interpolation": lambda ix, n: n in (0, 1, 2) and interpolation_gates(ix, n),
    "GenusTwo": lambda ix, n: (ix.d, ix.g, ix.r) in INTERPOLATION_EXCEPTIONS,
}

#: Tags that carry hyperplane-gluing side conditions.
GLUE_CHECK_TAGS = frozenset({"HyperplaneGlue", "PlaneCurveGlue"})


@named_fields
class GlueData(tuple):
    """Invariants of an attached curve: degree, genus, attachment points, twist."""

    __slots__ = ()

    def __new__(cls, d2: int, g2: int, points: int, twist: int) -> "GlueData":
        return _new(cls, (d2, g2, points, twist))


@named_fields
class LedgerEntry(tuple):
    """One base-case axiom.

    ``d`` and ``g`` of None match every degree and genus for the given
    (r, n); the two plane entries use this, since plane sections are
    handled uniformly.  ``premises`` is a tuple of (r, n, d, g) cases,
    ``glue`` a ``GlueData`` or None, and ``note`` a string or None.
    """

    __slots__ = ()

    def __new__(
        cls,
        id: str,
        r: int,
        n: int,
        d: int | None,
        g: int | None,
        tag: str,
        citation: str,
        quote: str,
        premises: tuple[tuple[int, int, int, int], ...] = (),
        glue: GlueData | None = None,
        rho_exempt: bool = False,
        premises_stated_only: bool = False,
        note: str | None = None,
    ) -> "LedgerEntry":
        return _new(
            cls,
            (id, r, n, d, g, tag, citation, quote, premises, glue, rho_exempt,
             premises_stated_only, note),
        )

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

    def case_key(self) -> tuple[int, int, int | None, int | None]:
        return (self.r, self.n, self.d, self.g)


class LedgerFormatError(ValueError):
    """A ledger file or entry list that cannot be read as a ledger."""


class Ledger:
    """An immutable-after-load collection of entries with lookup by case.  The
    bundled ledger is one instance per process, shared and read-only.
    ``windows`` holds the engine's threshold windows over these entries, one
    per pair: the breakpoints of each threshold column, built whole on first
    use and dropped with the ledger."""

    def __init__(self, entries: tuple[LedgerEntry, ...], source: str | None = None) -> None:
        self.entries = entries
        self.source = source
        self._by_id = {e.id: e for e in entries}
        if len(self._by_id) != len(entries):
            raise LedgerFormatError("duplicate ledger entry ids")
        self._by_case: dict = {}
        self._wildcards: dict = {}
        degrees: dict = {}
        genera: dict = {}
        # the first entry per case wins, and the first wildcard per (r, n)
        for entry in entries:
            if entry.d is None and entry.g is None:
                self._wildcards.setdefault((entry.r, entry.n), entry)
            elif entry.is_wildcard:
                raise LedgerFormatError(f"entry {entry.id}: d and g must both be set or both null")
            else:
                self._by_case.setdefault(entry.case_key(), entry)
                degrees.setdefault((entry.r, entry.n, entry.g), set()).add(entry.d)
                genera.setdefault((entry.r, entry.n), set()).add(entry.g)
        self._degrees = {key: tuple(sorted(ds)) for key, ds in degrees.items()}
        self._genera = {key: tuple(sorted(gs)) for key, gs in genera.items()}
        self.windows: dict = {}

    def get(self, entry_id: str) -> LedgerEntry | None:
        """The entry with this id, or None if there is none."""
        return self._by_id.get(entry_id)

    def lookup(self, r: int, n: int, d: int, g: int) -> LedgerEntry | None:
        """Exact-case entry if present, else the wildcard entry for (r, n)."""
        return self._by_case.get((r, n, d, g)) or self._wildcards.get((r, n))

    def exact_degrees(self, r: int, n: int, g: int) -> tuple[int, ...]:
        """The degrees of the exact-case entries at genus g, ascending."""
        return self._degrees.get((r, n, g), ())

    def exact_genera(self, r: int, n: int) -> tuple[int, ...]:
        """The genera of the exact-case entries of (r, n), ascending."""
        return self._genera.get((r, n), ())

    def invariant_problems(self) -> list[str]:
        """Structural violations: bad tags, empty quotes, a case out of domain
        (no general curve: r < 2, d < 1, g < 0 or rho < 0) without the
        ``rho_exempt`` flag or the flag on any other case, a PlaneCurve tag
        off the r = 2 wildcards or a SkewLines tag off the exact cases below
        genus 0, an exact Interpolation or GenusTwo entry its numeric gate
        fails, a gluing tag without the glue data its side conditions read,
        a wildcard entry with any premise, an exact entry with a premise not
        strictly below it in degree.  A wildcard matches every case of its
        pair, so a premise in that pair is the wildcard itself, and one in
        the other plane pair can close a cycle of two wildcards; derivations
        never raise the degree, so the last rule keeps an exact entry from
        resting on itself."""
        problems = []
        for entry in self.entries:
            if entry.tag not in KNOWN_TAGS:
                problems.append(f"{entry.id}: unknown tag {entry.tag!r}")
            if not entry.quote.strip():
                problems.append(f"{entry.id}: empty quote")
            if not entry.citation.strip():
                problems.append(f"{entry.id}: empty citation")
            exact_in_domain = not entry.is_wildcard and in_domain(entry.r, entry.d, entry.g)
            if not (entry.is_wildcard or entry.rho_exempt or exact_in_domain):
                problems.append(
                    f"{entry.id}: case {entry.case_key()} is out of domain without exemption"
                )
            if entry.rho_exempt and (entry.is_wildcard or exact_in_domain):
                problems.append(
                    f"{entry.id}: case {entry.case_key()} is exempted but not out of domain"
                )
            if entry.tag == "PlaneCurve" and not (entry.is_wildcard and entry.r == 2):
                problems.append(f"{entry.id}: PlaneCurve tags only the r = 2 wildcards")
            if entry.tag == "SkewLines" and (entry.is_wildcard or entry.g >= 0):
                problems.append(f"{entry.id}: SkewLines tags only exact cases below genus 0")
            gate = _GATES.get(entry.tag)
            if gate and exact_in_domain and not gate(BNIndex(entry.r, entry.d, entry.g), entry.n):
                problems.append(f"{entry.id}: the {entry.tag} gate does not hold")
            if entry.tag in GLUE_CHECK_TAGS and entry.glue is None:
                problems.append(f"{entry.id}: the {entry.tag} side conditions need glue data")
            for pr, pn, pd, pg in entry.premises:
                if entry.is_wildcard:
                    problems.append(
                        f"{entry.id}: premise ({pr}, {pn}, {pd}, {pg}) on a wildcard entry"
                    )
                elif pd >= entry.d:
                    problems.append(
                        f"{entry.id}: premise ({pr}, {pn}, {pd}, {pg}) is not below "
                        "the entry in degree"
                    )
            if entry.glue is not None:
                d2, g2, pts = entry.glue.d2, entry.glue.g2, entry.glue.points
                for pr, pn, pd, pg in entry.premises:
                    if (pd + d2, pg + g2 + pts - 1) != (entry.d, entry.g):
                        problems.append(
                            f"{entry.id}: glue arithmetic does not reach the case from premise"
                        )
        return problems


_INT_OR_NULL = (int, type(None))
_STR_OR_NULL = (str, type(None))
_FOUR_INTS = (int, int, int, int)
_TEXT_FIELDS = ("id", "tag", "citation", "quote")
_FLAG_FIELDS = ("rho_exempt", "premises_stated_only")
_GLUE_FIELDS = frozenset(GlueData._fields)


def _entry_from_record(record: dict) -> LedgerEntry:
    entry_id = record["id"]
    case = record["case"]
    r, n, d, g = case["r"], case["n"], case["d"], case["g"]
    # type() rather than isinstance(): JSON true and false load as bools
    if not (
        type(r) is int and type(n) is int and type(d) in _INT_OR_NULL and type(g) in _INT_OR_NULL
    ):
        raise LedgerFormatError(
            f"entry {entry_id}: case r, n, d, g must be integers (d and g may be null), "
            f"got {r!r}, {n!r}, {d!r}, {g!r}"
        )
    for name in _TEXT_FIELDS:
        if type(record[name]) is not str:
            raise LedgerFormatError(
                f"entry {entry_id}: {name} must be a string, got {record[name]!r}"
            )
    for name in _FLAG_FIELDS:
        if type(record.get(name, False)) is not bool:
            raise LedgerFormatError(
                f"entry {entry_id}: {name} must be true or false, got {record[name]!r}"
            )
    if type(record.get("note")) not in _STR_OR_NULL:
        raise LedgerFormatError(
            f"entry {entry_id}: note must be a string or null, got {record['note']!r}"
        )
    premises = record.get("premises", [])
    for premise in premises:
        if type(premise) is not list or tuple(map(type, premise)) != _FOUR_INTS:
            raise LedgerFormatError(
                f"entry {entry_id}: premise {premise!r} must be four integers"
            )
    glue = record.get("glue")
    if glue is not None:
        if not (
            type(glue) is dict
            and glue.keys() == _GLUE_FIELDS
            and all(type(value) is int for value in glue.values())
        ):
            raise LedgerFormatError(
                f"entry {entry_id}: glue must be an object of integers d2, g2, points "
                f"and twist, got {glue!r}"
            )
        glue = GlueData(**glue)
    return LedgerEntry(
        id=entry_id,
        r=r,
        n=n,
        d=d,
        g=g,
        tag=record["tag"],
        citation=record["citation"],
        quote=record["quote"],
        premises=tuple(map(tuple, premises)),
        glue=glue,
        rho_exempt=record.get("rho_exempt", False),
        premises_stated_only=record.get("premises_stated_only", False),
        note=record.get("note"),
    )


_BUNDLED: Ledger | None = None

#: The bundled ledger file, next to this module; found without ``os``.
_BUNDLED_FILE = __file__.rpartition("ledger.py")[0] + "data/ledger.json"

#: The longest ledger file read; the bundled ``data/ledger.json`` is 13 kB.
_MAX_LEDGER_BYTES = 16 * 2**20


class _ScanContext:
    """The scanner settings ``json.loads`` uses by default."""

    strict = True
    object_hook = object_pairs_hook = None
    parse_int, parse_float, parse_constant = int, float, float


def load_ledger(path: str | None = None) -> Ledger:
    """Load the bundled ledger, built on the first call and returned by every
    later one, or the JSON file at ``path`` (a str or path-like), read anew
    on every call."""
    global _BUNDLED
    if path is None and _BUNDLED is not None:
        return _BUNDLED
    if path is None:
        import _json

        source = "bundled"
        with open(_BUNDLED_FILE, "rb") as file:
            text = file.read().decode()
        records = _json.make_scanner(_ScanContext)(text, 0)[0]["entries"]
    else:
        import json

        source = str(path)
        with open(path, "rb") as file:
            text = file.read(_MAX_LEDGER_BYTES + 1)
        if len(text) > _MAX_LEDGER_BYTES:
            raise LedgerFormatError(
                f"malformed ledger {source}: longer than {_MAX_LEDGER_BYTES} bytes"
            )
    try:
        if path is not None:
            records = json.loads(text)["entries"]
        ledger = Ledger(entries=tuple(map(_entry_from_record, records)), source=source)
    # json raises RecursionError on arrays or objects nested too deeply
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        reason = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise LedgerFormatError(f"malformed ledger {source}: {reason}") from None
    if path is None:
        _BUNDLED = ledger
    return ledger
