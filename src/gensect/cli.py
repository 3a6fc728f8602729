"""Command line front end.

Subcommands: classify, table, trace, audit, schubert, lines, verify-all.
Reports go to standard output (human-readable text by default, JSON with
--json); diagnostics go to the error stream.  Exit codes are a fixed
contract: 0 success, 1 malformed input, 2 invalid query, 3 verification
failure.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from . import audits, lattices, schubert, verify
from ._record import _new, named_fields
from .engine import (
    SUPPORTED_PAIRS,
    ClassificationEngine,
    IncompleteLedgerError,
    Query,
    Verdict,
)
from .ledger import LedgerFormatError, load_ledger
from .report import _Grid, envelope, to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_VERIFICATION = 3


def _verdict_payload(engine: ClassificationEngine, q: Query, verdict: Verdict) -> dict:
    payload: dict = {
        "query": {"r": q.r, "n": q.n, "d": q.d, "g": q.g},
        "verdict": verdict.status,
    }
    if verdict.status == "invalid":
        payload["reason"] = verdict.reason
    elif verdict.status == "exceptional":
        desc = verdict.descriptor
        payload["descriptor"] = {
            "case": list(desc.case),
            "description": desc.description,
            "audit_case": list(desc.case),
            "note": desc.note,
        }
    else:
        # a derivation is a path: its one ledger entry is at the leaf
        entry = engine.ledger.get(verdict.trace.segments[-1].entry_id)
        payload["trace"] = verdict.trace  # to_json writes it from its segments
        payload["citations"] = [
            {"entry": entry.id, "tag": entry.tag, "citation": entry.citation, "quote": entry.quote}
        ]
    return payload


def _verdict_text(engine: ClassificationEngine, q: Query, verdict: Verdict):
    yield f"query: r={q.r} n={q.n} d={q.d} g={q.g}"
    yield f"verdict: {verdict.status}"
    if verdict.status == "invalid":
        yield f"reason: {verdict.reason}"
    elif verdict.status == "exceptional":
        yield f"intersection: {verdict.descriptor.description}"
        yield f"audit: {verdict.descriptor.case}"
    else:
        # one line per segment, indented by its depth; a run says how long it is
        yield "trace:"
        for depth, seg in enumerate(verdict.trace.segments):
            indent = "  " * (depth + 1)
            r, n, d, g = seg.case
            if seg.rule == "ledger":
                entry = engine.ledger.get(seg.entry_id)
                yield f"{indent}({r},{n},{d},{g})  base [{entry.id}] {entry.citation}"
            else:
                run = f" x{seg.repeat}" if seg.repeat > 1 else ""
                yield f"{indent}({r},{n},{d},{g})  {seg.rule}{run}"


def _emit(args: SimpleNamespace, payload, lines) -> None:
    """Write the requested format: with --json, ``payload`` in the envelope
    that names the subcommand that ran; else each of ``lines`` and then a
    newline, one line at a time, so no text report is held whole."""
    if args.json:
        sys.stdout.write(to_json(envelope(args.command, payload)))
    else:
        write = sys.stdout.write
        for line in lines:
            write(line)
            write("\n")


# -- subcommand handlers -------------------------------------------------------


def _cmd_classify(args: SimpleNamespace) -> int:
    # the derivation is found in closed form at any g, but a JSON trace
    # lists every step, so it grows with d + g / dg
    if args.d > 1_000_000 or args.g > 1_000_000:
        print("--d and --g above 10^6 are rejected", file=sys.stderr)
        return EXIT_USAGE
    engine = ClassificationEngine(load_ledger(args.ledger))
    q = Query(args.r, args.n, args.d, args.g)
    verdict = engine.classify(q)
    _emit(args, _verdict_payload(engine, q, verdict), _verdict_text(engine, q, verdict))
    return EXIT_INVALID if verdict.status == "invalid" else EXIT_OK


def _cmd_table(args: SimpleNamespace) -> int:
    if not (0 <= args.d_max <= 10_000 and 0 <= args.g_max <= 10_000):
        print("--d-max and --g-max must lie in 0..10^4", file=sys.stderr)
        return EXIT_USAGE
    engine = ClassificationEngine(load_ledger(args.ledger))
    if (args.r, args.n) not in SUPPORTED_PAIRS:
        print(f"unsupported pair (r, n) = ({args.r}, {args.n})", file=sys.stderr)
        return EXIT_INVALID
    rows, frontier = engine.table(args.r, args.n, args.d_max, args.g_max)
    payload = {
        "r": args.r,
        "n": args.n,
        "d_max": args.d_max,
        "g_max": args.g_max,
        "legend": {"G": "general", "E": "exceptional", ".": "invalid"},
        "grid": _Grid(rows),  # to_json writes one f-string per row
        "frontier": [list(pair) for pair in frontier],
    }

    def text():
        yield (
            f"verdicts for r={args.r} n={args.n}, d = 1..{args.d_max} per row, g = 0..{args.g_max}"
        )
        yield "legend: G general, E exceptional, . invalid"
        for g, row in enumerate(rows):
            yield f"g={g:>3} {row}"
        yield "frontier (minimal construction seeds, ordered by genus):"
        yield "  " + ", ".join(f"({d}, {g})" for d, g in frontier) if frontier else "  (none)"

    _emit(args, payload, text())
    return EXIT_OK


def _parse_case(text: str) -> tuple[int, int, int, int]:
    parts = tuple(int(p) for p in text.replace(" ", "").split(","))
    if len(parts) != 4:
        raise ValueError("a case is r,n,d,g")
    return parts


def _audit_payload(report: audits.ExceptionalCase) -> dict:
    ev = report.evidence
    payload: dict = {"case": list(report.case), "verdict": "not_general"}
    if isinstance(ev, audits.ConditionCount):
        payload["evidence"] = {
            "kind": "condition_count",
            "points": ev.points,
            "h0": ev.h0,
            "slack": ev.slack,
            "comparison": ev.comparison,
            "system": ev.system,
        }
    elif isinstance(ev, audits.DimensionDeficit):
        payload["evidence"] = {
            "kind": "dimension_deficit",
            "components": [[name, value] for name, value in ev.components],
            "total": ev.total,
            "ambient_dim": ev.ambient_dim,
        }
    else:
        payload["evidence"] = {"kind": "external_fact", "citation": ev.citation}
    return payload


def _audit_text(report: audits.ExceptionalCase) -> str:
    ev = report.evidence
    case = report.case
    if isinstance(ev, audits.ConditionCount):
        sense = "cut out by" if ev.comparison == "cut_out_by" else "forced onto"
        body = (
            f"{ev.points} points {sense} {ev.system} (h0 = {ev.h0}, slack {ev.slack})"
        )
    elif isinstance(ev, audits.DimensionDeficit):
        tally = " + ".join(str(v) for _, v in ev.components)
        body = f"family dimension {tally} = {ev.total} < {ev.ambient_dim} ambient"
    else:
        body = f"external fact: {ev.citation}"
    return f"case {case}: NOT GENERAL - {body}"


def _cmd_audit(args: SimpleNamespace) -> int:
    if args.all:
        cases = list(audits.EXCEPTIONAL)
    elif args.case:
        try:
            cases = [_parse_case(args.case)]
        except ValueError as exc:
            print(f"bad --case: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        print("audit needs --all or --case r,n,d,g", file=sys.stderr)
        return EXIT_USAGE
    try:
        reports = [audits.run_audit(case) for case in sorted(cases)]
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    _emit(args, {"audits": [_audit_payload(rep) for rep in reports]}, map(_audit_text, reports))
    return EXIT_OK


def _parse_partition(text: str) -> tuple[int, int]:
    parts = [int(p) for p in text.split(",")]
    if len(parts) == 1:
        return (parts[0], 0)
    if len(parts) == 2:
        return (parts[0], parts[1])
    raise ValueError("a class is a or a,b")


def _cmd_schubert(args: SimpleNamespace) -> int:
    # each factor costs about n^2, and up to 2(n - 1) keep the product nonzero
    if args.n > 200:
        print("--n above 200 is rejected", file=sys.stderr)
        return EXIT_USAGE
    try:
        partitions = [_parse_partition(p) for p in args.classes]
        product = schubert.SchubertCycle.identity(args.n)
        for a, b in partitions:  # (0, 0), a partition for every n >= 2, is the identity
            if (a, b) != (0, 0):
                product = schubert.multiply(product, schubert.sigma(args.n, a, b))
    except (ValueError, schubert.SchubertError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    rendered = schubert.format_cycle(product)
    payload = {
        "ambient_n": args.n,
        "factors": [list(p) for p in partitions],
        "product": rendered,
        "terms": [
            {"a": a, "b": b, "coefficient": coeff}
            for (a, b), coeff in product.terms
        ],
        "top_degree": schubert.top_degree(product),
    }
    text = (
        f"product in G(1,{args.n}): {rendered}",
        f"point-class coefficient: {payload['top_degree']}",
    )
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_lines(args: SimpleNamespace) -> int:
    try:
        S = lattices.SurfaceModel.del_pezzo(args.k)
    except lattices.LatticeError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    line_classes = sorted(
        lattices.enumerate_lines(S),
        key=lambda c: (c.coeffs[0], tuple(-x for x in c.coeffs[1:])),
    )
    payload = {
        "k": args.k,
        "count": len(line_classes),
        "basis": list(S.basis_names),
        "lines": [list(c.coeffs) for c in line_classes],
    }
    text_lines = [f"{len(line_classes)} lines on the blowup of the plane at {args.k} points"]
    text_lines.extend(lattices.format_class(S, c) for c in line_classes)
    _emit(args, payload, text_lines)
    return EXIT_OK


def _cmd_verify_all(args: SimpleNamespace) -> int:
    results = verify.run_all(ledger=load_ledger(args.ledger))
    payload = {
        "checks": [
            {"id": r.id, "description": r.description, "ok": r.ok, "detail": r.detail}
            for r in results
        ],
        "passed": sum(r.ok for r in results),
        "failed": sum(not r.ok for r in results),
    }
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.ok else 'FAIL'}  {r.id}: {r.description}")
        if not r.ok:
            lines.append(f"      {r.detail}")
    lines.append(
        f"{len(results)} checks: {payload['passed']} passed, {payload['failed']} failed"
    )
    _emit(args, payload, lines)
    return EXIT_OK if payload["failed"] == 0 else EXIT_VERIFICATION


# -- command table ---------------------------------------------------------------

@named_fields
class _Flag(tuple):
    """One flag of a subcommand.  ``type`` is int, str or bool; a bool flag is
    a switch, which takes no value and stores True."""

    __slots__ = ()

    def __new__(
        cls,
        dest: str,
        type: type,
        required: bool = False,
        default: object = None,
        help: str | None = None,
    ) -> _Flag:
        return _new(cls, (dest, type, required, default, help))


@named_fields
class _Command(tuple):
    """One subcommand: its handler, its help, its flags by spelling, and the
    dest and help of its run of positionals, or None if it takes none."""

    __slots__ = ()

    def __new__(
        cls,
        handler,
        help: str,
        flags: dict[str, _Flag],
        positional: tuple[str, str] | None = None,
    ) -> _Command:
        return _new(cls, (handler, help, flags, positional))


_R = _Flag("r", int, True, help="ambient projective dimension")
_N = _Flag("n", int, True, help="hypersurface degree")
_JSON = _Flag("json", bool, default=False, help="emit a JSON report")
_LEDGER = _Flag("ledger", str, help="override the ledger data file")

_QUERY_FLAGS = {
    "--r": _R,
    "--n": _N,
    "--d": _Flag("d", int, True, help="curve degree"),
    "--g": _Flag("g", int, True, help="curve genus"),
    "--json": _JSON,
    "--ledger": _LEDGER,
}

#: Every subcommand, in the order ``--help`` lists them.  Both the parser of
#: well-formed command lines and the argparse parser are built from this.
_COMMANDS = {
    "classify": _Command(_cmd_classify, "classify one query", _QUERY_FLAGS),
    "trace": _Command(_cmd_classify, "classify and print the derivation trace", _QUERY_FLAGS),
    "table": _Command(
        _cmd_table,
        "verdict grid and frontier for one (r, n)",
        {
            "--r": _R,
            "--n": _N,
            "--d-max": _Flag("d_max", int, default=60, help="largest curve degree"),
            "--g-max": _Flag("g_max", int, default=40, help="largest curve genus"),
            "--json": _JSON,
            "--ledger": _LEDGER,
        },
    ),
    "audit": _Command(
        _cmd_audit,
        "non-generality audits for exceptional cases",
        {
            "--all": _Flag("all", bool, default=False, help="run every audit"),
            "--case": _Flag("case", str, help="one case as r,n,d,g"),
            "--json": _JSON,
        },
    ),
    "schubert": _Command(
        _cmd_schubert,
        "multiply Schubert classes in G(1, n)",
        {"--n": _Flag("n", int, True, help="ambient projective dimension"), "--json": _JSON},
        ("classes", "factors, each 'a' or 'a,b' for sigma_{a,b}"),
    ),
    "lines": _Command(
        _cmd_lines,
        "enumerate lines on a del Pezzo blowup",
        {"--k": _Flag("k", int, True, help="number of blown-up points"), "--json": _JSON},
    ),
    "verify-all": _Command(
        _cmd_verify_all,
        "run every bundled verification check",
        {"--json": _JSON, "--ledger": _LEDGER},
    ),
}


def _parse_well_formed(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse returns for ``argv``, if ``argv`` has the plain
    shape: a subcommand, then flags, each spelled exactly and followed by its
    value unless it is a switch, every required flag among them, and for
    ``schubert`` one unbroken run of positionals.  A value may start with
    ``-`` only as a negative ASCII integer, and a positional not at all.
    Anything else, help and usage errors included, gives None."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    flags = command.flags
    values = {flag.dest: flag.default for flag in flags.values()}
    run: list = []
    run_end = 0  # the index just past the last positional
    i, end = 1, len(argv)
    while i < end:
        arg = argv[i]
        i += 1
        flag = flags.get(arg)
        if flag is None:
            if command.positional is None or arg[:1] == "-" or (run and run_end != i - 1):
                return None
            run.append(arg)
            run_end = i
        elif flag.type is bool:
            values[flag.dest] = True
        elif i == end:
            return None
        else:
            value = argv[i]
            i += 1
            if value[:1] == "-" and not (value[1:].isdigit() and value.isascii()):
                return None
            if flag.type is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            values[flag.dest] = value
    # a value given is never None, and a required flag has no default
    if any(flag.required and values[flag.dest] is None for flag in flags.values()):
        return None
    if command.positional is not None:
        if not run:
            return None
        values[command.positional[0]] = run
    return SimpleNamespace(command=argv[0], **values)


# -- argparse parser -------------------------------------------------------------

def build_parser():
    """A stock argparse parser built from ``_COMMANDS``, which prints help and
    usage errors; ``main`` maps its exit status.  Each call builds a new one,
    so attributes set on one result (a wrapped ``parse_args``, say) do not
    carry over to the next."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="gensect",
        description=(
            "classify when a general curve in P^r meets a general degree-n "
            "hypersurface in a general point configuration"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for spelling, flag in command.flags.items():
            if flag.type is bool:
                p.add_argument(spelling, action="store_true", dest=flag.dest, help=flag.help)
            else:
                p.add_argument(
                    spelling,
                    type=int if flag.type is int else None,
                    required=flag.required,
                    default=flag.default,
                    dest=flag.dest,
                    help=flag.help,
                )
        if command.positional is not None:
            dest, help_text = command.positional
            p.add_argument(dest, nargs="+", help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_well_formed(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 0 after help and 2 on a usage error; the contract
            # reserves 2 for invalid queries
            return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command].handler(args)
    except (OSError, LedgerFormatError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except IncompleteLedgerError as exc:
        print(f"incomplete ledger: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
