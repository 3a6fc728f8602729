"""Command line front end.

Subcommands: classify, table, trace, audit, schubert, lines, verify-all.
Reports go to standard output (human-readable text by default, JSON with
--json); diagnostics go to the error stream.  Exit codes are a fixed
contract: 0 success, 1 malformed input, 2 invalid query, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import copy
import functools
import os
import sys
from collections.abc import Callable, Sequence

from . import audits, lattices, schubert, verify
from .engine import (
    SUPPORTED_PAIRS,
    ClassificationEngine,
    IncompleteLedgerError,
    Query,
    Verdict,
)
from .ledger import LedgerFormatError, load_ledger
from .report import envelope, to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_VERIFICATION = 3


def _terminal_columns() -> int:
    """The columns ``shutil.get_terminal_size()`` reports, found the same way
    without importing shutil (and with it bz2, lzma, zlib and fnmatch)."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return columns or 80


class _Formatter(argparse.HelpFormatter):
    # argparse's own default width, which it gets from shutil
    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None) -> None:
        if width is None:
            width = _terminal_columns() - 2
        super().__init__(prog, indent_increment, max_help_position, width)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs) -> None:
        super().__init__(formatter_class=_Formatter, **kwargs)

    # argparse exits with status 2 on bad flags; the contract reserves 2 for
    # invalid queries, so usage errors are remapped to 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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


def _verdict_text(engine: ClassificationEngine, q: Query, verdict: Verdict) -> str:
    lines = [f"query: r={q.r} n={q.n} d={q.d} g={q.g}", f"verdict: {verdict.status}"]
    if verdict.status == "invalid":
        lines.append(f"reason: {verdict.reason}")
    elif verdict.status == "exceptional":
        lines.append(f"intersection: {verdict.descriptor.description}")
        lines.append(f"audit: {verdict.descriptor.case}")
    else:
        # one line per segment, indented by its depth; a run says how long it is
        lines.append("trace:")
        for depth, seg in enumerate(verdict.trace.segments):
            indent = "  " * (depth + 1)
            r, n, d, g = seg.case
            if seg.rule == "ledger":
                entry = engine.ledger.get(seg.entry_id)
                lines.append(f"{indent}({r},{n},{d},{g})  base [{entry.id}] {entry.citation}")
            else:
                run = f" x{seg.repeat}" if seg.repeat > 1 else ""
                lines.append(f"{indent}({r},{n},{d},{g})  {seg.rule}{run}")
    return "\n".join(lines)


def _emit(
    args: argparse.Namespace, command: str, payload: Callable[[], dict], text: Callable[[], str]
) -> None:
    """Build and write only the requested format: JSON with --json, else text."""
    if getattr(args, "json", False):
        sys.stdout.write(to_json(envelope(command, payload())))
    else:
        out = text()
        sys.stdout.write(out if out.endswith("\n") else out + "\n")


# -- subcommand handlers -------------------------------------------------------


def _cmd_classify(args: argparse.Namespace) -> int:
    # a JSON trace grows with d and the threshold walk with g
    if args.d > 1_000_000 or args.g > 1_000_000:
        print("--d and --g above 10^6 are rejected", file=sys.stderr)
        return EXIT_USAGE
    engine = ClassificationEngine(load_ledger(args.ledger))
    q = Query(args.r, args.n, args.d, args.g)
    verdict = engine.classify(q)
    _emit(
        args,
        "classify",
        lambda: _verdict_payload(engine, q, verdict),
        lambda: _verdict_text(engine, q, verdict),
    )
    return EXIT_INVALID if verdict.status == "invalid" else EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    if not (0 <= args.d_max <= 10_000 and 0 <= args.g_max <= 10_000):
        print("--d-max and --g-max must lie in 0..10^4", file=sys.stderr)
        return EXIT_USAGE
    engine = ClassificationEngine(load_ledger(args.ledger))
    if (args.r, args.n) not in SUPPORTED_PAIRS:
        print(f"unsupported pair (r, n) = ({args.r}, {args.n})", file=sys.stderr)
        return EXIT_INVALID
    rows = engine.grid(args.r, args.n, args.d_max, args.g_max)
    frontier = engine.frontier(args.r, args.n, args.g_max)
    payload = {
        "r": args.r,
        "n": args.n,
        "d_max": args.d_max,
        "g_max": args.g_max,
        "legend": {"G": "general", "E": "exceptional", ".": "invalid"},
        "grid": [{"g": g, "row": row} for g, row in enumerate(rows)],
        "frontier": [list(pair) for pair in frontier],
    }

    def text() -> str:
        lines = [
            f"verdicts for r={args.r} n={args.n}, d = 1..{args.d_max} per row, g = 0..{args.g_max}",
            "legend: G general, E exceptional, . invalid",
        ]
        lines.extend(f"g={g:>3} {row}" for g, row in enumerate(rows))
        lines.append("frontier (minimal construction seeds, ordered by genus):")
        lines.append(
            "  " + ", ".join(f"({d}, {g})" for d, g in frontier) if frontier else "  (none)"
        )
        return "\n".join(lines)

    _emit(args, "table", lambda: payload, text)
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


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.all:
        cases = list(audits.AUDIT_CASES)
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
    payload = {"audits": [_audit_payload(rep) for rep in reports]}
    text = "\n".join(_audit_text(rep) for rep in reports)
    _emit(args, "audit", lambda: payload, lambda: text)
    return EXIT_OK


def _parse_partition(text: str) -> tuple[int, int]:
    parts = [int(p) for p in text.split(",")]
    if len(parts) == 1:
        return (parts[0], 0)
    if len(parts) == 2:
        return (parts[0], parts[1])
    raise ValueError("a class is a or a,b")


def _cmd_schubert(args: argparse.Namespace) -> int:
    # each factor costs about n^2, and up to 2(n - 1) keep the product nonzero
    if args.n > 200:
        print("--n above 200 is rejected", file=sys.stderr)
        return EXIT_USAGE
    try:
        partitions = [_parse_partition(p) for p in args.classes]
        product = schubert.SchubertCycle.identity(args.n)
        for a, b in partitions:
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
        f"product in G(1,{args.n}): {rendered}\n"
        f"point-class coefficient: {schubert.top_degree(product)}"
    )
    _emit(args, "schubert", lambda: payload, lambda: text)
    return EXIT_OK


def _cmd_lines(args: argparse.Namespace) -> int:
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
    _emit(args, "lines", lambda: payload, lambda: "\n".join(text_lines))
    return EXIT_OK


def _cmd_verify_all(args: argparse.Namespace) -> int:
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
    _emit(args, "verify-all", lambda: payload, lambda: "\n".join(lines))
    return EXIT_OK if payload["failed"] == 0 else EXIT_VERIFICATION


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The command line parser.  It is built once, on the first call; each
    call returns a shallow copy, so attributes set on one copy (a wrapped
    ``parse_args``, say) do not carry over to the next call."""
    return copy.copy(_parser())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gensect",
        description=(
            "classify when a general curve in P^r meets a general degree-n "
            "hypersurface in a general point configuration"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_query_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--r", type=int, required=True, help="ambient projective dimension")
        p.add_argument("--n", type=int, required=True, help="hypersurface degree")
        p.add_argument("--d", type=int, required=True, help="curve degree")
        p.add_argument("--g", type=int, required=True, help="curve genus")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--ledger", help="override the ledger data file")

    p_classify = sub.add_parser("classify", help="classify one query")
    add_query_flags(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_trace = sub.add_parser("trace", help="classify and print the derivation trace")
    add_query_flags(p_trace)
    p_trace.set_defaults(func=_cmd_classify)

    p_table = sub.add_parser("table", help="verdict grid and frontier for one (r, n)")
    p_table.add_argument("--r", type=int, required=True)
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--d-max", type=int, default=60, dest="d_max")
    p_table.add_argument("--g-max", type=int, default=40, dest="g_max")
    p_table.add_argument("--json", action="store_true")
    p_table.add_argument("--ledger")
    p_table.set_defaults(func=_cmd_table)

    p_audit = sub.add_parser("audit", help="non-generality audits for exceptional cases")
    p_audit.add_argument("--all", action="store_true", help="run every audit")
    p_audit.add_argument("--case", help="one case as r,n,d,g")
    p_audit.add_argument("--json", action="store_true")
    p_audit.set_defaults(func=_cmd_audit)

    p_schubert = sub.add_parser("schubert", help="multiply Schubert classes in G(1, n)")
    p_schubert.add_argument("--n", type=int, required=True, help="ambient projective dimension")
    p_schubert.add_argument(
        "classes", nargs="+", help="factors, each 'a' or 'a,b' for sigma_{a,b}"
    )
    p_schubert.add_argument("--json", action="store_true")
    p_schubert.set_defaults(func=_cmd_schubert)

    p_lines = sub.add_parser("lines", help="enumerate lines on a del Pezzo blowup")
    p_lines.add_argument("--k", type=int, required=True, help="number of blown-up points")
    p_lines.add_argument("--json", action="store_true")
    p_lines.set_defaults(func=_cmd_lines)

    p_verify = sub.add_parser("verify-all", help="run every bundled verification check")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--ledger", help="override the ledger data file")
    p_verify.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
