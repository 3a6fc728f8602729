import contextlib
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
from importlib import resources
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from gensect import cli, verify
from gensect import ledger as ledger_module
from gensect.cli import main
from gensect.engine import ClassificationEngine, Query, trace_from_payload
from gensect.lattices import SurfaceModel
from gensect.verify import run_all


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_exceptional_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "classify", "--r", "3", "--n", "2", "--d", "8", "--g", "6")
    assert code == 0
    assert "exceptional" in out
    assert "16 points" in out


def test_classify_general_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "classify", "--r", "2", "--n", "1", "--d", "9", "--g", "9")
    assert code == 0
    assert "general" in out


def test_classify_invalid_exit_two(capsys):
    code, out, _ = run_cli(capsys, "classify", "--r", "3", "--n", "2", "--d", "3", "--g", "2")
    assert code == 2
    assert "invalid" in out


def test_unsupported_pair_exit_two(capsys):
    code, out, _ = run_cli(capsys, "classify", "--r", "5", "--n", "1", "--d", "10", "--g", "0")
    assert code == 2


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_table_of_an_unsupported_pair_exit_two(json_flag, capsys):
    code, out, err = run_cli(capsys, "table", "--r", "5", "--n", "1", *json_flag)
    assert (code, out, err) == (2, "", "unsupported pair (r, n) = (5, 1)\n")


def test_malformed_input_exit_one(capsys):
    code, _, err = run_cli(capsys, "classify", "--r", "3", "--n", "2", "--d", "8")
    assert code == 1
    assert "usage" in err
    code, _, err = run_cli(capsys, "classify", "--r", "x", "--n", "2", "--d", "8", "--g", "6")
    assert code == 1


def test_classify_json_trace_revalidates(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--r", "4", "--n", "1", "--d", "19", "--g", "18", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1.0"
    assert payload["result"]["verdict"] == "general"
    trace = trace_from_payload(payload["result"]["trace"])
    assert ClassificationEngine().validate_trace(trace) == []
    assert payload["result"]["citations"]


def test_only_usage_errors_build_the_argparse_parser(tmp_path, capsys, monkeypatch):
    ledger = tmp_path / "ledger.json"
    ledger.write_text(_bundled_ledger_text(), encoding="utf-8")
    well_formed = [
        ("classify", "--r", "3", "--n", "2", "--d", "30", "--g", "20", "--json"),
        ("table", "--r", "3", "--n", "1", "--d-max", "20", "--g-max", "10", "--ledger", str(ledger)),
        ("classify", "--r", "4", "--n", "1", "--d", "19", "--g", "18"),
    ]
    usage_error = ("classify", "--r", "3", "--n", "2", "--d", "8")
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    first_calls = [run_cli(capsys, *argv) for argv in well_formed]
    assert [code for code, _, _ in first_calls] == [0, 0, 0]
    assert built == []
    code, out, err = run_cli(capsys, *usage_error)
    assert (code, out) == (1, "")
    assert "usage" in err
    assert built == [1]
    assert run_cli(capsys, *usage_error) == (code, out, err)
    assert [run_cli(capsys, *argv) for argv in well_formed] == first_calls
    assert built == [1, 1]


def test_an_attribute_set_on_one_parser_is_absent_from_the_next():
    # a caller that wraps parse_args on the parser it got leaves the next
    # call's parser as built
    first = cli.build_parser()
    first.parse_args = lambda *args: pytest.fail("the wrapped parse_args was called")
    second = cli.build_parser()
    assert second is not first
    assert "parse_args" not in vars(second)
    assert second.parse_args(["lines", "--k", "6"]).k == 6


#: Tokens that argparse reads in ways the flag table leaves to it: help,
#: ``--``, abbreviations, ``=`` forms and single-dash spellings.
ODD_TOKENS = (
    "-h", "--help", "--", "--js", "--d", "--g", "--led", "--d-m", "--g-", "--a", "--c",
    "--r=3", "--n=-2", "--json=1", "--ledger=x", "--case=3,2,7,5", "-r", "---r", "-",
)

#: Values: integers in odd spellings, negative numbers, strings and flags.
VALUES = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from((
        "1_000", "-1_0", " 7", "7 ", "- 3", "\u0663", "-\u0663", "\uff13", "-\u00b2", "", "x", "2,1",
        "3,2,7,5", "-1e5", "1.5", "-0", "+4", "0x10", "-00", "4" * 5000,
    )),
    st.sampled_from(ODD_TOKENS),
)

SPELLINGS = sorted({spelling for command in cli._COMMANDS.values() for spelling in command.flags})

TOKENS = st.one_of(
    st.tuples(st.sampled_from(SPELLINGS), VALUES).map(list),
    st.tuples(st.sampled_from(SPELLINGS), VALUES).map(lambda fv: ["=".join(fv)]),
    st.sampled_from(SPELLINGS).map(lambda spelling: [spelling]),
    st.sampled_from(ODD_TOKENS).map(lambda token: [token]),
    VALUES.map(lambda value: [value]),
)


@st.composite
def argvs(draw):
    """Mostly a subcommand with every required flag and an integer value, and
    a few flags of its own with any value; then a few tokens of any kind, all
    in any order."""
    name = draw(st.sampled_from([*cli._COMMANDS] * 3 + ["classif", "-h", "--help", ""]))
    command = cli._COMMANDS.get(name)
    groups = []
    if command is not None and draw(st.integers(0, 3)):
        ints = st.integers(-(10**4), 10**4).map(str)
        own = st.sampled_from(sorted(command.flags))
        groups += [[s, draw(ints)] for s, flag in command.flags.items() if flag.required]
        groups += draw(st.lists(st.tuples(own, st.one_of(ints, VALUES)).map(list), max_size=3))
        if command.positional is not None:
            groups.append(draw(st.lists(st.sampled_from(("1", "2", "2,1", "3,3")), min_size=1)))
    groups += draw(st.lists(TOKENS, max_size=3))
    groups = draw(st.permutations(groups))
    return [name, *(token for group in groups for token in group)]


@settings(max_examples=400, deadline=None, database=None)
@given(argvs())
@example(["verify-all", "--ledger", "-\u00b2"])  # a digit that argparse reads as a flag
@example(["verify-all", "--json", "--ledger"])
@example(["verify-all", "--ledger", "-1_0"])
@example(["lines", "--k", "x"])
@example(["lines", "--k", "-5", "--json", "--json"])
@example(["schubert", "--n", "4"])
@example(["schubert", "--n", "4", "2", "--json", "2"])
@example(["schubert", "2", "2,1", "--n", "4", "--n", "5"])
@example(["table", "--r", "3", "--n", "2", "--d", "5"])
@example(["classify", "--r", "3", "--n", "2", "--d", "8"])
def test_the_flag_table_parses_as_argparse_does(argv):
    args = cli._parse_well_formed(argv)
    if args is None:
        return
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            expected = cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"argparse rejects {argv!r}: {err.getvalue()}")
    # True == 1, so the types are compared too
    assert {k: (type(v), v) for k, v in vars(args).items()} == {
        k: (type(v), v) for k, v in vars(expected).items()
    }


def test_the_workload_command_lines_never_reach_argparse(tmp_path, capsys, monkeypatch):
    def refuse():
        raise AssertionError("argparse parser built")

    truncated = tmp_path / "ledger.json"
    truncated.write_text(_bundled_ledger_text()[:500], encoding="utf-8")
    query = ("--r", "3", "--n", "2", "--d", "10", "--g", "5")
    runs = {
        ("classify", *query, "--json"): 0,
        ("classify", "--r", "5", "--n", "1", "--d", "10", "--g", "0", "--json"): 2,
        ("classify", *query, "--json", "--ledger", str(truncated)): 1,
        ("trace", *query): 0,
        ("table", "--r", "3", "--n", "2", "--d-max", "20", "--g-max", "13", "--json"): 0,
        ("verify-all", "--json"): 0,
        ("audit", "--all", "--json"): 0,
        ("audit", "--case", "3,2,7,5"): 0,
        ("schubert", "--n", "6", "1", "2,1", "3,3", "1,1", "--json"): 0,
        ("schubert", "2", "2", "--n", "4"): 0,
        ("lines", "--k", "6", "--json"): 0,
    }
    monkeypatch.setattr(cli, "build_parser", refuse)
    assert {argv: run_cli(capsys, *argv)[0] for argv in runs} == runs


@pytest.mark.parametrize("columns", [None, "40", "200", "0", "-3", "wide"])
def test_help_width_is_the_one_shutil_reports(columns, capsys, monkeypatch):
    import shutil
    import textwrap

    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    width = shutil.get_terminal_size().columns
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    # argparse fills the description two columns short of the terminal
    description = textwrap.fill(cli.build_parser().description, width - 2)
    assert f"\n\n{description}\n\n" in out
    monkeypatch.setenv("COLUMNS", str(width))
    assert run_cli(capsys, "--help") == (0, out, "")


@settings(max_examples=300, deadline=None, database=None)
@given(argvs())
@example(["-h"])
@example([""])
@example(["classify", "--r", "3", "--n", "2", "--d", "8"])
@example(["schubert", "--n", "4", "--help"])
def test_main_maps_the_argparse_exit_status(argv):
    # an argv argparse rejects reaches no handler, and main keeps exit 2 for
    # invalid queries: help exits 0 and a usage error 1, with the same output
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        status = exc.code
    else:
        return
    main_out, main_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(main_out), contextlib.redirect_stderr(main_err):
        code = main(argv)
    assert code == (0 if status == 0 else 1)
    assert (main_out.getvalue(), main_err.getvalue()) == (out.getvalue(), err.getvalue())


def test_trace_subcommand(capsys):
    code, out, _ = run_cli(capsys, "trace", "--r", "3", "--n", "2", "--d", "10", "--g", "9")
    assert code == 0
    assert "r3n2-pglue-10-9" in out


def test_trace_json_names_its_own_command(capsys):
    query = ("--r", "3", "--n", "2", "--d", "10", "--g", "9", "--json")
    _, classified, _ = run_cli(capsys, "classify", *query)
    assert json.loads(classified)["command"] == "classify"
    # the flag table parses the first line, argparse the second
    for argv in (("trace", *query), ("trace", "--r=3", *query[2:])):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out) == {**json.loads(classified), "command": "trace"}


def test_text_trace_prints_one_line_per_segment(capsys):
    flags = ("--r", "3", "--n", "2", "--d", "30000", "--g", "20")
    code, out, _ = run_cli(capsys, "classify", *flags)
    assert code == 0
    segments = ClassificationEngine().classify(Query(3, 2, 30000, 20)).trace.segments
    lines = out.splitlines()
    assert len(lines) == 3 + len(segments)  # query, verdict and "trace:" first
    assert lines[3] == "  (3,2,30000,20)  add_line x29982"
    assert lines[4] == "    (3,2,18,20)  add_canonical"


def test_table_deterministic_bytes(capsys):
    args = ("table", "--r", "3", "--n", "2", "--g-max", "40", "--json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["result"]["frontier"] == [
        [5, 1], [7, 2], [6, 3], [7, 4], [8, 5], [9, 6], [9, 7],
        [10, 9], [11, 10], [12, 12], [13, 13], [14, 14],
    ]


def test_table_rejects_oversized_bounds(capsys):
    code, _, err = run_cli(capsys, "table", "--r", "3", "--n", "2", "--g-max", "20000")
    assert code == 1


def test_table_rejects_negative_bounds(capsys):
    code, out, err = run_cli(
        capsys, "table", "--r", "3", "--n", "2", "--d-max", "-5", "--g-max", "-3"
    )
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    for flag in ("--d-max", "--g-max"):
        code, _, _ = run_cli(capsys, "table", "--r", "3", "--n", "2", flag, "-1")
        assert code == 1


def test_table_text_grid(capsys):
    code, out, _ = run_cli(capsys, "table", "--r", "4", "--n", "1", "--d-max", "20", "--g-max", "17")
    assert code == 0
    assert "frontier" in out
    assert "(9, 5), (10, 6), (11, 7), (12, 9), (16, 15), (17, 16), (18, 17)" in out


def test_audit_all(capsys):
    code, out, _ = run_cli(capsys, "audit", "--all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["result"]["audits"]) == 10
    kinds = {a["evidence"]["kind"] for a in payload["result"]["audits"]}
    assert kinds == {"condition_count", "dimension_deficit", "external_fact"}


def test_audit_single_case_text(capsys):
    code, out, _ = run_cli(capsys, "audit", "--case", "3,2,6,2")
    assert code == 0
    assert "3 + 2 + 2 + 3 + 3 + 10 = 23 < 24" in out


def test_audit_usage_errors(capsys):
    code, _, err = run_cli(capsys, "audit")
    assert code == 1
    code, _, err = run_cli(capsys, "audit", "--case", "3,2")
    assert code == 1
    code, _, err = run_cli(capsys, "audit", "--case", "3,2,9,9")
    assert code == 2


def test_schubert_subcommand(capsys):
    code, out, _ = run_cli(capsys, "schubert", "--n", "4", "2", "2", "2")
    assert code == 0
    assert "s[3,3]" in out
    assert "coefficient: 1" in out
    code, out, _ = run_cli(capsys, "schubert", "--n", "3", "1", "1", "1", "1", "--json")
    assert code == 0
    assert json.loads(out)["result"]["top_degree"] == 2
    code, _, _ = run_cli(capsys, "schubert", "--n", "4", "9")
    assert code == 1


def test_lines_subcommand(capsys):
    code, out, _ = run_cli(capsys, "lines", "--k", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["count"] == 27
    code, out, _ = run_cli(capsys, "lines", "--k", "2")
    assert code == 0
    assert out.splitlines()[1:] == ["E1", "E2", "L - E1 - E2"]
    code, _, _ = run_cli(capsys, "lines", "--k", "9")
    assert code == 1


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-all")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert "0 failed" in lines[-1]


def _bundled_ledger_text():
    return resources.files("gensect").joinpath("data/ledger.json").read_text("utf-8")


def _doctored_ledger(tmp_path, edit) -> str:
    payload = json.loads(_bundled_ledger_text())
    edit(payload["entries"])
    doctored = tmp_path / "ledger.json"
    doctored.write_text(json.dumps(payload), encoding="utf-8")
    return str(doctored)


def test_verify_all_detects_missing_ledger_entry(tmp_path, capsys):
    def drop(entries):
        entries[:] = [e for e in entries if e["id"] != "r3n2-delpezzo-7-4"]

    code, out, _ = run_cli(capsys, "verify-all", "--ledger", _doctored_ledger(tmp_path, drop))
    assert code == 3
    assert "FAIL  completeness-audit" in out


def test_table_with_an_incomplete_ledger_exits_three(tmp_path, capsys):
    def drop(entries):
        entries[:] = [e for e in entries if e["id"] != "r3n2-delpezzo-7-4"]

    code, out, err = run_cli(
        capsys, "table", "--r", "3", "--n", "2", "--ledger", _doctored_ledger(tmp_path, drop)
    )
    assert code == 3
    assert out == ""
    assert err == "incomplete ledger: no derivation for in-domain case (3, 2, 7, 4)\n"


def test_a_text_report_is_written_line_by_line(monkeypatch):
    # each line and then its newline, before the next line is made, so the
    # report is never held whole; a JSON report reads no line at all
    written, seen = [], []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=written.append))

    def lines():
        for line in ("GG", "", "G."):
            seen.append(len(written))
            yield line

    cli._emit(SimpleNamespace(json=False, command="table"), None, lines())
    assert written == ["GG", "\n", "", "\n", "G.", "\n"]
    assert seen == [0, 2, 4]
    written.clear()
    cli._emit(SimpleNamespace(json=True, command="table"), {"r": 3}, lines())
    assert len(written) == 1 and json.loads(written[0])["result"] == {"r": 3}
    assert seen == [0, 2, 4]


def test_a_text_table_at_the_bound_holds_about_one_copy_of_its_report():
    # 100 MB of rows: the rows themselves fit under 160 MB, a second copy of
    # the report would not.  ru_maxrss is in kilobytes on Linux, and wait4
    # reads this child's own peak, not that of every child the tests ran.
    box = ("--r", "3", "--n", "2", "--d-max", "10000", "--g-max", "10000")
    child = subprocess.Popen(
        [sys.executable, "-B", "-c", "from gensect.cli import console_main; console_main()",
         "table", *box],
        env={"PYTHONPATH": os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")},
        stdout=subprocess.PIPE,
    )
    digest, size = hashlib.sha256(), 0
    while chunk := child.stdout.read(1 << 20):
        digest.update(chunk)
        size += len(chunk)
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    assert child.returncode == 0
    assert (size, digest.hexdigest()[:16]) == (100_089_273, "e4d05b4a998d9cff")
    assert usage.ru_maxrss < 160 * 1024


def test_table_takes_no_auxiliary_wildcard_as_a_leaf(tmp_path, capsys):
    # SkewLines bases serve only below genus 0, so retagged the plane
    # wildcard derives nothing, and the row g = 0 holds the first hole
    def retag(entries):
        (plane,) = [e for e in entries if e["id"] == "r2n1-plane"]
        plane["tag"] = "SkewLines"

    code, out, err = run_cli(
        capsys, "table", "--r", "2", "--n", "1", "--ledger", _doctored_ledger(tmp_path, retag)
    )
    assert (code, out) == (3, "")
    assert err == "incomplete ledger: no derivation for in-domain case (2, 1, 2, 0)\n"


def test_table_reports_a_hole_in_its_first_row_before_sweeping_the_rest(tmp_path):
    # without the plane wildcard, (2, 1, 2, 0) in the row g = 0 is a hole; the
    # rows above it are never built, so a 10^4 x 10^4 box answers at once
    def drop(entries):
        entries[:] = [e for e in entries if e["id"] != "r2n1-plane"]

    # the child caps its own CPU time at 2 s, then runs the command
    capped = (
        "import resource; resource.setrlimit(resource.RLIMIT_CPU, (2, 2)); "
        "from gensect.cli import console_main; console_main()"
    )
    box = ("--r", "2", "--n", "1", "--d-max", "10000", "--g-max", "10000")
    done = subprocess.run(
        [sys.executable, "-B", "-c", capped, "table", *box,
         "--ledger", _doctored_ledger(tmp_path, drop)],
        env={"PYTHONPATH": os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == "incomplete ledger: no derivation for in-domain case (2, 1, 2, 0)\n"


def test_a_ledger_file_serves_only_its_own_call(tmp_path, capsys):
    def drop(entries):
        entries[:] = [e for e in entries if e["id"] != "r3n2-delpezzo-7-4"]

    query = ("classify", "--r", "3", "--n", "2", "--d", "7", "--g", "4")
    code, _, err = run_cli(capsys, *query, "--ledger", _doctored_ledger(tmp_path, drop))
    assert code == 3
    assert err.startswith("incomplete ledger")
    code, out, _ = run_cli(capsys, *query)
    assert code == 0
    assert "base [r3n2-delpezzo-7-4]" in out


@pytest.mark.parametrize("field, value", [("d", 0), ("r", 1)])
def test_verify_all_reports_out_of_domain_entry(field, value, tmp_path, capsys):
    # no general curve has these invariants, so no BNIndex can be built for them
    def edit(entries):
        entry = next(e for e in entries if e["id"] == "r3n2-delpezzo-7-4")
        entry["case"][field] = value

    path = _doctored_ledger(tmp_path, edit)
    code, out, _ = run_cli(capsys, "verify-all", "--ledger", path)
    assert code == 3
    assert "FAIL  ledger-integrity" in out
    assert "internal-error" not in out
    detail = out.split("FAIL  ledger-integrity", 1)[1].splitlines()[1]
    assert detail.startswith("      r3n2-delpezzo-7-4: case")
    code, out, _ = run_cli(capsys, "verify-all", "--ledger", path, "--json")
    checks = {c["id"]: c for c in json.loads(out)["result"]["checks"]}
    assert code == 3
    assert "internal-error" not in checks
    assert "r3n2-delpezzo-7-4: case" in checks["ledger-integrity"]["detail"]


@pytest.mark.parametrize(
    "entry_id, tag",
    [("r3n1-genus2-5-2", "Interpolation"), ("r3n2-interp-3-0", "GenusTwo")],
)
def test_verify_all_checks_the_automatic_tags(entry_id, tag, tmp_path, capsys):
    # retagged, the entry is no longer proved by its tag's numeric gate
    def edit(entries):
        next(e for e in entries if e["id"] == entry_id)["tag"] = tag

    path = _doctored_ledger(tmp_path, edit)
    code, out, _ = run_cli(capsys, "verify-all", "--ledger", path, "--json")
    failed = {c["id"]: c["detail"] for c in json.loads(out)["result"]["checks"] if not c["ok"]}
    assert code == 3
    assert failed == {"ledger-integrity": f"{entry_id}: the {tag} gate does not hold"}


def _move_seed_down(entries):
    next(e for e in entries if e["id"] == "r4n1-skew-lines")["case"]["d"] = 2


def _retag_plane(entries):
    next(e for e in entries if e["id"] == "r2n1-plane")["tag"] = "DelPezzo"


def _drop_glue(entries):
    del next(e for e in entries if e["id"] == "r3n2-hglue-6-3")["glue"]


def _retag_interpolation_as_plane(entries):
    next(e for e in entries if e["id"] == "r3n2-interp-3-0")["tag"] = "PlaneCurve"


def _exempt_an_in_domain_case(entries):
    next(e for e in entries if e["id"] == "r3n2-interp-3-0")["rho_exempt"] = True


def _make_premise_circular(entries):
    # the glue arithmetic still holds, and the premise classifies as general
    # through the entry itself
    entry = next(e for e in entries if e["id"] == "r3n1-line-glue-8-6")
    entry["premises"] = [[3, 1, 8, 6]]
    entry["glue"] = {"d2": 0, "g2": 0, "points": 1, "twist": 1}


def _give_a_wildcard_a_premise(entries):
    # the wildcard answers its own premise, so the premise classifies as
    # general through the entry itself
    next(e for e in entries if e["id"] == "r2n1-plane")["premises"] = [[2, 1, 4, 3]]


INTEGRITY_DETAILS = {
    _drop_glue: "r3n2-hglue-6-3: the HyperplaneGlue side conditions need glue data",
    _retag_interpolation_as_plane: "r3n2-interp-3-0: PlaneCurve tags only the r = 2 wildcards",
    _exempt_an_in_domain_case: (
        "r3n2-interp-3-0: case (3, 2, 3, 0) is exempted but not out of domain"
    ),
    _make_premise_circular: (
        "r3n1-line-glue-8-6: premise (3, 1, 8, 6) is not below the entry in degree"
    ),
    _give_a_wildcard_a_premise: "r2n1-plane: premise (2, 1, 4, 3) on a wildcard entry",
}


@pytest.mark.parametrize(
    "edit, failed",
    [
        (_move_seed_down, {"exceptional-sweep", "completeness-audit"}),
        (_retag_plane, {"frontier-lists"}),
        (_drop_glue, {"ledger-integrity"}),
        (_retag_interpolation_as_plane, {"ledger-integrity"}),
        (_exempt_an_in_domain_case, {"ledger-integrity"}),
        (_make_premise_circular, {"ledger-integrity"}),
        (_give_a_wildcard_a_premise, {"ledger-integrity"}),
    ],
)
def test_verify_all_fails_single_field_mutants(edit, failed, tmp_path, capsys):
    # the seed one degree down leaves genus 8 of (4, 1) underivable; a plane
    # wildcard with a constructive tag puts every plane case on the frontier;
    # a gluing entry without glue has no side conditions to check; the plane
    # tag off the plane wildcards, the exemption on a case in domain, a
    # premise not below its entry in degree and a premise on a wildcard are
    # each a ledger invariant
    code, out, _ = run_cli(
        capsys, "verify-all", "--ledger", _doctored_ledger(tmp_path, edit), "--json"
    )
    details = {c["id"]: c["detail"] for c in json.loads(out)["result"]["checks"] if not c["ok"]}
    assert code == 3
    assert details.keys() == failed
    if edit in INTEGRITY_DETAILS:
        assert details["ledger-integrity"] == INTEGRITY_DETAILS[edit]


def test_table_and_classify_agree_on_a_moved_seed(tmp_path, capsys):
    path = _doctored_ledger(tmp_path, _move_seed_down)
    message = "incomplete ledger: no derivation for in-domain case (4, 1, 11, 8)\n"
    for argv in (
        ("table", "--r", "4", "--n", "1", "--d-max", "14", "--g-max", "9"),
        ("classify", "--r", "4", "--n", "1", "--d", "11", "--g", "8"),
    ):
        assert run_cli(capsys, *argv, "--ledger", path) == (3, "", message)


class _Expired(BaseException):
    """Not an Exception, so verify-all does not report it as a failed check."""


@contextlib.contextmanager
def _time_cap(seconds):
    def expire(signum, frame):
        raise _Expired(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--r", "3", "--n", "2", "--d", "8", "--g", "4"),
        ("table", "--r", "3", "--n", "2"),
        ("verify-all",),
    ],
)
def test_huge_entry_degree_is_not_walked(argv, tmp_path, capsys):
    # with the (7, 4) entry moved to degree 10^12 the ledger derives nothing
    # at genus 4 below it; the leaf search visits entries, not degrees
    def edit(entries):
        next(e for e in entries if e["id"] == "r3n2-delpezzo-7-4")["case"]["d"] = 10**12

    path = _doctored_ledger(tmp_path, edit)
    with _time_cap(5):
        code, _, _ = run_cli(capsys, *argv, "--ledger", path)
    assert code == 3


def test_verify_all_json_shape(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["failed"] == 0
    assert payload["result"]["passed"] == len(payload["result"]["checks"])


def test_verify_all_deterministic_bytes(capsys):
    _, first, _ = run_cli(capsys, "verify-all", "--json")
    _, second, _ = run_cli(capsys, "verify-all", "--json")
    assert first == second


def test_corrupted_gram_matrix_fails_lattice_check(monkeypatch):
    # built behind the constructor's back, as a corrupted data file would be
    bad = tuple.__new__(
        SurfaceModel, ("polarized", ((0, 1), (2, 0)), (0, 0), ("A", "B"), "rational")
    )
    monkeypatch.setattr(verify, "default_surfaces", lambda: [bad])
    results = run_all()
    by_id = {r.id: r for r in results}
    assert not by_id["lattice-invariants"].ok
    assert "asymmetric" in by_id["lattice-invariants"].detail


def test_missing_ledger_file_exit_one(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--r", "3", "--n", "2", "--d", "8", "--g", "6",
        "--ledger", "/nonexistent/ledger.json",
    )
    assert code == 1


LEDGER_FLAGS = {
    "classify": ("--r", "3", "--n", "2", "--d", "10", "--g", "5"),
    "table": ("--r", "3", "--n", "2"),
    "verify-all": (),
}


@pytest.mark.parametrize("command", ["classify", "table", "verify-all"])
def test_directory_as_ledger_exit_one(command, tmp_path, capsys):
    code, out, err = run_cli(capsys, command, *LEDGER_FLAGS[command], "--ledger", str(tmp_path))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["classify", "table", "verify-all"])
def test_deeply_nested_ledger_exit_one(command, tmp_path, capsys):
    path = tmp_path / "ledger.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    code, out, err = run_cli(capsys, command, *LEDGER_FLAGS[command], "--ledger", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"malformed ledger {path}: maximum recursion depth exceeded")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["classify", "verify-all"])
@pytest.mark.parametrize("source", ["sparse", "/dev/zero"])
def test_ledger_over_the_size_limit_exit_one(source, command, tmp_path, capsys):
    if source == "sparse":
        path = tmp_path / "ledger.json"
        with open(path, "wb") as file:
            file.truncate(ledger_module._MAX_LEDGER_BYTES + 1)
    else:
        path = source
    with _time_cap(5):
        code, out, err = run_cli(capsys, command, *LEDGER_FLAGS[command], "--ledger", str(path))
    assert (code, out) == (1, "")
    assert err == f"malformed ledger {path}: longer than {ledger_module._MAX_LEDGER_BYTES} bytes\n"


@pytest.mark.parametrize("command", ["classify", "trace"])
@pytest.mark.parametrize(
    "d, g", [(10, 1_000_000_000), (1_000_001, 0), (2_000_000_000, 1_000_000_000)]
)
def test_query_above_the_bound_exit_one(command, d, g, capsys):
    with _time_cap(5):
        code, out, err = run_cli(
            capsys, command, "--r", "3", "--n", "2", "--d", str(d), "--g", str(g), "--json"
        )
    assert code == 1
    assert out == ""
    assert err == "--d and --g above 10^6 are rejected\n"


@pytest.mark.parametrize(
    "n, classes", [("201", ("1",)), ("100000", ("50000,25000", "50000,25000"))]
)
def test_schubert_above_the_bound_exit_one(n, classes, capsys):
    with _time_cap(5):
        code, out, err = run_cli(capsys, "schubert", "--n", n, *classes)
    assert code == 1
    assert out == ""
    assert err == "--n above 200 is rejected\n"


def test_schubert_at_the_bound_is_answered(capsys):
    # sigma_1^(2(n - 1)) is the degree of G(1, n), the Catalan number C(n - 1)
    with _time_cap(5):
        code, out, _ = run_cli(capsys, "schubert", "--n", "200", *["1"] * 398, "--json")
    assert code == 0
    assert json.loads(out)["result"]["top_degree"] == math.comb(398, 199) // 200


def test_schubert_identity_factors_are_listed_but_not_multiplied(capsys):
    # each 0 is sigma_{0,0}, the identity: validated and listed among the
    # factors, it leaves the product as it is without two Pieri passes
    ones = ["1"] * 150
    with _time_cap(5):
        code, text, _ = run_cli(capsys, "schubert", "--n", "200", *ones, *["0"] * 100_000)
        assert code == 0
        code, out, _ = run_cli(capsys, "schubert", "--n", "200", *ones, "0,0", "0", "--json")
    assert code == 0
    assert text == run_cli(capsys, "schubert", "--n", "200", *ones)[1]
    want = json.loads(run_cli(capsys, "schubert", "--n", "200", *ones, "--json")[1])
    got = json.loads(out)
    assert got["result"]["factors"] == [[1, 0]] * 150 + [[0, 0]] * 2
    got["result"]["factors"] = want["result"]["factors"]
    assert got == want
    code, _, err = run_cli(capsys, "schubert", "--n", "200", "0", "0,1")
    assert (code, err) == (1, "(0, 1) is not a two-row partition for G(1, 200)\n")


def test_query_at_the_bound_is_answered(capsys):
    code, out, _ = run_cli(capsys, "classify", "--r", "3", "--n", "2", "--d", "1000000", "--g", "0")
    assert code == 0
    assert "add_line x999997" in out


def _duplicate_ids():
    payload = json.loads(_bundled_ledger_text())
    payload["entries"].append(payload["entries"][0])
    return json.dumps(payload)


def _entry_without_case():
    payload = json.loads(_bundled_ledger_text())
    del payload["entries"][3]["case"]
    return json.dumps(payload)


def _degree_set_to(value):
    payload = json.loads(_bundled_ledger_text())
    payload["entries"][3]["case"]["d"] = value
    return json.dumps(payload)


def _quote_set_to_null():
    payload = json.loads(_bundled_ledger_text())
    payload["entries"][3]["quote"] = None
    return json.dumps(payload)


def _three_number_premise():
    payload = json.loads(_bundled_ledger_text())
    assert payload["entries"][6]["id"] == "r3n2-hglue-7-2"
    payload["entries"][6]["premises"] = [[3, 2, 9]]
    return json.dumps(payload)


def _field_set_to(entry_id, name, value):
    payload = json.loads(_bundled_ledger_text())
    (entry,) = [entry for entry in payload["entries"] if entry["id"] == entry_id]
    entry[name] = value
    return json.dumps(payload)


def _glue_changed(change):
    payload = json.loads(_bundled_ledger_text())
    assert payload["entries"][6]["id"] == "r3n2-hglue-7-2"
    change(payload["entries"][6]["glue"])
    return json.dumps(payload)


MALFORMED_LEDGERS = {
    "truncated": lambda: _bundled_ledger_text()[:500],
    "no-entries": lambda: json.dumps({"schema_version": "1.0", "records": []}),
    "entry-without-case": _entry_without_case,
    "duplicate-ids": _duplicate_ids,
    "float-degree": lambda: _degree_set_to(7.5),
    "bool-degree": lambda: _degree_set_to(True),
    "string-degree": lambda: _degree_set_to("7"),
    "null-quote": _quote_set_to_null,
    "three-number-premise": _three_number_premise,
    "string-glue-points": lambda: _glue_changed(lambda glue: glue.update(points="3")),
    "glue-without-twist": lambda: _glue_changed(lambda glue: glue.pop("twist")),
    "string-rho-exempt": lambda: _field_set_to("r4n1-skew-lines", "rho_exempt", "false"),
    "number-rho-exempt": lambda: _field_set_to("r4n1-skew-lines", "rho_exempt", 1),
    "string-premises-stated-only": lambda: _field_set_to(
        "r4n1-hglue-12-9", "premises_stated_only", "no"
    ),
    "null-premises-stated-only": lambda: _field_set_to(
        "r4n1-hglue-12-9", "premises_stated_only", None
    ),
    "list-note": lambda: _field_set_to("r4n1-skew-lines", "note", ["three skew lines"]),
    "null-degree-with-genus": lambda: _degree_set_to(None),
}


@pytest.mark.parametrize("command", ["classify", "table", "verify-all"])
@pytest.mark.parametrize("defect", sorted(MALFORMED_LEDGERS))
def test_malformed_ledger_exit_one(defect, command, tmp_path, capsys):
    path = tmp_path / "ledger.json"
    path.write_text(MALFORMED_LEDGERS[defect](), encoding="utf-8")
    code, out, err = run_cli(capsys, command, *LEDGER_FLAGS[command], "--ledger", str(path))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "malformed ledger" in err
    if defect.endswith("-degree"):
        assert "entry r3n2-scroll-5-1: case r, n, d, g must be integers" in err
    if defect == "null-quote":
        assert "entry r3n2-scroll-5-1: quote must be a string, got None" in err
    if defect == "three-number-premise":
        assert "entry r3n2-hglue-7-2: premise [3, 2, 9] must be four integers" in err
    if "glue" in defect:
        assert "entry r3n2-hglue-7-2: glue must be an object of integers d2, g2, points" in err
    if defect.endswith("-rho-exempt"):
        assert "entry r4n1-skew-lines: rho_exempt must be true or false, got " in err
    if defect.endswith("-premises-stated-only"):
        assert "entry r4n1-hglue-12-9: premises_stated_only must be true or false, got " in err
    if defect == "list-note":
        assert "entry r4n1-skew-lines: note must be a string or null, got ['three" in err
    if defect == "null-degree-with-genus":
        assert "entry r3n2-scroll-5-1: d and g must both be set or both null" in err
