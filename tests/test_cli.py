import json
from importlib import resources

import pytest

from gensect.cli import main
from gensect.engine import ClassificationEngine, trace_from_payload
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


def test_trace_subcommand(capsys):
    code, out, _ = run_cli(capsys, "trace", "--r", "3", "--n", "2", "--d", "10", "--g", "9")
    assert code == 0
    assert "r3n2-pglue-10-9" in out


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
    code, out, _ = run_cli(capsys, "verify-all", "--ledger", path, "--json")
    checks = {c["id"]: c for c in json.loads(out)["result"]["checks"]}
    assert code == 3
    assert "internal-error" not in checks
    assert "r3n2-delpezzo-7-4: case" in checks["ledger-integrity"]["detail"]


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


def test_corrupted_gram_matrix_fails_lattice_check():
    # built behind the constructor's back, as a corrupted data file would be
    bad = object.__new__(SurfaceModel)
    object.__setattr__(bad, "kind", "polarized")
    object.__setattr__(bad, "gram", ((0, 1), (2, 0)))
    object.__setattr__(bad, "canonical", (0, 0))
    object.__setattr__(bad, "basis_names", ("A", "B"))
    object.__setattr__(bad, "kind_tag", "rational")
    results = run_all(surfaces=[bad])
    by_id = {r.id: r for r in results}
    assert not by_id["lattice-invariants"].ok
    assert "asymmetric" in by_id["lattice-invariants"].detail


def test_missing_ledger_file_exit_one(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--r", "3", "--n", "2", "--d", "8", "--g", "6",
        "--ledger", "/nonexistent/ledger.json",
    )
    assert code == 1


def _duplicate_ids():
    payload = json.loads(_bundled_ledger_text())
    payload["entries"].append(payload["entries"][0])
    return json.dumps(payload)


def _entry_without_case():
    payload = json.loads(_bundled_ledger_text())
    del payload["entries"][3]["case"]
    return json.dumps(payload)


MALFORMED_LEDGERS = {
    "truncated": lambda: _bundled_ledger_text()[:500],
    "no-entries": lambda: json.dumps({"schema_version": "1.0", "records": []}),
    "entry-without-case": _entry_without_case,
    "duplicate-ids": _duplicate_ids,
}


@pytest.mark.parametrize("command", ["classify", "table", "verify-all"])
@pytest.mark.parametrize("defect", sorted(MALFORMED_LEDGERS))
def test_malformed_ledger_exit_one(defect, command, tmp_path, capsys):
    path = tmp_path / "ledger.json"
    path.write_text(MALFORMED_LEDGERS[defect](), encoding="utf-8")
    flags = {
        "classify": ("--r", "3", "--n", "2", "--d", "10", "--g", "5"),
        "table": ("--r", "3", "--n", "2"),
        "verify-all": (),
    }[command]
    code, out, err = run_cli(capsys, command, *flags, "--ledger", str(path))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "malformed ledger" in err
