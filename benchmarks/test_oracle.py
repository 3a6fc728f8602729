"""Checks on the benchmark's oracle: it accepts gensect's real outputs and
rejects each kind of wrong one.

    python3 benchmarks/test_oracle.py
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
from gensect import cli  # noqa: E402

LEDGER_FILE = HERE.parent / "src" / "gensect" / "data" / "ledger.json"
LEDGER = oracle.LedgerData(LEDGER_FILE)


def call(*argv: str) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def classify(r, n, d, g) -> tuple:
    return call("classify", "--r", str(r), "--n", str(n), "--d", str(d), "--g", str(g), "--json")


def render(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


class AcceptsRealOutputs(unittest.TestCase):
    def test_classify_every_verdict(self):
        queries = [(3, 1, 40, 20), (4, 1, 19, 18), (4, 1, 11, 0), (3, 2, 8, 6), (3, 2, 3, 2), (5, 1, 10, 0)]
        for query in queries:
            code, stdout, _ = classify(*query)
            self.assertEqual(oracle.check_classify(query, code, stdout, LEDGER), [], query)

    def test_skew_lines_base(self):
        # (4, 1, 11, 8) reaches the three-skew-lines base by add_canonical.
        code, stdout, _ = classify(4, 1, 11, 8)
        steps = json.loads(stdout)["result"]["trace"]
        self.assertEqual(steps[-1]["case"], list(oracle.SKEW_LINES_BASE))
        self.assertEqual(oracle.check_classify((4, 1, 11, 8), code, stdout, LEDGER), [])

    def test_table_and_frontier(self):
        for r, n in sorted(oracle.SUPPORTED_PAIRS):
            for g_max in (5, 60):
                box = (r, n, 30, g_max)
                code, stdout, _ = call(
                    "table", "--r", str(r), "--n", str(n), "--d-max", "30",
                    "--g-max", str(g_max), "--json",
                )
                self.assertEqual(oracle.check_table(box, code, stdout), [], box)

    def test_verify_all(self):
        code, stdout, _ = call("verify-all", "--json")
        self.assertEqual(oracle.check_verify_all(code, stdout), [])


class RejectsWrongOutputs(unittest.TestCase):
    def test_wrong_verdict(self):
        code, stdout, _ = classify(3, 2, 20, 10)
        payload = json.loads(stdout)
        payload["result"]["verdict"] = "exceptional"
        problems = oracle.check_classify((3, 2, 20, 10), code, render(payload), LEDGER)
        self.assertTrue(any("verdict" in p for p in problems), problems)

    def test_step_with_wrong_invariants(self):
        code, stdout, _ = classify(3, 2, 20, 10)
        payload = json.loads(stdout)
        step = payload["result"]["trace"][1]
        self.assertEqual(step["rule"], "add_line")
        step["case"][3] += 1  # add_line must keep the genus
        problems = oracle.check_classify((3, 2, 20, 10), code, render(payload), LEDGER)
        self.assertTrue(any("wrong invariants" in p for p in problems), problems)

    def test_wrong_leaf_entry(self):
        code, stdout, _ = classify(3, 2, 20, 10)
        payload = json.loads(stdout)
        payload["result"]["trace"][-1]["entry"] = "r4n1-skew-lines"
        problems = oracle.check_classify((3, 2, 20, 10), code, render(payload), LEDGER)
        self.assertTrue(any("does not cover" in p for p in problems), problems)

    def test_wrong_grid_cell(self):
        box = (3, 2, 30, 20)
        code, stdout, _ = call("table", "--r", "3", "--n", "2", "--d-max", "30", "--g-max", "20", "--json")
        payload = json.loads(stdout)
        row = payload["result"]["grid"][6]["row"]
        payload["result"]["grid"][6]["row"] = row[:7] + "G" + row[8:]  # (8, 6) is exceptional
        problems = oracle.check_table(box, code, render(payload))
        self.assertEqual(problems, ["cell (d=8, g=6) differs from the oracle"])

    def test_wrong_frontier(self):
        box = (4, 1, 30, 20)
        code, stdout, _ = call("table", "--r", "4", "--n", "1", "--d-max", "30", "--g-max", "20", "--json")
        payload = json.loads(stdout)
        payload["result"]["frontier"].pop()
        self.assertTrue(oracle.check_table(box, code, render(payload)))

    def test_non_canonical_output(self):
        code, stdout, _ = classify(2, 1, 5, 3)
        problems = oracle.check_classify((2, 1, 5, 3), code, stdout.replace("\n  ", "\n "), LEDGER)
        self.assertIn("stdout is not in canonical JSON form", problems)

    def test_verify_all_fails_without_a_load_bearing_entry(self):
        ledger = json.loads(LEDGER_FILE.read_text("utf-8"))
        ledger["entries"] = [e for e in ledger["entries"] if e["id"] != "r3n2-interp-3-0"]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ledger.json"
            path.write_text(json.dumps(ledger), "utf-8")
            code, stdout, _ = call("verify-all", "--json", "--ledger", str(path))
        self.assertEqual(code, 3)
        self.assertTrue(oracle.check_verify_all(code, stdout))

    def test_malformed_ledger_contract(self):
        self.assertEqual(oracle.check_malformed_ledger(1, "", "bad ledger: truncated\n"), [])
        self.assertTrue(oracle.check_malformed_ledger(1, "", "Traceback\n  File\n"))
        self.assertTrue(oracle.check_malformed_ledger(0, "{}", "x\n"))


if __name__ == "__main__":
    unittest.main()
