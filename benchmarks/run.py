"""End-to-end benchmark for gensect: one workload, one seed, one JSON result.

    python3 benchmarks/run.py --workload query-mix --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  Workloads (see README.md for their make-up and the reason for each):

* ``query-mix``      ``classify --json`` calls through ``gensect.cli.main``,
                     each followed by a replay of the emitted trace;
* ``table-grid``     ``table --json`` calls through ``gensect.cli.main``;
* ``verify-battery`` ``verify-all --json`` in a fresh interpreter per call.

Every run repeats whole rounds of the workload's operations until
``--seconds`` have passed; between rounds it times ``SETUP_CHILDREN`` fresh
interpreters in all, from ``import gensect`` to an engine with the bundled
ledger (``setup_s``).  Times are CPU times of the serving process, and
operation times are scaled to a reference host speed (README.md, "Host
speed").  Each distinct operation is checked against ``oracle.py`` the first
time and must give byte-identical output every later time.  With
``--trace 1`` odd rounds run with the layers wrapped (``layers.py``) and the
result holds the per-layer metrics, the tracing overhead against the even,
untraced rounds, and a trace file under ``.bench_cache/``.

The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from layers import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_cache"
LEDGER_FILE = ROOT / "src" / "gensect" / "data" / "ledger.json"

#: Children run isolated from the caller's environment (-S -s, no PYTHON*
#: variables), with a fixed hash seed and bytecode cached inside the checkout.
CHILD_CMD = [
    sys.executable, "-S", "-s", "-X", "utf8",
    "-X", f"pycache_prefix={CACHE / 'pycache'}", str(HERE / "child.py"),
]
CHILD_ENV = {"PYTHONHASHSEED": "0"}
CHILD_TIMEOUT_S = 120
SETUP_CHILDREN = 40

#: The host's CPU speed drifts by up to a third within minutes (README.md,
#: "Host speed").  A calibration task runs every CALIBRATION_INTERVAL_S
#: between operations, and operation times are reported at the speed at
#: which its median CPU time is REFERENCE_CALIBRATION_MS.
CALIBRATION_INTERVAL_S = 0.25
REFERENCE_CALIBRATION_MS = 12.0

E2E_UNITS = {"setup_s": "s", "op_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def run_child(*args: str) -> dict:
    proc = subprocess.run(
        [*CHILD_CMD, *args], capture_output=True, text=True, env=CHILD_ENV,
        timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(proc.stdout.splitlines()[-1])


# -- operations ------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    kind: str  # "classify", "malformed", "table" or "verify"
    argv: tuple
    case: tuple = ()  # the query (r, n, d, g) or the table box (r, n, d_max, g_max)


@dataclass
class Outcome:
    ms: float
    code: int
    stdout: str
    stderr: str
    problems: list = field(default_factory=list)  # found while replaying a trace
    layers: dict = None  # per-layer aggregates from a traced child


def classify_op(r: int, n: int, d: int, g: int) -> Op:
    argv = ("classify", "--r", str(r), "--n", str(n), "--d", str(d), "--g", str(g), "--json")
    return Op("classify", argv, (r, n, d, g))


def table_op(r: int, n: int, d_max: int, g_max: int) -> Op:
    argv = (
        "table", "--r", str(r), "--n", str(n),
        "--d-max", str(d_max), "--g-max", str(g_max), "--json",
    )
    return Op("table", argv, (r, n, d_max, g_max))


def stratified(rng: random.Random, items: list, k: int) -> list:
    """One item from each of k equal slices of the sorted items."""
    items = sorted(items)
    return [rng.choice(items[i * len(items) // k:(i + 1) * len(items) // k]) for i in range(k)]


def geometric(lo: float, hi: float, k: int, i: int) -> float:
    return lo * (hi / lo) ** (i / (k - 1))


PAIRS = sorted(oracle.SUPPORTED_PAIRS)
DEEP_PAIRS = ((3, 2), (3, 1), (4, 1))
UNSUPPORTED_PAIRS = ((1, 1), (2, 3), (3, 3), (4, 2), (5, 1), (5, 2), (6, 1), (3, 0))
BOX_D, BOX_G = 60, 40  # the paper's box
#: Deep chains: DEEP_PLATEAU queries of one degree, so that op_p90_ms falls
#: inside a group of near-equal operations, and DEEP_SPREAD queries of
#: geometric degrees up to DEEP_D_MAX, which sets peak_rss_mb.  The pairs
#: (3, 2), (3, 1) and (4, 1) take turns.
DEEP_PLATEAU, DEEP_SPREAD, DEEP_D_PLATEAU, DEEP_D_MIN, DEEP_D_MAX = 12, 12, 2_500, 3_500, 10_000
MALFORMED_LEDGERS = ("ledger_truncated.json", "ledger_no_entries.json")


def query_mix_ops(rng: random.Random) -> list:
    """200 classify calls: the make-up is fixed, the seed draws the cases."""
    ops = [
        Op("malformed", classify_op(3, 2, 10, 5).argv + ("--ledger", str(HERE / "data" / name)))
        for name in MALFORMED_LEDGERS
    ]
    for (r, n), pairs in sorted(oracle.EXCEPTIONAL.items()):
        ops += [classify_op(r, n, d, g) for d, g in sorted(pairs)]
    ops += [
        classify_op(r, n, rng.randint(1, BOX_D), rng.randint(0, BOX_G))
        for r, n in UNSUPPORTED_PAIRS
    ]
    for i, (r, n) in enumerate(PAIRS):
        box = [(d, g) for d in range(1, BOX_D + 1) for g in range(BOX_G + 1)]
        negative = [c for c in box if oracle.rho(r, *c) < 0]
        general = [c for c in box if oracle.expected_verdict(r, n, *c) == "general"]
        ops += [classify_op(r, n, d, g) for d, g in stratified(rng, negative, 4)]
        ops += [classify_op(r, n, d, g) for d, g in stratified(rng, general, 28 if i == 0 else 27)]
    degrees = [DEEP_D_PLATEAU] * DEEP_PLATEAU + [
        geometric(DEEP_D_MIN, DEEP_D_MAX, DEEP_SPREAD, i) for i in range(DEEP_SPREAD)
    ]
    for i, d in enumerate(degrees):
        r, n = DEEP_PAIRS[i % len(DEEP_PAIRS)]
        ops.append(classify_op(r, n, round(d * rng.uniform(0.99, 1.01)), rng.randint(0, BOX_G)))
    rng.shuffle(ops)
    return ops


#: TABLE_SPREAD boxes of distinct sizes, geometric from TABLE_D_MIN to
#: TABLE_D_MID and dealt to the pairs in turn, so that the cost of a table is
#: spread evenly and op_ms falls among tables of near-equal cost; plus
#: TABLE_LARGE boxes of TABLE_D_MAX per pair, so that op_p90_ms falls inside
#: that group.
TABLE_SPREAD, TABLE_LARGE, TABLE_D_MIN, TABLE_D_MID, TABLE_D_MAX = 80, 4, 8, 100, 160


def table_grid_ops(rng: random.Random) -> list:
    """100 tables; the seed deals the sizes to the pairs and jitters them."""
    offset = rng.randrange(len(PAIRS))
    boxes = [
        (PAIRS[(i + offset) % len(PAIRS)], geometric(TABLE_D_MIN, TABLE_D_MID, TABLE_SPREAD, i))
        for i in range(TABLE_SPREAD)
    ]
    boxes += [(pair, TABLE_D_MAX) for pair in PAIRS for _ in range(TABLE_LARGE)]
    ops = []
    for (r, n), size in boxes:
        d_max = round(size * rng.uniform(0.98, 1.02))
        g_max = round(d_max * 2 / 3 * rng.uniform(0.98, 1.02))
        ops.append(table_op(r, n, d_max, g_max))
    rng.shuffle(ops)
    return ops


# -- workloads ---------------------------------------------------------------------


class CliWorkload:
    """Operations served by ``gensect.cli.main`` inside this process."""

    in_process = True

    def __init__(self, ops: list) -> None:
        from gensect import cli

        self.ops = ops
        self.cli = cli

    def call(self, argv) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class QueryMix(CliWorkload):
    def __init__(self, seed: int) -> None:
        super().__init__(query_mix_ops(random.Random(seed)))
        from gensect.engine import ClassificationEngine, trace_from_payload

        self.replay_engine = ClassificationEngine()
        self.trace_from_payload = trace_from_payload
        self.ledger = oracle.LedgerData(LEDGER_FILE)

    def run(self, op: Op, traced: bool) -> Outcome:
        start = time.process_time()
        code, stdout, stderr = self.call(op.argv)
        problems = []
        if op.kind == "classify":
            steps = json.loads(stdout)["result"].get("trace")
            if steps is not None:
                trace = self.trace_from_payload(steps)
                problems = self.replay_engine.validate_trace(trace)
        ms = (time.process_time() - start) * 1e3
        return Outcome(ms, code, stdout, stderr, [f"replay: {p}" for p in problems])

    def check(self, op: Op, out: Outcome) -> list:
        if op.kind == "malformed":
            return oracle.check_malformed_ledger(out.code, out.stdout, out.stderr)
        return oracle.check_classify(op.case, out.code, out.stdout, self.ledger)


class TableGrid(CliWorkload):
    def __init__(self, seed: int) -> None:
        super().__init__(table_grid_ops(random.Random(seed)))

    def run(self, op: Op, traced: bool) -> Outcome:
        start = time.process_time()
        code, stdout, stderr = self.call(op.argv)
        return Outcome((time.process_time() - start) * 1e3, code, stdout, stderr)

    def check(self, op: Op, out: Outcome) -> list:
        return oracle.check_table(op.case, out.code, out.stdout)


class VerifyBattery:
    """``verify-all --json``, each call in a fresh child so every cache is cold.

    The battery takes no input, so the seed changes nothing here.
    """

    in_process = False

    def __init__(self, seed: int) -> None:
        self.ops = [Op("verify", ("verify-all", "--json"))]
        self.maxrss_kb = 0

    def run(self, op: Op, traced: bool) -> Outcome:
        res = run_child("verify", str(ROOT), "1" if traced else "0")
        self.maxrss_kb = max(self.maxrss_kb, res["maxrss_kb"])
        return Outcome(res["op_ms"], res["code"], res["stdout"], res["stderr"], layers=res["layers"])

    def check(self, op: Op, out: Outcome) -> list:
        return oracle.check_verify_all(out.code, out.stdout)

    def peak_rss_mb(self) -> float:
        return self.maxrss_kb / 1024


WORKLOADS = {"query-mix": QueryMix, "table-grid": TableGrid, "verify-battery": VerifyBattery}


# -- measurement -----------------------------------------------------------------


@dataclass
class Tally:
    untraced_ms: list = field(default_factory=list)
    traced_ms: list = field(default_factory=list)
    attempted: int = 0
    traced_attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)


def calibration_task() -> None:
    """Fixed interpreter work that runs no gensect code: the oracle's verdict
    rows for all five pairs, rendered as JSON."""
    rows = [
        {"g": g, "row": oracle.expected_row(r, n, g, 120)} for r, n in PAIRS for g in range(24)
    ]
    json.dumps(rows, sort_keys=True, indent=2)


class HostSamples:
    """Samples taken beside the operations, spread over the whole run.

    ``setup`` holds the set-up times of fresh interpreters; ``calibration``
    holds CPU times of ``calibration_task``, which follow the host's speed.
    """

    def __init__(self) -> None:
        run_child("setup", str(ROOT))  # fills the bytecode cache; not a sample
        self.setup: list = []
        self.calibration: list = []
        self._last_calibration = float("-inf")

    def take_setup(self, count: int) -> None:
        while len(self.setup) < count:
            self.setup.append(run_child("setup", str(ROOT)))

    def calibrate(self) -> None:
        """One calibration sample, if CALIBRATION_INTERVAL_S have passed."""
        if time.perf_counter() - self._last_calibration < CALIBRATION_INTERVAL_S:
            return
        start = time.process_time()
        calibration_task()
        self.calibration.append((time.process_time() - start) * 1e3)
        self._last_calibration = time.perf_counter()

    def speed_scale(self) -> float:
        """Factor that brings a CPU time on this host to the reference speed."""
        return REFERENCE_CALIBRATION_MS / statistics.median(self.calibration)


def measure(workload, seconds: float, tracer, host: HostSamples) -> Tally:
    """Whole rounds of the workload's operations until ``seconds`` have passed.

    Before each round, set-up samples are taken in proportion to the time
    gone; after each operation, a calibration sample if one is due.  With a
    tracer, odd rounds are traced, and the run ends after an even number of
    rounds so both halves cover the same operations.
    """
    tally = Tally()
    digests = {}
    start = time.perf_counter()
    rounds = 0
    while True:
        elapsed = time.perf_counter() - start
        host.take_setup(math.ceil(SETUP_CHILDREN * min(1.0, elapsed / seconds)))
        if elapsed >= seconds and (tracer is None or rounds % 2 == 0) and rounds:
            return tally
        traced = tracer is not None and rounds % 2 == 1
        if traced and workload.in_process:
            tracer.install()
        try:
            for op in workload.ops:
                tally.attempted += 1
                if traced:
                    tally.traced_attempted += 1
                    tracer.op = tally.attempted
                try:
                    out = workload.run(op, traced)
                except Exception as exc:  # an operation that raised is a failed operation
                    tally.failed += 1
                    tally.failures[f"{op.kind} {op.argv[0]}: {type(exc).__name__}"] += 1
                    continue
                finally:
                    host.calibrate()
                (tally.traced_ms if traced else tally.untraced_ms).append(out.ms)
                if out.layers is not None:
                    tracer.merge(out.layers, tally.attempted)
                label = " ".join(op.argv)
                digest = hashlib.sha256(f"{out.code}\0{out.stdout}".encode()).hexdigest()
                if op not in digests:
                    digests[op] = digest
                    tally.problems += [f"{label}: {p}" for p in out.problems + workload.check(op, out)]
                elif digests[op] != digest:
                    tally.problems.append(f"{label}: output differs from an identical earlier call")
        finally:
            if traced and workload.in_process:
                tracer.uninstall()
        rounds += 1


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name == "import.gensect_ms":
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms"):
        return "ms/op"
    return "B/op" if name.endswith("_bytes") else "count/op"


def write_trace_file(name: str, seed: int, tracer: Tracer, layer_metrics: dict) -> Path:
    path = CACHE / f"trace-{name}-{seed}.json"
    origin = min((span[2] for span in tracer.spans), default=0.0)
    spans = [
        {"op": op, "name": span, "start_ms": (s - origin) * 1e3, "ms": (e - s) * 1e3, "parent": parent}
        for op, span, s, e, parent in tracer.spans
    ]
    path.write_text(json.dumps({"metrics": layer_metrics, **tracer.dump(), "spans": spans}) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not LEDGER_FILE.is_file():
        print(f"no gensect source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    CACHE.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    host = HostSamples()
    tally = measure(workload, args.seconds, tracer, host)
    setup_s = statistics.median(s["setup_s"] for s in host.setup)
    import_ms = statistics.median(s["import_ms"] for s in host.setup)
    scale = host.speed_scale()
    print(
        f"calibration: median {REFERENCE_CALIBRATION_MS / scale:.3f} ms over "
        f"{len(host.calibration)} samples; operation times scaled by {scale:.4f}",
        file=sys.stderr,
    )

    for failure, count in sorted(tally.failures.items()):
        print(f"failed {count}x: {failure}", file=sys.stderr)
    for problem in tally.problems[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    if tracer is None:
        samples = tally.untraced_ms
        metrics = {
            "setup_s": setup_s,
            "op_ms": statistics.median(samples) * scale,
            "op_p90_ms": statistics.quantiles(samples, n=10)[8] * scale,
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        metrics = {k: metric(v, E2E_UNITS[k]) for k, v in metrics.items()}
        print(f"{len(samples)} timed operations", file=sys.stderr)
    else:
        layer_metrics = tracer.metrics(tally.traced_attempted)
        layer_metrics["import.gensect_ms"] = import_ms
        overhead = statistics.median(tally.traced_ms) / statistics.median(tally.untraced_ms) - 1
        layer_metrics["trace.overhead_pct"] = overhead * 100
        path = write_trace_file(args.workload, args.seed, tracer, layer_metrics)
        print(f"trace written to {path.relative_to(ROOT)}", file=sys.stderr)
        metrics = {k: metric(v, layer_unit(k)) for k, v in layer_metrics.items()}
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
