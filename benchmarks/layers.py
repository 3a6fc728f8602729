"""Per-layer tracing for the benchmark's traced run.

``Tracer.install`` wraps the public functions of each gensect layer, from
outside the package, by replacing module and class attributes; ``uninstall``
puts the originals back.  Spans and counters stay in memory.  Fine-grained
calls (ledger lookups, classify per grid cell, numerology) are aggregated
only; coarse spans are also kept as records for the trace file.

A layer's self time is its span's duration minus the time of the spans it
encloses.  A name missing from the package is skipped, so its metrics are
absent from the report instead of failing the run.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

#: The 24 verify checks, by function name in ``gensect.verify``.
VERIFY_CHECKS = (
    "lattice_invariants", "chi_anchors", "chi_untwisted_identity", "rho_invariance",
    "moduli_plane_collapse", "degree_bound", "low_genus_nonspecial",
    "interpolation_gates", "surface_curve_table", "line_counts", "kv_certificates",
    "h0_table", "schubert_incidence", "schubert_duality", "ledger_integrity",
    "side_conditions", "exceptional_sweep", "completeness", "frontier", "audits",
    "local_determinant", "scroll_case_study", "k3_case_study",
    "restriction_isomorphisms",
)

#: (module, attribute, span name, how): "span" times the call, "count" only
#: counts it, "keep" also records the span for the trace file.  A dotted
#: attribute names a method on a class.
TARGETS = (
    ("gensect.cli", "main", "cli.main", "keep"),
    ("gensect.cli", "build_parser", "cli.parse", "keep"),
    ("gensect.cli", "load_ledger", "ledger.load", "keep"),
    ("gensect.cli", "to_json", "report.to_json", "keep"),
    ("gensect.engine", "load_ledger", "ledger.load", "keep"),
    ("gensect.ledger", "load_ledger", "ledger.load", "keep"),
    ("gensect.ledger", "Ledger.lookup", "ledger.lookup", "span"),
    ("gensect.engine", "rho", "numerology.rho", "count"),
    ("gensect.engine", "BNIndex", "numerology.bnindex", "count"),
    ("gensect.verify", "rho", "numerology.rho", "count"),
    ("gensect.verify", "BNIndex", "numerology.bnindex", "count"),
    ("gensect.engine", "ClassificationEngine.classify", "engine.classify", "span"),
    ("gensect.engine", "ClassificationEngine.validate_trace", "engine.validate", "keep"),
    ("gensect.engine", "ClassificationEngine.frontier", "engine.frontier", "keep"),
    (
        "gensect.engine", "ClassificationEngine.completeness_audit",
        "engine.completeness_audit", "keep",
    ),
    ("gensect.lattices", "enumerate_lines", "lattices.enumerate_lines", "span"),
    ("gensect.lattices", "h0_rational", "lattices.h0_rational", "span"),
    ("gensect.lattices", "positivity", "lattices.positivity", "count"),
    ("gensect.schubert", "multiply", "schubert.multiply", "span"),
    ("gensect.audits", "run_audit", "audits.run_audit", "keep"),
) + tuple(
    ("gensect.verify", f"check_{name}", f"verify.{name}", "keep") for name in VERIFY_CHECKS
)

#: Reported metric -> (span name, statistic).  Values are per operation.
METRICS = (
    ("cli.parse_ms", "cli.parse", "total"),
    ("cli.main_self_ms", "cli.main", "self"),
    ("ledger.load_calls", "ledger.load", "calls"),
    ("ledger.load_ms", "ledger.load", "total"),
    ("ledger.lookup_calls", "ledger.lookup", "calls"),
    ("ledger.lookup_ms", "ledger.lookup", "total"),
    ("numerology.rho_calls", "numerology.rho", "calls"),
    ("numerology.bnindex_calls", "numerology.bnindex", "calls"),
    ("engine.classify_calls", "engine.classify", "calls"),
    ("engine.classify_self_ms", "engine.classify", "self"),
    ("engine.trace_steps", "engine.classify", "extra"),
    ("engine.validate_ms", "engine.validate", "total"),
    ("engine.frontier_ms", "engine.frontier", "total"),
    ("engine.completeness_audit_ms", "engine.completeness_audit", "total"),
    ("report.to_json_ms", "report.to_json", "total"),
    ("report.json_bytes", "report.to_json", "extra"),
    *((f"verify.{name}_ms", f"verify.{name}", "total") for name in VERIFY_CHECKS),
    ("lattices.enumerate_lines_calls", "lattices.enumerate_lines", "calls"),
    ("lattices.enumerate_lines_ms", "lattices.enumerate_lines", "total"),
    ("lattices.h0_rational_ms", "lattices.h0_rational", "total"),
    ("lattices.positivity_calls", "lattices.positivity", "calls"),
    ("schubert.multiply_calls", "schubert.multiply", "calls"),
    ("schubert.multiply_ms", "schubert.multiply", "total"),
    ("audits.run_audit_calls", "audits.run_audit", "calls"),
    ("audits.run_audit_ms", "audits.run_audit", "total"),
)

#: Spans kept as records per run; beyond this only the aggregates grow.
MAX_KEPT_SPANS = 50_000


class Tracer:
    """In-memory spans and counters for the wrapped layers."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)  # outermost spans only, seconds
        self.self_time: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()  # trace steps and JSON bytes, by span name
        self.spans: list = []  # (op, name, start, end, parent name)
        self.wrapped: set = set()
        self.op = 0
        self._stack: list = []  # [name, seconds covered by child spans]
        self._depth: Counter = Counter()
        self._saved: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, keep: bool):
        stack, depth = self._stack, self._depth

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                elapsed = end - start
                self.calls[name] += 1
                self.self_time[name] += elapsed - frame[1]
                if not depth[name]:
                    self.total[name] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                if keep and len(self.spans) < MAX_KEPT_SPANS:
                    self.spans.append((self.op, name, start, end, stack[-1][0] if stack else None))
            self._observe(name, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name: str, result) -> None:
        # Work the wrapped call hands back: trace lengths, rendered bytes and
        # the parser that cli.main is about to use.  Time spent here is
        # charged to no layer.
        start = perf_counter()
        if name == "engine.classify" and getattr(result, "trace", None) is not None:
            self.extra[name] += len(result.trace.steps())
        elif name == "report.to_json":
            self.extra[name] += len(result)
        elif name == "cli.parse" and hasattr(result, "parse_args"):
            result.parse_args = self._span("cli.parse", result.parse_args, True)
        else:
            return
        if self._stack:
            self._stack[-1][1] += perf_counter() - start

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, how in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                continue
            if how == "count":
                wrapper = self._count(name, original)
            else:
                wrapper = self._span(name, original, how == "keep")
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            self.wrapped.add(name)

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    # -- results ---------------------------------------------------------------

    def dump(self) -> dict:
        """Aggregates and kept spans as plain data (for a child to send back)."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "extra": dict(self.extra),
            "wrapped": sorted(self.wrapped),
            "spans": self.spans,
        }

    def merge(self, data: dict, op: int) -> None:
        self.calls.update(data["calls"])
        for key, value in data["total"].items():
            self.total[key] += value
        for key, value in data["self"].items():
            self.self_time[key] += value
        self.extra.update(data["extra"])
        self.wrapped.update(data["wrapped"])
        room = MAX_KEPT_SPANS - len(self.spans)
        self.spans.extend((op, *span[1:]) for span in data["spans"][:room])

    def metrics(self, ops: int) -> dict:
        """Each layer metric, averaged per traced operation."""
        stats = {
            "calls": self.calls, "total": self.total, "self": self.self_time, "extra": self.extra,
        }
        return {
            metric: stats[stat][name] * (1e3 if metric.endswith("_ms") else 1.0) / ops
            for metric, name, stat in METRICS
            if name in self.wrapped
        }
