"""The names the benchmark's layer tracer wraps.

``benchmarks/layers.py`` skips a target it cannot find, so a renamed or
deleted function silently drops its metrics from a traced run.  These tests
fail instead."""

import importlib
import importlib.util
from pathlib import Path

from gensect.engine import DerivationTrace

LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "layers.py"


#: Targets known to be absent: ``gensect.verify`` calls ``rho_at``, not
#: ``rho``, so only the engine's ``rho`` feeds ``numerology.rho_calls``.
ABSENT = {("gensect.verify", "rho")}


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = set()
    for module_name, attr, _, _ in layers.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add((module_name, attr))
    assert missing == ABSENT
    # every reported metric reads a span that some resolving target records
    recorded = {name for module, attr, name, _ in layers.TARGETS if (module, attr) not in ABSENT}
    assert {span for _, span, _ in layers.METRICS} <= recorded


def test_a_traced_classify_can_count_its_steps():
    # the tracer counts len(verdict.trace.steps()) on every traced classify
    assert callable(getattr(DerivationTrace, "steps", None))
