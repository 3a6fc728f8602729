"""The package namespace: lazy public names and what a ready engine imports."""

import json
import os
import subprocess
import sys

import pytest

import gensect

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: The command line; the layers that only ``verify-all`` and the
#: ``lines``/``schubert`` commands use; and two standard-library packages that
#: reading the bundled ledger does not need.  Loading an engine and answering
#: a query imports none of them.
NOT_FOR_THE_ENGINE = (
    "gensect.lattices",
    "gensect.schubert",
    "gensect.verify",
    "gensect.cli",
    "importlib.resources",
    "pathlib",
)

PROBE = """
import json, sys
import gensect
after_import = sorted(m for m in sys.modules if m.startswith("gensect."))
from gensect import Query
verdict = gensect.ClassificationEngine().classify(Query(3, 2, 30, 20))
print(json.dumps({
    "after_import": after_import,
    "status": verdict.status,
    "loaded": sorted(sys.modules),
}))
"""


def fresh_interpreter(code: str) -> dict:
    """Run ``code`` in a new ``python -S`` with only ``src`` on the path."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={"PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(done.stdout)


def test_a_ready_engine_loads_only_what_it_uses():
    probe = fresh_interpreter(PROBE)
    assert probe["after_import"] == []
    assert probe["status"] == "general"
    assert "gensect.engine" in probe["loaded"]
    assert [m for m in NOT_FOR_THE_ENGINE if m in probe["loaded"]] == []


@pytest.mark.parametrize("name", gensect.__all__)
def test_public_name_resolves_to_its_definition(name):
    value = getattr(gensect, name)
    assert value.__module__.startswith("gensect.")
    module = sys.modules[value.__module__]
    assert getattr(module, name) is value
    assert vars(gensect)[name] is value  # cached after the first access


def test_namespace_lists_and_binds_every_public_name():
    assert "composite_invariants" not in gensect.__all__
    assert set(gensect.__all__) <= set(dir(gensect))
    namespace = {}
    exec("from gensect import *", namespace)
    assert {name: namespace[name] for name in gensect.__all__} == {
        name: getattr(gensect, name) for name in gensect.__all__
    }


def test_unknown_names_raise_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        gensect.no_such_name
    from gensect import cli

    assert cli.__name__ == "gensect.cli"
    assert gensect.__version__ == "0.1.0"
