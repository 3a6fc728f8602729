"""The package namespace: lazy public names, the declared public surface,
what a ready engine imports, and the records it is built from."""

import __future__
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import types
from importlib import resources

import pytest

import gensect
from gensect import cli, report
from gensect.engine import Query, Verdict
from gensect.lattices import DivisorClass
from gensect.ledger import load_ledger
from gensect.schubert import sigma

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Standard-library modules that no gensect command needs: records are tuple
#: subclasses with their own ``__new__`` and annotations name only built-in
#: types or stay strings.  Only argparse's help and usage errors load shutil,
#: for the terminal width.
NOT_FOR_ANY_COMMAND = ("dataclasses", "typing", "inspect", "shutil")

#: The command line; the layers that only ``verify-all`` and the
#: ``lines``/``schubert`` commands use; the standard-library packages that
#: reading the bundled ledger does not need, since the built-in ``_json``
#: scanner parses it; ``importlib`` and ``warnings``, which the lazy
#: namespace does without; ``functools`` and ``weakref``, since the threshold
#: window is a plain attribute of the ledger; and ``collections``, with the
#: modules it imports, and ``math``, since records get their field accessors
#: from the built-in ``_collections`` and the one binomial coefficient is a
#: closed form.  Loading an engine and answering a query imports none of
#: them.
NOT_FOR_THE_ENGINE = (
    "gensect.lattices",
    "gensect.schubert",
    "gensect.verify",
    "gensect.cli",
    "importlib.resources",
    "pathlib",
    "json",
    "re",
    "enum",
    "importlib",
    "warnings",
    "os",
    "functools",
    "weakref",
    "collections",
    "math",
    "keyword",
    "reprlib",
    "operator",
    "itertools",
) + NOT_FOR_ANY_COMMAND

#: All that a ready engine adds to the standard-library modules a bare
#: ``python -S`` has loaded.
ENGINE_STDLIB = {"_collections", "_json"}

#: The module set is read before the probe imports json to print it.
PROBE = """
import sys
started = sorted(sys.modules)
import gensect
after_import = sorted(m for m in sys.modules if m.startswith("gensect."))
from gensect import Query
verdict = gensect.ClassificationEngine().classify(Query(3, 2, 30, 20))
loaded = sorted(sys.modules)
import json
print(json.dumps({
    "after_import": after_import,
    "status": verdict.status,
    "started": started,
    "loaded": loaded,
}))
"""


def fresh_interpreter(code: str) -> dict:
    """Run ``code`` in a new ``python -S`` with only ``src`` on the path,
    writing no bytecode into it."""
    done = subprocess.run(
        [sys.executable, "-B", "-S", "-c", code],
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
    added = set(probe["loaded"]) - set(probe["started"])
    assert {m for m in added if m != "gensect" and not m.startswith("gensect.")} <= ENGINE_STDLIB


def test_verify_all_loads_no_record_or_terminal_machinery():
    probe = fresh_interpreter(
        "import contextlib, io, json, sys\n"
        "from gensect import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify-all', '--json'])\n"
        "print(json.dumps({'code': code, 'loaded': sorted(sys.modules)}))\n"
    )
    assert probe["code"] == 0
    assert "gensect.verify" in probe["loaded"]
    assert [m for m in NOT_FOR_ANY_COMMAND if m in probe["loaded"]] == []


#: Reads the sizes of the lattice layer's memos.
LATTICE_CACHES = (
    "from gensect import lattices\n"
    "def sizes():\n"
    "    return [cached.cache_info().currsize for cached in (\n"
    "        lattices._lines_for_blowup, lattices._diagonal, lattices._line_images,\n"
    "        lattices.SurfaceModel.__dict__['del_pezzo'].__func__,\n"
    "    )]\n"
)


def test_importing_the_command_line_fills_no_lattice_cache():
    # the benchmark's verify child starts its clock after this import, so
    # work moved into import time would read as a saving
    probe = fresh_interpreter(
        "import contextlib, io, json\n"
        "import gensect.cli\n"
        f"{LATTICE_CACHES}"
        "imported = sizes()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    gensect.cli.main(['verify-all'])\n"
        "print(json.dumps({'imported': imported, 'verified': sizes()}))\n"
    )
    assert probe["imported"] == [0, 0, 0, 0]
    assert 0 not in probe["verified"]


#: What parsing with argparse loads: argparse, its message catalogue and the
#: locale that reads, and copy, which argparse's append actions may import.
FOR_ARGPARSE_ONLY = ("argparse", "gettext", "locale", "copy")

#: What reading a ``--ledger`` file loads: the JSON parser and the modules it
#: imports.  Reports are written without it.
FOR_LEDGER_FILES_ONLY = ("json", "re", "enum")

WELL_FORMED_JSON_COMMANDS = pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--r", "3", "--n", "2", "--d", "30", "--g", "20", "--json"],
        ["table", "--r", "3", "--n", "2", "--d-max", "20", "--g-max", "13", "--json"],
        ["verify-all", "--json"],
    ],
    ids=["classify", "table", "verify-all"],
)


def command_probe(argv: list) -> dict:
    """The exit code of ``argv`` and the modules loaded after importing the
    command line and after running it, read before the probe imports json."""
    return fresh_interpreter(
        "import contextlib, io, sys\n"
        "from gensect import cli\n"
        "imported = sorted(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "loaded = sorted(sys.modules)\n"
        "import json\n"
        "print(json.dumps({'code': code, 'imported': imported, 'loaded': loaded}))\n"
    )


@WELL_FORMED_JSON_COMMANDS
def test_a_well_formed_command_loads_no_argparse(argv):
    probe = command_probe(argv)
    assert probe["code"] == 0
    assert [m for m in FOR_ARGPARSE_ONLY if m in probe["loaded"]] == []


@WELL_FORMED_JSON_COMMANDS
def test_a_json_report_on_the_bundled_ledger_loads_no_json_module(argv):
    probe = command_probe(argv)
    assert probe["code"] == 0
    assert "_json" in probe["loaded"]
    for modules in (probe["imported"], probe["loaded"]):
        assert [m for m in FOR_LEDGER_FILES_ONLY if m in modules] == []


def test_a_ledger_file_loads_the_json_parser():
    path = str(resources.files("gensect").joinpath("data/ledger.json"))
    argv = ["classify", "--r", "3", "--n", "2", "--d", "9", "--g", "4", "--ledger", path]
    probe = command_probe(argv)
    assert probe["code"] == 0
    assert "json" in probe["loaded"]


def test_help_still_comes_from_argparse(monkeypatch):
    done = subprocess.run(
        [sys.executable, "-B", "-S", "-m", "gensect", "--help"],
        env={"PYTHONPATH": SRC, "COLUMNS": "80"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--help"])
    assert (done.returncode, done.stdout, done.stderr) == (code, out.getvalue(), "")
    assert done.stdout.startswith("usage: gensect [-h] {classify,trace,table,")


def package_trees():
    """Each module of the package, by file name, parsed."""
    package = os.path.join(SRC, "gensect")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as file:
                yield name, ast.parse(file.read())


def test_no_module_imports_dataclasses_or_typing():
    found = []
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [
                f"{name}: {m}" for m in modules if m.split(".")[0] in ("dataclasses", "typing")
            ]
    assert found == []


def test_no_module_calls_namedtuple():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "namedtuple" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert found == []


def test_audits_imports_only_the_record_helpers():
    # the engine imports audits for its exceptional table, so what audits
    # imports every ready engine loads too
    tree = dict(package_trees())["audits.py"]
    imports = [
        (getattr(node, "level", 0), getattr(node, "module", None), [a.name for a in node.names])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports == [(1, "_record", ["_new", "named_fields"])]


@pytest.mark.parametrize(
    "record, field",
    [
        (Query(3, 2, 30, 20), "d"),
        (load_ledger().entries[0], "tag"),
        (DivisorClass((1, 0)), "coeffs"),
        (Verdict("invalid", "no"), "status"),
    ],
    ids=["Query", "LedgerEntry", "DivisorClass", "Verdict"],
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.unknown = None


def test_algebraic_records_do_not_repeat_as_tuples():
    # neither a tuple's repetition nor its concatenation, on either side
    for operation in (
        lambda: DivisorClass((1, 0)) * 2,
        lambda: 2 * sigma(3, 1),
        lambda: sigma(3, 1) * 2,
        lambda: sigma(3, 1) * sigma(3, 1),
        lambda: sigma(3, 1) + sigma(3, 1),
        lambda: DivisorClass((1, 2)) + (3, 4),
        lambda: DivisorClass((1, 2)) - (3, 4),
        lambda: (3, 4) + DivisorClass((1, 2)),
        lambda: (1,) + sigma(3, 1),
    ):
        with pytest.raises(TypeError):
            operation()
    assert 2 * DivisorClass((1, -1)) == DivisorClass((2, -2))
    assert DivisorClass((1, 2)) + DivisorClass((3, 4)) == DivisorClass((4, 6))
    assert DivisorClass((1, 2)) - DivisorClass((3, 4)) == DivisorClass((-2, -2))


@pytest.mark.parametrize("name", gensect.__all__)
def test_public_name_resolves_to_its_definition(name):
    value = getattr(gensect, name)
    assert value.__module__.startswith("gensect.")
    module = sys.modules[value.__module__]
    assert getattr(module, name) is value
    assert vars(gensect)[name] is value  # cached after the first access


def test_namespace_lists_and_binds_every_public_name():
    assert set(gensect.__all__) <= set(dir(gensect))
    namespace = {}
    exec("from gensect import *", namespace)
    assert {name: namespace[name] for name in gensect.__all__} == {
        name: getattr(gensect, name) for name in gensect.__all__
    }


#: The declared public surface: the line ``gensect: ...`` is ``__all__``, a
#: line ``gensect.<module>: ...`` the module's public names and a line
#: ``gensect.<module>.<Class>: ...`` the public names a class defines itself.
#: A module's line skips submodules, ``annotations`` and what is defined
#: outside the public modules, the standard library's and ``_record``'s, but
#: keeps a name imported from another gensect module: the benchmark wraps
#: ``engine.rho`` and ``cli.to_json``.  A name added or deleted anywhere,
#: even re-imported, changes a line and fails the snapshot test.
API_SURFACE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "api_surface.txt")

PUBLIC_MODULES = sorted(
    f"gensect.{name[:-3]}"
    for name in os.listdir(os.path.join(SRC, "gensect"))
    if name.endswith(".py") and not name.startswith("_")
)


def surface_line(owner: str, names) -> str:
    return f"{owner}: {', '.join(sorted(names))}".rstrip()


def public_surface() -> list:
    """The lines ``tests/api_surface.txt`` must hold, in its order."""
    lines = [surface_line("gensect", gensect.__all__)]
    for qualified in PUBLIC_MODULES:
        __import__(qualified)
        public = {
            name: value
            for name, value in vars(sys.modules[qualified]).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)
            and value is not __future__.annotations
            and not (callable(value) and getattr(value, "__module__", None) not in PUBLIC_MODULES)
        }
        lines.append(surface_line(qualified, public))
        lines += [
            surface_line(f"{qualified}.{name}", (n for n in vars(cls) if not n.startswith("_")))
            for name, cls in sorted(public.items())
            if isinstance(cls, type) and cls.__module__ == qualified
        ]
    return lines


def test_the_public_surface_is_the_declared_one():
    with open(API_SURFACE, encoding="utf-8") as file:
        declared = file.read().splitlines()
    actual = public_surface()
    if actual != declared:
        owners = {line.split(":", 1)[0] for line in actual}
        pytest.fail(
            "tests/api_surface.txt differs from the public surface; replace or add these lines:\n"
            + "\n".join(line for line in actual if line not in declared)
            + "\nand delete these:\n"
            + "\n".join(line for line in declared if line.split(":", 1)[0] not in owners),
            pytrace=False,
        )


with open(API_SURFACE, encoding="utf-8") as _file:
    DECLARED_OWNERS = [line.split(":", 1)[0] for line in _file.read().splitlines()]


@pytest.mark.parametrize("owner", DECLARED_OWNERS)
def test_a_name_added_to_any_declared_owner_changes_its_line(owner, monkeypatch):
    # the snapshot is exhaustive: a new public function in any module, a new
    # method on any class or a new entry in ``__all__`` changes its owner's
    # line and no other, so the snapshot test names where it went
    before = public_surface()
    module_name, _, class_name = owner.partition(".")[2].partition(".")

    def probe():
        pass

    if owner == "gensect":
        monkeypatch.setattr(gensect, "__all__", [*gensect.__all__, "probe"])
    elif not class_name:
        probe.__module__ = owner
        monkeypatch.setattr(sys.modules[owner], "probe", probe, raising=False)
    else:
        probe.__module__ = f"gensect.{module_name}"
        cls = getattr(sys.modules[probe.__module__], class_name)
        monkeypatch.setattr(cls, "probe", probe, raising=False)
    after = public_surface()
    changed = [(old, new) for old, new in zip(before, after) if old != new]
    assert len(after) == len(before) and len(changed) == 1
    old, new = changed[0]
    assert old.split(":", 1)[0] == owner and "probe" in new.split(": ", 1)[1].split(", ")


def test_the_readme_library_use_runs_on_public_names():
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as file:
        section = file.read().split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    imported = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "gensect"
        for alias in node.names
    ]
    assert imported and set(imported) <= set(gensect.__all__)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(code, namespace)
    # a line ``expression  # value`` states the expression's value
    for line in code.splitlines():
        expression, hash_, value = line.partition("  # ")
        if hash_:
            assert eval(expression, namespace) == ast.literal_eval(value.strip()), line


def test_unknown_names_raise_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        gensect.no_such_name
    from gensect import cli

    assert cli.__name__ == "gensect.cli"
    assert gensect.__version__ == "0.1.0"


def test_one_version_in_pyproject_package_and_envelope():
    # read as text: tomllib is not in Python 3.10
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), encoding="utf-8") as file:
        project = file.read().split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    (version,) = [
        line.split("=", 1)[1].strip().strip('"')
        for line in project.splitlines()
        if line.split("=", 1)[0].strip() == "version"
    ]
    assert version == gensect.__version__
    assert report.envelope("classify", {})["tool"]["version"] == version


def test_python_m_gensect_runs_from_a_source_checkout():
    done = subprocess.run(
        [sys.executable, "-B", "-m", "gensect", "verify-all"],
        env={"PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("25 checks: 25 passed, 0 failed\n")
