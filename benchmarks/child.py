"""Fresh-interpreter child of the benchmark; prints one JSON line.

    child.py setup ROOT            time ``import gensect`` up to an engine with
                                   the bundled ledger loaded
    child.py verify ROOT TRACED    run ``verify-all --json`` through
                                   ``gensect.cli.main`` with cold caches

``run.py`` starts it with fixed interpreter flags; see README.md.  Only
``sys`` and ``time`` are imported before the set-up clock starts, so the
stdlib modules gensect needs are charged to its import.
"""

import sys
import time


def setup(root: str) -> dict:
    sys.path.insert(0, f"{root}/src")
    start = time.process_time()
    import gensect

    imported = time.process_time()
    gensect.ClassificationEngine()
    ready = time.process_time()
    return {"setup_s": ready - start, "import_ms": (imported - start) * 1e3}


def verify(root: str, traced: bool) -> dict:
    import contextlib
    import io
    import resource

    sys.path.insert(0, f"{root}/src")
    from gensect import cli

    tracer = None
    if traced:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify-all", "--json"])
    op_ms = (time.process_time() - start) * 1e3
    return {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "op_ms": op_ms,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.dump() if tracer else None,
    }


def main() -> None:
    mode, root = sys.argv[1], sys.argv[2]
    result = setup(root) if mode == "setup" else verify(root, sys.argv[3] == "1")
    import json

    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
