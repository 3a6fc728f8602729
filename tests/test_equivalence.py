"""Byte-level equivalence of the command line output with recorded digests.

The SHA-256 digests below were recorded from the engine that stored every
derivation as a tree of single steps, before derivations became run-length
paths; those of the exceptional cases and the whole-battery commands were
recorded before the exceptional cases became one table in ``audits``,
except the two ``verify-all`` digests, recorded when the descriptions of
``ledger-integrity`` and ``exceptional-floor`` named their replay and
add_canonical checks.
The three ``schubert`` digests were recorded from the kernel that built a
whole cycle per Pieri step, before products were summed in one dict.  The
help and usage-error digests were recorded when argparse parsed every
command line, before well-formed ones were parsed from the flag table,
except the ``--help`` digests of ``table``, ``audit``, ``schubert``,
``lines`` and ``verify-all``, recorded when each flag meaning became one
shared definition with help text.  A change to any verdict, trace, table, audit, exit code or message on the
bundled ledger, or on a ledger missing any one of its 33 entries, changes a
digest.  ``python tests/test_equivalence.py`` prints the digests of the code
on the import path.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from importlib import resources

import pytest

from gensect import cli, verify
from gensect.engine import ClassificationEngine
from gensect.ledger import Ledger, load_ledger

PAIRS = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1))
DEEP_QUERIES = ((3, 2, 3000, 0), (3, 1, 3000, 40), (4, 1, 2500, 17))

#: ``classify --json`` exit code and output for d <= 60, g <= 40, per pair.
CLASSIFY_BOX = {
    (2, 1): "00ea70bdeae452a734199ce43ad3bbedfb89769a9d8cd22e8586873c915ee2fb",
    (2, 2): "0cc3c74942bf73775005015aa56e502fa43c09ff825c915c8eb13c5cbda9566d",
    (3, 1): "cebdc13cc617bcf1fe73c056c8dd4074518970fdfaffb96b48dcaa6711a7e660",
    (3, 2): "7ce991b1db8bb79caaf331ac6ecd73a072e1a805b326fe4efb7c875a2a943aaf",
    (4, 1): "8d4f8ffd4a119461678b0664894711679bd47b48508595f174cbd91a1406fcaa",
}

#: ``classify --json`` for three long chains.
CLASSIFY_DEEP = {
    (3, 2, 3000, 0): "5b27dbb5b02ef04e51aa94da8681c416d4ab1266d6e1c928a09b2c3445056744",
    (3, 1, 3000, 40): "6f58af7f166deaac92bf7a8b20e87213566c5f17e3672c93327be91b615207a8",
    (4, 1, 2500, 17): "5247fb95e3dad5f3b0bc161760e65b9f04848b6f5ebb788955d594df04ec0dd7",
}

#: ``table --json`` at d <= 60, g <= 40, per pair.
TABLE_JSON = {
    (2, 1): "6cb184500c923cac1d13928e1d81447e92e522110bf51db57e1d030c72da3d19",
    (2, 2): "58394f187abd4cef7e1b6992c096f7e533ddef36d59cf36dbaf5a7eb29553718",
    (3, 1): "8dce77104eb1e06a73f47af557f72ce57fa868159e56218edbb44fddd8e376cc",
    (3, 2): "b3f4e1094e2c6008a5f2076bf55da461f9767de7f7e12609c40237d23b479bdf",
    (4, 1): "8fe83a6ae8798a4433ccd9481102928eddf190b499b9df4b21c63a2ae7ad8173",
}

#: Per exceptional case of the theorem: ``classify`` and ``audit --case``, each as text and
#: with ``--json`` (exit code, stdout, stderr).
EXCEPTIONAL = {
    (3, 2, 4, 1): "4418dd728148c0a98e6c0f2692b22ef6dfc62e1d9508b0ed3e4c7410a58020f2",
    (3, 2, 5, 2): "4590c3dbac28086a72a76fbaa046f9574a7f40d3921100ba23713bfa1450c746",
    (3, 2, 6, 2): "b380aee8b3b581076a7f16c382129bff24dd0868e3df7b9ff80fa3aa2fd68766",
    (3, 2, 6, 4): "ccdea9243388eeb72472b61c082720fb8123ddbf7fb99cbf2391421fc28446e5",
    (3, 2, 7, 5): "df1514a0484908fd5f3f3cd7ed783d0a225f2d6688be4dfd0c7fd494fce824f2",
    (3, 2, 8, 6): "4423bea3d15d14c8e2e1c822a0b23af45babf47df1972a17d75861bf189281ce",
    (3, 1, 6, 4): "27eeb50c04fe5f6d36c898f6814df309424e238590667ab9111480d3b5512b4a",
    (4, 1, 8, 5): "ae1dc275e78b10ec3065ff81b735cc50da602cb1b9a452f3fdc274cd5fe183a6",
    (4, 1, 9, 6): "c2f84a1381900780796ff98b2ca8655a6420f7e8da401692941d50131c887065",
    (4, 1, 10, 7): "a9b03d0a6c2ba4c122c7ada5ab21484dd158f8dfca42965af2a6f3b6c41734d8",
}

#: Whole-battery commands, an unknown audit case and three Schubert products
#: (exit code, stdout, stderr).
COMMANDS = {
    "audit --all": "6f158375d3c2b314e83ce4a67a1148408b6f63894d20bc49ac7aaad6726d2734",
    "audit --all --json": "05c335ae8e9484f66df050ed15e8289cdaa4aafa3aac98cbe138a3d0ca23f48c",
    "verify-all": "65a0179cd68971c587438692e014fd6ea44605fdbb5c6efd541a17f0e2ae2baa",
    "verify-all --json": "aca312d09d396b0ef7b2a0885639205157a36cca607f212e638640e66989099d",
    "audit --case 3,2,9,9": "0ff1be943853413242a040432251ea8d1b01b136c7381221f9f7943a1a25e441",
    "schubert --n 4 2 2 2": "cde6c90c3bc116b0bf04cdc81071d7b0c7e0e89ecc1a71d4c0958c322702c437",
    "schubert --n 6 1 2,1 3,3 1,1 --json": (
        "89b853c704641d1aac7bb68122667d67d175e9f58249ac92c257527130ebe975"
    ),
    "schubert --n 5 2,1 2,1 --json": (
        "eb186de4c10d7dfab626c8c82c6e4ead71ff4cb2e52f2e36a4ee963661203bf3"
    ),
}

#: Help texts, usage errors, and lines that argparse accepts in forms the flag
#: table leaves to it (``=``, abbreviations) or reads itself (a negative
#: value): exit code, stdout and stderr at each of HELP_COLUMNS.  argparse's
#: wording differs between Python versions; these were recorded with Python
#: 3.11.
HELP_AND_USAGE = {
    "--help": "2689f85ca31b8758761277d5a9d5e367f0c9c97d2f4b8cac1181bbcca2574d19",
    "classify --help": "216b0edc4129c24bf9e79221bfbad4eb91d143660884ca45438acafce6ea0186",
    "trace --help": "012892d0914bc9c757b0194e849110c9d27d0c86d273c697fe5eb39846c7c915",
    "table --help": "495f08c64f606a61eef64cccda4a30a1bb34828ec38a421e6444923bdcdcec0a",
    "audit --help": "025ea718b998363f6e6cfd2052cb0fdff1d493a2358556a42c68494dd3a0cf94",
    "schubert --help": "2e5bd6c3c25c90c3e5f335ef92108c5f565d6b09efe6468a7edd842488151d0e",
    "lines --help": "1803c5d2eb64b200023f42038d2b4d86f22142ed72812c9efd743fcc83a3d415",
    "verify-all --help": "9d54f2cb061774299e7e97e1b9fb9705b2660c6d2236fcd7cbe5a26e1d9dae27",
    "": "850ec0fa58bb0c11faaae991eac2b731216c851b23f447eacd3e70ae6ffb29c0",
    "-h": "2689f85ca31b8758761277d5a9d5e367f0c9c97d2f4b8cac1181bbcca2574d19",
    "frobnicate": "cd5e6069024c75d3bcf534327366506b0b8841a43ceed1bd1595e212386f1b8e",
    "classify --r 3 --n 2 --d 8": (
        "c87e55219dffb284ff17e541af66c8fb3698dc18b5d8411e430e6b05addc7cfc"
    ),
    "classify --r x --n 2 --d 8 --g 6": (
        "03bed924da7416a13ad95c311e17643011106278fd66b862aece1fa380f49ba5"
    ),
    "classify --r 3 --n 2 --d 8 --g 6 --bogus": (
        "54bfdf53906b71e5cdde7f435381b3a44242637daac87ffb8b93658c371f9ba9"
    ),
    "classify --r 3 --n 2 --d 8 --g 6 extra": (
        "f34d5d6fb8aad060ab8a673cb66083044fe60014b8913a91be246ffda1ea7f3b"
    ),
    "verify-all --ledger": "c61e46b730143c722e3cdb0459f2d3967399b10e2dffec480459656489470a4e",
    "classify --r 3 --n 2 --d -1e5 --g 6": (
        "594b9d1fae6eac498296d60447534bd7d279c3b0ecd42a7b4fd70eb0211dc6de"
    ),
    "table --r 3": "9be7fb6eec9f28a83e05201d7071ffdb5f28fe64cdc939d19104905ec33567ea",
    "schubert --n 4": "80029a3273da2b831b23e907f3c98d559d0689cf46704463c429705c54265cb7",
    "schubert --n 4 2 --json 2": (
        "c7b97fb4ba38939dc3894929a27e7cb1e4d627cda9932a1580e2b6a7409c8f8f"
    ),
    "lines --k 2.5": "85df2ee27c6c7dfb349b6f31b1ab7cc724859c8eb7f11299dc281b8bac8bcbe5",
    "audit --case": "23a17d8f9b22319f3b2ce77d01c722b190244a9028db404254b17d6bc0f8538a",
    "classify --r=3 --n 2 --d 8 --g 6": (
        "52debba6158cc60557bb1d6b4f5f42274f992714d0446e549df2dfa3ce375248"
    ),
    "classify --r 3 --n 2 --d 8 --g 6 --js": (
        "50e6ceb180ab5f04f81bd3fbce1db797260cf9d47d11d6492519611cd91efcc8"
    ),
    "classify --r 3 --n 2 --d -5 --g 6": (
        "89f0950d5937966f88eef8a97832cccb1061511e01b59838780c0138afb5dd1a"
    ),
    "table --r 3 --n 2 --d 8 --g 4 --json": (
        "eb54a278605ab39da85845828461b825268730673ed03da95979c7be65ed743b"
    ),
    "classify -- --r 3 --n 2 --d 8 --g 6": (
        "3aaa6d0afe482906b1b4bf73d045a7108747cd19add88e530ed1f4c7f999b7ed"
    ),
}

HELP_COLUMNS = ("40", "80", "200")

#: Per dropped entry: ``table`` for every pair (exit code, stdout, stderr),
#: the exceptional-sweep check and the completeness audits.
LEAVE_ONE_OUT = {
    "r2n1-plane": "465dc3b00b84b58fabbf6c851f21022b06878345a3f2fd9acb5e08206dd7cb54",
    "r2n2-plane": "ac20fe1f1dff60156838285eba71b6d3338ce9475052be87b2e6f55b1b94d11e",
    "r3n2-interp-3-0": "9addc378b91fa65561425dee2dcf340c845fa56160a9257d3bd366125660ee53",
    "r3n2-scroll-5-1": "a7a8cc0a9f48d4a6711166c1e35056006724b4590819e59cda55c00bf399ff11",
    "r3n2-delpezzo-7-4": "c68e206742d5b7afa7e494d96404ce475a2c70d25857af24785e4338a65716d7",
    "r3n2-delpezzo-8-5": "7540cd570109df13d778c5fe1b89aefc9ccbda087f3fa1de9538790288a58498",
    "r3n2-hglue-7-2": "7197aa8c405f3a1f9af6cf238905edd4a88d487f637d131557dec14232c89e4f",
    "r3n2-hglue-6-3": "9f2f4f1e170bb3466b5428c6320fab5a9746797e76e04b6d9a7170ff653b75e9",
    "r3n2-hglue-9-6": "88fb2441175b9411fdd8c76fbecec4e330a92032a1230c00c26a7d6ba03c490a",
    "r3n2-hglue-9-7": "d29c975332b8a79e92de0423e3230cf28ada51e5a449a6e37ebbee3414dff01d",
    "r3n2-pglue-10-9": "b3ff8d44f8bf4f9e4d9006bfb347306f1a1fd4c9ec9dc1da4d65902add8391f3",
    "r3n2-pglue-11-10": "63f87f7e83810d582dcee251e549942e90e1c325f4cc59d9b48affd263489e55",
    "r3n2-pglue-12-12": "e97eca8936cc43e6c35c57a28035f8070100b5cf4a5123fba02901fd44b5f7ea",
    "r3n2-pglue-13-13": "a0d00a8bb6f2f4e75676248b48c55b0f6b9ee5b6b6c5c7ebffaa86ca4ea88905",
    "r3n2-pglue-14-14": "06c66c283f9f5c96cf94c8214f876d4f49ac2d4d186c20fdd0fd542874461d84",
    "r3n1-interp-4-1": "70e705b712bfbaf62a6ba014ba0f49d38d109c7a671c9726013e640e7282d27b",
    "r3n1-genus2-5-2": "9f6bcd7ffb6876f55ba0a30b509b2368e2c1b53d2a8329c0ea6bb7cbb183daeb",
    "r3n1-interp-6-2": "03a93a659c88d2f4fca267f5b2504dc970fc0bc0d3c00d255a4b8a346c4b86f3",
    "r3n1-delpezzo-7-5": "5824c2c2bcb38aea5d42e18a80b18297201fba25c685cbed6550f3a8eddb7ae4",
    "r3n1-line-glue-8-6": "6169a2be379f31f610e713626abb4b10186e7bc7a27d60c309cded3db1f0ac2b",
    "r4n1-interp-4-0": "5cd42a93c7c654cd364f2bd601c71179707321568bf57ca78495313f1bd0b795",
    "r4n1-interp-5-1": "cb74a2d984795db1043d55ab9a142d5038fd4a784a5e2e5c0e4f983300f99a3c",
    "r4n1-genus2-6-2": "f210e58ca6ef69e8e339c74f49ae339d6fe9291ac9012e1e1bac322a2ad649ee",
    "r4n1-interp-7-3": "014626884ef6aa5282f5b31c6a3771d735a51a419636f35063a0e3a60cda68d1",
    "r4n1-interp-8-4": "7200e739dbc94deccd6cedf3ec93ac5869e1487b6518915a3eec0fcd1d0a05a3",
    "r4n1-delpezzo-9-5": "beaf2666c708d3f6657f3e6269655cebd147fc4ed4c91f1fadb74a3139a9d827",
    "r4n1-hglue-10-6": "44cabb0f2a564cb6c7ce71f7c2ca9bf48aa7e84ae45c6cbb73f23f3d00804dbf",
    "r4n1-hglue-11-7": "dcfe0c47780d9152fbdc7670892f53f1f36ba65b606ac847ec23855066c46865",
    "r4n1-hglue-12-9": "4ad7948fab47948e235c2869c23a3101fcdf70dd77f5c7dd33ac204683888be7",
    "r4n1-hglue-16-15": "f512e043436bc4313b23ecf15f5c3bc8ffe4ae253c37cea56593d7c8f592ab18",
    "r4n1-hglue-17-16": "2d91d1f79ac7b97d8b5e0e58a6c071f4b8106b69f10a5382230b864cb4ef791e",
    "r4n1-hglue-18-17": "d56427798a4596c716a7c6f81f04765709ebd3310bab72c922b9207f4027ad4c",
    "r4n1-skew-lines": "378289b940067475923475f07f699b08d2d33c33cc587848d631ea8bd169daa8",
}


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}"


def _query_flags(case):
    r, n, d, g = case
    return ("--r", str(r), "--n", str(n), "--d", str(d), "--g", str(g))


def _classify_box(r, n):
    # The subcommand handler is called directly: building the argument
    # parser per call would dominate 2,460 calls.
    for g in range(0, 41):
        for d in range(1, 61):
            args = argparse.Namespace(
                command="classify", r=r, n=n, d=d, g=g, json=True, ledger=None
            )
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli._cmd_classify(args)
            yield f"{code}\n{out.getvalue()}"


def _help_and_usage_outputs(command):
    saved = os.environ.get("COLUMNS")
    try:
        for columns in HELP_COLUMNS:
            os.environ["COLUMNS"] = columns
            yield _run(command.split())
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def _exceptional_outputs(case):
    flags = _query_flags(case)
    audit_case = ("audit", "--case", ",".join(map(str, case)))
    for argv in (("classify", *flags), audit_case):
        yield _run(argv)
        yield _run((*argv, "--json"))


def _bundled_payload() -> dict:
    return json.loads(
        resources.files("gensect").joinpath("data/ledger.json").read_text("utf-8")
    )


def _leave_one_out_file(entry_id, directory) -> str:
    payload = _bundled_payload()
    payload["entries"] = [e for e in payload["entries"] if e["id"] != entry_id]
    path = directory / f"{entry_id}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _drop(entry_id) -> Ledger:
    full = load_ledger()
    return Ledger(entries=tuple(e for e in full.entries if e.id != entry_id), source="doctored")


def _leave_one_out_outputs(entry_id, directory):
    """The exceptional-sweep check without the entry, and everything digested."""
    path = _leave_one_out_file(entry_id, directory)
    tables = [
        _run(("table", "--r", str(r), "--n", str(n), "--ledger", path)) for r, n in PAIRS
    ]
    engine = ClassificationEngine(_drop(entry_id))
    sweep = verify.check_exceptional_sweep(engine)
    audits = [
        repr(engine.completeness_audit(r, n, 60, 40)) for r, n in ((3, 2), (3, 1), (4, 1))
    ]
    return sweep, [*tables, f"{sweep.ok} {sweep.detail}", *audits]


def compute_digests(directory) -> dict:
    """Every digest this module checks, computed from the code on the import path."""
    bundled = load_ledger()
    box = {pair: _digest(_classify_box(*pair)) for pair in PAIRS}
    deep = {
        case: _digest([_run(("classify", *_query_flags(case), "--json"))])
        for case in DEEP_QUERIES
    }
    tables = {
        (r, n): _digest([_run(("table", "--r", str(r), "--n", str(n), "--json"))])
        for r, n in PAIRS
    }
    exceptional = {case: _digest(_exceptional_outputs(case)) for case in EXCEPTIONAL}
    commands = {command: _digest([_run(command.split())]) for command in COMMANDS}
    usage = {command: _digest(_help_and_usage_outputs(command)) for command in HELP_AND_USAGE}
    loo = {e.id: _digest(_leave_one_out_outputs(e.id, directory)[1]) for e in bundled.entries}
    return {
        "box": box,
        "deep": deep,
        "tables": tables,
        "exceptional": exceptional,
        "commands": commands,
        "help_and_usage": usage,
        "leave_one_out": loo,
    }


@pytest.mark.parametrize("pair", PAIRS)
def test_classify_box_matches_recorded_digest(pair):
    assert _digest(_classify_box(*pair)) == CLASSIFY_BOX[pair]


@pytest.mark.parametrize("case", DEEP_QUERIES)
def test_long_chains_match_recorded_digest(case):
    output = _run(("classify", *_query_flags(case), "--json"))
    assert _digest([output]) == CLASSIFY_DEEP[case]


@pytest.mark.parametrize("pair", PAIRS)
def test_table_json_matches_recorded_digest(pair):
    r, n = pair
    output = _run(("table", "--r", str(r), "--n", str(n), "--json"))
    assert _digest([output]) == TABLE_JSON[pair]


@pytest.mark.parametrize("case", list(EXCEPTIONAL))
def test_exceptional_case_matches_recorded_digest(case):
    assert _digest(_exceptional_outputs(case)) == EXCEPTIONAL[case]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_matches_recorded_digest(command):
    assert _digest([_run(command.split())]) == COMMANDS[command]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="recorded with Python 3.11's argparse")
@pytest.mark.parametrize("command", list(HELP_AND_USAGE))
def test_help_and_usage_match_recorded_digest(command):
    assert _digest(_help_and_usage_outputs(command)) == HELP_AND_USAGE[command]


@pytest.mark.parametrize("entry_id", list(LEAVE_ONE_OUT))
def test_leave_one_out_matches_recorded_digest(entry_id, tmp_path):
    sweep, outputs = _leave_one_out_outputs(entry_id, tmp_path)
    # every bundled entry is load-bearing: the sweep notices its absence
    assert not sweep.ok
    assert _digest(outputs) == LEAVE_ONE_OUT[entry_id]


def test_every_bundled_entry_is_covered():
    assert [e.id for e in load_ledger().entries] == list(LEAVE_ONE_OUT)


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for name, table in compute_digests(Path(tmp)).items():
            print(name)
            for key, value in table.items():
                print(f"    {key!r}: {value!r},")
