"""Every record keeps the behaviour it had as a ``collections.namedtuple``
subclass: fields, construction, ``_replace``, repr, equality, hashing, copy
and pickle.  Each is checked against a namedtuple built from the record's
former field string and defaults."""

import copy
import pickle
from collections import namedtuple

import pytest

from gensect import cli
from gensect.audits import (
    ConditionCount,
    DimensionDeficit,
    ExceptionalCase,
    ExternalFact,
)
from gensect.engine import DerivationTrace, Query, Segment, Verdict
from gensect.lattices import DivisorClass, K3Stats, LatticeError, Positivity, SurfaceModel
from gensect.ledger import GlueData, LedgerEntry
from gensect.numerology import BNIndex
from gensect.schubert import SchubertCycle, SchubertError
from gensect.verify import CheckResult

LEAF = Segment((3, 2, 9, 4), "ledger", 1, "r3n2-interp-9-4")

#: Per record: the class, its namedtuple field string and defaults, and one
#: valid value per field, already in the form its constructor stores.
RECORDS = [
    (BNIndex, "r d g", (), (3, 9, 4)),
    (GlueData, "d2 g2 points twist", (), (3, 0, 4, 1)),
    (
        LedgerEntry,
        "id r n d g tag citation quote premises glue rho_exempt premises_stated_only note",
        ((), None, False, False, None),
        (
            "r3n2-hglue-7-2", 3, 2, 7, 2, "HyperplaneGlue", "cite", "quote",
            ((3, 2, 4, 1),), GlueData(3, 0, 4, 1), True, True, "a note",
        ),
    ),
    (ConditionCount, "points h0 comparison system", (), (10, 10, "lies_on", "quadrics")),
    (DimensionDeficit, "components ambient_dim", (), ((("bases", 3), ("points", 4)), 10)),
    (ExternalFact, "citation", (), ("a cited bound",)),
    (
        ExceptionalCase,
        "case points description evidence note",
        (None,),
        ((3, 2, 4, 1), 8, "eight points", ExternalFact("a cited bound"), "a note"),
    ),
    (Query, "r n d g", (), (3, 2, 30, 20)),
    (Segment, "case rule repeat entry_id", (1, None), ((3, 2, 30, 20), "add_line", 21, "e")),
    (DerivationTrace, "segments", (), ((LEAF,),)),
    (
        Verdict,
        "status reason trace descriptor",
        (None, None, None),
        ("general", "a reason", DerivationTrace((LEAF,)), ExternalFact("x")),
    ),
    (DivisorClass, "coeffs", (), ((2, -1),)),
    (
        SurfaceModel,
        "kind gram canonical basis_names kind_tag",
        ("rational",),
        ("polarized", ((6, 4), (4, -2)), (0, 0), ("H", "R"), "k3"),
    ),
    (Positivity, "nef big ample", (), (True, True, False)),
    (K3Stats, "genus degree h0", (), (7, 10, 8)),
    (SchubertCycle, "ambient_n terms", (), (3, (((1, 0), 2), ((2, 2), -1)))),
    (CheckResult, "id description ok detail", (), ("k3-case-study", "K3", True, "")),
    # flags is a dict in the command table; a tuple keeps the value hashable
    (cli._Flag, "dest type required default help", (False, None, None), ("r", int, True, 5, "h")),
    (
        cli._Command,
        "handler help flags positional",
        (None,),
        (cli._cmd_classify, "classify one query", (), ("classes", "the classes")),
    ),
]

PARAMS = pytest.mark.parametrize(
    "cls, fields, defaults, values", RECORDS, ids=[row[0].__name__ for row in RECORDS]
)


def reference(cls, fields, defaults):
    return namedtuple(cls.__name__, fields, defaults=defaults)


def test_every_record_is_listed():
    assert len(RECORDS) == len({row[0] for row in RECORDS}) == 19


@PARAMS
def test_fields_and_construction(cls, fields, defaults, values):
    ref = reference(cls, fields, defaults)
    assert cls._fields == ref._fields == tuple(fields.split())
    record = cls(*values)
    assert type(record) is cls
    assert record == ref(*values) == values
    assert cls(**dict(zip(cls._fields, values))) == record
    assert [getattr(record, name) for name in cls._fields] == list(values)
    required = len(values) - len(defaults)
    assert cls(*values[:required]) == ref(*values[:required]) == values[:required] + defaults


@PARAMS
def test_replace(cls, fields, defaults, values):
    record, ref = cls(*values), reference(cls, fields, defaults)(*values)
    last = cls._fields[-1]
    changed = record._replace(**{last: "changed"})
    assert type(changed) is cls
    assert changed == ref._replace(**{last: "changed"})
    assert record == values  # unchanged
    with pytest.raises(ValueError) as raised:
        record._replace(no_such_field=1)
    with pytest.raises(ValueError) as expected:
        ref._replace(no_such_field=1)
    assert str(raised.value) == str(expected.value)


@PARAMS
def test_repr_equality_and_hash(cls, fields, defaults, values):
    record, ref = cls(*values), reference(cls, fields, defaults)(*values)
    assert repr(record) == repr(ref)
    assert record == tuple(values) and tuple(values) == record
    assert hash(record) == hash(tuple(values))


@PARAMS
def test_copy_and_pickle_round_trip(cls, fields, defaults, values):
    record = cls(*values)
    for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls
        assert twin == record


@PARAMS
def test_no_instance_dict(cls, fields, defaults, values):
    record = cls(*values)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.unknown = None


def test_k3_stats_repr_as_verify_all_prints_it():
    assert repr(K3Stats(7, 10, 8)) == "K3Stats(genus=7, degree=10, h0=8)"


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: BNIndex(1, 9, 4), ValueError),
        (lambda: BNIndex(3, 0, 4), ValueError),
        (lambda: BNIndex(3, 9, -1), ValueError),
        (lambda: DerivationTrace(()), ValueError),
        (lambda: SurfaceModel("polarized", ((1, 2), (3, 1)), (0, 0), ("a", "b")), LatticeError),
        (lambda: SchubertCycle(1, ()), SchubertError),
    ],
    ids=["BNIndex-r", "BNIndex-d", "BNIndex-g", "DerivationTrace", "SurfaceModel", "SchubertCycle"],
)
def test_validating_constructors_still_reject_bad_input(build, error):
    with pytest.raises(error):
        build()
