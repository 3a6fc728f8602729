"""Immutable records with named fields, built without ``collections``.

A record is a ``tuple`` subclass with ``__slots__ = ()`` and an explicit
``__new__(cls, field, ..., field=default)`` that returns ``_new(cls, (field,
...))``.  The ``named_fields`` decorator reads the field names off that
signature and installs what ``collections.namedtuple`` installs for them:
one accessor per field (the same C getter), ``_fields``, ``_replace``, the
``Name(field=value, ...)`` repr and ``__getnewargs__`` for copy and pickle.
The constructor is the class's own function, so building a record costs what
a namedtuple's generated ``__new__`` costs, and a record that validates or
normalizes its fields does so in the same ``__new__``.  This module loads
only the built-in ``_collections``, so a ready engine imports neither
``collections`` nor the modules it pulls in.
"""

from _collections import _tuplegetter

#: Builds the tuple of a record from its field values; no validation runs.
_new = tuple.__new__


# Not called ``record``: CPython 3.11 compiles ``name.method(...)`` as an
# attribute load and a call, not the faster method call, wherever ``name`` is
# also imported at module level, and the engine and the ledger call
# ``record.get`` on local JSON records in their loops.
def named_fields(cls: type) -> type:
    """Install the named-field protocol on ``cls``, from its ``__new__``."""
    code = cls.__new__.__code__
    fields = code.co_varnames[1 : code.co_argcount]
    for index, name in enumerate(fields):
        setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))
    repr_format = "(" + ", ".join(f"{name}=%r" for name in fields) + ")"

    def __repr__(self) -> str:
        return type(self).__name__ + repr_format % self

    cls._fields = fields
    cls._replace = _replace
    cls.__repr__ = __repr__
    cls.__getnewargs__ = _getnewargs
    return cls


def _replace(self, /, **changes):
    """A copy with the given fields replaced; like ``namedtuple._replace``,
    it does not run the record's ``__new__``."""
    result = _new(type(self), map(changes.pop, self._fields, self))
    if changes:
        raise ValueError(f"Got unexpected field names: {list(changes)!r}")
    return result


def _getnewargs(self) -> tuple:
    return tuple(self)
