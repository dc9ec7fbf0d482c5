"""Name lookup over the fixed record tables.

Dynamics, refiners and executors are each a fixed tuple of frozen
records (:data:`~repro.dynamics.DYNAMICS`, :data:`~repro.refine.REFINERS`,
:data:`~repro.execution.EXECUTORS`).  :func:`record_lookup` builds the one
``get_*`` function all three use: a canonical key per record, a table of
normalized spellings (the record's ``key``, its ``aliases`` and, for
records that have one, its display ``name``), a ``spec_type`` whose
instances and type resolve to the record, and an unknown-name error that
is both an :class:`~repro.exceptions.InvalidParameterError` (hence
``ValueError``) and a ``KeyError`` with a did-you-mean suggestion
(:func:`unknown_name_error`, which the lint rule set shares).  Spec types
match exactly: a subclass of a spec type resolves to nothing.
"""

from __future__ import annotations

import difflib

__all__ = ["normalize", "record_lookup", "unknown_name_error"]


def normalize(name):
    """The lookup form of a spelling: stripped, lower case, ``_`` joins."""
    return str(name).strip().lower().replace("-", "_").replace(" ", "_")


def unknown_name_error(error_type, noun, name, spellings):
    """The did-you-mean error for ``name``, missing from ``spellings``.

    ``spellings`` maps every normalized spelling to its canonical key
    (each key's own normalized form included); the message lists the
    keys, the other spellings, and the closest spelling's key.
    """
    aliases = sorted(
        alias for alias, key in spellings.items() if alias != normalize(key)
    )
    close = difflib.get_close_matches(normalize(name), sorted(spellings), n=1)
    hint = f"; did you mean {spellings[close[0]]!r}?" if close else ""
    return error_type(
        f"unknown {noun} {name!r}; choose from "
        f"{sorted(set(spellings.values()))} (aliases: {aliases}){hint}"
    )


def record_lookup(records, error_type, noun):
    """The ``get_*`` function of a fixed tuple of records.

    The returned function maps a name or alias (case- and
    separator-insensitive), a record, a spec instance or an exact spec
    type to its record, and raises ``error_type`` with a did-you-mean
    suggestion for anything else.
    """
    record_type = type(records[0])
    by_key = {record.key: record for record in records}
    by_spec_type = {record.spec_type: record for record in records}
    spellings = {}
    for record in records:
        names = (record.key, *record.aliases)
        if getattr(record, "name", None):  # executors have no display name
            names += (record.name,)
        for name in names:
            spellings[normalize(name)] = record.key

    def get(name):
        if isinstance(name, str):
            record = by_key.get(spellings.get(normalize(name)))
        elif isinstance(name, record_type):
            record = by_key.get(name.key)
        elif isinstance(name, type):
            record = by_spec_type.get(name)
        else:
            record = by_spec_type.get(type(name))
        if record is None:
            raise unknown_name_error(error_type, noun, name, spellings)
        return record

    get.__name__ = get.__qualname__ = f"get_{noun}"
    get.__doc__ = (
        f"The {noun} record for a name, alias, record, spec or spec type.\n\n"
        "Names match case- and separator-insensitively; a spec or spec "
        "type matches by exact type.  Anything else raises "
        f"{error_type.__name__} with a did-you-mean suggestion."
    )
    return get
