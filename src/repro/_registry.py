"""One registry implementation behind both extension points.

Dynamics and refiners are each a :class:`Registry` of frozen records: a
canonical key per record, a table of normalized alternative spellings
(the record's ``key``, its ``aliases`` and its display ``name``), a
``spec_type`` whose instances and type resolve to the record, and an
unknown-name error that is both an
:class:`~repro.exceptions.InvalidParameterError` (hence ``ValueError``)
and a ``KeyError`` with a did-you-mean suggestion
(:func:`unknown_name_error`, which the fixed executor and lint rule sets
share).  Spec types match exactly: a subclass is its own entry and must
be registered itself.

Each owning module keeps its public names as bound methods, e.g.
``register_refiner = REFINERS.register``.
"""

from __future__ import annotations

import difflib

from repro.exceptions import InvalidParameterError

__all__ = ["Registry", "normalize", "unknown_name_error"]


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


class Registry:
    """Canonical key -> record, with aliases, spec types and typed errors.

    Parameters
    ----------
    noun:
        What the registry holds, for messages (``"refiner"``).
    kind_type:
        The record class every registration must be an instance of.
    error_type:
        The unknown-name error class (an ``InvalidParameterError`` and
        ``KeyError`` subclass).
    """

    def __init__(self, noun, kind_type, error_type):
        self.noun = noun
        self.kind_type = kind_type
        self.error_type = error_type
        self._entries = {}      # canonical key -> record
        self._aliases = {}      # normalized spelling -> canonical key
        self._spec_types = {}   # spec type -> canonical key

    def _names(self, kind):
        names = (kind.key, *kind.aliases, kind.name)
        return {normalize(name) for name in names}

    def register(self, kind, *, overwrite=False):
        """Register a record under its key, aliases and display name.

        Raises :class:`~repro.exceptions.InvalidParameterError` when the
        key, a spelling or the spec type is already taken (pass
        ``overwrite=True`` to replace a previous registration).  Returns
        the record, so registration can be used as an expression.
        """
        if not isinstance(kind, self.kind_type):
            raise InvalidParameterError(
                f"registering a {self.noun} needs an instance of "
                f"{self.kind_type.__name__}; got {kind!r}"
            )
        if not kind.key or kind.spec_type is None:
            raise InvalidParameterError(
                f"a {self.kind_type.__name__} needs a canonical key and a "
                "spec_type"
            )
        names = self._names(kind)
        if kind.key in self._entries:
            if not overwrite:
                raise InvalidParameterError(
                    f"{self.noun} {kind.key!r} is already registered; pass "
                    "overwrite=True to replace it"
                )
            self.unregister(kind.key)
        if not overwrite:
            taken = sorted(
                f"{name!r} (for {self._aliases[name]!r})"
                for name in names if name in self._aliases
            )
            if kind.spec_type in self._spec_types:
                taken.append(
                    f"spec type {kind.spec_type.__name__} (for "
                    f"{self._spec_types[kind.spec_type]!r})"
                )
            if taken:
                raise InvalidParameterError(
                    f"{self.noun} names already registered: "
                    + ", ".join(taken)
                )
        self._entries[kind.key] = kind
        for name in names:
            self._aliases[name] = kind.key
        self._spec_types[kind.spec_type] = kind.key
        return kind

    def unregister(self, name):
        """Remove a record (and all its spellings); returns the record."""
        key = self.resolve(name)
        kind = self._entries.pop(key)
        for alias in [a for a, k in self._aliases.items() if k == key]:
            del self._aliases[alias]
        self._spec_types.pop(kind.spec_type, None)
        return kind

    def resolve(self, name):
        """Canonical key for a name, alias, record, spec, or spec type."""
        if isinstance(name, self.kind_type):
            key = name.key
        elif isinstance(name, type):
            key = self._spec_types.get(name)
        elif not isinstance(name, str):
            key = self._spec_types.get(type(name))
        else:
            key = self._aliases.get(normalize(name))
        if key not in self._entries:
            raise self._unknown(name)
        return key

    def get(self, name):
        """The registered record for anything :meth:`resolve` accepts."""
        return self._entries[self.resolve(name)]

    def registered(self):
        """Snapshot of the registry: canonical key -> record."""
        return dict(self._entries)

    def _unknown(self, name):
        return unknown_name_error(
            self.error_type, self.noun, name, self._aliases
        )
