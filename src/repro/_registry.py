"""One registry implementation behind every extension point.

Dynamics, refiners, kernel backends, lint rules and executors are each a
:class:`Registry` of frozen records: a canonical key per record, a table
of normalized alternative spellings, and an unknown-name error that is
both an :class:`~repro.exceptions.InvalidParameterError` (hence
``ValueError``) and a ``KeyError`` with a did-you-mean suggestion.

The five differ only in which record fields are accepted as spellings
(every record's ``key`` and ``aliases``; dynamics and refiners also their
display ``name``, lint rules their ``code``) and in whether a record
binds a ``spec_type`` whose instances and type resolve to it (dynamics,
refiners, executors).  Spec types match exactly: a subclass is its own
entry and must be registered itself.

Each owning module keeps its public names as bound methods, e.g.
``register_backend = BACKENDS.register``.
"""

from __future__ import annotations

import difflib

from repro.exceptions import InvalidParameterError

__all__ = ["Registry", "normalize"]


def normalize(name):
    """The lookup form of a spelling: stripped, lower case, ``_`` joins."""
    return str(name).strip().lower().replace("-", "_").replace(" ", "_")


class Registry:
    """Canonical key -> record, with aliases, spec types and typed errors.

    Parameters
    ----------
    noun:
        What the registry holds, for messages (``"backend"``).
    kind_type:
        The record class every registration must be an instance of.
    error_type:
        The unknown-name error class (an ``InvalidParameterError`` and
        ``KeyError`` subclass).
    spellings:
        Record fields, beyond ``key`` and ``aliases``, whose values are
        accepted as names (``("name",)``, ``("code",)``).
    specs:
        Whether records carry a ``spec_type`` that resolves to them.
    """

    def __init__(self, noun, kind_type, error_type, *, spellings=(),
                 specs=False):
        self.noun = noun
        self.kind_type = kind_type
        self.error_type = error_type
        self._spellings = tuple(spellings)
        self._specs = specs
        self._entries = {}      # canonical key -> record
        self._aliases = {}      # normalized spelling -> canonical key
        self._spec_types = {}   # spec type -> canonical key

    def _names(self, kind):
        fields = [kind.key, *kind.aliases]
        fields += [getattr(kind, name) for name in self._spellings]
        return {normalize(name) for name in fields}

    def register(self, kind, *, overwrite=False):
        """Register a record under its key, aliases and extra spellings.

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
        if not kind.key or (self._specs and kind.spec_type is None):
            raise InvalidParameterError(
                f"a {self.kind_type.__name__} needs a canonical key"
                + (" and a spec_type" if self._specs else "")
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
            if self._specs and kind.spec_type in self._spec_types:
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
        if self._specs:
            self._spec_types[kind.spec_type] = kind.key
        return kind

    def unregister(self, name):
        """Remove a record (and all its spellings); returns the record."""
        key = self.resolve(name)
        kind = self._entries.pop(key)
        for alias in [a for a, k in self._aliases.items() if k == key]:
            del self._aliases[alias]
        if self._specs:
            self._spec_types.pop(kind.spec_type, None)
        return kind

    def resolve(self, name):
        """Canonical key for a name, alias, record, spec, or spec type."""
        if isinstance(name, self.kind_type):
            key = name.key
        elif self._specs and isinstance(name, type):
            key = self._spec_types.get(name)
        elif self._specs and not isinstance(name, str):
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
        aliases = sorted(
            alias for alias, key in self._aliases.items()
            if alias != normalize(key)
        )
        close = difflib.get_close_matches(
            normalize(name), sorted(self._aliases), n=1
        )
        hint = f"; did you mean {self._aliases[close[0]]!r}?" if close else ""
        return self.error_type(
            f"unknown {self.noun} {name!r}; choose from "
            f"{sorted(self._entries)} (aliases: {aliases}){hint}"
        )
