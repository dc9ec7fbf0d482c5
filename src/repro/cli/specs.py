"""Spec-string parsing: ``--dynamics ppr:alpha=0.1,eps=1e-4`` and friends.

The CLI addresses the dynamics records — and, with the same grammar,
the refiner records (``--refine mqi,flow:radius=2``, see
:func:`parse_refiner_chain`) — with compact spec strings so a whole
workload fits on one command line.  Dynamics strings:

* ``ppr`` — a bare dynamics name or alias (``pagerank``, ``acl``, ...)
  selects that dynamics with its default axes;
* ``ppr:alpha=0.1`` — ``name:key=value`` pairs override spec fields; the
  valid keys are exactly the spec dataclass's fields (``alpha`` for PPR,
  ``t`` for the heat kernel, ``steps``/``walk_alpha`` for the lazy walk);
* ``alpha=0.05/0.15`` — ``/``-separated values give a multi-point axis;
* ``eps=1e-4`` (aliases ``epsilon``, ``epsilons``) sets the truncation
  epsilons of the enclosing :class:`~repro.dynamics.DiffusionGrid` rather
  than a spec field;
* ``ppr:alpha=0.1,hk:t=5,walk`` — commas separate both parameters and
  specs: a token containing ``:`` (or a bare name) starts a new spec, a
  ``key=value`` token extends the one before it.

Parsing resolves names through :func:`repro.dynamics.get_dynamics`, so
every alias spelling works, and an unknown name fails with the lookup's
own did-you-mean error.  A new dynamics or refiner is one more record in
the :data:`~repro.dynamics.DYNAMICS` or :data:`~repro.refine.REFINERS`
tuple; its spec fields become valid keys here with no parser change.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass

from repro.dynamics import DiffusionGrid, get_dynamics
from repro.exceptions import InvalidParameterError
from repro.execution import get_executor
from repro.refine import get_refiner

__all__ = [
    "DynamicsRequest",
    "parse_dynamics_list",
    "parse_dynamics_spec",
    "parse_executor_spec",
    "parse_refiner_chain",
]

# Keys routed to the grid's epsilon axis instead of a spec field.
_EPSILON_KEYS = ("eps", "epsilon", "epsilons")

_INT_RE = re.compile(r"[+-]?\d+")


def _parse_number(text, *, context):
    """Parse one numeric literal (int preferred, float otherwise)."""
    token = text.strip()
    if _INT_RE.fullmatch(token):
        return int(token)
    try:
        return float(token)
    except ValueError:
        raise InvalidParameterError(
            f"{context}: expected a number, got {text!r}"
        ) from None


def _parse_value(text, *, context):
    """Parse a scalar or a ``/``-separated axis of numeric values."""
    parts = [p for p in str(text).split("/") if p.strip()]
    if not parts:
        raise InvalidParameterError(f"{context}: empty value")
    values = tuple(_parse_number(p, context=context) for p in parts)
    return values[0] if len(values) == 1 else values


@dataclass
class DynamicsRequest:
    """One parsed ``--dynamics`` entry: a dynamics record plus overrides.

    Attributes
    ----------
    kind:
        The resolved :class:`~repro.dynamics.DynamicsKind`.
    params:
        Spec-field overrides parsed from the string (empty for a bare
        name, which means "use the record's defaults").
    epsilons:
        Grid epsilons parsed from ``eps=...`` (``None`` = spec defaults).
    raw:
        The original spec-string token, recorded verbatim in manifests.
    """

    kind: object
    params: dict
    epsilons: tuple
    raw: str

    @property
    def key(self):
        """Canonical key of the requested dynamics."""
        return self.kind.key

    def spec(self):
        """The frozen spec instance: overrides applied to the spec type."""
        return self.kind.spec_type(**self.params)

    def local_spec(self, graph=None):
        """Single-point spec for the seed → cluster driver.

        A bare name resolves to the dynamics' default local
        point (e.g. the walk's step count depends on the graph size);
        explicit parameters are honored as given.
        """
        if not self.params:
            return self.kind.local_spec(graph)
        return self.spec()

    def grid(self, *, epsilons=None, **overrides):
        """Build the :class:`~repro.dynamics.DiffusionGrid` for this entry.

        Per-spec ``eps=...`` overrides win over the caller's ``epsilons``
        (the CLI-level ``--epsilons`` default).
        """
        resolved = self.epsilons if self.epsilons is not None else epsilons
        return DiffusionGrid(self.spec(), epsilons=resolved, **overrides)


def _parse_pairs(kind, pairs, *, label, resolve=None, extra=(), hint=""):
    """Yield ``(field, value)`` for ``key=value`` pairs of one spec string.

    The one loop behind ``--dynamics``, ``--executor`` and ``--refine``:
    each key is lower-cased, mapped through ``resolve`` (a field-alias
    table) when given, checked against the fields of ``kind.spec_type``
    plus the ``extra`` keys the caller handles itself, and its value
    parsed.  ``label`` (``"--dynamics 'ppr:alpha=0.1'"``) prefixes every
    message; ``hint`` ends the unknown-parameter one.
    """
    fields = {f.name for f in dataclasses.fields(kind.spec_type)}
    for key, value in pairs:
        key = key.strip().lower()
        if resolve is not None:
            key = resolve(key)
        if key not in fields and key not in extra:
            raise InvalidParameterError(
                f"{label}: unknown parameter {key!r} for {kind.key!r}; "
                f"expected one of {sorted(fields)}{hint}"
            )
        yield key, _parse_value(value, context=f"{label}: {key}")


def _build_request(name, pairs, raw):
    kind = get_dynamics(name)  # UnknownDynamicsError lists names + aliases
    params, epsilons = {}, None
    for key, parsed in _parse_pairs(
        kind, pairs, label=f"--dynamics {raw!r}", extra=_EPSILON_KEYS,
        hint=" or eps=...",
    ):
        if key in _EPSILON_KEYS:
            epsilons = parsed if isinstance(parsed, tuple) else (parsed,)
        else:
            params[key] = parsed
    return DynamicsRequest(kind=kind, params=params, epsilons=epsilons,
                           raw=raw)


def _group_spec_tokens(text, *, option, kind):
    """Split a comma-separated spec string into (name, pairs, raw) groups.

    The shared grammar of ``--dynamics`` and ``--refine``: a token
    containing ``:`` (or a bare name) starts a new spec, a ``key=value``
    token extends the one before it.
    """
    groups = []  # [name, [(key, value), ...], raw_tokens]
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        head, sep, tail = token.partition(":")
        if sep:
            group = [head.strip(), [], [token]]
            groups.append(group)
            if tail.strip():
                key, eq, value = tail.partition("=")
                if not eq:
                    raise InvalidParameterError(
                        f"{option}: expected key=value after ':' in "
                        f"{token!r}"
                    )
                group[1].append((key, value))
        elif "=" in token:
            if not groups:
                raise InvalidParameterError(
                    f"{option}: parameter {token!r} appears before any "
                    f"{kind} name (write name:key=value)"
                )
            key, _, value = token.partition("=")
            groups[-1][1].append((key, value))
            groups[-1][2].append(token)
        else:
            groups.append([token, [], [token]])
    if not groups:
        raise InvalidParameterError(
            f"{option}: expected at least one {kind} name"
        )
    return groups


def parse_dynamics_list(text):
    """Parse a full ``--dynamics`` value into :class:`DynamicsRequest`\\ s.

    ``"ppr,hk,walk"`` gives three default-axis requests;
    ``"ppr:alpha=0.1,eps=1e-4"`` one request with overrides; mixtures
    like ``"ppr:alpha=0.1,hk"`` work because a ``key=value`` token binds
    to the most recent spec while any other token starts a new one.
    """
    groups = _group_spec_tokens(text, option="--dynamics", kind="dynamics")
    return [
        _build_request(name, pairs, ",".join(raw_tokens))
        for name, pairs, raw_tokens in groups
    ]


def parse_dynamics_spec(text):
    """Parse a ``--dynamics`` value that must name exactly one dynamics."""
    requests = parse_dynamics_list(text)
    if len(requests) != 1:
        raise InvalidParameterError(
            f"expected exactly one dynamics, got "
            f"{[r.key for r in requests]} from {text!r}"
        )
    return requests[0]


def parse_executor_spec(text):
    """Parse a ``--executor`` value into a frozen executor spec.

    One spec in the shared ``--dynamics`` grammar, resolved through
    :func:`repro.execution.get_executor`: ``"serial"`` / ``"process"``
    select those strategies with their defaults, and
    ``"chaos:seed=3,kills=2,abort_after=4"`` parameterizes the fault
    injector — valid keys are exactly the spec dataclass's fields.
    Unknown names fail with the did-you-mean
    :class:`~repro.execution.UnknownExecutorError`.
    """
    groups = _group_spec_tokens(text, option="--executor", kind="executor")
    if len(groups) != 1:
        raise InvalidParameterError(
            f"--executor: expected exactly one executor, got "
            f"{[group[0] for group in groups]} from {text!r}"
        )
    name, pairs, raw_tokens = groups[0]
    raw = ",".join(raw_tokens)
    kind = get_executor(name)  # UnknownExecutorError lists names + aliases
    params = dict(_parse_pairs(kind, pairs, label=f"--executor {raw!r}"))
    return kind.spec_type(**params)


def _build_refiner(name, pairs, raw):
    kind = get_refiner(name)  # UnknownRefinerError lists names + aliases
    aliases = sorted(alias for alias, _ in kind.field_aliases)
    params = dict(_parse_pairs(
        kind, pairs, label=f"--refine {raw!r}", resolve=kind.resolve_field,
        hint=f" (aliases: {aliases})" if aliases else "",
    ))
    return kind.spec_type(**params)


def parse_refiner_chain(text):
    """Parse a ``--refine`` value into an ordered tuple of refiner specs.

    The same grammar as ``--dynamics``, resolved through
    :func:`repro.refine.get_refiner`: ``"mqi"`` is one default-knob stage,
    ``"mqi,flow:radius=2"`` a two-stage chain, and short parameter
    aliases (``radius`` → ``dilation_radius``, ``rounds`` →
    ``max_rounds``, ``gamma`` → ``gamma_fraction``) come from each
    :class:`~repro.refine.RefinerKind`'s ``field_aliases`` table.
    Unknown names fail with the lookup's own error (listing canonical
    names and aliases).
    """
    groups = _group_spec_tokens(text, option="--refine", kind="refiner")
    return tuple(
        _build_refiner(name, pairs, ",".join(raw_tokens))
        for name, pairs, raw_tokens in groups
    )
