"""The pluggable scenario registry: names and versions, as data.

Algorithm families, dynamic-graph sources, adversaries and fault
plans are registered here under ``(kind, name, version)`` keys, so a
:class:`~repro.scenario.spec.ScenarioSpec` can refer to any of them
by name alone (the Sawtooth ``consensus.algorithm.name/version``
idiom). Registration happens once, at import time, in the module
that owns the component -- the ``registry-registration`` lint rule
pins that discipline -- which keeps resolution deterministic: the
same spec resolves to the same objects in every process.

Two flavours of entry coexist:

* *algorithm families* carry an :class:`AlgorithmFamily` object that
  knows how to build serial executions, run trials, and batch lanes
  (:func:`register_algorithm`);
* *components* (network / adversary / faults) are declared parameter
  namespaces (:func:`declare_network` and friends): the family's own
  ``build`` interprets them, so declaring one never imports foreign
  machinery into this module.

This module depends only on the standard library and the spec
vocabulary; resolution against the live trial machinery lives in
:mod:`repro.scenario.resolve`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.scenario.spec import Scalar, SpecError

__all__ = [
    "MISSING",
    "ParamSpec",
    "RegistryEntry",
    "AlgorithmFamily",
    "register_algorithm",
    "register_network",
    "register_adversary",
    "register_faults",
    "declare_network",
    "declare_adversary",
    "declare_faults",
    "lookup",
    "entries",
    "unregister",
]

KINDS = ("algorithm", "network", "adversary", "faults")

#: Sentinel for "no default: the spec must supply this parameter".
MISSING = object()

_TYPES: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bool": (bool,),
}


@dataclass(frozen=True)
class ParamSpec:
    """One declared parameter: name, scalar type, default, choices.

    ``type`` is one of ``int | float | str | bool``; ``float`` accepts
    integer literals, ``int`` rejects booleans. ``default=MISSING``
    makes the parameter required; ``nullable`` admits ``none``.
    """

    name: str
    type: str = "str"
    default: Any = MISSING
    choices: tuple[Scalar, ...] | None = None
    nullable: bool = False

    def __post_init__(self) -> None:
        if self.type not in _TYPES:
            raise ValueError(f"unknown parameter type {self.type!r} for {self.name!r}")

    @property
    def required(self) -> bool:
        return self.default is MISSING

    def check(self, field: str, value: Any) -> Scalar:
        """Validate one value against this spec, naming ``field`` on error."""
        if value is None:
            if self.nullable:
                return None
            raise SpecError(field, "parameter is not nullable")
        accepted = _TYPES[self.type]
        if isinstance(value, bool) and self.type != "bool":
            raise SpecError(field, f"expected {self.type}, got bool {value!r}")
        if not isinstance(value, accepted):
            raise SpecError(
                field, f"expected {self.type}, got {type(value).__name__} {value!r}"
            )
        if self.type == "float":
            value = float(value)
        if self.choices is not None and value not in self.choices:
            raise SpecError(
                field,
                f"{value!r} is not one of {', '.join(repr(c) for c in self.choices)}",
            )
        return value


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: key, payload, declared parameters."""

    kind: str
    name: str
    version: int
    obj: Any
    params: tuple[ParamSpec, ...] = ()
    description: str = ""

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.kind, self.name, self.version)

    def param(self, name: str) -> ParamSpec | None:
        for spec in self.params:
            if spec.name == name:
                return spec
        return None


_REGISTRY: dict[tuple[str, str, int], RegistryEntry] = {}


def _register_entry(entry: RegistryEntry) -> RegistryEntry:
    if entry.kind not in KINDS:
        raise ValueError(f"unknown registry kind {entry.kind!r}")
    if entry.key in _REGISTRY:
        raise ValueError(
            f"{entry.kind} {entry.name!r} version {entry.version} is already "
            "registered; bump the version instead of re-registering"
        )
    seen: set[str] = set()
    for spec in entry.params:
        if spec.name in seen:
            raise ValueError(
                f"{entry.kind} {entry.name!r} declares parameter "
                f"{spec.name!r} twice"
            )
        seen.add(spec.name)
    _REGISTRY[entry.key] = entry
    return entry


def register_algorithm(
    name: str,
    *,
    version: int = 1,
    params: Sequence[ParamSpec] = (),
    description: str = "",
) -> Callable[[type], type]:
    """Class decorator registering an :class:`AlgorithmFamily` subclass.

    The decorated class is instantiated once and stored as the entry's
    payload; parameter specs may be given here or as the class's
    ``params`` attribute.
    """

    def deco(cls: type) -> type:
        family = cls()
        declared = tuple(params) or tuple(getattr(family, "params", ()))
        doc = (cls.__doc__ or "").strip()
        _register_entry(
            RegistryEntry(
                kind="algorithm",
                name=name,
                version=version,
                obj=family,
                params=declared,
                description=description or (doc.splitlines()[0] if doc else ""),
            )
        )
        return cls

    return deco


def _declare(
    kind: str,
    name: str,
    *,
    version: int = 1,
    params: Sequence[ParamSpec] = (),
    description: str = "",
    obj: Any = None,
) -> RegistryEntry:
    return _register_entry(
        RegistryEntry(
            kind=kind,
            name=name,
            version=version,
            obj=obj,
            params=tuple(params),
            description=description,
        )
    )


def register_network(name: str, **kwargs: Any) -> RegistryEntry:
    """Register a dynamic-graph source under ``(network, name, version)``."""
    return _declare("network", name, **kwargs)


def register_adversary(name: str, **kwargs: Any) -> RegistryEntry:
    """Register an adversary under ``(adversary, name, version)``."""
    return _declare("adversary", name, **kwargs)


def register_faults(name: str, **kwargs: Any) -> RegistryEntry:
    """Register a fault-plan shape under ``(faults, name, version)``."""
    return _declare("faults", name, **kwargs)


# Declaration aliases: components carry no payload object, only a
# parameter namespace the owning family's ``build`` interprets.
declare_network = register_network
declare_adversary = register_adversary
declare_faults = register_faults


def lookup(
    kind: str, name: str, version: int | None = None, *, field: str | None = None
) -> RegistryEntry:
    """Resolve ``(kind, name, version)``; ``version=None`` takes the latest.

    Raises :class:`SpecError` naming ``field`` (default: the kind) when
    nothing matches, listing what *is* registered so typos are obvious.
    """
    field = field or kind
    versions = sorted(
        entry.version for entry in _REGISTRY.values()
        if entry.kind == kind and entry.name == name
    )
    if not versions:
        known = ", ".join(sorted({e.name for e in _REGISTRY.values() if e.kind == kind}))
        raise SpecError(
            field,
            f"unknown {kind} {name!r} (registered: {known or '<none>'})",
        )
    if version is None:
        version = versions[-1]
    entry = _REGISTRY.get((kind, name, version))
    if entry is None:
        raise SpecError(
            field,
            f"{kind} {name!r} has no version {version} "
            f"(registered versions: {', '.join(map(str, versions))})",
        )
    return entry


def entries(kind: str | None = None) -> tuple[RegistryEntry, ...]:
    """All registered entries (of one kind), sorted by (kind, name, version)."""
    out = [e for e in _REGISTRY.values() if kind is None or e.kind == kind]
    return tuple(sorted(out, key=lambda e: e.key))


def unregister(kind: str, name: str, version: int) -> None:
    """Remove one entry (test hook; production code never unregisters)."""
    _REGISTRY.pop((kind, name, version), None)


def validate_params(
    entry: RegistryEntry,
    given: Mapping[str, Scalar],
    *,
    prefix: str,
    defaults_override: Mapping[str, Scalar] | None = None,
) -> dict[str, Scalar]:
    """Check ``given`` against ``entry.params`` and fill defaults.

    ``prefix`` scopes error fields (``algorithm.n``); ``defaults_override``
    lets a family shift a shared component's defaults (for example dbac
    defaulting the dynadegree selector to ``nearest``) without forking
    the component declaration.
    """
    overrides = dict(defaults_override or {})
    declared = {spec.name: spec for spec in entry.params}
    for key in given:
        if key not in declared:
            known = ", ".join(sorted(declared)) or "<none>"
            raise SpecError(
                f"{prefix}.{key}",
                f"unknown parameter for {entry.kind} {entry.name!r} "
                f"(declared: {known})",
            )
    filled: dict[str, Scalar] = {}
    for name, spec in declared.items():
        if name in given:
            filled[name] = spec.check(f"{prefix}.{name}", given[name])
        elif name in overrides:
            filled[name] = spec.check(f"{prefix}.{name}", overrides[name])
        elif spec.required:
            raise SpecError(
                f"{prefix}.{name}",
                f"required parameter of {entry.kind} {entry.name!r} is missing",
            )
        else:
            filled[name] = spec.default
    return filled


class AlgorithmFamily:
    """Base class for registered algorithm families.

    A family adapts one algorithm (and its component vocabulary) to
    the repo's execution surfaces. Subclasses override the class
    attributes and the ``build``/``trial``/``batch`` trio; everything
    a spec can say about the family is declared as data so the
    conformance suite and the CLI can introspect it.

    Attributes
    ----------
    params:
        Algorithm-section :class:`ParamSpec` declarations.
    components:
        Mapping ``section -> tuple of allowed component names`` (first
        entry is the default used when the spec omits the section).
    component_param_defaults:
        ``{section: {param: default}}`` overrides applied when
        validating that component's parameters under this family.
    harness_defaults:
        Parameter overrides the differential-test harness applies
        (for example a tighter ``max_rounds`` so fuzz grids stay fast).
    conformance:
        ``{adversary_name: (param_dict, ...)}`` -- the tiny
        configurations the auto-enrolling conformance suite runs for
        each algorithm x adversary pairing.
    rounds_param:
        Name of the parameter a spec-level ``rounds`` maps onto
        (``None`` forbids the section for this family).
    """

    params: tuple[ParamSpec, ...] = ()
    components: Mapping[str, tuple[str, ...]] = {}
    component_param_defaults: Mapping[str, Mapping[str, Scalar]] = {}
    harness_defaults: Mapping[str, Scalar] = {}
    conformance: Mapping[str, tuple[Mapping[str, Scalar], ...]] = {}
    rounds_param: str | None = "max_rounds"
    #: Module-level picklable trial function (positional-free kwargs).
    trial: Callable[..., Any] | None = None

    def normalize(self, params: dict[str, Scalar]) -> dict[str, Scalar]:
        """Fill derived defaults (for example ``f`` from ``n``)."""
        return params

    def build(self, *, seed: int, **params: Any) -> dict[str, Any]:
        """Keyword arguments for :func:`repro.sim.runner.run_consensus`."""
        raise NotImplementedError

    def batch(self, seeds: Sequence[int], **params: Any):
        """Batch lanes (:class:`repro.sim.batch.LaneResult` list)."""
        raise NotImplementedError

    def trial_kwargs(self, params: Mapping[str, Scalar]) -> dict[str, Scalar]:
        """Map resolved flat params onto ``self.trial``'s signature."""
        return dict(params)

    def vectorizable(self, params: Mapping[str, Scalar]) -> bool:
        """Whether a numpy kernel runs ``batch`` for these parameters.

        ``False`` also when numpy is missing; ``batch`` then returns
        serial-engine lanes (:class:`repro.sim.batch.GenericBatchEngine`).
        """
        return False
