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
  knows how to build serial executions (and, optionally, the lane
  family the batch kernels run)
  (:func:`register_algorithm`); :mod:`repro.scenario.trial` derives
  the one picklable trial every executor dispatches from those;
* *components* (network / adversary / faults) are declared parameter
  namespaces (:func:`declare_network` and friends): the family's own
  ``build`` interprets them, so declaring one never imports foreign
  machinery into this module.

:func:`validate_params` is the one place where given flat parameters
become a run's parameters, and where a family's :class:`Constraint`
declarations (the paper's preconditions, such as DAC's ``n > 2f``)
are held.

This module depends only on the standard library and the spec
vocabulary; resolution against the live trial machinery lives in
:mod:`repro.scenario.resolve`.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.scenario.spec import Scalar, SpecError

__all__ = [
    "MISSING",
    "Constraint",
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
    "flat_params",
    "unregister",
    "validate_params",
]

KINDS = ("algorithm", "network", "adversary", "faults")
SECTIONS = KINDS[1:]  # a spec's component sections, in parameter order

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
    """One declared parameter: name, scalar type, default, choices, bounds.

    ``type`` is one of ``int | float | str | bool``; ``float`` accepts
    finite values only, integer literals included; ``int`` rejects
    booleans. ``default=MISSING`` makes the parameter required;
    ``nullable`` admits ``none``.
    ``low`` and ``high`` are inclusive bounds on a numeric value
    (``None``: unbounded on that side); a size-bearing parameter
    declares a ceiling so that no spec can ask for an execution of
    unbounded size.
    """

    name: str
    type: str = "str"
    default: Any = MISSING
    choices: tuple[Scalar, ...] | None = None
    nullable: bool = False
    low: int | None = None
    high: int | None = None

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
            if not abs(value) <= sys.float_info.max:  # false for nan too
                raise SpecError(field, f"expected a finite float, got {value!r}")
            value = float(value)
        if self.choices is not None and value not in self.choices:
            raise SpecError(
                field,
                f"{value!r} is not one of {', '.join(repr(c) for c in self.choices)}",
            )
        if (self.low is not None and value < self.low) or (
            self.high is not None and value > self.high
        ):
            low = "-inf" if self.low is None else self.low
            high = "inf" if self.high is None else self.high
            raise SpecError(field, f"{value!r} is outside [{low}, {high}]")
        return value


@dataclass(frozen=True)
class Constraint:
    """A family's cross-parameter precondition: where ``holds(params)``
    is false, :class:`SpecError` names ``field`` with ``message``
    formatted from the params (``"DAC needs n >= 2f+1, got n={n}"``)."""

    field: str
    holds: Callable[[Mapping[str, Any]], bool]
    message: str


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


def flat_params(
    entry: RegistryEntry, components: Mapping[str, RegistryEntry] | None = None
) -> dict[str, tuple[str, ParamSpec]]:
    """``name -> (section, ParamSpec)`` over the family's flat space.

    The algorithm's own parameters plus those of the chosen component
    in each section the family accepts (``components``, ``section ->
    entry``; the default component where a section is not given).
    Collisions between sections are a registration bug and raise
    ``ValueError``.
    """
    family: AlgorithmFamily = entry.obj
    out: dict[str, tuple[str, ParamSpec]] = {}
    for spec in entry.params:
        out[spec.name] = ("algorithm", spec)
    for section in SECTIONS:
        names = family.components.get(section)
        if not names:
            continue
        component = (components or {}).get(section) or lookup(
            section, names[0], field=section
        )
        for spec in component.params:
            if spec.name in out:
                raise ValueError(
                    f"parameter {spec.name!r} of {section} {component.name!r} "
                    f"collides with {out[spec.name][0]} in family {entry.name!r}"
                )
            out[spec.name] = (section, spec)
    return out


def validate_params(
    entry: RegistryEntry,
    given: Mapping[str, Scalar],
    components: Mapping[str, RegistryEntry] | None = None,
) -> dict[str, Scalar]:
    """The run parameters of family ``entry`` from ``given`` flat ones.

    Rejects names outside :func:`flat_params`, checks each given value
    against its :class:`ParamSpec`, fills the family's
    ``component_param_defaults`` or the declared defaults, runs the
    family's ``normalize`` and holds its :class:`Constraint` list. Each
    error is a :class:`SpecError` naming the field (``section.name``).
    """
    family: AlgorithmFamily = entry.obj
    space = flat_params(entry, components)
    if not given.keys() <= space.keys():
        name = min(given.keys() - space.keys())
        raise SpecError(
            f"algorithm.{name}",
            f"no section of {entry.name!r} declares this parameter "
            f"(declared: {', '.join(sorted(space))})",
        )
    params: dict[str, Scalar] = {}
    for name, (section, spec) in space.items():
        field = f"{section}.{name}"
        if name in given:
            params[name] = spec.check(field, given[name])
            continue
        default = family.component_param_defaults.get(section, {}).get(name, spec.default)
        if default is MISSING:
            raise SpecError(field, f"required parameter of {entry.name!r} is missing")
        params[name] = default
    params = family.normalize(params)
    for constraint in family.constraints:
        if not constraint.holds(params):
            raise SpecError(constraint.field, constraint.message.format(**params))
    return params


class AlgorithmFamily:
    """Base class for registered algorithm families.

    A family adapts one algorithm (and its component vocabulary) to
    the repo's execution surfaces. Subclasses override the class
    attributes, ``build``, ``lanes`` and ``normalize``, and optionally
    ``guarantees``; everything a spec can say about the family, and
    what the paper proves of it, is declared as data so the conformance
    suite, the CLI and the guarantee checker can introspect it. The trial every executor runs is derived from
    these (:func:`repro.scenario.trial.family_trial`).

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
    constraints:
        :class:`Constraint` declarations over the normalized flat
        parameters: where ``build`` would refuse them.
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
    constraints: tuple[Constraint, ...] = ()
    conformance: Mapping[str, tuple[Mapping[str, Scalar], ...]] = {}
    rounds_param: str | None = "max_rounds"

    def normalize(self, params: dict[str, Scalar]) -> dict[str, Scalar]:
        """Fill derived defaults (for example ``f`` from ``n``)."""
        return params

    def build(self, *, seed: int, **params: Any) -> dict[str, Any]:
        """Keyword arguments for :func:`repro.sim.runner.run_consensus`."""
        raise NotImplementedError

    def lanes(self, **params: Any) -> Any:
        """The :class:`repro.workloads.LaneFamily` of these parameters.

        The seed-independent half of ``build`` (a ``*_lane_family``
        function built on :func:`repro.workloads.lane_family`), which
        the batch layer (:func:`repro.sim.batch.run_lanes`) runs on a
        numpy kernel where :func:`repro.sim.batch.kernel_refusal`
        accepts it, and on serial-engine lanes
        (:class:`repro.sim.batch.GenericBatchEngine`) otherwise.
        """
        raise NotImplementedError

    def guarantees(self, **params: Any) -> Any:
        """The paper's :class:`repro.analysis.guarantees.Guarantees` for these parameters.

        ``None`` (the default) means the paper promises nothing for the
        family's executions, so :func:`repro.analysis.guarantees.check_guarantees`
        has nothing to hold them to.
        """
        return None
