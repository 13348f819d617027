"""Declarative scenarios: a frozen spec DSL plus a pluggable registry.

The package splits in two layers. The *vocabulary* --
:mod:`repro.scenario.spec` (frozen, content-hashed
:class:`~repro.scenario.spec.ScenarioSpec` with text/JSON round-trip)
and :mod:`repro.scenario.registry` (``(kind, name, version)`` entries
with declared parameters) -- is stdlib-only and sits at the bottom of
the layer DAG, so any module may speak it. *Resolution*
(:mod:`repro.scenario.resolve`) binds names to the live trial
machinery and sits above :mod:`repro.workloads`; so does
:mod:`repro.scenario.trial`, the one picklable trial per family.

See ``docs/scenarios.md`` for the DSL grammar and the
"add an algorithm in one module" recipe.
"""

from repro.scenario.registry import (
    AlgorithmFamily,
    Constraint,
    ParamSpec,
    RegistryEntry,
    declare_adversary,
    declare_faults,
    declare_network,
    entries,
    lookup,
    register_adversary,
    register_algorithm,
    register_faults,
    register_network,
    unregister,
    validate_params,
)
from repro.scenario.resolve import (
    ResolvedScenario,
    algorithm_entries,
    ensure_builtin_families,
    flat_params,
    resolve,
    spec_for,
)
from repro.scenario.spec import ComponentRef, ScenarioSpec, SpecError, parse_spec
from repro.scenario.trial import FamilyTrial, family_trial

__all__ = [
    "AlgorithmFamily",
    "ComponentRef",
    "Constraint",
    "FamilyTrial",
    "ParamSpec",
    "RegistryEntry",
    "ResolvedScenario",
    "ScenarioSpec",
    "SpecError",
    "algorithm_entries",
    "declare_adversary",
    "declare_faults",
    "declare_network",
    "ensure_builtin_families",
    "entries",
    "family_trial",
    "flat_params",
    "lookup",
    "parse_spec",
    "register_adversary",
    "register_algorithm",
    "register_faults",
    "register_network",
    "resolve",
    "spec_for",
    "unregister",
    "validate_params",
]
