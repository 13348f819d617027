"""Resolve scenario specs against the registry into runnable trials.

This is the layer where names acquire meaning: a
:class:`~repro.scenario.spec.ScenarioSpec` plus the registry yields a
:class:`ResolvedScenario` -- the algorithm family object, the chosen
component entries, and one flat, fully-defaulted parameter dict. From
there every existing execution surface is one call away: serial
builds (``build_execution``), the family's picklable trial
(``trial_fn`` / ``trial_kwargs``, see :mod:`repro.scenario.trial`,
whose ``batch_fn`` is the batched form), batch lanes (``batch``), and
the parallel sweep machinery (:func:`resolve_trial`, consumed by
:meth:`repro.bench.sweep.Sweep.run` and ``repro.cli sweep --spec``).

Resolution is deterministic: the registry is populated once at import
time (:func:`ensure_builtin_families`), parameters are validated
against the declared :class:`~repro.scenario.registry.ParamSpec` set
(errors name the offending field, ``algorithm.n`` style), and
:meth:`ResolvedScenario.canonical_spec` re-encodes the result with
every default made explicit -- a fixpoint of
``parse -> resolve -> encode``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.scenario.registry import (
    AlgorithmFamily,
    ParamSpec,
    RegistryEntry,
    entries,
    lookup,
    validate_params,
)
from repro.scenario.spec import ComponentRef, Scalar, ScenarioSpec, SpecError, parse_spec

__all__ = [
    "ResolvedScenario",
    "ensure_builtin_families",
    "resolve",
    "resolve_trial",
    "flat_params",
    "spec_for",
]

_SECTION_KINDS = {"network": "network", "adversary": "adversary", "faults": "faults"}


def ensure_builtin_families() -> None:
    """Import the modules that register the built-in families.

    Registration is an import-time side effect of the owning modules
    (the ``registry-registration`` lint rule pins that), so loading
    them is all it takes; Python's import cache makes this idempotent
    and cheap to call before every resolution.
    """
    import repro.families  # noqa: F401  (registers the averaging family)
    import repro.workloads  # noqa: F401  (registers dac/dbac/byz/baseline)


@dataclass(frozen=True)
class ResolvedScenario:
    """One spec bound to registry entries and fully-defaulted params."""

    spec: ScenarioSpec
    entry: RegistryEntry
    components: Mapping[str, RegistryEntry]
    params: Mapping[str, Scalar]

    @property
    def family(self) -> AlgorithmFamily:
        return self.entry.obj

    @property
    def trial_fn(self) -> Any:
        """The family's picklable trial (:func:`repro.scenario.trial.family_trial`)."""
        from repro.scenario.trial import family_trial  # trial imports this module

        return family_trial(self.entry.name, self.entry.version)

    @property
    def batch_fn(self) -> Any:
        """The trial's batched form."""
        return self.trial_fn.batch_fn

    def trial_kwargs(self) -> dict[str, Scalar]:
        """Keyword arguments for ``trial_fn`` (seed excluded)."""
        return dict(self.params)

    def build_execution(self, seed: int | None = None) -> dict[str, Any]:
        """Keyword arguments for :func:`repro.sim.runner.run_consensus`."""
        use = self.spec.seed if seed is None else seed
        return self.family.build(seed=use, **dict(self.params))

    def run(self, seed: int | None = None) -> dict[str, Any]:
        """Run one trial; the family's picklable summary dict."""
        use = self.spec.seed if seed is None else seed
        return self.trial_fn(seed=use, **self.params)

    def batch(self, seeds: Sequence[int]) -> list[Any]:
        """Batch lanes for ``seeds`` (:class:`repro.sim.batch.LaneResult`).

        :func:`repro.sim.batch.run_lanes` over the family's lanes, or
        serial-engine lanes over ``build`` for a family without them.
        """
        from repro.sim.batch import GenericBatchEngine, run_lanes  # loads numpy

        params = dict(self.params)
        lanes = self.family.lanes(**params)
        if lanes is None:
            return GenericBatchEngine(
                seeds, lambda seed: self.family.build(seed=seed, **params)
            ).run()
        return run_lanes(lanes, seeds)

    def canonical_spec(self) -> ScenarioSpec:
        """The spec with every component and parameter made explicit.

        Spec-level ``rounds`` is folded into the family's
        ``rounds_param``, so the canonical form is a fixpoint:
        resolving it yields these exact params again.
        """
        declared = {p.name for p in self.entry.params}
        algo = ComponentRef(
            self.entry.name,
            self.entry.version,
            tuple((k, v) for k, v in self.params.items() if k in declared),
        )
        refs: dict[str, ComponentRef | None] = {}
        for section, entry in self.components.items():
            names = {p.name for p in entry.params}
            refs[section] = ComponentRef(
                entry.name,
                entry.version,
                tuple((k, v) for k, v in self.params.items() if k in names),
            )
        return ScenarioSpec(
            algorithm=algo,
            network=refs.get("network"),
            adversary=refs.get("adversary"),
            faults=refs.get("faults"),
            seed=self.spec.seed,
        )


def flat_params(entry: RegistryEntry) -> dict[str, tuple[str, ParamSpec]]:
    """``name -> (section, ParamSpec)`` over the family's flat space.

    The flat space is the algorithm's own parameters plus those of the
    *default* component in each section the family accepts -- the
    vocabulary trial functions and test configs speak. Collisions
    between sections are a registration bug and raise ``ValueError``.
    """
    family: AlgorithmFamily = entry.obj
    out: dict[str, tuple[str, ParamSpec]] = {}
    for spec in entry.params:
        out[spec.name] = ("algorithm", spec)
    for section, names in family.components.items():
        component = lookup(_SECTION_KINDS[section], names[0], field=section)
        for spec in component.params:
            if spec.name in out:
                raise ValueError(
                    f"parameter {spec.name!r} of {section} {component.name!r} "
                    f"collides with {out[spec.name][0]} in family {entry.name!r}"
                )
            out[spec.name] = (section, spec)
    return out


def resolve(spec: ScenarioSpec | str) -> ResolvedScenario:
    """Bind a spec (or its text/JSON form) to registry entries.

    Omitted component sections take the family's default component
    with default parameters; unknown names, versions, parameters and
    wrong-typed values raise :class:`SpecError` naming the field.
    """
    ensure_builtin_families()
    if isinstance(spec, str):
        spec = parse_spec(spec)
    entry = lookup("algorithm", spec.algorithm.name, spec.algorithm.version)
    family: AlgorithmFamily = entry.obj
    params = validate_params(entry, spec.algorithm.kwargs(), prefix="algorithm")
    components: dict[str, RegistryEntry] = {}
    for section, kind in _SECTION_KINDS.items():
        ref = getattr(spec, section)
        allowed = tuple(family.components.get(section, ()))
        if ref is None:
            if not allowed:
                continue
            ref = ComponentRef(allowed[0])
        elif not allowed:
            raise SpecError(
                section,
                f"algorithm {entry.name!r} does not take a {section} section",
            )
        elif ref.name not in allowed:
            raise SpecError(
                section,
                f"algorithm {entry.name!r} supports {section} components "
                f"{', '.join(allowed)}; got {ref.name!r}",
            )
        component = lookup(kind, ref.name, ref.version, field=section)
        filled = validate_params(
            component,
            ref.kwargs(),
            prefix=section,
            defaults_override=family.component_param_defaults.get(section),
        )
        for key, value in filled.items():
            if key in params:
                raise SpecError(
                    f"{section}.{key}",
                    f"parameter collides with one already set by "
                    f"another section of {entry.name!r}",
                )
            params[key] = value
        components[section] = component
    if spec.rounds is not None:
        if family.rounds_param is None:
            raise SpecError(
                "rounds",
                f"algorithm {entry.name!r} does not take a rounds budget",
            )
        params[family.rounds_param] = entry.param(family.rounds_param).check(
            "rounds", spec.rounds
        )
    params = family.normalize(params)
    return ResolvedScenario(
        spec=spec, entry=entry, components=components, params=params
    )


def spec_for(
    name: str,
    params: Mapping[str, Scalar] | None = None,
    *,
    version: int | None = None,
    seed: int = 0,
    rounds: int | None = None,
    components: Mapping[str, str] | None = None,
) -> ScenarioSpec:
    """Build a spec from a family name and flat parameters.

    The inverse convenience of :func:`resolve` for callers that think
    in the flat vocabulary (test configs, CLI flags): each parameter
    is routed to the section whose component declares it.
    ``components`` overrides the default component per section (for
    example ``{"adversary": "mobile"}``).
    """
    ensure_builtin_families()
    entry = lookup("algorithm", name, version)
    family: AlgorithmFamily = entry.obj
    chosen: dict[str, RegistryEntry] = {}
    for section, names in family.components.items():
        pick = (components or {}).get(section, names[0])
        if pick not in names:
            raise SpecError(
                section,
                f"algorithm {name!r} supports {section} components "
                f"{', '.join(names)}; got {pick!r}",
            )
        chosen[section] = lookup(_SECTION_KINDS[section], pick, field=section)
    algo_names = {p.name for p in entry.params}
    section_params: dict[str, dict[str, Scalar]] = {s: {} for s in chosen}
    algo_params: dict[str, Scalar] = {}
    for key, value in (params or {}).items():
        if key in algo_names:
            algo_params[key] = value
            continue
        owner = next(
            (s for s, comp in chosen.items() if comp.param(key) is not None), None
        )
        if owner is None:
            raise SpecError(
                f"algorithm.{key}",
                f"no section of {name!r} declares this parameter",
            )
        section_params[owner][key] = value
    refs = {
        section: ComponentRef(
            comp.name, comp.version, tuple(section_params[section].items())
        )
        for section, comp in chosen.items()
    }
    return ScenarioSpec(
        algorithm=ComponentRef(entry.name, entry.version, tuple(algo_params.items())),
        network=refs.get("network"),
        adversary=refs.get("adversary"),
        faults=refs.get("faults"),
        seed=seed,
        rounds=rounds,
    )


def resolve_trial(spec: ScenarioSpec | str) -> tuple[Any, dict[str, Scalar]]:
    """``(picklable trial fn, base kwargs)`` for the sweep machinery.

    :meth:`repro.bench.sweep.Sweep.run` accepts a spec in place of a
    trial function and dispatches through this: the returned function
    is the family's trial (its ``batch_fn`` batches the cells) and
    the kwargs are the spec's resolved parameters, which grid cells
    may override. The spec's own ``seed`` is ignored there -- sweep
    seeding stays with ``seed0``/``repeats``.
    """
    resolved = resolve(spec)
    return resolved.trial_fn, resolved.trial_kwargs()


def algorithm_entries() -> tuple[RegistryEntry, ...]:
    """All registered algorithm families (builtins guaranteed loaded)."""
    ensure_builtin_families()
    return entries("algorithm")
