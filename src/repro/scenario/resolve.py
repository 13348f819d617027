"""Resolve scenario specs against the registry into runnable trials.

This is the layer where names acquire meaning: a
:class:`~repro.scenario.spec.ScenarioSpec` plus the registry yields a
:class:`ResolvedScenario` -- the algorithm family object, the chosen
component entries, and one flat, fully-defaulted parameter dict. From
there every existing execution surface is one call away: serial
builds (``build_execution``), the family's picklable trial
(``trial_fn`` / ``trial_kwargs``, see :mod:`repro.scenario.trial`,
whose ``batch_fn`` is the batched form), batch lanes (``batch``), and
the parallel sweep machinery (:meth:`repro.bench.sweep.Sweep.run`
resolves one spec per grid cell, the cell given as ``overrides``).

Resolution is deterministic: the registry is populated once at import
time (:func:`ensure_builtin_families`), the spec's sections are
checked, and the flattened parameters are completed by
:func:`repro.scenario.registry.validate_params`, the one completion
every surface shares (errors name the offending field, ``algorithm.n``
style). :meth:`ResolvedScenario.canonical_spec` re-encodes the result with
every default made explicit -- a fixpoint of
``parse -> resolve -> encode``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.scenario.registry import (
    SECTIONS,
    AlgorithmFamily,
    RegistryEntry,
    entries,
    flat_params,
    lookup,
    validate_params,
)
from repro.scenario.spec import ComponentRef, Scalar, ScenarioSpec, SpecError, parse_spec

__all__ = [
    "ResolvedScenario",
    "ensure_builtin_families",
    "resolve",
    "flat_params",
    "spec_for",
]


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
        """Batch lanes for ``seeds`` (:class:`repro.sim.batch.LaneResult`):
        :func:`repro.sim.batch.run_lanes` over the family's lanes."""
        from repro.sim.batch import run_lanes  # loads numpy

        return run_lanes(self.family.lanes(**dict(self.params)), seeds)

    def canonical_spec(self) -> ScenarioSpec:
        """The spec with every component and parameter made explicit.

        Spec-level ``rounds`` is folded into the family's
        ``rounds_param``, so the canonical form is a fixpoint:
        resolving it yields these exact params again.
        """
        return _spec_of(self.entry, self.components, self.params, seed=self.spec.seed)


def _spec_of(
    entry: RegistryEntry,
    components: Mapping[str, RegistryEntry],
    params: Mapping[str, Scalar],
    **scalars: Any,
) -> ScenarioSpec:
    """The spec of ``entry`` and ``components``, each flat parameter in
    the section that declares it."""
    space = flat_params(entry, components)
    routed: dict[str, list] = {"algorithm": [], **{s: [] for s in components}}
    for key, value in params.items():
        if key not in space:
            raise SpecError(
                f"algorithm.{key}",
                f"no section of {entry.name!r} declares this parameter",
            )
        routed[space[key][0]].append((key, value))
    refs = {
        section: ComponentRef(ref.name, ref.version, tuple(routed[section]))
        for section, ref in {"algorithm": entry, **components}.items()
    }
    return ScenarioSpec(**refs, **scalars)


def resolve(
    spec: ScenarioSpec | str, overrides: Mapping[str, Scalar] | None = None
) -> ResolvedScenario:
    """Bind a spec (or its text/JSON form) to registry entries.

    Omitted component sections take the family's default component
    with default parameters; unknown names, versions, parameters,
    wrong-typed or out-of-domain values raise :class:`SpecError` naming
    the field. ``overrides`` replaces given flat parameters before
    completion (a sweep cell): parameters the spec leaves out are still
    derived from the overridden ones, as ``f`` from each cell's ``n``.
    """
    ensure_builtin_families()
    if isinstance(spec, str):
        spec = parse_spec(spec)
    entry = lookup("algorithm", spec.algorithm.name, spec.algorithm.version)
    family: AlgorithmFamily = entry.obj
    given = _section_params("algorithm", entry, spec.algorithm)
    components: dict[str, RegistryEntry] = {}
    for section in SECTIONS:
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
        components[section] = lookup(section, ref.name, ref.version, field=section)
        given.update(_section_params(section, components[section], ref))
    if spec.rounds is not None:
        if family.rounds_param is None:
            raise SpecError(
                "rounds",
                f"algorithm {entry.name!r} does not take a rounds budget",
            )
        given[family.rounds_param] = spec.rounds
    given.update(overrides or {})
    try:
        params = validate_params(entry, given, components)
    except SpecError as exc:
        # A bad spec-level ``rounds`` keeps its own field name.
        field = f"algorithm.{family.rounds_param}"
        if spec.rounds is None or exc.field != field or given[family.rounds_param] != spec.rounds:
            raise
        raise SpecError("rounds", str(exc).partition(": ")[2]) from None
    return ResolvedScenario(
        spec=spec, entry=entry, components=components, params=params
    )


def _section_params(
    section: str, entry: RegistryEntry, ref: ComponentRef
) -> dict[str, Scalar]:
    """``ref``'s parameters, each of which ``entry`` must declare."""
    given = ref.kwargs()
    for key in given:
        if entry.param(key) is None:
            known = ", ".join(sorted(spec.name for spec in entry.params)) or "<none>"
            raise SpecError(
                f"{section}.{key}",
                f"unknown parameter for {entry.kind} {entry.name!r} "
                f"(declared: {known})",
            )
    return given


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
    chosen: dict[str, RegistryEntry] = {}
    for section, names in entry.obj.components.items():
        pick = (components or {}).get(section, names[0])
        if pick not in names:
            raise SpecError(
                section,
                f"algorithm {name!r} supports {section} components "
                f"{', '.join(names)}; got {pick!r}",
            )
        chosen[section] = lookup(section, pick, field=section)
    return _spec_of(entry, chosen, params or {}, seed=seed, rounds=rounds)


def algorithm_entries() -> tuple[RegistryEntry, ...]:
    """All registered algorithm families (builtins guaranteed loaded)."""
    ensure_builtin_families()
    return entries("algorithm")
