"""The linted contracts, as data: layers, hot paths, frozen types.

Rules are generic mechanisms (iterate-over-set detection, import-DAG
checking, attribute-mutation tracking); this module pins them to the
*repo's* actual contracts. Everything a rule needs to know about this
codebase -- the layer DAG, which modules are deterministic, where
numpy may appear, which classes are frozen and which of their methods
legitimately write slots -- lives in one :class:`LintConfig` value, so
the contracts are reviewable in a single place and tests can run rules
against synthetic configs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LintConfig:
    """Everything the built-in rules know about the codebase."""

    # -- layering ---------------------------------------------------------
    # Bottom-up layer DAG: a module may import its own layer and any
    # layer *below* it, never above. Matching is by longest dotted
    # prefix, so the "model" carve-out (the message/state vocabulary in
    # repro.sim that core/faults/adversary legitimately speak) wins
    # over the broader "sim" entry. The package root is exact-match
    # only: a brand-new repro.* module that matches no entry is itself
    # a layering finding, which keeps the DAG total as the tree grows.
    layers: tuple[tuple[str, tuple[str, ...]], ...] = (
        ("model", ("repro.sim.messages", "repro.sim.node", "repro.sim.rng")),
        # The spec vocabulary and registry sit low on purpose: they
        # depend on nothing but the standard library, so any layer may
        # name (register into) them without inverting the DAG. The
        # resolution layer -- which imports the live trial machinery --
        # is the separate "scenario" entry near the top.
        ("spec", ("repro.scenario.spec", "repro.scenario.registry")),
        ("core", ("repro.core",)),
        ("net", ("repro.net",)),
        ("faults", ("repro.faults",)),
        ("adversary", ("repro.adversary",)),
        ("sim", ("repro.sim",)),
        ("analysis", ("repro.analysis",)),
        ("obs", ("repro.obs",)),
        ("mc", ("repro.mc",)),
        ("workloads", ("repro.workloads", "repro.families")),
        ("scenario", ("repro.scenario",)),
        # The service daemon drives executions only through resolution
        # and dispatch, so service sits above scenario; the CLI (top)
        # starts and queries it. No bench module imports it.
        ("service", ("repro.service",)),
        ("bench", ("repro.bench",)),
        ("top", ("repro.cli", "repro.lint", "repro.__main__", "repro")),
    )
    root_package: str = "repro"

    # -- determinism ------------------------------------------------------
    # Modules whose execution feeds state_key equality across the five
    # executors: set-iteration order, wall clocks, process-local ids
    # and ambient randomness are all hazards here. bench/ and cli/ sit
    # outside (timing loops are their job).
    deterministic_modules: tuple[str, ...] = (
        "repro.core",
        "repro.net",
        "repro.faults",
        "repro.adversary",
        "repro.sim",
        "repro.obs",
        "repro.mc",
        "repro.workloads",
        "repro.families",
        "repro.scenario",
        # Cached service payloads must be byte-identical to direct
        # resolve().run() results, so the daemon is clock- and
        # environment-free too (latency timing lives in repro.bench).
        "repro.service",
    )

    # -- optional numpy ---------------------------------------------------
    # numpy is an optional extra: only the batch kernel and its
    # structure-table memo (repro.sim.arena) may import it, and only
    # behind the documented try/except ImportError guard so the
    # pure-Python fallback keeps the package importable without it.
    numpy_modules: tuple[str, ...] = ("repro.sim.batch", "repro.sim.arena")

    # -- engine hot path --------------------------------------------------
    # The round engine and the batch kernels must stay free of the
    # observability/persistence/reporting planes (the extension->core
    # dependency direction): an observer bus or trace spill plugs in
    # from above, never the other way around.
    hot_modules: tuple[str, ...] = ("repro.sim.engine", "repro.sim.batch")
    hot_forbidden: tuple[str, ...] = (
        "repro.sim.persistence",
        "repro.analysis",
        "repro.obs",
        "repro.bench",
        "repro.mc",
        "repro.cli",
        "repro.lint",
        "repro.workloads",
    )

    # -- read-only observability ------------------------------------------
    # Observers watch executions, never steer them: code under the obs
    # package may read any simulation object it is handed but must not
    # write attributes on it, mutate its containers, or call APIs that
    # advance/mutate the simulation. The one sanctioned write is the
    # registration seam itself (appending to an engine's observer
    # list).
    obs_modules: tuple[str, ...] = ("repro.obs",)
    obs_mutating_methods: tuple[str, ...] = (
        "run",
        "run_round",
        "record",
        "setup",
        "set_routing_plan",
        "observe_states",
        "on_round",
        "choose",
    )
    obs_allowed_calls: tuple[str, ...] = ("observers.append",)

    # -- frozen Topology --------------------------------------------------
    # Topology instances are interned and shared across executions;
    # the only sanctioned writes are construction-time slot fills and
    # the documented set_routing_plan one-slot cache hook. The lazy
    # derived-view caches inside the class carry inline suppressions
    # instead of blanket method exemptions, so each one states why it
    # is safe.
    topology_module: str = "repro.net.topology"
    topology_class: str = "Topology"
    topology_init_methods: tuple[str, ...] = (
        "__init__",
        "__new__",
        "_lookup",
        "from_receiver_lists",
        "_build_rows",
        "set_routing_plan",
    )
    # Factory callables whose results rules treat as Topology values
    # when tracking mutation outside the defining module.
    topology_factories: tuple[str, ...] = (
        "Topology",
        "Topology.complete",
        "Topology.empty",
        "Topology.from_sorted_edges",
        "Topology.from_receiver_lists",
        "rotate_topology",
        "mobile_topology",
    )

    # -- FaultPlan memo fields --------------------------------------------
    # FaultPlan memoizes live profiles / crash metadata under the
    # documented immutable-after-construction contract; nothing
    # outside faults/base.py may write or clear those tables (a stale
    # or poisoned memo silently desynchronizes the executors).
    plan_module: str = "repro.faults.base"
    plan_class: str = "FaultPlan"
    plan_memo_fields: tuple[str, ...] = (
        "_crash_order",
        "_fault_free",
        "_non_byzantine",
        "_live_cache",
        "_round_cache",
        "_mask_cache",
    )
    plan_public_fields: tuple[str, ...] = ("crashes", "byzantine", "n")

    # -- seeded randomness ------------------------------------------------
    # The one module that owns the root-seed discipline; everything
    # else receives an explicitly seeded random.Random.
    rng_module: str = "repro.sim.rng"

    # -- worker contracts --------------------------------------------------
    # Keyword names that mark a call as fanning work over processes;
    # function-valued arguments in such calls must be module-level.
    # ``pool_keywords`` mark the same fan-out surface through the
    # persistent-pool entry points (``pool="persist"`` / ``"fresh"``):
    # a pool keyword implies process dispatch unless an explicit
    # serial ``workers`` literal on the same call rules it out.
    worker_keywords: tuple[str, ...] = ("workers",)
    pool_keywords: tuple[str, ...] = ("pool",)
    batch_fn_attr: str = "batch_fn"

    # -- structure-table memo ----------------------------------------------
    # Tables served by the arena module are read-only by contract:
    # one memoized array per topology is shared by every kernel in
    # the process, so a write through one would corrupt every other
    # kernel's view of the graph. Names bound to these factories must
    # never be written through -- kernels copy first.
    arena_module: str = "repro.sim.arena"
    arena_factories: tuple[str, ...] = ("delivered_table",)
    arena_mutating_methods: tuple[str, ...] = (
        "fill",
        "sort",
        "partition",
        "put",
        "itemset",
        "setflags",
        "resize",
        "byteswap",
    )

    # -- scenario registry -------------------------------------------------
    # Registration into the scenario registry is an import-time side
    # effect of the module that owns the component: module level (so
    # the same spec resolves identically in every process -- a
    # registration buried in a function runs who-knows-when, or twice),
    # with literal names and versions (so ``grep register_algorithm``
    # and the registry's duplicate check both see the truth). The
    # registry module itself (which defines the decorators) is exempt.
    registry_module: str = "repro.scenario.registry"
    registration_functions: tuple[str, ...] = (
        "register_algorithm",
        "register_network",
        "register_adversary",
        "register_faults",
        "declare_network",
        "declare_adversary",
        "declare_faults",
    )

    # -- read-only service --------------------------------------------------
    # The consensus-as-a-service daemon is an orchestration shell, not
    # a fifth executor: it may drive work only through the resolution
    # seam (repro.scenario) and the dispatch seam (repro.sim.parallel),
    # never by importing engine, core, adversary or fault machinery
    # directly -- otherwise cached service results could drift from
    # what resolve(spec).run() produces.
    service_modules: tuple[str, ...] = ("repro.service",)
    service_allowed_imports: tuple[str, ...] = (
        "repro.scenario",
        "repro.sim.parallel",
        "repro.service",
    )

    # Free-form extras for tests / future rules.
    extras: dict = field(default_factory=dict)


DEFAULT_CONFIG = LintConfig()
