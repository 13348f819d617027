"""Shared plain-function helpers for tests (importable, unlike conftest).

Home of the **unified differential-testing harness**: every "rewrite X
but stay bit-identical" PR so far (engine fast path, batched kernels,
Topology layer, the port-major delivery sweep, the scenario registry)
was only safe because full-state equality was pinned across executors.
The harness makes that one reusable assertion instead of per-file
copy-pasted grid loops:

- a **config** is a plain dict naming a registered scenario family
  (``"dac"``, ``"dbac"``, ``"byz"`` -- historical alias ``"mobile"``
  -- ``"baseline"``, ``"averaging"``, ...), flat parameters, and a
  tuple of seeds;
- an **executor** maps a config to one canonical result per seed --
  rounds, stopped, inputs, outputs and full per-node ``state_key()``s
  (the strongest equality available);
- :func:`assert_equivalent_runs` runs a grid of configs through a
  suite of executors and asserts every executor agrees with the first,
  printing the offending config (seed included) for reproduction.

Since PR 9 the family table is **registry-driven**: defaults, serial
builds and batch dispatch all come from the
:mod:`repro.scenario` registry entries, so a newly registered family
is covered by every executor -- including the pooled/batched legs
added in PR 8 -- with zero edits here. Executors cover the serial
engine's port-major sweep, the legacy sender-major loop, fully traced
execution, the family's :mod:`repro.sim.batch` dispatch (numpy kernel
lanes where the family vectorizes the parameters, serial-engine lanes
otherwise), a ``workers=4`` process-pool leg,
and an optional pooled *batched* leg (persistent pool + shared-memory
arenas + guided chunking -- the full zero-copy dispatch stack).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.scenario.registry import RegistryEntry, lookup
from repro.scenario.resolve import ensure_builtin_families, flat_params
from repro.sim.engine import Engine
from repro.sim.parallel import TrialSpec, run_trials

#: Historical config-family spellings accepted by :func:`normalize_config`.
#: ``"mobile"`` predates the registry, where the mobile-omission runs
#: are the ``byz`` family's mobile adversary.
FAMILY_ALIASES = {"mobile": "byz"}


def spread_inputs(n: int) -> list[float]:
    """Evenly spread inputs over [0, 1] -- range exactly 1.0."""
    if n == 1:
        return [0.0]
    return [i / (n - 1) for i in range(n)]


# -- Configs ---------------------------------------------------------------


def family_entry(name: str) -> RegistryEntry:
    """The registry entry behind a config's ``family`` value."""
    ensure_builtin_families()
    return lookup("algorithm", FAMILY_ALIASES.get(name, name))


def _config_params(config: dict[str, Any]) -> dict[str, Any]:
    """The flat parameter assignment of a normalized config."""
    return {k: v for k, v in config.items() if k not in ("family", "seeds")}


def normalize_config(config: dict[str, Any]) -> dict[str, Any]:
    """Fill registry defaults and canonicalize the seed list.

    Accepts ``seed=7`` as shorthand for ``seeds=(7,)``. Defaults come
    from the family's registry entry -- declared parameters of the
    algorithm and its default components, the family's
    ``component_param_defaults``, and its ``harness_defaults`` (e.g.
    a fuzz-friendly ``max_rounds``) -- so the result is a complete,
    deterministic parameter assignment that doubles as the
    reproduction recipe printed on divergence. Raises ``ValueError``
    (a :class:`repro.scenario.SpecError` naming the field) for
    unknown families, parameters, or ill-typed values.
    """
    family = config.get("family", "dac")
    family = FAMILY_ALIASES.get(family, family)
    entry = family_entry(family)
    space = flat_params(entry)
    given = {k: v for k, v in config.items() if k not in ("family", "seed", "seeds")}
    unknown = sorted(set(given) - set(space))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {unknown!r} for family {family!r} "
            f"(declared: {sorted(space)})"
        )
    overrides: dict[str, Any] = {}
    for defaults in entry.obj.component_param_defaults.values():
        overrides.update(defaults)
    overrides.update(entry.obj.harness_defaults)
    full: dict[str, Any] = {}
    for name, (section, pspec) in space.items():
        if name in given:
            full[name] = pspec.check(f"{section}.{name}", given[name])
        elif name in overrides:
            full[name] = overrides[name]
        elif pspec.required:
            raise ValueError(f"config needs {name}: {config!r}")
        else:
            full[name] = pspec.default
    full = entry.obj.normalize(full)
    full["family"] = family
    if "seed" in config:
        if "seeds" in config:
            raise ValueError("pass either seed or seeds, not both")
        full["seeds"] = (config["seed"],)
    else:
        full["seeds"] = tuple(int(s) for s in config.get("seeds", (0,)))
    full["seeds"] = tuple(int(s) for s in full["seeds"])
    return full


def _build_serial(
    config: dict[str, Any], seed: int
) -> tuple[dict, Callable, int, str]:
    """(engine kwargs, stop condition, max_rounds, stop mode) for one lane.

    Delegates to the registered family's ``build`` -- the same
    execution builder every other surface (trials, batch kernels,
    the CLI ``spec`` command) resolves through.
    """
    entry = family_entry(config["family"])
    kwargs = entry.obj.build(seed=seed, **_config_params(config))
    stop_mode = kwargs["stop_mode"]
    epsilon = kwargs["epsilon"]
    if stop_mode == "output":
        stop = Engine.all_fault_free_output
    else:
        stop = lambda eng: eng.fault_free_range() <= epsilon  # noqa: E731
    return kwargs, stop, kwargs["max_rounds"], stop_mode


def _canonical(engine: Engine, result, stop_mode: str) -> dict[str, Any]:
    """One lane's canonical comparison payload (LaneResult-compatible)."""
    if stop_mode == "output":
        outputs = {
            v: engine.processes[v].output()
            for v in sorted(engine.fault_plan.fault_free)
            if engine.processes[v].has_output()
        }
    else:
        outputs = engine.fault_free_values()
    return {
        "rounds": int(result),
        "stopped": result.stopped,
        "inputs": {
            node: proc.input_value for node, proc in engine.processes.items()
        },
        "outputs": outputs,
        "state_keys": {
            node: proc.state_key() for node, proc in engine.processes.items()
        },
    }


def run_config_serial(
    config: dict[str, Any],
    *,
    traced: bool = False,
    sweep: bool = True,
    wrap_adversary: Callable | None = None,
) -> list[dict[str, Any]]:
    """Run every seed of ``config`` on the serial engine.

    ``traced`` records a full trace (snapshots assembled after the
    sweep); ``sweep=False`` forces the legacy sender-major loop (the
    port-major sweep's reference implementation -- combined with
    ``traced=True`` it exercises the legacy loop's inline snapshot
    path); ``wrap_adversary`` lets callers interpose on the chosen
    graphs (e.g. the ``DirectedGraph`` shim round-trip in
    test_topology_equivalence).
    """
    config = normalize_config(config)
    results = []
    for seed in config["seeds"]:
        kwargs, stop, max_rounds, stop_mode = _build_serial(config, seed)
        adversary = kwargs["adversary"]
        if wrap_adversary is not None:
            adversary = wrap_adversary(adversary)
        engine = Engine(
            kwargs["processes"],
            adversary,
            kwargs["ports"],
            fault_plan=kwargs["fault_plan"],
            f=kwargs["f"],
            seed=kwargs["seed"],
            record_trace=traced,
        )
        engine._use_sweep = sweep
        result = engine.run(max_rounds, stop_when=stop)
        results.append(_canonical(engine, result, stop_mode))
    return results


def differential_trial(seed: int, **params: Any) -> dict[str, Any]:
    """Picklable per-seed trial for the ``workers=N`` executor."""
    config = dict(params)
    config["seeds"] = (seed,)
    return run_config_serial(config)[0]


def differential_trial_batch(seeds: Any = (), **params: Any) -> list[dict[str, Any]]:
    """Picklable batched form of :func:`differential_trial`.

    Dispatched by the pooled executor through the persistent pool's
    batched path (``run_trials(batch=B, batch_fn=...)``), so the
    zero-copy stack -- warm workers, manifest shipping, guided chunks
    -- is exercised against the serial reference.
    """
    config = dict(params)
    config["seeds"] = tuple(seeds)
    return run_config_batch(config)


def run_config_batch(config: dict[str, Any]) -> list[dict[str, Any]]:
    """Run ``config``'s seeds as one batch through the family's dispatch.

    All seeds go through a single call of the family's registered
    ``batch`` hook, so multi-seed configs exercise genuine lane
    interplay (mixed termination rounds, shared kernel state), not
    just per-lane agreement. Vectorizable parameters
    (the family's ``vectorizable`` hook) run a numpy kernel; the rest
    run serial-engine lanes.
    """
    config = normalize_config(config)
    entry = family_entry(config["family"])
    params = _config_params(config)
    lanes = entry.obj.batch(list(config["seeds"]), **params)
    return [
        {
            "rounds": lane.rounds,
            "stopped": lane.stopped,
            "inputs": lane.inputs,
            "outputs": lane.outputs,
            "state_keys": lane.state_keys,
        }
        for lane in lanes
    ]


# -- Executor suite --------------------------------------------------------


def serial_executor(**options: Any) -> Callable:
    """Per-config executor over :func:`run_config_serial`."""

    def executor(config: dict[str, Any]) -> list[dict[str, Any]]:
        return run_config_serial(config, **options)

    return executor


def _grid_specs(configs: list[dict[str, Any]]) -> list[TrialSpec]:
    """Flatten normalized configs into per-seed TrialSpecs, grid order."""
    specs = []
    for config in configs:
        params = tuple(sorted((k, v) for k, v in config.items() if k != "seeds"))
        for seed in config["seeds"]:
            specs.append(TrialSpec(params, seed=seed))
    return specs


def _regroup(configs: list[dict[str, Any]], flat: list[Any]) -> list[list[Any]]:
    """Split a flat per-seed result list back into per-config groups."""
    grouped, index = [], 0
    for config in configs:
        count = len(config["seeds"])
        grouped.append(flat[index : index + count])
        index += count
    return grouped


def workers_executor(workers: int = 4) -> Callable:
    """Grid-mode executor: all (config, seed) lanes through one
    ``run_trials(workers=N)`` pool, results regrouped per config."""

    def executor(configs: list[dict[str, Any]]):
        configs = [normalize_config(config) for config in configs]
        flat = run_trials(differential_trial, _grid_specs(configs), workers=workers)
        return _regroup(configs, flat)

    executor.grid_mode = True
    return executor


def pooled_executor(workers: int = 4, batch: int = 4) -> Callable:
    """Grid-mode executor over the full zero-copy dispatch stack.

    Batched groups fan out over the *persistent* pool (warm workers,
    arenas enabled, guided chunking) via
    :func:`differential_trial_batch` -- the strongest parallel leg:
    any divergence between warm-worker shared-memory state and the
    serial reference fails the harness equality.
    """

    def executor(configs: list[dict[str, Any]]):
        configs = [normalize_config(config) for config in configs]
        flat = run_trials(
            differential_trial,
            _grid_specs(configs),
            workers=workers,
            batch=batch,
            batch_fn=differential_trial_batch,
            pool="persist",
            arenas=True,
        )
        return _regroup(configs, flat)

    executor.grid_mode = True
    return executor


def differential_executors(
    *,
    workers: int | None = 4,
    legacy: bool = True,
    traced: bool = True,
    pooled: int | None = None,
) -> dict[str, Callable]:
    """The standard executor suite, reference (port-major sweep) first.

    ``pooled=B`` appends the persistent-pool batched leg (batch size
    ``B`` over ``workers`` processes, arenas on) -- off by default
    because it spins real worker processes; the fuzz grids turn it on.
    """
    executors: dict[str, Callable] = {"serial-fast": serial_executor()}
    if legacy:
        executors["serial-legacy"] = serial_executor(sweep=False)
    if traced:
        executors["traced"] = serial_executor(traced=True)
        if legacy:
            executors["traced-legacy"] = serial_executor(traced=True, sweep=False)
    executors["batch"] = run_config_batch
    if workers:
        executors[f"workers-{workers}"] = workers_executor(workers)
    if pooled:
        executors[f"pooled-batch-{pooled}"] = pooled_executor(
            workers or 4, pooled
        )
    return executors


def assert_equivalent_runs(
    grid, executors: dict[str, Callable] | None = None
) -> dict[str, list]:
    """Assert full-state equivalence of every executor on every config.

    ``grid`` is an iterable of config dicts (see
    :func:`normalize_config`); ``executors`` maps name -> executor
    (default: :func:`differential_executors`). The first executor is
    the reference; any divergence fails with the complete config --
    seeds included -- so one paste reproduces it. Returns the
    per-executor results for callers wanting extra assertions.
    """
    configs = [normalize_config(config) for config in grid]
    if executors is None:
        executors = differential_executors()
    names = list(executors)
    if not names:
        raise ValueError("need at least one executor")
    results: dict[str, list] = {}
    for name, executor in executors.items():
        if getattr(executor, "grid_mode", False):
            results[name] = executor(configs)
        else:
            results[name] = [executor(config) for config in configs]
    reference_name = names[0]
    for index, config in enumerate(configs):
        reference = results[reference_name][index]
        for name in names[1:]:
            outcome = results[name][index]
            assert outcome == reference, (
                f"executor {name!r} diverged from {reference_name!r}\n"
                f"  config (reproduce with this): {config!r}\n"
                f"  reference: {_divergence(reference, outcome)}"
            )
    return results


def _divergence(reference, outcome) -> str:
    """A compact first-divergence description for assertion messages."""
    if not isinstance(reference, list) or not isinstance(outcome, list):
        return f"{reference!r} != {outcome!r}"
    if len(reference) != len(outcome):
        return f"lane counts differ: {len(reference)} vs {len(outcome)}"
    for lane, (ref, out) in enumerate(zip(reference, outcome)):
        if ref == out:
            continue
        for key in ref:
            if ref.get(key) != out.get(key):
                return (
                    f"lane {lane} field {key!r}: {ref.get(key)!r} != {out.get(key)!r}"
                )
        return f"lane {lane} differs"
    return "equal (?)"
