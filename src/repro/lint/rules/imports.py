"""Import rules: the layer DAG, optional numpy, and the hot path.

The dependency direction of the stack is a contract, not an accident:
``model -> spec -> core -> net -> faults -> adversary -> sim ->
analysis -> mc -> workloads -> scenario -> service -> bench -> top``
(see ``docs/static-analysis.md``).
Extensions depend on the core, never the reverse -- the same
discipline the Sawtooth/SentientOS extension contracts spell out --
and numpy stays an optional extra confined to the batch kernel,
which no module imports before a kernel runs.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.lint.registry import rule
from repro.lint.rules.common import collect_imports


def _layer_of(module: str, config) -> tuple[int, str] | None:
    """(index, name) of the layer owning ``module``; longest dotted
    prefix wins, and the bare package root only matches itself."""
    best: tuple[int, int, str] | None = None  # (prefix_len, idx, name)
    for idx, (name, prefixes) in enumerate(config.layers):
        for prefix in prefixes:
            if prefix == config.root_package:
                if module != prefix:
                    continue
            elif module != prefix and not module.startswith(prefix + "."):
                continue
            if best is None or len(prefix) > best[0]:
                best = (len(prefix), idx, name)
    if best is None:
        return None
    return best[1], best[2]


@rule(
    "layering",
    summary="import against the declared layer DAG (or from an unassigned module)",
    invariant="dependencies flow strictly downward through "
    "model/spec/core/net/faults/adversary/sim/analysis/mc/workloads/"
    "scenario/service/bench/top",
)
def check_layering(ctx) -> Iterator:
    config = ctx.config
    root = config.root_package
    if ctx.module != root and not ctx.module.startswith(root + "."):
        return
    own = _layer_of(ctx.module, config)
    if own is None:
        yield ctx.finding(
            1,
            "layering",
            f"module {ctx.module} is not assigned to any layer; add it to "
            "the layer DAG in repro/lint/config.py",
        )
        return
    own_idx, own_name = own
    for record in collect_imports(ctx.tree, ctx.module):
        if record.type_checking:
            continue  # typing-only imports carry no runtime dependency
        target = record.target
        if target != root and not target.startswith(root + "."):
            continue
        layer = _layer_of(target, config)
        if layer is None:
            yield ctx.finding(
                record.node,
                "layering",
                f"imported module {target} is not assigned to any layer",
            )
            continue
        target_idx, target_name = layer
        if target_idx > own_idx:
            yield ctx.finding(
                record.node,
                "layering",
                f"{ctx.module} (layer '{own_name}') imports {target} "
                f"(layer '{target_name}'): dependencies must flow downward",
            )


@rule(
    "numpy-guard",
    summary="numpy imported outside the guarded batch-kernel path",
    invariant="numpy stays an optional extra: only the batch kernel imports "
    "it at module level, behind try/except ImportError, so the package "
    "imports without it; the structure-table memo imports it on first use",
)
def check_numpy_guard(ctx) -> Iterator:
    config = ctx.config
    for record in collect_imports(ctx.tree, ctx.module):
        head = record.target.split(".", 1)[0]
        if head != "numpy" or record.type_checking:
            continue
        if ctx.in_module(config.numpy_lazy_modules):
            if not record.in_function:
                yield ctx.finding(
                    record.node,
                    "numpy-guard",
                    f"{ctx.module} may import numpy only inside the function "
                    "that needs it, so serial runs never load it",
                )
        elif not ctx.in_module(config.numpy_modules):
            allowed = config.numpy_modules + config.numpy_lazy_modules
            yield ctx.finding(
                record.node,
                "numpy-guard",
                f"numpy may only be imported in {', '.join(allowed)}; "
                "route vectorized work through a batch kernel behind its "
                "support predicate",
            )
        elif not record.guarded and not record.in_function:
            yield ctx.finding(
                record.node,
                "numpy-guard",
                "module-level numpy import must sit in try/except "
                "ImportError so the package stays importable without numpy",
            )


@rule(
    "kernel-lazy",
    summary="module-level import of the batch kernel outside it",
    invariant="serial runs, the CLI and the service never load numpy: the "
    "batch kernel is imported inside the functions that run it",
)
def check_kernel_lazy(ctx) -> Iterator:
    config = ctx.config
    kernel = config.kernel_module
    if ctx.module == kernel:
        return
    for record in collect_imports(ctx.tree, ctx.module):
        if record.type_checking or record.in_function:
            continue
        target = record.target
        if (
            target == kernel
            or target.startswith(kernel + ".")
            or target in config.kernel_reexports
        ):
            yield ctx.finding(
                record.node,
                "kernel-lazy",
                f"module-level import of {target} loads numpy with "
                f"{ctx.module}; import {kernel} inside the function that "
                "runs a kernel",
            )


@rule(
    "hot-import",
    summary="engine hot path imports an observability/reporting module",
    invariant="the round engine and batch kernels never depend on "
    "persistence, analysis, bench, mc or CLI layers (extension -> core only)",
)
def check_hot_import(ctx) -> Iterator:
    config = ctx.config
    if not ctx.in_module(config.hot_modules):
        return
    for record in collect_imports(ctx.tree, ctx.module):
        if record.type_checking:
            continue
        for banned in config.hot_forbidden:
            if record.target == banned or record.target.startswith(banned + "."):
                yield ctx.finding(
                    record.node,
                    "hot-import",
                    f"hot-path module {ctx.module} imports {record.target}; "
                    "observers/persistence plug in from above, the engine "
                    "never reaches up",
                )
                break
