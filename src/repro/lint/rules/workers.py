"""Worker-contract rules: what may cross a process boundary.

``Sweep.run(workers=N)`` / ``run_trials(..., workers=N)`` pickle the
trial function into worker processes, and ``batch_fn`` attributes are
dispatched the same way. Lambdas and closures fail at runtime deep in
the pool machinery (or worse, only when a CLI raises the process-wide
worker default); the ``worker-closure`` rule moves the failure to the
call site. ``pool=`` keywords on the persistent-pool entry points mark
the same fan-out surface and get the same treatment.

The ``arena-readonly`` rule guards the kernels' shared state: tables
served by :mod:`repro.sim.arena` are one memoized array per content
hash, handed to every kernel in the process. A write through one
would corrupt every other kernel's view of the graph, so names bound
to the arena factories must never be written through -- kernels copy
first (``table.T.copy()``) and write to the copy.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.registry import rule
from repro.lint.rules.common import FunctionNode, dotted, iter_scopes, scope_nodes


def _local_functions(scope: ast.AST) -> set[str]:
    """Names bound to nested defs / lambdas directly inside ``scope``
    (only meaningful for function scopes: module-level defs pickle fine)."""
    if not isinstance(scope, FunctionNode):
        return set()
    names: set[str] = set()
    for node in scope_nodes(scope):
        if isinstance(node, FunctionNode) and node is not scope:
            names.add(node.name)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Lambda):
                names.add(target.id)
    return names


def _serial_literal(expr: ast.expr) -> bool:
    """``workers=1`` / ``workers=None`` never leave the process."""
    return isinstance(expr, ast.Constant) and expr.value in (1, None)


@rule(
    "worker-closure",
    summary="lambda/closure handed to a process-pool call or batch_fn slot",
    invariant="functions fanned out over workers are module-level and "
    "picklable; batch_fn attributes equally so",
)
def check_worker_closure(ctx) -> Iterator:
    config = ctx.config
    pool_keywords = getattr(config, "pool_keywords", ())
    dispatch_keywords = tuple(config.worker_keywords) + tuple(pool_keywords)
    for scope in iter_scopes(ctx.tree):
        local_fns = _local_functions(scope)
        for node in scope_nodes(scope):
            if isinstance(node, ast.Call):
                worker_kw = next(
                    (kw for kw in node.keywords if kw.arg in config.worker_keywords),
                    None,
                )
                pool_kw = next(
                    (kw for kw in node.keywords if kw.arg in pool_keywords),
                    None,
                )
                # An explicit serial workers literal keeps the call
                # in-process even when a pool keyword is present; a
                # bare pool keyword implies process dispatch (the
                # worker count may come from the process-wide default).
                if worker_kw is not None and _serial_literal(worker_kw.value):
                    continue
                if worker_kw is None and pool_kw is None:
                    continue
                candidates = list(node.args) + [
                    kw.value
                    for kw in node.keywords
                    if kw.arg not in dispatch_keywords
                ]
                for arg in candidates:
                    if isinstance(arg, ast.Lambda):
                        yield ctx.finding(
                            arg,
                            "worker-closure",
                            "lambda passed to a workers=/pool= dispatch call "
                            "cannot be pickled into worker processes; define "
                            "a module-level trial function",
                        )
                    elif isinstance(arg, ast.Name) and arg.id in local_fns:
                        yield ctx.finding(
                            arg,
                            "worker-closure",
                            f"locally-defined function {arg.id!r} passed to a "
                            "workers=/pool= dispatch call cannot be pickled; "
                            "hoist it to module level",
                        )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == config.batch_fn_attr
                    ):
                        if isinstance(node.value, ast.Lambda):
                            yield ctx.finding(
                                node.value,
                                "worker-closure",
                                "batch_fn must be a module-level function "
                                "(it is dispatched over process pools); a "
                                "lambda cannot be pickled",
                            )
                        elif (
                            isinstance(node.value, ast.Name)
                            and node.value.id in local_fns
                        ):
                            yield ctx.finding(
                                node.value,
                                "worker-closure",
                                f"batch_fn bound to local function "
                                f"{node.value.id!r}; batch functions must be "
                                "module-level and picklable",
                            )


def _base_name(node: ast.expr) -> str | None:
    """The root ``Name`` of a ``name[...]`` / ``name.attr...`` chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _arena_bound_names(scope: ast.AST, factories: tuple[str, ...]) -> set[str]:
    """Names assigned directly from an arena-factory call in ``scope``.

    Tracks ``table = delivered_table(...)`` (plain or dotted callee);
    derived copies (``table.T.copy()`` etc.) bind through a different
    call and are deliberately *not* tracked -- copying first is the
    sanctioned way to obtain a writable array.
    """
    names: set[str] = set()
    for node in scope_nodes(scope):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Name) and isinstance(node.value, ast.Call)):
            continue
        callee = dotted(node.value.func)
        if callee and callee.rsplit(".", 1)[-1] in factories:
            names.add(target.id)
    return names


@rule(
    "arena-readonly",
    summary="write through a shared arena table",
    invariant="tables served by repro.sim.arena are read-only "
    "memo tables shared in-process; kernels copy before writing",
)
def check_arena_readonly(ctx) -> Iterator:
    config = ctx.config
    factories = getattr(config, "arena_factories", ())
    mutators = getattr(config, "arena_mutating_methods", ())
    if not factories or ctx.module == getattr(config, "arena_module", None):
        return  # the arena layer itself builds the views it serves
    for scope in iter_scopes(ctx.tree):
        names = _arena_bound_names(scope, factories)
        if not names:
            continue
        for node in scope_nodes(scope):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, (ast.Subscript, ast.Attribute))
                        and _base_name(target) in names
                    ):
                        yield ctx.finding(
                            target,
                            "arena-readonly",
                            f"write through arena table "
                            f"{_base_name(target)!r}: memo tables are "
                            "read-only, shared by every kernel in the "
                            "process; copy first (e.g. table.T.copy())",
                        )
            elif isinstance(node, ast.AugAssign):
                if _base_name(node.target) in names:
                    yield ctx.finding(
                        node.target,
                        "arena-readonly",
                        f"in-place operator on arena table "
                        f"{_base_name(node.target)!r} mutates a read-only "
                        "shared memo table; copy first",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in mutators
                    and isinstance(func.value, ast.Name)
                    and func.value.id in names
                ):
                    yield ctx.finding(
                        node,
                        "arena-readonly",
                        f"mutating method .{func.attr}() called on arena "
                        f"table {func.value.id!r}; shared views are "
                        "read-only -- copy first",
                    )
