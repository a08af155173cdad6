"""Determinism/race detection over the worker-dispatch call graph.

The harness fans trials out to worker *processes* (``pmap``,
``supervised_map``, ``run_trials*``), and the repo's headline guarantee
is that ``REPRO_JOBS=1`` and ``REPRO_JOBS=4`` produce byte-identical
digests.  Three static properties protect that guarantee:

1. **No module-level mutable state written in worker-reachable code.**
   A global counter or cache written inside a worker diverges between
   the serial and parallel paths (each process mutates its own copy) and
   between runs (scheduling order); results must flow through return
   values.  Check id: ``worker-global-write``.
2. **No unseeded randomness reachable from a worker root.**  The
   ``no-bare-random`` lint rule bans the import per-file; this pass
   closes the loophole of a worker calling *through* helper modules into
   ``random.*`` / ``numpy.random.*``.  Check id:
   ``worker-unseeded-random``.
3. **No unordered-set iteration feeding canonical outputs.**  Set
   iteration order depends on hash seeding; iterating a set while
   building anything digest-shaped (worker-reachable code, or functions
   whose name/module says digest/canonical/cache-key) must go through
   ``sorted()``.  Check id: ``unordered-iteration``.

Roots are found statically: the first argument of every
``pmap(fn, ...)`` / ``supervised_map(fn, ...)`` / ``run_trials*(fn,
...)`` call site that resolves to a known function.  The call graph is
then walked with a deliberately *over-approximate* resolver (attribute
calls resolve to every known function of that terminal name) — for a
determinism gate, a rare false positive beats a silent miss, and the
baseline file absorbs justified exceptions.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import Analyzer, Violation, register_analyzer
from .loader import FunctionInfo, ModuleInfo, Project

DISPATCH_CALLS = frozenset(
    {"pmap", "supervised_map", "run_trials", "run_trials_multi", "run_trials_supervised"}
)

_MUTATING_METHODS = frozenset(
    {
        "append", "add", "update", "extend", "insert", "setdefault",
        "pop", "popitem", "clear", "remove", "discard", "appendleft",
    }
)

_SENSITIVE_NAME_PARTS = ("digest", "canonical", "cache_key", "payload_key", "schedule")


def _terminal(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@register_analyzer
class RaceDetector(Analyzer):
    id = "races"
    description = (
        "walk the call graph from pmap/supervised_map/run_trials* roots; "
        "flag worker-reachable global writes, unseeded randomness and "
        "unordered set iteration near digests/cache keys"
    )
    check_ids = (
        "worker-global-write",
        "worker-unseeded-random",
        "unordered-iteration",
    )

    def analyze(self, project: Project) -> Iterator[Violation]:
        reachable = self._worker_reachable(project)
        seen: set[tuple[str, int, str]] = set()
        for info in project.functions.values():
            in_worker = info.qname in reachable
            sensitive = self._is_sensitive(info)
            if not in_worker and not sensitive:
                continue
            for finding in self._check_function(project, info, in_worker):
                key = (finding.path, finding.line, finding.rule_id)
                if key not in seen:
                    seen.add(key)
                    yield finding

    # ------------------------------------------------------------------
    # Call-graph construction
    # ------------------------------------------------------------------
    def _worker_reachable(self, project: Project) -> set[str]:
        roots: list[FunctionInfo] = []
        for module in project.modules.values():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                if _terminal(node.func) not in DISPATCH_CALLS:
                    continue
                target = self._resolve_targets(project, module, node.args[0], cls=None)
                roots.extend(target)
        reachable: set[str] = set()
        frontier = list(roots)
        while frontier:
            info = frontier.pop()
            if info.qname in reachable:
                continue
            reachable.add(info.qname)
            for callee in self._callees(project, info):
                if callee.qname not in reachable:
                    frontier.append(callee)
        return reachable

    def _callees(self, project: Project, info: FunctionInfo) -> list[FunctionInfo]:
        callees: list[FunctionInfo] = []
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                callees.extend(
                    self._resolve_targets(project, info.module, node.func, info.cls)
                )
        return callees

    def _resolve_targets(
        self, project: Project, module: ModuleInfo, func: ast.AST, cls
    ) -> list[FunctionInfo]:
        """Resolve a callable expression to candidate functions.

        Precise where possible (imports, same module, ``self.method``),
        over-approximate for attribute calls on unknown receivers: any
        project function with the same terminal name is a candidate.
        """
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in ("self", "cls") and cls is not None:
                method = cls.methods.get(func.attr)
                if method is not None:
                    return [method]
        resolved = project.resolve_callable(module, func)
        if isinstance(resolved, FunctionInfo):
            return [resolved]
        if resolved is not None:  # a class: constructor + __init__ chain
            init = resolved.methods.get("__init__")
            return [init] if init is not None else []
        terminal = _terminal(func)
        if terminal is None:
            return []
        if isinstance(func, ast.Name):
            # An unresolved bare name is a builtin or a local; never a
            # project function (those resolve via the symbol table).
            return []
        return project.by_terminal.get(terminal, [])

    # ------------------------------------------------------------------
    # Per-function checks
    # ------------------------------------------------------------------
    @staticmethod
    def _is_sensitive(info: FunctionInfo) -> bool:
        haystacks = (info.name, info.module.name)
        return any(part in h for part in _SENSITIVE_NAME_PARTS for h in haystacks)

    def _check_function(
        self, project: Project, info: FunctionInfo, in_worker: bool
    ) -> Iterator[Violation]:
        module = info.module
        local_names = _local_assignments(info.node)
        global_decls: set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                global_decls.update(node.names)

        for node in ast.walk(info.node):
            if in_worker:
                yield from self._check_global_write(
                    module, info, node, local_names, global_decls
                )
                yield from self._check_unseeded_random(module, info, node)
            yield from self._check_unordered_iteration(module, info, node, local_names)

    def _check_global_write(
        self,
        module: ModuleInfo,
        info: FunctionInfo,
        node: ast.AST,
        local_names: set[str],
        global_decls: set[str],
    ) -> Iterator[Violation]:
        def is_module_global(name_node: ast.AST) -> str | None:
            if not isinstance(name_node, ast.Name):
                return None
            name = name_node.id
            if name in global_decls:
                return name
            if name in local_names or name not in module.global_names:
                return None
            return name

        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in global_decls:
                    yield self.finding(
                        module,
                        node,
                        "worker-global-write",
                        f"'{info.qname}' writes module global '{target.id}' and "
                        "is reachable from a worker dispatch; results must flow "
                        "through return values",
                    )
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    owner = is_module_global(target.value)
                    if owner is not None:
                        yield self.finding(
                            module,
                            node,
                            "worker-global-write",
                            f"'{info.qname}' mutates module-level '{owner}' and "
                            "is reachable from a worker dispatch; per-process "
                            "state diverges between serial and parallel runs",
                        )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
            ):
                owner = is_module_global(func.value)
                if owner is not None:
                    yield self.finding(
                        module,
                        node,
                        "worker-global-write",
                        f"'{info.qname}' calls '{owner}.{func.attr}()' on a "
                        "module-level object and is reachable from a worker "
                        "dispatch; per-process state diverges",
                    )

    def _check_unseeded_random(
        self, module: ModuleInfo, info: FunctionInfo, node: ast.AST
    ) -> Iterator[Violation]:
        if not isinstance(node, ast.Call):
            return
        dotted = _dotted(node.func)
        if dotted is None:
            return
        absolute = (
            module.imports.get(dotted.partition(".")[0], dotted.partition(".")[0])
            + (("." + dotted.partition(".")[2]) if "." in dotted else "")
        )
        for pattern in ("random.", "numpy.random.", "np.random."):
            root = pattern.rstrip(".")
            if absolute == root or absolute.startswith(pattern):
                if absolute.split(".")[-1] == "Random":
                    return  # explicit instance; seeding is the caller's job
                yield self.finding(
                    module,
                    node,
                    "worker-unseeded-random",
                    f"'{info.qname}' draws from unseeded '{dotted}' and is "
                    "reachable from a worker dispatch or the engine; thread a "
                    "seeded repro Rng through instead",
                )
                return

    def _check_unordered_iteration(
        self,
        module: ModuleInfo,
        info: FunctionInfo,
        node: ast.AST,
        local_names: set[str],
    ) -> Iterator[Violation]:
        iter_expr: ast.expr | None = None
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iter_expr = node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iter_expr = node.generators[0].iter
        if iter_expr is None:
            return
        if not self._is_set_expr(iter_expr, info.node):
            return
        yield self.finding(
            module,
            iter_expr,
            "unordered-iteration",
            f"'{info.qname}' iterates a set in digest/cache-key/worker "
            "context; wrap the iterable in sorted() to pin the order",
        )

    @staticmethod
    def _is_set_expr(expr: ast.expr, scope: ast.AST) -> bool:
        """Is ``expr`` statically set-typed (and not wrapped in sorted())?"""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            name = _terminal(expr.func)
            if name in ("set", "frozenset"):
                return True
            # set arithmetic helpers keep set-ness
            if name in ("union", "intersection", "difference", "symmetric_difference"):
                return RaceDetector._is_set_expr(expr.func.value, scope) if isinstance(
                    expr.func, ast.Attribute
                ) else False
            return False
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            return RaceDetector._is_set_expr(expr.left, scope) or RaceDetector._is_set_expr(
                expr.right, scope
            )
        if isinstance(expr, ast.Name):
            # A local consistently assigned from set expressions.
            assigned_sets = 0
            assigned_other = 0
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name) and target.id == expr.id:
                            if RaceDetector._is_set_expr(node.value, scope):
                                assigned_sets += 1
                            else:
                                assigned_other += 1
                elif isinstance(node, ast.AnnAssign):
                    if (
                        isinstance(node.target, ast.Name)
                        and node.target.id == expr.id
                        and node.value is not None
                    ):
                        if RaceDetector._is_set_expr(node.value, scope):
                            assigned_sets += 1
                        else:
                            assigned_other += 1
            return assigned_sets > 0 and assigned_other == 0
        return False


def _bound_names(target: ast.AST) -> Iterator[str]:
    """Names a target *binds*.  ``x[k] = v`` and ``x.f = v`` bind nothing —
    they mutate ``x``, which must stay attributable to the module scope."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for el in target.elts:
            yield from _bound_names(el)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)


def _local_assignments(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound locally (params, assignments, for targets, withitems)."""
    names: set[str] = set()
    args = fn.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        names.add(arg.arg)
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(_bound_names(target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            names.update(_bound_names(node.target))
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            names.update(_bound_names(node.optional_vars))
        elif isinstance(node, ast.comprehension):
            names.update(_bound_names(node.target))
    return names
