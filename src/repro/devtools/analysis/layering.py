"""Import-layering enforcement over a declared layer DAG.

Generalizes PR 5's one-off "no deep harness imports in examples" lint
rule into an explicit architecture: every package is assigned a layer,
and module-scope imports may only point sideways or *down* the stack.

The declared DAG (low → high)::

    core → sim → protocols/apps → analysis → obs → harness → adversary
    → cli/devtools

* ``core`` is pure control-law math (utility, thresholds, filters, the
  seeded Rng) — it imports nothing above it;
* ``sim`` is the event loop and network model, built on ``core``;
* ``protocols``/``apps`` assemble senders and workloads from both;
* ``analysis`` post-processes results;
* ``obs`` (tracing/metrics) sits *below* ``harness``: the harness
  composes tracers and metric registries into runs, while the sim layer
  reaches observability only through duck-typed ``tracer``/``metrics``
  objects, never an import;
* ``harness`` orchestrates experiments;
* ``adversary`` (scenario search) composes harness runs into search
  campaigns — it sits above the harness but below the CLI;
* ``cli`` and ``devtools`` see everything.

Only module-scope imports count.  Imports inside function bodies are
deliberate lazy escapes (the CLI loading the analyzers on demand) and
are exempt.  ``if TYPE_CHECKING:`` imports count for layer *direction*
(typing-only coupling is still coupling) but not for *cycles* — they
are invisible at runtime, and guarding a within-layer cycle behind
TYPE_CHECKING is exactly how the sim untangles flow/link/engine.

Check ids: ``layer-violation`` (an upward import), ``import-cycle``
(module-level import cycles, reported once per cycle).
"""

from __future__ import annotations

from typing import Iterator

from .base import Analyzer, Violation, register_analyzer
from .loader import ModuleInfo, Project

#: package (second component of the dotted module name) -> layer name
PACKAGE_LAYERS: dict[str, str] = {
    "core": "core",
    "sim": "sim",
    "protocols": "protocols",
    "apps": "protocols",
    "analysis": "analysis",
    "obs": "obs",
    "harness": "harness",
    "adversary": "adversary",
    "cli": "cli",
    "__main__": "cli",
    "devtools": "cli",
}

#: layer name -> height in the DAG (imports may only point to <= height)
LAYER_ORDER: dict[str, int] = {
    "core": 0,
    "sim": 1,
    "protocols": 2,
    "analysis": 3,
    "obs": 4,
    "harness": 5,
    "adversary": 6,
    "cli": 7,
}


def layer_of(module_name: str, root: str) -> str | None:
    """Layer of ``module_name`` under root package ``root`` (None = exempt).

    The root package's own ``__init__`` is exempt: it is the public
    facade and re-exports from every layer (lazily).
    """
    if module_name == root or not module_name.startswith(root + "."):
        return None
    head = module_name[len(root) + 1 :].split(".", 1)[0]
    return PACKAGE_LAYERS.get(head, "cli")


@register_analyzer
class LayeringEnforcer(Analyzer):
    id = "layering"
    description = (
        "enforce the core->sim->protocols/apps->analysis->obs->harness->"
        "adversary->cli layer DAG on module-scope imports; detect import "
        "cycles"
    )
    check_ids = ("layer-violation", "import-cycle")

    def analyze(self, project: Project) -> Iterator[Violation]:
        roots = self._root_packages(project)
        # Runtime-only edges feed cycle detection; layer direction is
        # checked on every edge (typing-only coupling still counts).
        edges: dict[str, set[str]] = {name: set() for name in project.modules}
        for module in project.modules.values():
            root = self._root_of(module.name, roots)
            if root is None:
                continue
            source_layer = layer_of(module.name, root)
            for target, stmt in sorted(module.module_imports.items()):
                if not (target == root or target.startswith(root + ".")):
                    continue  # external dependency: out of scope
                if target != module.name and target not in module.typing_only:
                    for resolved in self._edge_targets(project, module, target):
                        edges[module.name].add(resolved)
                if source_layer is None:
                    continue
                target_layer = layer_of(target, root)
                if target_layer is None:
                    continue
                if LAYER_ORDER[target_layer] > LAYER_ORDER[source_layer]:
                    yield self.finding(
                        module,
                        stmt,
                        "layer-violation",
                        f"'{module.name}' (layer {source_layer}) imports "
                        f"'{target}' (layer {target_layer}); imports must "
                        "point down the core->sim->protocols->analysis->obs->"
                        "harness->adversary->cli stack, or move to a function "
                        "body if the dependency is a deliberate lazy escape",
                    )
        yield from self._cycles(project, edges)

    @staticmethod
    def _edge_targets(
        project: Project, module: ModuleInfo, target: str
    ) -> list[str]:
        """Graph nodes an import of ``target`` really points at.

        ``from . import engine`` records the *package* as the import
        base; the real dependency is each bound name that is itself a
        loaded module (``repro.sim.engine``), so resolve those too —
        otherwise a package ``__init__`` importing its own submodules
        reads as a self-edge.
        """
        resolved = [target] if target in project.modules else []
        for alias_target in module.imports.values():
            if (
                alias_target != module.name
                and alias_target.rpartition(".")[0] == target
                and alias_target in project.modules
            ):
                resolved.append(alias_target)
        return resolved

    # ------------------------------------------------------------------
    @staticmethod
    def _root_packages(project: Project) -> set[str]:
        return {name.split(".", 1)[0] for name in project.modules if "." in name}

    @staticmethod
    def _root_of(module_name: str, roots: set[str]) -> str | None:
        head = module_name.split(".", 1)[0]
        return head if head in roots else None

    def _cycles(
        self, project: Project, edges: dict[str, set[str]]
    ) -> Iterator[Violation]:
        """Tarjan SCCs over the module import graph; each SCC>1 is a cycle."""
        index_counter = [0]
        stack: list[str] = []
        on_stack: set[str] = set()
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        sccs: list[list[str]] = []

        def strongconnect(node: str) -> None:
            # Iterative Tarjan: recursion depth equals import-chain depth,
            # which real trees can exceed.
            work = [(node, iter(sorted(edges.get(node, ()))))]
            index[node] = lowlink[node] = index_counter[0]
            index_counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while work:
                current, it = work[-1]
                advanced = False
                for successor in it:
                    if successor not in index:
                        index[successor] = lowlink[successor] = index_counter[0]
                        index_counter[0] += 1
                        stack.append(successor)
                        on_stack.add(successor)
                        work.append((successor, iter(sorted(edges.get(successor, ())))))
                        advanced = True
                        break
                    if successor in on_stack:
                        lowlink[current] = min(lowlink[current], index[successor])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[current])
                if lowlink[current] == index[current]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == current:
                            break
                    sccs.append(scc)

        for name in sorted(edges):
            if name not in index:
                strongconnect(name)

        for scc in sccs:
            is_cycle = len(scc) > 1 or (
                len(scc) == 1 and scc[0] in edges.get(scc[0], ())
            )
            if not is_cycle:
                continue
            members = sorted(scc)
            module = project.modules[members[0]]
            yield self.finding(
                module,
                module.tree,
                "import-cycle",
                "module-level import cycle: " + " -> ".join(members + [members[0]]),
            )
