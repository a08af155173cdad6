"""Repo-specific per-file lint rules, run as the ``lint`` analyzer.

Each rule encodes a determinism or unit-safety convention of this
codebase; `docs/DEVTOOLS.md` documents the rationale and the suppression
syntax (``# repro: noqa[rule-id]``):

* ``no-bare-random`` — stochastic draws must come from an injected
  :class:`repro.core.rng.Rng`;
* ``no-wallclock`` — no host-clock reads in ``sim/``, ``core/``,
  ``protocols/``;
* ``no-float-eq`` — no exact equality on simulated-time/rate floats;
* ``unit-suffix`` — public rate/time parameters in ``core/`` and
  ``sim/`` carry unit suffixes;
* ``mutable-default-arg`` — no mutable default argument values;
* ``no-bare-subprocess-result`` — pool futures are read in
  ``harness/parallel.py`` only;
* ``no-deep-harness-import`` — examples import the public surface.

Rules are small classes that inspect AST nodes.  :class:`PerFileRules`
(analyzer id ``lint``; ``repro lint [paths]`` runs it alone) walks each
module's tree — already parsed by the shared
:class:`~repro.devtools.analysis.loader.Project` — exactly once and
dispatches every node to the rules registered for its type that apply
to the file, so adding a rule never adds a traversal.  Check ids are
the rule ids.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .base import Analyzer, Registry, Violation, register_analyzer
from .loader import LintContext, Project, dotted_name, is_dataclass_def


class Rule:
    """Base class for lint rules.

    Subclasses set the metadata class attributes, declare the AST node
    types they want to see in ``node_types``, and implement
    :meth:`visit`, yielding ``(node, message)`` pairs for violations.
    ``applies_to`` scopes a rule to parts of the tree (e.g. only
    ``sim/`` and ``core/``).
    """

    id: str = ""
    name: str = ""
    description: str = ""
    node_types: tuple[type[ast.AST], ...] = ()

    def applies_to(self, ctx: LintContext) -> bool:
        return True

    def visit(
        self, node: ast.AST, ctx: LintContext
    ) -> Iterator[tuple[ast.AST, str]]:
        raise NotImplementedError  # pragma: no cover - abstract


RULES: Registry[Rule] = Registry("rule")
register = RULES.register


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def terminal_identifier(node: ast.AST) -> str | None:
    """The rightmost identifier of a Name/Attribute, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


_UNIT_SUFFIX_RE = re.compile(
    r"_(s|ms|us|ns|bps|kbps|mbps|gbps|bytes|kb|mb|hz|pkts|fraction|ratio|fn|factor)$"
)

_TIME_RATE_STEM_RE = re.compile(
    r"(^|_)(rate|delay|duration|interval|bandwidth|rtt|timeout|period|bitrate|"
    r"latency|jitter)(_|$)"
)

# Dataclass config fields get a stricter stem set: timeline specs are
# full of event *times* (at/start/end), and an unsuffixed one is exactly
# the seconds-vs-milliseconds bug the rule exists to catch.  The extra
# stems stay off the function-arg check because established engine APIs
# (Simulator.run(until=...), Flow(start_time=...)) predate the rule.
_CONFIG_FIELD_STEM_RE = re.compile(
    r"(^|_)(rate|delay|duration|interval|bandwidth|rtt|timeout|period|bitrate|"
    r"latency|jitter|time|at|start|end|until)(_|$)"
)

_FLOATY_NAME_RE = re.compile(
    r"(^|_)(now|time|rtt|srtt|rate|delay|deadline|interval|duration|bandwidth)(_|$)"
    r"|_(s|ms|us|bps|kbps|mbps|gbps|hz)$"
)


def _in_test_tree(ctx: LintContext) -> bool:
    """Under ``tests/`` or ``benchmarks/`` - looser rules apply there."""
    return ctx.in_package("tests", "benchmarks")


# ----------------------------------------------------------------------
# RPR001 no-bare-random
# ----------------------------------------------------------------------
@register
class NoBareRandom(Rule):
    """Ban direct use of ``random`` / ``np.random`` outside ``core/rng.py``.

    Every stochastic draw must come from an injected
    :class:`repro.core.rng.Rng` so a single seed reproduces a whole run;
    a bare module-level RNG is invisible global state that destroys
    bit-reproducibility the moment two call sites interleave
    differently.
    """

    id = "no-bare-random"
    name = "no bare random"
    description = (
        "use an injected repro.core.rng.Rng instead of the random / "
        "numpy.random modules"
    )
    node_types = (ast.Import, ast.ImportFrom, ast.Attribute)

    def applies_to(self, ctx: LintContext) -> bool:
        return not ctx.is_file("core", "rng.py")

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[tuple[ast.AST, str]]:
        # Test code may build seeded local generators (`import random` +
        # `random.Random(seed)`) for fixture data; only *unseeded global*
        # draws stay banned there.
        in_tests = _in_test_tree(ctx)
        if isinstance(node, ast.Import):
            for alias in node.names:
                if in_tests and alias.name == "random":
                    continue
                if alias.name == "random" or alias.name.startswith("numpy.random"):
                    yield node, (
                        f"bare 'import {alias.name}'; inject a seeded "
                        "repro.core.rng.Rng instead"
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "random" or module.startswith("numpy.random"):
                yield node, (
                    f"import from {module!r}; inject a seeded "
                    "repro.core.rng.Rng instead"
                )
        elif isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name) and value.id == "random":
                if in_tests and node.attr == "Random":
                    return
                yield node, (
                    f"'random.{node.attr}' draws from unseeded global state; "
                    "use an injected Rng"
                )
            elif (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in ("np", "numpy")
            ):
                yield node, (
                    f"'{value.value.id}.random.{node.attr}' draws from unseeded "
                    "global state; use an injected Rng"
                )


# ----------------------------------------------------------------------
# RPR002 no-wallclock
# ----------------------------------------------------------------------
_WALLCLOCK_CALLS = {
    "time.time",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
}


@register
class NoWallclock(Rule):
    """Ban wall-clock reads inside the simulated world.

    ``sim/``, ``core/`` and ``protocols/`` run on simulated time
    (``Simulator.now``); reading the host clock there silently couples a
    run's behaviour to machine load and makes traces non-reproducible.
    """

    id = "no-wallclock"
    name = "no wall clock"
    description = (
        "time.time()/datetime.now() are banned in sim/, core/ and "
        "protocols/; use Simulator.now"
    )
    node_types = (ast.Call,)

    def applies_to(self, ctx: LintContext) -> bool:
        if _in_test_tree(ctx):
            return False  # watchdog/budget tests time themselves on purpose
        return ctx.in_package("sim", "core", "protocols")

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[tuple[ast.AST, str]]:
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name in _WALLCLOCK_CALLS:
            yield node, (
                f"'{name}()' reads the wall clock; simulated components "
                "must use Simulator.now"
            )


# ----------------------------------------------------------------------
# RPR003 no-float-eq
# ----------------------------------------------------------------------
@register
class NoFloatEq(Rule):
    """Ban ``==`` / ``!=`` on simulated-time/rate floats.

    Times and rates accumulate float rounding (the analytic queue model
    adds and subtracts serialization intervals all run long), so exact
    equality is a latent heisenbug.  Compare with ``<`` / ``>`` or an
    explicit epsilon.  Comparisons against ``float('inf')`` sentinels
    are exact and allowed.
    """

    id = "no-float-eq"
    name = "no float equality"
    description = (
        "== / != on simulated-time or rate floats; use ordering or an "
        "epsilon"
    )
    node_types = (ast.Compare,)

    def applies_to(self, ctx: LintContext) -> bool:
        # Determinism tests assert bit-exact replays *by design*.
        return not _in_test_tree(ctx)

    @staticmethod
    def _is_inf_sentinel(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).lower() in ("inf", "-inf", "nan")
        )

    @classmethod
    def _is_floaty(cls, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        name = terminal_identifier(node)
        if name is None:
            return False
        return _FLOATY_NAME_RE.search(name) is not None

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[tuple[ast.AST, str]]:
        assert isinstance(node, ast.Compare)
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            if self._is_inf_sentinel(left) or self._is_inf_sentinel(right):
                continue
            for side in (left, right):
                if self._is_floaty(side):
                    label = terminal_identifier(side)
                    shown = f"'{label}'" if label else "a float literal"
                    yield node, (
                        f"exact equality on {shown} (simulated time/rate "
                        "float); use ordering or an epsilon"
                    )
                    break


# ----------------------------------------------------------------------
# RPR004 unit-suffix
# ----------------------------------------------------------------------
@register
class UnitSuffix(Rule):
    """Require unit suffixes on rate/time parameters of public APIs.

    In ``core/`` and ``sim/``, a public signature taking a rate or a
    duration must say its unit in the name (``_bps``, ``_mbps``, ``_s``,
    ``_ms``, ...): the Mbps-vs-bytes/sec-vs-pkts/MI confusion is exactly
    the class of bug a test suite rarely reaches.  Probability-per-packet
    names (``loss_rate``) are unit-free and allowed.
    """

    id = "unit-suffix"
    name = "unit suffix"
    description = (
        "public rate/time parameters and dataclass config fields in "
        "core/, sim/ and harness/scenarios.py must carry a unit suffix "
        "such as _s, _ms, _bps or _mbps"
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    # loss_rate/drop_rate are per-packet probabilities, rtt_gradient is
    # the paper's dimensionless d(RTT)/dt slope.
    ALLOWED_NAMES = frozenset({"loss_rate", "drop_rate", "rtt_gradient"})

    def applies_to(self, ctx: LintContext) -> bool:
        if _in_test_tree(ctx):
            return False  # test-local helpers are not public API surface
        return ctx.in_package("sim", "core") or ctx.is_file("harness", "scenarios.py")

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[tuple[ast.AST, str]]:
        if isinstance(node, ast.ClassDef):
            yield from self._visit_dataclass(node)
            return
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        # __init__ signatures are the class's public constructor API.
        if node.name.startswith("_") and node.name != "__init__":
            return
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            name = arg.arg
            if name in ("self", "cls") or name in self.ALLOWED_NAMES:
                continue
            if not _TIME_RATE_STEM_RE.search(name):
                continue
            if _UNIT_SUFFIX_RE.search(name):
                continue
            yield arg, (
                f"parameter '{name}' of public '{node.name}()' names a "
                "rate/time quantity without a unit suffix (_s, _ms, _bps, "
                "_mbps, ...)"
            )

    def _visit_dataclass(self, node: ast.ClassDef) -> Iterator[tuple[ast.AST, str]]:
        """Check annotated fields of ``@dataclass`` config classes.

        Dataclass fields *are* the public constructor API, but they never
        pass through the FunctionDef check (there is no explicit
        ``__init__``), so timeline/scenario specs would otherwise escape
        the rule entirely.
        """
        if not is_dataclass_def(node):
            return
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                stmt.target, ast.Name
            ):
                continue
            name = stmt.target.id
            if name.startswith("_") or name in self.ALLOWED_NAMES:
                continue
            if not _CONFIG_FIELD_STEM_RE.search(name):
                continue
            if _UNIT_SUFFIX_RE.search(name):
                continue
            yield stmt.target, (
                f"field '{name}' of dataclass '{node.name}' names a "
                "rate/time quantity without a unit suffix (_s, _ms, _bps, "
                "_mbps, ...)"
            )


# ----------------------------------------------------------------------
# RPR006 no-bare-subprocess-result
# ----------------------------------------------------------------------
@register
class NoBareSubprocessResult(Rule):
    """Ban bare ``future.result()`` outside ``harness/parallel.py``.

    A bare ``.result()`` on a pool future re-raises worker exceptions
    with a traceback that dead-ends in pool plumbing, turns one dead
    worker into an aborted sweep, and silently loses which submission
    failed.  The one place that reads pool futures is
    :func:`repro.harness.parallel.dispatch_round`, which hands each
    item's value or exception to a policy that attributes
    (``run_all``), re-raises (``pmap``) or records and retries
    (``supervised_map``) it.
    """

    id = "no-bare-subprocess-result"
    name = "no bare subprocess result"
    description = (
        "future.result() outside harness/parallel.py; run pool work "
        "through pmap, run_all or supervised_map"
    )
    node_types = (ast.Call,)

    def applies_to(self, ctx: LintContext) -> bool:
        return not ctx.is_file("harness", "parallel.py")

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[tuple[ast.AST, str]]:
        assert isinstance(node, ast.Call)
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "result":
            yield node, (
                "bare '.result()' on a future loses failure attribution "
                "and crash recovery; use repro.harness.parallel or .supervise"
            )


# ----------------------------------------------------------------------
# RPR007 no-deep-harness-import
# ----------------------------------------------------------------------
@register
class NoDeepHarnessImport(Rule):
    """Ban deep ``repro.harness.<module>`` imports in examples and docs.

    Example code is the template users copy, and it must only lean on
    the stable public surface — ``repro`` itself (lazy re-exports) or
    ``repro.harness`` — never on private module layout like
    ``repro.harness.runner``, which the one-release deprecation policy
    does not cover and refactors are free to move.
    """

    id = "no-deep-harness-import"
    name = "no deep harness import"
    description = (
        "examples/ and docs/ must import from 'repro' or 'repro.harness', "
        "not submodules like 'repro.harness.runner'"
    )
    node_types = (ast.Import, ast.ImportFrom)

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.in_package("examples", "docs")

    @staticmethod
    def _is_deep(module: str) -> bool:
        return module.startswith("repro.harness.")

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[tuple[ast.AST, str]]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if self._is_deep(alias.name):
                    yield node, (
                        f"deep import 'import {alias.name}' bypasses the "
                        "public API; import from 'repro' or 'repro.harness'"
                    )
        else:
            assert isinstance(node, ast.ImportFrom)
            module = node.module or ""
            if node.level == 0 and self._is_deep(module):
                yield node, (
                    f"deep import 'from {module} import ...' bypasses the "
                    "public API; import from 'repro' or 'repro.harness'"
                )


# ----------------------------------------------------------------------
# RPR005 mutable-default-arg
# ----------------------------------------------------------------------
@register
class MutableDefaultArg(Rule):
    """Ban mutable default argument values.

    A ``list``/``dict``/``set`` default is created once at ``def`` time
    and shared by every call — state leaks between what look like
    independent invocations (and between simulation runs).
    """

    id = "mutable-default-arg"
    name = "mutable default argument"
    description = "default argument values must not be mutable"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "deque", "defaultdict"})

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name is not None and name.split(".")[-1] in self._MUTABLE_CALLS
        return False

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[tuple[ast.AST, str]]:
        args = node.args
        for default in (*args.defaults, *args.kw_defaults):
            if default is not None and self._is_mutable(default):
                yield default, (
                    "mutable default argument is shared across calls; "
                    "default to None and create it in the body"
                )


# ----------------------------------------------------------------------
# The analyzer
# ----------------------------------------------------------------------
@register_analyzer
class PerFileRules(Analyzer):
    id = "lint"
    description = (
        "per-file determinism, unit-safety and API-surface rules "
        "(what 'repro lint' runs)"
    )
    check_help = {rule.id: rule.description for rule in RULES.all()}
    check_ids = tuple(check_help)

    def analyze(self, project: Project) -> Iterator[Violation]:
        rules = RULES.all()
        for module in project.modules.values():
            dispatch: dict[type[ast.AST], list[Rule]] = {}
            for rule in rules:
                if rule.applies_to(module.ctx):
                    for node_type in rule.node_types:
                        dispatch.setdefault(node_type, []).append(rule)
            if not dispatch:
                continue
            for node in ast.walk(module.tree):
                for rule in dispatch.get(type(node), ()):
                    for flagged, message in rule.visit(node, module.ctx):
                        yield self.finding(module, flagged, rule.id, message)
