"""AST-based static analyzer with repo-specific determinism rules.

Run it as ``repro lint [paths...]`` (defaults to ``src``); it exits
non-zero when any violation is found.  Rules (see
``docs/DEVTOOLS.md``):

* ``no-bare-random`` — stochastic draws must come from an injected
  :class:`repro.core.rng.Rng`;
* ``no-wallclock`` — no host-clock reads in ``sim/``, ``core/``,
  ``protocols/``;
* ``no-float-eq`` — no exact equality on simulated-time/rate floats;
* ``unit-suffix`` — public rate/time parameters in ``core/`` and
  ``sim/`` carry unit suffixes;
* ``mutable-default-arg`` — no mutable default argument values.

Suppress a single line with ``# repro: noqa[rule-id]``.
"""

from .base import REGISTRY, LintContext, Rule, RuleRegistry, Violation, register
from .engine import (
    LintEngine,
    describe_rules,
    format_json,
    format_text,
    iter_python_files,
    lint_paths,
)

# Importing the module registers the built-in rules with REGISTRY.
from . import rules as _rules  # noqa: F401

__all__ = [
    "LintContext",
    "LintEngine",
    "REGISTRY",
    "Rule",
    "RuleRegistry",
    "Violation",
    "describe_rules",
    "format_json",
    "format_text",
    "iter_python_files",
    "lint_paths",
    "register",
]
