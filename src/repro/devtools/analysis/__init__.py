"""The static-analysis engine behind ``repro check`` (and ``repro lint``).

The analyzers share a single parsed
:class:`~repro.devtools.analysis.loader.Project`; all but ``lint``
reason across module boundaries:

* ``lint`` — the per-file rules of :mod:`~repro.devtools.analysis.rules`
  (determinism, unit suffixes, API surface), one tree walk per file;
* ``units`` — dataflow over the ``_s/_ms/_bps/_bytes/_pkts`` suffix
  convention, including cross-module call sites;
* ``races`` — determinism hazards in code reachable from the
  ``pmap``/``run_trials*`` worker dispatch;
* ``tracepoints`` — the ``tracer.emit`` event/field schema and its docs;
* ``layering`` — the core→sim→protocols→analysis→obs→harness→cli
  import DAG and cycle detection.

Importing this package registers all analyzers in
:data:`~repro.devtools.analysis.base.ANALYZERS`.
"""

from __future__ import annotations

from . import layering, races, rules, tracepoints, units  # noqa - analyzer registration
from .base import ANALYZERS, Analyzer, Baseline, BaselineEntry
from .loader import Project
from .runner import (
    CheckReport,
    describe_checks,
    format_report_github,
    format_report_json,
    format_report_text,
    run_check,
    select_analyzers,
    write_trace_schema,
)

__all__ = [
    "ANALYZERS",
    "Analyzer",
    "Baseline",
    "BaselineEntry",
    "CheckReport",
    "Project",
    "describe_checks",
    "format_report_github",
    "format_report_json",
    "format_report_text",
    "run_check",
    "select_analyzers",
    "write_trace_schema",
]
