"""The static-analysis engine behind ``repro check`` (and ``repro lint``).

The analyzers share a single parsed
:class:`~repro.devtools.analysis.loader.Project`:

* ``lint`` — the per-file rules of :mod:`~repro.devtools.analysis.rules`
  (determinism, unit suffixes, API surface), one tree walk per file;
* ``tracepoints`` — the event/field schema read from the ``tracepoint``
  declarations, the sites checked against it, and its docs;
* ``layering`` — the core→sim→protocols→analysis→obs→harness→cli
  import DAG and cycle detection.

Importing this package registers all analyzers in
:data:`~repro.devtools.analysis.base.ANALYZERS`.
"""

from __future__ import annotations

from . import layering, rules, tracepoints  # noqa - analyzer registration
from .base import ANALYZERS, Analyzer
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
