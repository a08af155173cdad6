"""Orchestration for ``repro check``: load once, run analyzers, report.

The pipeline per run:

1. :class:`~repro.devtools.analysis.loader.Project` parses every file
   once (analyzers share the tree and symbol tables);
2. each selected analyzer contributes findings (syntax errors surface as
   ``syntax-error`` findings rather than crashing the run);
3. findings on lines carrying ``# repro: noqa[check-id]`` — or in files
   carrying ``# repro: noqa-file[check-id]`` — are dropped; every other
   finding fails the gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .base import ANALYZERS, Analyzer, Violation
from .loader import Project
from .tracepoints import build_schema, render_schema_md

SYNTAX_ERROR_RULE = "syntax-error"


@dataclass
class CheckReport:
    """Everything one ``repro check`` run decided."""

    findings: list[Violation] = field(default_factory=list)  # fail the gate
    suppressed: int = 0  # dropped by noqa / noqa-file
    files: int = 0
    checks: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def select_analyzers(checks: Sequence[str] | None) -> list[Analyzer]:
    """Analyzers for ``--check`` ids (None = all); unknown ids raise."""
    if checks is None:
        return ANALYZERS.all()
    unknown = [check for check in checks if check not in ANALYZERS]
    if unknown:
        known = ", ".join(sorted(ANALYZERS))
        raise ValueError(f"unknown check(s) {', '.join(unknown)}; known: {known}")
    return [ANALYZERS[check] for check in checks]


def run_check(
    paths: Iterable[str | Path],
    *,
    checks: Sequence[str] | None = None,
    docs_dir: str | Path | None = None,
    project: Project | None = None,
) -> CheckReport:
    """Run the whole-program analyzers over ``paths``.

    ``docs_dir`` enables the tracepoint documentation checks
    (OBSERVABILITY.md coverage, TRACE_SCHEMA.md staleness).  A
    pre-loaded ``project`` can be passed to share the parse with
    schema generation.
    """
    if project is None:
        project = Project.load(paths)
    if docs_dir is not None:
        project.docs_dir = Path(docs_dir)
    analyzers = select_analyzers(checks)

    findings: list[Violation] = [
        Violation(
            path=str(err_path),
            line=exc.lineno or 1,
            col=exc.offset or 1,
            rule_id=SYNTAX_ERROR_RULE,
            message=f"cannot parse: {exc.msg}",
        )
        for err_path, exc in project.syntax_errors
    ]
    for analyzer in analyzers:
        findings.extend(analyzer.analyze(project))
    findings.sort()

    by_path = {str(module.path): module for module in project.modules.values()}
    visible: list[Violation] = []
    suppressed = 0
    for finding in findings:
        module = by_path.get(finding.path)
        if module is not None and module.ctx.is_suppressed(
            finding.line, finding.rule_id
        ):
            suppressed += 1
        else:
            visible.append(finding)
    return CheckReport(
        findings=visible,
        suppressed=suppressed,
        files=len(project.modules) + len(project.syntax_errors),
        checks=[analyzer.id for analyzer in analyzers],
    )


def write_trace_schema(
    paths: Iterable[str | Path],
    docs_dir: str | Path,
    *,
    project: Project | None = None,
) -> Path:
    """Regenerate ``docs/TRACE_SCHEMA.md`` from the code; returns the path."""
    if project is None:
        project = Project.load(paths)
    schema_path = Path(docs_dir) / "TRACE_SCHEMA.md"
    schema_path.write_text(render_schema_md(build_schema(project)))
    return schema_path


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def describe_checks() -> str:
    """One line per check id, grouped by analyzer (``--list-checks``)."""
    lines = []
    for analyzer in ANALYZERS.all():
        lines.append(f"{analyzer.id}: {analyzer.description}")
        for check_id in analyzer.check_ids:
            lines.append(f"  {check_id}  {analyzer.check_help.get(check_id, '')}".rstrip())
    return "\n".join(lines)


def format_report_text(report: CheckReport) -> str:
    lines = [finding.render() for finding in report.findings]
    noun = "finding" if len(report.findings) == 1 else "findings"
    lines.append(
        f"{len(report.findings)} {noun} "
        f"({report.suppressed} suppressed, {report.files} files, "
        f"checks: {', '.join(report.checks)})"
    )
    return "\n".join(lines)


def format_report_json(report: CheckReport) -> str:
    def encode(violation: Violation) -> dict:
        return {
            "path": violation.path,
            "line": violation.line,
            "col": violation.col,
            "rule": violation.rule_id,
            "message": violation.message,
        }

    return json.dumps(
        {
            "ok": report.ok,
            "findings": [encode(v) for v in report.findings],
            "suppressed": report.suppressed,
            "files": report.files,
            "checks": report.checks,
        },
        indent=2,
    )


def format_report_github(report: CheckReport) -> str:
    """GitHub Actions workflow-command annotations, one per finding."""

    def escape(text: str) -> str:
        return (
            text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
        )

    return "\n".join(
        f"::error file={v.path},line={v.line},col={v.col},"
        f"title={v.rule_id}::{escape(v.message)}"
        for v in report.findings
    )
