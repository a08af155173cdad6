"""Tracepoint analyzer: declarations, the sites checked against them, and the docs gates."""

from pathlib import Path

from repro.devtools.analysis import ANALYZERS, Project, run_check, write_trace_schema
from repro.devtools.analysis.tracepoints import build_schema, render_schema_md

CASE = Path(__file__).parent / "fixtures" / "check" / "trace_case"
OK_FILE = CASE / "trace_ok.py"


def findings_for(paths):
    project = Project.load(paths)
    return sorted(ANALYZERS["tracepoints"].analyze(project))


def test_disagreeing_sites_conflict():
    findings = findings_for([CASE / "trace_bad.py"])
    assert [f.rule_id for f in findings] == ["trace-field-mismatch"] * 2
    events = sorted(f.message.split("'")[1] for f in findings)
    assert events == ["fix.mixed", "fix.sample"]
    assert all(f.path.endswith("trace_bad.py") for f in findings)


def test_envelope_names_are_rejected_as_payload_fields():
    findings = findings_for([CASE / "trace_reserved.py"])
    assert [f.rule_id for f in findings] == ["trace-reserved-field"] * 2
    assert sorted(f.message.split("'")[1::2][:2] for f in findings) == [
        ["fix.route", "flow"],
        ["fix.stamp", "t"],
    ]


def test_declared_rows_are_sites_and_a_short_row_is_flagged():
    project = Project.load([CASE / "trace_rows.py", CASE / "trace_shapes.py"])
    findings = sorted(ANALYZERS["tracepoints"].analyze(project))
    assert [f.rule_id for f in findings] == ["trace-arity-mismatch"]
    assert "'fix.enqueue'" in findings[0].message and "6 values, not 7" in findings[0].message

    assert [(d.event, d.fields) for d in build_schema(project)] == [
        ("fix.accept", ("seq", "rtt_s")),
        ("fix.enqueue", ("node", "seq", "backlog_bytes")),
        ("fix.imported", ("seq", "rtt_s")),
        ("fix.lost", ("node", "reason", "seq")),
        ("fix.lost", ("node", "reason", "seq", "backlog_bytes")),
        ("fix.reject", ("seq", "rtt_s")),
    ]
    # A conditional first slot is checked against each name; an imported name resolves.
    project.add_source(
        CASE / "trace_short.py",
        "from trace_rows import FIX_ACCEPT, FIX_REJECT\n"
        "from trace_shapes import FIX_IMPORTED\n\n\n"
        "def short(tracer, ok):\n"
        "    tracer.record((FIX_ACCEPT if ok else FIX_REJECT, 0.0, 1, None, 7))\n"
        "    tracer.record((FIX_IMPORTED, 0.0, 1, None, 7))\n",
    )
    short = [
        f.message.split("'")[1]
        for f in sorted(ANALYZERS["tracepoints"].analyze(project))
        if f.path.endswith("trace_short.py")
    ]
    assert sorted(short) == ["fix.accept", "fix.imported", "fix.reject"]


def test_a_short_helper_call_is_flagged():
    findings = findings_for([CASE / "trace_helper.py"])
    assert [f.rule_id for f in findings] == ["trace-arity-mismatch"]
    assert "'fix.cwnd'" in findings[0].message and "1 values after its shape, not the 2" in (
        findings[0].message
    )
    assert findings[0].line == 16


def test_a_by_name_emit_is_undeclared():
    findings = findings_for([CASE / "trace_emit.py"])
    assert [(f.rule_id, f.line) for f in findings] == [("trace-undeclared", 5)]


def test_discriminated_and_wildcard_sites_are_consistent():
    assert findings_for([OK_FILE]) == []


def test_schema_variants():
    schema = build_schema(Project.load([OK_FILE]))
    assert [(d.event, d.name) for d in schema] == [
        ("fix.decision", "trace_ok.FIX_DECISION"),
        ("fix.decision", "trace_ok.FIX_DECISION_BOOT"),
        ("fix.drop", "trace_ok.FIX_DROP"),
        ("fix.drop", "trace_ok.FIX_DROP_TAIL"),
        ("fix.rate", "trace_ok.FIX_RATE"),
    ]
    # Fields keep their declared (row) order.
    assert schema[3].fields == ("reason", "seq", "backlog_bytes")


def test_rendered_markdown_has_one_row_per_declaration():
    rendered = render_schema_md(build_schema(Project.load([OK_FILE])))
    assert "| `fix.drop` | `trace_ok.FIX_DROP_TAIL` | `reason`, `seq`, `backlog_bytes` |" in (
        rendered
    )
    assert rendered.count("| `fix.") == 5
    assert "optional" not in rendered and "*dynamic*" not in rendered


def test_missing_schema_doc_is_stale_until_generated(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    report = run_check([OK_FILE], checks=["tracepoints"], docs_dir=docs)
    assert [f.rule_id for f in report.findings] == ["trace-schema-stale"]

    write_trace_schema([OK_FILE], docs)
    report = run_check([OK_FILE], checks=["tracepoints"], docs_dir=docs)
    assert report.ok


def test_undocumented_events_are_flagged(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    write_trace_schema([OK_FILE], docs)
    (docs / "OBSERVABILITY.md").write_text(
        "# Events\n\nOnly `fix.drop` and `fix.rate` are described here.\n"
    )
    report = run_check([OK_FILE], checks=["tracepoints"], docs_dir=docs)
    assert [f.rule_id for f in report.findings] == ["trace-undocumented"]
    assert "fix.decision" in report.findings[0].message
