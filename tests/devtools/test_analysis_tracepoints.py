"""Tracepoint schema analyzer: conflicts, variants, and the docs gates."""

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

    schemas = {s.event: s for s in build_schema(project)}
    # A conditional first slot is one site per name; an imported name resolves.
    assert sorted(schemas) == [
        "fix.accept", "fix.enqueue", "fix.imported", "fix.lost", "fix.reject",
    ]
    assert schemas["fix.imported"].variants[0].required == {"seq", "rtt_s"}
    assert len(schemas["fix.enqueue"].variants[0].sites) == 2
    # Constants are taken by position: the discriminated variants derive.
    lost = {v.value: v.required for v in schemas["fix.lost"].variants}
    assert lost == {
        "wire": {"node", "reason", "seq"},
        "tail": {"node", "reason", "seq", "backlog_bytes"},
    }


def test_discriminated_and_wildcard_sites_are_consistent():
    assert findings_for([OK_FILE]) == []


def test_schema_variants():
    schemas = {s.event: s for s in build_schema(Project.load([OK_FILE]))}
    assert sorted(schemas) == ["fix.decision", "fix.drop", "fix.rate"]

    drop = schemas["fix.drop"]
    values = sorted(v.value for v in drop.variants)
    assert values == ["outage", "tail"]
    tail = next(v for v in drop.variants if v.value == "tail")
    assert "backlog_bytes" in tail.required

    # Identical sites collapse to one undistinguished variant.
    rate = schemas["fix.rate"]
    assert len(rate.variants) == 1 and rate.variants[0].discriminator is None

    # Dynamic-discriminator sites group into the `reason=*` wildcard.
    decision = schemas["fix.decision"]
    wildcard = [v for v in decision.variants if v.value is None]
    assert len(wildcard) == 1 and wildcard[0].discriminator == "reason"
    assert len(wildcard[0].sites) == 2


def test_rendered_markdown_shows_wildcard_variants():
    rendered = render_schema_md(build_schema(Project.load([OK_FILE])))
    assert "`reason=*`" in rendered
    assert "`reason=tail`" in rendered


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
