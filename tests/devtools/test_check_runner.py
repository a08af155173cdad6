"""run_check plumbing: suppression, baseline semantics, error handling."""

import pytest

from repro.devtools.analysis import (
    Baseline,
    BaselineEntry,
    run_check,
    select_analyzers,
)

MIXED = "def f(rtt_ms, size_bytes):\n    return rtt_ms + size_bytes{comment}\n"


def check_source(tmp_path, source, **kwargs):
    target = tmp_path / "mod.py"
    target.write_text(source)
    return run_check([target], **kwargs)


def test_line_noqa_suppresses_a_finding(tmp_path):
    report = check_source(
        tmp_path, MIXED.format(comment="  # repro: noqa[unit-mismatch]")
    )
    assert report.ok
    assert report.suppressed == 1


def test_file_noqa_suppresses_across_the_file(tmp_path):
    source = "# repro: noqa-file[unit-mismatch]\n" + MIXED.format(comment="")
    report = check_source(tmp_path, source)
    assert report.ok
    assert report.suppressed == 1


def test_unsuppressed_finding_fails(tmp_path):
    report = check_source(tmp_path, MIXED.format(comment=""))
    assert not report.ok
    assert [f.rule_id for f in report.findings] == ["unit-mismatch"]


def test_baseline_covers_and_reports_stale(tmp_path):
    covering = Baseline(
        entries=[BaselineEntry(rule="unit-mismatch", path="mod.py", reason="known")]
    )
    report = check_source(tmp_path, MIXED.format(comment=""), baseline=covering)
    assert report.ok
    assert len(report.baselined) == 1 and not report.findings

    stale = Baseline(
        entries=[BaselineEntry(rule="unit-mismatch", path="other.py", reason="gone")]
    )
    report = check_source(tmp_path, "X = 1\n", baseline=stale)
    assert not report.ok  # a stale entry fails the gate even with no findings
    assert len(report.stale_entries) == 1


def test_entry_of_an_analyzer_that_did_not_run_is_not_stale(tmp_path):
    # `repro check src --check units` used to call the committed
    # worker-global-write entries stale: the races analyzer never ran.
    baseline = Baseline(
        entries=[BaselineEntry(rule="worker-global-write", path="mod.py", reason="x")]
    )
    report = check_source(tmp_path, "X = 1\n", baseline=baseline, checks=["units"])
    assert report.ok and not report.stale_entries
    # The same entry *is* stale once its analyzer runs and finds nothing.
    report = check_source(tmp_path, "X = 1\n", baseline=baseline, checks=["races"])
    assert report.stale_entries == baseline.entries


def test_entry_for_a_file_outside_the_run_is_not_stale(tmp_path):
    # `repro check src/repro/sim` used to call entries for harness/cache.py
    # stale: the file exists, it just was not part of this run.
    (tmp_path / "other.py").write_text("X = 2\n")
    baseline = Baseline(
        entries=[
            BaselineEntry(
                rule="unit-mismatch", path=str(tmp_path / "other.py"), reason="x"
            )
        ]
    )
    report = check_source(tmp_path, "X = 1\n", baseline=baseline)
    assert report.ok and not report.stale_entries
    # Loaded and clean: now the entry matched nothing it could have.
    report = run_check([tmp_path], baseline=baseline)
    assert report.stale_entries == baseline.entries


def test_baseline_match_string_must_occur(tmp_path):
    miss = Baseline(
        entries=[
            BaselineEntry(
                rule="unit-mismatch", path="mod.py", reason="x", match="no-such-text"
            )
        ]
    )
    report = check_source(tmp_path, MIXED.format(comment=""), baseline=miss)
    assert not report.ok
    assert report.findings and report.stale_entries


def test_syntax_errors_become_findings(tmp_path):
    report = check_source(tmp_path, "def broken(:\n")
    assert [f.rule_id for f in report.findings] == ["syntax-error"]
    assert report.files == 1


def test_unknown_check_id_raises():
    with pytest.raises(ValueError, match="unknown check"):
        select_analyzers(["nope"])


def test_select_all_analyzers():
    assert sorted(a.id for a in select_analyzers(None)) == [
        "layering",
        "lint",
        "races",
        "tracepoints",
        "units",
    ]
