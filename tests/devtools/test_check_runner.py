"""run_check plumbing: suppression, error handling, analyzer selection."""

import pytest

from repro.devtools.analysis import run_check, select_analyzers

MIXED = "def f(items=[]):{comment}\n    return items\n"


def check_source(tmp_path, source, **kwargs):
    target = tmp_path / "mod.py"
    target.write_text(source)
    return run_check([target], **kwargs)


def test_line_noqa_suppresses_a_finding(tmp_path):
    report = check_source(
        tmp_path, MIXED.format(comment="  # repro: noqa[mutable-default-arg]")
    )
    assert report.ok
    assert report.suppressed == 1


def test_file_noqa_suppresses_across_the_file(tmp_path):
    source = "# repro: noqa-file[mutable-default-arg]\n" + MIXED.format(comment="")
    report = check_source(tmp_path, source)
    assert report.ok
    assert report.suppressed == 1


def test_unsuppressed_finding_fails(tmp_path):
    report = check_source(tmp_path, MIXED.format(comment=""))
    assert not report.ok
    assert [f.rule_id for f in report.findings] == ["mutable-default-arg"]


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
        "tracepoints",
    ]
