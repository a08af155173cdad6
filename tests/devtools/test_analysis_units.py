"""Unit dataflow analyzer against the golden fixture package."""

from pathlib import Path

from repro.devtools.analysis import ANALYZERS, Project

CASE = Path(__file__).parent / "fixtures" / "check" / "units_case"


def findings_for(case_dir):
    project = Project.load([case_dir])
    return sorted(ANALYZERS["units"].analyze(project))


def in_file(findings, name):
    return [f for f in findings if f.path.endswith(name)]


def test_bad_file_flags_every_construct():
    bad = in_file(findings_for(CASE), "units_bad.py")
    messages = [f.message for f in bad]
    assert len(bad) == 6
    assert any("incompatible dimensions (_ms vs _bytes)" in m for m in messages)
    assert any("assignment to delay_s" in m for m in messages)
    assert any("comparison" in m and "_s vs _ms" in m for m in messages)
    assert any("keyword 'rtt_s' of 'record()'" in m for m in messages)
    assert any("'max()' arguments mix units" in m for m in messages)
    assert any("augmented assignment to total_bytes" in m for m in messages)


def test_keyword_sites_use_the_call_check_id():
    bad = in_file(findings_for(CASE), "units_bad.py")
    kw = [f for f in bad if "keyword 'rtt_s'" in f.message]
    assert [f.rule_id for f in kw] == ["unit-call-mismatch"]


def test_cross_module_positional_resolution():
    calls = in_file(findings_for(CASE), "caller.py")
    assert [f.rule_id for f in calls] == ["unit-call-mismatch"] * 2
    by_message = sorted(f.message for f in calls)
    assert "argument 1 of 'Pacer()' fills parameter 'rate_bps'" in by_message[0]
    assert "argument 1 of 'wait_for()' fills parameter 'delay_s'" in by_message[1]


def test_ok_file_is_clean():
    assert in_file(findings_for(CASE), "units_ok.py") == []
    assert in_file(findings_for(CASE), "helper.py") == []


def test_literal_rescale_is_not_a_false_positive():
    # The `call_right` site passes `rtt_ms * 1e-3` into a `_s` parameter.
    calls = in_file(findings_for(CASE), "caller.py")
    assert not any("call_right" in f.message for f in calls)
