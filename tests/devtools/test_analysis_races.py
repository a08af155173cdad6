"""Race/determinism analyzer against the golden fixture package."""

from pathlib import Path

from repro.devtools.analysis import ANALYZERS, Project

CASE = Path(__file__).parent / "fixtures" / "check" / "races_case"


def findings_for(case_dir):
    project = Project.load([case_dir])
    return sorted(ANALYZERS["races"].analyze(project))


def in_file(findings, name):
    return [f for f in findings if f.path.endswith(name)]


def test_worker_global_writes_are_flagged():
    bad = in_file(findings_for(CASE), "races_bad.py")
    writes = [f for f in bad if f.rule_id == "worker-global-write"]
    assert len(writes) == 3
    messages = sorted(f.message for f in writes)
    assert "calls 'RESULTS.append()'" in messages[0]
    assert "mutates module-level 'CACHE'" in messages[1]
    assert "writes module global 'COUNTER'" in messages[2]


def test_unseeded_random_found_through_a_helper():
    # `trial` (the worker root) never touches random; `jitter` does.
    bad = in_file(findings_for(CASE), "races_bad.py")
    random_findings = [f for f in bad if f.rule_id == "worker-unseeded-random"]
    assert len(random_findings) == 1
    assert "races_bad.jitter" in random_findings[0].message


def test_set_iteration_in_digest_function():
    bad = in_file(findings_for(CASE), "races_bad.py")
    unordered = [f for f in bad if f.rule_id == "unordered-iteration"]
    assert len(unordered) == 1
    assert "races_bad.digest_of" in unordered[0].message


def test_ok_file_is_clean():
    assert in_file(findings_for(CASE), "races_ok.py") == []
