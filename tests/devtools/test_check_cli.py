"""CLI surface of ``repro check``: exit codes, formats, baseline flow."""

import json
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

MIXED = "def f(rtt_ms, size_bytes):\n    return rtt_ms + size_bytes\n"
CLEAN = "def f(rtt_ms):\n    rtt_s = rtt_ms * 1e-3\n    return rtt_s\n"


def tree(tmp_path, source):
    (tmp_path / "mod.py").write_text(source)
    return str(tmp_path)


def test_check_src_is_clean_at_head(capsys, monkeypatch):
    """The meta-gate: the shipped tree passes its own whole-program check."""
    monkeypatch.chdir(REPO_ROOT)
    assert main(["check", "src", "--docs-dir", "docs"]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_clean_tree_exits_zero(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["check", tree(tmp_path, CLEAN)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_findings_exit_one(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["check", tree(tmp_path, MIXED)]) == 1
    out = capsys.readouterr().out
    assert "unit-mismatch" in out
    assert "1 finding" in out


def test_json_format(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["check", "--format", "json", tree(tmp_path, MIXED)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert [f["rule"] for f in payload["findings"]] == ["unit-mismatch"]
    assert {"path", "line", "col", "rule", "message"} <= set(payload["findings"][0])


def test_github_format(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["check", "--format", "github", tree(tmp_path, MIXED)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=")
    assert "title=unit-mismatch" in out


def test_check_filter(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # Only the layering analyzer selected: the unit mismatch is invisible.
    assert main(["check", "--check", "layering", tree(tmp_path, MIXED)]) == 0
    assert "checks: layering" in capsys.readouterr().out


def test_unknown_check_exits_two(capsys, tmp_path):
    assert main(["check", "--check", "nope", tree(tmp_path, CLEAN)]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_missing_path_exits_two(capsys):
    assert main(["check", "does/not/exist"]) == 2
    assert "does/not/exist" in capsys.readouterr().err


def test_list_checks(capsys):
    assert main(["check", "--list-checks"]) == 0
    out = capsys.readouterr().out
    for check_id in (
        "unit-mismatch",
        "unit-call-mismatch",
        "worker-global-write",
        "worker-unseeded-random",
        "unordered-iteration",
        "trace-field-mismatch",
        "trace-reserved-field",
        "layer-violation",
        "import-cycle",
    ):
        assert check_id in out


def test_update_baseline_then_pass(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tree(tmp_path, MIXED)
    baseline = tmp_path / "baseline.json"

    assert main(["check", target, "--baseline", str(baseline), "--update-baseline"]) == 0
    entries = json.loads(baseline.read_text())["entries"]
    assert [e["rule"] for e in entries] == ["unit-mismatch"]
    assert "TODO" in entries[0]["reason"]

    capsys.readouterr()
    assert main(["check", target, "--baseline", str(baseline)]) == 0
    assert "1 baselined" in capsys.readouterr().out


def test_update_baseline_preserves_justifications(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tree(tmp_path, MIXED)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {
                "entries": [
                    {
                        "rule": "unit-mismatch",
                        "path": "mod.py",
                        "reason": "a considered justification",
                    }
                ]
            }
        )
    )
    assert main(["check", target, "--baseline", str(baseline), "--update-baseline"]) == 0
    entries = json.loads(baseline.read_text())["entries"]
    assert [e["reason"] for e in entries] == ["a considered justification"]


def test_stale_baseline_fails(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tree(tmp_path, CLEAN)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {"entries": [{"rule": "unit-mismatch", "path": "gone.py", "reason": "old"}]}
        )
    )
    assert main(["check", target, "--baseline", str(baseline)]) == 1
    assert "stale baseline entry" in capsys.readouterr().out


def test_update_schema_writes_the_doc(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "emitter.py").write_text(
        'def f(tracer, rtt_s):\n    tracer.emit("ev.x", rtt_s=rtt_s)\n'
    )
    docs = tmp_path / "docs"
    docs.mkdir()
    assert (
        main(
            [
                "check",
                str(tmp_path / "emitter.py"),
                "--docs-dir",
                str(docs),
                "--update-schema",
            ]
        )
        == 0
    )
    schema = (docs / "TRACE_SCHEMA.md").read_text()
    assert "`ev.x`" in schema and "`rtt_s`" in schema
