"""CLI surface of ``repro check``: exit codes, formats, analyzer selection."""

import json
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

MIXED = "def f(items=[]):\n    return items\n"
CLEAN = "def f(items=None):\n    return list(items or ())\n"


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
    assert "mutable-default-arg" in out
    assert "1 finding" in out


def test_json_format(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["check", "--format", "json", tree(tmp_path, MIXED)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert [f["rule"] for f in payload["findings"]] == ["mutable-default-arg"]
    assert {"path", "line", "col", "rule", "message"} <= set(payload["findings"][0])


def test_github_format(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["check", "--format", "github", tree(tmp_path, MIXED)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=")
    assert "title=mutable-default-arg" in out


def test_check_filter(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # Only the layering analyzer selected: the mutable default is invisible.
    assert main(["check", "--check", "layering", tree(tmp_path, MIXED)]) == 0
    assert "checks: layering" in capsys.readouterr().out


def test_unknown_check_exits_two(capsys, tmp_path):
    # `units` and `races` were analyzers once; they are unknown ids now.
    for check in ("nope", "units", "races"):
        assert main(["check", "--check", check, tree(tmp_path, CLEAN)]) == 2
        err = capsys.readouterr().err
        assert "unknown check" in err
        assert "known: layering, lint, tracepoints" in err


def test_missing_path_exits_two(capsys):
    assert main(["check", "does/not/exist"]) == 2
    assert "does/not/exist" in capsys.readouterr().err


def test_list_checks(capsys):
    assert main(["check", "--list-checks"]) == 0
    out = capsys.readouterr().out
    for check_id in (
        "mutable-default-arg",
        "no-bare-random",
        "trace-field-mismatch",
        "trace-arity-mismatch",
        "trace-reserved-field",
        "trace-undeclared",
        "layer-violation",
        "import-cycle",
    ):
        assert check_id in out


def test_update_schema_writes_the_doc(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "emitter.py").write_text(
        'from repro.core.tracepoint import tracepoint\n\nEV_X = tracepoint("ev.x", "rtt_s")\n'
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
