"""CLI surface of ``repro lint``: the ``check --check lint`` alias."""

import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def planted(tmp_path, name):
    """Copy a fixture outside the tests/ tree so full rule strictness applies."""
    out = tmp_path / Path(name).name
    out.write_text((FIXTURES / name).read_text())
    return str(out)


def test_lint_clean_tree_exits_zero(capsys):
    assert main(["lint", str(REPO_ROOT / "src")]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out
    assert "checks: lint)" in out


def test_lint_violations_exit_one(capsys, tmp_path):
    assert main(["lint", planted(tmp_path, "bare_random.py")]) == 1
    out = capsys.readouterr().out
    assert "no-bare-random" in out
    assert "4 findings" in out


def test_lint_json_output(capsys, tmp_path):
    # Machine-readable output is `check`'s --format; the alias is text-only.
    target = planted(tmp_path, "mutable_default.py")
    assert main(["check", "--check", "lint", "--format", "json", target]) == 1
    payload = json.loads(capsys.readouterr().out)["findings"]
    assert len(payload) == 3
    assert payload[0]["rule"] == "mutable-default-arg"
    assert {"path", "line", "col", "rule", "message"} <= set(payload[0])


def test_lint_missing_path_exits_two(capsys):
    assert main(["lint", "does/not/exist"]) == 2
    assert "does/not/exist" in capsys.readouterr().err


def test_lint_list_rules(capsys):
    # The rule catalogue lives in `check --list-checks`, under `lint:`.
    assert main(["check", "--list-checks"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "no-bare-random",
        "no-wallclock",
        "no-float-eq",
        "unit-suffix",
        "mutable-default-arg",
    ):
        assert rule_id in out


def test_lint_ignores_the_committed_baseline(capsys, tmp_path, monkeypatch):
    # The exception-list file is retired: one left in the working
    # directory hides nothing, and `check` no longer takes the flag.
    target = planted(tmp_path, "bare_random.py")
    (tmp_path / "baseline.json").write_text(
        json.dumps(
            {"entries": [{"rule": "no-bare-random", "path": "bare_random.py", "reason": "x"}]}
        )
    )
    monkeypatch.chdir(tmp_path)
    assert main(["lint", target]) == 1
    assert "4 findings" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["check", target, "--baseline", "baseline.json"])
    assert exc.value.code == 2


def test_repo_trees_are_clean_at_head(capsys, monkeypatch):
    """`repro check src` (every analyzer) and `repro lint examples tests benchmarks`."""
    monkeypatch.chdir(REPO_ROOT)
    assert main(["check", "src"]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out and "lint" in out.rsplit("checks:", 1)[1]
    assert main(["lint", "examples", "tests", "benchmarks"]) == 0
    assert "0 findings" in capsys.readouterr().out
