"""One test per lint rule, against planted-violation fixture files.

The fixtures live under ``fixtures/`` — the ``sim/`` subdirectory exists
so path-scoped rules (no-wallclock, unit-suffix) see an in-scope path,
and ``fixtures/core/rng.py`` exercises the no-bare-random exemption.
"""

from pathlib import Path

from repro.devtools.analysis import Project, run_check
from repro.devtools.analysis.rules import RULES

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_sources(sources, checks=("lint",)):
    """Findings on in-memory ``(path, source)`` pairs."""
    project = Project()
    for path, source in sources:
        project.add_source(path, source)
    return run_check([], checks=checks, project=project).findings


def lint_source(source, path):
    return lint_sources([(path, source)])


def lint_paths(paths):
    return run_check(paths, checks=["lint"]).findings


def lint_fixture(name, checks=("lint",)):
    # Lint under the fixture's *logical* path ("sim/wallclock.py"), not its
    # on-disk location: fixtures plant src-tree violations, and the rules
    # deliberately relax under a real tests/ or benchmarks/ directory.
    root = FIXTURES / name
    paths = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    return lint_sources(
        [(path.relative_to(FIXTURES), path.read_text()) for path in paths], checks
    )


def positions(violations, rule_id):
    return [(v.line, v.col) for v in violations if v.rule_id == rule_id]


def test_registry_has_all_rules():
    ids = set(RULES)
    assert ids >= {
        "no-bare-random",
        "no-wallclock",
        "no-float-eq",
        "unit-suffix",
        "mutable-default-arg",
        "no-bare-subprocess-result",
        "no-deep-harness-import",
    }


def test_no_bare_random():
    violations = lint_fixture("bare_random.py")
    assert positions(violations, "no-bare-random") == [
        (2, 1),  # import random
        (4, 1),  # from random import choice
        (8, 12),  # random.randint(...)
        (12, 12),  # np.random.uniform()
    ]
    assert all(v.rule_id == "no-bare-random" for v in violations)


def test_no_bare_random_exempts_core_rng():
    violations = lint_fixture("core/rng.py")
    assert violations == []


def test_no_wallclock():
    violations = lint_fixture("sim/wallclock.py")
    assert positions(violations, "no-wallclock") == [
        (7, 12),  # time.time()
        (11, 12),  # datetime.now()
    ]


def test_no_wallclock_scoped_to_simulated_packages(tmp_path):
    # The same source outside sim/core/protocols is fine (harness code
    # legitimately timestamps runs).
    src = (FIXTURES / "sim" / "wallclock.py").read_text()
    out = tmp_path / "harness" / "wallclock.py"
    out.parent.mkdir()
    out.write_text(src)
    assert lint_paths([str(out)]) == []


def test_no_float_eq():
    violations = lint_fixture("float_eq.py")
    assert positions(violations, "no-float-eq") == [
        (5, 8),  # now == deadline_s
        (7, 8),  # rate_bps != 1.5
    ]
    # float('inf') sentinel on line 9 is allowed.
    assert all(v.line != 9 for v in violations)


def test_unit_suffix():
    violations = lint_fixture("sim/unit_suffix.py")
    assert positions(violations, "unit-suffix") == [
        (5, 24),  # __init__(self, rate, ...)
        (10, 17),  # set_timeout(timeout)
    ]
    # _private_ok's 'delay' and the allowed names are not flagged.
    flagged = {v.message.split("'")[1] for v in violations}
    assert flagged == {"rate", "timeout"}


def test_unit_suffix_dataclass_fields():
    violations = lint_fixture("sim/unit_suffix_fields.py")
    assert all(v.rule_id == "unit-suffix" for v in violations)
    flagged = {v.message.split("'")[1] for v in violations}
    assert flagged == {"at", "bandwidth"}
    # Suffixed, allowed, private and un-annotated names survive; the
    # non-dataclass body is exempt entirely.
    assert all("StepSpec" in v.message for v in violations)


def test_unit_suffix_fields_scoped_to_scenarios_file():
    src = "from dataclasses import dataclass\n\n@dataclass\nclass S:\n    at: float\n"
    in_scope = lint_source(src, "harness/scenarios.py")
    assert [v.rule_id for v in in_scope] == ["unit-suffix"]
    # Other harness modules keep the old scope (sim/ and core/ only).
    assert lint_source(src, "harness/runner.py") == []


def test_mutable_default_arg():
    violations = lint_fixture("mutable_default.py")
    assert positions(violations, "mutable-default-arg") == [
        (4, 19),  # items=[]
        (8, 17),  # table={}
        (8, 26),  # tags=set()
    ]


def test_no_bare_subprocess_result():
    violations = lint_fixture("bare_result.py")
    # Line 9 is suppressed with a rule-precise noqa.
    assert positions(violations, "no-bare-subprocess-result") == [
        (5, 13),  # future.result() in the comprehension
        (10, 12),  # future.result() after the suppressed line
    ]


def test_no_bare_subprocess_result_exempts_parallel():
    src = "def take(future):\n    return future.result()\n"
    assert lint_source(src, "harness/parallel.py") == []
    flagged = lint_source(src, "harness/supervise.py")
    assert [v.rule_id for v in flagged] == ["no-bare-subprocess-result"]


def test_no_deep_harness_import():
    src = (
        "from repro.harness.runner import run_flows\n"
        "import repro.harness.cache\n"
        "from repro.harness import run_flows\n"
        "from repro import run_pair\n"
        "from repro.obs import CollectingTracer\n"
    )
    violations = lint_source(src, "examples/demo.py")
    # Only the first two reach into harness internals.
    assert positions(violations, "no-deep-harness-import") == [(1, 1), (2, 1)]
    assert "repro.harness.runner" in violations[0].message
    # Library/test code may import submodules freely.
    assert lint_source(src, "src/repro/analysis/figures.py") == []


def test_noqa_suppression_is_rule_precise():
    violations = lint_fixture("suppressed.py")
    # line 2: suppressed by rule id; line 3: suppressed by bare noqa;
    # line 7: noqa names the wrong rule, so the violation survives.
    assert [(v.line, v.rule_id) for v in violations] == [
        (7, "no-bare-random"),
    ]


def test_noqa_file_suppresses_named_rules_everywhere():
    src = (
        "# repro: noqa-file[no-bare-random]\n"
        "import random\n"
        "\n"
        "\n"
        "def draw():\n"
        "    return random.random()\n"
    )
    assert lint_source(src, "pkg/module.py") == []
    # The marker names explicit ids: other rules still fire.
    src_other = src + "\n\ndef f(xs=[]):\n    return xs\n"
    violations = lint_source(src_other, "pkg/module.py")
    assert [v.rule_id for v in violations] == ["mutable-default-arg"]


def test_noqa_file_marker_is_not_a_line_blanket():
    # On its own line the -file marker must not double as a bare noqa.
    src = "import random  # repro: noqa-file[no-wallclock]\n"
    violations = lint_source(src, "pkg/module.py")
    assert [v.rule_id for v in violations] == ["no-bare-random"]


def test_rule_filter():
    # Selection is per analyzer (`--check`): a run that leaves `lint` out
    # reports none of its rules.
    assert lint_fixture("bare_random.py", checks=["layering"]) == []


def test_syntax_error_reported_as_violation(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    violations = lint_paths([str(bad)])
    assert len(violations) == 1
    assert violations[0].rule_id == "syntax-error"


def test_violations_sorted_and_renderable():
    violations = lint_fixture(".")
    assert violations == sorted(violations)
    for v in violations:
        rendered = v.render()
        assert f"{v.line}:{v.col}" in rendered
        assert v.rule_id in rendered


def test_engine_lint_source_directly():
    violations = lint_source("import random\n", "pkg/module.py")
    assert [v.rule_id for v in violations] == ["no-bare-random"]


def test_repo_source_tree_is_lint_clean():
    # The acceptance bar: `repro lint src examples` exits 0 on this repo.
    assert lint_paths([str(REPO_ROOT / "src"), str(REPO_ROOT / "examples")]) == []
