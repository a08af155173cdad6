"""Layering analyzer: upward imports, cycles, and the typing-only escape."""

from pathlib import Path

from repro.devtools.analysis import ANALYZERS, Project
from repro.devtools.analysis.layering import layer_of

FIXTURES = Path(__file__).parent / "fixtures" / "check"


def findings_for(case):
    project = Project.load([FIXTURES / case])
    return sorted(ANALYZERS["layering"].analyze(project))


def test_layer_of():
    assert layer_of("repro.core.utility", "repro") == "core"
    assert layer_of("repro.sim.link", "repro") == "sim"
    assert layer_of("repro.apps.web", "repro") == "protocols"
    assert layer_of("repro.harness.trials", "repro") == "harness"
    assert layer_of("repro", "repro") is None  # the facade is exempt
    assert layer_of("other.sim.x", "repro") is None


def test_upward_import_is_a_violation():
    findings = findings_for("layers_bad")
    violations = [f for f in findings if f.rule_id == "layer-violation"]
    assert len(violations) == 1
    assert violations[0].path.endswith("model.py")
    message = violations[0].message
    assert "'repro.sim.model' (layer sim)" in message
    assert "'repro.harness' (layer harness)" in message


def test_runtime_cycle_is_reported_once():
    findings = findings_for("layers_bad")
    cycles = [f for f in findings if f.rule_id == "import-cycle"]
    assert len(cycles) == 1
    assert "repro.core.alpha" in cycles[0].message
    assert "repro.core.beta" in cycles[0].message


def test_clean_tree_with_typing_only_back_edge():
    # engine -> flow exists only under TYPE_CHECKING: direction-legal
    # (same layer) and invisible to the cycle detector.
    assert findings_for("layers_ok") == []
