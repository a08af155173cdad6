"""Acceptance gates: seeding each bug class into a copy of src/ must fail.

Each test copies the real tree, plants one defect of a class the gate
exists for (tracepoint variants without a discriminator, a by-name
``tracer.emit``, a trace row or helper call of the wrong length, upward
sim->harness import), and asserts ``repro check`` turns red —
proving the gate would catch the regression on CI.
"""

import shutil
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def planted_src(tmp_path, monkeypatch):
    shutil.copytree(
        REPO_ROOT / "src",
        tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    monkeypatch.chdir(tmp_path)
    return tmp_path / "src"


def test_pristine_copy_passes(planted_src, capsys):
    assert main(["check", "src"]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_inconsistent_declarations_fail(planted_src, capsys):
    (planted_src / "repro" / "obs" / "_planted.py").write_text(
        "from ..core.tracepoint import tracepoint\n\n"
        'RTT = tracepoint("planted.ev", "rtt_s")\n'
        'LOSS = tracepoint("planted.ev", "loss_pkts")\n'
    )
    assert main(["check", "src"]) == 1
    assert "trace-field-mismatch" in capsys.readouterr().out


def test_by_name_emit_fails(planted_src, capsys):
    target = planted_src / "repro" / "protocols" / "cubic.py"
    source = target.read_text()
    site = 'self.trace(CWND_CHANGE, self.cwnd, "cubic:loss")'
    assert site in source
    by_name = 'self.tracer.emit("cwnd.change", self.sim.now, cwnd=self.cwnd, reason="cubic:loss")'
    target.write_text(source.replace(site, by_name))
    assert main(["check", "src"]) == 1
    assert "trace-undeclared" in capsys.readouterr().out


def test_row_shorter_than_its_tracepoint_fails(planted_src, capsys):
    target = planted_src / "repro" / "sim" / "link.py"
    source = target.read_text()
    site = "size, occupancy, busy, deliver_at))"
    assert source.count(site) == 1
    target.write_text(source.replace(site, site.replace(", deliver_at", "")))
    assert main(["check", "src"]) == 1
    assert "trace-arity-mismatch" in capsys.readouterr().out


def test_helper_call_short_of_its_tracepoint_fails(planted_src, capsys):
    target = planted_src / "repro" / "core" / "rate_control.py"
    source = target.read_text()
    site = 'self._decided(DECISION_STEP, "move:step", self.rate_bps, self._step_k)'
    assert site in source
    target.write_text(source.replace(site, site.replace(", self._step_k", "")))
    assert main(["check", "src"]) == 1
    assert "trace-arity-mismatch" in capsys.readouterr().out


def test_sim_importing_harness_fails(planted_src, capsys):
    (planted_src / "repro" / "sim" / "_planted.py").write_text(
        "from repro.harness import trials\n\n__all__ = ['trials']\n"
    )
    assert main(["check", "src"]) == 1
    assert "layer-violation" in capsys.readouterr().out
