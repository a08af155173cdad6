"""Acceptance gates: seeding each bug class into a copy of src/ must fail.

Each test copies the real tree, plants one defect of a class the gate
exists for (inconsistent emit field set, trace row of the wrong length,
upward sim->harness import), and asserts ``repro check`` turns red —
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


def test_inconsistent_emit_fields_fail(planted_src, capsys):
    (planted_src / "repro" / "obs" / "_planted.py").write_text(
        "def a(tracer, rtt_s):\n"
        '    tracer.emit("planted.ev", rtt_s=rtt_s)\n'
        "\n\n"
        "def b(tracer, loss_pkts):\n"
        '    tracer.emit("planted.ev", loss_pkts=loss_pkts)\n'
    )
    assert main(["check", "src"]) == 1
    assert "trace-field-mismatch" in capsys.readouterr().out


def test_row_shorter_than_its_tracepoint_fails(planted_src, capsys):
    target = planted_src / "repro" / "sim" / "link.py"
    source = target.read_text()
    site = "(ENQUEUE, now, packet.flow_id, self.name, self.node, packet.seq, size, occupancy)"
    assert site in source
    target.write_text(source.replace(site, site.replace(", occupancy", "")))
    assert main(["check", "src"]) == 1
    assert "trace-arity-mismatch" in capsys.readouterr().out


def test_sim_importing_harness_fails(planted_src, capsys):
    (planted_src / "repro" / "sim" / "_planted.py").write_text(
        "from repro.harness import trials\n\n__all__ = ['trials']\n"
    )
    assert main(["check", "src"]) == 1
    assert "layer-violation" in capsys.readouterr().out
