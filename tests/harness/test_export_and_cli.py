"""Tests for result export and the command-line interface."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness import (
    EMULAB_DEFAULT,
    run_result_summary,
    run_single,
    write_csv,
    write_run_json,
    write_throughput_series_csv,
)

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def short_run():
    return run_single("cubic", EMULAB_DEFAULT, duration_s=8.0)


def test_run_result_summary_fields(short_run):
    summary = run_result_summary(short_run)
    assert summary["config"]["bandwidth_mbps"] == 50.0
    assert summary["duration_s"] == 8.0
    assert len(summary["flows"]) == 1
    flow = summary["flows"][0]
    assert flow["protocol"] == "cubic"
    assert flow["throughput_mbps"] > 30.0
    assert flow["p95_rtt_ms"] > flow["min_rtt_ms"]


def test_write_run_json_round_trip(tmp_path, short_run):
    path = tmp_path / "out" / "run.json"
    write_run_json(path, short_run)
    loaded = json.loads(path.read_text())
    assert loaded == run_result_summary(short_run)


def test_write_csv_and_validation(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, 2], [3, 4]])
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]
    with pytest.raises(ValueError):
        write_csv(path, ["a"], [[1, 2]])


def test_write_throughput_series(tmp_path, short_run):
    path = tmp_path / "series.csv"
    write_throughput_series_csv(path, short_run, bin_s=2.0)
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["protocol", "flow_id", "time_s", "throughput_mbps"]
    assert len(rows) == 1 + 4  # 8 s / 2 s bins


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_protocols_lists_names(capsys):
    assert main(["protocols"]) == 0
    out = capsys.readouterr().out
    assert "proteus-s" in out
    assert "ledbat" in out


def test_cli_single_runs_and_exports(tmp_path, capsys):
    json_path = tmp_path / "single.json"
    code = main(
        [
            "single",
            "--protocol",
            "cubic",
            "--duration",
            "6",
            "--bandwidth",
            "20",
            "--json",
            str(json_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "throughput (Mbps)" in out
    assert json_path.exists()


def test_cli_fairness(capsys):
    code = main(
        [
            "fairness",
            "--protocol",
            "cubic",
            "--flows",
            "2",
            "--duration",
            "8",
            "--stagger",
            "2",
            "--bandwidth",
            "20",
        ]
    )
    assert code == 0
    assert "Jain's index" in capsys.readouterr().out


def test_cli_sweep_runs_and_resumes(tmp_path, capsys):
    manifest = tmp_path / "sweep.jsonl"
    argv = [
        "sweep", "--bandwidths", "10", "--rtts", "20", "--buffers", "1",
        "--trials", "1", "--duration", "2", "--jobs", "1",
        "--manifest", str(manifest),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "resumed from manifest    0" in out
    assert manifest.exists()
    # Resume: every cell comes back from the journal.
    argv_resume = argv[:-2] + ["--resume", str(manifest)]
    assert main(argv_resume) == 0
    out = capsys.readouterr().out
    assert "resumed from manifest    1" in out


def test_cli_sweep_rejects_bad_float_list():
    with pytest.raises(SystemExit):
        main(["sweep", "--bandwidths", "ten"])


def test_cli_rejects_unknown_protocol():
    with pytest.raises(SystemExit):
        main(["single", "--protocol", "nope"])


@pytest.mark.parametrize("command", ["trace", "metrics"])
def test_cli_reports_a_flow_starting_after_the_run_in_one_line(command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--stagger", "10", "--duration", "5"])
    assert str(excinfo.value) == (
        f"repro {command}: flow 1 (proteus-s) starts at 10 s, "
        "not before the end of the run (duration 5 s)"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["single", "--bandwidth", "0"],
        ["pair", "--rtt", "-5"],
        ["fairness", "--flows", "0"],
        ["many", "--flows", "0"],
        ["sweep", "--bandwidths", "0"],
        ["single", "--loss", "1.5"],
        ["single", "--noise", "-1"],
        # The step-down timeline addresses the dumbbell's "bottleneck".
        ["single", "--topology", "parking-lot", "--timeline", "step-down"],
    ],
    ids=" ".join,
)
def test_cli_bad_scenario_input_is_one_line(argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--duration", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode != 0
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"repro {argv[0]}: ")
    assert done.stderr.count("\n") == 1 and done.stdout == ""
