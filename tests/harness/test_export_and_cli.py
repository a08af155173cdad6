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
    LinkConfig,
    load_timeline,
    run_homogeneous,
    run_result_summary,
    run_single,
    write_csv,
    write_run_json,
    write_throughput_series_csv,
)
from repro.harness.cache import reset_cache_state

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
            "run",
            "--protocols",
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
    assert "p95 RTT (ms)" in out and "cubic" in out
    assert json_path.exists()


def test_cli_fairness(capsys):
    code = main(
        [
            "run",
            "--protocols",
            "cubic,cubic",
            "--duration",
            "10",
            "--stagger",
            "2",
            "--bandwidth",
            "20",
        ]
    )
    assert code == 0
    assert "Jain's index" in capsys.readouterr().out


@pytest.mark.parametrize(
    ("argv", "reference"),
    [
        (
            ["--protocols", "cubic", "--duration", "6", "--timeline", "mobility-trace"],
            lambda config: run_single(
                "cubic", config, duration_s=6.0, timeline=load_timeline("mobility-trace")
            ),
        ),
        (
            ["--protocols", "bbr,bbr,bbr", "--stagger", "1", "--duration", "5",
             "--seed", "3"],
            lambda config: run_homogeneous(
                "bbr", 3, config, stagger_s=1.0, measure_s=3.0, seed=3
            ),
        ),
    ],
    ids=["single", "fairness"],
)
def test_cli_run_json_is_the_run_entry_points_json(tmp_path, argv, reference):
    # `run` spells `single` and `fairness` (docs/API.md's table): the
    # same run, so the same summary bytes.
    config = LinkConfig(bandwidth_mbps=20.0, rtt_ms=30.0, buffer_kb=375.0)
    assert main(["run", "--bandwidth", "20", *argv, "--json", str(tmp_path / "cli.json")]) == 0
    write_run_json(tmp_path / "api.json", reference(config))
    assert (tmp_path / "cli.json").read_bytes() == (tmp_path / "api.json").read_bytes()


@pytest.mark.parametrize("command", ["single", "fairness", "metrics"])
def test_cli_retired_run_commands_are_invalid_choices(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command])
    assert excinfo.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_cli_commands_leave_no_setting_behind(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_MAX_EVENTS", raising=False)
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    sweep = ["sweep", "--bandwidths", "10", "--rtts", "20", "--buffers", "1",
             "--duration", "2", "--jobs", "1", "--max-events", "3000"]
    try:
        main(sweep)
        assert "REPRO_MAX_EVENTS" not in os.environ
        # A later command in the same process runs without that budget.
        assert main(["run", "--protocols", "cubic", "--duration", "3"]) == 0
        attack = ["attack", "--budget", "2", "--generation", "2", "--elites", "1",
                  "--duration", "1", "--jobs", "1", "--no-shrink",
                  "--out", str(tmp_path / "attack")]
        assert main(attack) == 0
        assert "REPRO_CACHE" not in os.environ
    finally:
        reset_cache_state()


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
        main(["run", "--protocols", "nope"])


@pytest.mark.parametrize("observer", ["trace", "metrics"])
def test_cli_reports_a_flow_starting_after_the_run_in_one_line(observer, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", f"--{observer}", str(tmp_path / "out"), "--stagger", "10",
              "--duration", "5"])
    assert str(excinfo.value) == (
        "repro run: flow 1 (proteus-s) starts at 10 s, "
        "not before the end of the run (duration 5 s)"
    )
    assert not (tmp_path / "out").exists()


# A `run` case keeps the id of the `single` / `fairness` command line it
# replaced (docs/API.md's table).
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["run", "--bandwidth", "0"], id="single --bandwidth 0"),
        ["pair", "--rtt", "-5"],
        pytest.param(["run", "--protocols", ","], id="fairness --flows 0"),
        ["many", "--flows", "0"],
        ["sweep", "--bandwidths", "0"],
        pytest.param(["run", "--loss", "1.5"], id="single --loss 1.5"),
        pytest.param(["run", "--noise", "-1"], id="single --noise -1"),
        ["run", "--sample", "0.5"],
        # The step-down timeline addresses the dumbbell's "bottleneck".
        pytest.param(
            ["run", "--topology", "parking-lot", "--timeline", "step-down"],
            id="single --topology parking-lot --timeline step-down",
        ),
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
