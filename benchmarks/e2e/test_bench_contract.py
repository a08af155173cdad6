"""Self-test of the benchmark on ``--smoke`` sizes.

    pytest benchmarks/e2e -q

Checks the contract, not the numbers: every metric named in
``BENCHMARK.json`` is printed for every workload it applies to, counts
and digests repeat exactly, span counts equal the expected call counts,
and an injected bad op raises ``fail_ratio`` and the exit code.  The
five ``run.py`` invocations run side by side (nothing here asserts on a
timing), which keeps the module under 20 s.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SWEEP_ONLY = {"cold_pass_s", "warm_pass_s"}


def launch(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke", *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict[str, dict]:
    out = tmp_path_factory.mktemp("bench")
    started = {
        "e2e": launch("--repeats", "1", "--out", str(out / "e2e.json")),
        "trace": launch("--trace", "--out", str(out / "trace.json")),
        "bad": launch("--only", "pair_exact", "--repeats", "1", "--inject-bad-op"),
        "driver0": launch("--workload", "many_flows", "--seed", "2", "--seconds", "1",
                          "--trace", "0"),
        "driver1": launch("--workload", "pair_hybrid", "--seed", "2", "--seconds", "1",
                          "--trace", "1"),
    }
    finished = {}
    for key, process in started.items():
        stdout, stderr = process.communicate(timeout=120)
        finished[key] = {"code": process.returncode, "stdout": stdout, "stderr": stderr}
    for key in ("e2e", "trace"):
        finished[key]["doc"] = json.loads((out / f"{key}.json").read_text())
    return finished


def rows(stdout: str, kind: str) -> dict[tuple[str, str], list[str]]:
    """``(workload, metric) -> remaining fields`` of the lines starting with ``kind``."""
    table = {}
    for line in stdout.splitlines():
        fields = line.split()
        if fields and fields[0] == kind:
            table[(fields[1], fields[2])] = fields[3:]
    return table


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"] and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8 and len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_every_end_to_end_metric_is_printed(runs):
    assert runs["e2e"]["code"] == 0, runs["e2e"]["stdout"] + runs["e2e"]["stderr"]
    table = rows(runs["e2e"]["stdout"], "e2e")
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            if metric["name"] in SWEEP_ONLY and workload != "sweep_harness":
                continue
            value, unit, *rest = table[(workload, metric["name"])]
            assert float(value) > 0 and unit == metric["unit"]
            assert f"bound={metric['bound']}" in rest and f"better={metric['better']}" in rest
        assert float(table[(workload, "fail_ratio")][0]) == 0
    printed = runs["e2e"]["stdout"]
    assert "\nhost host.calib_ns_per_iter " in printed and "\nhost host.noisy_runs " in printed


def test_every_per_layer_metric_is_printed(runs):
    assert runs["trace"]["code"] == 0, runs["trace"]["stdout"] + runs["trace"]["stderr"]
    table = rows(runs["trace"]["stdout"], "layer")
    for workload in WORKLOADS:
        for metric in SPEC["per_layer"]:
            value, unit, *_ = table[(workload, metric["name"])]
            assert float(value) >= 0 and unit == metric["unit"]
    assert len(table) == len(WORKLOADS) * len(SPEC["per_layer"])


def test_counts_and_digests_repeat_exactly(runs):
    doc, again = runs["e2e"]["doc"], runs["trace"]["doc"]
    assert doc["problems"] == []
    for workload in WORKLOADS:
        # The --trace invocation ran the same inputs a second time, untraced.
        first, second = doc["workloads"][workload], again["workloads"][workload]
        assert first["counts"] and first["counts"] == second["counts"]
        assert first["result_digest"] == second["result_digest"]


def test_span_counts_equal_expected_call_counts(runs):
    doc = runs["trace"]["doc"]
    assert doc["problems"] == []
    for workload in WORKLOADS:
        entry = doc["workloads"][workload]
        assert entry["span_counts"] == entry["expected_span_counts"]
        assert entry["span_counts"]["run_flows"] > 0
        spans = entry["spans"]
        assert sum(entry["span_counts"].values()) == len(spans)
        for span in spans:
            assert span["end_s"] >= span["start_s"]
            assert span["parent"] is None or span["parent"] < span["id"]
    hybrid = doc["workloads"]["pair_hybrid"]["per_layer"]
    assert hybrid["sim.fidelity.virtual_share"] > 0
    assert doc["workloads"]["pair_exact"]["per_layer"]["sim.fidelity.virtual_share"] == 0


def test_injected_bad_op_raises_fail_ratio_and_exit_code(runs):
    bad = runs["bad"]
    assert bad["code"] == 1
    assert float(rows(bad["stdout"], "e2e")[("pair_exact", "fail_ratio")][0]) > 0
    line = json.loads(bad["stdout"].splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1 and line["attempted"] == 3
    assert "no-such-protocol" in bad["stdout"]


@pytest.mark.parametrize("key,section", [("driver0", "end_to_end"), ("driver1", "per_layer")])
def test_driver_line(runs, key, section):
    run = runs[key]
    assert run["code"] == 0, run["stdout"] + run["stderr"]
    line = json.loads(run["stdout"].splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC[section]}
    for metric in SPEC[section]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(line["metrics"][metric["name"]]["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "pair_exact", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "benchmarks"]


def test_legacy_history_is_never_the_out_file():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", "BENCH_sim.json"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and "legacy" in done.stderr
