#!/usr/bin/env python3
"""The repo benchmark: seven workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py                 # all workloads, 5 interleaved repeats
    python3 benchmarks/e2e/run.py --trace         # per-layer table + span file (--out)
    python3 benchmarks/e2e/run.py --workload pair_exact --seed 3 --seconds 10 --trace 0

Each run of a workload is a fresh interpreter (``child.py``); this file
only spawns, times the host-noise canary, aggregates and reports, and
never imports ``repro``.  Metric names, units and bounds are read from
``BENCHMARK.json`` at the repo root.  See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import per_layer, ratio, src_lines

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# Settings that would silently change what a child measures; each one
# is passed explicitly (jobs=, fidelity=, enable_cache(dir), ...).
STRIPPED_ENV = (
    "REPRO_JOBS", "REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_FIDELITY", "REPRO_SCALE",
    "REPRO_MAX_EVENTS", "REPRO_CHECK_INVARIANTS", "REPRO_TRIAL_RETRIES",
)
SWEEP_JOBS = 2  # nproc of the reference box; only sweep_harness uses a pool
DEFAULT_REPEATS = 5
MIN_TIMED_REPEATS = 5
CHILD_TIMEOUT_S = 150.0

CANARY_ITERS = 40_000
CANARY_LOOPS = 3
NOISY_FACTOR = 1.15
NOISY_RETRIES = 2

TIMED = ("setup_s", "wall_s", "sim_s_per_wall_s", "peak_rss_mb", "cold_pass_s", "warm_pass_s")
SWEEP_ONLY = ("cold_pass_s", "warm_pass_s")


# ----------------------------------------------------------------------
# Host-noise canary
# ----------------------------------------------------------------------
def canary_ns_per_iter() -> float:
    """A fixed pure-Python heap loop: what this host charges right now.

    The best of ``CANARY_LOOPS`` short loops, so that a single
    preemption does not read as a noise episode but a slow host does.
    """
    best = float("inf")
    for _ in range(CANARY_LOOPS):
        heap: list[int] = []
        x = 12345
        start = time.perf_counter_ns()
        for _ in range(CANARY_ITERS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, x)
            if len(heap) > 64:
                heapq.heappop(heap)
        best = min(best, (time.perf_counter_ns() - start) / CANARY_ITERS)
    return best


class Host:
    """Canary readings of one invocation (the 'set' a run is judged against)."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.noisy_runs = 0

    def measure(self, spawn, retry: bool) -> list[dict]:
        """Run ``spawn()`` between two canary readings; returns every attempt.

        A run whose canary exceeds ``NOISY_FACTOR`` x the set's minimum
        is marked noisy and, with ``retry``, run again, at most
        ``NOISY_RETRIES`` times.  Marked runs are returned too: a timing
        is reported as its fastest repeat, which a disturbed run cannot
        lower.
        """
        attempts = []
        for _ in range(1 + NOISY_RETRIES if retry else 1):
            before = canary_ns_per_iter()
            result = spawn()
            reading = max(before, canary_ns_per_iter())
            self.readings += [before, reading]
            result["canary_ns_per_iter"] = reading
            result["noisy"] = reading > NOISY_FACTOR * min(self.readings)
            attempts.append(result)
            if not result["noisy"]:
                break
            self.noisy_runs += 1
        return attempts

    def metrics(self) -> dict[str, float]:
        return {
            "host.calib_ns_per_iter": statistics.median(self.readings),
            "host.noisy_runs": self.noisy_runs,
        }


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def spawn_child(tmp_root: Path, **settings) -> dict:
    """One ``child.py`` run in a private temp dir; returns its result.

    A child that dies, hangs or writes no result counts as one failed op.
    """
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    result_path = tmp / "result.json"
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["TMPDIR"] = str(tmp)
    command = [sys.executable, str(HERE / "child.py"), "--tmp", str(tmp),
               "--result", str(result_path)]
    for key, value in settings.items():
        flag = "--" + key.replace("_", "-")
        command += [flag] if value is True else [flag, str(value)]
    command += ["--spawned-at", repr(time.monotonic())]
    process = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = process.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
        # The child may have pool workers: stop its whole session.
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
    try:
        if code == 0:
            return json.loads(result_path.read_text())
        return {"died": f"child exited with {code}" if code is not None else "child timed out"}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def op_tally(result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, error texts) of one child result."""
    if "died" in result:
        return 1, 1, [result["died"]]
    errors = [f"{op['name']}: {op['error']}" for op in result["ops"] if op["error"]]
    return len(result["ops"]), len(errors), errors


# ----------------------------------------------------------------------
# Statistics and reporting
# ----------------------------------------------------------------------
def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def timed_values(op_walls: list[float], op_is_pass: bool, sim_s: float) -> dict[str, float]:
    """The timing metrics of one pass, given the host seconds of each op."""
    wall_s = sum(op_walls)
    cold_s = warm_s = wall_s  # a single pass is both the first and the typical one
    if op_is_pass and len(op_walls) > 1:
        cold_s, warm_s = op_walls[0], statistics.median(op_walls[1:])
    return {
        "wall_s": wall_s,
        "sim_s_per_wall_s": sim_s / wall_s,
        "cold_pass_s": cold_s,
        "warm_pass_s": warm_s,
    }


def run_values(run: dict) -> dict[str, float]:
    """Every end-to-end metric as one run alone measured it."""
    walls = [op["wall_s"] for op in run["ops"]]
    return {
        "setup_s": run["setup_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        **timed_values(walls, run["op_is_pass"], run["sim_s"]),
    }


class Report:
    """Everything one invocation found, printed and (with --out) saved."""

    def __init__(self, spec: dict, args) -> None:
        self.spec = spec
        self.args = args
        self.workloads: dict[str, dict] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def entry(self, workload: str) -> dict:
        return self.workloads.setdefault(workload, {"runs": []})

    def add_run(self, workload: str, result: dict, keep: bool = True) -> None:
        """Tally a run's ops; ``keep`` it for the end-to-end aggregate."""
        attempted, failed, errors = op_tally(result)
        self.attempted += attempted
        self.failed += failed
        self.problems += [f"{workload}: {error.strip()}" for error in errors]
        entry = self.entry(workload)
        entry["attempted"] = entry.get("attempted", 0) + attempted
        entry["failed"] = entry.get("failed", 0) + failed
        if keep and "died" not in result:
            entry["runs"].append(result)

    def close_end_to_end(self, workload: str) -> None:
        """Aggregate a workload's kept runs; counts must agree exactly."""
        entry = self.entry(workload)
        runs = entry["runs"]
        if not runs:
            return
        for other in runs[1:]:
            if (other["counts"], other["result_digest"]) != (
                runs[0]["counts"], runs[0]["result_digest"]
            ):
                self.problems.append(f"{workload}: counts or result_digest differ across repeats")
                break
        # Interference on a shared host only ever adds time, in bursts
        # of seconds that hit about a third of the runs, so the median of
        # a handful of runs flips between quiet and disturbed (see
        # README).  The reported time of each op is its fastest repeat;
        # set-up time and memory, which the bursts barely move, are medians.
        per_run = [run_values(run) for run in runs]
        best = [
            min(run["ops"][i]["wall_s"] for run in runs) for i in range(len(runs[0]["ops"]))
        ]
        value = {
            "setup_s": statistics.median(v["setup_s"] for v in per_run),
            "peak_rss_mb": statistics.median(v["peak_rss_mb"] for v in per_run),
            **timed_values(best, runs[0]["op_is_pass"], runs[0]["sim_s"]),
        }
        entry["end_to_end"] = {
            name: {"value": value[name], **summarize([v[name] for v in per_run])}
            for name in TIMED
        }
        entry["counts"] = runs[0]["counts"]
        entry["result_digest"] = runs[0]["result_digest"]

    def close_traced(self, workload: str, traced: dict, layer_values: dict) -> None:
        entry = self.entry(workload)
        names = [metric["name"] for metric in self.spec["per_layer"]]
        if sorted(names) != sorted(layer_values):
            odd = sorted(set(names) ^ set(layer_values))
            self.problems.append(f"per-layer names differ from BENCHMARK.json: {odd}")
        entry["per_layer"] = layer_values
        for key in ("spans", "span_counts", "expected_span_counts"):
            entry[key] = traced.get(key)
        if traced.get("span_counts") != traced.get("expected_span_counts"):
            got, want = traced.get("span_counts"), traced.get("expected_span_counts")
            diff = {
                name: (got[name], want[name]) for name in got or () if got[name] != want[name]
            }
            self.problems.append(f"{workload}: span counts (got, expected) differ: {diff}")

    # -- output --------------------------------------------------------
    def print_tables(self, host: Host) -> None:
        bounds = {m["name"]: m for m in self.spec["end_to_end"]}
        units = {m["name"]: m for m in self.spec["per_layer"]}
        for workload, entry in self.workloads.items():
            for name, stats in entry.get("end_to_end", {}).items():
                if name in SWEEP_ONLY and workload != "sweep_harness":
                    continue  # equal to wall_s on single-pass workloads
                meta = bounds[name]
                print(
                    f"e2e {workload} {name} {stats['value']:.6g} {meta['unit']} "
                    f"median={stats['median']:.6g} q1={stats['q1']:.6g} q3={stats['q3']:.6g} "
                    f"n={stats['n']} "
                    f"better={meta['better']} bound={meta['bound']}"
                )
            if "end_to_end" in entry:
                fail_ratio = entry["failed"] / entry["attempted"]
                print(
                    f"e2e {workload} fail_ratio {fail_ratio:.6g} ratio "
                    f"failed={entry['failed']} attempted={entry['attempted']} "
                    "better=lower bound=0"
                )
                for name, value in sorted(entry["counts"].items()):
                    print(f"count {workload} {name} {value:.10g}")
                print(f"digest {workload} {entry['result_digest']}")
            for name, value in entry.get("per_layer", {}).items():
                meta = units[name]
                print(
                    f"layer {workload} {name} {value:.6g} {meta['unit']} better={meta['better']}"
                )
            if entry.get("span_counts") is not None:
                calls = " ".join(f"{k}={v}" for k, v in entry["span_counts"].items() if v)
                print(f"spans {workload} {calls}")
        for name, value in host.metrics().items():
            print(f"host {name} {value:.6g}")
        for problem in self.problems:
            print(f"PROBLEM {problem}")

    def save(self, path: Path, host: Host) -> None:
        document = {
            "benchmark": "benchmarks/e2e",
            "mode": "trace" if self.args.trace else "end_to_end",
            "seed": self.args.seed,
            "smoke": self.args.smoke,
            "host": host.metrics(),
            "problems": self.problems,
            "workloads": self.workloads,
        }
        path.write_text(json.dumps(document, indent=1))

    def driver_line(self, workload: str) -> str:
        """The one-line JSON result the benchmark driver reads."""
        entry = self.entry(workload)
        if self.args.trace:
            units = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
            values = entry.get("per_layer", {})
        else:
            units = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
            values = {n: s["value"] for n, s in entry.get("end_to_end", {}).items()}
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        }
        if len(metrics) != len(units):
            self.problems.append(f"{workload}: metrics missing from the result")
        return json.dumps({
            "correct": not self.problems,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": metrics,
        })


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def retries_noisy_runs(args) -> bool:
    """Not under the driver's clock, and not in the self-test (which
    asserts nothing about time and runs several invocations at once)."""
    return args.seconds is None and not args.smoke


def run_end_to_end(report: Report, host: Host, names: list[str], tmp_root: Path) -> None:
    """Tracing off; repeats interleaved round-robin across workloads.

    With ``--seconds`` the clock decides how many rounds there are, so a
    noisy run is marked but not retried: the run length stays what the
    driver asked for.
    """
    args = report.args
    started = time.monotonic()
    retry = retries_noisy_runs(args)

    def enough(rounds: int) -> bool:
        if args.seconds is None:
            return rounds >= args.repeats
        return rounds >= MIN_TIMED_REPEATS and time.monotonic() - started >= args.seconds

    rounds = 0
    while not enough(rounds):
        for name in names:
            for result in host.measure(lambda name=name: spawn_child(
                tmp_root, workload=name, seed=args.seed, smoke=int(args.smoke), trace=0,
                jobs=SWEEP_JOBS, inject_bad_op=int(args.inject_bad_op),
            ), retry):
                report.add_run(name, result)
        rounds += 1
    for name in names:
        report.close_end_to_end(name)


def run_traced(report: Report, host: Host, names: list[str], tmp_root: Path) -> None:
    """One traced run per workload, beside untraced runs of the same inputs.

    The traced run is in-process throughout (``jobs=1``) so its spans
    are complete; its timings never enter the end-to-end numbers.
    """
    args = report.args

    def child(name: str, trace: int, jobs: int, keep: bool = False) -> dict:
        """One run, tallied (``keep``: and aggregated); returns the last attempt."""
        attempts = host.measure(lambda: spawn_child(
            tmp_root, workload=name, seed=args.seed, smoke=int(args.smoke), trace=trace,
            jobs=jobs, inject_bad_op=int(args.inject_bad_op),
        ), retries_noisy_runs(args))
        for result in attempts:
            report.add_run(name, result, keep)
        return attempts[-1]

    drills = host.measure(
        lambda: spawn_child(tmp_root, drills=True, smoke=int(args.smoke)), retry=False
    )[-1]
    if "died" in drills:
        report.problems.append(f"drills: {drills['died']}")
    drill_values = {k: v for k, v in drills.items() if "." in k}
    lines = src_lines(ROOT / "src" / "repro")
    for name in names:
        for _ in range(args.repeats):
            child(name, 0, SWEEP_JOBS, keep=True)
        report.close_end_to_end(name)
        pooled = report.entry(name).get("end_to_end")
        # Only sweep_harness behaves differently at jobs=1; elsewhere the
        # untraced runs above already are the traced run's twin.  Neither
        # the twin nor the traced run enters the end-to-end numbers.
        twin = child(name, 0, 1) if name == "sweep_harness" else None
        traced = child(name, 1, 1)
        if "died" in traced or pooled is None or (twin is not None and "died" in twin):
            report.problems.append(f"{name}: traced run incomplete")
            continue
        alone = run_values(twin) if twin else {k: v["value"] for k, v in pooled.items()}
        report.close_traced(name, traced, per_layer(
            traced,
            ratio(run_values(traced)["wall_s"], alone["wall_s"]),
            ratio(alone["cold_pass_s"], pooled["cold_pass_s"]["value"]) if twin else 0.0,
            drill_values, host.metrics(), lines,
        ))


# ----------------------------------------------------------------------
def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="list the workloads and exit")
    parser.add_argument("--only", "--workload", dest="only", choices=names,
                        help="run one workload (and end with the driver's JSON line)")
    parser.add_argument("--seed", type=int, default=1, help="offsets every seed list")
    parser.add_argument("--repeats", type=int, default=None,
                        help=f"untraced runs per workload ({DEFAULT_REPEATS}; 1 with --trace)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="repeat until this many seconds have been measured")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="traced run: per-layer metrics and spans")
    parser.add_argument("--out", type=Path, help="write results (and spans) as JSON")
    parser.add_argument("--inject-bad-op", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats is None:
        args.repeats = 1 if args.trace else DEFAULT_REPEATS
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.out is not None and args.out.name == "BENCH_sim.json":
        parser.error("BENCH_sim.json is the legacy `repro bench` history; pick another --out")
    return args


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no BENCHMARK.json and src/repro under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    args = parse_args(argv, spec)
    if args.list:
        for workload in spec["workloads"]:
            print(f"{workload['name']}: {workload['why']}")
        return 0
    names = [args.only] if args.only else [w["name"] for w in spec["workloads"]]
    report = Report(spec, args)
    host = Host()
    # Inside the checkout (git-ignored): the driver forbids writing elsewhere.
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        (run_traced if args.trace else run_end_to_end)(report, host, names, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    line = report.driver_line(args.only) if args.only else None
    report.print_tables(host)
    if args.out is not None:
        report.save(args.out, host)
    if line is not None:
        print(line)
    return 1 if report.problems else 0


if __name__ == "__main__":
    sys.exit(main())
