"""One workload (or the drill set) in one fresh interpreter.

``run.py`` spawns this file once per run so that set-up time and peak
RSS are per workload and nothing leaks between runs.  Every setting
arrives on the command line; the result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

# The spans every traced run records, by the name they are reported
# under.  A name missing from a workload's expected counts must not
# occur on it at all.
SPAN_NAMES = (
    "run_flows", "Simulator.run", "Topology.add_flow", "source_digest", "payload_key",
    "ResultCache.load_run", "ResultCache.store_run", "ParallelExecutor.map",
    "supervised_map", "SweepManifest.append", "run_campaign", "trials.summarize",
    "CollectingTracer.digest",
)


def install_spans(recorder) -> None:
    """Wrap the coarse layer boundaries (see ``spans.py`` for how)."""
    import repro.adversary.search as search_mod
    import repro.harness.cache as cache_mod
    import repro.harness.runner as runner_mod
    import repro.harness.supervise as supervise_mod
    import repro.harness.trials as trials_mod
    import workloads
    from repro.harness.parallel import ParallelExecutor
    from repro.obs import CollectingTracer
    from repro.sim import Dumbbell, Simulator, Topology

    def run_attrs(_args, result) -> dict:
        live = result.dumbbell is not None
        return {**workloads.harvest(result), "sim_s": result.duration_s, "live": live}

    def sim_attrs(args, _result) -> dict:
        return {"traced": args[0].tracer is not None}

    recorder.patch_function("run_flows", runner_mod, "run_flows", run_attrs)
    recorder.patch_function("source_digest", cache_mod, "source_digest")
    recorder.patch_function("payload_key", cache_mod, "payload_key")
    recorder.patch_function("supervised_map", supervise_mod, "supervised_map")
    recorder.patch_function("run_campaign", search_mod, "run_campaign")
    recorder.patch_function("trials.summarize", trials_mod, "summarize")
    recorder.patch_method("Simulator.run", Simulator, "run", sim_attrs)
    # Dumbbell overrides add_flow; both are the topology layer's entry.
    recorder.patch_method("Topology.add_flow", Topology, "add_flow")
    recorder.patch_method("Topology.add_flow", Dumbbell, "add_flow")
    recorder.patch_method("ResultCache.load_run", cache_mod.ResultCache, "load_run")
    recorder.patch_method("ResultCache.store_run", cache_mod.ResultCache, "store_run")
    recorder.patch_method("ParallelExecutor.map", ParallelExecutor, "map")
    recorder.patch_method("SweepManifest.append", supervise_mod.SweepManifest, "append")
    recorder.patch_method("CollectingTracer.digest", CollectingTracer, "digest")


def _bad_op():
    """The self-test's injected failure: a protocol nobody registered."""
    import workloads
    from repro.harness.runner import FlowSpec, run_flows

    def call():
        return run_flows([FlowSpec("no-such-protocol")], workloads.EMULAB, duration_s=1.0, seed=1)

    return workloads.Op("injected-bad-op", call, lambda result: workloads.check_run(result, []))


def run_workload(args) -> dict:
    import repro.harness.cache as cache_mod
    import workloads
    from spans import SpanRecorder, merge_counts, span_counts

    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        install_spans(recorder)
    cache_mod.source_digest()  # through the module, so the traced run sees the call
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    prepared = workloads.WORKLOADS[args.workload](args.seed, sizes, Path(args.tmp), args.jobs)
    if args.inject_bad_op:
        prepared.ops.append(_bad_op())
    setup_s = time.monotonic() - args.spawned_at

    ops: list[dict] = []
    counts: dict[str, float] = {}
    digests: list[str] = []
    for op in prepared.ops:
        record = {"name": op.name, "sim_s": 0.0, "error": None}
        start = time.perf_counter()
        try:
            value = op.call()
            record["wall_s"] = time.perf_counter() - start
            report = op.check(value)
        except Exception:  # the op boundary: any exception is a failed op
            record.setdefault("wall_s", time.perf_counter() - start)
            record["error"] = traceback.format_exc(limit=6)
        else:
            record["sim_s"] = report.sim_s
            merge_counts(counts, report.counts)
            digests.append(report.digest)
        ops.append(record)
        # Let go of the op's result before the next op allocates its own,
        # so peak RSS is one op's, not an accident of two overlapping.
        value = report = None

    own = resource.getrusage(resource.RUSAGE_SELF)
    pool = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "workload": args.workload,
        "setup_s": setup_s,
        "sim_s": sum(op["sim_s"] for op in ops),
        "op_is_pass": prepared.op_is_pass,
        "peak_rss_mb": max(own.ru_maxrss, pool.ru_maxrss) / 1024.0,
        "ops": ops,
        "counts": counts,
        "result_digest": hashlib.sha256("\n".join(digests).encode()).hexdigest(),
    }
    if recorder is not None:
        n_spans = len(recorder.spans)
        if prepared.reference is not None:
            prepared.reference()
        expected = dict.fromkeys(SPAN_NAMES, 0)
        if not any(op["error"] for op in ops):
            expected.update(prepared.expected_spans())
            expected["source_digest"] = expected["payload_key"] + 1  # + the set-up call
            seen = span_counts(recorder.spans[:n_spans])
            result["span_counts"] = {name: seen.get(name, 0) for name in SPAN_NAMES}
            result["expected_span_counts"] = expected
        result["spans"] = recorder.spans[:n_spans]
        result["reference_spans"] = recorder.spans[n_spans:]
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--drills", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--inject-bad-op", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = time.monotonic()
    sys.path.insert(0, str(SRC))
    if args.drills:
        import drills

        result = drills.run_all(bool(args.smoke), Path(args.tmp))
    else:
        result = run_workload(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
