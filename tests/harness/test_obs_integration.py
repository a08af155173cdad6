"""Observability threaded through the harness: tracing, metrics, CLI.

Covers the tentpole's end-to-end guarantees: tracepoints fire from the
engine, links, and senders during real runs; trace digests are
byte-identical regardless of ``REPRO_JOBS``; the supervision layer's
ring-buffer flight recorder lands on failure records; and the
``repro run --trace`` / ``--metrics`` and ``repro trace`` work.
"""

import json
import tracemalloc
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness import EMULAB_DEFAULT, FlowSpec, load_topology, run_flows, run_pair
from repro.harness.parallel import pmap
from repro.obs import (
    CollectingTracer,
    JsonlTraceSink,
    MetricsRegistry,
    TeeTracer,
    install_tracer,
    read_jsonl,
    trace_digest,
    tracing,
    write_jsonl,
)
from repro.sim.aqm import DynamicLink

CONFIG = EMULAB_DEFAULT


# ----------------------------------------------------------------------
# Tracepoints reach the tracer from every layer
# ----------------------------------------------------------------------
def test_trace_covers_engine_link_and_sender():
    tracer = CollectingTracer()
    run_flows(
        [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=1.0)],
        CONFIG,
        duration_s=4.0,
        seed=2,
        tracer=tracer,
    )
    kinds = {event.kind for event in tracer.events}
    # Engine lifecycle, link queue, MI lifecycle, rate control, filter.
    for expected in (
        "sim.run.begin",
        "sim.run.end",
        "link.enqueue",
        "mi.start",
        "mi.end",
        "rate.change",
        "rtt_filter.accept",
    ):
        assert expected in kinds, f"missing {expected}; saw {sorted(kinds)}"
    # Events are attributed: link events carry a link, MI events a flow.
    assert any(e.link == "bottleneck" for e in tracer.events)
    assert any(e.flow == 2 and e.kind == "mi.start" for e in tracer.events)
    # The analytic link's one row per admission carries its departure;
    # only an event-based link writes a row when it serves the packet.
    assert "link.dequeue" not in kinds
    codel = CollectingTracer()
    run_flows([FlowSpec("cubic")], CONFIG, duration_s=1.0, seed=2, tracer=codel,
              topology=load_topology("dumbbell-codel"))
    assert any(e.kind == "link.dequeue" and e.link == "bottleneck" for e in codel.events)


@pytest.mark.parametrize("topology", [None, "dumbbell-codel"], ids=["dumbbell", "dumbbell-codel"])
def test_link_rows_match_link_stats(topology):
    # A lossy analytic link writes one `link.enqueue` per admitted
    # packet, with a null `deliver_at_s` (and a `wire` drop right after)
    # when the wire loses it; a DynamicLink leaves both times null at
    # admission and writes `link.dequeue` for each packet it delivers.
    tracer = CollectingTracer()
    result = run_flows(
        [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=0.5)],
        CONFIG.with_loss(0.01), duration_s=2.0, seed=3, tracer=tracer,
        topology=topology and load_topology(topology),
    )
    rows = tracer.to_dicts()
    dynamic = {name for name, link in result.dumbbell.links.items()
               if isinstance(link, DynamicLink)}
    assert bool(dynamic) == (topology is not None)
    for name, link in result.dumbbell.links.items():
        stats = link.stats
        enqueued = [r for r in rows if r["kind"] == "link.enqueue" and r["link"] == name]
        dequeued = [r for r in rows if r["kind"] == "link.dequeue" and r["link"] == name]
        if name in dynamic:
            assert enqueued and all(
                r["depart_s"] is None and r["deliver_at_s"] is None for r in enqueued
            )
            assert len(dequeued) == stats.delivered
            continue
        assert len(enqueued) == stats.delivered + stats.random_losses
        assert sum(r["deliver_at_s"] is not None for r in enqueued) == stats.delivered
        assert all(r["depart_s"] <= r["deliver_at_s"] for r in enqueued if r["deliver_at_s"])
        assert not dequeued
    wire = [
        index for index, r in enumerate(rows)
        if r["kind"] == "link.drop" and r["reason"] == "wire" and r["link"] not in dynamic
    ]
    assert len(wire) == sum(
        link.stats.random_losses for name, link in result.dumbbell.links.items()
        if name not in dynamic
    )
    assert bool(wire) == (topology is None)  # dumbbell-codel's lossy hop is dynamic
    for index in wire:
        drop, before = rows[index], rows[index - 1]
        assert before["kind"] == "link.enqueue" and before["deliver_at_s"] is None
        assert [before[k] for k in ("t", "flow", "link", "seq")] == [
            drop[k] for k in ("t", "flow", "link", "seq")
        ]


def test_global_tracer_is_picked_up():
    tracer = CollectingTracer()
    with tracing(tracer):
        run_flows([FlowSpec("cubic")], CONFIG, duration_s=2.0, seed=2)
    assert len(tracer) > 0


def test_tracing_does_not_change_results():
    baseline = run_flows([FlowSpec("proteus-s")], CONFIG, duration_s=3.0, seed=4)
    traced = run_flows(
        [FlowSpec("proteus-s")], CONFIG, duration_s=3.0, seed=4,
        tracer=CollectingTracer(),
    )
    assert traced.throughputs_mbps() == baseline.throughputs_mbps()
    assert traced.stats[0].packets_sent == baseline.stats[0].packets_sent


def test_run_pair_serial_when_traced():
    tracer = CollectingTracer()
    traced = run_pair(
        "cubic", "proteus-s", CONFIG, duration_s=5.0, seed=2, tracer=tracer
    )
    untraced = run_pair("cubic", "proteus-s", CONFIG, duration_s=5.0, seed=2, jobs=1)
    assert traced == untraced  # observation never changes the physics
    assert len(tracer) > 0


# ----------------------------------------------------------------------
# What a recorded trace costs in memory
# ----------------------------------------------------------------------
def test_a_recorded_trace_costs_its_rows_and_its_digest_a_chunk():
    # The benchmark's pair_traced run: everything the traced run leaves
    # allocated once its result is dropped is the tracer's rows (~218 B
    # each), and hashing them holds one encoded chunk on top.
    tracemalloc.start()
    try:
        tracer = CollectingTracer()
        result = run_flows(
            [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=1.0)],
            CONFIG, duration_s=6.0, seed=1, tracer=tracer,
        )
        del result
        retained = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tracer.digest()
        encoding = tracemalloc.get_traced_memory()[1] - retained
    finally:
        tracemalloc.stop()
    assert len(tracer) > 50_000
    assert retained <= 256 * len(tracer), f"{retained / len(tracer):.1f} B per row"
    assert encoding <= 0.5 * 2**20, f"digest() allocated {encoding} B beyond the rows"


# ----------------------------------------------------------------------
# Deterministic digests across parallelism
# ----------------------------------------------------------------------
def _traced_digest(seed: int) -> str:
    tracer = CollectingTracer()
    run_flows(
        [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=1.0)],
        CONFIG,
        duration_s=3.0,
        seed=seed,
        tracer=tracer,
    )
    return tracer.digest()


def test_trace_digest_identical_across_jobs():
    serial = pmap(_traced_digest, [1, 2], jobs=1)
    parallel = pmap(_traced_digest, [1, 2], jobs=4)
    assert serial == parallel
    assert serial[0] != serial[1]  # different seeds, different traces


def _untraced_trial(seed: int) -> float:
    result = run_flows([FlowSpec("cubic")], CONFIG, duration_s=1.0, seed=seed)
    return result.throughputs_mbps()[0]


def test_global_tracer_sees_the_same_events_for_any_jobs():
    # A forked worker would trace into its own copy of the installed
    # tracer and throw it away: a global tracer pins the batch in-process.
    digests = {}
    for jobs in (1, 2):
        with tracing(CollectingTracer()) as tracer:
            values = pmap(_untraced_trial, [1, 2, 3, 4], jobs=jobs)
        digests[jobs] = (values, len(tracer), tracer.digest())
    assert digests[1] == digests[2]
    assert digests[1][1] > 0


SINK_CASES = [("exact", None), ("hybrid", None), ("exact", "parking-lot-codel")]


def _sink_digests(item: tuple[str, str | None, str]) -> tuple[str, str, str]:
    fidelity, topology, directory = item
    collecting = CollectingTracer()
    path = Path(directory) / f"{fidelity}-{topology}.jsonl"
    with JsonlTraceSink(path) as sink:
        run_flows(
            [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=1.0)],
            CONFIG,
            duration_s=2.5,
            seed=3,
            fidelity=fidelity,
            topology=None if topology is None else load_topology(topology),
            tracer=TeeTracer(collecting, sink),
        )
    assert len(collecting) == sink.count > 1000
    # The line-at-a-time sink and the chunked writer are one encoder.
    rewritten = path.with_suffix(".rewritten")
    assert write_jsonl(collecting.events, rewritten) == sink.digest()
    assert rewritten.read_bytes() == path.read_bytes()
    return collecting.digest(), sink.digest(), trace_digest(read_jsonl(path))


def test_every_sink_agrees_in_both_fidelity_modes_and_across_jobs(tmp_path):
    serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
    serial = pmap(_sink_digests, [(*case, str(serial_dir)) for case in SINK_CASES], jobs=1)
    parallel = pmap(_sink_digests, [(*case, str(parallel_dir)) for case in SINK_CASES], jobs=4)
    assert serial == parallel
    for digests in serial:
        assert len(set(digests)) == 1, digests
    names = sorted(path.name for path in serial_dir.glob("*.jsonl"))
    assert len(names) == len(SINK_CASES)
    for name in names:
        assert (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes()


class _EmitOnly:
    """The documented minimum of a tracer: nothing but ``emit``."""

    def __init__(self):
        self.calls = []

    def emit(self, kind, time_s, *, flow=None, link=None, **fields):
        self.calls.append((kind, time_s, flow, link, fields))


def test_an_emit_only_tracer_receives_every_event_by_name():
    specs = [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=0.5)]
    collecting, mine = CollectingTracer(), _EmitOnly()
    for tracer in (collecting, mine):
        run_flows(specs, CONFIG, duration_s=1.5, seed=5, tracer=tracer)
    assert mine.calls == [
        (e.kind, e.time_s, e.flow, e.link, e.fields) for e in collecting.events
    ]
    assert {"link.enqueue", "rtt_filter.accept", "mi.start"} <= {c[0] for c in mine.calls}
    # Field order is the keyword order the sites always had.
    orders = {}
    for kind, _, _, _, fields in mine.calls:
        orders.setdefault(kind, set()).add(tuple(fields))
    assert orders["link.enqueue"] == {
        ("node", "seq", "size_bytes", "backlog_bytes", "depart_s", "deliver_at_s")
    }
    assert orders["mi.start"] == {("mi_id", "tag", "rate_bps", "duration_s")}
    mi = ("mi_id", "tag", "rate_bps", "duration_s", "n_sent", "n_acked", "n_lost", "utility")
    terms = ("throughput_mbps", "loss_rate", "avg_rtt_s", "rtt_gradient", "rtt_deviation_s")
    assert orders["mi.end"] == {mi + terms}
    assert orders["sim.run.begin"] == {("until_s", "max_events", "max_wall_s")}
    decision = ("reason", "rate_bps")
    assert decision in orders["rate.decision"]
    assert orders["rate.decision"] <= {
        decision,
        decision + ("votes",),
        decision + ("votes", "gradient"),
        decision + ("step_k",),
        decision + ("rtt_deviation_s",),
    }


# ----------------------------------------------------------------------
# Metrics registry through run_flows
# ----------------------------------------------------------------------
def test_caller_registry_accumulates_across_runs():
    registry = MetricsRegistry()
    run_flows([FlowSpec("cubic")], CONFIG, duration_s=2.0, seed=1, metrics=registry)
    first = registry.snapshot()["counters"]["flow.packets_sent{flow=1,protocol=cubic}"]
    run_flows([FlowSpec("cubic")], CONFIG, duration_s=2.0, seed=1, metrics=registry)
    second = registry.snapshot()["counters"]["flow.packets_sent{flow=1,protocol=cubic}"]
    assert second == 2 * first  # counters accumulate in the caller's registry


def test_sample_period_records_backlog_histogram():
    result = run_flows(
        [FlowSpec("cubic")], CONFIG, duration_s=3.0, seed=1, sample_period_s=0.25
    )
    hist = result.metrics["histograms"]["link.backlog_bytes{link=bottleneck}"]
    assert hist["count"] == 12  # samples at 0.25, 0.5, ..., 3.0
    assert hist["max"] > 0


# ----------------------------------------------------------------------
# Flight recorder on supervised failures
# ----------------------------------------------------------------------
def _failing_experiment(seed: int) -> float:
    from repro.obs import active_tracer

    tracer = active_tracer()
    if tracer is not None:
        for i in range(5):
            tracer.emit("test.step", float(i), flow=seed, step=i)
    raise RuntimeError(f"boom {seed}")


def test_ring_buffer_attached_to_failure_outcome():
    from repro.harness.supervise import RetryPolicy, supervised_map

    policy = RetryPolicy(retries=0, trace_ring=3)
    # The ring is filled where the attempt runs: in the driver (jobs=1)
    # or in a pool worker (two items, so that they leave the driver).
    for jobs in (1, 2):
        outcomes = supervised_map(
            _failing_experiment, [7, 8], jobs=jobs, policy=policy
        )
        assert len(outcomes) == 2
        outcome = outcomes[0]
        assert not outcome.ok
        assert outcome.trace is not None
        # Ring capacity 3: only the last 3 of 5 emitted events survive.
        assert [event["step"] for event in outcome.trace] == [2, 3, 4]
        # The trace round-trips through the manifest record.
        rebuilt = type(outcome).from_record(
            json.loads(json.dumps(outcome.to_record()))
        )
        assert rebuilt.trace == outcome.trace


def test_successful_trials_carry_no_trace():
    from repro.harness.supervise import RetryPolicy, supervised_map

    policy = RetryPolicy(retries=0, trace_ring=8)
    outcomes = supervised_map(lambda seed: seed * 2, [3], jobs=1, policy=policy)
    assert outcomes[0].ok and outcomes[0].value == 6
    assert outcomes[0].trace is None


def test_trials_metrics_counters():
    from repro.harness.trials import run_trials

    registry = MetricsRegistry()
    summary = run_trials(_double, n_trials=3, base_seed=1, jobs=1, metrics=registry)
    assert summary.n == 3
    counters = registry.snapshot()["counters"]
    assert counters["trials.total"] == 3
    assert counters["trials.by_status{status=ok}"] == 3


def _double(seed: int) -> float:
    return float(seed * 2)


# ----------------------------------------------------------------------
# CLI subcommands
# ----------------------------------------------------------------------
def test_cli_trace_record_filter_and_replay(tmp_path, capsys):
    recorded = tmp_path / "trace.jsonl"
    code = main(
        [
            "run",
            "--protocols", "cubic,proteus-s",
            "--duration", "2",
            "--trace", str(recorded),
        ]
    )
    assert code == 0
    shown = capsys.readouterr().out
    (digest_line,) = [line for line in shown.splitlines() if line.startswith("digest:")]
    assert digest_line == f"digest: {trace_digest(read_jsonl(recorded))}"

    out = tmp_path / "mi.jsonl"
    code = main(
        ["trace", str(recorded), "--kind", "mi", "--flow", "2", "--out", str(out)]
    )
    assert code == 0
    assert "mi.start" in capsys.readouterr().out
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines and all(e["kind"].startswith("mi") and e["flow"] == 2 for e in lines)

    code = main(["trace", str(out), "--kind", "mi.start", "--limit", "2"])
    assert code == 0
    replayed = capsys.readouterr().out
    assert "mi.start" in replayed and "mi.discard" not in replayed


def test_cli_run_trace_is_the_sink_recording(tmp_path, capsys):
    # `run --trace` streams through a JsonlTraceSink: the file and the
    # printed digest are those of a sink recording of the same run.
    recorded = tmp_path / "trace.jsonl"
    argv = ["run", "--protocols", "cubic,proteus-s", "--duration", "3",
            "--trace", str(recorded)]
    assert main(argv) == 0
    shown = capsys.readouterr().out
    with JsonlTraceSink(tmp_path / "sink.jsonl") as sink:
        run_flows(
            [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=1.0)],
            CONFIG, duration_s=3.0, seed=1, tracer=sink,
        )
    assert recorded.read_bytes() == (tmp_path / "sink.jsonl").read_bytes()
    assert f"digest: {sink.digest()}" in shown.splitlines()


def test_cli_trace_rejects_unknown_protocol():
    with pytest.raises(SystemExit):
        main(["run", "--protocols", "notaprotocol", "--duration", "1"])


def test_cli_trace_reports_an_unreadable_file(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "missing.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("repro trace: cannot read ")


def _synthetic_trace(path: Path, n_lines: int) -> list[dict]:
    kinds = ("link.enqueue", "mi.start", "link.drop", "mi.end", "rate.decision")
    events = [
        {"t": i * 1e-4, "kind": kinds[i % len(kinds)], "flow": 1 + i % 3,
         "link": "bottleneck", "seq": i, "size_bytes": 1500, "backlog_bytes": 15.0 * i}
        for i in range(n_lines)
    ]
    write_jsonl(events, path)
    return events


def test_cli_trace_streams_the_file(tmp_path, capsys):
    # `repro trace` holds no more of the file than one encoding chunk
    # and its --limit head: loading ~40 000 events as dicts took tens of
    # MiB, the streamed pass stays under a few.
    recorded = tmp_path / "big.jsonl"
    events = _synthetic_trace(recorded, 40_000)
    expected = [e for e in events if e["kind"].startswith("mi.") and e["flow"] == 2]
    out = tmp_path / "mi.jsonl"
    argv = ["trace", str(recorded), "--kind", "mi", "--flow", "2", "--limit", "3",
            "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"repro trace peaked at {peak / 2**20:.1f} MiB"
    shown = capsys.readouterr().out.splitlines()
    digest = write_jsonl(expected, tmp_path / "reference.jsonl")
    assert out.read_bytes() == (tmp_path / "reference.jsonl").read_bytes()
    assert f"digest: {digest}" in shown
    assert [line for line in shown if line.startswith("{")] == [
        json.dumps(e, sort_keys=True, separators=(",", ":")) for e in expected[:3]
    ]
    assert shown[-1] == f"wrote {out} ({len(expected)} events)"


def test_cli_trace_bad_line_leaves_no_out_file_and_out_may_name_the_input(tmp_path, capsys):
    recorded = tmp_path / "trace.jsonl"
    events = _synthetic_trace(recorded, 50)
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(recorded.read_bytes() + b"{ not json\n")
    out = tmp_path / "out.jsonl"
    assert main(["trace", str(torn), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("repro trace: cannot read ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["torn.jsonl", "trace.jsonl"]
    # Filtering a file onto itself reads all of it before replacing it.
    assert main(["trace", str(recorded), "--kind", "mi.end", "--out", str(recorded)]) == 0
    assert read_jsonl(recorded) == [e for e in events if e["kind"] == "mi.end"]
    assert main(["trace", str(recorded), "--limit", "-1"]) == 2


def test_cli_metrics(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    code = main(
        [
            "run",
            "--protocols", "cubic",
            "--duration", "2",
            "--sample", "0.5",
            "--metrics", str(out),
        ]
    )
    assert code == 0
    shown = capsys.readouterr().out
    assert "flow.throughput_mbps" in shown
    snapshot = json.loads(out.read_text())
    assert set(snapshot) == {"counters", "gauges", "histograms"}
    assert "link.backlog_bytes{link=bottleneck}" in snapshot["histograms"]


def test_no_global_tracer_leaks():
    # Suite hygiene: nothing above may leave a process-global tracer.
    from repro.obs import active_tracer

    assert active_tracer() is None
    assert install_tracer(None) is None
