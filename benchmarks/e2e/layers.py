"""Per-layer metrics of one traced run (counts, spans, drills, context).

Pure arithmetic over what ``child.py`` reported: nothing here imports
``repro``.  The names and units are the ``per_layer`` list of
``BENCHMARK.json``; ``run.py`` refuses to report if the two disagree.
A metric whose layer the workload never enters reads 0.
"""

from __future__ import annotations

from pathlib import Path

from spans import merge_counts, totals_by_name

SRC_PACKAGES = (
    "core", "sim", "protocols", "apps", "analysis", "obs", "harness", "adversary",
    "devtools", "cli",
)


# Counts reported as they were read: SIM_COUNTS summed over the traced
# run's run_flows spans, OP_COUNTS from the workload's own op checks.
SIM_COUNTS = (
    "sim.engine.events_fired", "sim.engine.events_virtual",
    "sim.link.offered_pkts", "sim.link.tail_drops", "sim.link.max_backlog_bytes",
    "sim.aqm.offered_pkts", "sim.aqm.aqm_drops", "sim.aqm.tail_drops",
    "sim.flow.pkts_sent", "sim.flow.pkts_acked", "sim.flow.losses",
    "sim.flow.flows_completed",
)
OP_COUNTS = (
    "core.monitor.mi_end_events", "core.rate_control.decision_events",
    "obs.trace.events_emitted",
    "harness.cache.hits", "harness.cache.misses", "harness.cache.stores",
    "harness.cache.entry_kb",
    "harness.supervise.manifest_records", "harness.supervise.retried",
    "harness.supervise.not_ok",
    "adversary.evals",
)


def src_lines(src_repro: Path) -> dict[str, int]:
    """Plain line count of ``src/repro/<pkg>`` (``cli`` is one module)."""
    lines: dict[str, int] = {}
    for package in SRC_PACKAGES:
        root = src_repro / package
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root.with_suffix(".py")]
        lines[package] = sum(len(f.read_text().splitlines()) for f in files)
    return lines


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    traced: dict,
    trace_overhead_ratio: float,
    cold_speedup: float,
    drills: dict[str, float],
    host: dict[str, float],
    lines: dict[str, int],
) -> dict[str, float]:
    """Every per-layer metric for the workload ``traced`` ran.

    The two ratios compare whole runs, which only ``run.py`` has:
    traced wall over the same workload's untraced wall at the same
    ``jobs``, and (``sweep_harness`` only, else 0) the untraced cold
    pass at ``jobs=1`` over the one at ``jobs=2``.
    """
    spans = traced["spans"]
    totals = totals_by_name(spans)
    op_counts = traced["counts"]

    def busy(name: str) -> float:
        return totals.get(name, {}).get("busy_s", 0.0)

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    def mean(name: str, field: str) -> float:
        return ratio(totals.get(name, {}).get(field, 0.0), calls(name))

    # Simulation counts come from the run_flows spans, so runs hidden
    # inside the campaign or the in-process pool are covered too.
    sim: dict[str, float] = {}
    live_sim_s = 0.0
    for span in spans:
        attrs = span.get("attrs")
        if span["name"] == "run_flows" and attrs:
            merge_counts(sim, attrs)
            if attrs["live"]:
                live_sim_s += attrs["sim_s"]
    fired = sim.get("sim.engine.events_fired", 0)
    virtual = sim.get("sim.engine.events_virtual", 0)
    emitted = op_counts.get("obs.trace.events_emitted", 0)
    reference_busy = sum(
        span["end_s"] - span["start_s"]
        for span in traced["reference_spans"]
        if span["name"] == "Simulator.run"
    )

    values = {
        "sim.engine.events_per_sim_s": ratio(fired, live_sim_s),
        "sim.engine.run_busy_s": busy("Simulator.run"),
        "sim.engine.events_per_wall_s": ratio(fired, busy("Simulator.run")),
        "sim.topology.add_flow_calls": calls("Topology.add_flow"),
        "sim.topology.add_flow_busy_s": busy("Topology.add_flow"),
        "sim.fidelity.virtual_share": ratio(virtual, fired + virtual),
        "obs.trace.events_per_sim_event": ratio(emitted, fired),
        "obs.trace.digest_us_per_event": ratio(busy("CollectingTracer.digest"), emitted) * 1e6,
        "obs.trace.run_slowdown": ratio(busy("Simulator.run"), reference_busy),
        "harness.cache.payload_key_us": mean("payload_key", "self_s") * 1e6,
        "harness.cache.store_ms": mean("ResultCache.store_run", "busy_s") * 1e3,
        "harness.cache.load_ms": mean("ResultCache.load_run", "busy_s") * 1e3,
        "harness.parallel.cold_speedup": cold_speedup,
        "harness.supervise.manifest_append_us": mean("SweepManifest.append", "busy_s") * 1e6,
        "harness.runner.run_flows_calls": calls("run_flows"),
        "harness.runner.run_flows_self_ms": mean("run_flows", "self_s") * 1e3,
        # run_campaign's only direct children are its supervised_map calls.
        "adversary.self_s": totals.get("run_campaign", {}).get("self_s", 0.0),
        "adversary.sim_share": ratio(busy("Simulator.run"), busy("run_campaign")),
        "host.trace_overhead_ratio": trace_overhead_ratio,
        **host,
        **drills,
    }
    for name in SIM_COUNTS:
        values[name] = sim.get(name, 0)
    for name in OP_COUNTS:
        values[name] = op_counts.get(name, 0)
    for package, count in lines.items():
        values[f"code.src_lines.{package}"] = count
    return values
