"""Result export: CSV/JSON writers for experiment outputs.

Benchmarks print paper-style tables; downstream users usually want the
raw series for their own plotting.  These helpers serialise
:class:`~repro.harness.runner.RunResult` objects and plain row tables
without pulling in any plotting dependency.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Sequence
from pathlib import Path

from ..sim.trace import sorted_percentile
from .runner import RunResult


def write_csv(
    path: str | Path, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> None:
    """Write a simple headers+rows table as CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            if len(row) != len(headers):
                raise ValueError("row width does not match headers")
            writer.writerow(row)


def run_result_summary(result: RunResult) -> dict:
    """JSON-serialisable summary of a run (per-flow aggregates)."""
    window = result.measurement_window()
    flows = []
    for i, stats in enumerate(result.stats):
        entry = {
            "flow_id": stats.flow_id,
            "protocol": result.specs[i].protocol,
            "start_time_s": result.specs[i].start_time,
            "throughput_mbps": result.throughput_mbps(i, window),
            "packets_sent": stats.packets_sent,
            "losses": stats.loss_count(),
            "delivered_bytes": stats.delivered_bytes,
        }
        rtts = stats.sorted_rtts(*window)
        if rtts:
            entry["min_rtt_ms"] = rtts[0] * 1e3
            entry["p95_rtt_ms"] = sorted_percentile(rtts, 95) * 1e3
        flows.append(entry)
    summary = {
        "config": {
            "bandwidth_mbps": result.config.bandwidth_mbps,
            "rtt_ms": result.config.rtt_ms,
            "buffer_kb": result.config.buffer_kb,
            "loss_rate": result.config.loss_rate,
            "label": result.config.label,
        },
        "duration_s": result.duration_s,
        "measurement_window_s": list(window),
        "utilization": result.utilization(window),
        "flows": flows,
    }
    if result.topology is not None:
        summary["topology"] = result.topology.to_dict()
    if result.dumbbell is not None:
        # Per-hop drop accounting (live runs only — a cache-rebuilt
        # result has no link objects; its metrics snapshot carries the
        # same counters).
        summary["links"] = [
            {
                "link": link.name,
                "node": link.node,
                "offered": link.stats.offered,
                "delivered": link.stats.delivered,
                "tail_drops": link.stats.tail_drops,
                "aqm_drops": link.stats.aqm_drops,
                "random_losses": link.stats.random_losses,
                "max_backlog_bytes": link.stats.max_backlog_bytes,
            }
            for link in result.dumbbell.iter_links()
        ]
    if result.timeline is not None:
        summary["timeline"] = result.timeline.to_dict()
        summary["link_events"] = [
            {
                "time_s": event.time_s,
                "link": event.link,
                "kind": event.kind,
                "value": list(event.value),
                "description": event.describe(),
            }
            for event in result.link_events
        ]
    return summary


def write_run_json(path: str | Path, result: RunResult) -> None:
    """Serialise a run summary to JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(run_result_summary(result), indent=2))


def write_result_json(path: str | Path, result) -> None:
    """Serialise *any* :class:`~repro.harness.results.Result` to JSON.

    Works uniformly for run, pair, and streaming outcomes via the
    ``Result`` protocol's ``to_dict()`` (the ``"kind"`` discriminator
    tells readers which shape they are holding); this is the generic
    exporter the unified results API replaces per-type writers with.
    """
    from .results import Result

    if not isinstance(result, Result):
        raise TypeError(
            f"{type(result).__name__} does not satisfy the Result protocol"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True))


def write_throughput_series_csv(
    path: str | Path, result: RunResult, bin_s: float = 1.0
) -> None:
    """Per-flow binned throughput series, long format (flow, time, mbps)."""
    rows: list[tuple[object, ...]] = []
    for i, stats in enumerate(result.stats):
        for t, mbps in stats.throughput_series(bin_s, 0.0, result.duration_s):
            rows.append((result.specs[i].protocol, stats.flow_id, f"{t:.3f}", f"{mbps:.4f}"))
    write_csv(path, ["protocol", "flow_id", "time_s", "throughput_mbps"], rows)
