"""Drills: one layer's public functions driven directly, synthetic input.

The per-packet paths were inlined (``Link.send`` does not call out to
the engine through anything a wrapper could sit on), so an outside span
cannot separate them.  A drill instead feeds one layer a fixed
synthetic load through its public API and reports the cost per unit.
Every drill does the same work on every run, repeats it ``REPEATS``
times (at least 0.5 s in all at full size) and reports the median.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections.abc import Callable
from pathlib import Path

from repro.adversary import mutate, sample_genome
from repro.core import (
    AckIntervalFilter,
    MonitorInterval,
    RateController,
    Rng,
    ScavengerUtility,
)
from repro.harness.cache import disable_cache, reset_source_digest_cache, source_digest
from repro.harness.parallel import pmap
from repro.harness.runner import FlowSpec, run_flows
from repro.harness.scenarios import LinkConfig
from repro.harness.supervise import supervised_map
from repro.harness.trials import summarize
from repro.obs import CollectingTracer
from repro.sim import (
    CoDelDiscipline,
    DynamicLink,
    FlowStats,
    Link,
    Packet,
    Simulator,
    TailDropDiscipline,
)

REPEATS = 5
CHAINS = 64
"""Self-rescheduling no-op chains: keeps the heap at a realistic depth."""

LINK_BPS = 50e6
LINK_DELAY_S = 0.015
LINK_BUFFER_BYTES = 375e3
SOLO_PROTOCOLS = ("proteus-s", "proteus-p", "cubic", "bbr")


def median_time(fn: Callable[[], float]) -> float:
    """Median of ``REPEATS`` calls of ``fn``, which returns host seconds."""
    return statistics.median(fn() for _ in range(REPEATS))


def timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def per_unit(n_units: int, fresh: Callable[[], Callable[[], object]]) -> float:
    """Median host seconds per unit of a loop over ``n_units``.

    ``fresh()`` builds new state for one repetition and returns the
    loop to time, so set-up stays outside the timed region.
    """
    return median_time(lambda: timed(fresh())) / n_units


# ----------------------------------------------------------------------
# sim.engine
# ----------------------------------------------------------------------
def engine_ns_per_event(n_events: int, fast: bool) -> float:
    def once() -> float:
        sim = Simulator(check_invariants=False)
        remaining = n_events - CHAINS
        schedule = sim.schedule_fast if fast else sim.schedule

        def tick() -> None:
            nonlocal remaining
            if remaining > 0:
                remaining -= 1
                schedule(0.001, tick)

        for i in range(CHAINS):
            sim.schedule_fast_at(i * 1e-5, tick)
        return timed(sim.run) / sim.events_fired

    return median_time(once) * 1e9


# ----------------------------------------------------------------------
# sim.link / sim.aqm: one source, 5% over the link rate, so the queue
# fills and the drop branch runs too.  All three links see this traffic.
# ----------------------------------------------------------------------
class _Sink:
    def receive(self, packet: Packet) -> None:
        pass


def _offer(sim: Simulator, link, n_packets: int) -> float:
    sink = _Sink()
    gap_s = 0.95 * 1500 * 8.0 / LINK_BPS
    sent = 0

    def tick() -> None:
        nonlocal sent
        link.send(Packet(1, sent, sent_time=sim.now), sink)
        sent += 1
        if sent < n_packets:
            sim.schedule_fast(gap_s, tick)

    sim.schedule_fast_at(0.0, tick)
    return timed(sim.run) / n_packets


def link_send_ns(n_packets: int) -> float:
    def once() -> float:
        sim = Simulator(check_invariants=False)
        link = Link(sim, LINK_BPS, LINK_DELAY_S, buffer_bytes=LINK_BUFFER_BYTES)
        return _offer(sim, link, n_packets)

    return median_time(once) * 1e9


def aqm_send_ns(n_packets: int, discipline_cls) -> float:
    def once() -> float:
        sim = Simulator(check_invariants=False)
        link = DynamicLink(
            sim, LINK_BPS, LINK_DELAY_S, discipline=discipline_cls(LINK_BUFFER_BYTES)
        )
        return _offer(sim, link, n_packets)

    return median_time(once) * 1e9


def link_send_ff_ns(n_packets: int) -> float:
    def once() -> float:
        sim = Simulator(check_invariants=False)
        link = Link(sim, LINK_BPS, LINK_DELAY_S, buffer_bytes=LINK_BUFFER_BYTES)
        gap_s = 0.95 * 1500 * 8.0 / LINK_BPS
        packets = [Packet(1, i) for i in range(n_packets)]
        send_ff = link.send_ff

        def burst() -> None:
            for i, packet in enumerate(packets):
                send_ff(packet, i * gap_s)

        return timed(burst) / n_packets

    return median_time(once) * 1e9


# ----------------------------------------------------------------------
# sim.trace (FlowStats) and obs.trace (CollectingTracer)
# ----------------------------------------------------------------------
def flowstats_record(n_acks: int) -> tuple[float, float]:
    """(ns per ``record_ack``, bytes held per ack)."""

    def fill() -> FlowStats:
        stats = FlowStats(1)
        record = stats.record_ack
        for i in range(n_acks):
            record(i * 1e-3, 1500, 0.03)
        return stats

    ns = per_unit(n_acks, lambda: fill) * 1e9
    return ns, _held_bytes(fill) / n_acks


def tracer_emit(n_events: int) -> tuple[float, float]:
    """(ns per ``emit``, bytes held per event) for a link.enqueue-shaped event."""

    def fill() -> CollectingTracer:
        tracer = CollectingTracer()
        emit = tracer.emit
        for i in range(n_events):
            emit(
                "link.enqueue", i * 1e-3, flow=1, link="bottleneck", node="src",
                seq=i, size_bytes=1500, backlog_bytes=1500.0 * (i % 200),
            )
        return tracer

    ns = per_unit(n_events, lambda: fill) * 1e9
    return ns, _held_bytes(fill) / n_events


def _held_bytes(build: Callable[[], object]) -> int:
    """Bytes still allocated for what ``build`` returns (tracemalloc)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        held = tracemalloc.get_traced_memory()[0] - before
        del kept
    finally:
        tracemalloc.stop()
    return held


# ----------------------------------------------------------------------
# core
# ----------------------------------------------------------------------
def _filled_mi(mi_id: int) -> MonitorInterval:
    mi = MonitorInterval(mi_id, 20e6, 0.0, 0.03)
    for _ in range(100):
        mi.record_send(1500)
    for i in range(100):
        mi.record_ack(i * 3e-4, 0.03 + 1e-5 * (i % 7), 1500)
    mi.closed = True
    return mi


def monitor_mi_us(n_intervals: int) -> float:
    def work() -> None:
        for mi_id in range(n_intervals):
            _filled_mi(mi_id).compute_metrics()

    return per_unit(n_intervals, lambda: work) * 1e6


def utility_eval_ns(n_calls: int) -> float:
    utility = ScavengerUtility()
    metrics = _filled_mi(0).compute_metrics()

    def work() -> None:
        for _ in range(n_calls):
            utility(metrics)

    return per_unit(n_calls, lambda: work) * 1e9


def rate_control_step_us(n_steps: int) -> float:
    """One step = ``next_rate`` + ``on_result`` on a concave utility."""

    def fresh():
        controller = RateController(2e6, rng=Rng("drill:rate-control"))

        def work() -> None:
            for mi_id in range(n_steps):
                rate_bps, tag = controller.next_rate()
                mi = MonitorInterval(mi_id, rate_bps, 0.0, 0.03)
                mi.tag = tag
                x = rate_bps / 1e6
                controller.on_result(mi, x - 0.02 * x * x)

        return work

    return per_unit(n_steps, fresh) * 1e6


def noise_accept_ns(n_acks: int) -> float:
    def fresh():
        accept = AckIntervalFilter().accept

        def work() -> None:
            for i in range(n_acks):
                accept(i * 3e-4, 0.03 + 1e-5 * (i % 7), 0.03)

        return work

    return per_unit(n_acks, fresh) * 1e9


# ----------------------------------------------------------------------
# protocols: one flow alone, so differences isolate the control law
# ----------------------------------------------------------------------
def solo_ns_per_event(protocol: str, duration_s: float) -> float:
    config = LinkConfig(bandwidth_mbps=50.0, rtt_ms=30.0, buffer_kb=375.0)

    def once() -> float:
        start = time.perf_counter()
        result = run_flows(
            [FlowSpec(protocol)], config, duration_s=duration_s, seed=1, fidelity="exact"
        )
        return (time.perf_counter() - start) / result.dumbbell.sim.events_fired

    return median_time(once) * 1e9


# ----------------------------------------------------------------------
# harness and adversary
# ----------------------------------------------------------------------
def noop(item: int) -> int:
    """Module-level so the pools can pickle it."""
    return item


def source_digest_ms() -> float:
    def once() -> float:
        reset_source_digest_cache()
        return timed(source_digest)

    return median_time(once) * 1e3


def pool_costs(n_items: int) -> tuple[float, float]:
    """(pool start+stop ms, ms per no-op item) at ``jobs=2``."""
    start_s = median_time(lambda: timed(lambda: pmap(noop, range(2), jobs=2)))
    full_s = median_time(lambda: timed(lambda: pmap(noop, range(n_items), jobs=2)))
    return start_s * 1e3, max(0.0, full_s - start_s) / (n_items - 2) * 1e3


def supervise_noop_ms(n_items: int, tmp: Path) -> float:
    runs = iter(range(REPEATS))

    def once() -> float:
        manifest = tmp / f"drill-manifest-{next(runs)}.jsonl"
        return timed(
            lambda: supervised_map(noop, range(n_items), jobs=1, manifest=manifest)
        ) / n_items

    return median_time(once) * 1e3


def summarize_ms(n_calls: int) -> float:
    values = [float(i) for i in range(12)]

    def work() -> None:
        for _ in range(n_calls):
            summarize(values)

    return per_unit(n_calls, lambda: work) * 1e3


def genome_us(n_genomes: int) -> float:
    def fresh():
        rng = Rng("drill:genome")

        def work() -> None:
            for _ in range(n_genomes):
                mutate(sample_genome(rng, duration_s=4.0), rng).to_dict()

        return work

    return per_unit(n_genomes, fresh) * 1e6


# ----------------------------------------------------------------------
def run_all(smoke: bool, tmp: Path) -> dict[str, float]:
    """Every drill once; ``smoke`` divides the work by 20."""
    disable_cache()
    scale = 20 if smoke else 1
    record_ns, bytes_per_ack = flowstats_record(400_000 // scale)
    emit_ns, bytes_per_event = tracer_emit(100_000 // scale)
    pool_start_ms, pool_item_ms = pool_costs(200 if not smoke else 20)
    values = {
        "sim.engine.fast_ns_per_event": engine_ns_per_event(200_000 // scale, fast=True),
        "sim.engine.cancellable_ns_per_event": engine_ns_per_event(
            150_000 // scale, fast=False
        ),
        "sim.link.send_ns_per_pkt": link_send_ns(60_000 // scale),
        "sim.link.send_ff_ns_per_pkt": link_send_ff_ns(300_000 // scale),
        "sim.aqm.taildrop_send_ns_per_pkt": aqm_send_ns(30_000 // scale, TailDropDiscipline),
        "sim.aqm.codel_send_ns_per_pkt": aqm_send_ns(30_000 // scale, CoDelDiscipline),
        "sim.trace.record_ns_per_ack": record_ns,
        "sim.trace.bytes_per_ack": bytes_per_ack,
        "core.monitor.mi_us": monitor_mi_us(1_000 // scale),
        "core.utility.eval_ns": utility_eval_ns(200_000 // scale),
        "core.rate_control.step_us": rate_control_step_us(40_000 // scale),
        "core.noise_tolerance.accept_ns": noise_accept_ns(300_000 // scale),
        "obs.trace.emit_ns_per_event": emit_ns,
        "obs.trace.bytes_per_event": bytes_per_event,
        "harness.cache.source_digest_ms": source_digest_ms(),
        "harness.parallel.pool_start_ms": pool_start_ms,
        "harness.parallel.noop_ms_per_item": pool_item_ms,
        "harness.supervise.noop_ms_per_item": supervise_noop_ms(100 // scale, tmp),
        "harness.trials.summarize_ms": summarize_ms(40 // scale),
        "adversary.genome_us": genome_us(2_000 // scale),
    }
    solo_duration_s = 0.5 if smoke else 4.0
    for protocol in SOLO_PROTOCOLS:
        values[f"protocols.solo_ns_per_event.{protocol}"] = solo_ns_per_event(
            protocol, solo_duration_s
        )
    return values
