"""The seven benchmark workloads: spec building, ops, and output checks.

A workload is prepared once (``prepare`` builds every spec from the
seed — the program under test only ever sees the generated specs) and
then executed as a closed loop of *ops*: one call into a public
``repro`` entry point, timed from outside, followed by an untimed check
of what it returned.  Why each workload exists, and which layers it
stresses or bypasses, is recorded in ``README.md`` next to this file.

Sizes are the issue's with the simulated durations shrunk 6-10x (and
fewer sweep trials and campaign evaluations) so that one pass of a
workload is 0.7-1.8 host seconds; the workload count, protocols,
topologies and link settings are unchanged.
"""

from __future__ import annotations

import hashlib
import resource
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any

from repro.adversary import CampaignConfig, run_campaign
from repro.devtools.determinism import stats_digest
from repro.harness.cache import ResultCache, disable_cache, enable_cache
from repro.harness.parallel import pmap
from repro.harness.runner import FlowSpec, RunResult, run_flows, run_many
from repro.harness.scenarios import TOPOLOGIES, LinkConfig
from repro.harness.trials import summarize
from repro.obs import CollectingTracer
from repro.sim import DynamicLink
from spans import merge_counts

EMULAB = LinkConfig(bandwidth_mbps=50.0, rtt_ms=30.0, buffer_kb=375.0)

SWEEP_BANDWIDTHS_MBPS = (10.0, 20.0, 50.0)
SWEEP_RTTS_MS = (10.0, 30.0, 60.0)

# Campaign seeds (of 1..120, scanned at the commit that added this file)
# whose 30-evaluation primary_harm search is healthy and about the same
# size.  One campaign seed in six samples a BBR-under-noise genome that
# fires events until the 3M-event watchdog trips, three ~12 s attempts
# in a row: a run on it would time the watchdog and report a failed op.
# Among the healthy seeds the work still varies 2.4x with the sampled
# link rates; these make 6.9-7.25M Python calls (cProfile), within 2.3%
# of each other, so the job is the same size whichever one --seed picks.
CAMPAIGN_SEEDS = (
    3, 4, 19, 22, 24, 26, 29, 38, 43, 49, 69, 75, 79, 89, 98, 99, 104, 116,
)


@dataclass(frozen=True)
class Sizes:
    """Every size constant of the benchmark (one instance per mode)."""

    pair_ops: int
    pair_duration_s: float
    traced_ops: int
    traced_duration_s: float
    many_ops: int
    many_flows: int
    many_duration_s: float
    aqm_ops: int
    aqm_duration_s: float
    sweep_seeds: int
    sweep_duration_s: float
    sweep_warm_passes: int
    campaign_budget: int
    campaign_generation: int
    campaign_duration_s: float


FULL = Sizes(
    pair_ops=5, pair_duration_s=6.0,
    traced_ops=1, traced_duration_s=6.0,
    many_ops=3, many_flows=700, many_duration_s=7.0,
    aqm_ops=2, aqm_duration_s=4.0,
    sweep_seeds=8, sweep_duration_s=1.5, sweep_warm_passes=3,
    campaign_budget=30, campaign_generation=10, campaign_duration_s=1.5,
)
SMOKE = Sizes(
    pair_ops=2, pair_duration_s=1.5,
    traced_ops=1, traced_duration_s=1.0,
    many_ops=1, many_flows=100, many_duration_s=2.0,
    aqm_ops=1, aqm_duration_s=1.5,
    sweep_seeds=1, sweep_duration_s=1.5, sweep_warm_passes=2,
    campaign_budget=4, campaign_generation=2, campaign_duration_s=1.0,
)


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class Report:
    """What the untimed check of one op found."""

    sim_s: float
    counts: dict[str, float]
    digest: str


@dataclass
class Op:
    """One timed call (``call``) and the untimed check of its value."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Report]


@dataclass
class Prepared:
    """A workload ready to run: its ops plus run-shape facts.

    ``op_is_pass`` marks workloads whose every op is a whole pass
    (``sweep_harness``: op 0 is the cold pass, the rest are warm
    passes); elsewhere the op list as a whole is the single pass.
    ``expected_spans`` is evaluated after the ops ran, because the
    campaign's call counts depend on what it sampled.  ``reference``
    (traced run only, after the ops) repeats the simulations with the
    workload's own instrumentation off, for a same-seed comparison.
    """

    ops: list[Op]
    expected_spans: Callable[[], dict[str, int]]
    op_is_pass: bool = False
    reference: Callable[[], Any] | None = None


# ----------------------------------------------------------------------
# Counts read from public state after an op
# ----------------------------------------------------------------------
def harvest(result: RunResult) -> dict[str, float]:
    """Per-layer counts of one ``run_flows`` result.

    A result rebuilt from the cache has no live network, so only its
    flow-level counts exist.
    """
    counts: dict[str, float] = {
        "sim.flow.pkts_sent": sum(s.packets_sent for s in result.stats),
        "sim.flow.pkts_acked": sum(len(s.ack_times) for s in result.stats),
        "sim.flow.losses": sum(len(s.loss_times) for s in result.stats),
        "sim.flow.flows_completed": sum(s.end_time is not None for s in result.stats),
    }
    network = result.dumbbell
    if network is None:
        return counts
    counts["sim.engine.events_fired"] = network.sim.events_fired
    counts["sim.engine.events_virtual"] = network.sim.events_virtual
    for link in network.iter_links():
        stats = link.stats
        if isinstance(link, DynamicLink):
            part = {
                "sim.aqm.offered_pkts": stats.offered,
                "sim.aqm.aqm_drops": stats.aqm_drops,
                "sim.aqm.tail_drops": stats.tail_drops,
            }
        else:
            part = {
                "sim.link.offered_pkts": stats.offered,
                "sim.link.tail_drops": stats.tail_drops,
                "sim.link.max_backlog_bytes": stats.max_backlog_bytes,
            }
        merge_counts(counts, part)
    return counts


def check_run(
    result: RunResult,
    bottlenecks: list[list[int]],
    *,
    min_completed: float | None = None,
    need_virtual: bool = False,
) -> Report:
    """The output checks every simulated op shares.

    ``bottlenecks`` lists, per congested link, the indices of the flows
    that cross it: their summed goodput may not exceed the link rate
    (5% slack: goodput is counted at ACK arrival, and flows with
    different RTTs map one window onto slightly different link times).
    """
    network = result.dumbbell
    if network is None:
        raise CheckFailed("live run expected, got a cache rebuild")
    network.assert_conservation()
    mbps = result.throughputs_mbps()
    for index, spec in enumerate(result.specs):
        if spec.size_bytes is None and mbps[index] <= 0.0:
            raise CheckFailed(f"long flow {index} ({spec.protocol}) has zero throughput")
    capacity_mbps = result.config.bandwidth_mbps
    for members in bottlenecks:
        total = sum(mbps[i] for i in members)
        if total > 1.05 * capacity_mbps:
            raise CheckFailed(f"{total:.2f} Mbps through a {capacity_mbps:g} Mbps link")
    if min_completed is not None:
        sized = [s for s, spec in zip(result.stats, result.specs) if spec.size_bytes]
        done = sum(s.end_time is not None for s in sized)
        if done < min_completed * len(sized):
            raise CheckFailed(f"only {done}/{len(sized)} transfers completed")
    if need_virtual and network.sim.events_virtual == 0:
        raise CheckFailed("hybrid run fast-forwarded nothing (events_virtual == 0)")
    return Report(result.duration_s, harvest(result), stats_digest(result.stats))


# ----------------------------------------------------------------------
# 1-3: the two-flow reference scenario, three ways
# ----------------------------------------------------------------------
def _pair_specs(duration_s: float) -> list[FlowSpec]:
    # The scavenger joins at 1 s (sooner only in the short smoke runs).
    return [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=min(1.0, duration_s / 3.0))]


def _pair_call(seed: int, duration_s: float, fidelity: str) -> RunResult:
    return run_flows(
        _pair_specs(duration_s), EMULAB, duration_s=duration_s, seed=seed, fidelity=fidelity
    )


def prepare_pair(fidelity: str, seed: int, sizes: Sizes, tmp: Path, jobs: int) -> Prepared:
    disable_cache()
    n = sizes.pair_ops

    def check(result: RunResult) -> Report:
        return check_run(result, [[0, 1]], need_virtual=fidelity == "hybrid")

    ops = [
        Op(
            f"seed{seed + i}",
            partial(_pair_call, seed + i, sizes.pair_duration_s, fidelity),
            check,
        )
        for i in range(n)
    ]
    expected = {"run_flows": n, "Simulator.run": n, "Topology.add_flow": 2 * n}
    return Prepared(ops, lambda: expected)


def _traced_call(seed: int, duration_s: float) -> tuple[RunResult, CollectingTracer, str]:
    tracer = CollectingTracer()
    result = run_flows(
        _pair_specs(duration_s), EMULAB, duration_s=duration_s, seed=seed, fidelity="exact",
        tracer=tracer,
    )
    return result, tracer, tracer.digest()


def _traced_check(value: tuple[RunResult, CollectingTracer, str]) -> Report:
    result, tracer, digest = value
    report = check_run(result, [[0, 1]])
    kinds: dict[str, int] = {}
    for event in tracer.events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    if not kinds.get("mi.end") or not kinds.get("link.enqueue"):
        raise CheckFailed(f"trace is missing mi.end/link.enqueue events: {sorted(kinds)}")
    report.counts["obs.trace.events_emitted"] = len(tracer)
    report.counts["core.monitor.mi_end_events"] = kinds["mi.end"]
    report.counts["core.rate_control.decision_events"] = kinds.get("rate.decision", 0)
    report.digest = hashlib.sha256(f"{report.digest}:{digest}".encode()).hexdigest()
    return report


def prepare_pair_traced(seed: int, sizes: Sizes, tmp: Path, jobs: int) -> Prepared:
    disable_cache()
    n = sizes.traced_ops
    ops = [
        Op(f"seed{seed + i}", partial(_traced_call, seed + i, sizes.traced_duration_s),
           _traced_check)
        for i in range(n)
    ]
    expected = {
        "run_flows": n, "Simulator.run": n, "Topology.add_flow": 2 * n,
        "CollectingTracer.digest": n,
    }

    def untraced() -> None:
        for i in range(n):
            _pair_call(seed + i, sizes.traced_duration_s, "exact")

    return Prepared(ops, lambda: expected, reference=untraced)


# ----------------------------------------------------------------------
# 4: many short flows over the shared core
# ----------------------------------------------------------------------
N_SCAVENGERS = 4


def _many_call(seed: int, n_flows: int, duration_s: float) -> RunResult:
    return run_many(
        "cubic", "proteus-s", EMULAB,
        n_flows=n_flows, n_scavengers=N_SCAVENGERS, flow_kb=50, duration_s=duration_s,
        seed=seed, topology=TOPOLOGIES["shared-core"](), fidelity="exact",
    )


def prepare_many_flows(seed: int, sizes: Sizes, tmp: Path, jobs: int) -> Prepared:
    disable_cache()
    n = sizes.many_ops
    n_total = sizes.many_flows + N_SCAVENGERS

    def check(result: RunResult) -> Report:
        # Every flow crosses the core link, which runs at the access rate.
        return check_run(result, [list(range(n_total))], min_completed=0.99)

    ops = [
        Op(f"seed{seed + i}",
           partial(_many_call, seed + i, sizes.many_flows, sizes.many_duration_s), check)
        for i in range(n)
    ]
    expected = {"run_flows": n, "Simulator.run": n, "Topology.add_flow": n * n_total}
    return Prepared(ops, lambda: expected)


# ----------------------------------------------------------------------
# 5: CoDel parking lot (event-based DynamicLink hops)
# ----------------------------------------------------------------------
def _aqm_specs(duration_s: float) -> list[FlowSpec]:
    # The issue's 30 s scenario starts flows at 1, 2, 3 and 4 s; starts
    # shrink with the duration so the ramp-up share stays the same.
    step_s = duration_s / 30.0
    return [
        FlowSpec("cubic"),
        FlowSpec("proteus-s", start_time=1.0 * step_s),
        FlowSpec("cubic", start_time=2.0 * step_s, route=("n0", "n1")),
        FlowSpec("cubic", start_time=3.0 * step_s, route=("n1", "n2")),
        FlowSpec("bbr", start_time=4.0 * step_s, route=("n2", "n3")),
    ]


def _aqm_call(seed: int, duration_s: float) -> RunResult:
    return run_flows(
        _aqm_specs(duration_s), EMULAB, duration_s=duration_s, seed=seed,
        topology=TOPOLOGIES["parking-lot-codel"](), fidelity="exact",
    )


def _aqm_check(result: RunResult) -> Report:
    # Hop i carries the two long flows plus its own cross flow.
    report = check_run(result, [[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    if report.counts.get("sim.aqm.aqm_drops", 0) == 0:
        raise CheckFailed("CoDel never dropped: the AQM path was not exercised")
    return report


def prepare_aqm_parking_lot(seed: int, sizes: Sizes, tmp: Path, jobs: int) -> Prepared:
    disable_cache()
    n = sizes.aqm_ops
    ops = [
        Op(f"seed{seed + i}", partial(_aqm_call, seed + i, sizes.aqm_duration_s), _aqm_check)
        for i in range(n)
    ]
    expected = {"run_flows": n, "Simulator.run": n, "Topology.add_flow": 5 * n}
    return Prepared(ops, lambda: expected)


# ----------------------------------------------------------------------
# 6: a cached parameter sweep through the pool
# ----------------------------------------------------------------------
def sweep_trial(item: tuple[float, float, int, float]) -> dict:
    """One sweep cell x seed; module-level so the pool can pickle it."""
    bandwidth_mbps, rtt_ms, seed, duration_s = item
    config = LinkConfig(
        bandwidth_mbps=bandwidth_mbps, rtt_ms=rtt_ms, buffer_kb=1.0
    ).with_buffer_bdp(1.5)
    result = run_flows(
        [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=duration_s / 6.0)],
        config, duration_s=duration_s, seed=seed, fidelity="exact",
    )
    live = result.dumbbell is not None
    if live:
        result.dumbbell.assert_conservation()
    return {
        "mbps": [float(v).hex() for v in result.throughputs_mbps()],
        "capacity_mbps": bandwidth_mbps,
        "hit": not live,
        "counts": harvest(result),
    }


def _sweep_pass(items: list, jobs: int, n_seeds: int) -> list[dict]:
    values = pmap(sweep_trial, items, jobs=jobs)
    # A sweep reports each cell as a bootstrap summary over its seeds.
    for start in range(0, len(values), n_seeds):
        cell = values[start:start + n_seeds]
        summarize([float.fromhex(v["mbps"][0]) for v in cell])
    return values


def prepare_sweep_harness(seed: int, sizes: Sizes, tmp: Path, jobs: int) -> Prepared:
    cache_root = tmp / "cache"
    cache = enable_cache(cache_root)
    n_seeds = sizes.sweep_seeds
    items = [
        (bandwidth_mbps, rtt_ms, seed + i, sizes.sweep_duration_s)
        for bandwidth_mbps in SWEEP_BANDWIDTHS_MBPS
        for rtt_ms in SWEEP_RTTS_MS
        for i in range(n_seeds)
    ]
    n = len(items)
    passes = 1 + sizes.sweep_warm_passes
    cold: list[dict] = []

    def check(values: list[dict]) -> Report:
        is_cold = not cold
        if is_cold:
            cold.extend(values)
        _sweep_check(values, cold, is_cold, cache, jobs, cache_root)
        counts: dict[str, float] = {}
        for value in values:
            merge_counts(counts, value["counts"])
        hits = sum(v["hit"] for v in values)
        counts["harness.cache.hits"] = hits
        counts["harness.cache.misses"] = n - hits
        counts["harness.cache.stores"] = n - hits
        if is_cold:
            stored = sum(f.stat().st_size for f in cache_root.rglob("*.json"))
            counts["harness.cache.entry_kb"] = stored / n / 1024.0
        digest = hashlib.sha256(repr([v["mbps"] for v in values]).encode()).hexdigest()
        return Report(n * sizes.sweep_duration_s, counts, digest)

    ops = [
        Op("cold" if index == 0 else f"warm{index}", partial(_sweep_pass, items, jobs, n_seeds),
           check)
        for index in range(passes)
    ]
    expected = {
        "ParallelExecutor.map": passes,
        "run_flows": n * passes,
        "payload_key": n * passes,
        "ResultCache.load_run": n * passes,
        "ResultCache.store_run": n,
        "Simulator.run": n,
        "Topology.add_flow": 2 * n,
        "trials.summarize": 9 * passes,
    }
    return Prepared(ops, lambda: expected, op_is_pass=True)


def _sweep_check(
    values: list[dict], cold: list[dict], is_cold: bool, cache: ResultCache, jobs: int,
    cache_root: Path,
) -> None:
    n = len(values)
    hits = sum(v["hit"] for v in values)
    if is_cold:
        if hits:
            raise CheckFailed(f"cold pass into an empty cache had {hits} hits")
        entries = sum(1 for _ in cache_root.rglob("*.json"))
        if entries != n:
            raise CheckFailed(f"cold pass stored {entries} entries for {n} trials")
        pool = resource.getrusage(resource.RUSAGE_CHILDREN)
        if jobs > 1 and pool.ru_utime + pool.ru_stime <= 0.0:
            raise CheckFailed("no child CPU time: pmap fell back to serial")
    else:
        if hits != n:
            raise CheckFailed(f"warm pass had {hits} hits, expected {n}")
        if [v["mbps"] for v in values] != [v["mbps"] for v in cold]:
            raise CheckFailed("a warm value differs from its cold value")
    for value in values:
        mbps = [float.fromhex(v) for v in value["mbps"]]
        if min(mbps) <= 0.0:
            raise CheckFailed(f"zero-throughput flow in a sweep trial: {mbps}")
        if sum(mbps) > 1.05 * value["capacity_mbps"]:
            raise CheckFailed(f"{sum(mbps):.2f} Mbps through {value['capacity_mbps']:g} Mbps")
    if jobs == 1:
        # In-process passes also show in the cache's own counters.
        stats = cache.stats()
        if stats["misses"] != n or stats["stores"] != n or stats["quarantined"]:
            raise CheckFailed(f"cache counters off after a pass: {stats}")


# ----------------------------------------------------------------------
# 7: an adversarial search campaign (supervised pool + manifest)
# ----------------------------------------------------------------------
def prepare_attack_campaign(seed: int, sizes: Sizes, tmp: Path, jobs: int) -> Prepared:
    disable_cache()
    config = CampaignConfig(
        "primary_harm",
        budget=sizes.campaign_budget,
        generation_size=sizes.campaign_generation,
        duration_s=sizes.campaign_duration_s,
        seed=CAMPAIGN_SEEDS[seed % len(CAMPAIGN_SEEDS)],
    )
    out_dir = tmp / "campaign"
    done: list = []

    def call():
        return run_campaign(config, out_dir, jobs=1, shrink=False)

    def check(result) -> Report:
        done.append(result)
        return _campaign_check(result, config, out_dir)

    def expected() -> dict[str, int]:
        fresh = [e for e in done[0].evaluated if not e.outcome.resumed]
        generations = -(-config.budget // config.generation_size)
        # primary_harm simulates each genome twice: with and without
        # the controller flow (1 primary + cross traffic [+ controller]).
        flows = sum(2 * (1 + len(e.genome.traffic)) + 1 for e in fresh)
        return {
            "run_campaign": 1,
            "supervised_map": generations,
            "payload_key": config.budget,
            "SweepManifest.append": len(fresh),
            "run_flows": 2 * len(fresh),
            "Simulator.run": 2 * len(fresh),
            "Topology.add_flow": flows,
        }

    return Prepared([Op("campaign", call, check)], expected)


def _campaign_check(result, config: CampaignConfig, out_dir: Path) -> Report:
    if len(result.evaluated) != config.budget:
        raise CheckFailed(f"{len(result.evaluated)} evaluations for budget {config.budget}")
    bad = [e for e in result.evaluated if not e.outcome.ok]
    if bad:
        raise CheckFailed(f"{len(bad)} non-ok outcomes, first: {bad[0].outcome.error}")
    manifest = (out_dir / "manifest.jsonl").read_bytes()
    fresh = [e for e in result.evaluated if not e.outcome.resumed]
    counts = {
        "adversary.evals": len(result.evaluated),
        "harness.supervise.manifest_records": manifest.count(b"\n"),
        "harness.supervise.retried": sum(e.outcome.attempts - 1 for e in fresh),
        "harness.supervise.not_ok": len(bad),
    }
    if counts["harness.supervise.manifest_records"] != len(fresh):
        raise CheckFailed("manifest lines do not match the fresh evaluations")
    sim_s = 2 * config.duration_s * len(fresh)
    return Report(sim_s, counts, hashlib.sha256(manifest).hexdigest())


# ----------------------------------------------------------------------
WORKLOADS: dict[str, Callable[[int, Sizes, Path, int], Prepared]] = {
    "pair_exact": partial(prepare_pair, "exact"),
    "pair_hybrid": partial(prepare_pair, "hybrid"),
    "pair_traced": prepare_pair_traced,
    "many_flows": prepare_many_flows,
    "aqm_parking_lot": prepare_aqm_parking_lot,
    "sweep_harness": prepare_sweep_harness,
    "attack_campaign": prepare_attack_campaign,
}
