"""Experiment execution: build a topology, run flows, collect metrics.

This is the Pantheon stand-in: a declarative flow list goes in, per-flow
stats and scenario-level summaries come out.  Every run is deterministic
given its seed.

**Public API conventions** (see ``docs/API.md``): every ``run_*`` entry
point takes its scenario arguments positionally (the flow specs /
protocol names and the :class:`~repro.harness.scenarios.LinkConfig`) and
everything else — duration, seed, timeline, tracer, metrics registry —
as keyword-only arguments.

**Observability** (see ``docs/OBSERVABILITY.md``): pass
``tracer=``/``metrics=`` (or install a process-global tracer with
:func:`repro.obs.install_tracer`) to capture trace events and a metrics
snapshot from the run.  Every result satisfies the
:class:`~repro.harness.results.Result` protocol — ``summary()``,
``to_dict()``, and a ``metrics`` snapshot in the canonical registry
shape.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import asdict, dataclass, field, replace

from ..obs import MetricsRegistry, PeriodicSampler
from ..obs.trace import as_sink
from ..protocols import make_sender
from ..sim import (
    Fidelity,
    FlowStats,
    LinkEvent,
    Rng,
    Simulator,
    TimelineDriver,
    Topology,
    activate_fastforward,
    make_rng,
    resolve_fidelity,
)
from ..sim.trace import sorted_percentile
from .cache import NotCached, active_cache
from .parallel import ParallelExecutor
from .scenarios import (
    TOPOLOGIES,
    LinkConfig,
    Timeline,
    TopologySpec,
    timeline_from_dict,
    topology_from_dict,
)

DEFAULT_WARMUP_FRACTION = 0.35

_SCALE: float | None = None


def scale() -> float:
    """Global duration multiplier (env ``REPRO_SCALE``, default 1).

    Benchmarks use scaled-down durations; set ``REPRO_SCALE=4`` or more to
    approach paper-scale runs.  The environment variable is parsed once
    per process (the harness calls this on every scenario point); tests
    that mutate ``REPRO_SCALE`` must call :func:`reset_scale_cache`.
    """
    global _SCALE
    if _SCALE is None:
        _SCALE = float(os.environ.get("REPRO_SCALE", "1"))
    return _SCALE


def reset_scale_cache() -> None:
    """Re-read ``REPRO_SCALE`` on the next :func:`scale` call (test hook)."""
    global _SCALE
    _SCALE = None


@dataclass
class FlowSpec:
    """Declarative description of one flow in an experiment.

    ``route`` places the flow between two named topology nodes (e.g.
    ``("n1", "n2")`` for parking-lot cross traffic).  ``None`` uses the
    topology's default endpoints for the flow's index.  The classic
    dumbbell has one route, ``("src", "dst")``; any other raises
    :class:`~repro.sim.topology.TopologyError`.  ``kwargs`` go to the
    protocol constructor and must be JSON values for :meth:`to_dict`.
    """

    protocol: str
    start_time: float = 0.0
    size_bytes: int | None = None
    kwargs: dict = field(default_factory=dict)
    route: tuple[str, str] | None = None

    def to_dict(self) -> dict:
        """Plain JSON; :meth:`from_dict` is its exact inverse."""
        return {
            "protocol": self.protocol,
            "start_time": float(self.start_time),
            "size_bytes": self.size_bytes,
            "kwargs": dict(self.kwargs),
            "route": None if self.route is None else list(self.route),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FlowSpec":
        route = data.get("route")
        return cls(
            str(data["protocol"]), float(data.get("start_time", 0.0)),
            data.get("size_bytes"), dict(data.get("kwargs", {})),
            None if route is None else tuple(route),
        )


@dataclass(frozen=True)
class RunSpec:
    """One run: everything that decides its outcome, as data.

    What observes or bounds a run (tracer, metrics, budgets) is not
    part of it.  The result cache key is ``payload_key(spec.to_dict())``;
    ``fidelity`` is a mode name.  ValueError when there is no flow or a
    flow does not start before the end: the measurement window opens
    after the last start.
    """

    flows: tuple[FlowSpec, ...]
    config: LinkConfig
    duration_s: float = 30.0
    seed: int = 1
    timeline: Timeline | None = None
    topology: TopologySpec | None = None
    fidelity: str = "exact"

    def __post_init__(self) -> None:
        object.__setattr__(self, "flows", tuple(self.flows))
        if not self.flows:
            raise ValueError("need at least one flow")
        for index, flow in enumerate(self.flows):
            if flow.start_time >= self.duration_s:
                raise ValueError(
                    f"flow {index} ({flow.protocol}) starts at {flow.start_time:g} s, "
                    f"not before the end of the run (duration {self.duration_s:g} s)"
                )
        Fidelity(self.fidelity)  # rejects an unknown mode

    def to_dict(self) -> dict:
        """Plain JSON whose floats round-trip exactly; see :meth:`from_dict`."""
        return {
            "kind": "run",
            "flows": [flow.to_dict() for flow in self.flows],
            "config": self.config.to_dict(),
            "duration_s": float(self.duration_s),
            "seed": self.seed,
            "timeline": None if self.timeline is None else self.timeline.to_dict(),
            "topology": None if self.topology is None else self.topology.to_dict(),
            "fidelity": self.fidelity,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        if data.get("kind") != "run":
            raise ValueError(f"not a run document (kind={data.get('kind')!r})")
        timeline, topology = data["timeline"], data["topology"]
        return cls(
            tuple(FlowSpec.from_dict(flow) for flow in data["flows"]),
            LinkConfig(**data["config"]), float(data["duration_s"]), int(data["seed"]),
            None if timeline is None else timeline_from_dict(timeline),
            None if topology is None else topology_from_dict(topology),
            str(data["fidelity"]),
        )


@dataclass
class RunResult:
    """Outcome of one experiment run.

    ``dumbbell`` holds the finished network — the
    :class:`~repro.sim.topology.Topology` built from the run's
    ``topology`` spec (a :class:`~repro.sim.topology.Dumbbell` for the
    default ``None``; the field keeps its historical name).  The run
    closed it (:meth:`~repro.sim.topology.Topology.close`): its links,
    their stats and the simulator's counters read as the run left
    them, but it has no pending events and cannot be resumed.  It is
    None when the result was rebuilt from the on-disk cache (the
    topology is not serialised, only the measurement record — every
    metric below derives from ``stats`` alone).
    """

    config: LinkConfig
    duration_s: float
    stats: list[FlowStats]
    dumbbell: Topology | None
    specs: list[FlowSpec]
    timeline: Timeline | None = None
    # The declarative topology spec the run was built from (None for the
    # classic single-bottleneck dumbbell); pure data, so it survives
    # cache rebuilds exactly like the timeline.
    topology: TopologySpec | None = None
    # Link events actually applied during the run, in firing order — the
    # per-link dynamics telemetry.  Cache rebuilds recompute it from the
    # timeline (event times are pure data, so the rebuild is exact).
    link_events: list[LinkEvent] = field(default_factory=list)
    # Canonical metrics snapshot captured right after the run (and stored
    # with the cache record, so warm hits return the identical snapshot
    # including link-level counters the rebuilt result cannot recompute).
    metrics_snapshot: dict | None = None

    def measurement_window(self) -> tuple[float, float]:
        """Post-warmup window: after the last flow started plus ramp-up."""
        return _measurement_window(self.specs, self.duration_s)

    def throughput_mbps(self, index: int, window: tuple[float, float] | None = None) -> float:
        t0, t1 = window if window is not None else self.measurement_window()
        return self.stats[index].throughput_bps(t0, t1) / 1e6

    def throughputs_mbps(self, window: tuple[float, float] | None = None) -> list[float]:
        return [self.throughput_mbps(i, window) for i in range(len(self.stats))]

    def utilization(self, window: tuple[float, float] | None = None) -> float:
        return sum(self.throughputs_mbps(window)) / self.config.bandwidth_mbps

    # -- Result protocol ----------------------------------------------
    def summary(self) -> dict:
        """Per-flow aggregates plus scenario config (JSON-safe)."""
        from .export import run_result_summary

        return run_result_summary(self)

    def to_dict(self) -> dict:
        """Full serialisable record: ``kind`` + summary + metrics."""
        return {"kind": "run", **self.summary(), "metrics": self.metrics}

    @property
    def metrics(self) -> dict:
        """Canonical metrics snapshot (computed lazily when not captured).

        The lazy fallback only covers per-flow series — a cache-rebuilt
        result has no live links to read counters from — so runs that
        want link metrics rely on the snapshot captured at run time.
        """
        if self.metrics_snapshot is None:
            registry = MetricsRegistry()
            collect_run_metrics(self, registry)
            self.metrics_snapshot = registry.snapshot()
        return self.metrics_snapshot


def _measurement_window(flows, duration_s: float) -> tuple[float, float]:
    last_start = max(flow.start_time for flow in flows)
    return last_start + DEFAULT_WARMUP_FRACTION * (duration_s - last_start), duration_s


def collect_run_metrics(result: RunResult, registry: MetricsRegistry) -> dict:
    """Populate ``registry`` from a finished run; returns its snapshot.

    Per-flow counters and gauges are labelled ``flow=<id>,
    protocol=<name>``; link counters (only available while the live
    topology still exists) are labelled ``link=<name>``.
    """
    window = result.measurement_window()
    for i, stats in enumerate(result.stats):
        labels = {"flow": stats.flow_id, "protocol": result.specs[i].protocol}
        registry.counter("flow.packets_sent", **labels).inc(stats.packets_sent)
        registry.counter("flow.losses", **labels).inc(stats.loss_count())
        registry.counter("flow.delivered_bytes", **labels).inc(stats.delivered_bytes)
        registry.gauge("flow.throughput_mbps", **labels).set(
            result.throughput_mbps(i, window)
        )
        rtts = stats.sorted_rtts(*window)
        if rtts:
            registry.gauge("flow.min_rtt_s", **labels).set(rtts[0])
            registry.gauge("flow.p95_rtt_s", **labels).set(sorted_percentile(rtts, 95))
    network = result.dumbbell
    if network is not None:
        # Every shared link of the topology graph, in insertion order
        # (for the classic dumbbell: bottleneck, then reverse).
        for link in network.iter_links():
            stats = link.stats
            registry.counter("link.offered", link=link.name).inc(stats.offered)
            registry.counter("link.delivered", link=link.name).inc(stats.delivered)
            registry.counter("link.tail_drops", link=link.name).inc(stats.tail_drops)
            registry.counter("link.aqm_drops", link=link.name).inc(stats.aqm_drops)
            registry.counter("link.random_losses", link=link.name).inc(
                stats.random_losses
            )
            registry.counter("link.outage_drops", link=link.name).inc(
                stats.outage_drops
            )
            registry.gauge("link.max_backlog_bytes", link=link.name).set(
                stats.max_backlog_bytes
            )
    registry.gauge("run.utilization").set(result.utilization(window))
    return registry.snapshot()


def _applied_events(timeline: Timeline, duration_s: float) -> list[LinkEvent]:
    """The events a live run would have applied by ``duration_s``.

    :class:`TimelineDriver` fires events in (time, schedule order), which
    is exactly the sorted order :meth:`Timeline.resolve` returns, so a
    cache rebuild reproduces the live ``applied`` log without simulating.
    """
    return [e for e in timeline.resolve() if e.time_s <= duration_s]


def run_flows(
    specs: list[FlowSpec],
    config: LinkConfig,
    *,
    duration_s: float = 30.0,
    seed: int = 1,
    timeline: Timeline | None = None,
    tracer=None,
    metrics: MetricsRegistry | None = None,
    sample_period_s: float | None = None,
    max_events: int | None = None,
    max_wall_s: float | None = None,
    fidelity: Fidelity | str | None = None,
    topology: TopologySpec | None = None,
) -> RunResult:
    """Run ``specs`` over a topology built from ``config``.

    All arguments after ``config`` are keyword-only.  ``duration_s``
    defaults to 30 simulated seconds; every flow must start before it
    (``ValueError`` otherwise, raised before anything is built).

    ``topology`` is a declarative graph (see
    :class:`~repro.harness.scenarios.TopologySpec`): parking-lot chains
    with per-hop AQM, shared-core multi-dumbbells, or an AQM-equipped
    dumbbell.  ``None`` is the classic single-bottleneck ``dumbbell``
    preset.  ``config`` supplies per-hop bandwidth, delay and buffer;
    each ``FlowSpec.route`` may pin a flow between two named nodes.  The
    spec is pure data and *is* part of the cache key (``None`` hashes as
    itself, not as the preset it builds).

    ``timeline`` scripts mid-run link dynamics (bandwidth steps/flaps,
    delay shifts, outages, burst loss — see
    :mod:`repro.harness.scenarios`); its events are applied to the live
    dumbbell links while the simulation runs.

    ``tracer`` receives every trace event the run emits (defaults to the
    process-global tracer from :func:`repro.obs.install_tracer`, i.e.
    none).  ``metrics`` is a caller-owned
    :class:`~repro.obs.MetricsRegistry` populated with the run's
    counters/gauges; ``sample_period_s`` additionally samples the
    bottleneck backlog into it every so many *simulated* seconds.

    ``max_events`` / ``max_wall_s`` are watchdog budgets handed straight
    to :meth:`Simulator.run` (``max_events`` also honours
    ``REPRO_MAX_EVENTS``): a livelocked or runaway run raises
    :class:`~repro.sim.engine.SimBudgetExceeded` instead of hanging —
    the supervised harness (:mod:`repro.harness.supervise`) records it
    as a ``timed-out`` trial.  Budgets never enter the cache key: they
    bound *how long* a run may take, not what it computes.

    ``fidelity`` selects the execution-fidelity mode (see
    :mod:`repro.sim.fidelity`): ``"exact"`` (the default), ``"hybrid"``,
    or a :class:`~repro.sim.Fidelity` instance.  ``None`` consults the
    ``REPRO_FIDELITY`` environment variable, so whole suites can switch
    without touching call sites.  Fidelity *is* part of the cache key.

    When a result cache is active (``REPRO_CACHE=1`` or
    :func:`repro.harness.cache.enable_cache`), a previously-computed run
    with the same specs, config, seed, timeline and simulator source is
    rebuilt from disk instead of re-simulated; the round-trip is
    byte-identical (see :mod:`repro.harness.cache`), including the
    metrics snapshot.  A run with a tracer or a caller registry attached
    always simulates live (observation needs the events), though its
    result is still stored for later unobserved calls.  While the cache
    is replay-only, a run that would simulate live raises
    :class:`~repro.harness.cache.NotCached` instead.
    """
    spec = RunSpec(
        specs, config, duration_s, seed, timeline, topology,
        resolve_fidelity(fidelity).mode,
    )
    tracer = as_sink(tracer)
    observing = tracer is not None or metrics is not None or sample_period_s is not None
    cache = active_cache()
    key = None
    if cache is not None:
        key = cache.key_for(spec.to_dict())
        if not observing:
            cached = cache.load_run(key)
            if cached is not None:
                cached_stats, snapshot = cached
                events = [] if timeline is None else _applied_events(timeline, duration_s)
                return RunResult(
                    config, duration_s, cached_stats, None, list(spec.flows),
                    timeline=timeline, topology=topology, link_events=events,
                    metrics_snapshot=snapshot,
                )
        if cache.replay_only:
            raise NotCached(key)
    result = _run_flows_live(
        spec, tracer=tracer, metrics=metrics, sample_period_s=sample_period_s,
        max_events=max_events, max_wall_s=max_wall_s,
    )
    # Periodic samples depend on sample_period_s, which is not part of
    # the cache key — never store a snapshot that a later call with a
    # different period would wrongly inherit.
    if cache is not None and key is not None and sample_period_s is None:
        cache.store_run(key, result.stats, metrics=result.metrics_snapshot)
    return result


def run(
    spec: RunSpec,
    *,
    tracer=None,
    metrics: MetricsRegistry | None = None,
    sample_period_s: float | None = None,
    max_events: int | None = None,
    max_wall_s: float | None = None,
) -> RunResult:
    """Run ``spec`` through :func:`run_flows` (cache included); the
    keywords mean what they mean there."""
    return run_flows(
        spec.flows, spec.config, duration_s=spec.duration_s, seed=spec.seed,
        timeline=spec.timeline, tracer=tracer, metrics=metrics,
        sample_period_s=sample_period_s, max_events=max_events,
        max_wall_s=max_wall_s, fidelity=spec.fidelity, topology=spec.topology,
    )


def _run_flows_live(
    spec: RunSpec,
    *,
    tracer=None,
    metrics: MetricsRegistry | None = None,
    sample_period_s: float | None = None,
    max_events: int | None = None,
    max_wall_s: float | None = None,
) -> RunResult:
    seed, timeline = spec.seed, spec.timeline
    sim = Simulator(tracer=tracer, fidelity=resolve_fidelity(spec.fidelity))
    network = (spec.topology or TopologySpec(preset="dumbbell")).build(
        sim, spec.config, make_rng(seed)
    )
    driver = None
    if timeline is not None:
        # Timeline events address links by registered name — for the
        # classic dumbbell that is still {"bottleneck", "reverse"}.
        driver = TimelineDriver(sim, dict(network.links), timeline.resolve())
    sampler_registry = metrics
    if sample_period_s is not None:
        if sampler_registry is None:
            sampler_registry = MetricsRegistry()
        monitor = network.monitor
        backlog_hist = sampler_registry.histogram(
            "link.backlog_bytes", link=monitor.name
        )
        PeriodicSampler(
            sim,
            sample_period_s,
            lambda _now: backlog_hist.observe(monitor.backlog_bytes()),
        )
    flows = [
        network.add_flow(
            make_sender(flow_spec.protocol, seed=seed * 1000 + i, **flow_spec.kwargs),
            *(flow_spec.route or ()),
            flow_id=i + 1,
            size_bytes=flow_spec.size_bytes,
            start_time=flow_spec.start_time,
        )
        for i, flow_spec in enumerate(spec.flows)
    ]
    stats: list[FlowStats] = [flow.stats for flow in flows]
    # With the whole flow set known, mark what may skip the event chain
    # (both modes; exact mode under stricter rules).  A sampled link's
    # queue is read mid-run, so no walk may run ahead of its clock.
    observed = (network.monitor,) if sample_period_s is not None else ()
    activate_fastforward(sim, flows, observed)
    # Held weakly through the run, so a completed flow frees itself.
    flows = [weakref.ref(flow) for flow in flows]
    try:
        sim.run(until=spec.duration_s, max_events=max_events, max_wall_s=max_wall_s)
    finally:
        # This run owns its network, so it ends its life here (a tripped
        # watchdog too): reference counting alone then frees it.
        network.close()
        for ref in flows:
            flow = ref()
            if flow is not None:
                flow.release()
    link_events = list(driver.applied) if driver is not None else []
    result = RunResult(
        spec.config, spec.duration_s, stats, network, list(spec.flows),
        timeline=timeline, topology=spec.topology, link_events=link_events,
    )
    # Snapshot from a fresh registry so the stored record reflects only
    # this run; the caller's registry (which may span several runs) is
    # populated separately.
    internal = MetricsRegistry()
    result.metrics_snapshot = collect_run_metrics(result, internal)
    if metrics is not None:
        collect_run_metrics(result, metrics)
    if sampler_registry is not None and sampler_registry is not metrics:
        # Samples landed in an internal registry (sampling without a
        # caller registry): merge them into the result's snapshot view.
        sampled = sampler_registry.snapshot()
        result.metrics_snapshot["histograms"].update(sampled["histograms"])
    return result


# ----------------------------------------------------------------------
# Paper-shaped experiment helpers
# ----------------------------------------------------------------------
def run_single(
    protocol: str,
    config: LinkConfig,
    *,
    duration_s: float = 30.0,
    seed: int = 1,
    timeline: Timeline | None = None,
    tracer=None,
    metrics: MetricsRegistry | None = None,
    fidelity: Fidelity | str | None = None,
    topology: TopologySpec | None = None,
    **kwargs,
) -> RunResult:
    """One flow alone on the bottleneck (Figs 3, 4, 9).

    Extra keyword arguments are forwarded to the protocol constructor.
    """
    return run_flows(
        [FlowSpec(protocol, kwargs=kwargs)],
        config,
        duration_s=duration_s,
        seed=seed,
        timeline=timeline,
        tracer=tracer,
        metrics=metrics,
        fidelity=fidelity,
        topology=topology,
    )


@dataclass
class PairResult:
    """Two-flow scavenger-vs-primary outcome (Figs 6-8, 10, 19-22)."""

    primary_solo_mbps: float
    primary_with_scavenger_mbps: float
    scavenger_mbps: float
    primary_throughput_ratio: float
    utilization: float
    primary_rtt_ratio_95th: float

    # -- Result protocol ----------------------------------------------
    def summary(self) -> dict:
        return asdict(self)

    def to_dict(self) -> dict:
        return {"kind": "pair", **self.summary(), "metrics": self.metrics}

    @property
    def metrics(self) -> dict:
        from .results import synthesize_snapshot

        return synthesize_snapshot(
            gauges={
                "pair.primary_solo_mbps": self.primary_solo_mbps,
                "pair.primary_with_scavenger_mbps": self.primary_with_scavenger_mbps,
                "pair.scavenger_mbps": self.scavenger_mbps,
                "pair.primary_throughput_ratio": self.primary_throughput_ratio,
                "pair.utilization": self.utilization,
                "pair.primary_rtt_ratio_95th": self.primary_rtt_ratio_95th,
            }
        )


def _window_metrics(
    spec: RunSpec, window: tuple[float, float], tracer=None
) -> tuple[list[float], float, float]:
    """Per-flow throughputs, utilization and flow 0's 95th-percentile RTT
    of ``spec``'s run, all over ``window``."""
    result = run(spec, tracer=tracer)
    return (
        result.throughputs_mbps(window),
        result.utilization(window),
        result.stats[0].rtt_percentile(95, *window),
    )


def run_pair(
    primary: str,
    scavenger: str,
    config: LinkConfig,
    *,
    duration_s: float = 30.0,
    scavenger_start_s: float | None = None,
    seed: int = 1,
    jobs: int | None = None,
    timeline: Timeline | None = None,
    tracer=None,
    metrics: MetricsRegistry | None = None,
    fidelity: Fidelity | str | None = None,
    topology: TopologySpec | None = None,
) -> PairResult:
    """Primary flow joined by a scavenger; compares against the solo run.

    The paper's metrics: primary throughput ratio (paired throughput over
    solo throughput), joint capacity utilization, and the 95th-percentile
    RTT ratio of the primary with vs without the scavenger (Fig 7).

    The solo baseline and the paired run are independent simulations, so
    they are dispatched concurrently when ``jobs``/``REPRO_JOBS`` allows;
    with the result cache active the solo baseline — identical across
    every scavenger sweep point — is computed once and reused, and a
    warm pair starts no pool: both runs are read from the cache in this
    process (see :mod:`repro.harness.parallel`).  With a tracer attached
    both runs execute serially in-process instead, so every event
    reaches the caller's tracer (worker processes cannot stream into
    it).
    """
    tracer = as_sink(tracer)
    if scavenger_start_s is None:
        scavenger_start_s = min(5.0, duration_s / 6.0)
    pair = RunSpec(
        (FlowSpec(primary), FlowSpec(scavenger, start_time=scavenger_start_s)),
        config, duration_s, seed, timeline, topology,
        resolve_fidelity(fidelity).mode,
    )
    # The paired run's measurement window depends only on the flow start
    # times, so it is known up front and both runs can be dispatched
    # together.
    window = _measurement_window(pair.flows, duration_s)
    # The solo baseline is the paired run's first flow alone: the same
    # spec, hence the same cache key, as run_single(primary, ...).
    calls = [
        (_window_metrics, (replace(pair, flows=pair.flows[:1]), window, tracer)),
        (_window_metrics, (pair, window, tracer)),
    ]
    # A tracer pins both runs to this process (jobs=1 is the exact
    # serial path): workers cannot stream into it.
    solo, paired = ParallelExecutor(jobs if tracer is None else 1).run_all(calls)
    (solo_mbps,), _, solo_rtt = solo
    (with_scavenger, scavenger_mbps), util, paired_rtt = paired
    ratio = with_scavenger / solo_mbps if solo_mbps > 0 else 0.0
    result = PairResult(
        primary_solo_mbps=solo_mbps,
        primary_with_scavenger_mbps=with_scavenger,
        scavenger_mbps=scavenger_mbps,
        primary_throughput_ratio=ratio,
        utilization=util,
        primary_rtt_ratio_95th=paired_rtt / solo_rtt,
    )
    if metrics is not None:
        for name, value in result.metrics["gauges"].items():
            metrics.gauge(name, primary=primary, scavenger=scavenger).set(value)
    return result


@dataclass
class StreamingResult:
    """Per-session QoE metrics from a streaming experiment."""

    video_name: str
    average_bitrate_mbps: float
    rebuffer_ratio: float
    chunks_delivered: int
    startup_delay_s: float | None

    # -- Result protocol ----------------------------------------------
    def summary(self) -> dict:
        return asdict(self)

    def to_dict(self) -> dict:
        return {"kind": "streaming", **self.summary(), "metrics": self.metrics}

    @property
    def metrics(self) -> dict:
        from .results import synthesize_snapshot

        return synthesize_snapshot(
            gauges={
                "streaming.average_bitrate_mbps": self.average_bitrate_mbps,
                "streaming.rebuffer_ratio": self.rebuffer_ratio,
                "streaming.startup_delay_s": self.startup_delay_s,
            },
            counters={"streaming.chunks_delivered": self.chunks_delivered},
        )


def run_streaming(
    videos,
    protocol: str,
    config: LinkConfig,
    *,
    duration_s: float = 60.0,
    forced_level: int | None = None,
    background: list[FlowSpec] | None = None,
    seed: int = 1,
    tracer=None,
) -> list[StreamingResult]:
    """Stream ``videos`` concurrently over ``protocol`` (Figs 11a, 12, 13).

    Each video gets its own chunked flow and
    :class:`~repro.apps.streaming.StreamingSession`; optional background
    flows (e.g. a scavenger) share the bottleneck.
    """
    from ..apps.streaming import StreamingSession

    tracer = as_sink(tracer)
    sim = Simulator(tracer=tracer)
    dumbbell = TopologySpec(preset="dumbbell").build(sim, config, make_rng(seed))
    sessions = []
    flows = []
    for i, video in enumerate(videos):
        sender = make_sender(protocol, seed=seed * 100 + i)
        flow = dumbbell.add_flow(sender, flow_id=i + 1, chunked=True)
        flows.append(flow)
        level = forced_level
        if level is not None and level < 0:
            level = len(video.bitrates_bps) + level
        sessions.append(StreamingSession(sim, flow, video, forced_level=level))
    for j, spec in enumerate(background or ()):
        sender = make_sender(spec.protocol, seed=seed * 100 + 50 + j, **spec.kwargs)
        flows.append(
            dumbbell.add_flow(
                sender,
                *(spec.route or ()),
                flow_id=100 + j,
                size_bytes=spec.size_bytes,
                start_time=spec.start_time,
            )
        )
    try:
        sim.run(until=duration_s)
    finally:
        # As in run_flows: the finished network frees itself by reference
        # counting, and no flow keeps its session through on_delivery.
        dumbbell.close()
        for flow in flows:
            flow.on_delivery = None
            flow.release()
    return [
        StreamingResult(
            video_name=s.video.name,
            average_bitrate_mbps=s.average_bitrate_bps() / 1e6,
            rebuffer_ratio=s.rebuffer_ratio(),
            chunks_delivered=len(s.chunks),
            startup_delay_s=s.playback.startup_delay_s,
        )
        for s in sessions
    ]


def run_homogeneous(
    protocol: str,
    n_flows: int,
    config: LinkConfig,
    *,
    stagger_s: float = 5.0,
    measure_s: float = 30.0,
    seed: int = 1,
    timeline: Timeline | None = None,
    tracer=None,
    metrics: MetricsRegistry | None = None,
    fidelity: Fidelity | str | None = None,
    topology: TopologySpec | None = None,
) -> RunResult:
    """``n`` same-protocol flows with staggered starts (Figs 5, 17, 18)."""
    if n_flows < 1:
        raise ValueError("n_flows must be positive")
    specs = [
        FlowSpec(protocol, start_time=i * stagger_s) for i in range(n_flows)
    ]
    duration = (n_flows - 1) * stagger_s + measure_s
    return run_flows(
        specs,
        config,
        duration_s=duration,
        seed=seed,
        timeline=timeline,
        tracer=tracer,
        metrics=metrics,
        fidelity=fidelity,
        topology=topology,
    )


def run_many(
    primary: str,
    scavenger: str,
    config: LinkConfig,
    *,
    n_flows: int = 1000,
    n_scavengers: int = 4,
    flow_kb: float = 50.0,
    duration_s: float = 30.0,
    seed: int = 1,
    topology: TopologySpec | None = None,
    tracer=None,
    metrics: MetricsRegistry | None = None,
    fidelity: Fidelity | str | None = None,
    max_events: int | None = None,
    max_wall_s: float | None = None,
) -> RunResult:
    """Many short primary flows against a few long-lived scavengers.

    The datacenter-ish stress shape: ``n_flows`` short ``primary``
    transfers (default ~50 KB, roughly a web object) arrive at uniform
    random times across the run while ``n_scavengers`` unbounded
    ``scavenger`` flows occupy the same shared core from t=0.
    ``topology=None`` is the ``shared-core`` multi-dumbbell preset, so
    arrivals spread across access groups via the topology's per-index
    default endpoints.

    Arrival times come from a dedicated ``Rng("many:<seed>")`` stream —
    they are part of the flow specs, hence deterministic per seed and
    fully captured by the cache key.  Delegates to :func:`run_flows`
    for caching, observability, and jobs parity.
    """
    if topology is None:
        topology = TOPOLOGIES["shared-core"]()
    if n_flows < 1:
        raise ValueError("n_flows must be positive")
    if n_scavengers < 0:
        raise ValueError("n_scavengers must be non-negative")
    arrivals = Rng(f"many:{seed}")
    specs = [
        FlowSpec(scavenger, start_time=0.0) for _ in range(n_scavengers)
    ]
    # Leave the tail 20% of the run free of new arrivals so late flows
    # still have a chance to complete inside the measured window.
    spacing = 0.8 * duration_s / n_flows
    specs.extend(
        FlowSpec(
            primary,
            start_time=(i + arrivals.random()) * spacing,
            size_bytes=int(flow_kb * 1e3),
        )
        for i in range(n_flows)
    )
    return run_flows(
        specs,
        config,
        duration_s=duration_s,
        seed=seed,
        topology=topology,
        tracer=tracer,
        metrics=metrics,
        fidelity=fidelity,
        max_events=max_events,
        max_wall_s=max_wall_s,
    )
