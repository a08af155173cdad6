"""Performance benchmark suite (``repro bench``).

Two layers of measurement, both emitted to ``BENCH_sim.json``:

* **Engine microbenchmarks** — raw event throughput of the simulation
  engine's two scheduling paths (cancellable :class:`Event` entries vs
  the allocation-free fast path), plus events/sec of a real
  congestion-control scenario.  These are the regression gate: CI runs
  ``repro bench --quick --check-against benchmarks/perf/baseline.json``
  and fails on a >30% events/sec drop.

* **Figure workloads** — representative paper-figure scenarios timed
  end-to-end (wall seconds per figure and for the whole suite).  These
  exercise the parallel trial executor and the result cache: a warm
  re-run of an unchanged figure is a set of cache hits and completes in
  a small fraction of its cold time.

Wall-clock reads live here — *outside* ``sim/``/``core/``/``protocols/``
— so the ``no-wallclock`` lint rule still guarantees that nothing inside
the simulated world can see the host clock.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..sim import Fidelity, Simulator, resolve_fidelity
from . import cache as cache_mod
from .cache import disable_cache, enable_cache, reset_cache_state
from .parallel import default_jobs
from .runner import FlowSpec, run_flows, run_homogeneous, run_many, run_pair
from .scenarios import (
    EMULAB_DEFAULT,
    EMULAB_SHALLOW,
    BandwidthStep,
    GilbertLoss,
    LinkConfig,
    Timeline,
)
from .trials import run_trials

SCHEMA_VERSION = 2
HISTORY_SCHEMA_VERSION = 1
REGRESSION_TOLERANCE = 0.30
"""CI gate: fail when events/sec drops more than this vs the baseline."""

BASELINE_DERATE = 0.6
"""Default floor = measured rate x this factor, so ordinary CI-runner
variance (shared cores, thermal throttling) never false-positives.
``--update-baseline`` preserves a baseline's own ``derate`` once set."""

HISTORY_LIMIT = 200
"""Runs kept in the committed ``BENCH_sim.json`` trajectory."""

_CHAINS = 64
"""Concurrent self-rescheduling chains in the microbenchmark — keeps the
heap at a realistic depth instead of benchmarking a one-element heap."""


# ----------------------------------------------------------------------
# Engine microbenchmarks
# ----------------------------------------------------------------------
def engine_events_per_sec(n_events: int = 200_000, fast: bool = True) -> float:
    """Throughput of ``n_events`` no-op callbacks through the engine.

    ``fast=True`` exercises :meth:`Simulator.schedule_fast` (tuple-only
    heap entries); ``fast=False`` the cancellable :class:`Event` path.
    """
    sim = Simulator(check_invariants=False)
    remaining = n_events - _CHAINS

    if fast:

        def tick() -> None:
            nonlocal remaining
            if remaining > 0:
                remaining -= 1
                sim.schedule_fast(0.001, tick)

    else:

        def tick() -> None:
            nonlocal remaining
            if remaining > 0:
                remaining -= 1
                sim.schedule(0.001, tick)

    for i in range(_CHAINS):
        sim.schedule_fast_at(i * 1e-5, tick)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return sim.events_fired / elapsed


def scenario_events_per_sec(
    duration_s: float = 6.0, fidelity: Fidelity | str | None = None
) -> tuple[float, int, int, float]:
    """(effective events/sec, fired, virtual, wall_s) of a real scenario.

    Runs live (never through the cache): the point is to measure the
    simulator, not the JSON decoder.  The rate counts *effective* events
    ``(fired + virtual) / wall`` — in hybrid fidelity the engine absorbs
    collapsed packet legs and paced-burst ticks into closed-form updates
    (``Simulator.events_virtual``), and those represent real simulated
    work that packet-exact mode would have dispatched one by one.  In
    exact mode ``virtual == 0`` and the rate is plain fired-per-second.
    """
    config = LinkConfig(bandwidth_mbps=50.0, rtt_ms=30.0, buffer_kb=375.0)
    specs = [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=1.0)]
    saved = cache_mod._ACTIVE
    disable_cache()
    try:
        start = time.perf_counter()
        result = run_flows(
            specs, config, duration_s=duration_s, seed=1, fidelity=fidelity
        )
        elapsed = time.perf_counter() - start
    finally:
        cache_mod._ACTIVE = saved
    assert result.dumbbell is not None  # live run, never cache-rebuilt
    sim = result.dumbbell.sim
    fired = sim.events_fired
    virtual = sim.events_virtual
    return (fired + virtual) / elapsed, fired, virtual, elapsed


def scale_events_per_sec(
    n_flows: int = 1000, duration_s: float = 10.0
) -> tuple[float, int, int, float]:
    """(events/sec, fired, virtual, wall_s) of the many-flow scale bench.

    Runs :func:`~repro.harness.runner.run_many` — ~``n_flows`` short
    primary transfers against four long-lived scavengers over the
    ``shared-core`` multi-dumbbell — live, never through the cache.
    This is the flow-count stress axis the two-flow scenario bench
    cannot see: per-flow bookkeeping, topology routing, and the event
    heap at thousands of concurrent arrivals.
    """
    config = LinkConfig(bandwidth_mbps=50.0, rtt_ms=30.0, buffer_kb=375.0)
    saved = cache_mod._ACTIVE
    disable_cache()
    try:
        start = time.perf_counter()
        result = run_many(
            "cubic", "proteus-s", config,
            n_flows=n_flows, n_scavengers=4, duration_s=duration_s, seed=1,
        )
        elapsed = time.perf_counter() - start
    finally:
        cache_mod._ACTIVE = saved
    assert result.dumbbell is not None  # live run, never cache-rebuilt
    sim = result.dumbbell.sim
    fired = sim.events_fired
    virtual = sim.events_virtual
    return (fired + virtual) / elapsed, fired, virtual, elapsed


def tracing_overhead(duration_s: float = 3.0) -> dict:
    """Events/sec of the scenario bench with tracing off vs on.

    The disabled number backs the "zero overhead when off" claim in
    ``docs/OBSERVABILITY.md`` (the hot loops guard every emit behind a
    single ``is not None`` test); the enabled number quantifies what a
    :class:`~repro.obs.CollectingTracer` costs when you do turn it on
    (emission), and ``digest_us_per_event`` what encoding + hashing the
    recorded events costs afterwards.
    """
    from ..obs import CollectingTracer

    config = LinkConfig(bandwidth_mbps=50.0, rtt_ms=30.0, buffer_kb=375.0)
    specs = [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=1.0)]
    saved = cache_mod._ACTIVE
    disable_cache()
    try:
        start = time.perf_counter()
        off = run_flows(specs, config, duration_s=duration_s, seed=1)
        off_wall = time.perf_counter() - start
        tracer = CollectingTracer()
        start = time.perf_counter()
        on = run_flows(specs, config, duration_s=duration_s, seed=1, tracer=tracer)
        on_wall = time.perf_counter() - start
        start = time.perf_counter()
        tracer.digest()
        digest_wall = time.perf_counter() - start
    finally:
        cache_mod._ACTIVE = saved
    assert off.dumbbell is not None and on.dumbbell is not None
    off_rate = off.dumbbell.sim.events_fired / off_wall
    on_rate = on.dumbbell.sim.events_fired / on_wall
    return {
        "duration_s": duration_s,
        "disabled_events_per_sec": off_rate,
        "enabled_events_per_sec": on_rate,
        "trace_events": len(tracer),
        "enabled_slowdown": off_rate / on_rate if on_rate > 0 else float("inf"),
        "digest_us_per_event": digest_wall / max(len(tracer), 1) * 1e6,
    }


def adversary_evals_per_sec(budget: int = 6, duration_s: float = 4.0) -> dict:
    """Evaluations/sec of a tiny ``repro attack`` campaign.

    Times the full adversarial-search loop — genome sampling/mutation,
    the per-eval simulation runs (two per eval for ``primary_harm``),
    manifest checkpointing — end to end, serially and with the result
    cache disabled, so the number tracks what one search evaluation
    actually costs.  Shrinking is skipped: its cost depends on whether a
    violation happened to be found, which would make the rate noisy.
    """
    import shutil
    import tempfile

    from ..adversary import CampaignConfig, run_campaign

    config = CampaignConfig(
        objective="primary_harm",
        budget=budget,
        seed=11,
        generation_size=max(2, budget // 2),
        duration_s=duration_s,
    )
    out_dir = tempfile.mkdtemp(prefix="repro-bench-adversary-")
    saved = cache_mod._ACTIVE
    disable_cache()
    try:
        start = time.perf_counter()
        result = run_campaign(config, out_dir, jobs=1, shrink=False)
        elapsed = time.perf_counter() - start
    finally:
        cache_mod._ACTIVE = saved
        shutil.rmtree(out_dir, ignore_errors=True)
    evals = len(result.evaluated)
    return {
        "evals": evals,
        "duration_s": duration_s,
        "wall_s": elapsed,
        "evals_per_sec": evals / elapsed if elapsed > 0 else 0.0,
    }


# ----------------------------------------------------------------------
# Figure workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FigureBench:
    """One timed figure-shaped workload."""

    name: str
    run: Callable[[float], object]  # duration multiplier -> result


def _fig03_buffer_point(scale_f: float) -> object:
    return run_flows(
        [FlowSpec("proteus-p")], EMULAB_SHALLOW, duration_s=8.0 * scale_f, seed=2
    )


def _fig05_fairness(scale_f: float) -> object:
    return run_homogeneous(
        "proteus-s", 3, EMULAB_DEFAULT, stagger_s=2.0, measure_s=8.0 * scale_f, seed=2
    )


def _fig07_pair(scale_f: float) -> object:
    return run_pair("cubic", "proteus-s", EMULAB_DEFAULT, duration_s=10.0 * scale_f, seed=3)


def _trial_experiment(seed: int) -> float:
    """Module-level (hence picklable) experiment for the trial sweep."""
    result = run_flows(
        [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=1.0)],
        EMULAB_DEFAULT,
        duration_s=6.0,
        seed=seed,
    )
    return result.throughput_mbps(0)


def _trials_sweep(scale_f: float) -> object:
    return run_trials(_trial_experiment, n_trials=max(2, int(4 * scale_f)), base_seed=1)


def _dynamics_step(scale_f: float) -> object:
    """Timeline scenario: bandwidth step-down plus burst loss mid-run.

    Exercises the dynamics subsystem (backlog remap, Gilbert-Elliott
    chain, timeline-aware cache keys) in the CI bench smoke job.
    """
    duration_s = 10.0 * scale_f
    timeline = Timeline(
        (
            BandwidthStep(at_s=0.4 * duration_s, bandwidth_mbps=10.0),
            GilbertLoss(
                at_s=0.6 * duration_s, p_enter_bad=0.01, p_exit_bad=0.3, loss_bad=0.5
            ),
        ),
        label="bench-dynamics",
    )
    return run_flows(
        [FlowSpec("cubic"), FlowSpec("proteus-s", start_time=1.0)],
        EMULAB_DEFAULT,
        duration_s=duration_s,
        seed=4,
        timeline=timeline,
    )


FIGURE_BENCHES: tuple[FigureBench, ...] = (
    FigureBench("fig03_buffer_point", _fig03_buffer_point),
    FigureBench("fig05_fairness", _fig05_fairness),
    FigureBench("fig07_pair", _fig07_pair),
    FigureBench("trials_pair_sweep", _trials_sweep),
    FigureBench("dynamics_step_timeline", _dynamics_step),
)


# ----------------------------------------------------------------------
# Suite driver
# ----------------------------------------------------------------------
def run_bench(
    quick: bool = False,
    jobs: int | None = None,
    use_cache: bool = True,
    cache_root: str | Path | None = None,
    fidelity: Fidelity | str | None = None,
) -> dict:
    """Run the full benchmark suite and return the result record.

    ``fidelity`` selects the execution mode of the *scenario* bench (the
    headline events/sec number); ``None`` resolves ``REPRO_FIDELITY``
    (exact by default), so CI can run the suite once per mode.  The
    engine microbenchmarks are mode-independent — batched same-timestamp
    dispatch is always on — and the figure workloads run at the same
    mode so their wall times track what a sweep at that fidelity costs.
    """
    fid = resolve_fidelity(fidelity)
    if jobs is None:
        jobs = default_jobs()
    if use_cache:
        cache = enable_cache(cache_root)
    else:
        cache = None
        disable_cache()
    try:
        suite_start = time.perf_counter()
        n_events = 50_000 if quick else 200_000
        engine = {
            "n_events": n_events,
            "fast_events_per_sec": engine_events_per_sec(n_events, fast=True),
            "event_events_per_sec": engine_events_per_sec(n_events, fast=False),
        }
        scenario_duration = 3.0 if quick else 6.0
        # Best of two draws: the scenario bench is a short single-process
        # run, so one unlucky scheduler preemption otherwise dominates.
        best = max(
            (scenario_events_per_sec(scenario_duration, fidelity=fid)
             for _ in range(2)),
            key=lambda r: r[0],
        )
        events_per_sec, fired, virtual, wall = best
        scenario = {
            "duration_s": scenario_duration,
            "fidelity": fid.mode,
            "events": fired,
            "events_virtual": virtual,
            "wall_s": wall,
            "events_per_sec": events_per_sec,
        }
        n_flows = 250 if quick else 1000
        scale_rate, scale_fired, scale_virtual, scale_wall = scale_events_per_sec(
            n_flows=n_flows, duration_s=4.0 if quick else 10.0
        )
        scale_bench = {
            "n_flows": n_flows,
            "events": scale_fired,
            "events_virtual": scale_virtual,
            "wall_s": scale_wall,
            "events_per_sec": scale_rate,
        }
        scale_f = 0.4 if quick else 1.0
        figures = {}
        for bench in FIGURE_BENCHES:
            start = time.perf_counter()
            bench.run(scale_f)
            figures[bench.name] = {"wall_s": time.perf_counter() - start}
        tracing = tracing_overhead(1.5 if quick else 3.0)
        adversary = adversary_evals_per_sec(
            budget=4 if quick else 6, duration_s=3.0 if quick else 4.0
        )
        record = {
            "schema": SCHEMA_VERSION,
            "quick": quick,
            "jobs": jobs,
            "fidelity": fid.mode,
            "engine": engine,
            "scenario": scenario,
            # Headline number for the CI regression gate (effective
            # events/sec: fired + virtual over wall).
            "events_per_sec": events_per_sec,
            # Many-flow topology stress (see scale_events_per_sec);
            # gated separately by the baseline's scale.events_per_sec.
            "scale": scale_bench,
            "tracing": tracing,
            # Adversarial-search throughput (repro attack); recorded into
            # the history trajectory, not gated by the baseline.
            "adversary": adversary,
            "figures": figures,
            "cache": {
                "enabled": cache is not None,
                **(
                    cache.stats()
                    if cache
                    else {"hits": 0, "misses": 0, "stores": 0, "quarantined": 0}
                ),
            },
            "suite_wall_s": time.perf_counter() - suite_start,
        }
        return record
    finally:
        reset_cache_state()


def profile_scenario(
    duration_s: float = 3.0,
    fidelity: Fidelity | str | None = None,
    top: int = 20,
) -> str:
    """cProfile the scenario bench; returns the top-*N* report as text.

    CI attaches this to the workflow run (``repro bench --profile``) so a
    hot-path regression flagged by the baseline gate is diagnosable from
    the artifact alone — the cumulative-time ranking points at the layer
    (engine dispatch, link send, sender tick, stats append) that grew.
    """
    import cProfile
    import io
    import pstats

    fid = resolve_fidelity(fidelity)
    profiler = cProfile.Profile()
    profiler.enable()
    scenario_events_per_sec(duration_s, fidelity=fid)
    profiler.disable()
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(top)
    header = (
        f"# repro bench --profile: scenario bench, fidelity={fid.mode}, "
        f"duration_s={duration_s}, top {top} by cumulative time\n"
    )
    return header + buf.getvalue()


# ----------------------------------------------------------------------
# Trajectory history and baseline management
# ----------------------------------------------------------------------
def machine_tag() -> dict:
    """Stable-ish description of the host a bench run executed on.

    Rates are only comparable within one machine class; the tag lets the
    committed trajectory hold entries from laptops and CI runners side
    by side without anyone mistaking a hardware change for a regression.
    """
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "node": platform.node(),
        "ci": bool(os.environ.get("CI")),
    }


def history_entry(record: dict) -> dict:
    """Compact per-run summary appended to the ``BENCH_sim.json`` history.

    Full records (figure wall times, cache stats, tracing section) are
    large and machine-noisy; the trajectory keeps just the gated rates
    plus enough context to interpret them.
    """
    from datetime import datetime, timezone

    scenario = record.get("scenario", {})
    engine = record.get("engine", {})
    return {
        "recorded_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": machine_tag(),
        "schema": record.get("schema"),
        "quick": record.get("quick"),
        "fidelity": record.get("fidelity"),
        "events_per_sec": record.get("events_per_sec"),
        "scale_events_per_sec": record.get("scale", {}).get("events_per_sec"),
        "scenario_events": scenario.get("events"),
        "scenario_events_virtual": scenario.get("events_virtual"),
        "engine_fast_events_per_sec": engine.get("fast_events_per_sec"),
        "engine_event_events_per_sec": engine.get("event_events_per_sec"),
        "adversary_evals_per_sec": record.get("adversary", {}).get(
            "evals_per_sec"
        ),
        "tracing_enabled_slowdown": record.get("tracing", {}).get(
            "enabled_slowdown"
        ),
        "tracing_digest_us_per_event": record.get("tracing", {}).get(
            "digest_us_per_event"
        ),
        "suite_wall_s": record.get("suite_wall_s"),
    }


def append_history(path: str | Path, record: dict) -> int:
    """Append ``record``'s summary to the trajectory file; returns its size.

    The file is ``{"history_schema": 1, "runs": [entry, ...]}``; a legacy
    single-record file (pre-history ``repro bench --out``) or unreadable
    JSON is replaced by a fresh history.  Only the newest
    :data:`HISTORY_LIMIT` runs are kept.
    """
    path = Path(path)
    history: dict = {"history_schema": HISTORY_SCHEMA_VERSION, "runs": []}
    try:
        data = json.loads(path.read_text())
        if isinstance(data, dict) and isinstance(data.get("runs"), list):
            history["runs"] = data["runs"]
    except (OSError, ValueError):
        pass
    history["runs"].append(history_entry(record))
    history["runs"] = history["runs"][-HISTORY_LIMIT:]
    path.write_text(json.dumps(history, indent=2) + "\n")
    return len(history["runs"])


def update_baseline(path: str | Path, record: dict) -> dict:
    """Write derated floors from ``record`` to the committed baseline.

    Replaces the manual copy-with-x0.6 step the baseline's comment used
    to prescribe: every gated rate becomes ``measured x derate`` (the
    baseline's own ``derate`` key, default :data:`BASELINE_DERATE`),
    rounded down to the nearest 1000 events/sec.  The ``_comment`` and
    ``derate`` keys of an existing baseline are preserved; the scenario
    floor is written per fidelity mode — the top-level ``events_per_sec``
    stays the packet-exact floor and hybrid runs update
    ``fidelity.hybrid.events_per_sec`` — so one file gates both CI modes.
    """
    path = Path(path)
    baseline: dict = {}
    try:
        existing = json.loads(path.read_text())
        if isinstance(existing, dict):
            baseline = existing
    except (OSError, ValueError):
        pass
    derate = float(baseline.get("derate", BASELINE_DERATE))
    baseline.setdefault(
        "_comment",
        "Committed perf baseline for the CI bench-smoke gate "
        "(repro bench --check-against). Floors are measured rates derated "
        "by `derate` so CI-runner variance never false-positives. "
        "Regenerate with: PYTHONPATH=src python -m repro bench "
        "--update-baseline (once per fidelity mode).",
    )
    baseline["derate"] = derate
    baseline["schema"] = record.get("schema", SCHEMA_VERSION)

    def floor(rate: float) -> int:
        return int(rate * derate // 1000 * 1000)

    engine = record.get("engine", {})
    baseline.setdefault("engine", {})
    baseline["engine"]["fast_events_per_sec"] = floor(engine["fast_events_per_sec"])
    baseline["engine"]["event_events_per_sec"] = floor(
        engine["event_events_per_sec"]
    )
    mode = record.get("fidelity", "exact")
    if mode == "exact":
        baseline["events_per_sec"] = floor(record["events_per_sec"])
        if "scale" in record:
            baseline.setdefault("scale", {})
            baseline["scale"]["events_per_sec"] = floor(
                record["scale"]["events_per_sec"]
            )
    else:
        baseline.setdefault("fidelity", {})
        baseline["fidelity"][mode] = {
            "events_per_sec": floor(record["events_per_sec"])
        }
    path.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


def write_bench_json(path: str | Path, record: dict) -> None:
    Path(path).write_text(json.dumps(record, indent=2) + "\n")


def check_regression(
    record: dict, baseline: dict, tolerance: float | None = None
) -> list[str]:
    """Compare against a committed baseline; returns failure messages.

    Only events/sec rates are gated (wall times shift with machine load
    and scenario edits; throughput of the fixed microbenchmark is the
    stable signal).  A metric missing from the baseline is skipped so the
    gate never blocks adding new measurements.  ``tolerance`` overrides
    the default :data:`REGRESSION_TOLERANCE` fractional drop — CI runs a
    second, tighter pass (``--tolerance 0.05``) with tracing disabled to
    enforce the observability layer's when-off overhead budget.

    The scenario floor is fidelity-aware: a record produced in a
    non-exact mode is compared against the baseline's
    ``fidelity.<mode>.events_per_sec`` floor when one is committed, so a
    hybrid CI run is held to the hybrid speedup target rather than the
    (much lower) packet-exact floor.
    """
    if tolerance is None:
        tolerance = REGRESSION_TOLERANCE
    failures: list[str] = []
    mode = record.get("fidelity", "exact")
    scenario_name = "events_per_sec"
    scenario_ref = baseline.get("events_per_sec")
    per_mode = baseline.get("fidelity", {}).get(mode)
    if mode != "exact" and isinstance(per_mode, dict):
        scenario_name = f"fidelity.{mode}.events_per_sec"
        scenario_ref = per_mode.get("events_per_sec")
    # The scale floor is only meaningful in exact mode (run_many's
    # bounded short flows all take the packet-exact path anyway, but a
    # hybrid record's wall time includes hybrid scheduling overheads the
    # exact floor was not measured under).
    scale_ref = baseline.get("scale", {}).get("events_per_sec") if mode == "exact" else None
    checks = (
        (scenario_name, record.get("events_per_sec"), scenario_ref),
        (
            "scale.events_per_sec",
            record.get("scale", {}).get("events_per_sec"),
            scale_ref,
        ),
        (
            "engine.fast_events_per_sec",
            record.get("engine", {}).get("fast_events_per_sec"),
            baseline.get("engine", {}).get("fast_events_per_sec"),
        ),
        (
            "engine.event_events_per_sec",
            record.get("engine", {}).get("event_events_per_sec"),
            baseline.get("engine", {}).get("event_events_per_sec"),
        ),
    )
    for name, current, reference in checks:
        if current is None or reference is None or reference <= 0:
            continue
        floor = (1.0 - tolerance) * reference
        if current < floor:
            failures.append(
                f"{name} regressed: {current:,.0f}/s < {floor:,.0f}/s "
                f"(baseline {reference:,.0f}/s - {tolerance:.0%})"
            )
    return failures
