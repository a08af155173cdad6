"""Violation objectives the adversarial search maximizes.

Two objectives target the two halves of the scavenger guarantee
(PAPER.md §1): a scavenger must not *harm* primaries, and it must not
*starve* when spare capacity exists.

* ``primary_harm`` — run the scenario twice: once with the primary and
  the genome's cross traffic only (the baseline), once with the
  controller under test added.  The score is the fraction of the
  baseline primary throughput the scavenger's presence removed; a
  violation means the scavenger stole more than the threshold.
* ``starvation`` — run the full scenario once and compare the
  controller's throughput against the spare capacity left over after
  every other flow is accounted for (capacity is integrated from the
  genome's timeline, outages count as zero).  A high score means lots
  of idle capacity while the scavenger sat at ~0.

:func:`evaluate_genome` is the single module-level entry point — it is
picklable, so :func:`repro.harness.supervise.supervised_map` can fan
evaluations out over a process pool, and crashes/timeouts inside it
become structured trial outcomes instead of campaign aborts.  Its
return value is a flat dict of JSON-able scalars, so manifests and
archived artifacts round-trip the score bit-exactly.
"""

from __future__ import annotations

from ..harness.runner import FlowSpec, RunResult, run
from .genome import ScenarioGenome

EVAL_SCHEMA = 1

OBJECTIVES = ("primary_harm", "starvation")

DEFAULT_THRESHOLDS = {"primary_harm": 0.10, "starvation": 0.25}
"""Violation thresholds: ``primary_harm`` is the stolen fraction of the
baseline primary throughput; ``starvation`` is the spare-capacity score
of :func:`starvation_score`."""

#: Event budget per evaluation run — trips the engine watchdog
#: (``SimBudgetExceeded``) on pathological genomes, which the
#: supervision layer records as a ``timed-out`` outcome.
DEFAULT_MAX_EVENTS = 3_000_000

_CONTROLLER_START_S = 0.2
_STARVATION_WEIGHT = 10.0


def eval_item(
    genome: ScenarioGenome,
    *,
    objective: str,
    controller: dict,
    primary: str = "cubic",
    seed: int = 0,
    threshold: float | None = None,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> dict:
    """The canonical, JSON-able evaluation request for one genome.

    The same dict is the :func:`supervised_map` payload (so its content
    hash is the manifest/cache key) and the argument
    :func:`evaluate_genome` receives in a worker.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; known: {OBJECTIVES}")
    if threshold is None:
        threshold = DEFAULT_THRESHOLDS[objective]
    return {
        "kind": "adversary-eval",
        "schema": EVAL_SCHEMA,
        "objective": objective,
        "genome": genome.to_dict(),
        "controller": {
            "protocol": str(controller["protocol"]),
            "params": dict(controller.get("params", {})),
        },
        "primary": primary,
        "seed": seed,
        "threshold": threshold,
        "max_events": max_events,
    }


def _run(genome: ScenarioGenome, specs: list[FlowSpec], seed: int, max_events: int) -> RunResult:
    return run(genome.run_spec(specs, seed), max_events=max_events)


def average_capacity_mbps(
    genome: ScenarioGenome, window: tuple[float, float]
) -> float:
    """Time-averaged bottleneck capacity over ``window``.

    Integrates the piecewise-constant bandwidth implied by the genome's
    base rate and its timeline's ``bandwidth`` events; ``down``/``up``
    outage events count as zero capacity.  Only the default bottleneck
    link is considered — for multi-hop topologies this is the per-hop
    rate, an upper bound on end-to-end capacity (documented in
    ``docs/ADVERSARY.md``).
    """
    t0, t1 = window
    if t1 <= t0:
        return genome.bandwidth_mbps
    # Walk the resolved events once, tracking (rate, up/down) state.
    rate_mbps = genome.bandwidth_mbps
    up = True
    integral = 0.0
    cursor = t0
    for event in genome.timeline.resolve():
        if event.kind == "bandwidth":
            new_rate, new_up = event.value[0] / 1e6, up
        elif event.kind == "down":
            new_rate, new_up = rate_mbps, False
        elif event.kind == "up":
            new_rate, new_up = rate_mbps, True
        else:
            continue
        at_s = min(max(event.time_s, t0), t1)
        integral += (rate_mbps if up else 0.0) * (at_s - cursor)
        cursor = at_s
        rate_mbps, up = new_rate, new_up
    integral += (rate_mbps if up else 0.0) * (t1 - cursor)
    return integral / (t1 - t0)


def starvation_score(
    capacity_mbps: float, others_mbps: float, scavenger_mbps: float
) -> float:
    """Spare-capacity starvation score (higher = worse starvation).

    ``spare_frac - 10 * scavenger_frac``: positive only when idle
    capacity remains that the scavenger failed to claim, discounted
    steeply by whatever the scavenger *did* get — a scavenger at 5% of
    capacity never scores above 0.5 regardless of spare room.
    """
    if capacity_mbps <= 0:
        return 0.0
    spare_frac = max(0.0, capacity_mbps - others_mbps - scavenger_mbps) / capacity_mbps
    scavenger_frac = scavenger_mbps / capacity_mbps
    return max(0.0, spare_frac - _STARVATION_WEIGHT * scavenger_frac)


def evaluate_genome(item: dict) -> dict:
    """Evaluate one genome against the controller under test.

    Returns a flat dict of JSON-able scalars: the objective ``score``,
    a ``violation`` flag (score above the item's threshold), and the
    per-run throughput diagnostics.  Deterministic in ``item`` alone.
    """
    genome = ScenarioGenome.from_dict(item["genome"])
    objective = item["objective"]
    controller = item["controller"]
    primary = item.get("primary", "cubic")
    seed = int(item.get("seed", 0))
    threshold = float(item.get("threshold", DEFAULT_THRESHOLDS[objective]))
    max_events = int(item.get("max_events", DEFAULT_MAX_EVENTS))

    base_specs = [FlowSpec(protocol=primary), *genome.traffic]
    controller_spec = FlowSpec(
        protocol=controller["protocol"],
        start_time=_CONTROLLER_START_S,
        kwargs=dict(controller.get("params", {})),
    )
    attack = _run(genome, base_specs + [controller_spec], seed, max_events)
    scavenger_mbps = attack.throughput_mbps(len(base_specs))
    primary_with_mbps = attack.throughput_mbps(0)

    if objective == "primary_harm":
        baseline = _run(genome, base_specs, seed, max_events)
        primary_solo_mbps = baseline.throughput_mbps(0)
        if primary_solo_mbps <= 0:
            score = 0.0
        else:
            score = max(0.0, 1.0 - primary_with_mbps / primary_solo_mbps)
        result = {
            "score": score,
            "violation": score > threshold,
            "primary_solo_mbps": primary_solo_mbps,
            "primary_with_mbps": primary_with_mbps,
            "scavenger_mbps": scavenger_mbps,
        }
    else:
        window = attack.measurement_window()
        capacity_mbps = average_capacity_mbps(genome, window)
        others_mbps = sum(
            attack.throughput_mbps(i) for i in range(len(base_specs))
        )
        score = starvation_score(capacity_mbps, others_mbps, scavenger_mbps)
        result = {
            "score": score,
            "violation": score > threshold,
            "capacity_mbps": capacity_mbps,
            "others_mbps": others_mbps,
            "scavenger_mbps": scavenger_mbps,
        }
    result["objective"] = objective
    result["threshold"] = threshold
    return result
