"""The seeded, resumable adversarial search campaign.

A campaign evaluates ``budget`` scenario genomes against a controller
under test, generation by generation: the first generation is random
samples, later ones mix elite mutation, crossover, and fresh samples.
Every candidate-proposal decision draws from a per-generation
:class:`~repro.core.rng.Rng` stream keyed by the campaign seed and the
generation index, and depends otherwise only on the *recorded* outcomes
of earlier evaluations — so a resumed campaign (whose finished
evaluations are rebuilt from the manifest) proposes byte-identical
candidates and the final manifest/artifacts match an uninterrupted run
exactly.

Evaluations fan out through
:func:`~repro.harness.supervise.supervised_map`: crashes and watchdog
trips are structured outcomes (and legitimate search *findings*), the
append-only manifest checkpoints every result, and identical genomes —
whose canonical payload is the manifest key — are never re-evaluated.

Campaign directory layout::

    <out>/campaign.json        # config record, validated on --resume
    <out>/manifest.jsonl       # append-only evaluation journal
    <out>/best.json            # best-scoring genome artifact
    <out>/best_shrunk.json     # shrunk reproducer (when a violation was found)
    <out>/counterexamples/     # every new-best violating genome

Every file is plain JSON, whose floats ``json`` reads back exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..core.rng import Rng
from ..core.tracepoint import tracepoint
from ..harness.supervise import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMED_OUT,
    SweepManifest,
    TrialOutcome,
    supervised_map,
)
from ..obs.metrics import MetricsRegistry
from ..obs.trace import as_sink
from .genome import ScenarioGenome, crossover, mutate, sample_genome
from .objectives import (
    DEFAULT_MAX_EVENTS,
    OBJECTIVES,
    eval_item,
    evaluate_genome,
)
from .shrink import ShrinkResult, shrink_item

EVAL = tracepoint("adversary.eval", "status", "score", "violation")
VIOLATION = tracepoint("adversary.violation", "score", "objective")
GENERATION = tracepoint("adversary.generation", "evaluated", "best_score")
SHRINK = tracepoint("adversary.shrink", "from_size", "to_size", "score")

CAMPAIGN_SCHEMA = 1
ARTIFACT_SCHEMA = 2

_FRESH_FRAC = 0.2
_MUTATE_FRAC = 0.6  # of the non-fresh remainder; rest is crossover


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that defines a campaign (and its manifest keys)."""

    objective: str
    controller: dict = field(
        default_factory=lambda: {"protocol": "proteus-s", "params": {}}
    )
    primary: str = "cubic"
    budget: int = 200
    seed: int = 0
    generation_size: int = 20
    elite_count: int = 5
    duration_s: float = 8.0
    threshold: float | None = None
    max_events: int = DEFAULT_MAX_EVENTS

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; known: {OBJECTIVES}"
            )
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.generation_size < 1 or self.elite_count < 1:
            raise ValueError("generation_size and elite_count must be >= 1")

    def to_dict(self) -> dict:
        return {
            "schema": CAMPAIGN_SCHEMA,
            "kind": "adversary-campaign",
            "objective": self.objective,
            "controller": {
                "protocol": str(self.controller["protocol"]),
                "params": dict(self.controller.get("params", {})),
            },
            "primary": self.primary,
            "budget": self.budget,
            "seed": self.seed,
            "generation_size": self.generation_size,
            "elite_count": self.elite_count,
            "duration_s": self.duration_s,
            "threshold": self.threshold,
            "max_events": self.max_events,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        if data.get("kind") != "adversary-campaign":
            raise ValueError("not a campaign document")
        if data.get("schema") != CAMPAIGN_SCHEMA:
            raise ValueError(f"unsupported campaign schema {data.get('schema')!r}")
        return cls(
            objective=data["objective"],
            controller=data["controller"],
            primary=data.get("primary", "cubic"),
            budget=int(data["budget"]),
            seed=int(data["seed"]),
            generation_size=int(data.get("generation_size", 20)),
            elite_count=int(data.get("elite_count", 5)),
            duration_s=float(data.get("duration_s", 8.0)),
            threshold=data.get("threshold"),
            max_events=int(data.get("max_events", DEFAULT_MAX_EVENTS)),
        )


@dataclass
class Evaluated:
    """One evaluated genome, in evaluation order."""

    index: int
    genome: ScenarioGenome
    outcome: TrialOutcome

    @property
    def score(self) -> float | None:
        if not self.outcome.ok or not isinstance(self.outcome.value, dict):
            return None
        return float(self.outcome.value["score"])

    @property
    def violation(self) -> bool:
        return bool(
            self.outcome.ok
            and isinstance(self.outcome.value, dict)
            and self.outcome.value.get("violation")
        )


@dataclass
class CampaignResult:
    """Summary of a finished (or resumed-and-finished) campaign."""

    config: CampaignConfig
    evaluated: list[Evaluated]
    best: Evaluated | None
    shrunk: ShrinkResult | None
    out_dir: Path

    @property
    def violations(self) -> list[Evaluated]:
        return [e for e in self.evaluated if e.violation]

    def summary(self) -> dict:
        statuses: dict[str, int] = {}
        for e in self.evaluated:
            statuses[e.outcome.status] = statuses.get(e.outcome.status, 0) + 1
        return {
            "objective": self.config.objective,
            "budget": self.config.budget,
            "evaluations": len(self.evaluated),
            "statuses": statuses,
            "violations": len(self.violations),
            "best_score": None if self.best is None else self.best.score,
            "best_violation": self.best is not None and self.best.violation,
            "shrunk_size": None if self.shrunk is None else self.shrunk.size,
        }


def _write_json(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")


def artifact_record(
    config: CampaignConfig,
    item: dict,
    value: dict,
    *,
    eval_index: int,
    parent: dict | None = None,
) -> dict:
    """A replayable JSON artifact for one evaluated genome.

    ``value`` is stored as plain JSON, which round-trips every float, so
    ``repro attack --replay`` can compare a recomputed evaluation for
    bit-exact equality.
    """
    genome = ScenarioGenome.from_dict(item["genome"])
    record = {
        "schema": ARTIFACT_SCHEMA,
        "kind": "adversary-artifact",
        "campaign": config.to_dict(),
        "eval_index": eval_index,
        "item": item,
        "value": value,
        "score": value["score"],
        "violation": bool(value.get("violation")),
        "size": genome.size(),
    }
    if parent is not None:
        record["parent"] = parent
    return record


def load_artifact(path: str | Path) -> dict:
    """The artifact record at ``path``; ValueError unless it is an
    adversary artifact of the current :data:`ARTIFACT_SCHEMA`."""
    record = json.loads(Path(path).read_text())
    if not isinstance(record, dict) or record.get("kind") != "adversary-artifact":
        raise ValueError(f"{path} is not an adversary artifact")
    if record.get("schema") != ARTIFACT_SCHEMA:
        raise ValueError(f"unsupported artifact schema {record.get('schema')}")
    return record


def replay_artifact(path: str | Path) -> dict:
    """Re-evaluate an archived artifact and compare bit-exactly.

    Returns a report dict with the recorded and recomputed scores and a
    ``match`` flag — ``True`` only when the full recomputed value dict
    equals the recorded one (floats compared exactly, so any drift at
    all fails the replay).
    """
    record = load_artifact(path)
    expected = record["value"]
    recomputed = evaluate_genome(record["item"])
    return {
        "match": recomputed == expected,
        "recorded_score": expected["score"],
        "recomputed_score": recomputed["score"],
        "violation": bool(record.get("violation")),
        "objective": record["item"]["objective"],
        "size": record.get("size"),
    }


def _propose(
    config: CampaignConfig,
    generation: int,
    evaluated: list[Evaluated],
    count: int,
) -> list[ScenarioGenome]:
    """Candidates for one generation — a pure function of the record."""
    rng = Rng(f"adversary:{config.seed}:gen:{generation}")
    scored = [e for e in evaluated if e.score is not None]
    scored.sort(key=lambda e: (-e.score, e.index))
    elites = [e.genome for e in scored[: config.elite_count]]
    genomes: list[ScenarioGenome] = []
    for _ in range(count):
        if not elites:
            genomes.append(sample_genome(rng, duration_s=config.duration_s))
            continue
        draw = rng.random()
        if draw < _FRESH_FRAC:
            genomes.append(sample_genome(rng, duration_s=config.duration_s))
        elif draw < _FRESH_FRAC + (1.0 - _FRESH_FRAC) * _MUTATE_FRAC or len(elites) < 2:
            genomes.append(mutate(rng.choice(elites), rng))
        else:
            a, b = rng.sample(elites, 2)
            genomes.append(crossover(a, b, rng))
    return genomes


def run_campaign(
    config: CampaignConfig,
    out_dir: str | Path,
    *,
    jobs: int | None = None,
    shrink: bool = True,
    resume: bool = False,
    metrics: MetricsRegistry | None = None,
) -> CampaignResult:
    """Run (or resume) one adversarial search campaign.

    ``out_dir`` is created if missing; an existing campaign directory is
    only reused with ``resume=True``, and its recorded config must match
    ``config`` exactly — resuming under a different objective or seed
    would silently corrupt the manifest.  ``shrink=False`` skips the
    delta-debugging pass on the best violation.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    campaign_path = out / "campaign.json"
    manifest_path = out / "manifest.jsonl"
    if campaign_path.exists():
        if not resume:
            raise FileExistsError(
                f"{campaign_path} exists; pass resume=True (CLI: --resume) "
                "to continue the recorded campaign"
            )
        recorded = json.loads(campaign_path.read_text())
        if recorded != config.to_dict():
            raise ValueError(
                f"campaign config mismatch with {campaign_path}; "
                "resume must use the original objective/seed/budget knobs"
            )
    else:
        _write_json(campaign_path, config.to_dict())
    manifest = SweepManifest(manifest_path)
    tracer = as_sink(None)
    if metrics is None:
        metrics = MetricsRegistry()
    evals_counter = metrics.counter("adversary.evals", objective=config.objective)
    violation_counter = metrics.counter(
        "adversary.violations", objective=config.objective
    )
    best_gauge = metrics.gauge("adversary.best_score", objective=config.objective)

    counter_dir = out / "counterexamples"
    evaluated: list[Evaluated] = []
    best: Evaluated | None = None
    generation = 0
    while len(evaluated) < config.budget:
        count = min(config.generation_size, config.budget - len(evaluated))
        genomes = _propose(config, generation, evaluated, count)
        items = [
            eval_item(
                genome,
                objective=config.objective,
                controller=config.controller,
                primary=config.primary,
                seed=config.seed,
                threshold=config.threshold,
                max_events=config.max_events,
            )
            for genome in genomes
        ]
        outcomes = supervised_map(
            evaluate_genome,
            items,
            payloads=items,
            jobs=jobs,
            manifest=manifest,
            # Evaluations are deterministic, so a recorded failure or
            # watchdog trip is as final as an ok result: skipping them on
            # resume keeps the journal byte-identical to an uninterrupted
            # run.  Only crashed-worker entries are re-attempted.
            resume_statuses=(STATUS_OK, STATUS_FAILED, STATUS_TIMED_OUT),
        )
        gen_best: float | None = None
        for item, genome, outcome in zip(items, genomes, outcomes):
            entry = Evaluated(index=len(evaluated), genome=genome, outcome=outcome)
            evaluated.append(entry)
            evals_counter.inc()
            score = entry.score
            if score is not None and (gen_best is None or score > gen_best):
                gen_best = score
            if tracer is not None:
                tracer.record(
                    (EVAL, float(entry.index), None, None, outcome.status,
                     -1.0 if score is None else score, entry.violation)
                )
            if entry.violation:
                violation_counter.inc()
            is_new_best = score is not None and (
                best is None or score > best.score
            )
            if is_new_best:
                best = entry
                best_gauge.set(score)
                if entry.violation:
                    counter_dir.mkdir(exist_ok=True)
                    _write_json(
                        counter_dir / f"eval-{entry.index:04d}.json",
                        artifact_record(
                            config, item, outcome.value, eval_index=entry.index
                        ),
                    )
                    if tracer is not None:
                        tracer.record(
                            (VIOLATION, float(entry.index), None, None, score, config.objective)
                        )
        if tracer is not None:
            tracer.record(
                (GENERATION, float(generation), None, None, len(evaluated),
                 -1.0 if gen_best is None else gen_best)
            )
        generation += 1

    shrunk: ShrinkResult | None = None
    if best is not None:
        best_item = best.outcome.payload  # its eval_item, fresh or resumed
        _write_json(
            out / "best.json",
            artifact_record(
                config, best_item, best.outcome.value, eval_index=best.index
            ),
        )
        if shrink and best.violation:

            def on_step(parent_size: int, size: int, score: float) -> None:
                if tracer is not None:
                    tracer.record(
                        (SHRINK, float(best.index), None, None, parent_size, size, score)
                    )

            shrunk = shrink_item(best_item, on_step=on_step)
            _write_json(
                out / "best_shrunk.json",
                artifact_record(
                    config,
                    shrunk.item,
                    shrunk.value,
                    eval_index=best.index,
                    parent={
                        "size": shrunk.parent_size,
                        "eval_index": best.index,
                        "score": best.score,
                    },
                ),
            )
    return CampaignResult(
        config=config,
        evaluated=evaluated,
        best=best,
        shrunk=shrunk,
        out_dir=out,
    )
