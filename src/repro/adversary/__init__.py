"""Adversarial scenario search against the scavenger guarantee.

This package actively *searches* for scenarios that break the two
halves of the Proteus-S guarantee — harming primaries, or starving
while capacity sits idle — in the spirit of CCLab-style adversarial
testing of congestion controllers (see ``docs/ADVERSARY.md`` and the
``repro attack`` CLI).

The moving parts:

* :mod:`~repro.adversary.genome` — the serializable
  :class:`ScenarioGenome` (link knobs + timeline + topology + hostile
  traffic mix) with seeded sampling, mutation, and crossover;
* :mod:`~repro.adversary.objectives` — the ``primary_harm`` and
  ``starvation`` violation objectives and the picklable
  :func:`evaluate_genome` worker entry point;
* :mod:`~repro.adversary.search` — the resumable campaign loop over
  :func:`~repro.harness.supervise.supervised_map`;
* :mod:`~repro.adversary.shrink` — delta-debugging of found
  counterexamples to minimal reproducers.
"""

from .genome import (
    ScenarioGenome,
    crossover,
    mutate,
    sample_genome,
)
from .objectives import (
    DEFAULT_THRESHOLDS,
    OBJECTIVES,
    eval_item,
    evaluate_genome,
)
from .search import (
    CampaignConfig,
    CampaignResult,
    artifact_record,
    load_artifact,
    replay_artifact,
    run_campaign,
)
from .shrink import ShrinkResult, shrink_item

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "DEFAULT_THRESHOLDS",
    "OBJECTIVES",
    "ScenarioGenome",
    "ShrinkResult",
    "artifact_record",
    "crossover",
    "eval_item",
    "evaluate_genome",
    "load_artifact",
    "mutate",
    "replay_artifact",
    "run_campaign",
    "sample_genome",
    "shrink_item",
]
