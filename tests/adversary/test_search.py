"""Campaign loop tests: determinism, checkpoint/resume, replay.

The campaigns here are tiny (a handful of short evaluations) but run the
full pipeline — genome proposal, supervised evaluation, manifest
checkpointing, counterexample archiving, shrinking — so the byte-identity
assertions cover everything ``repro attack`` writes to disk.
"""

import json

import pytest

from repro.adversary import CampaignConfig, replay_artifact, run_campaign
from repro.adversary.search import ARTIFACT_SCHEMA
from repro.cli import main
from repro.obs import MetricsRegistry

# Deliberately mis-tuned Proteus-S: gutting the latency-gradient (b) and
# RTT-deviation (d) penalties leaves a loss-only utility that no longer
# yields, so even a tiny campaign finds violations to archive and shrink.
MISTUNED = {
    "protocol": "proteus-s",
    "params": {"utility_params": {"b": 1.0, "d": 1.0}},
}


def tiny_config(**overrides) -> CampaignConfig:
    defaults = dict(
        objective="primary_harm",
        controller=MISTUNED,
        budget=4,
        seed=3,
        generation_size=2,
        elite_count=2,
        duration_s=3.0,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def campaign_bytes(out_dir) -> dict:
    return {
        name: (out_dir / name).read_bytes()
        for name in ("campaign.json", "manifest.jsonl", "best.json")
    }


def test_same_seed_same_budget_is_byte_identical(tmp_path):
    result_a = run_campaign(tiny_config(), tmp_path / "a", jobs=1, shrink=False)
    result_b = run_campaign(tiny_config(), tmp_path / "b", jobs=1, shrink=False)
    assert campaign_bytes(tmp_path / "a") == campaign_bytes(tmp_path / "b")
    assert [e.score for e in result_a.evaluated] == [
        e.score for e in result_b.evaluated
    ]


def test_jobs_count_does_not_change_outputs(tmp_path):
    run_campaign(tiny_config(), tmp_path / "serial", jobs=1, shrink=False)
    run_campaign(tiny_config(), tmp_path / "pool", jobs=4, shrink=False)
    assert campaign_bytes(tmp_path / "serial") == campaign_bytes(tmp_path / "pool")


def test_interrupted_campaign_resumes_byte_identically(tmp_path):
    full = tmp_path / "full"
    run_campaign(tiny_config(), full, jobs=1)

    # Simulate a mid-campaign kill: same config record, manifest truncated
    # to the first two finished evaluations.
    interrupted = tmp_path / "interrupted"
    interrupted.mkdir()
    (interrupted / "campaign.json").write_bytes((full / "campaign.json").read_bytes())
    lines = (full / "manifest.jsonl").read_bytes().splitlines(keepends=True)
    assert len(lines) == 4
    (interrupted / "manifest.jsonl").write_bytes(b"".join(lines[:2]))

    run_campaign(tiny_config(), interrupted, jobs=1, resume=True)
    for name in ("manifest.jsonl", "best.json", "best_shrunk.json"):
        assert (interrupted / name).read_bytes() == (full / name).read_bytes()


def test_existing_campaign_requires_resume_flag(tmp_path):
    run_campaign(tiny_config(), tmp_path / "camp", jobs=1, shrink=False)
    with pytest.raises(FileExistsError):
        run_campaign(tiny_config(), tmp_path / "camp", jobs=1, shrink=False)


def test_resume_rejects_changed_config(tmp_path):
    run_campaign(tiny_config(), tmp_path / "camp", jobs=1, shrink=False)
    with pytest.raises(ValueError, match="config mismatch"):
        run_campaign(
            tiny_config(budget=6), tmp_path / "camp", jobs=1, resume=True
        )


def test_counterexamples_replay_bit_exactly(tmp_path):
    result = run_campaign(tiny_config(), tmp_path / "camp", jobs=1)
    assert result.violations, "mis-tuned controller must produce violations"
    artifacts = sorted((tmp_path / "camp" / "counterexamples").glob("*.json"))
    assert artifacts
    report = replay_artifact(artifacts[-1])
    assert report["match"] is True
    assert report["recorded_score"] == report["recomputed_score"]
    # best.json replays too (it is the same artifact format).
    assert replay_artifact(tmp_path / "camp" / "best.json")["match"] is True


def test_replay_detects_tampered_artifact(tmp_path):
    run_campaign(tiny_config(), tmp_path / "camp", jobs=1, shrink=False)
    path = tmp_path / "camp" / "best.json"
    record = json.loads(path.read_text())
    record["item"]["genome"]["bandwidth_mbps"] += 1.0
    path.write_text(json.dumps(record))
    assert replay_artifact(path)["match"] is False


def test_an_artifact_of_another_schema_is_refused(tmp_path, capsys):
    run_campaign(tiny_config(), tmp_path / "camp", jobs=1, shrink=False)
    path = tmp_path / "camp" / "best.json"
    record = json.loads(path.read_text())
    assert record["schema"] == ARTIFACT_SCHEMA
    record["schema"] = 1
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError, match="^unsupported artifact schema 1$"):
        replay_artifact(path)
    for flag in ("--replay", "--shrink"):
        assert main(["attack", flag, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.rstrip().endswith("unsupported artifact schema 1")
    assert not path.with_suffix(".shrunk.json").exists()


def test_campaign_metrics_and_summary(tmp_path):
    registry = MetricsRegistry()
    result = run_campaign(
        tiny_config(), tmp_path / "camp", jobs=1, shrink=False, metrics=registry
    )
    snap = registry.snapshot()
    assert (
        snap["counters"]["adversary.evals{objective=primary_harm}"]
        == len(result.evaluated)
        == 4
    )
    assert snap["counters"]["adversary.violations{objective=primary_harm}"] == len(
        result.violations
    )
    summary = result.summary()
    assert summary["evaluations"] == 4
    assert summary["best_score"] == result.best.score
