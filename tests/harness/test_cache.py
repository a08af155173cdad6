"""Tests for the content-addressed result cache.

The contract: a cache hit is byte-identical to recomputation (the
determinism digest cannot tell them apart), any config/seed/source
change is a miss, and a corrupt entry silently recomputes.
"""

import base64
import json
import struct
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.devtools import stats_digest
from repro.harness import FlowSpec, LinkConfig, run_flows
from repro.harness import cache as cache_mod
from repro.harness.cache import (
    SCHEMA_VERSION,
    ResultCache,
    _pack,
    disable_cache,
    enable_cache,
    reset_cache_state,
    source_digest,
    stats_from_record,
    stats_to_record,
)
from repro.sim import FlowStats

CONFIG = LinkConfig(bandwidth_mbps=10.0, rtt_ms=40.0, buffer_kb=75.0, loss_rate=0.01)
SPECS = [FlowSpec("vivace")]
DURATION_S = 4.0


@pytest.fixture
def cache(tmp_path):
    cache = enable_cache(tmp_path / "cache")
    yield cache
    reset_cache_state()


def test_hit_on_identical_config_and_seed(cache):
    cold = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)
    warm = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert (cache.hits, cache.misses) == (1, 1)
    # Byte-identical round-trip: the determinism digest cannot tell a
    # cache rebuild from a live run.
    assert stats_digest(warm.stats) == stats_digest(cold.stats)
    # Cache rebuilds carry no live topology.
    assert cold.dumbbell is not None
    assert warm.dumbbell is None


def test_miss_after_config_change(cache):
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    run_flows(SPECS, CONFIG.with_loss(0.02), duration_s=DURATION_S, seed=7)
    assert cache.hits == 0
    assert cache.misses == 2


def test_miss_after_seed_change(cache):
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=8)
    assert cache.hits == 0
    assert cache.misses == 2


def test_miss_after_source_digest_change(cache, monkeypatch):
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    # Simulate editing the simulator source: every key must change.
    monkeypatch.setattr(cache_mod, "_SOURCE_DIGEST", "0" * 64)
    result = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert cache.hits == 0
    assert cache.misses == 2
    assert result.dumbbell is not None  # recomputed live


def test_corrupt_entry_falls_back_to_recompute(cache):
    first = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    [entry] = list(cache.root.rglob("*.json"))
    entry.write_text("{ not json")
    again = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert cache.hits == 0  # the torn entry never counted as a hit
    assert again.dumbbell is not None
    assert stats_digest(again.stats) == stats_digest(first.stats)
    # The recompute healed the entry.
    healed = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert cache.hits == 1
    assert stats_digest(healed.stats) == stats_digest(first.stats)


def test_truncated_record_falls_back_to_recompute(cache):
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    [entry] = list(cache.root.rglob("*.json"))
    # Valid JSON, wrong shape: stats records missing fields.
    entry.write_text(json.dumps({"schema": SCHEMA_VERSION, "stats": [{"flow_id": 1}]}))
    again = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert cache.hits == 0
    assert again.dumbbell is not None


def test_corrupt_entry_is_quarantined(cache):
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    [entry] = list(cache.root.rglob("*.json"))
    entry.write_text("{ not json")
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert cache.quarantined == 1
    # The torn file was moved aside for post-mortems, not deleted...
    [corpse] = list(cache.root.rglob("*.corrupt"))
    assert corpse.read_text() == "{ not json"
    # ...and the recompute healed the original path.
    assert entry.exists()
    assert cache.stats() == {
        "hits": 0, "misses": 2, "stores": 2, "quarantined": 1,
    }


def test_quarantine_counted_once_per_entry(cache):
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    [entry] = list(cache.root.rglob("*.json"))
    entry.write_text(json.dumps({"schema": SCHEMA_VERSION, "stats": [{"flow_id": 1}]}))
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)  # quarantines + heals
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)  # clean hit
    assert cache.quarantined == 1
    assert cache.hits == 1


def test_stats_record_roundtrip_is_exact():
    result = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=3)
    for stats in result.stats:
        rebuilt = stats_from_record(stats_to_record(stats))
        assert stats_digest([rebuilt]) == stats_digest([stats])
        assert rebuilt.start_time == stats.start_time
        assert rebuilt.packets_sent == stats.packets_sent
        assert rebuilt.first_delivery == stats.first_delivery


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
any_double = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
EDGE_DOUBLES = [0.0, -0.0, 5e-324, -2.2e-308, float("inf"), float("-inf"), float("nan")]


@settings(max_examples=60, deadline=None)
@given(
    acks=st.lists(
        st.tuples(any_double, st.integers(INT64_MIN, INT64_MAX), any_double), max_size=40
    ),
    losses=st.lists(any_double, max_size=20),
)
@example(acks=[], losses=[])
@example(
    acks=[(x, n, -x) for x, n in zip(EDGE_DOUBLES, [INT64_MIN, INT64_MAX, 0, -1, 1, 1500, 7])],
    losses=EDGE_DOUBLES,
)
def test_series_roundtrip_is_bit_exact(acks, losses):
    stats = FlowStats(flow_id=3)
    for ack_time, nbytes, rtt in acks:
        stats.ack_times.append(ack_time)
        stats.acked_bytes.append(nbytes)
        stats.rtts.append(rtt)
    stats.loss_times.extend(losses)
    # Through the same JSON text a cache entry is written as.
    rebuilt = stats_from_record(json.loads(json.dumps(stats_to_record(stats))))
    for name in ("ack_times", "acked_bytes", "rtts", "loss_times"):
        series = getattr(rebuilt, name)
        assert series.typecode == getattr(stats, name).typecode
        assert series.tobytes() == getattr(stats, name).tobytes()


def test_packed_series_byte_order_is_pinned():
    # The on-disk layout is part of the contract: little-endian IEEE-754
    # doubles / int64, standard base64 with padding, on every host.
    assert _pack(array("d", [1.0])) == base64.b64encode(struct.pack("<d", 1.0)).decode()
    assert _pack(array("q", [1, -2])) == base64.b64encode(struct.pack("<2q", 1, -2)).decode()
    assert _pack(array("d")) == ""


def _drop_last_rtt(_, flow: dict) -> None:
    rtts = base64.b64decode(flow["rtts"])
    flow["rtts"] = base64.b64encode(rtts[:-8]).decode()


# Each takes the entry's record and its first flow record.
CORRUPTIONS = {
    "truncated-base64": lambda _, flow: flow.update(ack_times=flow["ack_times"][:-1]),
    "non-alphabet-character": lambda _, flow: flow.update(
        rtts=flow["rtts"][:8] + "!" + flow["rtts"][8:]
    ),
    "not-whole-items": lambda _, flow: flow.update(
        loss_times=base64.b64encode(b"\0" * 12).decode()
    ),
    "ack-series-lengths-differ": _drop_last_rtt,
    "schema-1": lambda record, _: record.update(schema=1),
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupt_series_quarantines_once_and_heals(cache, corruption):
    first = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    [entry] = list(cache.root.rglob("*.json"))
    record = json.loads(entry.read_text())
    CORRUPTIONS[corruption](record, record["stats"][0])
    entry.write_text(json.dumps(record))
    again = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert again.dumbbell is not None  # a live recompute, not a rebuild
    assert cache.stats() == {"hits": 0, "misses": 2, "stores": 2, "quarantined": 1}
    assert len(list(cache.root.rglob("*.corrupt"))) == 1
    healed = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert (cache.hits, cache.quarantined) == (1, 1)
    assert stats_digest(healed.stats) == stats_digest(first.stats)


def test_entry_is_compact_and_a_hit_does_no_per_sample_work(cache):
    """Host-independent proxy for the packed encoding's gain."""
    cold = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    total_acks = sum(len(stats.ack_times) for stats in cold.stats)
    assert total_acks > 1000
    [entry] = list(cache.root.rglob("*.json"))
    # 3 series x 8 bytes x 4/3 base64 = 32 bytes per ACK, plus losses.
    assert entry.stat().st_size <= 36 * total_acks + 4096

    fromhex_calls = 0

    def count_fromhex(frame, event, arg):
        nonlocal fromhex_calls
        if event == "c_call" and arg.__name__ == "fromhex":
            fromhex_calls += 1

    sys.setprofile(count_fromhex)
    try:
        warm = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    finally:
        sys.setprofile(None)
    assert cache.hits == 1
    assert stats_digest(warm.stats) == stats_digest(cold.stats)
    # Only the scalar fields: start/end time, first/last delivery.
    assert 1 <= fromhex_calls <= 4 * len(cold.stats)


STORE_HAMMER = """
import sys
from repro.harness.cache import ResultCache

cache = ResultCache(sys.argv[1])
key = sys.argv[2]
record = {"stats": [], "blob": "x" * 200_000}
for _ in range(1500):
    cache.store(key, record)
    loaded = cache.load(key)
    assert loaded is not None and loaded["blob"] == record["blob"], "torn entry read"
assert cache.quarantined == 0
"""


def test_concurrent_stores_of_one_key_do_not_race(tmp_path):
    # Two sweep points dispatched at once both miss on the shared solo
    # baseline and store it: with one temp name for every writer the
    # loser's rename raised FileNotFoundError and readers saw torn files.
    src = str(Path(cache_mod.__file__).resolve().parents[2])
    key = "ab" + "0" * 62
    workers = [
        subprocess.Popen(
            [sys.executable, "-c", STORE_HAMMER, str(tmp_path), key],
            env={"PYTHONPATH": src, "PATH": ""},
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    # Collect both before asserting, so a failure leaves no worker running.
    errors = [worker.communicate(timeout=120)[1] for worker in workers]
    assert [worker.returncode for worker in workers] == [0, 0], errors
    # One entry, no quarantined corpse, no temp file left behind.
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == [f"{key}.json"]


def test_source_digest_is_stable_and_sensitive(monkeypatch):
    first = source_digest()
    assert len(first) == 64
    monkeypatch.setattr(cache_mod, "_SOURCE_DIGEST", None)
    # Recomputing from disk reproduces the same digest.
    assert source_digest() == first


def test_disable_cache_overrides_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    reset_cache_state()
    try:
        disable_cache()
        result = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
        assert result.dumbbell is not None
        assert not (tmp_path / "envcache").exists()
    finally:
        reset_cache_state()


def test_env_enables_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    reset_cache_state()
    try:
        run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
        assert (tmp_path / "envcache").exists()
    finally:
        reset_cache_state()


def test_key_for_ignores_dict_order(tmp_path):
    cache = ResultCache(tmp_path)
    a = cache.key_for({"x": 1, "y": 2})
    b = cache.key_for({"y": 2, "x": 1})
    assert a == b
    assert a != cache.key_for({"x": 1, "y": 3})
