"""Tests for the content-addressed result cache.

The contract: a cache hit is byte-identical to recomputation (the
determinism digest cannot tell them apart), any config/seed/source
change is a miss, and a corrupt entry silently recomputes.
"""

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
from repro.obs import MetricsRegistry
from repro.harness import FlowSpec, LinkConfig, run_flows
from repro.harness import cache as cache_mod
from repro.harness.cache import (
    SCHEMA_VERSION,
    NotCached,
    ResultCache,
    _pack,
    decode_entry,
    disable_cache,
    enable_cache,
    encode_entry,
    reset_cache_state,
    source_digest,
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


def test_replay_only_run_raises_instead_of_simulating(cache, monkeypatch):
    def no_simulator(*args, **kwargs):
        raise AssertionError("a replay-only run built a simulator")

    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    cache.replay_only = True
    monkeypatch.setattr("repro.harness.runner.Simulator", no_simulator)
    assert run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7).dumbbell is None
    with pytest.raises(NotCached):
        run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=8)  # a miss
    with pytest.raises(NotCached):
        run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7, metrics=MetricsRegistry())
    assert (cache.hits, cache.misses, cache.stores) == (1, 2, 1)


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
    result = run_flows(SPECS + [FlowSpec("cubic")], CONFIG, duration_s=DURATION_S, seed=3)
    snapshot = {"counters": {"x": 1}}
    rebuilt, metrics = decode_entry(encode_entry(result.stats, snapshot))
    assert metrics == snapshot
    assert stats_digest(rebuilt) == stats_digest(result.stats)
    for stats, again in zip(result.stats, rebuilt):
        assert again.start_time == stats.start_time
        assert again.packets_sent == stats.packets_sent
        assert again.first_delivery == stats.first_delivery


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
    # Through the same bytes store_run writes to disk.
    [rebuilt], _ = decode_entry(encode_entry([stats]))
    for name in ("ack_times", "acked_bytes", "rtts", "loss_times"):
        series = getattr(rebuilt, name)
        assert series.typecode == getattr(stats, name).typecode
        assert series.tobytes() == getattr(stats, name).tobytes()


def test_packed_series_byte_order_is_pinned():
    # The on-disk layout is part of the contract: little-endian IEEE-754
    # doubles / int64, on every host, each flow's series in the order
    # ack_times, acked_bytes, rtts, loss_times after the header line.
    assert _pack(array("d", [1.0])) == struct.pack("<d", 1.0)
    assert _pack(array("q", [1, -2])) == struct.pack("<2q", 1, -2)
    assert _pack(array("d")) == b""
    stats = FlowStats(flow_id=1)
    stats.record_ack(0.5, 1500, 0.03)
    stats.record_ack(0.75, -7, 0.04)
    stats.record_loss(0.6)
    header, body = encode_entry([stats, FlowStats(flow_id=2)]).split(b"\n", 1)
    assert body == struct.pack("<2d2q2dd", 0.5, 0.75, 1500, -7, 0.03, 0.04, 0.6)
    flows = json.loads(header)["stats"]
    assert [(f["n_acks"], f["n_losses"]) for f in flows] == [(2, 1), (0, 0)]


def _edit_header(entry: Path, edit) -> None:
    header, body = entry.read_bytes().split(b"\n", 1)
    record = json.loads(header)
    edit(record)
    entry.write_bytes(json.dumps(record).encode() + b"\n" + body)


def _drop_one_ack(record: dict) -> None:
    record["stats"][0]["n_acks"] -= 1


# Each rewrites the entry file in place.
CORRUPTIONS = {
    "body-one-byte-short": lambda entry: entry.write_bytes(entry.read_bytes()[:-1]),
    "one-trailing-byte": lambda entry: entry.write_bytes(entry.read_bytes() + b"\0"),
    "n-acks-disagrees-with-body": lambda entry: _edit_header(entry, _drop_one_ack),
    "header-without-newline": lambda entry: entry.write_bytes(
        entry.read_bytes().split(b"\n", 1)[0]
    ),
    "schema-2-header": lambda entry: _edit_header(entry, lambda r: r.update(schema=2)),
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupt_series_quarantines_once_and_heals(cache, corruption):
    first = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    [entry] = list(cache.root.rglob("*.json"))
    CORRUPTIONS[corruption](entry)
    again = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert again.dumbbell is not None  # a live recompute, not a rebuild
    assert cache.stats() == {"hits": 0, "misses": 2, "stores": 2, "quarantined": 1}
    assert len(list(cache.root.rglob("*.corrupt"))) == 1
    healed = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert (cache.hits, cache.quarantined) == (1, 1)
    assert stats_digest(healed.stats) == stats_digest(first.stats)


def test_entry_is_compact_and_a_hit_does_no_per_sample_work(cache):
    """Host-independent proxy for the raw-bytes encoding's gain."""
    cold = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    total_acks = sum(len(stats.ack_times) for stats in cold.stats)
    total_losses = sum(len(stats.loss_times) for stats in cold.stats)
    assert total_acks > 1000
    [entry] = list(cache.root.rglob("*.json"))
    # 3 series x 8 bytes per ACK, 8 per loss, plus the header line.
    assert entry.stat().st_size <= 24 * total_acks + 8 * total_losses + 4096

    calls = {"fromhex": 0, "json.loads": 0, "a2b_base64": 0}

    def count_calls(frame, event, arg):
        if event == "c_call" and arg.__name__ in calls:
            calls[arg.__name__] += 1
        elif event == "call" and frame.f_code is json.loads.__code__:
            calls["json.loads"] += 1

    sys.setprofile(count_calls)
    try:
        warm = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    finally:
        sys.setprofile(None)
    assert cache.hits == 1
    assert stats_digest(warm.stats) == stats_digest(cold.stats)
    # Only the scalar fields: start/end time, first/last delivery.
    assert 1 <= calls["fromhex"] <= 4 * len(cold.stats)
    # One parse of the header line; the series are never text.
    assert calls["json.loads"] == 1
    assert calls["a2b_base64"] == 0


STORE_HAMMER = """
import sys
from array import array
from repro.harness.cache import ResultCache
from repro.sim import FlowStats

cache = ResultCache(sys.argv[1])
key = sys.argv[2]
stats = FlowStats(flow_id=1)
stats.ack_times = array("d", range(8000))
stats.acked_bytes = array("q", range(8000))
stats.rtts = array("d", range(8000))
for _ in range(1500):
    cache.store_run(key, [stats])
    loaded = cache.load_run(key)
    assert loaded is not None and loaded[0][0].rtts == stats.rtts, "torn entry read"
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
