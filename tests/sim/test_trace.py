"""Unit tests for per-flow statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devtools import stats_digest
from repro.harness.cache import decode_entry, encode_entry
from repro.sim import FlowStats


def filled_stats():
    stats = FlowStats(flow_id=7)
    for i in range(10):
        stats.record_ack(now=float(i), nbytes=1000, rtt_s=0.030 + 0.001 * i)
    return stats


def test_throughput_over_window():
    stats = filled_stats()
    # ACKs at t=0..9, 1000 bytes each: window [0, 9] holds all ten.
    assert stats.throughput_bps(0.0, 9.0) == pytest.approx(10 * 1000 * 8 / 9.0)
    # Window [4.5, 9] holds acks at 5..9 (five).
    assert stats.throughput_bps(4.5, 9.0) == pytest.approx(5 * 1000 * 8 / 4.5)


def test_throughput_empty_window_is_zero():
    stats = filled_stats()
    assert stats.throughput_bps(100.0, 200.0) == 0.0


def test_throughput_invalid_window_raises():
    stats = filled_stats()
    with pytest.raises(ValueError):
        stats.throughput_bps(5.0, 5.0)


def test_rtt_percentiles_and_min():
    stats = filled_stats()
    assert stats.min_rtt() == pytest.approx(0.030)
    assert stats.rtt_percentile(0) == pytest.approx(0.030)
    assert stats.rtt_percentile(100) == pytest.approx(0.039)
    median = stats.rtt_percentile(50)
    assert 0.033 <= median <= 0.036


def test_rtt_percentile_interpolates_between_samples():
    # Ten samples 0.030..0.039: interior percentiles interpolate linearly
    # instead of snapping to the nearest sample.
    stats = filled_stats()
    assert stats.rtt_percentile(25) == pytest.approx(0.03225)
    assert stats.rtt_percentile(50) == pytest.approx(0.0345)
    assert stats.rtt_percentile(95) == pytest.approx(0.03855)


def test_rtt_percentile_respects_window():
    stats = filled_stats()
    assert stats.rtt_percentile(100, t0=0.0, t1=4.0) == pytest.approx(0.034)


def test_rtt_percentile_empty_window_raises():
    stats = filled_stats()
    with pytest.raises(ValueError):
        stats.rtt_percentile(50, t0=50.0, t1=60.0)
    with pytest.raises(ValueError):
        stats.rtt_percentile(120)


def test_loss_count_windows():
    stats = FlowStats()
    for t in (1.0, 2.0, 3.0):
        stats.record_loss(t)
    assert stats.loss_count() == 3
    assert stats.loss_count(1.5, 2.5) == 1


def test_delivery_accounting():
    stats = FlowStats()
    stats.record_delivery(1.0, 500)
    stats.record_delivery(2.0, 700)
    assert stats.delivered_bytes == 1200
    assert stats.first_delivery == 1.0
    assert stats.last_delivery == 2.0


def test_throughput_series_bins():
    stats = filled_stats()
    series = stats.throughput_series(bin_s=5.0, t0=0.0, t1=10.0)
    assert len(series) == 2
    centers = [c for c, _ in series]
    assert centers == [2.5, 7.5]
    total_mbits = sum(v * 5.0 for _, v in series)
    assert total_mbits == pytest.approx(10 * 1000 * 8 / 1e6)


def test_throughput_series_invalid_bin():
    with pytest.raises(ValueError):
        filled_stats().throughput_series(0.0, 0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.integers(min_value=1, max_value=1500),
        ),
        min_size=1,
        max_size=80,
    )
)
def test_property_windowed_throughput_sums_to_total(events):
    events.sort()
    stats = FlowStats()
    for t, nbytes in events:
        stats.record_ack(t, nbytes, rtt_s=0.03)
    total_bytes = sum(n for _, n in events)
    # One window covering everything recovers the exact byte count.
    assert stats.throughput_bps(-1.0, 101.0) * 102.0 / 8.0 == pytest.approx(
        total_bytes
    )
    assert stats.total_acked_bytes == total_bytes


def _reference_bytes(acks, t0, t1, *, right_closed=True):
    """Bytes of the ACKs in [t0, t1] (or [t0, t1)), summed one by one."""
    return sum(
        nbytes for t, nbytes in acks if t0 <= t and (t <= t1 if right_closed else t < t1)
    )


def _reference_series(acks, bin_s, t0, t1):
    series = []
    t = t0
    while t < t1:
        end = min(t + bin_s, t1)
        total = _reference_bytes(acks, t, end, right_closed=end >= t1)
        series.append((0.5 * (t + end), total * 8.0 / (end - t) / 1e6))
        t = end
    return series


# ACK times on a coarse grid so that ties are common; sizes may be 0 or
# negative (the record takes whatever the sender reports).
ack_lists = st.lists(
    st.tuples(st.integers(0, 40).map(lambda q: q / 4.0), st.integers(-1500, 9000)),
    max_size=60,
).map(sorted)
# From before the first ACK to past the last one (t = 10 s).
window_edges = st.one_of(st.integers(-8, 56).map(lambda q: q / 4.0), st.floats(-2.0, 14.0))


@settings(max_examples=200, deadline=None)
@given(acks=ack_lists, t0=window_edges, t1=window_edges, bin_s=st.floats(0.1, 4.0))
def test_property_running_totals_match_a_per_ack_sum(acks, t0, t1, bin_s):
    stats = FlowStats(flow_id=4)
    for t, nbytes in acks:
        stats.record_ack(t, nbytes, rtt_s=0.03)
    assert len(stats.acked_total) == len(acks)
    assert stats.total_acked_bytes == sum(nbytes for _, nbytes in acks)
    if t1 <= t0:
        with pytest.raises(ValueError):
            stats.throughput_bps(t0, t1)
        assert stats.throughput_series(bin_s, t0, t1) == []
    else:
        assert stats.throughput_bps(t0, t1) == _reference_bytes(acks, t0, t1) * 8.0 / (t1 - t0)
        assert stats.throughput_series(bin_s, t0, t1) == _reference_series(acks, bin_s, t0, t1)
    [rebuilt], _ = decode_entry(encode_entry([stats]))
    assert rebuilt.acked_total == stats.acked_total
    assert stats_digest([rebuilt]) == stats_digest([stats])
