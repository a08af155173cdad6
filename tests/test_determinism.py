"""Determinism regression gate: same seed, bit-identical traces.

Every stochastic draw in the simulator flows through a seeded
:class:`repro.core.rng.Rng`, so re-running a scenario with the same seed
must reproduce every ACK time, RTT sample and loss event exactly.  These
tests run each scenario ``--determinism-repeats`` times (default 2) and
compare sha256 digests over the exact ``float.hex()`` trace values —
one ULP of drift fails the gate.
"""

import pytest

from repro.devtools import stats_digest, trace_digest
from repro.harness import FlowSpec, LinkConfig, pmap, run_flows

SCENARIOS = {
    "cubic-vs-proteus-s-noisy": dict(
        specs=[
            FlowSpec("cubic"),
            FlowSpec("proteus-s", start_time=2.0),
        ],
        config=LinkConfig(
            bandwidth_mbps=20.0, rtt_ms=30.0, buffer_kb=150.0,
            loss_rate=0.005, noise_severity=0.3,
        ),
        duration_s=6.0,
    ),
    "homogeneous-proteus-s": dict(
        specs=[FlowSpec("proteus-s"), FlowSpec("proteus-s", start_time=1.0)],
        config=LinkConfig(bandwidth_mbps=12.0, rtt_ms=20.0, buffer_kb=90.0),
        duration_s=5.0,
    ),
    "vivace-lossy": dict(
        specs=[FlowSpec("vivace")],
        config=LinkConfig(
            bandwidth_mbps=10.0, rtt_ms=40.0, buffer_kb=75.0, loss_rate=0.01,
        ),
        duration_s=5.0,
    ),
}


def _digest(name, seed):
    scenario = SCENARIOS[name]
    result = run_flows(
        scenario["specs"], scenario["config"], duration_s=scenario["duration_s"], seed=seed
    )
    return stats_digest(result.stats)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_same_seed_same_trace(name, determinism_repeats):
    digests = {_digest(name, seed=7) for _ in range(determinism_repeats)}
    assert len(digests) == 1, f"{name}: same-seed runs diverged"


def test_different_seeds_differ():
    # Digest sanity: the gate can actually tell traces apart.
    assert _digest("vivace-lossy", seed=7) != _digest("vivace-lossy", seed=8)


def _digest_for_seed(seed: int) -> str:
    """Module-level (hence picklable) experiment for the parallel gate."""
    return _digest("vivace-lossy", seed=seed)


def test_parallel_execution_matches_serial_digests():
    """``pmap`` with 4 workers == 1 worker, byte-for-byte.

    The executor promise: fanning seeded runs across processes changes
    wall-clock only — results come back ordered by seed with traces
    bit-identical to a serial run.
    """
    seeds = [7, 8, 9, 10]
    serial = pmap(_digest_for_seed, seeds, jobs=1)
    parallel = pmap(_digest_for_seed, seeds, jobs=4)
    assert parallel == serial
    assert len(set(serial)) == len(seeds)  # distinct seeds, distinct traces


def test_trace_digest_sensitivity():
    result = run_flows(
        SCENARIOS["vivace-lossy"]["specs"],
        SCENARIOS["vivace-lossy"]["config"],
        duration_s=SCENARIOS["vivace-lossy"]["duration_s"],
        seed=7,
    )
    stats = result.stats[0]
    before = trace_digest(stats)
    assert trace_digest(stats) == before  # digesting is pure
    original = stats.rtts[0]
    stats.rtts[0] = original + 1e-15  # one-ULP-scale perturbation
    assert trace_digest(stats) != before
    stats.rtts[0] = original
    assert trace_digest(stats) == before
