"""One run value: ``RunSpec`` round-trips through JSON, keys the cache and runs.

``RunSpec.to_dict`` is plain JSON whose floats survive ``json`` exactly
and ``RunSpec.from_dict`` is its inverse, so a spec read back from a
file is the run it was written from: the same cache key and, through
``run``, the same simulation as the ``run_flows`` call it describes.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import sample_genome
from repro.core.rng import Rng
from repro.devtools import stats_digest
from repro.harness import (
    EMULAB_DEFAULT,
    TIMELINES,
    TOPOLOGIES,
    BandwidthStep,
    FlowSpec,
    LinkConfig,
    RunSpec,
    Timeline,
    disable_cache,
    enable_cache,
    load_topology,
    run,
    run_flows,
    run_many,
    run_pair,
)
from repro.harness.cache import payload_key, reset_cache_state
from repro.protocols import PROTOCOL_NAMES
from repro.sim.fidelity import FIDELITY_MODES

CONFIG = LinkConfig(bandwidth_mbps=50.0, rtt_ms=30.0, buffer_kb=375.0)


def _key(spec: RunSpec) -> str:
    return payload_key(spec.to_dict())


def _through_json(spec: RunSpec) -> RunSpec:
    return RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))


# ----------------------------------------------------------------------
# The JSON round trip
# ----------------------------------------------------------------------
_finite = st.floats(allow_nan=False, allow_infinity=False)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | _finite | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _flows(draw, duration_s: float):
    return FlowSpec(
        draw(st.sampled_from(PROTOCOL_NAMES)),
        start_time=draw(st.floats(0.0, duration_s, exclude_max=True)),
        size_bytes=draw(st.none() | st.integers(1, 10**12)),
        kwargs=draw(st.dictionaries(st.text(max_size=8), _json, max_size=3)),
        route=draw(st.none() | st.tuples(st.text(max_size=4), st.text(max_size=4))),
    )


_configs = st.builds(
    LinkConfig,
    bandwidth_mbps=st.floats(1e-3, 1e4),
    rtt_ms=st.floats(1e-3, 1e4),
    buffer_kb=st.floats(1e-3, 1e5),
    loss_rate=st.floats(0.0, 1.0, exclude_max=True),
    noise_severity=st.floats(0.0, 10.0),
    reverse_noise_severity=st.floats(0.0, 10.0),
    label=st.text(max_size=8),
)
_timelines = (
    st.none()
    | st.sampled_from(sorted(TIMELINES)).map(lambda name: TIMELINES[name]())
    | st.integers(0, 2**32).map(lambda seed: sample_genome(Rng(seed)).timeline)
)
_topologies = st.none() | st.sampled_from(sorted(TOPOLOGIES)).map(
    lambda name: TOPOLOGIES[name]()
)


@st.composite
def _specs(draw):
    duration_s = draw(st.floats(1e-3, 1e4))
    return RunSpec(
        tuple(draw(st.lists(_flows(duration_s), min_size=1, max_size=4))),
        draw(_configs),
        duration_s=duration_s,
        seed=draw(st.integers(0, 2**63)),
        timeline=draw(_timelines),
        topology=draw(_topologies),
        fidelity=draw(st.sampled_from(FIDELITY_MODES)),
    )


@settings(max_examples=150, deadline=None)
@given(_specs())
def test_a_spec_survives_json_exactly(spec):
    again = _through_json(spec)
    assert again == spec
    assert again.to_dict() == spec.to_dict()
    assert _key(again) == _key(spec)
    # LinkConfig.to_dict spells out every field, in asdict's order.
    assert json.dumps(spec.to_dict()["config"]) == json.dumps(dataclasses.asdict(spec.config))


def test_integer_and_float_times_name_one_run():
    five = RunSpec((FlowSpec("cubic", start_time=1),), CONFIG, duration_s=5)
    five_f = RunSpec((FlowSpec("cubic", start_time=1.0),), CONFIG, duration_s=5.0)
    assert five.to_dict() == five_f.to_dict()
    assert json.dumps(five.to_dict()) == json.dumps(five_f.to_dict())
    assert _key(five) == _key(five_f)


def test_exact_and_hybrid_specs_get_different_keys():
    exact = RunSpec((FlowSpec("cubic"),), CONFIG, duration_s=5.0, fidelity="exact")
    hybrid = RunSpec((FlowSpec("cubic"),), CONFIG, duration_s=5.0, fidelity="hybrid")
    assert _key(exact) != _key(hybrid)


def test_event_times_one_ulp_apart_get_different_keys():
    def at(at_s: float) -> RunSpec:
        timeline = Timeline((BandwidthStep(at_s=at_s, bandwidth_mbps=10.0),))
        return RunSpec((FlowSpec("cubic"),), CONFIG, duration_s=5.0, timeline=timeline)

    at_s = 2.0 + 1 / 3
    assert _key(at(at_s)) != _key(at(math.nextafter(at_s, math.inf)))
    assert _key(at(at_s)) == _key(_through_json(at(at_s)))


def test_a_spec_refuses_what_cannot_run():
    with pytest.raises(ValueError, match="at least one flow"):
        RunSpec((), CONFIG)
    with pytest.raises(ValueError, match="not before the end"):
        RunSpec((FlowSpec("cubic", start_time=5.0),), CONFIG, duration_s=5.0)
    with pytest.raises(ValueError, match="fidelity"):
        RunSpec((FlowSpec("cubic"),), CONFIG, fidelity="approximate")
    with pytest.raises(ValueError, match="not a run"):
        RunSpec.from_dict({"kind": "topology"})


# ----------------------------------------------------------------------
# run(spec) is the run_flows call the spec describes
# ----------------------------------------------------------------------
@pytest.fixture
def no_cache():
    disable_cache()
    yield
    reset_cache_state()


_PAIR = (FlowSpec("cubic"), FlowSpec("proteus-s", start_time=0.5))
RUNS = {
    "dumbbell-pair": lambda: (
        run_flows(list(_PAIR), CONFIG, duration_s=2.0, seed=3, fidelity="exact"), 3
    ),
    "parking-lot-codel": lambda: (
        run_flows(
            list(_PAIR), CONFIG, duration_s=2.0, seed=4, fidelity="exact",
            topology=load_topology("parking-lot-codel"),
        ),
        4,
    ),
    "shared-core-many": lambda: (
        run_many(
            "cubic", "proteus-s", EMULAB_DEFAULT, n_flows=40, duration_s=1.5,
            seed=5, fidelity="exact",
        ),
        5,
    ),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_run_of_a_round_tripped_spec_is_the_run_flows_run(no_cache, name):
    result, seed = RUNS[name]()
    spec = RunSpec(
        tuple(result.specs), result.config, result.duration_s, seed,
        result.timeline, result.topology, "exact",
    )
    again = run(_through_json(spec))
    assert again.dumbbell is not None  # simulated, not read back
    assert stats_digest(again.stats) == stats_digest(result.stats)


# ----------------------------------------------------------------------
# run_pair's solo baseline is run_single's run
# ----------------------------------------------------------------------
def test_a_scavenger_sweep_stores_the_solo_baseline_once(tmp_path):
    cache = enable_cache(tmp_path / "cache")
    try:
        for scavenger in ("proteus-s", "ledbat"):
            run_pair("cubic", scavenger, CONFIG, duration_s=2.0, seed=2, jobs=1)
        assert cache.stores == 3  # one solo baseline, two paired runs
        assert (cache.hits, cache.misses) == (1, 3)
    finally:
        reset_cache_state()
