"""The traced MI utilities of real runs conform to the paper's equations."""

import json

import pytest

from repro.analysis.conformance import Conformance, Mismatch, check_mi_utilities
from repro.apps.video import make_corpus
from repro.harness import EMULAB_DEFAULT, FlowSpec, LinkConfig, run_flows, run_streaming
from repro.obs import CollectingTracer, JsonlTraceSink
from repro.protocols.proteus import MI_END, THRESHOLD_CHANGE


def _traced(names, seed=1):
    tracer = CollectingTracer()
    specs = [FlowSpec(name, start_time=float(i)) for i, name in enumerate(names)]
    run_flows(specs, EMULAB_DEFAULT, duration_s=6.0, seed=seed, tracer=tracer)
    return tracer.rows, {i + 1: name for i, name in enumerate(names)}


def _mi_end(flow, utility, *, rate_bps=10e6, gradient=0.0, loss=0.0, deviation=0.0):
    return (MI_END, 1.5, flow, None, 7, "probe", rate_bps, 0.03, 30, 29, 1, utility,
            9.5, loss, 0.031, gradient, deviation)


@pytest.mark.parametrize("names", [("cubic", "proteus-s"), ("proteus-p", "vivace")], ids=",".join)
def test_traced_utilities_match_the_equations(names):
    rows, protocols = _traced(names)
    report = check_mi_utilities(rows, protocols)
    assert report.mismatches == []
    assert report.checked > 0 and report.unchecked == 0
    # Eq. 1's clamp only matters for a falling RTT: every utility-based
    # flow must have scored such intervals for the check to see it.
    gradient = MI_END.keys.index("rtt_gradient") + 1
    falling = {row[2] for row in rows if row[0] is MI_END and row[gradient] < 0}
    assert falling == {flow for flow, name in protocols.items() if name != "cubic"}


def test_each_formula_by_hand():
    x = 10.0
    base = x**0.9 - 11.35 * x * 0.01
    cases = [
        ("proteus-p", dict(gradient=-0.002, loss=0.01), base),
        ("vivace", dict(gradient=-0.002, loss=0.01), base + 900 * x * 0.002),
        ("proteus-s", dict(gradient=0.001, loss=0.01, deviation=0.002),
         base - 900 * x * 0.001 - 1500 * x * 0.002),
    ]
    for protocol, inputs, utility in cases:
        report = check_mi_utilities([_mi_end(1, utility, **inputs)], {1: protocol})
        assert report == Conformance(checked=1)
        wrong = check_mi_utilities([_mi_end(1, utility + 0.5, **inputs)], {1: protocol})
        (mismatch,) = wrong.mismatches
        assert mismatch == Mismatch(1, protocol, 7, 1.5, utility + 0.5, mismatch.expected)
        assert mismatch.expected == pytest.approx(utility)


def test_rows_without_a_formula_are_counted_unchecked():
    row = _mi_end(3, 1.0)
    assert check_mi_utilities([row], {3: "proteus-h"}) == Conformance(unchecked=1)
    with pytest.raises(KeyError):
        check_mi_utilities([row], {1: "proteus-s"})


def test_traced_proteus_h_utilities_follow_the_threshold_in_force():
    # Two 1080p sessions over Proteus-H: the cross-layer policy moves
    # each flow's threshold, so its intervals score on both sides of it.
    tracer = CollectingTracer()
    videos = make_corpus(seed=1).videos_1080p[:2]
    config = LinkConfig(bandwidth_mbps=30.0, rtt_ms=30.0, buffer_kb=900.0)
    run_streaming(videos, "proteus-h", config, duration_s=8.0, seed=1, tracer=tracer)
    report = check_mi_utilities(tracer.rows, {1: "proteus-h", 2: "proteus-h"})
    assert report.mismatches == []
    assert report.checked > 0 and report.unchecked == 0
    threshold = {}
    sides = set()
    rate = MI_END.keys.index("rate_bps") + 1
    for row in tracer.rows:
        if row[0] is THRESHOLD_CHANGE:
            threshold[row[2]] = row[4]
        elif row[0] is MI_END:
            sides.add(threshold[row[2]] is None or row[rate] < threshold[row[2]])
    assert sides == {True, False}


def test_a_traced_proteus_h_run_writes_strict_json(tmp_path):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    path = tmp_path / "trace.jsonl"
    with JsonlTraceSink(path) as sink:
        run_flows([FlowSpec("proteus-h")], EMULAB_DEFAULT, duration_s=1.0, seed=1, tracer=sink)
    rows = [json.loads(line, parse_constant=refuse) for line in path.read_text().splitlines()]
    # No threshold yet: the utility's infinite one is written as null.
    first = next(row for row in rows if row["kind"] == "threshold.change")
    assert first == {"flow": 1, "kind": "threshold.change", "t": 0.0, "threshold_bps": None}


def test_a_proteus_h_row_scores_by_the_latest_threshold():
    x = 10.0
    p = x**0.9 - 900 * x * 0.001
    s = p - 1500 * x * 0.002
    inputs = dict(gradient=0.001, deviation=0.002)
    for threshold, utility in ((20e6, p), (5e6, s), (10e6, s), (float("inf"), p), (None, p)):
        rows = [
            (THRESHOLD_CHANGE, 0.0, 1, None, 1e6),
            (THRESHOLD_CHANGE, 1.0, 1, None, threshold),
            _mi_end(1, utility, **inputs),
        ]
        assert check_mi_utilities(rows, {1: "proteus-h"}) == Conformance(checked=1)
