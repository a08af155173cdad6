"""The traced MI utilities of real runs conform to the paper's equations."""

import pytest

from repro.analysis.conformance import Conformance, Mismatch, check_mi_utilities
from repro.harness import EMULAB_DEFAULT, FlowSpec, run_flows
from repro.obs import CollectingTracer
from repro.protocols.proteus import MI_END


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
